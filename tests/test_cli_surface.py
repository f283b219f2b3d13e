"""The command-line surface of ``repro.sim``, ``repro.experiments`` and
``repro.exec``.

Each parser keeps the option strings it had before the shared flag
table, every shared flag it takes is the table's declaration, and the
``repro.exec`` queue commands work (and fail) as documented, run
in-process.
"""

import argparse
import json
import signal

import pytest

import repro.exec.__main__ as exec_cli
import repro.experiments.__main__ as experiments_cli
import repro.sim.__main__ as sim_cli
from repro.exec import Broker
from repro.exec.flags import FLAGS

#: Option strings of every parser, ``-h`` aside, as they were before
#: the shared flag table, except that ``repro.exec drain`` spelled its
#: wait limit ``--timeout``.
OPTIONS = {
    "repro.sim list": [],
    "repro.sim show": ["--map", "--no-map", "--param", "--seed"],
    "repro.sim run": [
        "--broker", "--cache-dir", "--enqueue-only", "--family",
        "--family-seed", "--fleet-block", "--flight-time", "--keep-going",
        "--kind", "--name", "--no-cache", "--out", "--param", "--policy",
        "--poll", "--progress", "--quiet", "--record", "--retries",
        "--retry-backoff", "--runs", "--scenario", "--seed", "--speed",
        "--timeout", "--wait-timeout", "--width", "--workers",
    ],
    "repro.sim replay": ["--cache-dir", "--verify"],
    "repro.sim report": ["--cache-dir", "--out"],
    "repro.sim cache": ["--cache-dir", "--max-age", "--max-bytes"],
    "repro.experiments": [
        "--broker", "--cache-dir", "--full", "--keep-going", "--max-age",
        "--max-bytes", "--no-cache", "--progress", "--retries", "--timeout",
        "--workers",
    ],
    "repro.exec worker": [
        "--broker", "--cache-dir", "--exit-when-drained", "--lease",
        "--max-jobs", "--no-cache", "--poll", "--retry-backoff", "--timeout",
        "--verbose", "--worker-id",
    ],
    "repro.exec submit": ["--broker", "--max-reclaims", "--retries"],
    "repro.exec status": ["--broker", "--json"],
    "repro.exec drain": ["--broker", "--poll", "--wait-timeout"],
    "repro.exec requeue": ["--broker"],
}

#: What a declaration fixes about a flag.
ATTRIBUTES = ("option_strings", "type", "default", "help", "metavar", "nargs",
              "const", "choices", "required")


class _Built(Exception):
    """Raised in place of parsing; carries the parser ``main`` built."""


def _capture(parser, *args, **kwargs):
    raise _Built(parser)


@pytest.fixture(scope="module")
def parsers():
    """``{prog: parser}`` for every command and subcommand parser."""
    found = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(argparse.ArgumentParser, "parse_args", _capture)
        for prog, cli in (
            ("repro.sim", sim_cli),
            ("repro.experiments", experiments_cli),
            ("repro.exec", exec_cli),
        ):
            with pytest.raises(_Built) as built:
                cli.main([])
            parser = built.value.args[0]
            subs = [
                action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)
            ]
            if subs:
                for name, sub in subs[0].choices.items():
                    found[f"{prog} {name}"] = sub
            else:
                found[prog] = parser
    return found


def _options(parser):
    return sorted(
        s for action in parser._actions for s in action.option_strings
        if s not in ("-h", "--help")
    )


class TestParsers:
    def test_every_parser_is_checked(self, parsers):
        assert sorted(parsers) == sorted(OPTIONS)

    @pytest.mark.parametrize("prog", sorted(OPTIONS))
    def test_option_strings_are_unchanged(self, parsers, prog):
        assert _options(parsers[prog]) == OPTIONS[prog]

    @pytest.mark.parametrize("prog", sorted(OPTIONS))
    def test_shared_flags_are_the_tables_declarations(self, parsers, prog):
        actions = {
            action.option_strings[0]: action
            for action in parsers[prog]._actions
            if action.option_strings
        }
        shared = [s for s in OPTIONS[prog] if s in FLAGS]
        if prog.startswith("repro.exec "):
            shared.remove("--broker")  # the queue commands' required flag
        reference = argparse.ArgumentParser()
        for spelling in shared:
            got = actions[spelling]
            want = reference.add_argument(spelling, **FLAGS[spelling])
            assert type(got) is type(want), spelling
            for attribute in ATTRIBUTES:
                assert getattr(got, attribute) == getattr(want, attribute), (
                    spelling, attribute
                )


# -- repro.exec, in-process --------------------------------------------------

JOBS = [
    {"fn": "repro.exec.demo:scaled_sum",
     "kwargs": {"values": [1.0, 2.0], "factor": 2.0},
     "version": "v1", "label": "sum"},
    {"fn": "repro.exec.demo:always_fails", "kwargs": {}, "version": "v1",
     "label": "boom"},
]


@pytest.fixture()
def queue(tmp_path, capsys):
    """A queue database holding the two pending :data:`JOBS`."""
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps(JOBS))
    db = str(tmp_path / "queue.db")
    assert exec_cli.main(["submit", "--broker", db, str(jobs)]) == 0
    assert "submitted 2 jobs" in capsys.readouterr().out
    return db


@pytest.fixture()
def no_signals(monkeypatch):
    """Keep the worker command from installing handlers in this process."""
    monkeypatch.setattr(signal, "signal", lambda *args: None)


class TestExecCommands:
    def test_status_reports_the_submitted_jobs(self, queue, capsys):
        assert exec_cli.main(["status", "--broker", queue]) == 0
        assert "2 jobs -- 2 pending, 0 leased, 0 done" in capsys.readouterr().out
        assert exec_cli.main(["status", "--broker", queue, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["jobs"]["total"] == stats["jobs"]["pending"] == 2

    def test_drain_gives_up_after_its_wait_timeout(self, queue, capsys):
        argv = ["drain", "--broker", queue, "--poll", "0.05", "--wait-timeout", "0.2"]
        assert exec_cli.main(argv) == 2
        assert "drain timed out with 2 jobs unfinished" in capsys.readouterr().err

    def test_drain_no_longer_spells_its_wait_limit_timeout(self, queue):
        with pytest.raises(SystemExit) as exc:
            exec_cli.main(["drain", "--broker", queue, "--timeout", "5"])
        assert exc.value.code == 2

    def test_drain_and_requeue_after_a_failed_job(self, queue, capsys, no_signals):
        argv = ["worker", "--broker", queue, "--no-cache", "--exit-when-drained"]
        assert exec_cli.main(argv) == 0
        capsys.readouterr()
        assert exec_cli.main(["status", "--broker", queue]) == 0
        out = capsys.readouterr().out
        assert "1 done (0 from cache), 1 failed" in out
        assert "FAILED boom: ExecError: boom" in out
        assert exec_cli.main(["drain", "--broker", queue, "--wait-timeout", "5"]) == 1
        assert "queue drained: 1 done, 1 failed of 2 jobs" in capsys.readouterr().out
        assert exec_cli.main(["requeue", "--broker", queue]) == 0
        assert "requeued 1 failed jobs" in capsys.readouterr().out
        with Broker(queue) as broker:
            assert (broker.counts().pending, broker.counts().done) == (1, 1)

    @pytest.mark.parametrize(
        "argv",
        [["status"], ["drain", "--wait-timeout", "5"], ["requeue"]],
        ids=["status", "drain", "requeue"],
    )
    def test_a_missing_queue_is_an_error_and_is_not_created(
        self, tmp_path, capsys, argv
    ):
        db = str(tmp_path / "typo-dir" / "queue.db")
        assert exec_cli.main([argv[0], "--broker", db, *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: no queue database at {db}\n"
        assert not (tmp_path / "typo-dir").exists()


#: Job files ``repro.exec submit`` must refuse before submitting anything.
BAD_JOB_FILES = {
    "malformed.json": "[{not json",
    "no-fn.json": json.dumps([{"kwargs": {}}]),
    "list-kwargs.json": json.dumps([{"fn": "repro.exec.demo:scaled_sum", "kwargs": [1]}]),
    "int-fn.json": json.dumps([{"fn": 5}]),
    "str-spawn-key.json": json.dumps([{"fn": "repro.exec.demo:scaled_sum", "spawn_key": ["a"]}]),
    "str-entropy.json": json.dumps([{"fn": "repro.exec.demo:scaled_sum", "seed_entropy": "x"}]),
    "list-label.json": json.dumps([{"fn": "repro.exec.demo:scaled_sum", "label": ["x"]}]),
    "misspelled-kwargs.json": json.dumps(
        [{"fn": "repro.exec.demo:scaled_sum", "kwarg": {"values": [1.0]}}]
    ),
}


#: Result files ``repro.sim report`` and ``replay`` must refuse.
_RECORD = {
    "index": 0, "scenario": "paper-room", "kind": "search", "policy": "spiral",
    "speed": 0.5, "ssd_width": "1.0", "run_idx": 0, "flight_time_s": 5.0,
    "detection_rate": 0.0, "coverage": 0.1, "collisions": 0,
    "frames_processed": 0, "n_objects": 6, "distance_flown_m": 1.0,
}
_RESULT = {
    "schema": "repro.sim.campaign-result/v2", "campaign": {"name": "bad"},
    "campaign_hash": "0" * 64,
}
BAD_RESULT_FILES = {
    "not-json.json": "{not json",
    "no-records.json": json.dumps(_RESULT),
    "unknown-field.json": json.dumps(
        {**_RESULT, "records": [{**_RECORD, "bogus": 1}]}
    ),
}


class TestBadValues:
    """Bad poll intervals, wait timeouts, job files and result files end
    in ``error: ...`` and exit 2, not in a traceback or a busy loop."""

    @pytest.mark.parametrize(
        "command, path, message",
        [
            ("report", "missing.json", "cannot read a campaign result"),
            ("report", "not-json.json", "cannot read a campaign result"),
            ("replay", "not-json.json", "cannot read a campaign result"),
            ("report", "no-records.json", "campaign result lacks 'records'"),
            ("replay", "no-records.json", "campaign result lacks 'records'"),
            ("report", "unknown-field.json", "unexpected keyword argument 'bogus'"),
            ("replay", "unknown-field.json", "unexpected keyword argument 'bogus'"),
        ],
        ids=[
            "report-missing", "report-not-json", "replay-not-json",
            "report-no-records", "replay-no-records", "report-unknown-field",
            "replay-unknown-field",
        ],
    )
    def test_sim_result_files(
        self, tmp_path, capsys, monkeypatch, command, path, message
    ):
        for name, text in BAD_RESULT_FILES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        argv = [command, path, "--cache-dir", str(tmp_path / "cache")]
        assert sim_cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err
        assert not (tmp_path / "campaign-report.html").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--poll", "-1"], "poll_s must be > 0"),
            (["--poll", "0", "--wait-timeout", "1"], "poll_s must be > 0"),
            (["--wait-timeout", "-1"], "wait_timeout_s must be > 0"),
            (["--wait-timeout", "0"], "wait_timeout_s must be > 0"),
        ],
        ids=["poll-negative", "poll-zero", "wait-negative", "wait-zero"],
    )
    def test_sim_run_through_a_broker(self, tmp_path, capsys, extra, message):
        db = str(tmp_path / "queue.db")
        argv = [
            "run", "--scenario", "paper-room", "--runs", "1", "--flight-time",
            "5", "--no-cache", "--quiet", "--broker", db, *extra,
        ]
        assert sim_cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        with Broker(db) as broker:
            assert broker.counts().total == 0  # rejected before submitting

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["drain", "--poll", "-1"], "poll_s must be > 0"),
            (["drain", "--poll", "0", "--wait-timeout", "1"], "poll_s must be > 0"),
            (["drain", "--wait-timeout", "-1"], "wait_timeout_s must be > 0"),
            (["drain", "--wait-timeout", "0"], "wait_timeout_s must be > 0"),
            (["worker", "--poll", "0", "--exit-when-drained", "--no-cache"],
             "poll_s must be > 0"),
            (["worker", "--poll", "-1", "--exit-when-drained", "--no-cache"],
             "poll_s must be > 0"),
            (["submit", "missing.json"], "cannot load job specs from"),
            (["submit", "malformed.json"], "cannot load job specs from"),
            (["submit", "no-fn.json"], "field 'fn' is missing"),
            (["submit", "list-kwargs.json"], "field 'kwargs' must be an object"),
            (["submit", "int-fn.json"], "field 'fn' must be a string"),
            (["submit", "str-spawn-key.json"], "field 'spawn_key' must be a list of integers"),
            (["submit", "str-entropy.json"], "field 'seed_entropy' must be an integer or null"),
            (["submit", "list-label.json"], "field 'label' must be a string"),
            (["submit", "misspelled-kwargs.json"], "unknown field(s) ['kwarg']"),
        ],
        ids=[
            "drain-poll-negative", "drain-poll-zero", "drain-wait-negative",
            "drain-wait-zero", "worker-poll-zero", "worker-poll-negative",
            "submit-missing", "submit-malformed", "submit-no-fn",
            "submit-list-kwargs", "submit-int-fn", "submit-str-spawn-key",
            "submit-str-entropy", "submit-list-label", "submit-misspelled-kwargs",
        ],
    )
    def test_exec_commands(
        self, queue, tmp_path, capsys, no_signals, monkeypatch, argv, message
    ):
        for name, text in BAD_JOB_FILES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        assert exec_cli.main([argv[0], "--broker", queue, *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        with Broker(queue) as broker:
            assert broker.counts().pending == 2  # nothing leased or added
