"""Smoke tests of the experiment regenerators at minimal scale."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ExecError
from repro.exec.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec, injected
from repro.experiments import SMOKE_SCALE
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.config import quick
from repro.experiments import fig3, fig5, fig6, table1, table2, table3, table4
from repro.experiments.reporting import ascii_series, ascii_table
from repro.policies import POLICY_NAMES
from repro.sim import Campaign, campaign_jobs, fleet, get_scenario, run_campaign

TINY = quick(SMOKE_SCALE, n_runs=1, flight_time_s=30.0)


class TestReporting:
    def test_ascii_table(self):
        out = ascii_table(["a", "bb"], [["1", "22"], ["333", "4"]], title="t")
        lines = out.split("\n")
        assert lines[0] == "t"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_ascii_table_validates(self):
        with pytest.raises(ValueError):
            ascii_table(["a"], [["1", "2"]])

    def test_ascii_series(self):
        out = ascii_series([0.0, 1.0, 2.0], [0.0, 0.5, 1.0], label="cov")
        assert "cov" in out


class TestTable2:
    def test_runs_and_formats(self):
        result = table2.run(TINY)
        text = table2.format_table(result)
        assert "MMAC" in text
        assert len(result.rows) == 3


class TestTable4:
    def test_runs_and_formats(self):
        result = table4.run(TINY)
        text = table4.format_table(result)
        assert "Motors" in text
        assert result.breakdown.total_w > 7.0


class TestFlightExperiments:
    def test_fig3(self):
        result = fig3.run(TINY)
        assert set(result.grids) == {
            "pseudo-random",
            "wall-following",
            "spiral",
            "rotate-and-measure",
        }
        text = fig3.format_maps(result)
        assert "coverage" in text

    def test_fig5(self):
        result = fig5.run(TINY, speeds=(0.5,))
        assert len(result.coverage) == 4
        assert all(0.0 <= v <= 1.0 for v in result.coverage.values())

    def test_fig5_coverage_column_unchanged_by_normalization(self):
        # Fig. 5 aggregates the campaign's `coverage` column. On the
        # paper room every grid cell is reachable (pinned: 143 of 143),
        # so the reachable-free-space normalization must reproduce the
        # historical visited/n_cells values exactly -- the figure's
        # regression values survive the metric fix untouched.
        from repro.sim import Campaign, get_scenario, run_campaign

        campaign = Campaign(
            name="fig5-pin",
            scenarios=(get_scenario("paper-room"),),
            policies=("pseudo-random",),
            speeds=(0.5,),
            n_runs=2,
            flight_time_s=20.0,
            kind="explore",
            seed=100,
        )
        result = run_campaign(campaign)
        cols = result.columns()
        assert cols["coverage"] == cols["coverage_raw"]
        assert cols["reachable_cells"] == [143, 143]
        assert cols["grid_cells"] == [143, 143]

    def test_table3(self):
        result = table3.run(TINY, widths=("1.0",), speeds=(0.5,))
        assert len(result.rates) == 4
        text = table3.format_table(result)
        assert "pseudo-random" in text

    def test_fig6(self):
        result = fig6.run(TINY)
        assert result.mean_coverage.shape == result.grid_times.shape
        assert (np.diff(result.mean_coverage) >= -1e-9).all()
        text = fig6.format_figure(result)
        assert "coverage" in text


class TestLostJobs:
    @pytest.mark.parametrize("name", ["table1", "table2", "table4", "fig3"])
    def test_keep_going_raises_naming_every_lost_job(self, name, monkeypatch):
        """An experiment that needs every job's payload raises ``ExecError``
        naming each lost job, after all of them ran."""
        plan = FaultPlan((FaultSpec(kind="raise", attempt=None, permanent=True),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        run = {"table1": table1, "table2": table2, "table4": table4, "fig3": fig3}[name].run
        labels = []

        def progress(done, total, job, payload, cached):
            labels.append(job.label)

        with pytest.raises(ExecError) as raised:
            run(SMOKE_SCALE, keep_going=True, progress=progress)
        message = str(raised.value)
        assert message.startswith(f"{len(labels)} of {len(labels)} jobs lost: ")
        for label in labels:
            assert f"{label} failed after 1 attempt(s): ExecError: injected fault" in message

    def test_cli_keep_going_reaches_every_job(self, monkeypatch, capsys):
        """``--keep-going`` reaches the job experiments too: every width
        runs, and the error names each lost one instead of asking for the
        flag the user gave."""
        plan = FaultPlan((FaultSpec(kind="raise", attempt=None, permanent=True),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert experiments_main(["table2", "--no-cache", "--keep-going"]) == 2
        err = capsys.readouterr().err
        n = len(SMOKE_SCALE.widths)
        assert err.startswith(f"error: {n} of {n} jobs lost: ")
        assert "pass keep_going" not in err
        for width in SMOKE_SCALE.widths:
            assert f"deploy width {width:g}x failed" in err


class TestLostMissions:
    """``--keep-going`` reports every lost mission and exits 1."""

    @pytest.mark.parametrize("name", ["fig5", "fig6"])
    def test_every_lost_mission_is_reported(self, name, monkeypatch, capsys):
        plan = FaultPlan((FaultSpec(kind="raise", attempt=None, permanent=True),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert experiments_main([name, "--no-cache", "--keep-going"]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("FAILED mission ")]
        configurations = len(POLICY_NAMES) * len(fig5.PAPER_SPEEDS)
        per_run = configurations if name == "fig5" else 1
        assert len(failed) == per_run * SMOKE_SCALE.n_runs
        assert "ExecError: injected fault" in failed[0]

    def test_a_configuration_without_runs_prints_a_dash(self):
        survivors = [(p, 0.5) for p in POLICY_NAMES if p != "wall-following"]
        result = fig5.Fig5Result(
            coverage={key: 0.5 for key in survivors},
            stddev={key: 0.1 for key in survivors},
            n_runs=2,
            scale_name="smoke",
            speeds=(0.5,),
            runs={key: 2 for key in survivors},
        )
        rows = {line.split()[0]: line for line in fig5.format_table(result).splitlines()}
        assert rows["wall-following"].split()[-1] == "-"
        for policy, _ in survivors:
            assert rows[policy].endswith("50% (±10%)")

    @pytest.mark.parametrize("name", ["fig5", "table3"])
    def test_a_table_without_survivors_keeps_every_configured_axis(
        self, name, monkeypatch, capsys
    ):
        plan = FaultPlan((FaultSpec(kind="raise", attempt=None, permanent=True),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        assert experiments_main([name, "--no-cache", "--keep-going"]) == 1
        header, *rows = [
            [cell.strip() for cell in line.split(" | ")]
            for line in capsys.readouterr().out.splitlines()
            if " | " in line
        ]
        if name == "fig5":
            assert header == ["Policy"] + [f"{s:g} m/s" for s in fig5.PAPER_SPEEDS]
            assert [row[0] for row in rows] == list(POLICY_NAMES)
            assert all(row[1:] == ["-"] * len(fig5.PAPER_SPEEDS) for row in rows)
        else:
            assert [row[:2] for row in rows] == [
                [f"{width}x", f"{speed:g}"]
                for width in ("1.0", "0.75")
                for speed in fig5.PAPER_SPEEDS
            ]
            assert all(row[2:] == ["-"] * len(POLICY_NAMES) for row in rows)

    def test_a_cell_with_lost_runs_shows_its_run_count(self):
        scale = quick(SMOKE_SCALE, n_runs=2, flight_time_s=10.0)
        campaign = table3.build_campaign(scale, speeds=(0.5,))
        lost = [
            job.content_hash()
            for spec, job in zip(campaign.missions(), campaign_jobs(campaign))
            if spec.ssd_width == "0.75" or (spec.policy == "spiral" and spec.run_idx == 0)
        ]
        plan = FaultPlan(
            tuple(
                FaultSpec(kind="raise", match=h, attempt=None, permanent=True)
                for h in lost
            )
        )
        with injected(plan):
            result = table3.run(scale, speeds=(0.5,), keep_going=True)
        assert len(result.failures) == len(lost) == len(POLICY_NAMES) * 2 + 1
        rows = {
            cells[0].strip(): [cell.strip() for cell in cells[2:]]
            for cells in (
                line.split(" | ") for line in table3.format_table(result).splitlines()
            )
            if len(cells) > 1
        }
        assert rows["0.75x"] == ["-"] * len(POLICY_NAMES)
        for policy, cell in zip(POLICY_NAMES, rows["1.0x"]):
            assert cell.endswith("% [1/2 runs]") == (policy == "spiral"), cell
            assert cell != "-"


def _tiny_campaign_run(scale, **kwargs):
    campaign = Campaign(
        name="settings", scenarios=(get_scenario("paper-room"),), flight_time_s=5.0
    )
    return run_campaign(campaign, **kwargs)


class TestExecutionSettings:
    """Each experiment's ``run`` hands its execution settings, unchanged,
    to one ``Executor`` -- through ``run_campaign`` for a campaign."""

    @pytest.mark.parametrize(
        "run",
        [m.run for m in (table1, table2, table3, table4, fig3, fig5, fig6)]
        + [_tiny_campaign_run],
        ids=["table1", "table2", "table3", "table4", "fig3", "fig5", "fig6", "run_campaign"],
    )
    def test_a_misspelt_setting_fails_before_any_job_runs(self, run):
        calls = []
        with pytest.raises(TypeError, match="'worker'"):
            run(TINY, progress=lambda *args: calls.append(args), worker=2)
        assert calls == []

    def test_table3_in_fleet_blocks_returns_the_serial_result(self, monkeypatch):
        scale = quick(SMOKE_SCALE, n_runs=2, flight_time_s=20.0)
        serial = table3.run(scale, speeds=(0.5,))
        blocks = []
        fly_fleet = fleet.fly_fleet

        def counted(specs):
            blocks.append(len(specs))
            return fly_fleet(specs)

        monkeypatch.setattr(fleet, "fly_fleet", counted)
        blocked = table3.run(scale, speeds=(0.5,), fleet_block=8)
        assert blocks == [8, 8]
        assert blocked == serial
        assert table3.format_table(blocked) == table3.format_table(serial)


class TestTable1Job:
    def test_trained_weights_do_not_depend_on_the_blas_thread_count(self):
        """The cache serves a Table I payload whatever BLAS thread count
        computed it, so a width must train to the same bytes on 1 and 2
        OpenBLAS threads."""
        code = (
            "import json, sys\n"
            "from repro.experiments.jobs import train_width\n"
            "payload = train_width(1.0, 8, 8, 1, 1, 1, 8, seed=5)\n"
            "sys.stdout.write(json.dumps(payload, sort_keys=True))\n"
        )
        payloads = [
            subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert b'"state"' in payloads[0]
        assert payloads[0] == payloads[1]
