"""The schema-token registry: frozen values, parsing, duplicate rejection."""

import pytest

from repro import schemas
from repro.schemas import SchemaError

#: Every persisted-artifact token the repo ships, frozen. Changing one
#: of these values invalidates artifacts on disk; this test forces that
#: to be a deliberate, reviewed act (bump the version, don't mutate).
FROZEN_TOKENS = {
    "FAILURE_SCHEMA": "repro.exec.failure/v1",
    "BROKER_SCHEMA": "repro.exec.queue/v1",
    "CACHE_SCHEMA": "repro.exec.result/v1",
    "TRACE_SCHEMA": "repro.obs.trace/v1",
    "RESULT_SCHEMA": "repro.sim.campaign-result/v2",
    "MISSION_JOB_VERSION": "repro.sim.mission-job/v3",
    "EXPERIMENT_JOB_VERSION": "repro.experiments.jobs/v4",
    "LINT_REPORT_SCHEMA": "repro.lint.report/v2",
}


def test_tokens_frozen():
    for name, value in FROZEN_TOKENS.items():
        assert getattr(schemas, name) == value


def test_every_frozen_token_registered():
    registered = schemas.registered_tokens()
    assert list(registered) == sorted(registered)
    for value in FROZEN_TOKENS.values():
        assert schemas.is_registered(value)
        assert value in registered


def test_consumer_modules_reexport_registry_tokens():
    """The scattered per-module constants are the registry's, not copies."""
    from repro.exec.cache import CACHE_SCHEMA
    from repro.exec.executor import FAILURE_SCHEMA
    from repro.exec.queue import BROKER_SCHEMA
    from repro.experiments.jobs import EXPERIMENT_JOB_VERSION
    from repro.obs.trace import TRACE_SCHEMA
    from repro.sim.results import RESULT_SCHEMA
    from repro.sim.runner import MISSION_JOB_VERSION

    assert CACHE_SCHEMA == schemas.CACHE_SCHEMA
    assert FAILURE_SCHEMA == schemas.FAILURE_SCHEMA
    assert BROKER_SCHEMA == schemas.BROKER_SCHEMA
    assert EXPERIMENT_JOB_VERSION == schemas.EXPERIMENT_JOB_VERSION
    assert TRACE_SCHEMA == schemas.TRACE_SCHEMA
    assert RESULT_SCHEMA == schemas.RESULT_SCHEMA
    assert MISSION_JOB_VERSION == schemas.MISSION_JOB_VERSION


def test_parse_family_version():
    token = schemas.RESULT_SCHEMA
    family, version = schemas.parse(token)
    assert family == "repro.sim.campaign-result"
    assert version == 2
    assert schemas.family(token) == family
    assert schemas.version(token) == version


@pytest.mark.parametrize(
    "bad",
    ["", "no-slash", "repro.thing/v", "repro.thing/vx", "thing/v1", "repro./v1"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(SchemaError):
        schemas.parse(bad)


def test_register_rejects_duplicate_family():
    with pytest.raises(SchemaError):
        schemas.register("repro.exec.failure", 9)


def test_register_rejects_bad_family_name():
    for family in ("Exec.Bad", "repro.UPPER", "repro.trailing.", "notrepro.x"):
        with pytest.raises(SchemaError):
            schemas.register(family, 1)


def test_register_new_family_roundtrips():
    token = schemas.register("repro.test.test-schemas-roundtrip", 3)
    try:
        assert token == "repro.test.test-schemas-roundtrip/v3"
        assert schemas.is_registered(token)
        assert schemas.parse(token) == ("repro.test.test-schemas-roundtrip", 3)
    finally:
        # keep the process-wide registry clean for other tests
        schemas._REGISTRY.pop("repro.test.test-schemas-roundtrip", None)
