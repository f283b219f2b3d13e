"""Central registry of the repo's versioned schema tokens.

Every persisted artifact -- cache entries, broker databases, flight
traces, campaign result files, job ``version`` stamps -- carries a
token of the form ``"<family>/v<N>"`` that ties on-disk bytes to the
code that can read them. Until this module existed those tokens were
string literals scattered across four subsystems, which made three
mistakes possible: two families colliding on one name, a version bump
editing one copy of a literal but not another, and a new artifact kind
shipping with no token at all.

All tokens now live here, constructed through :func:`register`, which
enforces uniqueness and the ``family/vN`` shape at import time. The
static analyzer (``python -m repro.lint``, rule ``RPR105``) closes the
loop by rejecting any ``repro.*/vN`` string literal outside this
module, so the registry is the single point a reviewer has to read to
see every on-disk format the repo speaks -- and bumping a version is a
one-line diff next to all its siblings.

Example:
    >>> from repro import schemas
    >>> schemas.CACHE_SCHEMA
    'repro.exec.result/v1'
    >>> schemas.family(schemas.RESULT_SCHEMA)
    'repro.sim.campaign-result'
    >>> schemas.version(schemas.RESULT_SCHEMA)
    2
    >>> schemas.is_registered("repro.exec.result/v1")
    True
"""

from __future__ import annotations

import re
from typing import Dict, Tuple

from repro.errors import ReproError


class SchemaError(ReproError):
    """A malformed, duplicate, or unknown schema token."""


#: Shape every family name must take: a dotted ``repro.``-rooted path,
#: lowercase, with ``-`` allowed inside a segment (the campaign-result
#: family predates this module and uses it).
_FAMILY_RE = re.compile(r"^repro\.[a-z0-9_.-]+[a-z0-9]$")

#: Shape of a full token, used by :func:`parse` and the lint rule.
TOKEN_RE = re.compile(r"^(repro\.[a-z0-9_.-]+[a-z0-9])/v(\d+)$")

#: family -> registered version. One version per family: the token is
#: the *current* writer format; readers that accept older versions do
#: so by parsing the family out of the stored token (see
#: ``repro.sim.results``).
_REGISTRY: Dict[str, int] = {}


def register(name: str, version: int) -> str:
    """Register schema family ``name`` at ``version``; return the token.

    Args:
        name: the family, e.g. ``"repro.exec.result"``.
        version: positive integer format version.

    Returns:
        The canonical token string ``"<name>/v<version>"``.

    Raises:
        SchemaError: for a malformed name, a non-positive version, or a
            family that is already registered (token collisions must be
            impossible, not merely unlikely).
    """
    if not _FAMILY_RE.match(name):
        raise SchemaError(
            f"schema family {name!r} must match {_FAMILY_RE.pattern}"
        )
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise SchemaError(f"{name}: version must be a positive int, got {version!r}")
    if name in _REGISTRY:
        raise SchemaError(f"schema family {name!r} registered twice")
    _REGISTRY[name] = version
    return f"{name}/v{version}"


def parse(token: str) -> Tuple[str, int]:
    """Split a token into ``(family, version)``.

    Raises:
        SchemaError: when ``token`` does not have the ``family/vN`` shape.
    """
    match = TOKEN_RE.match(token)
    if match is None:
        raise SchemaError(f"not a schema token: {token!r}")
    return match.group(1), int(match.group(2))


def family(token: str) -> str:
    """The family part of ``token`` (``"repro.obs.trace/v1"`` -> ``"repro.obs.trace"``)."""
    return parse(token)[0]


def version(token: str) -> int:
    """The integer version of ``token``."""
    return parse(token)[1]


def is_registered(token: str) -> bool:
    """Whether ``token`` is exactly a currently-registered token."""
    try:
        name, ver = parse(token)
    except SchemaError:
        return False
    return _REGISTRY.get(name) == ver


def registered_tokens() -> Tuple[str, ...]:
    """All registered tokens, sorted (stable for reports and tests)."""
    return tuple(f"{name}/v{ver}" for name, ver in sorted(_REGISTRY.items()))


# -- the tokens ------------------------------------------------------------
#
# Values are frozen history: changing any string here re-keys artifacts
# on disk. Bump a version (and migrate readers) instead of editing a
# family name.

#: :class:`repro.exec.executor.JobFailure` plain-data envelope.
FAILURE_SCHEMA = register("repro.exec.failure", 1)

#: SQLite work-queue broker database (``repro.exec.queue``).
BROKER_SCHEMA = register("repro.exec.queue", 1)

#: Persistent :class:`repro.exec.cache.ResultCache` entry files.
CACHE_SCHEMA = register("repro.exec.result", 1)

#: Flight-trace artifacts (``repro.obs.trace``); independent of the
#: result-cache schema so a trace-format bump never invalidates results.
TRACE_SCHEMA = register("repro.obs.trace", 1)

#: Campaign result files (``repro.sim.results``). v2 added the
#: reachable-free-space coverage normalization; v1 files still load.
RESULT_SCHEMA = register("repro.sim.campaign-result", 2)

#: Job ``version`` stamp for campaign mission jobs
#: (``repro.sim.runner``). Decoupled from :data:`RESULT_SCHEMA` (which
#: tracks the result *file* format): a change that redraws mission
#: randomness without touching the file shape bumps this token only.
#: History: v1/v2 rode on the campaign-result token; v3 = per-sensor
#: spawned seed streams (flow, gyro, ranger dropout, ranger noise),
#: which re-keys every cached mission once.
MISSION_JOB_VERSION = register("repro.sim.mission-job", 3)

#: Job ``version`` stamp for the paper-experiment jobs
#: (``repro.experiments.jobs``): training, deployment plans, fig3.
#: History: v2 = ``matmul`` pointwise convs, shifted-slice depthwise
#: convs and the sum-reusing BatchNorm, whose float reductions run in
#: another order, so trained weights differ in their last bits; v3 =
#: training steps computed in float32 on float64 master weights; v4 =
#: channels-last depthwise convs, whose weight gradients reduce in two
#: stages, and ``Conv2d`` gradients reduced over C-ordered copies.
EXPERIMENT_JOB_VERSION = register("repro.experiments.jobs", 4)

#: ``python -m repro.lint --format json`` report documents.
#: History: v2 dropped the baseline keys (``grandfathered``,
#: ``stale_baseline``, ``summary`` and each finding's ``fingerprint``).
LINT_REPORT_SCHEMA = register("repro.lint.report", 2)
