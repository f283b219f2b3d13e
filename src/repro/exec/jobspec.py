"""Self-contained job descriptions with deterministic content hashes.

A :class:`JobSpec` is the unit of work of the execution layer: a dotted
reference to a module-level callable, a plain-data keyword payload, and
optional ``SeedSequence`` provenance. Because the spec is *data* -- no
live objects, no closures -- it pickles to a worker process unchanged,
serializes to canonical JSON, and its :meth:`~JobSpec.content_hash`
keys the persistent :class:`~repro.exec.cache.ResultCache`: two jobs
with the same hash are guaranteed to compute the same thing, so one may
reuse the other's stored result.

The hash covers exactly the five things that determine a deterministic
job's output: the callable reference, the canonicalized kwargs, the
seed provenance ``(entropy, spawn_key)``, and a caller-supplied
``version`` token that is bumped whenever the callable's *code* changes
meaning (see ``docs/execution.md`` for the full cache-keying contract).
Cosmetic fields (``label``) are excluded.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ExecError


def canonical_value(value: Any, path: str = "kwargs") -> Any:
    """Recursively coerce ``value`` into canonical JSON plain data.

    Tuples become lists, numpy scalars become Python scalars, and dicts
    must be string-keyed. Anything else (live objects, arrays, sets)
    is rejected: a payload the hash cannot see must never reach a job.

    Args:
        value: the value to canonicalize.
        path: dotted location used in error messages.

    Returns:
        An equal value built only from ``dict``/``list``/``str``/
        ``int``/``float``/``bool``/``None``.

    Raises:
        ExecError: for values with no canonical JSON form.

    Example:
        >>> from repro.exec import canonical_value
        >>> canonical_value({"b": (1, 2), "a": 3.0})
        {'b': [1, 2], 'a': 3.0}
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, np.generic):  # numpy scalar -> Python scalar
        value = value.item()
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [canonical_value(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ExecError(
                    f"{path}: dict keys must be strings, got {key!r}"
                )
            out[key] = canonical_value(item, f"{path}.{key}")
        return out
    raise ExecError(
        f"{path}: {type(value).__name__} has no canonical JSON form; "
        "pass plain data (dict/list/str/numbers) and rebuild rich "
        "objects inside the job callable"
    )


def canonical_json(value: Any) -> str:
    """The canonical JSON string all hashes and caches are built from."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def json_roundtrip(value: Any) -> Any:
    """Normalize ``value`` through a JSON encode/decode cycle.

    Every execution path (serial, pooled, cache hit) returns results
    through this normalization, which is what makes the three paths
    byte-identical downstream: a freshly-computed tuple and a
    cache-loaded list collapse to the same plain data, while floats
    survive exactly (``json`` round-trips the shortest ``repr``).
    """
    return json.loads(json.dumps(value))  # repro: noqa[RPR104] ordering is discarded by the immediate loads; not a persisted form


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class JobSpec:
    """One unit of deterministic work, as pure data.

    Attributes:
        fn: dotted reference ``"package.module:function"`` (or the
            legacy ``"package.module.function"`` form) to a
            module-level callable.
        kwargs: keyword payload, canonicalized at construction (tuples
            become lists, numpy scalars become Python scalars).
        seed_entropy: root entropy of the job's ``SeedSequence``, or
            ``None`` for jobs that consume no randomness.
        spawn_key: spawn key of the job's stream; together with
            ``seed_entropy`` this reproduces exactly the child stream
            ``SeedSequence(entropy).spawn(n)[i]`` would hand out.
        version: code-version token mixed into the hash; bump it when
            the callable's semantics change so stale cached results are
            invalidated instead of silently reused.
        label: human-readable name for progress lines; excluded from
            the hash (renaming a job must not re-execute it).
        extra: observability-only keyword arguments passed to the
            callable alongside ``kwargs`` but excluded from the hash
            and from :meth:`to_dict`. For side effects that must not
            change the result or its cache identity -- e.g. the trace
            directory a recorded mission writes its telemetry to. The
            callable's contract is that ``extra`` never influences the
            returned value; keys may not shadow ``kwargs`` keys.

    Example:
        >>> from repro.exec import JobSpec
        >>> job = JobSpec(
        ...     fn="repro.exec.demo:seeded_normals",
        ...     kwargs={"n": 3},
        ...     seed_entropy=7,
        ...     spawn_key=(0,),
        ...     version="demo/v1",
        ... )
        >>> job.run() == job.run()  # deterministic from the spec alone
        True
        >>> job.content_hash() == job.content_hash()
        True
    """

    fn: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    seed_entropy: Optional[int] = None
    spawn_key: Tuple[int, ...] = ()
    version: str = ""
    label: str = ""
    extra: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.fn or (":" not in self.fn and "." not in self.fn):
            raise ExecError(
                f"fn must reference a module-level callable as "
                f"'package.module:function', got {self.fn!r}"
            )
        object.__setattr__(self, "kwargs", canonical_value(dict(self.kwargs)))
        object.__setattr__(self, "spawn_key", tuple(int(k) for k in self.spawn_key))
        if self.seed_entropy is not None:
            object.__setattr__(self, "seed_entropy", int(self.seed_entropy))
        object.__setattr__(
            self, "extra", canonical_value(dict(self.extra), "extra")
        )
        shadowed = set(self.extra) & set(self.kwargs)
        if shadowed:
            raise ExecError(
                f"extra keys shadow kwargs: {sorted(shadowed)}; side-channel "
                "arguments must not overlap the hashed payload"
            )

    # -- identity ---------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical plain-data form (JSON- and hash-friendly).

        Excludes the cosmetic ``label`` and the side-channel ``extra``:
        the dict *is* the job's identity, and neither may influence the
        result.
        """
        return {
            "fn": self.fn,
            "kwargs": self.kwargs,
            "seed_entropy": self.seed_entropy,
            "spawn_key": list(self.spawn_key),
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: dict, label: str = "") -> "JobSpec":
        """Inverse of :meth:`to_dict`, and the parser of job files.

        Raises:
            ExecError: naming the field, when ``fn`` is missing or a
                field is unknown or has the wrong type.
        """
        unknown = sorted(set(data) - {"fn", "kwargs", "seed_entropy", "spawn_key", "version"})
        if unknown:
            raise ExecError(f"job spec has unknown field(s) {unknown}")
        if "fn" not in data:
            raise ExecError("job spec field 'fn' is missing")
        spawn_key = data.get("spawn_key", ())
        for name, ok, want in (
            ("fn", isinstance(data["fn"], str), "a string"),
            ("kwargs", isinstance(data.get("kwargs", {}), dict), "an object"),
            ("seed_entropy", data.get("seed_entropy") is None
             or _is_int(data["seed_entropy"]), "an integer or null"),
            ("spawn_key", isinstance(spawn_key, (list, tuple))
             and all(map(_is_int, spawn_key)), "a list of integers"),
            ("version", isinstance(data.get("version", ""), str), "a string"),
        ):
            if not ok:
                raise ExecError(f"job spec field {name!r} must be {want}, got {data[name]!r}")
        return cls(
            fn=data["fn"],
            kwargs=dict(data.get("kwargs", {})),
            seed_entropy=data.get("seed_entropy"),
            spawn_key=tuple(data.get("spawn_key", ())),
            version=data.get("version", ""),
            label=label,
        )

    def content_hash(self) -> str:
        """Stable SHA-256 digest of everything that determines the result.

        Covers ``fn``, the canonical kwargs, the seed provenance and
        the ``version`` token; excludes the cosmetic ``label`` and the
        side-channel ``extra`` (attaching observability outputs to a
        job must not re-key its cached result). The
        digest is identical in every process and across interpreter
        runs (no ``hash()`` randomization involved). Memoized: the spec
        is frozen, and the executor asks several times per job (cache
        lookup, dedup grouping, store), which would otherwise
        re-serialize a potentially large payload each time.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            blob = canonical_json(self.to_dict())
            cached = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_content_hash", cached)
        return cached

    # -- execution --------------------------------------------------------

    def seed_sequence(self) -> Optional[np.random.SeedSequence]:
        """The job's independent root stream, or ``None`` if unseeded."""
        if self.seed_entropy is None:
            return None
        return np.random.SeedSequence(self.seed_entropy, spawn_key=self.spawn_key)

    def resolve(self) -> Callable[..., Any]:
        """Import and return the referenced callable.

        Raises:
            ExecError: when the module or attribute does not exist, or
                the attribute is not callable.
        """
        module_name, sep, attr = self.fn.partition(":")
        if not sep:
            module_name, _, attr = self.fn.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise ExecError(f"cannot import job module {module_name!r}: {exc}") from exc
        target: Any = module
        for part in attr.split("."):
            target = getattr(target, part, None)
            if target is None:
                raise ExecError(f"{module_name!r} has no attribute {attr!r}")
        if not callable(target):
            raise ExecError(f"{self.fn!r} is not callable")
        return target

    def run(self) -> Any:
        """Execute the job in-process and return its raw result.

        The callable receives the canonical kwargs (plus any ``extra``
        side-channel arguments); jobs with seed provenance additionally
        receive ``seed=<SeedSequence>`` derived from ``(seed_entropy,
        spawn_key)`` -- the spec owns the stream, the payload stays
        seed-free.
        """
        fn = self.resolve()
        seed = self.seed_sequence()
        if seed is None:
            return fn(**self.kwargs, **self.extra)
        return fn(**self.kwargs, **self.extra, seed=seed)
