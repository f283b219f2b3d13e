"""Persistent result cache keyed by job content hash.

One JSON file per cached result, sharded by the first two hex digits of
the :meth:`~repro.exec.jobspec.JobSpec.content_hash`::

    <cache-dir>/
        ab/
            ab3f...9c.json      {"schema": ..., "job": ..., "result": ...}
        f0/
            f04d...11.json

Files carry a versioned schema string; entries written by an older (or
newer) cache layout are treated as misses, never as errors. Cache files
are written atomically (temp file + ``os.replace``) so a crashed run
cannot leave a torn entry behind, and their content is deterministic:
the same job always produces byte-identical cache files.

The cache also maintains itself. An entry that fails to parse is
*quarantined* -- renamed to ``<name>.json.quarantined`` so it stops
being re-read forever, stays available for a post-mortem, and shows up
in :meth:`ResultCache.stats` instead of masquerading as an eternal
miss. ``.tmp-*`` files abandoned by crashed writers are counted by
``stats()`` and removed by ``clear()`` and ``evict()``.
:meth:`ResultCache.evict` bounds the directory with an LRU policy (by
mtime; a cache hit refreshes an entry's mtime), deleting paired flight
traces along with their entries.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple, Optional, Tuple

from repro import schemas
from repro.errors import ExecError
from repro.exec import faults
from repro.exec.jobspec import JobSpec, canonical_json, json_roundtrip

#: Cache-entry schema; bump when the on-disk layout changes so old
#: entries read as misses instead of mis-parsing.
CACHE_SCHEMA = schemas.CACHE_SCHEMA

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Fallback cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Suffix of flight-trace artifacts stored beside cache entries by
#: :class:`repro.obs.store.TraceStore` (defined here so eviction can
#: pair traces with entries without importing the obs layer). Must not
#: end in a bare ``.json`` or the entry scan would pick traces up as
#: corrupt entries.
TRACE_SUFFIX = ".trace.json.gz"

#: Suffix appended to a corrupt entry when it is quarantined.
QUARANTINE_SUFFIX = ".quarantined"


def parse_size(text: str) -> int:
    """Parse a byte budget: plain bytes or a ``k``/``M``/``G`` suffix.

    >>> parse_size("500M")
    500000000

    Raises:
        ExecError: for unparseable input.
    """
    units = {"k": 1_000, "M": 1_000_000, "G": 1_000_000_000}
    raw = text.strip()
    scale = units.get(raw[-1:])
    if scale is not None:
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise ExecError(
            f"{text!r} is not a size (use bytes or a k/M/G suffix, e.g. 500M)"
        ) from None
    if value < 0:
        raise ExecError(f"size must be non-negative, got {text!r}")
    return int(value * (scale or 1))


def parse_age(text: str) -> float:
    """Parse an age: plain seconds or an ``s``/``m``/``h``/``d`` suffix.

    >>> parse_age("30d")
    2592000.0

    Raises:
        ExecError: for unparseable input.
    """
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    raw = text.strip()
    scale = units.get(raw[-1:])
    if scale is not None:
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise ExecError(
            f"{text!r} is not an age (use seconds or an s/m/h/d suffix, e.g. 30d)"
        ) from None
    if value < 0:
        raise ExecError(f"age must be non-negative, got {text!r}")
    return value * (scale or 1.0)


def default_cache_dir() -> str:
    """The cache directory the CLIs use: ``$REPRO_CACHE_DIR`` or
    ``.repro-cache`` under the current working directory."""
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


class CacheStats(NamedTuple):
    """Point-in-time size of a cache directory.

    ``by_version`` breaks the entries down by the job ``version`` token
    they were stored under (the schema of the computation: mission
    records, experiment jobs, ...), as ``(version, entries, bytes)``
    rows sorted by version; unreadable files land under
    ``"<unreadable>"``.
    """

    entries: int  #: number of valid-looking entry files
    total_bytes: int  #: bytes on disk across those entries
    by_version: Tuple[Tuple[str, int, int], ...] = ()  #: per-version breakdown
    orphans: int = 0  #: abandoned ``.tmp-*`` files from crashed writers
    quarantined: int = 0  #: corrupt entries set aside by quarantine


class EvictionReport(NamedTuple):
    """What one :meth:`ResultCache.evict` call removed."""

    removed_entries: int  #: live entries evicted (LRU order)
    removed_traces: int  #: paired trace artifacts evicted with them
    removed_junk: int  #: quarantined entries and orphaned temp files
    freed_bytes: int  #: bytes reclaimed across all of the above
    remaining_bytes: int  #: entry+trace bytes still on disk afterwards


@dataclass
class ResultCache:
    """JSON-on-disk store of job results, keyed by content hash.

    The cache is safe to share between experiments and campaigns: keys
    cover the full job identity (callable, kwargs, seed provenance,
    code version), so a hit is a proof that the exact same computation
    already ran. Session counters (:attr:`hits`/:attr:`misses`/
    :attr:`stores`/:attr:`quarantines`) track how this instance was
    used; they reset with the instance, not the directory.

    Example:
        >>> import tempfile
        >>> from repro.exec import JobSpec, ResultCache
        >>> job = JobSpec(fn="repro.exec.demo:scaled_sum",
        ...               kwargs={"values": [1.0, 2.0], "factor": 3.0})
        >>> with tempfile.TemporaryDirectory() as tmp:
        ...     cache = ResultCache(tmp)
        ...     _ = cache.get(job)          # miss
        ...     _ = cache.put(job, job.run())
        ...     cache.get(job)              # hit
        (9.0, True)
    """

    directory: str
    hits: int = 0
    misses: int = 0
    stores: int = 0
    quarantines: int = 0

    def __post_init__(self) -> None:
        if not self.directory:
            raise ExecError("cache needs a directory")

    # -- paths ------------------------------------------------------------

    def entry_path(self, content_hash: str) -> str:
        """Where the entry for ``content_hash`` lives (existing or not)."""
        if len(content_hash) < 3:
            raise ExecError(f"implausible content hash {content_hash!r}")
        return os.path.join(self.directory, content_hash[:2], f"{content_hash}.json")

    @staticmethod
    def trace_path_for(entry_path: str) -> str:
        """The paired flight-trace path for an entry path."""
        return entry_path[: -len(".json")] + TRACE_SUFFIX

    # -- lookup -----------------------------------------------------------

    def get(self, job: JobSpec) -> Tuple[Any, bool]:
        """Look up ``job``'s result.

        Returns:
            ``(result, True)`` on a hit, ``(None, False)`` on a miss.
            Schema mismatches and entries whose stored job identity
            disagrees with the hash read as misses; files that do not
            parse at all are quarantined (renamed, counted in
            :attr:`quarantines`) and read as misses. A hit refreshes
            the entry's mtime, which is the LRU clock :meth:`evict`
            orders by.
        """
        value, hit = self._load(job)
        if hit:
            self.hits += 1
            try:
                os.utime(self.entry_path(job.content_hash()))
            except OSError:  # pragma: no cover - read-only cache dir
                pass
        else:
            self.misses += 1
        return value, hit

    def _load(self, job: JobSpec) -> Tuple[Any, bool]:
        data = self.load_entry(job.content_hash())
        if data is None or data.get("job") != job.to_dict():
            # Either a (vanishingly unlikely) hash collision or a
            # hand-edited file; refuse to serve someone else's result.
            return None, False
        return data.get("result"), True

    def _quarantine(self, path: str) -> None:
        """Set a corrupt entry aside so it stops reading as a miss forever."""
        try:
            os.replace(path, path + QUARANTINE_SUFFIX)
        except OSError:  # pragma: no cover - racing deletion
            return
        self.quarantines += 1

    def put(self, job: JobSpec, result: Any) -> str:
        """Store ``result`` for ``job``; returns the entry path.

        The entry holds the canonical JSON of ``result`` normalized by
        :func:`~repro.exec.jobspec.json_roundtrip`, so what later runs
        load from disk is byte-identical to what this run returned; for
        plain data that is a structural copy, so a result is encoded
        once, for the write. Concurrent writers of the same job are safe: each
        writes its own temp file and the final ``os.replace`` is atomic
        (and, for a deterministic job, every writer replaces with
        identical bytes).
        """
        entry = {
            "schema": CACHE_SCHEMA,
            "job": job.to_dict(),
            "result": json_roundtrip(result),
        }
        blob = faults.mangle_cache_write(job.content_hash(), canonical_json(entry))
        path = self.entry_path(job.content_hash())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):  # pragma: no cover - cleanup path
                os.unlink(tmp)
            raise
        self.stores += 1
        return path

    # -- maintenance ------------------------------------------------------

    def _shard_dirs(self) -> Iterator[str]:
        if not os.path.isdir(self.directory):
            return
        for shard in sorted(os.listdir(self.directory)):
            shard_dir = os.path.join(self.directory, shard)
            if len(shard) == 2 and os.path.isdir(shard_dir):
                yield shard_dir

    def _entry_files(self) -> Iterator[str]:
        for shard_dir in self._shard_dirs():
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json") and not name.startswith("."):
                    yield os.path.join(shard_dir, name)

    def _stray_files(self) -> Iterator[Tuple[str, str]]:
        """Yield ``(kind, path)`` for junk files: abandoned ``.tmp-*``
        writer droppings (``"orphan"``) and quarantined corrupt entries
        (``"quarantined"``)."""
        for shard_dir in self._shard_dirs():
            for name in sorted(os.listdir(shard_dir)):
                if name.startswith(".tmp-") and not name.endswith(".gz"):
                    # .gz temp files belong to the trace store, which
                    # counts and sweeps its own droppings.
                    yield "orphan", os.path.join(shard_dir, name)
                elif name.endswith(QUARANTINE_SUFFIX):
                    yield "quarantined", os.path.join(shard_dir, name)

    def stats(self) -> CacheStats:
        """Entry count, bytes on disk and a per-job-version breakdown.

        Walks the directory and reads every entry to attribute it to
        the job ``version`` token it was stored under -- a point-in-time
        inventory, not a hot-path call. Also counts the junk a healthy
        cache should not have: ``orphans`` (abandoned ``.tmp-*`` files)
        and ``quarantined`` (corrupt entries set aside by reads).
        """
        entries = 0
        total = 0
        versions: dict = {}
        for path in self._entry_files():
            try:
                size = os.path.getsize(path)
            except OSError:  # pragma: no cover - racing deletion
                continue
            entries += 1
            total += size
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
                version = data["job"].get("version") or "<none>"
            except (OSError, ValueError, KeyError, AttributeError, TypeError):
                version = "<unreadable>"
            count, nbytes = versions.get(version, (0, 0))
            versions[version] = (count + 1, nbytes + size)
        orphans = 0
        quarantined = 0
        for kind, _path in self._stray_files():
            if kind == "orphan":
                orphans += 1
            else:
                quarantined += 1
        return CacheStats(
            entries=entries,
            total_bytes=total,
            by_version=tuple(
                (version, count, nbytes)
                for version, (count, nbytes) in sorted(versions.items())
            ),
            orphans=orphans,
            quarantined=quarantined,
        )

    def load_entry(self, content_hash: str) -> Optional[dict]:
        """The raw cache entry for ``content_hash``, or ``None``.

        Unlike :meth:`get` this starts from a bare hash -- no
        :class:`~repro.exec.jobspec.JobSpec` needed -- and returns the
        whole ``{"schema", "job", "result"}`` document, which is how
        replay tooling reconstructs a job (and its mission spec) from
        an artifact on disk. Does not touch the hit/miss counters.
        """
        path = self.entry_path(content_hash)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError:
            return None
        except ValueError:
            self._quarantine(path)
            return None
        if not isinstance(data, dict):
            self._quarantine(path)
            return None
        if data.get("schema") != CACHE_SCHEMA:
            # A different (older/newer) layout, not corruption: leave
            # it for whichever code version understands it.
            return None
        return data

    def clear(self) -> int:
        """Delete every entry, orphan and quarantined file; returns how
        many files were removed. Trace artifacts are untouched (see
        :meth:`repro.obs.store.TraceStore.clear`)."""
        removed = 0
        targets = list(self._entry_files())
        targets.extend(path for _kind, path in self._stray_files())
        for path in targets:
            try:
                os.unlink(path)
                removed += 1
            except OSError:  # pragma: no cover - racing deletion
                continue
        return removed

    def evict(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> EvictionReport:
        """Bound the cache: LRU eviction by entry mtime.

        Junk goes first -- every quarantined entry and every orphaned
        temp file (regardless of age; eviction is an explicit
        maintenance request, not a background sweep). Then live entries
        are considered oldest-mtime-first (:meth:`get` refreshes mtime
        on a hit, making this least-recently-*used*): an entry is
        evicted while it is older than ``max_age_s`` or while the
        combined entry+trace footprint still exceeds ``max_bytes``.
        An evicted entry takes its paired flight trace with it -- a
        trace without its result entry is unreachable weight.

        Args:
            max_bytes: byte budget for entries plus paired traces;
                ``None`` means unbounded.
            max_age_s: entries last used more than this many seconds
                ago are evicted regardless of the byte budget; ``None``
                disables.
            now: clock override for tests.

        Returns:
            An :class:`EvictionReport`.

        Raises:
            ExecError: when neither bound is given -- an unbounded
                "eviction" would only sweep junk while looking like a
                full maintenance pass.
        """
        if max_bytes is None and max_age_s is None:
            raise ExecError("evict needs at least one bound: max_bytes or max_age_s")
        if now is None:
            now = time.time()
        removed_entries = 0
        removed_traces = 0
        removed_junk = 0
        freed = 0

        for _kind, path in self._stray_files():
            try:
                size = os.path.getsize(path)
                os.unlink(path)
            except OSError:  # pragma: no cover - racing deletion
                continue
            removed_junk += 1
            freed += size

        # Inventory the live entries: (mtime, entry path, entry+trace bytes).
        inventory = []
        total = 0
        for path in self._entry_files():
            try:
                info = os.stat(path)
            except OSError:  # pragma: no cover - racing deletion
                continue
            cost = info.st_size
            trace = self.trace_path_for(path)
            try:
                cost += os.path.getsize(trace)
            except OSError:
                pass
            inventory.append((info.st_mtime, path, cost))
            total += cost
        inventory.sort()

        for mtime, path, cost in inventory:
            too_old = max_age_s is not None and now - mtime > max_age_s
            too_big = max_bytes is not None and total > max_bytes
            if not too_old and not too_big:
                break
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - racing deletion
                continue
            removed_entries += 1
            trace = self.trace_path_for(path)
            try:
                os.unlink(trace)
                removed_traces += 1
            except OSError:
                pass
            total -= cost
            freed += cost
        return EvictionReport(
            removed_entries=removed_entries,
            removed_traces=removed_traces,
            removed_junk=removed_junk,
            freed_bytes=freed,
            remaining_bytes=total,
        )

