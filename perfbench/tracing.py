"""Spans recorded from outside the program, by wrapping its public calls.

The benchmark never edits ``src/``: a traced pass installs a wrapper at
each name the program looks a layer function up by -- a method on its
class, or a function in the module that imported it -- runs the pass,
and puts every original back. Each wrapper opens a span (name, start,
end, parent span, request id) on a :class:`Tracer`, which keeps spans in
compact in-memory arrays until the benchmark writes them out.

A span's *self time* is its duration minus the union of its child
spans, so the self times of one pass partition the pass's wall clock
between the layers.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Attribute set on every wrapper, so a leftover one can be found.
MARK = "__perfbench_span__"

#: ``counter(tracer, args, kwargs, result)``: records counts at a span.
Counter = Callable[["Tracer", tuple, dict, Any], None]

#: ``label(args, kwargs) -> request id`` for calls that start a request.
RequestLabel = Callable[[tuple, dict], str]


class Tracer:
    """Nested spans and counters on a monotonic clock, kept in memory."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.requests: List[str] = [""]
        self._request_ids: Dict[str, int] = {"": 0}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._requests: List[int] = [0]

    def name_id(self, name: str) -> int:
        """Interned id of a span name."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        """Open a span under the innermost open one; returns its index."""
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(self._requests[-1])
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        """Close span ``idx`` (the innermost open one)."""
        self.end[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order (open: {popped})")

    def push_request(self, label: str) -> None:
        """Spans opened from now on belong to request ``label``."""
        rid = self._request_ids.get(label)
        if rid is None:
            rid = self._request_ids[label] = len(self.requests)
            self.requests.append(label)
        self._requests.append(rid)

    def pop_request(self) -> None:
        self._requests.pop()

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def __len__(self) -> int:
        return len(self.start)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the union of its children's intervals."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        children = np.flatnonzero(parent >= 0)
        order = children[np.lexsort((start[children], parent[children]))]
        starts = start.tolist()
        ends = end.tolist()
        covered = [0.0] * len(starts)
        current = -1
        reach = 0.0
        # Children of one parent are contiguous and sorted by start: sweep
        # them once, counting each instant of the parent at most once.
        for i, p in zip(order.tolist(), parent[order].tolist()):
            if p != current:
                current = p
                reach = starts[p]
            lo = max(starts[i], reach)
            hi = min(ends[i], ends[p])
            if hi > lo:
                covered[p] += hi - lo
                reach = hi
        # Clamp the last-ulp rounding of a child that fills its parent.
        return np.maximum((end - start) - np.array(covered), 0.0)

    def self_time_by_name(self) -> Dict[str, float]:
        """Summed self time of every span name."""
        per_span = self.self_times()
        totals = np.bincount(
            np.frombuffer(self.name, dtype=np.int32),
            weights=per_span,
            minlength=len(self.names),
        )
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def calls_by_name(self) -> Dict[str, int]:
        """Number of spans of every name."""
        calls = np.bincount(
            np.frombuffer(self.name, dtype=np.int32), minlength=len(self.names)
        )
        return {name: int(calls[i]) for i, name in enumerate(self.names)}

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as plain arrays (what :func:`save_spans` writes)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def save_spans(path: str, tracers: Sequence[Tracer], meta: str) -> None:
    """Write the spans of several traced passes to one ``.npz`` file.

    Span ``name``/``request`` ids index the per-pass ``names``/
    ``requests`` string tables; ``parent`` is a span index within the
    same pass (``-1`` for a root).
    """
    blobs: Dict[str, Any] = {"meta": np.array(meta)}
    for k, tracer in enumerate(tracers):
        for key, arr in tracer.arrays().items():
            blobs[f"pass{k}_{key}"] = arr
        blobs[f"pass{k}_names"] = np.array(tracer.names)
        blobs[f"pass{k}_requests"] = np.array(tracer.requests)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    np.savez_compressed(path, **blobs)


# -- wrappers ------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One name to wrap: ``owner`` is ``"pkg.module"`` or ``"pkg.module:Class"``.

    Attributes:
        owner: where the name is looked up at call time.
        attr: the attribute holding the function.
        span: span name recorded per call.
        counter: optional counts recorded after each call.
        request: when set, the call starts a request with this label.
        when: optional predicate on the call; ``False`` passes through
            without a span.
        context: the function returns a context manager; its enter and
            exit are timed instead of the call.
    """

    owner: str
    attr: str
    span: str
    counter: Optional[Counter] = None
    request: Optional[RequestLabel] = None
    when: Optional[Callable[[tuple, dict], bool]] = None
    context: bool = False


@dataclass
class Patch:
    """An installed wrapper and the original it replaced."""

    target: Target
    holder: Any
    original: Any


def resolve_owner(owner: str) -> Any:
    module_name, _, qual = owner.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in filter(None, qual.split(".")):
        obj = getattr(obj, part)
    return obj


def _lookup(target: Target) -> Optional[Tuple[Any, Any]]:
    """``(holder, current value)`` of a target; ``None`` once the program
    no longer has it, so a refactor that deletes a call leaves its span
    at 0 instead of breaking every traced run."""
    try:
        holder = resolve_owner(target.owner)
        if isinstance(holder, type):
            return holder, holder.__dict__[target.attr]
        return holder, getattr(holder, target.attr)
    except (ImportError, AttributeError, KeyError):
        return None


def missing_targets(targets: Iterable[Target]) -> List[str]:
    """``owner.attr`` of every target the program no longer has."""
    return [f"{t.owner}.{t.attr}" for t in targets if _lookup(t) is None]


class _SpanContext:
    """Times a context manager's enter and exit as two spans."""

    def __init__(self, tracer: Tracer, nid: int, inner: Any) -> None:
        self.tracer = tracer
        self.nid = nid
        self.inner = inner

    def __enter__(self) -> Any:
        idx = self.tracer.begin(self.nid)
        try:
            return self.inner.__enter__()
        finally:
            self.tracer.finish(idx)

    def __exit__(self, *exc: Any) -> Any:
        idx = self.tracer.begin(self.nid)
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.tracer.finish(idx)


def _wrap(fn: Callable[..., Any], target: Target, tracer: Tracer) -> Callable[..., Any]:
    nid = tracer.name_id(target.span)
    counter = target.counter
    request = target.request
    when = target.when
    begin = tracer.begin
    finish = tracer.finish

    if target.context:

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return _SpanContext(tracer, nid, fn(*args, **kwargs))

    elif request is None and when is None:

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

    else:

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            if request is not None:
                tracer.push_request(request(args, kwargs))
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
                if request is not None:
                    tracer.pop_request()
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

    setattr(wrapper, MARK, target.span)
    return wrapper


def install(targets: Iterable[Target], tracer: Tracer) -> List[Patch]:
    """Wrap every target the program has; returns the patches
    :func:`uninstall` reverts."""
    patches: List[Patch] = []
    try:
        for target in targets:
            found = _lookup(target)
            if found is None:
                continue
            holder, original = found
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(_wrap(original.__func__, target, tracer))
            elif isinstance(original, staticmethod):
                wrapped = staticmethod(_wrap(original.__func__, target, tracer))
            else:
                wrapped = _wrap(original, target, tracer)
            setattr(holder, target.attr, wrapped)
            patches.append(Patch(target, holder, original))
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: Sequence[Patch]) -> None:
    """Put every original back, in reverse install order."""
    for patch in reversed(patches):
        setattr(patch.holder, patch.target.attr, patch.original)


def unwrapped(holder: Any, attr: str) -> Any:
    """``holder.attr``, or the original it wraps when a span wrapper is installed."""
    value = getattr(holder, attr)
    return value.__wrapped__ if hasattr(value, MARK) else value


def leftover_wrappers(targets: Iterable[Target]) -> List[str]:
    """``owner.attr`` of every target whose current value is a wrapper."""
    found = []
    for target in targets:
        looked_up = _lookup(target)
        if looked_up is None:
            continue
        value = looked_up[1]
        func = getattr(value, "__func__", value)
        if hasattr(value, MARK) or hasattr(func, MARK):
            found.append(f"{target.owner}.{target.attr}")
    return found


def traced(
    tracer: Tracer, targets: Sequence[Target], root: str, request: str, fn: Callable[[], Any]
) -> Tuple[Any, float]:
    """Run ``fn`` with every target wrapped, under one root span.

    Returns ``(result, wall seconds of the root span)``; the wrappers are
    removed even when ``fn`` raises.
    """
    patches = install(targets, tracer)
    try:
        tracer.push_request(request)
        idx = tracer.begin(tracer.name_id(root))
        try:
            result = fn()
        finally:
            tracer.finish(idx)
            tracer.pop_request()
    finally:
        uninstall(patches)
    return result, tracer.end[idx] - tracer.start[idx]
