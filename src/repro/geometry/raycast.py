"""Batched ray casting against a static set of segments.

The segment set is flattened into numpy arrays once, so a cast is a
vectorized intersection over segments rather than a Python loop. This is
the hot path of the simulator: every control tick casts at least five
rays (the Multi-ranger beams) plus camera visibility rays.

Two execution strategies share one intersection formula:

- a *brute-force* broadcast kernel: all ``R`` rays of a query are
  intersected with all ``S`` segments in a single ``(R, S)`` numpy
  broadcast, with preallocated scratch buffers so steady-state casts
  allocate nothing but the returned ``(R,)`` result;
- a *uniform-grid* walk: segments are bucketed into grid cells once, and
  each ray steps through the cells it crosses (a DDA walk), testing only
  the segments bucketed there. Work becomes proportional to the cells
  crossed instead of the total segment count, which is what makes dense
  worlds cheap.

The two are bit-identical by construction -- both evaluate the same IEEE
expressions per (ray, segment) pair and take the same minimum; the grid
merely skips segments that cannot contain it. ``accel="auto"`` (the
default) picks the grid above :data:`GRID_SEGMENT_THRESHOLD` segments and
the broadcast kernel below it; ``accel="none"`` forces the brute-force
reference path, which the equivalence tests and benchmarks pin against.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GeometryError
from repro.geometry.segments import Segment
from repro.geometry.vec import Vec2

_EPS = 1e-12

#: Slack on the segment parameter ``u``: rays grazing an endpoint within
#: this tolerance still count as hits (matches the historical behaviour).
_U_SLACK = 1e-9

#: Segment count at which ``accel="auto"`` switches to the uniform-grid
#: walk. On structured rooms the DDA walk terminates after a handful of
#: cells, so it overtakes the dense kernels early (measured crossover on
#: room geometry is ~10-16 segments); below it the scalar loop is cheaper.
GRID_SEGMENT_THRESHOLD = 16

#: Conservative inflation (metres) applied when bucketing segments into
#: grid cells, covering the ``u`` tolerance and boundary rounding.
_GRID_PAD = 1e-6

#: Queries with rays x segments at or below this run as a scalar Python
#: loop: below ~128 pairs the interpreter beats the ~20 us fixed overhead
#: of a numpy broadcast. Same expressions, so results stay bit-identical.
_SCALAR_MAX_PAIRS = 128


class _UniformGrid:
    """Segments bucketed into a uniform cell grid, walked per ray.

    Scalar Python arithmetic here evaluates exactly the expressions of
    the broadcast kernel, so hit distances are bit-identical; the walk
    only changes *which* segments are examined, never the result.
    """

    __slots__ = (
        "x0",
        "y0",
        "cw",
        "ch",
        "ncx",
        "ncy",
        "xmax",
        "ymax",
        "buckets",
        "ax",
        "ay",
        "ex",
        "ey",
        "stamps",
        "epoch",
    )

    def __init__(
        self, ax: np.ndarray, ay: np.ndarray, ex: np.ndarray, ey: np.ndarray
    ):
        n = ax.size
        bx = np.minimum(ax, ax + ex)
        by = np.minimum(ay, ay + ey)
        tx = np.maximum(ax, ax + ex)
        ty = np.maximum(ay, ay + ey)
        self.x0 = float(bx.min()) - _GRID_PAD
        self.y0 = float(by.min()) - _GRID_PAD
        self.xmax = float(tx.max()) + _GRID_PAD
        self.ymax = float(ty.max()) + _GRID_PAD
        width = max(self.xmax - self.x0, 1e-9)
        height = max(self.ymax - self.y0, 1e-9)
        # ~sqrt(S) cells per axis keeps a handful of segments per bucket
        # for typical room geometry without exploding bucket memory.
        cells = int(min(128, max(4, math.ceil(math.sqrt(n)))))
        self.ncx = cells
        self.ncy = cells
        self.cw = width / cells
        self.ch = height / cells
        buckets: List[List[int]] = [[] for _ in range(cells * cells)]
        for i in range(n):
            ix0 = self._clamp_x(int((bx[i] - _GRID_PAD - self.x0) / self.cw))
            ix1 = self._clamp_x(int((tx[i] + _GRID_PAD - self.x0) / self.cw))
            iy0 = self._clamp_y(int((by[i] - _GRID_PAD - self.y0) / self.ch))
            iy1 = self._clamp_y(int((ty[i] + _GRID_PAD - self.y0) / self.ch))
            for iy in range(iy0, iy1 + 1):
                row = iy * cells
                for ix in range(ix0, ix1 + 1):
                    buckets[row + ix].append(i)
        self.buckets = buckets
        # Plain Python lists index ~3x faster than numpy scalars in the
        # per-segment inner loop below.
        self.ax = ax.tolist()
        self.ay = ay.tolist()
        self.ex = ex.tolist()
        self.ey = ey.tolist()
        self.stamps = [0] * n
        self.epoch = 0

    def _clamp_x(self, ix: int) -> int:
        return 0 if ix < 0 else (self.ncx - 1 if ix >= self.ncx else ix)

    def _clamp_y(self, iy: int) -> int:
        return 0 if iy < 0 else (self.ncy - 1 if iy >= self.ncy else iy)

    def cast(self, ox: float, oy: float, dx: float, dy: float, max_t: float) -> float:
        """First-hit distance along ``(dx, dy)``, or ``inf`` beyond ``max_t``.

        Any hit at ``t <= max_t`` is reported exactly; hits beyond
        ``max_t`` may be reported as ``inf``, which every caller treats
        identically (saturated / visible).
        """
        # Clip the ray to the grid bounding box (slab test per axis).
        tmin = 0.0
        tmax = max_t
        if dx != 0.0:
            t1 = (self.x0 - ox) / dx
            t2 = (self.xmax - ox) / dx
            if t1 > t2:
                t1, t2 = t2, t1
            if t1 > tmin:
                tmin = t1
            if t2 < tmax:
                tmax = t2
        elif ox < self.x0 or ox > self.xmax:
            return math.inf
        if dy != 0.0:
            t1 = (self.y0 - oy) / dy
            t2 = (self.ymax - oy) / dy
            if t1 > t2:
                t1, t2 = t2, t1
            if t1 > tmin:
                tmin = t1
            if t2 < tmax:
                tmax = t2
        elif oy < self.y0 or oy > self.ymax:
            return math.inf
        if tmin > tmax:
            return math.inf

        px = ox + dx * tmin
        py = oy + dy * tmin
        ix = self._clamp_x(int((px - self.x0) / self.cw))
        iy = self._clamp_y(int((py - self.y0) / self.ch))
        if dx > 0.0:
            step_x = 1
            t_max_x = tmin + (self.x0 + (ix + 1) * self.cw - px) / dx
            t_delta_x = self.cw / dx
        elif dx < 0.0:
            step_x = -1
            t_max_x = tmin + (self.x0 + ix * self.cw - px) / dx
            t_delta_x = -self.cw / dx
        else:
            step_x = 0
            t_max_x = math.inf
            t_delta_x = math.inf
        if dy > 0.0:
            step_y = 1
            t_max_y = tmin + (self.y0 + (iy + 1) * self.ch - py) / dy
            t_delta_y = self.ch / dy
        elif dy < 0.0:
            step_y = -1
            t_max_y = tmin + (self.y0 + iy * self.ch - py) / dy
            t_delta_y = -self.ch / dy
        else:
            step_y = 0
            t_max_y = math.inf
            t_delta_y = math.inf

        self.epoch += 1
        epoch = self.epoch
        stamps = self.stamps
        ax, ay, ex, ey = self.ax, self.ay, self.ex, self.ey
        buckets = self.buckets
        best = math.inf
        while True:
            for i in buckets[iy * self.ncx + ix]:
                if stamps[i] == epoch:
                    continue
                stamps[i] = epoch
                sex = ex[i]
                sey = ey[i]
                denom = dx * sey - dy * sex
                if not abs(denom) > _EPS:
                    continue
                sox = ax[i] - ox
                soy = ay[i] - oy
                t = (sox * sey - soy * sex) / denom
                if not 0.0 <= t < best:
                    continue
                u = (sox * dy - soy * dx) / denom
                if -_U_SLACK <= u <= 1.0 + _U_SLACK:
                    best = t
            t_next = t_max_x if t_max_x < t_max_y else t_max_y
            # Every unexamined segment lies in a cell the ray enters at
            # t >= t_next (minus the bucketing pad), so a strictly closer
            # confirmed hit ends the walk.
            if best <= t_next - _U_SLACK:
                break
            if t_next > tmax:
                break
            if t_max_x < t_max_y:
                ix += step_x
                if ix < 0 or ix >= self.ncx:
                    break
                t_max_x += t_delta_x
            else:
                iy += step_y
                if iy < 0 or iy >= self.ncy:
                    break
                t_max_y += t_delta_y
        return best


class RayCaster:
    """Casts rays against an immutable collection of segments.

    Args:
        segments: the static geometry to cast against.
        accel: ``"auto"`` (grid above :data:`GRID_SEGMENT_THRESHOLD`
            segments), ``"grid"`` (always), or ``"none"`` (brute-force
            broadcast reference path).
        grid_threshold: segment count at which ``"auto"`` enables the
            grid.
    """

    def __init__(
        self,
        segments: Iterable[Segment],
        accel: str = "auto",
        grid_threshold: int = GRID_SEGMENT_THRESHOLD,
    ):
        segs: Tuple[Segment, ...] = tuple(segments)
        if not segs:
            raise GeometryError("RayCaster needs at least one segment")
        if accel not in ("auto", "grid", "none"):
            raise GeometryError(f"unknown accel mode {accel!r}")
        self._segments = segs
        n = len(segs)
        self._n = n
        self._ax = np.array([s.a.x for s in segs], dtype=np.float64)
        self._ay = np.array([s.a.y for s in segs], dtype=np.float64)
        self._ex = np.array([s.b.x - s.a.x for s in segs], dtype=np.float64)
        self._ey = np.array([s.b.y - s.a.y for s in segs], dtype=np.float64)
        self._grid: Optional[_UniformGrid] = None
        if accel == "grid" or (accel == "auto" and n >= grid_threshold):
            self._grid = _UniformGrid(self._ax, self._ay, self._ex, self._ey)
        self.accel = "grid" if self._grid is not None else "none"
        # Python-list mirrors for the small-problem scalar path (list
        # indexing is ~3x cheaper than numpy scalar access).
        self._lax = self._ax.tolist()
        self._lay = self._ay.tolist()
        self._lex = self._ex.tolist()
        self._ley = self._ey.tolist()
        # Scratch buffers for the broadcast kernel, grown on demand; the
        # (n,) origin-relative buffers are query-independent in size.
        self._ox = np.empty(n, dtype=np.float64)
        self._oy = np.empty(n, dtype=np.float64)
        self._tn1 = np.empty(n, dtype=np.float64)
        self._tn2 = np.empty(n, dtype=np.float64)
        self._cap_r = 0
        self._w_a = self._w_b = self._w_c = None
        self._m_a = self._m_b = None

    @property
    def segments(self) -> Tuple[Segment, ...]:
        """The segments this caster was built from (shared, not copied)."""
        return self._segments

    def _ensure_scratch(self, r: int) -> None:
        if r <= self._cap_r:
            return
        cap = max(8, 2 * self._cap_r, r)
        shape = (cap, self._n)
        self._w_a = np.empty(shape, dtype=np.float64)
        self._w_b = np.empty(shape, dtype=np.float64)
        self._w_c = np.empty(shape, dtype=np.float64)
        self._m_a = np.empty(shape, dtype=bool)
        self._m_b = np.empty(shape, dtype=bool)
        self._cap_r = cap

    def _hits_brute(
        self, origin: Vec2, dirx: np.ndarray, diry: np.ndarray
    ) -> np.ndarray:
        """Broadcast kernel: first-hit distance per ray, ``inf`` on miss."""
        r = dirx.shape[0]
        self._ensure_scratch(r)
        a = self._w_a[:r]
        b = self._w_b[:r]
        c = self._w_c[:r]
        ok = self._m_a[:r]
        tmp = self._m_b[:r]
        ox = np.subtract(self._ax, origin.x, out=self._ox)
        oy = np.subtract(self._ay, origin.y, out=self._oy)
        # t numerator is ray-independent: ox*ey - oy*ex.
        tn = np.multiply(ox, self._ey, out=self._tn1)
        tn -= np.multiply(oy, self._ex, out=self._tn2)
        cx = dirx[:, None]
        cy = diry[:, None]
        # denom = dx*ey - dy*ex
        np.multiply(cx, self._ey[None, :], out=a)
        np.multiply(cy, self._ex[None, :], out=b)
        np.subtract(a, b, out=a)
        # u numerator = ox*dy - oy*dx
        np.multiply(ox[None, :], cy, out=b)
        np.multiply(oy[None, :], cx, out=c)
        np.subtract(b, c, out=b)
        np.abs(a, out=c)
        np.greater(c, _EPS, out=ok)
        # (np.errstate is single-use in numpy 2.x, so build it per call;
        # this kernel only runs for batches large enough to amortize it.)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            c.fill(np.inf)
            np.divide(tn[None, :], a, out=c, where=ok)  # t (inf where denom ~ 0)
            np.divide(b, a, out=b, where=ok)  # u (garbage where denom ~ 0)
        np.greater_equal(c, 0.0, out=tmp)
        ok &= tmp
        np.greater_equal(b, -_U_SLACK, out=tmp)
        ok &= tmp
        np.less_equal(b, 1.0 + _U_SLACK, out=tmp)
        ok &= tmp
        np.logical_not(ok, out=tmp)
        np.copyto(c, np.inf, where=tmp)
        return c.min(axis=1)

    def _hits_scalar(
        self, origin: Vec2, dirx: Sequence[float], diry: Sequence[float]
    ) -> List[float]:
        """Scalar-loop kernel for small ray x segment products.

        Evaluates the identical IEEE expressions as :meth:`_hits_brute`
        per (ray, segment) pair, so the two paths agree bit-for-bit.
        """
        ax, ay, ex, ey = self._lax, self._lay, self._lex, self._ley
        ox_f, oy_f = origin.x, origin.y
        n = self._n
        hits = [math.inf] * len(dirx)
        for r in range(len(dirx)):
            dx = dirx[r]
            dy = diry[r]
            best = math.inf
            for i in range(n):
                sex = ex[i]
                sey = ey[i]
                denom = dx * sey - dy * sex
                if not abs(denom) > _EPS:
                    continue
                sox = ax[i] - ox_f
                soy = ay[i] - oy_f
                t = (sox * sey - soy * sex) / denom
                if not 0.0 <= t < best:
                    continue
                u = (sox * dy - soy * dx) / denom
                if -_U_SLACK <= u <= 1.0 + _U_SLACK:
                    best = t
            hits[r] = best
        return hits

    def hit_distances(
        self,
        origin: Vec2,
        dirx: Sequence[float],
        diry: Sequence[float],
        max_ts: Union[float, Sequence[float]] = math.inf,
    ) -> Sequence[float]:
        """First-hit distances for rays from one origin; ``inf`` = miss.

        Returns a float list (scalar/grid paths) or ndarray (broadcast
        kernel); callers index it. ``max_ts`` (scalar or per-ray) is a
        walk bound for the grid path: hits at ``t <= max_ts`` are exact,
        farther hits may read ``inf``. The brute path ignores it and
        reports every hit, which callers collapse to the same answer.
        """
        grid = self._grid
        if grid is None:
            if len(dirx) * self._n <= _SCALAR_MAX_PAIRS:
                return self._hits_scalar(origin, dirx, diry)
            dx = np.asarray(dirx, dtype=np.float64)
            dy = np.asarray(diry, dtype=np.float64)
            return self._hits_brute(origin, dx, dy)
        ox, oy = origin.x, origin.y
        cast = grid.cast
        if isinstance(max_ts, (int, float)):
            return [
                cast(ox, oy, dirx[i], diry[i], max_ts) for i in range(len(dirx))
            ]
        return [
            cast(ox, oy, dirx[i], diry[i], max_ts[i]) for i in range(len(dirx))
        ]

    def cast(self, origin: Vec2, heading: float, max_range: float = math.inf) -> float:
        """Distance to the first hit along ``heading``.

        Returns:
            The hit distance, or ``max_range`` if nothing is hit within it.
        """
        d = self._cast_distance(origin, heading, max_range)
        if d is None or d > max_range:
            return max_range
        return d

    def cast_hit(self, origin: Vec2, heading: float) -> Optional[float]:
        """Like :meth:`cast` but returns ``None`` on a miss (unbounded range)."""
        return self._cast_distance(origin, heading, math.inf)

    def cast_many(
        self, origin: Vec2, headings: Iterable[float], max_range: float = math.inf
    ) -> np.ndarray:
        """Cast several rays from one origin; returns an array of distances.

        One batched kernel call replaces the historical per-heading Python
        loop; each entry equals ``cast(origin, heading, max_range)``
        bit-for-bit.
        """
        hs = list(headings)
        hits = self.hit_distances(
            origin, [math.cos(h) for h in hs], [math.sin(h) for h in hs], max_range
        )
        return np.array(
            [d if d < max_range else max_range for d in hits], dtype=np.float64
        )

    def cast_fleet(
        self,
        oxs: np.ndarray,
        oys: np.ndarray,
        dirx: np.ndarray,
        diry: np.ndarray,
        max_range: float = math.inf,
    ) -> np.ndarray:
        """First-hit distances for ``R`` rays, each with its *own* origin.

        The multi-origin companion of :meth:`hit_distances`: one call
        resolves every drone's Multi-ranger beams for a whole fleet
        tick. Entry ``i`` equals the single-origin result for ray ``i``
        bit-for-bit -- the broadcast path evaluates exactly the IEEE
        expressions of :meth:`_hits_scalar` / :meth:`_hits_brute` per
        (ray, segment) pair and collapses them with the same minimum,
        and the grid path walks the identical DDA per ray. Misses (and,
        on the grid path, hits beyond ``max_range``) read ``inf``;
        callers clamp, exactly as with :meth:`hit_distances`.
        """
        ox = np.ascontiguousarray(oxs, dtype=np.float64)
        oy = np.ascontiguousarray(oys, dtype=np.float64)
        dx = np.ascontiguousarray(dirx, dtype=np.float64)
        dy = np.ascontiguousarray(diry, dtype=np.float64)
        grid = self._grid
        if grid is not None:
            cast = grid.cast
            lox = ox.tolist()
            loy = oy.tolist()
            ldx = dx.tolist()
            ldy = dy.tolist()
            return np.array(
                [
                    cast(lox[i], loy[i], ldx[i], ldy[i], max_range)
                    for i in range(len(lox))
                ],
                dtype=np.float64,
            )
        # Broadcast kernel over (R, S) with per-ray origins. Same
        # operator sequence as the single-origin kernels: sox = ax - ox,
        # denom = dx*ey - dy*ex, t = (sox*ey - soy*ex)/denom,
        # u = (sox*dy - soy*dx)/denom.
        sox = self._ax[None, :] - ox[:, None]
        soy = self._ay[None, :] - oy[:, None]
        cx = dx[:, None]
        cy = dy[:, None]
        denom = cx * self._ey[None, :] - cy * self._ex[None, :]
        ok = np.abs(denom) > _EPS
        tnum = sox * self._ey[None, :] - soy * self._ex[None, :]
        unum = sox * cy - soy * cx
        t = np.full(denom.shape, np.inf)
        u = np.empty(denom.shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(tnum, denom, out=t, where=ok)
            np.divide(unum, denom, out=u, where=ok)
        ok &= t >= 0.0
        ok &= u >= -_U_SLACK
        ok &= u <= 1.0 + _U_SLACK
        np.copyto(t, np.inf, where=~ok)
        return t.min(axis=1)

    def line_of_sight(self, a: Vec2, b: Vec2, slack: float = 1e-6) -> bool:
        """True if the open segment from ``a`` to ``b`` hits no stored segment.

        ``slack`` shortens the tested segment at the far end so that a ray
        aimed exactly at a point lying *on* an obstacle boundary (e.g. an
        object leaning against a wall) still counts as visible.
        """
        dist = a.distance_to(b)
        if dist < _EPS:
            return True
        heading = (b - a).heading()
        hit = self._cast_distance(a, heading, dist)
        return hit is None or hit >= dist - slack

    def line_of_sight_many(
        self,
        origin: Vec2,
        targets: Sequence[Vec2],
        slack: Union[float, Sequence[float]] = 1e-6,
    ) -> np.ndarray:
        """Visibility of several targets from one origin, as a bool array.

        Entry ``i`` equals ``line_of_sight(origin, targets[i], slack_i)``;
        the occlusion rays are cast in one batched kernel call, which is
        what makes a camera frame cost one cast instead of one per object.
        """
        r = len(targets)
        out = np.empty(r, dtype=bool)
        if r == 0:
            return out
        slacks = (
            [slack] * r if isinstance(slack, (int, float)) else list(slack)
        )
        dirx = [0.0] * r
        diry = [0.0] * r
        dists = [0.0] * r
        for i, t in enumerate(targets):
            d = origin.distance_to(t)
            dists[i] = d
            if d < _EPS:
                continue  # direction unused; marked visible below
            heading = math.atan2(t.y - origin.y, t.x - origin.x)
            dirx[i] = math.cos(heading)
            diry[i] = math.sin(heading)
        hits = self.hit_distances(origin, dirx, diry, dists)
        for i in range(r):
            d = dists[i]
            out[i] = d < _EPS or hits[i] >= d - slacks[i]
        return out

    def _cast_distance(
        self, origin: Vec2, heading: float, max_t: float
    ) -> Optional[float]:
        dx, dy = math.cos(heading), math.sin(heading)
        if self._grid is not None:
            d = self._grid.cast(origin.x, origin.y, dx, dy, max_t)
            return None if d == math.inf else d
        hit = float(self.hit_distances(origin, (dx,), (dy,), max_t)[0])
        return None if hit == math.inf else hit
