"""2-D occupancy maps: loading, collision predicates and camera-obstruction queries.

The map is a uniform grid of square cells.  Cell (0, 0) sits at the map
origin corner; cell indices grow with world x (ix) and world y (iy).
Everything outside the map bounds is treated as obstacle, so queries near
the border behave conservatively.

The collision test is swept_footprint_free; a disc standing at p is the
zero-length sweep from p to p (footprint_free).  The disc sweeping the
segment ab collides when an obstacle cell square, closed, lies at squared
distance d^2 < rho^2 from ab.  d^2 is 0 when ab meets the square, and
otherwise the least of each endpoint's squared distance to the square and
each corner's squared distance to ab.  Standing and sweeping discs decide
tangency alike: d^2 == rho^2 in floating point is free.  So a disc of
radius sqrt(1/8) at distance sqrt(1/8) from a corner collides, because
rho^2 rounds up past d^2 = 1/8.  rho must be at least 2**-511, so that
rho^2 is a normal float and d^2 = 0 < rho^2 always holds: a smaller rho's
square is subnormal or 0, and a disc at an obstacle's centre would be free.

The test has a broad phase.  WorkspaceMap builds two tables once, when it
is made: its occupancy framed by one obstacle cell on every side, and the
summed-area table (Crow 1984) of that framed occupancy, so that four
lookups count the obstacles in the cell window that the rho-inflated
bounding box of ab covers.  A window with none is free at once; otherwise
only its obstacle cells, read from the framed occupancy, get the exact
d^2 < rho^2 test.  This cannot change a decision: the exact scan of a
window returns False only on an obstacle or out-of-map cell of that window,
and the frame holds every out-of-map cell a window can reach.  The broad
phase comes in two forms over the one table: the scalar one inside
swept_footprint_free, which reads the tables through 1-D views of their
rows (cheaper to index than 2-D views, and copying nothing), and a batch one
(_clear_sweeps) that computes the same bounds checks, windows and counts
for many sweeps at once with the same float operations.

The exact test has two forms as well: the scalar one in swept_footprint_free
and a batch one in _sweeps_free, which runs, for all the in-bounds sweeps of
a batch that the broad phase does not clear, the scalar's float operations
on the same window cells as array operations, so every decision is the
scalar's.  The lattice build sends all its standing discs and all its steps
through the batch; only a sweep that fails the bounds check goes on to
swept_footprint_free, which returns False for it or raises ValueError for a
NaN coordinate.  The RRT keeps the scalar: it tests one sweep per call, which
the scalar answers in about 1.5 us and one batch call in about 55 us (numpy's
per-call overhead; 2 vCPUs, Python 3.11, numpy 2.4).  The hypothesis test
tests/test_gridmap.py::TestBatchBroadPhase::test_agrees_with_the_scalar
holds the two forms equal.

The scalar narrow phase makes two passes over the window's obstacle cells.
The first tests only the end disc at b, b's squared distance to the square
against rho^2, and returns False at its first hit; the second runs the rest
of the d^2 test on the cells the first collected.  Both passes together
decide exactly as the one d^2 test per cell: d^2 is either 0 < rho^2 or a
minimum that includes b's term, so b's term < rho^2 implies d^2 < rho^2; and
where b's term >= rho^2, d^2 < rho^2 holds exactly when the rest does.  In
the RRT most colliding sweeps collide at their new end, which the first
pass finds without clipping the segment against any square.  The batch
computes both values for every obstacle cell and blocks a sweep where
either is < rho^2, which by the same argument decides alike.

The obstruction ratio has one implementation, the batched
obstruction_ratios; obstruction_ratio calls it.  Its
result for a point does not depend on the other points of the batch or on
the chunking: it is bit for bit the ratio of one point computed alone, with
the same window, the same floating-point predicate dx^2 + dy^2 <= r^2 and
the same division of integer counts.  Plans, reports and front.json depend
on that.  It counts the disc row by row: in each subsample row of a window
the subsamples in the disc form one run of columns, whose ends an estimate
and one test of the predicate each find, and a per-row prefix sum of the
framed occupancy counts the run's obstructed subsamples.  That is O(r) work
per point where testing every subsample was O(r^2), with the same counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .validate import finite_number, json_object

# Subsamples per cell side when rasterizing the obstruction disc.  A power
# of two: obstruction_ratios relies on the offsets (j + 0.5) / s being exact.
DISC_SAMPLES_PER_CELL = 4
# Bound on |origin| / resolution + cells along each axis of a map.
_MAX_CELL_COORDINATE = 2 ** 50
# The least footprint radius: rho >= 2**-511 exactly when rho * rho is a
# normal float, at least 2**-1022, as 2**-511 squares exactly and rounding
# is monotone (a rho just below it squares to the largest subnormal).
_MIN_RHO = 2.0 ** -511


class MapFormatError(ValueError):
    """Raised when map JSON is malformed; the message names the offending field."""


@dataclass(frozen=True)
class RobotModel:
    """Geometric model: footprint disc plus the camera clearance ball radius."""

    footprint_radius: float
    camera_clearance_radius: float

    def __post_init__(self):
        check_footprint_radius(finite_number(self.footprint_radius, "footprint_radius",
                                             positive=True), "footprint_radius")
        finite_number(self.camera_clearance_radius, "camera_clearance_radius",
                      positive=True)


@dataclass(frozen=True, eq=False)
class WorkspaceMap:
    """Immutable occupancy grid; maps compare and hash by identity.

    occupancy is indexed [iy, ix] with iy = 0 at the bottom (smallest world y).
    The map copies the array it is given; occupancy is then a read-only view
    of the interior of the framed table below, the map's one copy of it.
    """

    width: int
    height: int
    resolution: float
    origin: tuple[float, float]
    occupancy: np.ndarray = field(repr=False)
    # The collision test's tables, built once in __post_init__ as read-only
    # numpy arrays: the framed table (bool, occupancy.base), the occupancy
    # framed by one obstacle cell on every side, so cell (ix, iy) is its
    # [iy + 1, ix + 1], and _obstacle_sat (int64), its summed-area table:
    # [j, i] counts the obstacles in framed[:j + 1, :i + 1].  _framed_rows and
    # _sat_rows hold a 1-D read-only memoryview of each row of the two,
    # copying nothing: swept_footprint_free reads rows[j][i], which takes
    # about two thirds of the time of a 2-D memoryview's [j, i].
    # _clear_sweeps indexes _obstacle_sat itself, and _sweeps_free the
    # framed table.
    _obstacle_sat: np.ndarray = field(init=False, repr=False)
    _framed_rows: tuple = field(init=False, repr=False)
    _sat_rows: tuple = field(init=False, repr=False)

    def __post_init__(self):
        finite_number(self.width, "width", positive=True, integer=True)
        finite_number(self.height, "height", positive=True, integer=True)
        finite_number(self.resolution, "resolution", positive=True)
        for i, (v, n, name) in enumerate(zip(self.origin, (self.width, self.height),
                                             ("width", "height"))):
            finite_number(v, f"origin[{i}]")
            # keeps cell indices exact to far less than a cell, which the
            # collision test's windows need (see swept_footprint_free)
            if abs(v) / self.resolution + n > _MAX_CELL_COORDINATE:
                raise ValueError(f"origin[{i}] {v!r} puts the map past 2**50 cells")
            if not math.isfinite(v + n * self.resolution):
                raise ValueError(f"origin[{i}] + {name} * resolution is not a finite number")
        if np.shape(self.occupancy) != (self.height, self.width):
            raise ValueError("occupancy shape must be (height, width)")
        framed = np.ones((self.height + 2, self.width + 2), dtype=bool)
        framed[1:-1, 1:-1] = self.occupancy
        framed.setflags(write=False)
        sat = framed.cumsum(axis=0, dtype=np.int64).cumsum(axis=1)
        sat.setflags(write=False)
        object.__setattr__(self, "occupancy", framed[1:-1, 1:-1])
        object.__setattr__(self, "_obstacle_sat", sat)
        object.__setattr__(self, "_framed_rows", tuple(map(memoryview, framed)))
        object.__setattr__(self, "_sat_rows", tuple(map(memoryview, sat)))

    def __reduce__(self):
        # the memoryviews do not pickle; the map rebuilds them from its fields
        return (WorkspaceMap, (self.width, self.height, self.resolution, self.origin,
                               self.occupancy))

    @cached_property
    def world_bounds(self) -> tuple[float, float, float, float]:
        ox, oy = self.origin
        return (ox, oy, ox + self.width * self.resolution, oy + self.height * self.resolution)


def load_map(source: str | bytes | dict) -> WorkspaceMap:
    """Parse the map JSON format into a validated WorkspaceMap.

    Rows are listed top row first; '#' marks an obstacle cell, '.' free.
    """
    data = json_object(source, "map document",
                       ("width", "height", "resolution", "origin", "rows"), MapFormatError)
    width, height = (finite_number(data[key], f"'{key}'", positive=True, integer=True,
                                   error=MapFormatError) for key in ("width", "height"))
    resolution = finite_number(data["resolution"], "'resolution'", positive=True,
                               error=MapFormatError)
    origin = data["origin"]
    if not isinstance(origin, (list, tuple)) or len(origin) != 2:
        raise MapFormatError("'origin' must be [x, y]")
    origin = [finite_number(v, f"'origin[{i}]'", error=MapFormatError)
              for i, v in enumerate(origin)]

    rows = data["rows"]
    if not isinstance(rows, list):
        raise MapFormatError("'rows' must be a list of strings")
    if not rows:
        raise MapFormatError("'rows' has zero rows")
    if len(rows) != height:
        raise MapFormatError(f"'rows' count {len(rows)} does not match height {height}")

    for i, row in enumerate(rows):  # before allocating width * height cells
        if not isinstance(row, str):
            raise MapFormatError(f"'rows[{i}]' must be a string")
        if len(row) != width:
            raise MapFormatError(f"'rows[{i}]' length does not match width {width}")
    occ = np.zeros((height, width), dtype=bool)
    for i, row in enumerate(rows):
        for j, ch in enumerate(row):
            if ch == "#":
                occ[height - 1 - i, j] = True  # rows are top-first
            elif ch != ".":
                raise MapFormatError(f"'rows[{i}]' has invalid character {ch!r}")

    return WorkspaceMap(width=width, height=height, resolution=resolution,
                        origin=(origin[0], origin[1]), occupancy=occ)


def footprint_free(wmap: WorkspaceMap, position: tuple[float, float], rho: float) -> bool:
    """True iff a disc of radius rho at position overlaps no obstacle cell:
    the zero-length sweep swept_footprint_free(wmap, position, position, rho)."""
    _no_nan("position", position)
    return swept_footprint_free(wmap, position, position, rho)


def check_footprint_radius(rho, name: str = "rho") -> float:
    """rho, or ValueError naming name: a finite number >= 2**-511, so that
    rho * rho is a normal float.  The one check of the collision test's rho."""
    if not _MIN_RHO <= rho < math.inf:  # also NaN, which fails every comparison
        raise ValueError(f"{name} must be a finite number > 0 whose square is a normal "
                         f"float (at least 2**-511), got {rho!r}")
    return rho


def _no_nan(name: str, point: tuple[float, float]) -> None:
    """ValueError naming name when point has a NaN coordinate."""
    x, y = point
    if math.isnan(x) or math.isnan(y):
        raise ValueError(f"{name} must not have a NaN coordinate, got {(x, y)!r}")


def _dist2_point_square(px, py, x0, y0, x1, y1):
    """Squared distance from a point to the closed square [x0, x1] x [y0, y1]."""
    dx = px - min(max(px, x0), x1)
    dy = py - min(max(py, y0), y1)
    return dx * dx + dy * dy


def _dist2_points_squares(px, py, x0, y0, x1, y1):
    """_dist2_point_square elementwise over arrays."""
    dx = px - np.minimum(np.maximum(px, x0), x1)
    dy = py - np.minimum(np.maximum(py, y0), y1)
    return dx * dx + dy * dy


def _dist2_point_segment(px, py, ax, ay, vx, vy):
    """Squared distance from a point to the segment a .. a + v."""
    vv = vx * vx + vy * vy
    t = 0.0 if vv == 0.0 else min(max(((px - ax) * vx + (py - ay) * vy) / vv, 0.0), 1.0)
    dx, dy = px - (ax + t * vx), py - (ay + t * vy)
    return dx * dx + dy * dy


def _dist2_segment_square_but_b(ax, ay, bx, by, x0, y0, x1, y1):
    """The squared distance between the segment ab and the closed square
    [x0, x1] x [y0, y1] without b's own term: 0.0 when they meet, else the
    least of a's squared distance to the square and each corner's to ab.
    Its minimum with _dist2_point_square(bx, by, ...) is that distance."""
    vx, vy = bx - ax, by - ay
    # Liang-Barsky: clip the parameter range [0, 1] of a + t v to the square
    t0, t1 = 0.0, 1.0
    for p, q in ((-vx, ax - x0), (vx, x1 - ax), (-vy, ay - y0), (vy, y1 - ay)):
        if p == 0.0:
            if q < 0.0:  # parallel to this side and outside it
                t0 = 2.0
        elif p < 0.0:
            t0 = max(t0, q / p)
        else:
            t1 = min(t1, q / p)
    if t0 <= t1:
        return 0.0
    # Apart: the closest pair has an endpoint of ab or a corner of the square.
    return min(_dist2_point_square(ax, ay, x0, y0, x1, y1),
               _dist2_point_segment(x0, y0, ax, ay, vx, vy),
               _dist2_point_segment(x1, y0, ax, ay, vx, vy),
               _dist2_point_segment(x1, y1, ax, ay, vx, vy),
               _dist2_point_segment(x0, y1, ax, ay, vx, vy))


def swept_footprint_free(wmap: WorkspaceMap, p0: tuple[float, float],
                         p1: tuple[float, float], rho: float) -> bool:
    """True iff the disc of radius rho stays obstacle-free while translating
    from p0 to p1.

    Exact continuous test: collision iff some obstacle (or out-of-bounds)
    cell square lies strictly closer than rho to the segment, compared as
    d^2 < rho^2; the rho-inflated segment bounding box must also stay inside
    the map (touching the border is allowed).  rho must pass
    check_footprint_radius.  A NaN coordinate raises ValueError naming its
    endpoint; an infinite one lies outside the map.
    """
    check_footprint_radius(rho)
    res = wmap.resolution
    ox, oy = wmap.origin
    xmin, ymin, xmax, ymax = wmap.world_bounds
    (ax, ay), (bx, by) = p0, p1
    # a NaN stays in lo or hi, as it would not in min and max, and then
    # fails the bounds check
    lo_x, hi_x = (ax, bx) if ax <= bx else (bx, ax)
    lo_y, hi_y = (ay, by) if ay <= by else (by, ay)
    if not (lo_x - rho >= xmin and lo_y - rho >= ymin
            and hi_x + rho <= xmax and hi_y + rho <= ymax):
        _no_nan("p0", p0)
        _no_nan("p1", p1)
        return False
    ix0 = math.floor((lo_x - rho - ox) / res)
    ix1 = math.floor((hi_x + rho - ox) / res)
    iy0 = math.floor((lo_y - rho - oy) / res)
    iy1 = math.floor((hi_y + rho - oy) / res)
    # The window ix0..ix1 x iy0..iy1 lies in the framed map, -1 <= i <= width
    # (height), so no lookup below wraps or overruns.  Low side: rounding is
    # monotone, so fl(lo_x - rho) >= ox gives fl(fl(lo_x - rho) - ox) >= 0
    # and ix0 >= 0.  High side: fl(hi_x + rho) <= xmax = fl(ox + fl(width res))
    # gives ix1 <= floor(fl(fl(xmax - ox) / res)).  With unit roundoff
    # u = 2**-53 and K = |ox| / res + width, that quotient is below
    # width + 6 u K < width + 1, as WorkspaceMap keeps K <= 2**50.  So
    # ix1 <= width: a disc touching the border (hi_x + rho == xmax) reaches
    # the frame column, whose cells lie off the map and count as obstacles,
    # no further.  Likewise for y.
    top, bottom = wmap._sat_rows[iy1 + 1], wmap._sat_rows[iy0]
    if top[ix1 + 1] - top[ix0] - bottom[ix1 + 1] + bottom[ix0] == 0:
        return True  # no obstacle cell in the window
    rho2 = rho * rho
    framed = wmap._framed_rows
    cells = []
    # pass 1: the end disc at b alone (see the module docstring)
    for j in range(iy0 + 1, iy1 + 2):  # framed row j holds cells iy = j - 1
        row = framed[j]
        cy0 = oy + (j - 1) * res
        for i in range(ix0 + 1, ix1 + 2):
            if row[i]:
                cx0 = ox + (i - 1) * res
                if _dist2_point_square(bx, by, cx0, cy0, cx0 + res, cy0 + res) < rho2:
                    return False
                cells.append((cx0, cy0))
    # pass 2: the rest of the segment test
    for cx0, cy0 in cells:
        if _dist2_segment_square_but_b(ax, ay, bx, by, cx0, cy0, cx0 + res, cy0 + res) < rho2:
            return False
    return True


def _clear_sweeps(wmap: WorkspaceMap, a: np.ndarray, b: np.ndarray,
                  rho: float) -> tuple:
    """swept_footprint_free's bounds check and broad phase for the sweeps
    a[i] -> b[i] of the (n, 2) arrays a and b at once: (clear, busy,
    windows).

    clear is True where the rho-inflated box stays in the map and its cell
    window holds no obstacle, so that swept_footprint_free returns True;
    busy indexes the in-bounds sweeps whose window holds one, and windows
    are their (ix0, ix1, iy0, iy1): the framed map's columns ix0 + 1 .. ix1
    and rows iy0 + 1 .. iy1, which hold map cells ix0 .. ix1 - 1 and
    iy0 .. iy1 - 1.  The same float operations as the scalar give the same
    windows.  A NaN coordinate fails the bounds check here, so the sweep goes
    to the scalar, which raises ValueError for it.
    """
    check_footprint_radius(rho)
    res = wmap.resolution
    ox, oy = wmap.origin
    xmin, ymin, xmax, ymax = wmap.world_bounds
    lo = np.minimum(a, b) - rho
    hi = np.maximum(a, b) + rho
    clear = ((lo[:, 0] >= xmin) & (lo[:, 1] >= ymin)
             & (hi[:, 0] <= xmax) & (hi[:, 1] <= ymax))
    inside = np.flatnonzero(clear)
    # the windows, in the framed map as in swept_footprint_free
    ix0 = np.floor((lo[inside, 0] - ox) / res).astype(np.intp)
    ix1 = np.floor((hi[inside, 0] - ox) / res).astype(np.intp) + 1
    iy0 = np.floor((lo[inside, 1] - oy) / res).astype(np.intp)
    iy1 = np.floor((hi[inside, 1] - oy) / res).astype(np.intp) + 1
    sat = wmap._obstacle_sat
    busy = sat[iy1, ix1] - sat[iy1, ix0] - sat[iy0, ix1] + sat[iy0, ix0] > 0
    clear[inside] = ~busy
    return clear, inside[busy], (ix0[busy], ix1[busy], iy0[busy], iy1[busy])


# (sweep, window cell) pairs per chunk of the batch narrow phase, so that each
# of its working arrays stays near 128 KB whatever rho / res is
_CHUNK_WINDOW_CELLS = 1 << 14


def _sweeps_free(wmap: WorkspaceMap, a: np.ndarray, b: np.ndarray,
                 rho: float) -> list[bool]:
    """[swept_footprint_free(wmap, a[i], b[i], rho) for every i]: the batch
    broad phase, then the batch narrow phase for every in-bounds sweep that
    it does not clear.  Each sweep's answer is independent of the others and
    of their order.

    The narrow phase walks the window cells of those sweeps as one flat run
    of (sweep, cell) pairs, _CHUNK_WINDOW_CELLS at a time.  For each
    obstacle cell, with the scalar's corners ox + ix * res and that + res,
    it computes b's squared distance to the square (_dist2_point_square)
    and the rest of the d^2 test (_dist2_segment_square_but_b) with the
    scalar's float operations.  A max or min that can meet a NaN or a tie is
    written as np.where(x > m, x, m) or np.where(x < m, x, m), which keeps
    the first argument as Python's max and min do.  Elementwise IEEE
    operations round as the scalar's, so a sweep is blocked exactly where
    the scalar finds either value < rho^2.  Only the sweeps that fail the
    bounds check go on to swept_footprint_free, which returns False or
    raises ValueError for a NaN coordinate.
    """
    clear, busy, (ix0, ix1, iy0, iy1) = _clear_sweeps(wmap, a, b, rho)
    res, (ox, oy), rho2 = wmap.resolution, wmap.origin, rho * rho
    framed = wmap.occupancy.base
    stride, framed = framed.shape[1], framed.ravel()
    wide = ix1 - ix0  # window columns
    size = wide * (iy1 - iy0)
    end = np.cumsum(size)
    total = int(end[-1]) if len(end) else 0
    blocked = np.zeros(len(busy), dtype=bool)
    for k in range(0, total, _CHUNK_WINDOW_CELLS):
        pair = np.arange(k, min(k + _CHUNK_WINDOW_CELLS, total))
        s = np.searchsorted(end, pair, side="right")  # the pair's sweep
        dj, di = np.divmod(pair - (end[s] - size[s]), wide[s])
        ix, iy = ix0[s] + di, iy0[s] + dj  # map cell; framed [iy + 1, ix + 1]
        cell = np.flatnonzero(framed[(iy + 1) * stride + ix + 1])
        s, ix, iy = s[cell], ix[cell], iy[cell]
        (ax, ay), (bx, by) = a[busy[s]].T, b[busy[s]].T
        x0, y0 = ox + ix * res, oy + iy * res
        x1, y1 = x0 + res, y0 + res
        # q / p at p == 0 and / vv at vv == 0 are masked; an overflow gives
        # inf, as in the scalar
        with np.errstate(all="ignore"):
            hit = _dist2_points_squares(bx, by, x0, y0, x1, y1) < rho2
            # Liang-Barsky, as in _dist2_segment_square_but_b: a side that
            # ab runs parallel to and outside of sets t0 = 2.0 > t1 there
            vx, vy = bx - ax, by - ay
            t0, t1 = np.zeros(len(s)), np.ones(len(s))
            apart = np.zeros(len(s), dtype=bool)
            for p, q in ((-vx, ax - x0), (vx, x1 - ax), (-vy, ay - y0), (vy, y1 - ay)):
                apart |= (p == 0.0) & (q < 0.0)
                r = q / p
                t0 = np.where((p < 0.0) & (r > t0), r, t0)
                t1 = np.where((p > 0.0) & (r < t1), r, t1)
            hit |= ~apart & (t0 <= t1)
            d2 = _dist2_points_squares(ax, ay, x0, y0, x1, y1)
            vv = vx * vx + vy * vy
            for cx, cy in ((x0, y0), (x1, y0), (x1, y1), (x0, y1)):
                t = np.minimum(np.maximum(((cx - ax) * vx + (cy - ay) * vy) / vv, 0.0), 1.0)
                t[vv == 0.0] = 0.0
                dx, dy = cx - (ax + t * vx), cy - (ay + t * vy)
                e = dx * dx + dy * dy
                d2 = np.where(e < d2, e, d2)
            blocked[s[hit | (d2 < rho2)]] = True
    outside = ~clear  # fails the bounds check
    outside[busy] = False
    clear[busy] = ~blocked
    out = clear.tolist()
    for i in np.flatnonzero(outside).tolist():
        out[i] = swept_footprint_free(wmap, tuple(a[i].tolist()), tuple(b[i].tolist()), rho)
    return out


# Disc subsamples per chunk of points: a chunk holds _CHUNK_SUBSAMPLES // (win s)
# points, so each working buffer, one value per subsample row of a window,
# stays near 128 KB whatever r is.
_CHUNK_SUBSAMPLES = 1 << 14
# Largest one-point window, in subsamples: 2048 per side.  The prefix table
# of obstruction_ratios is framed by one window's width of obstacle cells.
MAX_WINDOW_SUBSAMPLES = 1 << 22


def check_disc_radius(wmap: WorkspaceMap, r) -> float:
    """r as a float, or ValueError naming r: a finite number > 0 whose disc
    window on wmap holds at most MAX_WINDOW_SUBSAMPLES subsamples."""
    r = finite_number(r, "r", positive=True)
    rc = r / wmap.resolution
    # a window spans at most 2 rc + 2 cells.  Compared unsquared, which is
    # the same cap (2**22 = 2048**2 and rounding is monotone), as the square
    # of a huge r overflows.
    if (2 * rc + 2) * DISC_SAMPLES_PER_CELL > math.isqrt(MAX_WINDOW_SUBSAMPLES):
        raise ValueError(f"r {r!r} gives a disc window of more than "
                         f"{MAX_WINDOW_SUBSAMPLES} subsamples")
    return r


def obstruction_ratios(wmap: WorkspaceMap, xy, r: float) -> np.ndarray:
    """Obstruction ratio at every point of xy, an (n, 2) array; shape (n,).

    Works in cell units.  Each cell is subsampled on an s x s grid at offsets
    (k + 0.5) / s.  A point p sees the cells floor(p - r) .. floor(p + r) on
    each axis; a subsample of those cells is in the disc when
    dx^2 + dy^2 <= r^2, and obstructed when its cell is an obstacle or out of
    bounds.  The ratio is obstructed / total on the integer counts; when no
    subsample is in the disc, it is 1.0 or 0.0 by the cell holding p.  Each
    point's ratio is independent of the other points and of their order.
    """
    r = check_disc_radius(wmap, r)
    s = DISC_SAMPLES_PER_CELL
    rc = r / wmap.resolution
    xy = np.asarray(xy, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"xy must have shape (n, 2), not {xy.shape}")
    if not np.isfinite(xy).all():
        raise ValueError("xy must be finite")
    ox, oy = wmap.origin
    res = wmap.resolution
    with np.errstate(over="ignore"):  # a far point may reach inf: its ratio is 1.0
        px = (xy[:, 0] - ox) / res
        py = (xy[:, 1] - oy) / res
    # A point whose window misses the map counts frame cells only, so its
    # ratio is 1.0 (its host cell is off the map too).  It is set here, before
    # any cast to int64, which a far point would overflow.
    out = np.ones(len(xy))
    near = np.flatnonzero((px + rc >= 0) & (px - rc < wmap.width)
                          & (py + rc >= 0) & (py - rc < wmap.height))
    if not len(near):
        return out
    px, py = px[near], py[near]
    x0 = np.floor(px - rc)
    y0 = np.floor(py - rc)
    # Every point gets the widest window.  The cells past a point's own
    # window add nothing: their subsamples lie more than r + 1/(2 s) beyond
    # the point along that axis, outside the disc.
    win = int(max((np.floor(px + rc) - x0).max(), (np.floor(py + rc) - y0).max())) + 1
    ws = win * s
    chunk = max(1, _CHUNK_SUBSAMPLES // ws)
    # occupancy framed by win obstacle cells, which holds every window: the
    # window of a point starts at x0 >= 1 - win, as floor(px + rc) >= 0, and
    # ends at x0 + win - 1 < width + win, as x0 < width; likewise along y
    occ = np.ones((wmap.height + 2 * win, wmap.width + 2 * win), dtype=bool)
    occ[win:-win, win:-win] = wmap.occupancy
    # pre[row, q]: obstructed subsamples among subsample columns 0 .. q of a
    # framed row, each cell repeated s times along x; held in the smallest
    # unsigned type that holds a row's count, as the difference of two
    # entries of a row, later minus earlier, never wraps
    ncol = occ.shape[1] * s
    pre = np.empty(occ.shape + (s,), dtype=np.min_scalar_type(ncol))
    pre[...] = occ[:, :, None]
    pre = pre.reshape(-1, ncol)
    np.cumsum(pre, axis=1, out=pre)
    pre = pre.ravel()
    # flat index into pre of the column before each subsample row's window,
    # so that base + stop and base + first bound a run; a window starts at
    # column s or later of its row (x0 >= 1 - win), so that column exists
    row0 = (y0.astype(np.int64) + win) * ncol + (x0.astype(np.int64) + win) * s - 1
    row_step = np.arange(ws) // s * ncol
    # Subsample j of a window starting at cell x0 lies at x0 + (j + 0.5) / s.
    # With s a power of two, (j + 0.5) / s is exact, so the sum is one
    # rounding of the real x0 + j // s + (j % s + 0.5) / s, bit for bit the
    # subsample coordinate (x0 + j // s) + (j % s + 0.5) / s of the cell grid.
    offs = (np.arange(ws) + 0.5) / s
    rc2 = rc * rc
    # the point in column units: subsample j is (j - col) / s from it along x
    col = (px - x0) * s - 0.5

    total = np.empty(len(px), dtype=np.int64)
    obstructed = np.empty(len(px), dtype=np.int64)
    for lo in range(0, len(px), chunk):
        sl = slice(lo, lo + chunk)
        dy2 = np.square(y0[sl, None] + offs - py[sl, None])  # [point, row]
        # Row j's subsamples in the disc form one run of columns: x rises with
        # the column, so fl(x - px) rises, its square falls then rises, and so
        # does fl(dx2 + dy2).  In real numbers the run holds the columns within
        # half = s sqrt(rc2 - dy2) of col.  The rounded predicate can differ
        # only where dx2 + dy2 is within 4 u rc2 (u = 2**-53) of rc2, so where
        # |dx| is within sqrt(4 u rc2) < rc 2**-25 cells of the real boundary;
        # half and col carry far smaller errors, and x is exact (a multiple of
        # 1/(2 s) far below 2**50).  With rc < 256 under the window cap, each
        # end of the run is thus within 1e-4 columns of col -+ half.  So, with
        # k = rint(col - half), columns below k lie at least 1/2 - 1e-4 column
        # outside the disc, and k + 1 is in the run unless it lies past the
        # run's end, where k is the only column the run can hold: the run
        # starts at k or k + 1, and one test of the predicate at k settles
        # which.  Likewise its end.
        half = np.sqrt(np.maximum(rc2 - dy2, 0.0)) * s
        c, cx0, cpx = col[sl, None], x0[sl, None], px[sl, None]
        k = np.rint(c - half)
        e = np.rint(c + half)
        first = (k + ~(np.square(cx0 + (k + 0.5) / s - cpx) + dy2 <= rc2)).astype(np.int64)
        stop = (e + (np.square(cx0 + (e + 0.5) / s - cpx) + dy2 <= rc2)).astype(np.int64)
        np.clip(first, 0, ws, out=first)
        np.clip(stop, first, ws, out=stop)  # an empty run: stop == first
        total[sl] = (stop - first).sum(axis=1)
        base = row0[sl, None] + row_step
        obstructed[sl] = (pre[base + stop] - pre[base + first]).sum(axis=1)
    ratio = obstructed / np.maximum(total, 1)
    empty = np.flatnonzero(total == 0)
    if len(empty):
        # radius small relative to the subsample grid: use the host cell
        hx = np.floor(px[empty]).astype(np.int64) + win  # within the window
        hy = np.floor(py[empty]).astype(np.int64) + win
        ratio[empty] = np.where(occ[hy, hx], 1.0, 0.0)
    out[near] = ratio
    return out


def obstruction_ratio(wmap: WorkspaceMap, position: tuple[float, float], r: float) -> float:
    """Fraction of the radius-r disc around position occupied by obstacles.

    Area ratio over the 2-D disc; cells outside map bounds count as obstructed.
    One-point call of obstruction_ratios.
    """
    return float(obstruction_ratios(wmap, np.array([position], dtype=float), r)[0])
