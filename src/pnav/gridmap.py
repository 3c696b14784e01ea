"""2-D occupancy maps: loading, collision predicates and camera-obstruction queries.

The map is a uniform grid of square cells.  Cell (0, 0) sits at the map
origin corner; cell indices grow with world x (ix) and world y (iy).
Everything outside the map bounds is treated as obstacle, so queries near
the border behave conservatively.

The collision test has one implementation, swept_footprint_free; a disc
standing at p is the zero-length sweep from p to p (footprint_free).  The
disc sweeping the segment ab collides when an obstacle cell square, closed,
lies at squared distance d^2 < rho^2 from ab.  d^2 is 0 when ab meets the
square, and otherwise the least of each endpoint's squared distance to the
square and each corner's squared distance to ab.  Standing and sweeping
discs decide tangency alike: d^2 == rho^2 in floating point is free.  So a
disc of radius sqrt(1/8) at distance sqrt(1/8) from a corner collides,
because rho^2 rounds up past d^2 = 1/8.

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
swept_footprint_free, and a batch one (_clear_sweeps) that computes the
same bounds checks, windows and counts for many sweeps at once with the
same float operations.  The lattice build runs the batch over all its
standing discs and all its steps, and only the sweeps it cannot clear go
to swept_footprint_free, so the exact test itself stays in one place.

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

import numpy as np

from .validate import finite_number, json_object

# Subsamples per cell side when rasterizing the obstruction disc.  A power
# of two: obstruction_ratios relies on the offsets (j + 0.5) / s being exact.
DISC_SAMPLES_PER_CELL = 4
# Bound on |origin| / resolution + cells along each axis of a map.
_MAX_CELL_COORDINATE = 2 ** 50


class MapFormatError(ValueError):
    """Raised when map JSON is malformed; the message names the offending field."""


@dataclass(frozen=True)
class RobotModel:
    """Geometric model: footprint disc plus the camera clearance ball radius."""

    footprint_radius: float
    camera_clearance_radius: float

    def __post_init__(self):
        finite_number(self.footprint_radius, "footprint_radius", positive=True)
        finite_number(self.camera_clearance_radius, "camera_clearance_radius",
                      positive=True)


@dataclass(frozen=True, eq=False)
class WorkspaceMap:
    """Immutable occupancy grid; maps compare and hash by identity.

    occupancy is indexed [iy, ix] with iy = 0 at the bottom (smallest world y).
    The map copies the array it is given; occupancy is then a read-only view
    of the interior of _framed, the map's one copy of it.
    """

    width: int
    height: int
    resolution: float
    origin: tuple[float, float]
    occupancy: np.ndarray = field(repr=False)
    # The collision test's tables, built once in __post_init__ as read-only
    # memoryviews of numpy arrays: _framed (bool), the occupancy framed by one
    # obstacle cell on every side, so cell (ix, iy) is _framed[iy + 1, ix + 1],
    # and _obstacle_sat (int64), its summed-area table: [j, i] counts the
    # obstacles in _framed[:j + 1, :i + 1].  swept_footprint_free indexes both;
    # _clear_sweeps reads np.asarray(_obstacle_sat), which copies nothing.
    _framed: memoryview = field(init=False, repr=False)
    _obstacle_sat: memoryview = field(init=False, repr=False)

    def __post_init__(self):
        finite_number(self.width, "width", positive=True, integer=True)
        finite_number(self.height, "height", positive=True, integer=True)
        finite_number(self.resolution, "resolution", positive=True)
        for i, (v, n) in enumerate(zip(self.origin, (self.width, self.height))):
            finite_number(v, f"origin[{i}]")
            # keeps cell indices exact to far less than a cell, which the
            # collision test's windows need (see swept_footprint_free)
            if abs(v) / self.resolution + n > _MAX_CELL_COORDINATE:
                raise ValueError(f"origin[{i}] {v!r} puts the map past 2**50 cells")
        if np.shape(self.occupancy) != (self.height, self.width):
            raise ValueError("occupancy shape must be (height, width)")
        framed = np.ones((self.height + 2, self.width + 2), dtype=bool)
        framed[1:-1, 1:-1] = self.occupancy
        framed.setflags(write=False)
        sat = framed.cumsum(axis=0, dtype=np.int64).cumsum(axis=1)
        object.__setattr__(self, "occupancy", framed[1:-1, 1:-1])
        object.__setattr__(self, "_framed", memoryview(framed))
        object.__setattr__(self, "_obstacle_sat", memoryview(sat).toreadonly())

    def __reduce__(self):
        # the memoryviews do not pickle; the map rebuilds them from its fields
        return (WorkspaceMap, (self.width, self.height, self.resolution, self.origin,
                               self.occupancy))

    @property
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
    if not isinstance(rows, list) or not rows:
        raise MapFormatError("'rows' has zero rows")
    if len(rows) != height:
        raise MapFormatError(f"'rows' count {len(rows)} does not match height {height}")

    for i, row in enumerate(rows):  # before allocating width * height cells
        if not isinstance(row, str) or len(row) != width:
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
    return swept_footprint_free(wmap, position, position, rho)


def _dist2_point_square(px, py, x0, y0, x1, y1):
    """Squared distance from a point to the closed square [x0, x1] x [y0, y1]."""
    dx = px - min(max(px, x0), x1)
    dy = py - min(max(py, y0), y1)
    return dx * dx + dy * dy


def _dist2_point_segment(px, py, ax, ay, vx, vy):
    """Squared distance from a point to the segment a .. a + v."""
    vv = vx * vx + vy * vy
    t = 0.0 if vv == 0.0 else min(max(((px - ax) * vx + (py - ay) * vy) / vv, 0.0), 1.0)
    dx, dy = px - (ax + t * vx), py - (ay + t * vy)
    return dx * dx + dy * dy


def _dist2_segment_square(ax, ay, bx, by, x0, y0, x1, y1):
    """Squared distance between the segment ab and the closed square
    [x0, x1] x [y0, y1]; 0.0 when they meet."""
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
               _dist2_point_square(bx, by, x0, y0, x1, y1),
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
    the map (touching the border is allowed).  A NaN coordinate raises
    ValueError naming its endpoint; an infinite one lies outside the map.
    """
    if not 0 < rho < math.inf:  # also NaN, which fails every comparison
        raise ValueError(f"rho must be a finite number > 0, got {rho!r}")
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
        for name, (x, y) in (("p0", p0), ("p1", p1)):
            if math.isnan(x) or math.isnan(y):
                raise ValueError(f"{name} must not have a NaN coordinate, got {(x, y)!r}")
        return False
    ix0 = int(math.floor((lo_x - rho - ox) / res))
    ix1 = int(math.floor((hi_x + rho - ox) / res))
    iy0 = int(math.floor((lo_y - rho - oy) / res))
    iy1 = int(math.floor((hi_y + rho - oy) / res))
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
    sat = wmap._obstacle_sat
    if sat[iy1 + 1, ix1 + 1] - sat[iy1 + 1, ix0] - sat[iy0, ix1 + 1] + sat[iy0, ix0] == 0:
        return True  # no obstacle cell in the window
    rho2 = rho * rho
    framed = wmap._framed
    for j in range(iy0 + 1, iy1 + 2):  # framed row j holds cells iy = j - 1
        for i in range(ix0 + 1, ix1 + 2):
            if not framed[j, i]:
                continue
            cx0, cy0 = ox + (i - 1) * res, oy + (j - 1) * res
            if _dist2_segment_square(ax, ay, bx, by, cx0, cy0, cx0 + res, cy0 + res) < rho2:
                return False
    return True


def _clear_sweeps(wmap: WorkspaceMap, a: np.ndarray, b: np.ndarray,
                  rho: float) -> np.ndarray:
    """swept_footprint_free's bounds check and broad phase for the sweeps
    a[i] -> b[i] of the (n, 2) arrays a and b at once.

    True where the rho-inflated box stays in the map and its cell window
    holds no obstacle, so that swept_footprint_free returns True; False
    where only the exact test can tell.  The same float operations as the
    scalar give the same windows.  A NaN coordinate fails the bounds check
    here, so the sweep goes to the scalar, which raises ValueError for it.
    """
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be a finite number > 0, got {rho!r}")
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
    sat = np.asarray(wmap._obstacle_sat)
    clear[inside] = sat[iy1, ix1] - sat[iy1, ix0] - sat[iy0, ix1] + sat[iy0, ix0] == 0
    return clear


def _sweeps_free(wmap: WorkspaceMap, a: np.ndarray, b: np.ndarray,
                 rho: float) -> list[bool]:
    """[swept_footprint_free(wmap, a[i], b[i], rho) for every i]: the batch
    broad phase, then the scalar test for every sweep it does not clear.
    Each sweep's answer is independent of the others and of their order."""
    free = _clear_sweeps(wmap, a, b, rho)
    out = free.tolist()
    for i in np.flatnonzero(~free).tolist():
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
