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

The test has a broad phase.  Each WorkspaceMap keeps a summed-area table
(Crow 1984) of its occupancy, framed by one obstacle cell on every side, so
four lookups count the obstacles in the cell window that the rho-inflated
bounding box of ab covers.  A window with none is free at once; otherwise
only its obstacle cells get the exact d^2 < rho^2 test.  This cannot change
a decision: the exact scan of a window returns False only on an obstacle or
out-of-map cell of that window, and the frame holds every out-of-map cell
a window can reach.

The obstruction ratio has one implementation, the batched
obstruction_ratios; obstruction_ratio and obstruction_field call it.  Its
result for a point does not depend on the other points of the batch or on
the chunking: it is bit for bit the ratio of one point computed alone, with
the same window, the same floating-point predicate dx^2 + dy^2 <= r^2 and
the same division of integer counts.  Plans, reports and front.json depend
on that.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .validate import finite_number

# Subsamples per cell side when rasterizing the obstruction disc.
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


@dataclass(frozen=True)
class WorkspaceMap:
    """Immutable occupancy grid.

    occupancy is indexed [iy, ix] with iy = 0 at the bottom (smallest world y).
    """

    width: int
    height: int
    resolution: float
    origin: tuple[float, float]
    occupancy: np.ndarray = field(repr=False)
    # Derived for swept_footprint_free, both over the occupancy framed by one
    # obstacle cell on every side, so that cell (ix, iy) is framed[iy + 1][ix + 1]:
    # _framed_rows is that framed occupancy as nested lists of bools, and
    # _obstacle_sat its summed-area table, _obstacle_sat[j][i] being the
    # number of obstacles in framed[:j + 1, :i + 1], as nested lists of ints.
    _framed_rows: list = field(init=False, repr=False, compare=False)
    _obstacle_sat: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be >= 1")
        finite_number(self.resolution, "resolution", positive=True)
        for i, (v, n) in enumerate(zip(self.origin, (self.width, self.height))):
            finite_number(v, f"origin[{i}]")
            # keeps cell indices exact to far less than a cell, which the
            # collision test's windows need (see swept_footprint_free)
            if abs(v) / self.resolution + n > _MAX_CELL_COORDINATE:
                raise ValueError(f"origin[{i}] {v!r} puts the map past 2**50 cells")
        occ = np.asarray(self.occupancy, dtype=bool)
        if occ.shape != (self.height, self.width):
            raise ValueError("occupancy shape must be (height, width)")
        occ.setflags(write=False)
        object.__setattr__(self, "occupancy", occ)
        framed = np.ones((self.height + 2, self.width + 2), dtype=bool)
        framed[1:-1, 1:-1] = occ
        object.__setattr__(self, "_framed_rows", framed.tolist())
        object.__setattr__(self, "_obstacle_sat",
                           framed.cumsum(axis=0).cumsum(axis=1).tolist())

    # -- coordinate transforms -------------------------------------------------

    def world_to_cell(self, x: float, y: float) -> tuple[int, int]:
        ox, oy = self.origin
        return (int(math.floor((x - ox) / self.resolution)),
                int(math.floor((y - oy) / self.resolution)))

    def cell_center(self, ix: int, iy: int) -> tuple[float, float]:
        ox, oy = self.origin
        return (ox + (ix + 0.5) * self.resolution,
                oy + (iy + 0.5) * self.resolution)

    def in_bounds(self, ix: int, iy: int) -> bool:
        return 0 <= ix < self.width and 0 <= iy < self.height

    def is_obstacle(self, ix: int, iy: int) -> bool:
        """Out-of-bounds cells count as obstacle."""
        if not self.in_bounds(ix, iy):
            return True
        return bool(self.occupancy[iy, ix])

    @property
    def world_bounds(self) -> tuple[float, float, float, float]:
        ox, oy = self.origin
        return (ox, oy, ox + self.width * self.resolution, oy + self.height * self.resolution)


def load_map(source: str | bytes | dict) -> WorkspaceMap:
    """Parse the map JSON format into a validated WorkspaceMap.

    Rows are listed top row first; '#' marks an obstacle cell, '.' free.
    """
    if isinstance(source, (str, bytes)):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise MapFormatError(f"invalid JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise MapFormatError("map document must be a JSON object")

    for key in ("width", "height", "resolution", "origin", "rows"):
        if key not in data:
            raise MapFormatError(f"missing field '{key}'")

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

    occ = np.zeros((height, width), dtype=bool)
    for i, row in enumerate(rows):
        if not isinstance(row, str) or len(row) != width:
            raise MapFormatError(f"'rows[{i}]' length does not match width {width}")
        for j, ch in enumerate(row):
            if ch == "#":
                occ[height - 1 - i, j] = True  # rows are top-first
            elif ch != ".":
                raise MapFormatError(f"'rows[{i}]' has invalid character {ch!r}")

    return WorkspaceMap(width=width, height=height, resolution=resolution,
                        origin=(origin[0], origin[1]), occupancy=occ)


def dump_map(wmap: WorkspaceMap) -> str:
    """Inverse of load_map (useful for fixtures and tests)."""
    rows = []
    for iy in range(wmap.height - 1, -1, -1):
        rows.append("".join("#" if wmap.occupancy[iy, ix] else "."
                            for ix in range(wmap.width)))
    return json.dumps({
        "width": wmap.width,
        "height": wmap.height,
        "resolution": wmap.resolution,
        "origin": list(wmap.origin),
        "rows": rows,
    }, indent=1)


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
    the map (touching the border is allowed).
    """
    if not 0 < rho < math.inf:  # also NaN, which fails every comparison
        raise ValueError(f"rho must be a finite number > 0, got {rho!r}")
    res = wmap.resolution
    ox, oy = wmap.origin
    xmin, ymin, xmax, ymax = wmap.world_bounds
    (ax, ay), (bx, by) = p0, p1
    lo_x, hi_x = min(ax, bx), max(ax, bx)
    lo_y, hi_y = min(ay, by), max(ay, by)
    if lo_x - rho < xmin or lo_y - rho < ymin or hi_x + rho > xmax or hi_y + rho > ymax:
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
    # the frame column, an out-of-bounds obstacle as in is_obstacle, no
    # further.  Likewise for y.
    sat = wmap._obstacle_sat
    below, top = sat[iy0], sat[iy1 + 1]
    if top[ix1 + 1] - top[ix0] - below[ix1 + 1] + below[ix0] == 0:
        return True  # no obstacle cell in the window
    rho2 = rho * rho
    rows = wmap._framed_rows
    for iy in range(iy0, iy1 + 1):
        row = rows[iy + 1]
        for ix in range(ix0, ix1 + 1):
            if not row[ix + 1]:
                continue
            cx0, cy0 = ox + ix * res, oy + iy * res
            if _dist2_segment_square(ax, ay, bx, by, cx0, cy0, cx0 + res, cy0 + res) < rho2:
                return False
    return True


# Disc subsamples evaluated per chunk of points.  The chunk length follows
# from the window size, so the working buffers stay near 200 KB whatever r is.
_CHUNK_SUBSAMPLES = 1 << 14
# Largest one-point window, in subsamples; its buffers take about 40 MB.
MAX_WINDOW_SUBSAMPLES = 1 << 22


def obstruction_ratios(wmap: WorkspaceMap, xy, r: float) -> np.ndarray:
    """Obstruction ratio at every point of xy, an (n, 2) array; shape (n,).

    Works in cell units.  Each cell is subsampled on an s x s grid at offsets
    (k + 0.5) / s.  A point p sees the cells floor(p - r) .. floor(p + r) on
    each axis; a subsample of those cells is in the disc when
    dx^2 + dy^2 <= r^2, and obstructed when its cell is an obstacle or out of
    bounds.  The ratio is obstructed / total on the integer counts; when no
    subsample is in the disc, it is 1.0 or 0.0 by the cell holding p.
    """
    r = finite_number(r, "r", positive=True)
    s = DISC_SAMPLES_PER_CELL
    rc = r / wmap.resolution
    # checked before any buffer is built: a window spans at most 2 rc + 2 cells
    if ((2 * rc + 2) * s) ** 2 > MAX_WINDOW_SUBSAMPLES:
        raise ValueError(f"r {r!r} gives a disc window of more than "
                         f"{MAX_WINDOW_SUBSAMPLES} subsamples")
    xy = np.asarray(xy, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"xy must have shape (n, 2), not {xy.shape}")
    if not np.isfinite(xy).all():
        raise ValueError("xy must be finite")
    n = len(xy)
    if not n:
        return np.empty(0)
    ox, oy = wmap.origin
    res = wmap.resolution
    px = (xy[:, 0] - ox) / res
    py = (xy[:, 1] - oy) / res
    ix0 = np.floor(px - rc).astype(np.int64)
    iy0 = np.floor(py - rc).astype(np.int64)
    # Every point gets the widest window.  The cells past a point's own
    # window add nothing: their subsamples lie more than r + 1/(2 s) beyond
    # the point along that axis, outside the disc.
    win = int(max((np.floor(px + rc).astype(np.int64) - ix0).max(),
                  (np.floor(py + rc).astype(np.int64) - iy0).max())) + 1
    chunk = max(1, _CHUNK_SUBSAMPLES // (win * s) ** 2)
    cells = np.arange(win)
    offs = (np.arange(s) + 0.5) / s
    # occupancy framed by win obstacle cells; a window that starts further
    # out lies wholly outside the map, so its start clips onto the frame
    occ = np.ones((wmap.height + 2 * win, wmap.width + 2 * win), dtype=bool)
    occ[win:-win, win:-win] = wmap.occupancy
    bx0 = np.clip(ix0, -win, wmap.width) + win
    by0 = np.clip(iy0, -win, wmap.height) + win

    total = np.empty(n, dtype=np.int64)
    obstructed = np.empty(n, dtype=np.int64)
    d2 = np.empty((chunk, win * s, win * s))
    inside = np.empty(d2.shape, dtype=bool)
    for lo in range(0, n, chunk):
        sl = slice(lo, lo + chunk)
        m = min(chunk, n - lo)
        xs = ((ix0[sl, None] + cells)[:, :, None] + offs).reshape(m, -1)
        ys = ((iy0[sl, None] + cells)[:, :, None] + offs).reshape(m, -1)
        dx2 = (xs - px[sl, None]) ** 2
        dy2 = (ys - py[sl, None]) ** 2
        ins = inside[:m]  # [point, y subsample, x subsample]
        np.less_equal(np.add(dx2[:, None, :], dy2[:, :, None], out=d2[:m]), rc * rc,
                      out=ins)
        total[sl] = np.count_nonzero(ins.reshape(m, -1), axis=1)
        blocked = occ[(by0[sl, None] + cells)[:, :, None],
                      (bx0[sl, None] + cells)[:, None, :]]
        np.logical_and(ins, blocked.repeat(s, axis=1).repeat(s, axis=2), out=ins)
        obstructed[sl] = np.count_nonzero(ins.reshape(m, -1), axis=1)
    out = obstructed / np.maximum(total, 1)
    empty = np.flatnonzero(total == 0)
    if len(empty):
        # radius small relative to the subsample grid: use the host cell
        hx = np.clip(np.floor(px[empty]).astype(np.int64), -1, wmap.width)
        hy = np.clip(np.floor(py[empty]).astype(np.int64), -1, wmap.height)
        out[empty] = np.where(occ[hy + win, hx + win], 1.0, 0.0)
    return out


def obstruction_ratio(wmap: WorkspaceMap, position: tuple[float, float], r: float) -> float:
    """Fraction of the radius-r disc around position occupied by obstacles.

    Area ratio over the 2-D disc; cells outside map bounds count as obstructed.
    One-point call of obstruction_ratios.
    """
    return float(obstruction_ratios(wmap, np.array([position], dtype=float), r)[0])


def obstruction_field(wmap: WorkspaceMap, r: float) -> np.ndarray:
    """Obstruction ratio at every cell center, shape (height, width).

    Identical to per-point obstruction_ratio calls at cell centers.
    """
    ox, oy = wmap.origin
    xs = ox + (np.arange(wmap.width) + 0.5) * wmap.resolution
    ys = oy + (np.arange(wmap.height) + 0.5) * wmap.resolution
    gx, gy = np.meshgrid(xs, ys)
    xy = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return obstruction_ratios(wmap, xy, r).reshape(wmap.height, wmap.width)
