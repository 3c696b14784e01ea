"""Output checks, computed apart from the program under test.

Every check takes parsed outputs (and, where needed, the map parsed by
parse_map below) and raises Reject with a message when the output is wrong.
Nothing here imports pnav: the lattice rules, the obstruction ratio, the
curvature sign count and the RRT clearance are written out from their
documented definitions.
"""

from __future__ import annotations

import heapq
import json
import math

import numpy as np

TOL = 1e-9

# unit lattice step per heading, in lattice positions
HEADING_STEP = {0: (1, 0), 45: (1, 1), 90: (0, 1), 135: (-1, 1),
                180: (-1, 0), 225: (-1, -1), 270: (0, -1), 315: (1, -1)}

SUBSAMPLES = 4          # obstruction disc subsamples per cell side
COLLINEAR_EPS = 1e-9    # RRT turns below this |cross| carry no sign
CLEARANCE_STEP = 1 / 40  # RRT clearance sample spacing, in cells


class Reject(Exception):
    """An output failed a check."""


class Grid:
    """Occupancy grid: occ[iy, ix], iy = 0 at the bottom; outside is obstacle."""

    def __init__(self, occ: np.ndarray, resolution: float, origin):
        self.occ = occ
        self.res = float(resolution)
        self.ox, self.oy = float(origin[0]), float(origin[1])

    @property
    def bounds(self):
        h, w = self.occ.shape
        return (self.ox, self.oy, self.ox + w * self.res, self.oy + h * self.res)


def parse_map(text: str) -> Grid:
    doc = json.loads(text)
    rows = doc["rows"]
    occ = np.array([[ch == "#" for ch in row] for row in reversed(rows)], dtype=bool)
    if occ.shape != (doc["height"], doc["width"]):
        raise Reject("map rows do not match width and height")
    return Grid(occ, doc["resolution"], doc["origin"])


# -- lattice fronts (plan) ---------------------------------------------------------


def dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def entry_cost(entry) -> tuple:
    c = entry["cost"]
    return (c["w1_sum"], c["w2"], c["w3"])


def path_cost(nodes, delta: float) -> tuple[int, float]:
    """(w2, w3) of a node path: rotations in place and travelled distance.
    Rejects a step that is neither a rotation nor one position along the
    current heading."""
    w2, w3 = 0, 0.0
    for (ax, ay, ah), (bx, by, bh) in zip(nodes, nodes[1:]):
        if (ax, ay) == (bx, by) and ah != bh:
            w2 += 1
            continue
        dx, dy = HEADING_STEP[ah]
        if bh != ah or (bx, by) != (ax + dx, ay + dy):
            raise Reject(f"step {[ax, ay, ah]} -> {[bx, by, bh]} is neither a "
                         f"rotation nor a move along the heading")
        w3 += delta if dx == 0 or dy == 0 else math.sqrt(2.0) * delta
    return w2, w3


def check_front(doc) -> None:
    """Sort order, non-dominance, path shape, path costs and report fields."""
    entries = doc["entries"]
    if not entries:
        raise Reject("front is empty")
    costs = [entry_cost(e) for e in entries]
    for a, b in zip(costs, costs[1:]):
        if b[2] < a[2]:
            raise Reject(f"entries not sorted by D: {a[2]} before {b[2]}")
    for i, a in enumerate(costs):
        for j, b in enumerate(costs):
            if i != j and dominates(a, b):
                raise Reject(f"entry {i} {a} dominates entry {j} {b}")
    start, goal = doc["start"], doc["goal"]
    for i, (e, (_, w2, w3)) in enumerate(zip(entries, costs)):
        nodes = [tuple(n) for n in e["nodes"]]
        if list(nodes[0]) != list(start):
            raise Reject(f"entry {i} starts at {nodes[0]}, not {start}")
        if list(nodes[-1][:2]) != list(goal[:2]) or (
                len(goal) == 3 and nodes[-1][2] != goal[2]):
            raise Reject(f"entry {i} ends at {nodes[-1]}, not the goal {goal}")
        p2, p3 = path_cost(nodes, doc["delta"])
        if p2 != w2 or abs(p3 - w3) > TOL:
            raise Reject(f"entry {i} costs (w2, w3) = {(w2, w3)}, "
                         f"its path costs {(p2, p3)}")
        rep = e["report"]
        if rep["N"] != w2 or abs(rep["D"] - w3) > TOL or not 0.0 <= rep["V"] <= 1.0:
            raise Reject(f"entry {i} report {rep} disagrees with cost {(w2, w3)}")


def check_museum_tradeoff(doc) -> None:
    """The paper's trade-off: an unobstructed entry exists, the shortest path
    is obstructed, and the fewest-turn path turns less than the shortest."""
    reps = [e["report"] for e in doc["entries"]]
    shortest = min(reps, key=lambda r: r["D"])
    fewest = min(reps, key=lambda r: r["N"])
    if not any(r["V"] == 0.0 for r in reps):
        raise Reject("no entry has V = 0")
    if not shortest["V"] > 0.0:
        raise Reject("the shortest entry has V = 0")
    if not fewest["N"] < shortest["N"]:
        raise Reject("the fewest-turn entry turns as often as the shortest")


def dijkstra_minima(neighbors, start, goal_xy) -> tuple:
    """Single-objective optimum of each cost component, goal heading free.

    neighbors(node) yields (next_node, (w1, w2, w3)); nodes are (ix, iy, h).
    A component with no goal-reaching path gives None.
    """
    out = []
    for k in range(3):
        dist = {start: 0}
        heap = [(0, 0, start)]
        tick = 1
        best = None
        while heap:
            d, _, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            if u[:2] == goal_xy:
                best = d
                break
            for v, cost in neighbors(u):
                nd = d + cost[k]
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, tick, v))
                    tick += 1
        out.append(best)
    return tuple(out)


def check_front_minima(doc, minima) -> None:
    """Every Pareto front holds a minimiser of each objective."""
    costs = [entry_cost(e) for e in doc["entries"]]
    for k, name in enumerate(("w1", "w2", "w3")):
        got = min(c[k] for c in costs)
        if minima[k] is None or abs(got - minima[k]) > TOL:
            raise Reject(f"front minimum of {name} is {got}, "
                         f"the single-objective optimum is {minima[k]}")


# -- obstruction and V ----------------------------------------------------------------


def obstruction(grid: Grid, xy: np.ndarray, r: float, chunk: int = 512) -> np.ndarray:
    """Obstructed share of the radius-r disc around each point of xy (n, 2).

    Each cell is split into SUBSAMPLES x SUBSAMPLES points at offsets
    (k + 0.5) / SUBSAMPLES; a point is in the disc when dx^2 + dy^2 <= r^2
    (cell units) and obstructed when its cell is an obstacle or outside the
    map.
    """
    s = SUBSAMPLES
    rc = r / grid.res
    win = int(math.ceil(2 * rc)) + 2
    offs = (np.arange(s) + 0.5) / s
    h, w = grid.occ.shape
    pad = win + 1
    occ = np.ones((h + 2 * pad, w + 2 * pad), dtype=bool)
    occ[pad:pad + h, pad:pad + w] = grid.occ
    out = np.empty(len(xy))
    for lo in range(0, len(xy), chunk):
        p = xy[lo:lo + chunk]
        px = (p[:, 0] - grid.ox) / grid.res
        py = (p[:, 1] - grid.oy) / grid.res
        cx = np.floor(px - rc).astype(int)[:, None] + np.arange(win)[None, :]
        cy = np.floor(py - rc).astype(int)[:, None] + np.arange(win)[None, :]
        dx2 = ((cx[:, :, None] + offs).reshape(len(p), -1) - px[:, None]) ** 2
        dy2 = ((cy[:, :, None] + offs).reshape(len(p), -1) - py[:, None]) ** 2
        inside = dx2[:, None, :] + dy2[:, :, None] <= rc * rc
        cells = occ[cy[:, :, None] + pad, cx[:, None, :] + pad]
        sub = np.repeat(np.repeat(cells, s, axis=1), s, axis=2)
        total = inside.sum(axis=(1, 2))
        if (total == 0).any():
            raise Reject("disc holds no subsample; radius below the subsample grid")
        out[lo:lo + chunk] = (inside & sub).sum(axis=(1, 2)) / total
    return out


def time_mean_v(samples, grid: Grid, r: float) -> float:
    """V: trapezoid time-mean of the obstruction over the samples."""
    arr = np.array([[s["t"], s["x"], s["y"]] for s in samples], dtype=float)
    phi = obstruction(grid, arr[:, 1:], r)
    t = arr[:, 0]
    if len(t) == 1 or t[-1] == 0.0:
        return float(phi[0])
    return float(np.sum(np.diff(t) * (phi[1:] + phi[:-1]) / 2.0) / t[-1])


def check_v(samples, reported_v: float, grid: Grid, r: float) -> None:
    v = time_mean_v(samples, grid, r)
    if abs(v - reported_v) > TOL:
        raise Reject(f"reported V {reported_v} differs from the recomputed {v}")


# -- RRT ------------------------------------------------------------------------------


def sign_changes(vertices) -> int:
    """Alternations of the turn direction along a polyline; collinear
    vertices carry no sign and keep the last one."""
    changes, last = 0, 0
    for a, b, c in zip(vertices, vertices[1:], vertices[2:]):
        ax, ay = b[0] - a[0], b[1] - a[1]
        bx, by = c[0] - b[0], c[1] - b[1]
        cross = (ax * by - ay * bx) / (math.hypot(ax, ay) * math.hypot(bx, by))
        if abs(cross) <= COLLINEAR_EPS:
            continue
        sign = 1 if cross > 0 else -1
        if last and sign != last:
            changes += 1
        last = sign
    return changes


def polyline_length(vertices) -> float:
    return sum(math.hypot(b[0] - a[0], b[1] - a[1])
               for a, b in zip(vertices, vertices[1:]))


def min_clearance(vertices, grid: Grid) -> float:
    """Smallest distance from sampled points of the polyline to an obstacle
    cell or the map border."""
    step = CLEARANCE_STEP * grid.res
    pts = [np.asarray(vertices[:1], dtype=float)]
    for a, b in zip(vertices, vertices[1:]):
        n = max(1, int(math.ceil(math.hypot(b[0] - a[0], b[1] - a[1]) / step)))
        f = np.arange(1, n + 1)[:, None] / n
        pts.append(np.asarray(a) + f * (np.asarray(b) - np.asarray(a)))
    pts = np.concatenate(pts)
    x0, y0, x1, y1 = grid.bounds
    border = np.min([pts[:, 0] - x0, x1 - pts[:, 0], pts[:, 1] - y0, y1 - pts[:, 1]])
    iy, ix = np.nonzero(grid.occ)
    if len(ix) == 0:
        return float(border)
    cx0 = grid.ox + ix * grid.res
    cy0 = grid.oy + iy * grid.res
    best = float(border)
    for lo in range(0, len(pts), 256):
        p = pts[lo:lo + 256]
        dx = np.maximum(np.maximum(cx0[None, :] - p[:, :1], 0.0),
                        p[:, :1] - (cx0[None, :] + grid.res))
        dy = np.maximum(np.maximum(cy0[None, :] - p[:, 1:], 0.0),
                        p[:, 1:] - (cy0[None, :] + grid.res))
        best = min(best, float(np.sqrt(dx * dx + dy * dy).min()))
    return best


def check_rrt(doc, grid: Grid, start, goal, rho: float) -> None:
    verts = [tuple(v) for v in doc["vertices"]]
    if verts[0] != tuple(start) or verts[-1] != tuple(goal):
        raise Reject(f"path runs {verts[0]} -> {verts[-1]}, not {start} -> {goal}")
    clearance = min_clearance(verts, grid)
    if clearance < rho - TOL:
        raise Reject(f"path comes within {clearance} of an obstacle, rho = {rho}")
    signs = sign_changes(verts)
    if signs != doc["curvature_sign_changes"]:
        raise Reject(f"reported {doc['curvature_sign_changes']} sign changes, "
                     f"recomputed {signs}")
    # D is the summed displacement between samples; a turn shorter than one
    # tick is cut by a chord, so D may fall short of the polyline length
    rep = doc["report"]
    sampled = polyline_length([(s["x"], s["y"]) for s in doc["samples"]])
    length = polyline_length(verts)
    if abs(sampled - rep["D"]) > TOL or rep["D"] > length + TOL:
        raise Reject(f"report D {rep['D']} differs from the sampled length "
                     f"{sampled} or exceeds the polyline length {length}")
    if not 0.0 <= rep["V"] <= 1.0:
        raise Reject(f"report V {rep['V']} outside [0, 1]")


def best_of_n_choice(runs):
    """The run best_of_n must pick from [(seed, vertices or None)]: fewest
    sign changes, then shortest, then lowest seed."""
    ok = [(sign_changes(v) if len(v) >= 2 else 0, polyline_length(v), seed, v)
          for seed, v in runs if v is not None]
    return min(ok)[3] if ok else None
