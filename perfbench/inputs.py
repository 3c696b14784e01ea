"""Workload inputs: map files and the fixed query list of each workload.

Everything here is pure Python and does not import pnav, so the inputs are
generated apart from the program under test.  The same --seed gives the same
files and the same query list.

museum  the paper's reference query on the bundled museum map (the seed is
        not used: the workload is one fixed query).
grid    GRID_MAPS random occupancy grids, one plan query each.  The obstacle
        layouts come from a fixed pool (pool seeds 0, 1, 2, ...); --seed draws
        each map's orientation, one of the four symmetries of a rectangle,
        with the start pose and goal transformed alike.  A symmetry leaves the
        set of Pareto cost vectors unchanged, so every seed asks for the same
        amount of work; drawing whole new layouts per seed does not, because
        front sizes and query times differ from map to map several-fold.
rrt     best-of-100 RRT on the museum map from RRT_QUERIES base seeds drawn
        from --seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("museum", "grid", "rrt")

MUSEUM_MAP = Path("src") / "pnav" / "data" / "museum.json"

# grid maps: 60 x 44 cells at 0.5 m, walled border, ~6% interior obstacles
GRID_W, GRID_H, GRID_RES, GRID_P = 60, 44, 0.5, 0.06
GRID_DELTA, GRID_RHO = 1.0, 0.3
GRID_NX, GRID_NY = GRID_W // 2, GRID_H // 2   # lattice positions: delta = 2 cells
GRID_MAPS = 5
GRID_START = (2, 2)          # lattice position the start is placed nearest to
GRID_GOAL = (27, 19)         # lattice position the goal is placed nearest to
GRID_START_HEADING = 45      # facing the goal's quadrant

RRT_QUERIES = 5

# heading images under the four symmetries of the rectangle
_ORIENTATIONS = ("identity", "flip_x", "flip_y", "rotate_180")


def _oriented_heading(heading: int, orientation: str) -> int:
    return {"identity": heading, "flip_x": 180 - heading,
            "flip_y": -heading, "rotate_180": heading + 180}[orientation] % 360


def random_grid(pool_seed: int) -> list[list[bool]]:
    """Occupancy [row][col], row 0 at the bottom; True marks an obstacle."""
    rng = random.Random(pool_seed)
    return [[r in (0, GRID_H - 1) or c in (0, GRID_W - 1) or rng.random() < GRID_P
             for c in range(GRID_W)] for r in range(GRID_H)]


def _box_free(occ, x0: float, x1: float, y0: float, y1: float) -> bool:
    """True iff every cell meeting the box [x0, x1] x [y0, y1] (in cell
    units) is inside the map and free."""
    c0, c1 = int(x0 // 1), int(x1 // 1)
    r0, r1 = int(y0 // 1), int(y1 // 1)
    if c0 < 0 or r0 < 0 or c1 >= len(occ[0]) or r1 >= len(occ):
        return False
    return not any(occ[r][c] for r in range(r0, r1 + 1) for c in range(c0, c1 + 1))


def flood_fill(occ, start: tuple[int, int]) -> set[tuple[int, int]]:
    """Lattice positions reachable from start by straight one-step moves.

    A move counts only when the rho-inflated bounding box of its segment
    covers no obstacle cell, which is stricter than the planner's exact
    swept-disc test, so every position returned is reachable in the
    planner's lattice too.
    """
    m = GRID_DELTA / GRID_RES           # cells per lattice step
    rho = GRID_RHO / GRID_RES           # footprint radius in cells
    nx, ny = len(occ[0]) // int(m), len(occ) // int(m)

    def centre(p):
        return ((p[0] + 0.5) * m, (p[1] + 0.5) * m)

    def move_ok(a, b):
        (ax, ay), (bx, by) = centre(a), centre(b)
        return _box_free(occ, min(ax, bx) - rho, max(ax, bx) + rho,
                         min(ay, by) - rho, max(ay, by) + rho)

    if not move_ok(start, start):
        return set()
    seen, stack = {start}, [start]
    while stack:
        p = stack.pop()
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                q = (p[0] + dx, p[1] + dy)
                if (q not in seen and 0 <= q[0] < nx and 0 <= q[1] < ny
                        and move_ok(p, q)):
                    seen.add(q)
                    stack.append(q)
    return seen


def _dist(a, b) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _nearest(positions, target):
    return min(positions, key=lambda p: (_dist(p, target), p))


def grid_pool(count: int = GRID_MAPS):
    """The first `count` pool maps whose start and goal the flood fill
    connects, as (pool_seed, occupancy, start, goal) in base orientation."""
    positions = [(x, y) for x in range(GRID_NX) for y in range(GRID_NY)]
    out = []
    pool_seed = 0
    while len(out) < count:
        occ = random_grid(pool_seed)
        pool_seed += 1
        # the start is the position nearest GRID_START that can move at all;
        # the goal is the position of its region nearest GRID_GOAL, and the
        # map is kept only when that goal is within two steps of GRID_GOAL
        for p in sorted(positions, key=lambda p: (_dist(p, GRID_START), p)):
            region = flood_fill(occ, p)
            if len(region) > 1:
                start = p
                break
        goal = _nearest(region, GRID_GOAL)
        if _dist(goal, GRID_GOAL) <= 2:
            out.append((pool_seed - 1, occ, start, goal))
    return out


def _orient(occ, start, goal, orientation):
    fx = orientation in ("flip_x", "rotate_180")
    fy = orientation in ("flip_y", "rotate_180")
    rows = [row[::-1] if fx else list(row) for row in occ]
    if fy:
        rows.reverse()

    def pos(p):
        return (GRID_NX - 1 - p[0] if fx else p[0], GRID_NY - 1 - p[1] if fy else p[1])
    return rows, pos(start), pos(goal)


def _map_doc(occ) -> str:
    rows = ["".join("#" if c else "." for c in row) for row in reversed(occ)]
    return json.dumps({"width": len(occ[0]), "height": len(occ),
                       "resolution": GRID_RES, "origin": [0.0, 0.0],
                       "rows": rows}, indent=1) + "\n"


def _world(p, heading=None) -> str:
    xy = f"{(p[0] + 0.5) * GRID_DELTA},{(p[1] + 0.5) * GRID_DELTA}"
    return xy if heading is None else f"{xy},{heading}"


def make_inputs(workload: str, seed: int, root: Path, indir: Path) -> dict:
    """Write the workload's map files under root / indir and return its plan:
    {"maps": [paths], "queries": [argv, ...]}.

    Paths are relative to root, the directory queries run in.  Each argv
    lacks --out, which the runner appends per query and pass.
    """
    (root / indir).mkdir(parents=True, exist_ok=True)
    if workload in ("museum", "rrt"):
        museum = indir / "museum.json"
        (root / museum).write_bytes((root / MUSEUM_MAP).read_bytes())
        if workload == "museum":
            argv = ["plan", "--map", str(museum), "--start", "3.5,3.5,0",
                    "--goal", "18.5,3.5", "--delta", "1.0", "--rho", "0.3",
                    "--r", "2.0", "--svg"]
            return {"maps": [str(museum)], "queries": [argv]}
        bases = sorted(random.Random(seed).sample(range(1_000_000), RRT_QUERIES))
        queries = [["rrt", "--map", str(museum), "--start", "3.5,3.5",
                    "--goal", "18.5,3.5", "--n", "100", "--seed", str(base),
                    "--rho", "0.3", "--r", "2.0"] for base in bases]
        return {"maps": [str(museum)], "queries": queries}
    if workload != "grid":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    maps, queries = [], []
    for pool_seed, occ, start, goal in grid_pool():
        orientation = _ORIENTATIONS[rng.randrange(len(_ORIENTATIONS))]
        rows, s, g = _orient(occ, start, goal, orientation)
        heading = _oriented_heading(GRID_START_HEADING, orientation)
        path = indir / f"grid_{pool_seed}_{orientation}.json"
        (root / path).write_text(_map_doc(rows))
        maps.append(str(path))
        argv = ["plan", "--map", str(path), "--start", _world(s, heading),
                "--goal", _world(g), "--delta", str(GRID_DELTA),
                "--rho", str(GRID_RHO), "--r", "2.0", "--dt", "0.2"]
        queries.append(argv)
    return {"maps": maps, "queries": queries}
