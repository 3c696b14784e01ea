import json

import numpy as np
import pytest

from pnav.gridmap import RobotModel, WorkspaceMap, load_map
from pnav.lattice import AXIS_HEADINGS, HEADINGS, SQRT2


def make_map(rows, resolution=1.0, origin=(0.0, 0.0)):
    """Build a WorkspaceMap from top-first row strings."""
    return load_map(json.dumps({
        "width": len(rows[0]),
        "height": len(rows),
        "resolution": resolution,
        "origin": list(origin),
        "rows": list(rows),
    }))


def dump_map(wmap):
    """The map JSON text of wmap: the inverse of load_map."""
    rows = ["".join("#" if cell else "." for cell in wmap.occupancy[iy])
            for iy in range(wmap.height - 1, -1, -1)]
    return json.dumps({"width": wmap.width, "height": wmap.height,
                       "resolution": wmap.resolution, "origin": list(wmap.origin),
                       "rows": rows}, indent=1)


def former_rows(graph):
    """The rows that build_lattice stored before the graph kept only phi
    and moves: per node id, its (dst id, w1, w2, w3) edges, the 7 rotations
    and then the translation.  The former build's row loop, verbatim but
    for its targets, which it had as the array that is now graph.moves."""
    delta, phis = graph.delta, list(graph.phi.values())
    target = [graph.moves[i:i + 8] for i in range(0, len(graph.moves), 8)]
    step = [delta if h in AXIS_HEADINGS else SQRT2 * delta for h in HEADINGS]
    rows: list[tuple[tuple[int, float, int, float], ...]] = []
    for base, w1, targets in zip(range(0, 8 * len(phis), 8), phis, target):
        # one row entry per heading, shared by the position's 8 rows
        turns = tuple([(base + k, w1, 1, 0.0) for k in range(8)])
        for k, d in enumerate(targets):
            # Type-A: every other heading at this position, ascending
            row = turns[:k] + turns[k + 1:]
            rows.append(row + ((d, phis[d >> 3], 0, step[k]),) if d >= 0 else row)
    return rows


def in_bounds(wmap, ix, iy):
    return 0 <= ix < wmap.width and 0 <= iy < wmap.height


def is_obstacle(wmap, ix, iy):
    """Cell (ix, iy) is an obstacle; out-of-map cells count as obstacles."""
    return not in_bounds(wmap, ix, iy) or bool(wmap.occupancy[iy, ix])


def free_map(width, height, resolution=1.0):
    occ = np.zeros((height, width), dtype=bool)
    return WorkspaceMap(width=width, height=height, resolution=resolution,
                        origin=(0.0, 0.0), occupancy=occ)


@pytest.fixture
def small_model():
    return RobotModel(footprint_radius=0.2, camera_clearance_radius=0.4)


@pytest.fixture
def museum():
    from pnav.fixtures import museum_map, museum_model
    return museum_map(), museum_model()
