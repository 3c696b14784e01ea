import json

import numpy as np
import pytest

from pnav.gridmap import RobotModel, WorkspaceMap, load_map


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
