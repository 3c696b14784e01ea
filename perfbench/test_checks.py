"""Each benchmark check accepts a hand-made valid output and rejects a
hand-made wrong one."""

import copy
import json
import math

import numpy as np
import pytest

from checks import (Reject, check_front, check_front_minima, check_rrt, check_v,
                    dijkstra_minima, obstruction, parse_map, polyline_length,
                    time_mean_v)

R2 = math.sqrt(2.0)

# straight east, then a diagonal detour with two turns
STRAIGHT = {"cost": {"w1_sum": 0.2, "w2": 0, "w3": 2.0},
            "report": {"V": 0.1, "N": 0, "D": 2.0},
            "nodes": [[0, 0, 0], [1, 0, 0], [2, 0, 0]]}
DETOUR = {"cost": {"w1_sum": 0.1, "w2": 2, "w3": 2 * R2},
          "report": {"V": 0.05, "N": 2, "D": 2 * R2},
          "nodes": [[0, 0, 0], [0, 0, 45], [1, 1, 45], [1, 1, 315], [2, 0, 315]]}
EDGES = {(0, 0, 0): [((1, 0, 0), (0.1, 0, 1.0)), ((0, 0, 45), (0.0, 1, 0.0))],
         (1, 0, 0): [((2, 0, 0), (0.1, 0, 1.0))],
         (0, 0, 45): [((1, 1, 45), (0.05, 0, R2))],
         (1, 1, 45): [((1, 1, 315), (0.05, 1, 0.0))],
         (1, 1, 315): [((2, 0, 315), (0.0, 0, R2))]}


def front(*entries):
    return {"delta": 1.0, "start": [0, 0, 0], "goal": [2, 0],
            "entries": [copy.deepcopy(e) for e in entries]}


def minima():
    return dijkstra_minima(lambda n: EDGES.get(n, []), (0, 0, 0), (2, 0))


def test_valid_front_accepted():
    doc = front(STRAIGHT, DETOUR)
    check_front(doc)
    check_front_minima(doc, minima())


def test_dominated_entry_rejected():
    worse = copy.deepcopy(DETOUR)
    worse["cost"]["w1_sum"] = 0.3      # now STRAIGHT is better in every component
    with pytest.raises(Reject, match="dominates"):
        check_front(front(STRAIGHT, worse))


def test_unsorted_front_rejected():
    with pytest.raises(Reject, match="sorted"):
        check_front(front(DETOUR, STRAIGHT))


def test_step_off_heading_rejected():
    bad = copy.deepcopy(DETOUR)
    bad["nodes"][1] = [1, 1, 0]        # diagonal move while heading east
    with pytest.raises(Reject, match="neither a rotation"):
        check_front(front(STRAIGHT, bad))


def test_miscosted_entry_rejected():
    bad = copy.deepcopy(STRAIGHT)
    bad["cost"]["w3"] = bad["report"]["D"] = 2.5
    with pytest.raises(Reject, match="path costs"):
        check_front(front(bad, DETOUR))


def test_front_missing_shortest_path_rejected():
    doc = front(DETOUR)
    check_front(doc)                   # a lone entry is a well-formed front
    with pytest.raises(Reject, match="w2|w3"):
        check_front_minima(doc, minima())


# -- RRT -----------------------------------------------------------------------


def small_map(obstacles, width=12, height=8, res=0.5):
    rows = [["."] * width for _ in range(height)]
    for ix, iy in obstacles:
        rows[height - 1 - iy][ix] = "#"
    return parse_map(json.dumps({"width": width, "height": height,
                                 "resolution": res, "origin": [0.0, 0.0],
                                 "rows": ["".join(r) for r in rows]}))


def rrt_doc(vertices):
    samples = [{"t": float(i), "x": x, "y": y, "theta_deg": 0.0}
               for i, (x, y) in enumerate(vertices)]
    return {"vertices": [list(v) for v in vertices], "curvature_sign_changes": 0,
            "samples": samples,
            "report": {"D": polyline_length(vertices), "V": 0.1, "N": 0}}


def test_rrt_clear_path_accepted():
    grid = small_map([(5, 6)])         # cell [2.5, 3.0] x [3.0, 3.5]
    verts = [(1.0, 1.0), (3.0, 2.0), (5.0, 1.0)]
    check_rrt(rrt_doc(verts), grid, verts[0], verts[-1], rho=0.3)


def test_rrt_segment_clipping_obstacle_rejected():
    grid = small_map([(5, 3)])         # cell [2.5, 3.0] x [1.5, 2.0]
    clear = [(1.0, 2.4), (5.0, 2.4)]   # passes 0.4 above the cell
    check_rrt(rrt_doc(clear), grid, clear[0], clear[-1], rho=0.3)
    clipping = [(1.0, 2.25), (5.0, 2.25)]  # both ends far off, middle 0.25 above
    with pytest.raises(Reject, match="within"):
        check_rrt(rrt_doc(clipping), grid, clipping[0], clipping[-1], rho=0.3)


# -- V ------------------------------------------------------------------------


def test_v_from_one_sample_too_few_rejected():
    grid = small_map([(x, y) for x in range(7, 12) for y in range(8)])
    ts = [0.0, 0.5, 1.0, 1.5, 1.7]     # short final tick, as to_timed makes
    samples = [{"t": t, "x": 1.0 + 2.0 * t, "y": 2.0, "theta_deg": 0.0} for t in ts]
    v = time_mean_v(samples, grid, r=1.0)
    check_v(samples, v, grid, r=1.0)
    v_short = time_mean_v(samples[:-1], grid, r=1.0)
    with pytest.raises(Reject, match="recomputed"):
        check_v(samples, v_short, grid, r=1.0)


def test_obstruction_matches_pnav_bit_for_bit():
    pnav = pytest.importorskip("pnav")
    grid = small_map([(3, 3), (4, 3), (8, 1), (11, 7)])
    wmap = pnav.load_map(json.dumps({
        "width": 12, "height": 8, "resolution": 0.5, "origin": [0.0, 0.0],
        "rows": ["".join("#" if grid.occ[iy, ix] else "." for ix in range(12))
                 for iy in range(7, -1, -1)]}))
    rng = np.random.default_rng(7)
    xy = np.column_stack([rng.uniform(-0.5, 6.5, 200), rng.uniform(-0.5, 4.5, 200)])
    ours = obstruction(grid, xy, 1.3)
    theirs = [pnav.obstruction_ratio(wmap, tuple(p), 1.3) for p in xy]
    assert list(ours) == theirs
