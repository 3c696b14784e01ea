import copy
import json
import math
import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnav import gridmap
from pnav.fixtures import museum_map
from pnav.gridmap import (DISC_SAMPLES_PER_CELL, MAX_WINDOW_SUBSAMPLES, MapFormatError,
                          RobotModel, WorkspaceMap, _clear_sweeps, _sweeps_free,
                          check_footprint_radius, footprint_free, load_map, obstruction_ratio,
                          obstruction_ratios, swept_footprint_free)
from pnav.validate import finite_number

from conftest import dump_map, free_map, in_bounds, is_obstacle, make_map


class TestLoadMap:
    def test_single_obstacle_cell(self):
        m = make_map(["...", ".#."], resolution=1.0)
        assert m.width == 3 and m.height == 2
        # rows are top-first, so '#' at row 1 col 1 is cell (1, 0)
        assert is_obstacle(m, 1, 0)
        assert sum(m.occupancy.ravel()) == 1

    def test_zero_rows_rejected(self):
        doc = {"width": 3, "height": 2, "resolution": 1.0,
               "origin": [0, 0], "rows": []}
        with pytest.raises(MapFormatError, match="zero rows"):
            load_map(json.dumps(doc))

    @pytest.mark.parametrize("rows,message", [
        ("..", "'rows' must be a list of strings"),
        ({"0": ".."}, "'rows' must be a list of strings"),
        (["..", 7], "'rows[1]' must be a string"),
        ([["#", "."], ".."], "'rows[0]' must be a string"),
    ])
    def test_rows_of_the_wrong_type_rejected(self, rows, message):
        doc = {"width": 2, "height": 2, "resolution": 1.0, "origin": [0, 0], "rows": rows}
        with pytest.raises(MapFormatError, match=re.escape(message)):
            load_map(json.dumps(doc))

    @pytest.mark.parametrize("field,bad", [
        ("resolution", 0.0),
        ("resolution", -0.5),
        ("width", 0),
        ("origin", [1.0]),
        ("width", True),
        ("height", True),
        ("width", 2.0),
        ("resolution", math.nan),
        ("resolution", math.inf),
        ("resolution", True),
        ("origin", [math.nan, 0.0]),
        ("origin", [0.0, -math.inf]),
        ("origin", [False, 0.0]),
    ])
    def test_malformed_header(self, field, bad):
        doc = {"width": 2, "height": 1, "resolution": 1.0,
               "origin": [0, 0], "rows": [".."]}
        doc[field] = bad
        with pytest.raises(MapFormatError, match=field):
            load_map(json.dumps(doc))

    @pytest.mark.parametrize("resolution,origin,field", [
        (math.nan, (0.0, 0.0), "resolution"),
        (math.inf, (0.0, 0.0), "resolution"),
        (1.0, (0.0, math.nan), "origin"),
    ])
    def test_constructor_rejects_non_finite_geometry(self, resolution, origin, field):
        with pytest.raises(ValueError, match=field):
            WorkspaceMap(2, 2, resolution, origin, np.zeros((2, 2), dtype=bool))

    @pytest.mark.parametrize("width,height,field", [
        (True, 1, "width"),
        (1, True, "height"),
        (1.0, 1, "width"),
        (1, 0, "height"),
    ])
    def test_constructor_checks_width_and_height(self, width, height, field):
        # a bool passes as an int, and (1, 1) matches its occupancy's shape
        with pytest.raises(ValueError, match=f"{field} must be a finite integer > 0"):
            WorkspaceMap(width, height, 1.0, (0.0, 0.0), np.zeros((1, 1), dtype=bool))

    def test_collision_tables_of_a_large_map_fit_in_16_mb(self):
        # 1000 x 1000 cells: the framed occupancy (1 byte a cell) and its
        # summed-area table (8 bytes a cell) are about 9 MB
        import tracemalloc
        occ = np.random.default_rng(1000).random((1000, 1000)) < 0.06
        tracemalloc.start()
        try:
            wmap = WorkspaceMap(1000, 1000, 0.5, (0.0, 0.0), occ)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 16 * 2 ** 20
        # the table's last entry counts the obstacles and the 4,004 frame cells
        assert wmap._obstacle_sat[1001, 1001] == occ.sum() + 4004

    def test_row_length_mismatch(self):
        doc = {"width": 3, "height": 2, "resolution": 1.0,
               "origin": [0, 0], "rows": ["...", ".."]}
        with pytest.raises(MapFormatError, match="rows\\[1\\]"):
            load_map(json.dumps(doc))

    @pytest.mark.parametrize("row", [".", 7])
    def test_row_checked_before_the_grid_is_allocated(self, row):
        # a grid of 10**15 cells is past any address space: the bad row must
        # be named before numpy is asked for it
        doc = {"width": 10 ** 15, "height": 1, "resolution": 1.0,
               "origin": [0, 0], "rows": [row]}
        fault = "length" if isinstance(row, str) else "must be a string"
        with pytest.raises(MapFormatError, match=f"'rows\\[0\\]' {fault}"):
            load_map(json.dumps(doc))

    def test_dump_round_trip(self):
        m = make_map(["#..", ".#.", "..#"])
        again = load_map(dump_map(m))
        assert np.array_equal(m.occupancy, again.occupancy)


class TestWorkspaceMapObject:
    """A map copies its occupancy once, compares by identity and pickles."""

    @staticmethod
    def answers(wmap):
        xy = np.array([[0.3, 0.3], [1.2, 2.7], [2.5, 1.5], [3.9, 0.1], [-1.0, 2.0]])
        sweeps = [((0.5, 0.5), (3.5, 0.5)), ((0.6, 2.4), (3.4, 2.6)), ((1.5, 1.5), (1.5, 1.5))]
        return (obstruction_ratios(wmap, xy, 0.9).tolist(),
                [swept_footprint_free(wmap, a, b, 0.3) for a, b in sweeps])

    def test_callers_array_stays_writable_and_apart(self):
        arr = np.zeros((3, 4), dtype=bool)
        arr[1, 2] = True
        wmap = WorkspaceMap(4, 3, 1.0, (0.0, 0.0), arr)
        assert arr.flags.writeable
        arr[:] = True
        assert wmap.occupancy.sum() == 1 and not is_obstacle(wmap, 0, 0)
        assert footprint_free(wmap, (0.5, 0.5), 0.3)
        assert not wmap.occupancy.flags.writeable
        with pytest.raises(ValueError):
            wmap.occupancy[0, 0] = True

    def test_occupancy_is_the_framed_tables_interior(self):
        wmap = make_map(["#..", ".#.", "..#"])
        assert np.shares_memory(wmap.occupancy, wmap.occupancy.base)
        assert np.array_equal(wmap.occupancy.base[1:-1, 1:-1], wmap.occupancy)

    @staticmethod
    def assert_row_views(wmap):
        """_framed_rows and _sat_rows are read-only views of each row of the
        map's two tables, copying nothing."""
        for rows, table in ((wmap._framed_rows, wmap.occupancy.base),
                            (wmap._sat_rows, wmap._obstacle_sat)):
            assert len(rows) == wmap.height + 2
            for j, row in enumerate(rows):
                assert row.readonly and row.ndim == 1
                assert np.shares_memory(np.asarray(row), table)
                assert np.array_equal(np.asarray(row), table[j])
            with pytest.raises(TypeError):
                rows[1][1] = rows[1][1]

    def test_row_views_share_the_tables(self):
        self.assert_row_views(make_map(["#..", ".#.", "..#", "..."]))

    def test_equality_and_hash_by_identity(self):
        m1 = make_map(["#..", "..."])
        m2 = make_map(["#..", "..."])
        assert m1 == m1 and not m1 != m1
        assert m1 != m2 and not m1 == m2
        assert hash(m1) == hash(m1)
        assert len({m1, m2}) == 2 and len({m1, m1}) == 1

    @pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_pickle_and_deepcopy(self, clone):
        wmap = make_map(["..#.", ".#..", "...."], resolution=1.0, origin=(0.0, 0.0))
        other = clone(wmap)
        assert other is not wmap
        assert (other.width, other.height, other.resolution, other.origin) == (
            wmap.width, wmap.height, wmap.resolution, wmap.origin)
        assert np.array_equal(other.occupancy, wmap.occupancy)
        self.assert_row_views(other)  # rebuilt for the clone, on its own tables
        assert not np.shares_memory(np.asarray(other._sat_rows[1]),
                                    np.asarray(wmap._obstacle_sat))
        assert self.answers(other) == self.answers(wmap)


class TestFootprintFree:
    def test_free_region(self):
        m = free_map(5, 5)
        assert footprint_free(m, (2.5, 2.5), 0.4)

    def test_centered_on_obstacle(self):
        m = make_map(["...", ".#.", "..."])
        assert not footprint_free(m, (1.5, 1.5), 0.3)

    def test_half_radius_from_wall(self):
        m = make_map(["..#", "..#", "..#"])
        rho = 0.4
        # center 0.5*rho from the wall face at x=2
        assert not footprint_free(m, (2.0 - 0.5 * rho, 1.5), rho)

    def test_out_of_bounds_is_collision(self):
        m = free_map(3, 3)
        assert not footprint_free(m, (-1.0, 1.5), 0.3)
        assert not footprint_free(m, (0.1, 1.5), 0.3)  # disc pokes out

    def test_antitone_in_rho(self):
        m = make_map(["....", ".#..", "....", "...."])
        rng = random.Random(7)
        for _ in range(200):
            p = (rng.uniform(0, 4), rng.uniform(0, 4))
            r1 = rng.uniform(0.05, 1.0)
            r2 = rng.uniform(r1, 1.2)
            if footprint_free(m, p, r2):
                assert footprint_free(m, p, r1)

    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_non_finite_rho_names_rho(self, rho):
        m = free_map(5, 5)
        with pytest.raises(ValueError, match="rho must be a finite number > 0"):
            footprint_free(m, (2.5, 2.5), rho)
        with pytest.raises(ValueError, match="rho must be a finite number > 0"):
            swept_footprint_free(m, (1.5, 1.5), (2.5, 2.5), rho)

    @pytest.mark.parametrize("position", [(math.nan, 1.0), (3.5, math.nan)])
    def test_nan_position_names_position(self, museum, position):
        wmap, _ = museum
        with pytest.raises(ValueError, match="position must not have a NaN coordinate"):
            footprint_free(wmap, position, 0.3)

    @pytest.mark.parametrize("rho", [1e-170, 5e-324, 2.0 ** -511 * (1 - 2.0 ** -53)])
    def test_rho_whose_square_underflows_rejected(self, rho):
        # rho * rho is 0 or subnormal: 0 < rho^2 could fail for a disc on an
        # obstacle, so the disc at an obstacle's centre would be free
        assert rho * rho < 2.0 ** -1022
        m = make_map(["...", ".#.", "..."])
        for call in (lambda: footprint_free(m, (1.5, 1.5), rho),
                     lambda: swept_footprint_free(m, (0.5, 0.5), (1.5, 1.5), rho),
                     lambda: check_footprint_radius(rho)):
            with pytest.raises(ValueError, match="rho must be a finite number > 0 whose square"):
                call()
        with pytest.raises(ValueError, match="footprint_radius must be a finite number > 0 "
                                             "whose square"):
            RobotModel(footprint_radius=rho, camera_clearance_radius=1.0)

    def test_least_rho_accepted(self):
        rho = 2.0 ** -511
        assert rho * rho == 2.0 ** -1022  # the least normal float
        m = make_map(["...", ".#.", "..."])
        assert check_footprint_radius(rho) == rho
        assert not footprint_free(m, (1.5, 1.5), rho)
        assert not footprint_free(m, (1.0, 1.5), rho)  # on the square's side
        assert footprint_free(m, (0.5, 1.5), rho)
        assert not swept_footprint_free(m, (0.5, 1.5), (2.5, 1.5), rho)

    @pytest.mark.parametrize("p0,p1,name", [
        ((3, 3), (math.nan, math.nan), "p1"),
        ((math.nan, math.nan), (3, 3), "p0"),
        ((3, 3), (3, math.nan), "p1"),
        ((math.nan, 3), (3, 3), "p0"),
        ((math.inf, math.nan), (3, 3), "p0"),
    ], ids=["p1", "p0", "p1-y", "p0-x", "p0-beside-inf"])
    def test_nan_endpoint_names_it_on_either_side(self, museum, p0, p1, name):
        wmap, _ = museum
        with pytest.raises(ValueError, match=f"{name} must not have a NaN coordinate"):
            swept_footprint_free(wmap, p0, p1, 0.3)
        with pytest.raises(ValueError, match=f"{name} must not have a NaN coordinate"):
            _sweeps_free(wmap, np.array([p0], dtype=float), np.array([p1], dtype=float), 0.3)

    @pytest.mark.parametrize("far", [(math.inf, 3), (3, -math.inf), (math.inf, math.inf)])
    def test_infinite_endpoint_lies_outside_the_map(self, museum, far):
        wmap, _ = museum
        for p0, p1 in (((3, 3), far), (far, (3, 3))):
            assert not swept_footprint_free(wmap, p0, p1, 0.3)
            assert _sweeps_free(wmap, np.array([p0], dtype=float),
                                np.array([p1], dtype=float), 0.3) == [False]


# The two former collision tests, kept verbatim (renamed) as oracles.  The
# standing test compared d^2 < rho^2, the swept one hypot(d) < rho.

def _former_footprint_free(wmap: WorkspaceMap, position: tuple[float, float], rho: float) -> bool:
    """True iff a disc of radius rho at position overlaps no obstacle cell.

    Conservative cell-overlap test: any obstacle (or out-of-bounds) cell whose
    square strictly intersects the open disc makes the placement invalid.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    x, y = position
    res = wmap.resolution
    ox, oy = wmap.origin
    # Disc must lie within map bounds (touching the border is allowed).
    xmin, ymin, xmax, ymax = wmap.world_bounds
    if x - rho < xmin or y - rho < ymin or x + rho > xmax or y + rho > ymax:
        return False

    ix0 = int(math.floor((x - rho - ox) / res))
    ix1 = int(math.floor((x + rho - ox) / res))
    iy0 = int(math.floor((y - rho - oy) / res))
    iy1 = int(math.floor((y + rho - oy) / res))
    for iy in range(iy0, iy1 + 1):
        for ix in range(ix0, ix1 + 1):
            if not is_obstacle(wmap, ix, iy):
                continue
            # closest point of the cell square to the disc center
            cx0, cy0 = ox + ix * res, oy + iy * res
            dx = x - min(max(x, cx0), cx0 + res)
            dy = y - min(max(y, cy0), cy0 + res)
            if dx * dx + dy * dy < rho * rho:
                return False
    return True


def _dist_point_segment(px, py, ax, ay, bx, by):
    vx, vy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    vv = vx * vx + vy * vy
    t = 0.0 if vv == 0.0 else min(max((wx * vx + wy * vy) / vv, 0.0), 1.0)
    dx, dy = px - (ax + t * vx), py - (ay + t * vy)
    return math.hypot(dx, dy)


def _segment_box_distance(p0, p1, x0, y0, x1, y1):
    """Exact distance between a segment and an axis-aligned box (0 if they touch)."""
    # segment endpoint inside the box
    for (px, py) in (p0, p1):
        if x0 <= px <= x1 and y0 <= py <= y1:
            return 0.0
    corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    best = math.inf
    ax, ay = p0
    bx, by = p1
    dxs, dys = bx - ax, by - ay
    for i in range(4):
        cx0, cy0 = corners[i]
        cx1, cy1 = corners[(i + 1) % 4]
        # segment-segment: check crossing, else closest endpoint distances
        ex, ey = cx1 - cx0, cy1 - cy0
        denom = dxs * ey - dys * ex
        if denom != 0.0:
            t = ((cx0 - ax) * ey - (cy0 - ay) * ex) / denom
            u = ((cx0 - ax) * dys - (cy0 - ay) * dxs) / denom
            if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
                return 0.0
        best = min(best,
                   _dist_point_segment(cx0, cy0, ax, ay, bx, by),
                   _dist_point_segment(cx1, cy1, ax, ay, bx, by),
                   _dist_point_segment(ax, ay, cx0, cy0, cx1, cy1),
                   _dist_point_segment(bx, by, cx0, cy0, cx1, cy1))
    return best


def _former_swept_footprint_free(wmap: WorkspaceMap, p0: tuple[float, float],
                         p1: tuple[float, float], rho: float) -> bool:
    """True iff the disc of radius rho stays obstacle-free while translating
    from p0 to p1.

    Exact continuous test: collision iff some obstacle cell square lies
    strictly closer than rho to the segment; the rho-inflated segment
    bounding box must also stay inside the map.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    res = wmap.resolution
    ox, oy = wmap.origin
    xmin, ymin, xmax, ymax = wmap.world_bounds
    lo_x, hi_x = min(p0[0], p1[0]), max(p0[0], p1[0])
    lo_y, hi_y = min(p0[1], p1[1]), max(p0[1], p1[1])
    if lo_x - rho < xmin or lo_y - rho < ymin or hi_x + rho > xmax or hi_y + rho > ymax:
        return False
    ix0 = int(math.floor((lo_x - rho - ox) / res))
    ix1 = int(math.floor((hi_x + rho - ox) / res))
    iy0 = int(math.floor((lo_y - rho - oy) / res))
    iy1 = int(math.floor((hi_y + rho - oy) / res))
    for iy in range(iy0, iy1 + 1):
        for ix in range(ix0, ix1 + 1):
            if not is_obstacle(wmap, ix, iy):
                continue
            cx0, cy0 = ox + ix * res, oy + iy * res
            if _segment_box_distance(p0, p1, cx0, cy0, cx0 + res, cy0 + res) < rho:
                return False
    return True


class TestOneCollisionTest:
    """footprint_free is the zero-length sweep; both agree with the former
    separate implementations everywhere except at exact tangency."""

    RHOS = (0.2, 0.25, 0.3, math.sqrt(0.125), 0.5)

    @staticmethod
    def random_map():
        occ = np.random.default_rng(17).random((12, 16)) < 0.12
        return WorkspaceMap(16, 12, 0.5, (-1.75, 0.5), occ)

    @pytest.mark.parametrize("rho", RHOS)
    def test_footprint_equals_former_on_aligned_grid(self, rho):
        wmap = self.random_map()
        ox, oy = wmap.origin
        for i in range(-4, 16 * 4 + 5):
            for j in range(-4, 12 * 4 + 5):
                p = (ox + 0.125 * i, oy + 0.125 * j)
                assert footprint_free(wmap, p, rho) == _former_footprint_free(wmap, p, rho)

    @pytest.mark.parametrize("rho", RHOS)
    def test_footprint_equals_former_at_random_points(self, rho):
        wmap = self.random_map()
        xmin, ymin, xmax, ymax = wmap.world_bounds
        rng = np.random.default_rng(int(rho * 1000))
        for p in zip(rng.uniform(xmin - 1, xmax + 1, 2000).tolist(),
                     rng.uniform(ymin - 1, ymax + 1, 2000).tolist()):
            assert footprint_free(wmap, p, rho) == _former_footprint_free(wmap, p, rho)

    def test_swept_equals_former_on_random_segments(self):
        wmap = self.random_map()
        xmin, ymin, xmax, ymax = wmap.world_bounds
        rng = np.random.default_rng(23)
        n = 20_000
        a = np.column_stack([rng.uniform(xmin - 0.5, xmax + 0.5, n),
                             rng.uniform(ymin - 0.5, ymax + 0.5, n)])
        b = a + rng.uniform(-1.0, 1.0, (n, 2))
        b[::10] = a[::10]  # zero-length sweeps
        rhos = rng.choice(self.RHOS + (0.05, 0.1), n)
        collide = 0
        for p0, p1, rho in zip(a.tolist(), b.tolist(), rhos.tolist()):
            p0, p1 = tuple(p0), tuple(p1)
            got = swept_footprint_free(wmap, p0, p1, rho)
            assert got == _former_swept_footprint_free(wmap, p0, p1, rho)
            collide += not got
        assert 0.2 * n < collide < 0.8 * n  # both outcomes well covered

    def test_corner_tangency_decided_as_for_a_standing_disc(self):
        # On 0.5 m cells a node at a cell centre lies sqrt(1/8) from the
        # nearest corner of a diagonal-neighbour cell.  d^2 = 1/8 is exact and
        # rho^2 rounds up, so d^2 < rho^2: a collision, standing or sweeping.
        rho = math.sqrt(0.125)
        occ = np.zeros((6, 6), dtype=bool)
        occ[2, 3] = True  # the cell [1.5, 2] x [1, 1.5]
        wmap = WorkspaceMap(6, 6, 0.5, (0.0, 0.0), occ)
        p0 = (1.25, 1.75)  # centre of cell (2, 3): tangent at corner (1.5, 1.5)
        p1 = (0.75, 2.25)  # centre of cell (1, 4), one diagonal step away
        assert rho * rho > 0.125
        for p in (p0, p1):
            assert swept_footprint_free(wmap, p, p, rho) == footprint_free(wmap, p, rho)
        assert not footprint_free(wmap, p0, rho)
        assert footprint_free(wmap, p1, rho)
        assert swept_footprint_free(wmap, p0, p1, rho) == footprint_free(wmap, p0, rho)


# The squared-distance functions of the one-pass narrow phase, kept verbatim
# for the oracle below, so that it shares no code with the two-pass test.

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


def _exact_swept_footprint_free(wmap: WorkspaceMap, p0: tuple[float, float],
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
    rho2 = rho * rho
    for iy in range(iy0, iy1 + 1):
        for ix in range(ix0, ix1 + 1):
            if not is_obstacle(wmap, ix, iy):
                continue
            cx0, cy0 = ox + ix * res, oy + iy * res
            if _dist2_segment_square(ax, ay, bx, by, cx0, cy0, cx0 + res, cy0 + res) < rho2:
                return False
    return True


class TestBroadPhase:
    """swept_footprint_free with its summed-area broad phase against the
    exact scan of every window cell it replaced, kept above verbatim
    (renamed) as the oracle.  The broad phase only skips windows that hold
    no obstacle cell, so every decision must be equal (==)."""

    @staticmethod
    def collisions(wmap, segments, rho):
        """Compare on every segment; the number that collide."""
        collide = 0
        for p0, p1 in segments:
            got = swept_footprint_free(wmap, p0, p1, rho)
            assert got == _exact_swept_footprint_free(wmap, p0, p1, rho), (p0, p1, rho)
            collide += not got
        return collide

    @staticmethod
    def window(wmap, p0, p1, rho):
        """The cells ix0..ix1, iy0..iy1 that swept_footprint_free examines."""
        ox, oy = wmap.origin
        res = wmap.resolution
        lo_x, hi_x = sorted((p0[0], p1[0]))
        lo_y, hi_y = sorted((p0[1], p1[1]))
        return (math.floor((lo_x - rho - ox) / res), math.floor((hi_x + rho - ox) / res),
                math.floor((lo_y - rho - oy) / res), math.floor((hi_y + rho - oy) / res))

    @pytest.mark.parametrize("rho", [0.25, 0.375, 0.5, 0.3])
    def test_inflated_box_touching_each_border(self, rho):
        # dyadic origin, cells and coordinates: for rho 0.25, 0.375 and 0.5
        # the inflated box meets the border exactly, and a box touching the
        # right or top border takes in the frame column or row
        occ = np.random.default_rng(11).random((12, 16)) < 0.2
        wmap = WorkspaceMap(16, 12, 0.5, (-1.25, 0.75), occ)
        xmin, ymin, xmax, ymax = wmap.world_bounds
        rng = np.random.default_rng(int(rho * 1000))

        def inside(lo, hi):
            """Two coordinates on the 1/8 grid of [lo + rho, hi - rho]."""
            return (lo + rho + (hi - lo - 2 * rho) * rng.integers(0, 9, 2) / 8).tolist()

        segments = []
        for _ in range(300):
            u, v = (rng.integers(0, 9, 2) / 8).tolist()
            tx, sx = inside(xmin, xmax)
            ty, sy = inside(ymin, ymax)
            touching = [((xmin + rho, ty), (xmin + rho + u, sy)),  # left
                        ((xmax - rho, ty), (xmax - rho - u, sy)),  # right
                        ((tx, ymin + rho), (sx, ymin + rho + v)),  # bottom
                        ((tx, ymax - rho), (sx, ymax - rho - v)),  # top
                        ((xmax - rho, ymax - rho), (xmax - rho - u, ymax - rho - v)),
                        ((xmin + rho, ymin + rho), (xmin + rho + u, ymin + rho + v))]
            for p0, p1 in touching:
                segments += [(p0, p1), (p1, p0), (p0, p0)]
        if rho != 0.3:
            assert any(max(a[0], b[0]) + rho == xmax for a, b in segments)
            assert any(max(a[1], b[1]) + rho == ymax for a, b in segments)
        collide = self.collisions(wmap, segments, rho)
        assert 0 < collide < len(segments)

    def test_one_obstacle_in_a_window_corner(self):
        rng = np.random.default_rng(31)
        free = WorkspaceMap(12, 10, 0.5, (0.25, -0.5), np.zeros((10, 12), dtype=bool))
        xmin, ymin, xmax, ymax = free.world_bounds
        collide = cases = 0
        for _ in range(400):
            rho = float(rng.choice([0.2, 0.3, 0.45, 0.7]))
            m = rho + 1e-9
            lo, hi = [xmin + m, ymin + m], [xmax - m, ymax - m]
            p0 = tuple(rng.uniform(lo, hi).tolist())
            p1 = tuple(np.clip(p0 + rng.uniform(-1.0, 1.0, 2), lo, hi).tolist())
            if rng.random() < 0.2:
                p1 = p0
            assert swept_footprint_free(free, p0, p1, rho)
            ix0, ix1, iy0, iy1 = self.window(free, p0, p1, rho)
            for ix, iy in {(ix0, iy0), (ix1, iy0), (ix0, iy1), (ix1, iy1)}:
                if not in_bounds(free, ix, iy):
                    continue
                occ = np.zeros((10, 12), dtype=bool)
                occ[iy, ix] = True
                wmap = WorkspaceMap(12, 10, 0.5, (0.25, -0.5), occ)
                collide += self.collisions(wmap, [(p0, p1)], rho)
                cases += 1
        assert 0.1 * cases < collide < 0.9 * cases

    def test_offset_origin_and_resolution_0_3(self):
        occ = np.random.default_rng(5).random((14, 11)) < 0.1
        wmap = WorkspaceMap(11, 14, 0.3, (-2.1, 1.7), occ)
        xmin, ymin, xmax, ymax = wmap.world_bounds
        rng = np.random.default_rng(6)
        n = 6000
        a = np.column_stack([rng.uniform(xmin - 0.3, xmax + 0.3, n),
                             rng.uniform(ymin - 0.3, ymax + 0.3, n)])
        b = a + rng.uniform(-0.9, 0.9, (n, 2))
        b[::7] = a[::7]  # zero-length sweeps
        rhos = rng.choice([0.1, 0.15, 0.2, 0.3, 0.45], n)
        collide = 0
        for p0, p1, rho in zip(a.tolist(), b.tolist(), rhos.tolist()):
            collide += self.collisions(wmap, [(tuple(p0), tuple(p1))], rho)
        assert 0.2 * n < collide < 0.8 * n

    @pytest.mark.parametrize("rho", [0.125, 0.25, math.sqrt(0.125), 0.3, 0.5])
    def test_zero_length_sweeps_on_an_aligned_grid(self, rho):
        occ = np.random.default_rng(9).random((9, 10)) < 0.15
        wmap = WorkspaceMap(10, 9, 0.5, (1.5, -2.0), occ)
        ox, oy = wmap.origin
        points = [(ox + 0.125 * i, oy + 0.125 * j)
                  for i in range(-2, 43) for j in range(-2, 39)]
        collide = self.collisions(wmap, [(p, p) for p in points], rho)
        assert 0 < collide < len(points)
        for p in points[::5]:
            assert footprint_free(wmap, p, rho) == swept_footprint_free(wmap, p, p, rho)

    @pytest.mark.parametrize("scale", [2 ** 46, -2 ** 48, 2 ** 49 - 64])
    def test_far_origin_within_the_cell_bound(self, scale):
        # |origin| / resolution + cells close to the 2**50 bound: the windows
        # still stay inside the frame
        res = 0.3
        occ = np.random.default_rng(3).random((6, 8)) < 0.2
        wmap = WorkspaceMap(8, 6, res, (scale * res, -scale * res), occ)
        xmin, ymin, xmax, ymax = wmap.world_bounds
        rng = np.random.default_rng(4)
        for rho in (0.3, 0.5, 0.9):
            xy = rng.uniform([xmin, ymin], [xmax, ymax], (100, 2)).tolist()
            self.collisions(wmap, [((xmax - rho, y), (x, ymax - rho)) for x, y in xy], rho)
            self.collisions(wmap, [((x, y), (x, y)) for x, y in xy], rho)

    @pytest.mark.parametrize("origin", [(2.0 ** 49, 0.0), (0.0, -2.0 ** 49)])
    def test_origin_past_the_cell_bound_rejected(self, origin):
        with pytest.raises(ValueError, match=r"origin\[\d\] .* past 2\*\*50 cells"):
            WorkspaceMap(4, 4, 0.5, origin, np.zeros((4, 4), dtype=bool))

    @pytest.mark.parametrize("width, height, origin, named", [
        (7, 3, (0.0, 0.0), "origin[0] + width * resolution"),
        (3, 7, (0.0, 0.0), "origin[1] + height * resolution"),
        (1, 1, (1.79e308, 0.0), "origin[0] + width * resolution"),
    ])
    def test_world_bounds_past_the_float_range_rejected(self, width, height, origin, named):
        # every field is finite, but a bound origin + cells * resolution is not
        occ = np.zeros((height, width), dtype=bool)
        with pytest.raises(ValueError, match=re.escape(f"{named} is not a finite number")):
            WorkspaceMap(width, height, 5e307, origin, occ)
        # near the float range, finite bounds are kept
        assert WorkspaceMap(1, 1, 5e307, (0.0, -1.79e308), occ[:1, :1]).world_bounds[3] < 0

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.floats(-3.0, 2.0), st.floats(1.0, 6.0)),
           st.tuples(st.floats(-3.0, 2.0), st.floats(1.0, 6.0)),
           st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.6]))
    def test_swept_free_implies_both_endpoints_free(self, p0, p1, rho):
        occ = np.random.default_rng(13).random((15, 12)) < 0.1
        wmap = WorkspaceMap(12, 15, 0.3, (-2.4, 1.5), occ)
        if swept_footprint_free(wmap, p0, p1, rho):
            assert footprint_free(wmap, p0, rho) and footprint_free(wmap, p1, rho)


# (width, height, resolution, origin, occupancy seed) of TestBroadPhase's maps
BROAD_PHASE_MAPS = [(16, 12, 0.5, (-1.25, 0.75), 11), (12, 10, 0.5, (0.25, -0.5), 31),
                    (11, 14, 0.3, (-2.1, 1.7), 5), (10, 9, 0.5, (1.5, -2.0), 9),
                    (12, 15, 0.3, (-2.4, 1.5), 13)]


@st.composite
def sweep_batches(draw):
    """A map of BROAD_PHASE_MAPS, a rho, dyadic or not, and 40 sweeps, a
    quarter of them standing, whose coordinates lie where the inflated box
    touches a border, on the 1/8 grid, or anywhere near the map."""
    w, h, res, origin, seed = draw(st.sampled_from(BROAD_PHASE_MAPS))
    wmap = WorkspaceMap(w, h, res, origin, np.random.default_rng(seed).random((h, w)) < 0.15)
    rho = draw(st.sampled_from([0.125, 0.25, 0.375, 0.5, 0.3, math.sqrt(0.125)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xmin, ymin, xmax, ymax = wmap.world_bounds
    lo, hi = np.array([xmin, ymin]), np.array([xmax, ymax])
    n = 40
    kind = rng.integers(0, 3, (2, n, 2))
    touching = np.where(rng.random((2, n, 2)) < 0.5, lo + rho, hi - rho)
    grid = lo + rng.integers(-8, 8 * int((hi - lo).max()) + 8, (2, n, 2)) / 8
    near = rng.uniform(lo - 1.0, hi + 1.0, (2, n, 2))
    a, b = np.choose(kind, [touching, grid, near])
    b[: n // 4] = a[: n // 4]
    return wmap, list(zip(map(tuple, a.tolist()), map(tuple, b.tolist()))), rho


class TestBatchBroadPhase:
    """_clear_sweeps, the batch broad phase of the lattice build, gives the
    scalar's own bounds-and-window answer for every sweep, and clears only
    sweeps that swept_footprint_free finds free."""

    @staticmethod
    def scalar_clears(wmap, p0, p1, rho):
        """swept_footprint_free's bounds check and window count, written out."""
        xmin, ymin, xmax, ymax = wmap.world_bounds
        if (min(p0[0], p1[0]) - rho < xmin or min(p0[1], p1[1]) - rho < ymin
                or max(p0[0], p1[0]) + rho > xmax or max(p0[1], p1[1]) + rho > ymax):
            return False
        ix0, ix1, iy0, iy1 = TestBroadPhase.window(wmap, p0, p1, rho)
        sat = wmap._obstacle_sat
        return sat[iy1 + 1, ix1 + 1] - sat[iy1 + 1, ix0] - sat[iy0, ix1 + 1] + sat[iy0, ix0] == 0

    def assert_agrees(self, wmap, sweeps, rho):
        """Compare on every sweep; the number the batch clears."""
        a = np.array([p0 for p0, _ in sweeps], dtype=float).reshape(-1, 2)
        b = np.array([p1 for _, p1 in sweeps], dtype=float).reshape(-1, 2)
        clear = _clear_sweeps(wmap, a, b, rho)[0].tolist()
        exact = [swept_footprint_free(wmap, p0, p1, rho) for p0, p1 in sweeps]
        for (p0, p1), got, free in zip(sweeps, clear, exact):
            assert got == self.scalar_clears(wmap, p0, p1, rho), (p0, p1, rho)
            assert free or not got, (p0, p1, rho)
        assert _sweeps_free(wmap, a, b, rho) == exact
        return sum(clear)

    @settings(max_examples=300, deadline=None)
    @given(sweep_batches())
    def test_agrees_with_the_scalar(self, batch):
        self.assert_agrees(*batch)

    @pytest.mark.parametrize("rho", [0.25, 0.375, 0.5])
    def test_boxes_touching_each_border(self, rho):
        # dyadic: the inflated box meets the border exactly
        w, h, res, origin, seed = BROAD_PHASE_MAPS[0]
        wmap = WorkspaceMap(w, h, res, origin, np.random.default_rng(seed).random((h, w)) < 0.05)
        xmin, ymin, xmax, ymax = wmap.world_bounds
        xs = (xmin + rho + np.arange(int((xmax - xmin) * 8) + 1) / 8).tolist()
        ys = (ymin + rho + np.arange(int((ymax - ymin) * 8) + 1) / 8).tolist()
        sweeps = ([((x, ymin + rho), (x, ymin + rho)) for x in xs]
                  + [((x, ymax - rho), (x - 0.5, ymax - rho)) for x in xs]
                  + [((xmin + rho, y), (xmin + rho + 0.25, y)) for y in ys]
                  + [((xmax - rho, y), (xmax - rho, y)) for y in ys])
        clear = self.assert_agrees(wmap, sweeps, rho)
        assert 0 < clear < len(sweeps)

    def test_empty_batch(self):
        wmap = WorkspaceMap(3, 2, 0.5, (0.0, 0.0), np.zeros((2, 3), dtype=bool))
        empty = np.empty((0, 2))
        assert _clear_sweeps(wmap, empty, empty, 0.2)[0].shape == (0,)
        assert _sweeps_free(wmap, empty, empty, 0.2) == []

    @pytest.mark.parametrize("rho", [0.0, -0.1, math.nan, math.inf, 1e-170, 5e-324])
    def test_bad_rho_rejected_as_by_the_scalar(self, rho):
        wmap = WorkspaceMap(3, 2, 0.5, (0.0, 0.0), np.zeros((2, 3), dtype=bool))
        with pytest.raises(ValueError, match="rho must be a finite number > 0"):
            _clear_sweeps(wmap, np.empty((0, 2)), np.empty((0, 2)), rho)
        with pytest.raises(ValueError, match="rho must be a finite number > 0"):
            swept_footprint_free(wmap, (0.75, 0.5), (0.75, 0.5), rho)


class TestBatchNarrowPhase:
    """_sweeps_free's batch narrow phase decides as swept_footprint_free and
    as the one-pass oracle, _exact_swept_footprint_free, on the cases the
    random batches seldom draw."""

    @staticmethod
    def decide(wmap, sweeps, rho):
        """The batch's answers, after comparing them with both scalars."""
        a = np.array([p0 for p0, _ in sweeps], dtype=float).reshape(-1, 2)
        b = np.array([p1 for _, p1 in sweeps], dtype=float).reshape(-1, 2)
        got = _sweeps_free(wmap, a, b, rho)
        assert got == [swept_footprint_free(wmap, p0, p1, rho) for p0, p1 in sweeps]
        assert got == [_exact_swept_footprint_free(wmap, p0, p1, rho) for p0, p1 in sweeps]
        return got

    def test_tangent_to_a_corner_collides(self):
        # corner (2, 2) of cell (2, 2); rho^2 rounds up past d^2 = 1/8
        wmap, rho = cells_map(5, 5, [(2, 2)]), math.sqrt(0.125)
        sweeps = [((1.75, 1.75), (1.75, 1.75)),  # standing: b's term
                  ((1.25, 2.25), (2.25, 1.25)),  # the corner's term, t = 0.5
                  ((1.75, 1.75), (1.25, 1.25)),  # a's term
                  ((1.75 - 2.0 ** -20, 1.75), (1.75 - 2.0 ** -20, 1.75))]
        assert self.decide(wmap, sweeps, rho) == [False, False, False, True]

    def test_axis_parallel_sweeps(self):
        # cell (4, 3) is [4, 5] x [3, 4]: each sweep has p == 0 on two sides,
        # with q < 0 where it runs outside one of them and q >= 0 where not
        wmap, rho = cells_map(8, 7, [(4, 3)]), 0.25
        cases = [(((1.5, 3.5), (6.5, 3.5)), False),  # through the square
                 (((1.5, 3.5), (3.5, 3.5)), True),  # stops 0.5 before it
                 (((6.5, 3.5), (5.25, 3.5)), True),  # stops tangent to it, from the right
                 (((1.5, 3.0), (6.5, 3.0)), False),  # along its side, q == 0
                 (((1.5, 2.75), (6.5, 2.75)), True),  # below, tangent: d^2 == rho^2
                 (((6.5, 2.8), (1.5, 2.8)), False),  # below, 0.2 away
                 (((4.5, 0.5), (4.5, 6.5)), False),
                 (((3.75, 6.5), (3.75, 0.5)), True),  # left of it, tangent
                 (((5.2, 0.5), (5.2, 6.5)), False),  # right of it, 0.2 away
                 (((4.5, 0.5), (4.5, 2.5)), True)]
        sweeps, expected = zip(*cases)
        assert self.decide(wmap, list(sweeps), rho) == list(expected)

    @pytest.mark.parametrize("rho", [0.25, 0.5, 1.0, math.sqrt(0.5)])
    def test_zero_length_sweeps_on_cell_corners(self, rho):
        # vv == 0: t is 0 where the division is masked
        wmap = cells_map(9, 8, [(4, 3), (1, 6), (6, 6), (7, 1)])
        corners = [((x, y), (x, y)) for x in range(10) for y in range(9)]
        got = self.decide(wmap, corners, rho)
        assert 0 < sum(got) < len(got)

    def test_windows_of_many_sizes_in_one_batch(self, monkeypatch):
        # standing discs, lattice steps and long diagonals interleaved, so
        # each sweep's cells follow from its own window width; with a chunk
        # of 7 pairs, windows straddle chunks too
        occ = np.random.default_rng(17).random((20, 24)) < 0.12
        wmap = WorkspaceMap(24, 20, 0.5, (-1.25, 0.75), occ)
        xmin, ymin, xmax, ymax = wmap.world_bounds
        lo, hi = np.array([xmin, ymin]) + 0.5, np.array([xmax, ymax]) - 0.5
        rng = np.random.default_rng(18)
        a = rng.uniform(lo, hi, (300, 2))
        step = rng.choice([0.0, 0.5, 1.0, 3.0, 7.5], (300, 1)) * rng.choice([-1, 1], (300, 2))
        b = np.clip(a + step, lo, hi)
        sweeps = list(zip(map(tuple, a.tolist()), map(tuple, b.tolist())))
        rho = 0.3
        got = self.decide(wmap, sweeps, rho)
        standing = [free for (p0, p1), free in zip(sweeps, got) if p0 == p1]
        moving = [free for (p0, p1), free in zip(sweeps, got) if p0 != p1]
        assert 0 < sum(standing) < len(standing) and 0 < sum(moving) < len(moving)
        monkeypatch.setattr(gridmap, "_CHUNK_WINDOW_CELLS", 7)
        assert self.decide(wmap, sweeps, rho) == got

    def test_large_rho_on_a_fine_map_spans_chunks(self):
        occ = np.random.default_rng(19).random((120, 140)) < 0.0005
        wmap = WorkspaceMap(140, 120, 0.05, (0.0, 0.0), occ)
        rho = 1.2  # a window of 49 x 49 cells standing
        rng = np.random.default_rng(20)
        a = rng.uniform([1.25, 1.25], [5.75, 4.75], (60, 2))
        b = np.clip(a + rng.normal(0.0, 0.5, (60, 2)), 1.25, [5.75, 4.75])
        b[::4] = a[::4]
        sweeps = list(zip(map(tuple, a.tolist()), map(tuple, b.tolist())))
        lo, hi = np.minimum(a, b) - rho, np.maximum(a, b) + rho
        cells = np.prod(np.floor(hi / 0.05) - np.floor(lo / 0.05) + 1, axis=1).sum()
        assert cells > 10 * gridmap._CHUNK_WINDOW_CELLS
        got = self.decide(wmap, sweeps, rho)
        clear = _clear_sweeps(wmap, a, b, rho)[0]
        narrow = [free for free, cleared in zip(got, clear) if not cleared]
        assert 0 < sum(narrow) < len(narrow) - 20

    def test_working_memory_does_not_grow_with_the_window(self):
        # 1,000,000 window cells a sweep: unchunked, each float buffer of the
        # narrow phase would take 8 MB a sweep
        occ = np.zeros((1000, 1000), dtype=bool)
        occ[::97, ::89] = True
        wmap = WorkspaceMap(1000, 1000, 0.02, (0.0, 0.0), occ)
        a = np.array([[10.0, 10.0], [10.0, 10.0], [9.0, 11.0]])
        b = np.array([[10.0, 10.0], [10.01, 9.99], [11.0, 9.0]])
        tracemalloc.start()
        try:
            got = _sweeps_free(wmap, a, b, 9.99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [False, False, False]
        assert peak < 4 * 2 ** 20


def cells_map(width, height, cells):
    """A map of 1 m cells at the origin whose obstacles are the (ix, iy) cells."""
    occ = np.zeros((height, width), dtype=bool)
    for ix, iy in cells:
        occ[iy, ix] = True
    return WorkspaceMap(width, height, 1.0, (0.0, 0.0), occ)


class TestTwoPassNarrowPhase:
    """The narrow phase tests the end disc at p1 over the whole window
    first, then the rest of the segment test; it decides as the one-pass
    oracle, _exact_swept_footprint_free, on every case."""

    @staticmethod
    def decide(wmap, p0, p1, rho):
        got = swept_footprint_free(wmap, p0, p1, rho)
        assert got == _exact_swept_footprint_free(wmap, p0, p1, rho), (p0, p1, rho)
        return got

    def test_end_disc_hit_after_a_cell_that_does_not_collide(self):
        # the window is cells 0..2 x 0..2; (2, 0) comes first in scan order
        # and lies 0.41 m from the segment, (2, 2) lies 0.25 m from p1
        p0, p1, rho = (0.5, 0.5), (2.4, 1.75), 0.3
        assert self.decide(cells_map(4, 4, [(2, 0)]), p0, p1, rho)
        assert not self.decide(cells_map(4, 4, [(2, 2)]), p0, p1, rho)
        assert not self.decide(cells_map(4, 4, [(2, 0), (2, 2)]), p0, p1, rho)

    @pytest.mark.parametrize("p0", [(0.5, 1.5), (1.75, 3.25), (1.75, 1.5)],
                             ids=["approaching", "grazing", "standing"])
    def test_tangent_end_disc_is_free(self, p0):
        # cell (2, 1) is [2, 3] x [1, 2]: at p1 the disc touches its side,
        # d^2 == rho^2 == 1/16 exactly
        wmap, rho = cells_map(4, 4, [(2, 1)]), 0.25
        assert self.decide(wmap, p0, (1.75, 1.5), rho)
        assert not self.decide(wmap, p0, (1.75 + 2.0 ** -20, 1.5), rho)
        assert footprint_free(wmap, (1.75, 1.5), rho)

    @pytest.mark.parametrize("p0,p1,rho", [
        ((0.5, 2.9), (2.9, 0.5), 0.5),  # passes corner (2, 2) at 0.42 m
        ((0.3, 1.5), (2.7, 1.5), 0.25),  # crosses the square
    ], ids=["corner", "crossing"])
    def test_free_end_discs_but_a_colliding_body(self, p0, p1, rho):
        wmap = cells_map(4, 4, [(1, 1)])
        for p in (p0, p1):
            assert _dist2_point_square(*p, 1.0, 1.0, 2.0, 2.0) >= rho * rho
            assert self.decide(wmap, p, p, rho)
        assert not self.decide(wmap, p0, p1, rho)
        assert not self.decide(wmap, p1, p0, rho)

    def test_rrt_like_sweeps_on_the_museum_map(self):
        # steps of 1 m from points anywhere on the map, as rrt_plan makes them
        wmap, rho = museum_map(), 0.3
        xmin, ymin, xmax, ymax = wmap.world_bounds
        rng = np.random.default_rng(2023)
        n = 2000
        a = rng.uniform([xmin, ymin], [xmax, ymax], (n, 2))
        angle = rng.uniform(0.0, 2.0 * math.pi, n)
        b = a + np.column_stack([np.cos(angle), np.sin(angle)])
        kinds = {"free": 0, "end disc": 0, "body only": 0}
        for p0, p1 in zip(map(tuple, a.tolist()), map(tuple, b.tolist())):
            if self.decide(wmap, p0, p1, rho):
                kinds["free"] += 1
            elif _exact_swept_footprint_free(wmap, p1, p1, rho):
                kinds["body only"] += 1
            else:
                kinds["end disc"] += 1
        assert min(kinds.values()) >= 50, kinds


class TestObstructionRatio:
    def test_free_space_zero(self):
        m = free_map(10, 10)
        assert obstruction_ratio(m, (5.0, 5.0), 2.0) == 0.0

    def test_half_plane_wall(self):
        # right half solid; disc centered on the boundary
        rows = ["." * 24 + "#" * 24] * 48
        m = make_map(rows)
        r = 16.0
        phi = obstruction_ratio(m, (24.0, 24.0), r)
        assert abs(phi - 0.5) <= 2.0 / r

    def test_quarter_plane_corner(self):
        rows = []
        for iy_top in range(48):
            iy = 47 - iy_top
            rows.append("".join("#" if (ix >= 24 and iy >= 24) else "."
                                for ix in range(48)))
        m = make_map(rows)
        r = 16.0
        phi = obstruction_ratio(m, (24.0, 24.0), r)
        assert abs(phi - 0.25) <= 2.0 / r

    @staticmethod
    def field(wmap, r):
        """obstruction_ratios at every cell centre, shape (height, width)."""
        ox, oy = wmap.origin
        xs = ox + (np.arange(wmap.width) + 0.5) * wmap.resolution
        ys = oy + (np.arange(wmap.height) + 0.5) * wmap.resolution
        gx, gy = np.meshgrid(xs, ys)
        xy = np.stack([gx.ravel(), gy.ravel()], axis=1)
        return obstruction_ratios(wmap, xy, r).reshape(wmap.height, wmap.width)

    def test_all_obstacle_field(self):
        m = make_map(["##", "##"])
        assert np.all(self.field(m, 0.7) == 1.0)

    def test_all_free_field_interior(self):
        m = free_map(8, 8)
        f = self.field(m, 1.0)
        assert np.all(f[2:-2, 2:-2] == 0.0)

    def test_range(self):
        m = make_map(["#..", ".#.", "..#"])
        rng = random.Random(11)
        for _ in range(300):
            p = (rng.uniform(-1, 4), rng.uniform(-1, 4))
            phi = obstruction_ratio(m, p, rng.uniform(0.1, 3.0))
            assert 0.0 <= phi <= 1.0

    def test_monotone_under_obstacle_insertion(self):
        rng = random.Random(5)
        occ = np.zeros((6, 6), dtype=bool)
        occ[2, 3] = True
        base = WorkspaceMap(6, 6, 1.0, (0.0, 0.0), occ)
        denser = occ.copy()
        denser[4, 1] = denser[0, 0] = True
        more = WorkspaceMap(6, 6, 1.0, (0.0, 0.0), denser)
        for _ in range(200):
            p = (rng.uniform(0, 6), rng.uniform(0, 6))
            r = rng.uniform(0.2, 3.0)
            assert obstruction_ratio(more, p, r) >= obstruction_ratio(base, p, r)

    def test_mirror_symmetry(self):
        m = make_map(["#...", ".#..", "....", "..#."])
        flipped = WorkspaceMap(m.width, m.height, m.resolution, m.origin,
                               np.array(m.occupancy[:, ::-1]))
        f1 = self.field(m, 1.3)
        f2 = self.field(flipped, 1.3)
        assert np.array_equal(f1, f2[:, ::-1])

    def test_scale_invariance(self):
        occ = np.zeros((6, 6), dtype=bool)
        occ[1, 2] = occ[3, 3] = True
        m1 = WorkspaceMap(6, 6, 0.5, (0.0, 0.0), occ)
        m2 = WorkspaceMap(6, 6, 1.0, (0.0, 0.0), occ)
        f1 = self.field(m1, 1.25)
        f2 = self.field(m2, 2.5)
        assert np.array_equal(f1, f2)


@settings(max_examples=60, deadline=None)
@given(ix=st.integers(0, 5), iy=st.integers(0, 5),
       r=st.floats(0.2, 4.0, allow_nan=False))
def test_obstruction_at_obstacle_center_positive(ix, iy, r):
    occ = np.zeros((6, 6), dtype=bool)
    occ[iy, ix] = True
    m = WorkspaceMap(6, 6, 1.0, (0.0, 0.0), occ)
    assert obstruction_ratio(m, (ix + 0.5, iy + 0.5), r) > 0.0


def _obstruction_cell_units(wmap: WorkspaceMap, px: float, py: float, r_cells: float) -> float:
    """Obstruction ratio with position and radius expressed in cell units.

    Each cell is subsampled on an s x s grid; sample points inside the disc
    are counted and those falling on obstacle (or out-of-bounds) cells form
    the obstructed fraction.  Deterministic by construction.
    """
    s = DISC_SAMPLES_PER_CELL
    ix0 = int(math.floor(px - r_cells))
    ix1 = int(math.floor(px + r_cells))
    iy0 = int(math.floor(py - r_cells))
    iy1 = int(math.floor(py + r_cells))

    offs = (np.arange(s) + 0.5) / s
    xs = (np.arange(ix0, ix1 + 1)[:, None] + offs[None, :]).ravel()
    ys = (np.arange(iy0, iy1 + 1)[:, None] + offs[None, :]).ravel()
    dx2 = (xs - px) ** 2
    dy2 = (ys - py) ** 2
    inside = dx2[None, :] + dy2[:, None] <= r_cells * r_cells  # [y, x]
    total = int(inside.sum())
    if total == 0:
        # radius small relative to the subsample grid: fall back to the host cell
        return 1.0 if is_obstacle(wmap, int(math.floor(px)), int(math.floor(py))) else 0.0

    cxs = np.floor(xs).astype(int)
    cys = np.floor(ys).astype(int)
    occ_x = (cxs < 0) | (cxs >= wmap.width)
    occ_y = (cys < 0) | (cys >= wmap.height)
    occupied = np.ones((len(cys), len(cxs)), dtype=bool)
    valid = ~occ_y[:, None] & ~occ_x[None, :]
    if valid.any():
        occupied[valid] = wmap.occupancy[
            np.broadcast_to(cys[:, None], valid.shape)[valid],
            np.broadcast_to(cxs[None, :], valid.shape)[valid],
        ]
    obstructed = int((inside & occupied).sum())
    return obstructed / total


# The batched obstruction_ratios that counted every subsample of a window,
# kept verbatim, with its chunk constant, as the reference for the row-run
# kernel.

# Disc subsamples evaluated per chunk of points.  The chunk length follows
# from the window size, so the working buffers stay near 200 KB whatever r is.
_CHUNK_SUBSAMPLES = 1 << 14


def _former_obstruction_ratios(wmap: WorkspaceMap, xy, r: float) -> np.ndarray:
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


@st.composite
def obstruction_cases(draw):
    """A map, a radius and a batch of points for the row-run kernel: origins
    up to the 2**50-cell bound, radii from below one subsample up to the
    window cap, points on the subsample lattice (ties on the circle), on and
    past the frame and far away, batches across chunk boundaries."""
    s = DISC_SAMPLES_PER_CELL
    res = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]) | st.floats(0.01, 3.0))
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    limit = 2 ** 50 - 64
    origin = tuple(draw(st.sampled_from([-1, 1])) * res
                   * min(int(2 ** draw(st.floats(0, 50))), limit) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    occ = rng.random((h, w)) < draw(st.floats(0.0, 1.0))
    wmap = WorkspaceMap(w, h, res, origin, occ)
    rc = draw(st.floats(0.005, 0.2) | st.integers(1, 48).map(lambda m: m / 8)
              | st.floats(-1.6, 5.5).map(math.exp))  # up to 245 < 255 cells
    chunk = (1 << 14) // ((int(2 * rc) + 2) * s)  # about the row-run kernel's
    n = draw(st.integers(1, 2 * chunk + 3))
    reach = 2 * rc + 2
    cells = rng.uniform([-reach, -reach], [w + reach, h + reach], (n, 2))
    lattice = (np.floor(cells * s) + 0.5) / s
    far = rng.choice([-1.0, 1.0], (n, 2)) * 10.0 ** rng.uniform(2, 15, (n, 2))
    kind = rng.choice(3, (n, 1), p=[0.45, 0.45, 0.1])
    p = np.where(kind == 0, cells, np.where(kind == 1, lattice, far))
    return wmap, np.array(origin) + p * res, rc * res


class TestObstructionRatios:
    """The batched kernel against the former one-point implementation,
    kept above verbatim as an independent oracle."""

    @staticmethod
    def oracle(wmap, p, r):
        ox, oy = wmap.origin
        res = wmap.resolution
        return _obstruction_cell_units(wmap, (p[0] - ox) / res, (p[1] - oy) / res,
                                       r / res)

    @pytest.mark.parametrize("resolution,r", [
        (0.5, 2.0), (0.5, 1.3), (0.3, 0.7), (0.3, 0.9),
        (1.0, 2.6), (0.5, 0.06),  # 0.06: the disc can miss every subsample
    ])
    def test_bit_identical_to_oracle(self, resolution, r):
        rng = np.random.default_rng(int(r * 1000) + int(resolution * 100))
        occ = rng.random((9, 13)) < 0.3
        wmap = WorkspaceMap(13, 9, resolution, (-1.7, 2.3), occ)
        xmin, ymin, xmax, ymax = wmap.world_bounds
        # inside the map and up to 2 r beyond each border
        xy = np.column_stack([rng.uniform(xmin - 2 * r, xmax + 2 * r, 300),
                              rng.uniform(ymin - 2 * r, ymax + 2 * r, 300)])
        got = obstruction_ratios(wmap, xy, r)
        want = np.array([self.oracle(wmap, p, r) for p in xy])
        assert got.shape == (300,)
        assert np.array_equal(got, want)

    def test_subsample_on_the_circle_is_inside(self):
        # Points on subsample positions with r = 1.25 cells: the subsample
        # at (dx, dy) = (0.75, 1.0) cells lies exactly on the circle.
        rng = np.random.default_rng(4)
        occ = rng.random((8, 8)) < 0.4
        wmap = WorkspaceMap(8, 8, 0.5, (-1.5, 2.0), occ)
        k = rng.integers(-2, 10, size=(200, 2)) + rng.integers(0, 4, size=(200, 2)) / 4
        xy = np.array(wmap.origin) + (k + 0.125) * 0.5
        got = obstruction_ratios(wmap, xy, 0.625)
        assert np.array_equal(got, [self.oracle(wmap, p, 0.625) for p in xy])

    def test_fallback_uses_host_cell(self):
        wmap = make_map(["#.", ".."], resolution=1.0, origin=(0.5, -0.5))
        # a 0.01-cell disc around a cell centre holds no subsample
        xy = np.array([[1.0, 1.0], [2.0, 1.0], [2.0, 0.0], [9.0, 9.0]])
        assert obstruction_ratios(wmap, xy, 0.01).tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_batch_and_chunking_do_not_change_a_point(self, museum):
        wmap, model = museum
        r = model.camera_clearance_radius
        rng = np.random.default_rng(8)
        xy = np.column_stack([rng.uniform(-1, 23, 700), rng.uniform(-1, 16, 700)])
        whole = obstruction_ratios(wmap, xy, r)
        one_by_one = [obstruction_ratio(wmap, tuple(p), r) for p in xy[::7]]
        assert whole[::7].tolist() == one_by_one

    def test_empty_input(self):
        out = obstruction_ratios(free_map(3, 3), np.empty((0, 2)), 1.0)
        assert out.shape == (0,)

    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_bad_radius_rejected(self, r):
        with pytest.raises(ValueError, match="r must be"):
            obstruction_ratios(free_map(3, 3), np.array([[1.0, 1.0]]), r)

    def test_window_cap(self):
        # a window spans at most 2 r + 2 cells of DISC_SAMPLES_PER_CELL subsamples
        widest = math.isqrt(MAX_WINDOW_SUBSAMPLES) // DISC_SAMPLES_PER_CELL
        r = (widest - 2) / 2
        xy = np.array([[1.5, 1.5]])
        assert obstruction_ratios(free_map(3, 3), xy, r).shape == (1,)
        with pytest.raises(ValueError, match=f"r {r + 0.125!r} gives a disc window"):
            obstruction_ratios(free_map(3, 3), xy, r + 0.125)

    @settings(max_examples=60, deadline=None)
    @given(case=obstruction_cases())
    def test_equals_former_kernel(self, case):
        wmap, xy, r = case
        assert np.array_equal(obstruction_ratios(wmap, xy, r),
                              _former_obstruction_ratios(wmap, xy, r))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x", [1e300, -1e19, 1e18])
    def test_far_point_is_fully_obstructed(self, museum, x):
        # a window that misses the map holds frame cells only; no int64 cast
        # of the far coordinate may happen
        wmap, model = museum
        r = model.camera_clearance_radius
        got = obstruction_ratios(wmap, [[x, 1.0], [5.0, 5.0]], r)
        assert got.tolist() == [1.0, obstruction_ratio(wmap, (5.0, 5.0), r)]
