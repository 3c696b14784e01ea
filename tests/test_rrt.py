import math
import random

import numpy as np
import pytest

from pnav.gridmap import RobotModel, WorkspaceMap, footprint_free, swept_footprint_free
from pnav.rrt import (PolyPath, RrtParams, _nearest, best_of_n,
                      curvature_sign_changes, rrt_plan)
from pnav.validate import finite_number

from conftest import free_map, make_map

MODEL = RobotModel(footprint_radius=0.2, camera_clearance_radius=0.5)


def dense_sweep_free(wmap, path, rho, samples=1000):
    """Independent collision oracle: sample every segment densely."""
    for a, b in zip(path.vertices, path.vertices[1:]):
        for i in range(samples + 1):
            t = i / samples
            p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            if not footprint_free(wmap, p, rho):
                return False
    return True


class TestRrtParams:
    @pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, True])
    def test_bad_step_size_names_it(self, step):
        with pytest.raises(ValueError, match="step_size must be a finite number > 0"):
            RrtParams(step_size=step)

    @pytest.mark.parametrize("iterations", [math.nan, math.inf, 0, True])
    def test_bad_max_iterations_names_it(self, iterations):
        with pytest.raises(ValueError, match="max_iterations must be a finite integer > 0"):
            RrtParams(step_size=0.5, max_iterations=iterations)

    @pytest.mark.parametrize("seed", [1.5, True, math.nan, "3"])
    def test_seed_must_be_an_int_and_names_it(self, seed):
        with pytest.raises(ValueError, match="seed must be a finite integer"):
            RrtParams(step_size=0.5, seed=seed)

    def test_negative_seed_names_it(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            RrtParams(step_size=0.5, seed=-1)

    @pytest.mark.parametrize("bias", [True, math.nan, math.inf, "0.5"])
    def test_goal_bias_must_be_a_number_and_names_it(self, bias):
        with pytest.raises(ValueError, match="goal_bias must be a finite number"):
            RrtParams(step_size=0.5, goal_bias=bias)

    @pytest.mark.parametrize("bias", [-0.1, 1.5])
    def test_goal_bias_outside_the_unit_interval_names_it(self, bias):
        with pytest.raises(ValueError, match=r"goal_bias must be in \[0, 1\]"):
            RrtParams(step_size=0.5, goal_bias=bias)

    def test_numpy_seed_and_int_bias_accepted(self):
        assert RrtParams(step_size=0.5, goal_bias=1, seed=np.int64(3)).seed == 3


class TestRrtPlan:
    def test_start_equals_goal(self):
        wmap = free_map(5, 5)
        path = rrt_plan(wmap, MODEL, (2.5, 2.5), (2.5, 2.5),
                        RrtParams(step_size=0.5, seed=1))
        assert path.vertices == ((2.5, 2.5),)

    def test_empty_map_reaches_goal(self):
        wmap = free_map(10, 10)
        start, goal = (1.5, 1.5), (8.5, 8.5)
        path = rrt_plan(wmap, MODEL, start, goal,
                        RrtParams(step_size=1.0, seed=7))
        assert path is not None
        assert path.vertices[0] == start and path.vertices[-1] == goal
        straight = math.dist(start, goal)
        assert path.length() >= straight - 1e-9

    def test_iteration_budget_is_not_allocated_up_front(self):
        # the tree's storage grows with the tree, not with max_iterations
        wmap = free_map(10, 10)
        start, goal = (1.5, 1.5), (8.5, 8.5)
        usual = rrt_plan(wmap, MODEL, start, goal, RrtParams(step_size=0.3, seed=7))
        huge = rrt_plan(wmap, MODEL, start, goal,
                        RrtParams(step_size=0.3, seed=7, max_iterations=10**12))
        assert usual is not None and huge == usual

    def test_start_in_collision(self):
        wmap = make_map(["#....", ".....", "....."])
        with pytest.raises(ValueError, match="start"):
            rrt_plan(wmap, MODEL, (0.5, 2.5), (4.5, 0.5),
                     RrtParams(step_size=0.5, seed=0))

    @pytest.mark.parametrize("start, goal, field", [
        ((math.nan, 2.5), (4.5, 0.5), r"start\[0\]"),
        ((0.5, 2.5), (4.5, math.inf), r"goal\[1\]"),
    ], ids=["nan_start", "inf_goal"])
    def test_non_finite_endpoint_names_it(self, start, goal, field):
        with pytest.raises(ValueError, match=field + " must be a finite number"):
            rrt_plan(free_map(5, 3), MODEL, start, goal, RrtParams(step_size=0.5, seed=0))

    def test_exhaustion_returns_none(self):
        # goal sealed inside a ring: every iteration fails to connect
        wmap = make_map([".....",
                         ".###.",
                         ".#.#.",
                         ".###.",
                         "....."])
        path = rrt_plan(wmap, MODEL, (0.5, 4.5), (2.5, 2.5),
                        RrtParams(step_size=0.5, seed=3, max_iterations=50))
        assert path is None

    def test_determinism(self):
        wmap = make_map(["........",
                         "..##....",
                         "......#.",
                         "........"])
        args = (wmap, MODEL, (0.5, 3.5), (7.5, 0.5))
        p1 = rrt_plan(*args, RrtParams(step_size=0.7, seed=42))
        p2 = rrt_plan(*args, RrtParams(step_size=0.7, seed=42))
        assert p1.vertices == p2.vertices

    def test_paths_pass_dense_collision_oracle(self, museum):
        wmap, model = museum
        ok = 0
        for seed in range(100):
            path = rrt_plan(wmap, model, (3.5, 3.5), (18.5, 3.5),
                            RrtParams(step_size=1.0, seed=seed))
            if path is None:
                continue
            ok += 1
            assert dense_sweep_free(wmap, path, model.footprint_radius)
        assert ok >= 95


class TestCurvatureSignChanges:
    def test_straight(self):
        p = PolyPath(((0, 0), (1, 0), (2, 0)))
        assert curvature_sign_changes(p) == 0

    def test_zigzag(self):
        # L-R-L-R over 6 vertices: three alternations
        p = PolyPath(((0, 0), (1, 0), (2, 1), (3, 0), (4, 1), (5, 0)))
        assert curvature_sign_changes(p) == 3

    def test_c_shape_single_direction(self):
        p = PolyPath(((0, 0), (2, 0), (3, 1), (3, 3), (2, 4), (0, 4)))
        assert curvature_sign_changes(p) == 0

    def test_collinear_does_not_reset_sign(self):
        # left turn, straight stretch, then right turn: one change
        p = PolyPath(((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 1)))
        assert curvature_sign_changes(p) == 1

    def test_one_vertex_has_no_sign_changes(self):
        assert curvature_sign_changes(PolyPath(((0, 0),))) == 0

    def test_rigid_motion_and_scale_invariance(self):
        rng = random.Random(8)
        verts = [(0.0, 0.0)]
        for _ in range(12):
            verts.append((verts[-1][0] + rng.uniform(0.1, 1),
                          verts[-1][1] + rng.uniform(-1, 1)))
        p = PolyPath(tuple(verts))
        base = curvature_sign_changes(p)
        th = 1.1
        c, s = math.cos(th), math.sin(th)
        moved = PolyPath(tuple((3 * (c * x - s * y) + 7, 3 * (s * x + c * y) - 2)
                               for x, y in verts))
        assert curvature_sign_changes(moved) == base


class TestBestOfN:
    def test_n_one_matches_single_run(self):
        wmap = free_map(8, 8)
        params = RrtParams(step_size=0.8, seed=5)
        single = rrt_plan(wmap, MODEL, (1.0, 1.0), (7.0, 7.0), params)
        best = best_of_n(wmap, MODEL, (1.0, 1.0), (7.0, 7.0), params, 1)
        assert best.vertices == single.vertices

    def test_selects_min_sign_changes(self):
        wmap = free_map(10, 10)
        params = RrtParams(step_size=1.0, seed=100)
        best = best_of_n(wmap, MODEL, (1.5, 1.5), (8.5, 8.5), params, 50)
        assert isinstance(best, PolyPath)
        best_signs = curvature_sign_changes(best)
        # oracle: rerun every seed and take the minimum
        mins = []
        for k in range(50):
            p = rrt_plan(wmap, MODEL, (1.5, 1.5), (8.5, 8.5),
                         RrtParams(step_size=1.0, seed=100 + k))
            if p is not None and len(p.vertices) >= 2:
                mins.append(curvature_sign_changes(p))
        assert best_signs == min(mins)

    def test_blocked_goal_reports_attempts(self):
        wmap = make_map([".....",
                         ".###.",
                         ".#.#.",  # hollow center unreachable
                         ".###.",
                         "....."])
        params = RrtParams(step_size=0.5, seed=0, max_iterations=60)
        result = best_of_n(wmap, MODEL, (0.5, 4.5), (2.5, 2.5), params, 10)
        assert result is None

    @pytest.mark.parametrize("n", [2.5, math.nan, True, 0, -1, "3"])
    def test_bad_n_names_it(self, n):
        with pytest.raises(ValueError, match="n must be a finite integer > 0"):
            best_of_n(free_map(4, 4), MODEL, (0.5, 0.5), (3.5, 3.5),
                      RrtParams(step_size=1.0), n)

    def test_numpy_n_accepted(self):
        params = RrtParams(step_size=1.0, seed=2)
        args = (free_map(4, 4), MODEL, (0.5, 0.5), (3.5, 3.5), params)
        assert best_of_n(*args, np.int64(3)) == best_of_n(*args, 3)


# rrt_plan as it was before it found nearest nodes a block of samples at a
# time: one nearest-node line per sample.  Verbatim but for the names, the
# docstrings and _UNIFORM_BLOCK written as 256.
def _former_uniforms(rng):
    while True:
        yield from rng.random(256).tolist()


def _former_rrt_plan(wmap: WorkspaceMap, model: RobotModel,
                     start: tuple[float, float], goal: tuple[float, float],
                     params: RrtParams) -> PolyPath | None:
    for name, xy in (("start", start), ("goal", goal)):
        for i, v in enumerate(xy):
            finite_number(v, f"{name}[{i}]")
    rho = model.footprint_radius
    if not footprint_free(wmap, start, rho):
        raise ValueError("start in collision")
    if not footprint_free(wmap, goal, rho):
        raise ValueError("goal in collision")

    if start == goal:
        return PolyPath((start,))

    rng = np.random.default_rng(params.seed)
    xmin, ymin, xmax, ymax = wmap.world_bounds
    tol = params.step_size

    nodes = [start]
    parents = [-1]
    # nodes' x and y in the first len(nodes) entries
    xs, ys = np.empty(64), np.empty(64)
    xs[0], ys[0] = start
    uniform = _former_uniforms(rng).__next__

    def backtrace(idx: int) -> PolyPath:
        verts = []
        while idx != -1:
            verts.append(nodes[idx])
            idx = parents[idx]
        verts.reverse()
        out = [verts[0]]
        for v in verts[1:]:
            if v != out[-1]:
                out.append(v)
        return PolyPath(tuple(out))

    # start may already be within tolerance of the goal
    if math.hypot(goal[0] - start[0], goal[1] - start[1]) <= tol \
            and swept_footprint_free(wmap, start, goal, rho):
        return PolyPath((start, goal))

    for _ in range(params.max_iterations):
        if uniform() < params.goal_bias:
            sample = goal
        else:
            sample = (xmin + uniform() * (xmax - xmin),
                      ymin + uniform() * (ymax - ymin))
        n = len(nodes)
        d2 = (xs[:n] - sample[0]) ** 2 + (ys[:n] - sample[1]) ** 2
        near_idx = int(d2.argmin())
        near = nodes[near_idx]
        dist = math.sqrt(d2[near_idx])
        if dist < 1e-12:
            continue
        scale = min(1.0, params.step_size / dist)
        new = (near[0] + scale * (sample[0] - near[0]),
               near[1] + scale * (sample[1] - near[1]))
        # No separate standing test at new: a free sweep contains its end
        # disc, and its cell window contains the standing window, so the
        # sweep from near to new is free only if new is.
        if not swept_footprint_free(wmap, near, new, rho):
            continue
        if n == len(xs):  # doubling: amortised O(1) per node
            xs = np.concatenate([xs, np.empty_like(xs)])
            ys = np.concatenate([ys, np.empty_like(ys)])
        xs[n], ys[n] = new
        nodes.append(new)
        parents.append(near_idx)

        if math.hypot(goal[0] - new[0], goal[1] - new[1]) <= tol \
                and swept_footprint_free(wmap, new, goal, rho):
            idx = len(nodes) - 1
            if goal != new:
                nodes.append(goal)
                parents.append(idx)
                idx = len(nodes) - 1
            return backtrace(idx)

    return None


def _uniforms(rng: np.random.Generator):
    """rng's stream of uniforms on [0, 1), drawn in blocks: the values and
    order of repeated rng.random() calls, at a fraction of their cost."""
    while True:
        yield from rng.random(_UNIFORM_BLOCK).tolist()


CLUTTERED = ["..........",
             "..#....#..",
             ".....#....",
             ".#..#...#.",
             "...#...#..",
             "......#...",
             ".#........",
             "....#..#.."]


class TestBlockedNearestAgainstFormer:
    """rrt_plan, which finds nearest nodes a block of samples at a time, gives
    the former per-sample loop's vertices (compared by repr) or None, on every
    seed, with blocks that end mid-run and runs that exhaust their budget."""

    SEEDS = range(200)

    @staticmethod
    def assert_same(wmap, model, start, goal, **kwargs):
        outcomes = []
        for seed in TestBlockedNearestAgainstFormer.SEEDS:
            params = RrtParams(seed=seed, **kwargs)
            got = rrt_plan(wmap, model, start, goal, params)
            former = _former_rrt_plan(wmap, model, start, goal, params)
            assert repr(got and got.vertices) == repr(former and former.vertices), seed
            outcomes.append(got is not None)
        return outcomes

    def test_museum_defaults(self, museum):
        wmap, model = museum
        assert all(self.assert_same(wmap, model, (3.5, 3.5), (18.5, 3.5), step_size=1.0))

    @pytest.mark.parametrize("iterations", [1, 15, 16, 17, 33])
    def test_museum_budgets_ending_mid_block(self, museum, iterations):
        wmap, model = museum
        ok = self.assert_same(wmap, model, (3.5, 3.5), (8.5, 3.5), step_size=1.0,
                              max_iterations=iterations)
        if iterations >= 15:
            assert 0 < sum(ok) < len(ok)  # some reach the goal, some exhaust

    @pytest.mark.parametrize("bias", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("iterations", [1, 15, 16, 17, 33, 400])
    def test_cluttered_map(self, bias, iterations):
        wmap = make_map(CLUTTERED, resolution=0.5)
        self.assert_same(wmap, MODEL, (0.25, 0.25), (4.75, 3.75), step_size=0.4,
                         goal_bias=bias, max_iterations=iterations)

    def test_cluttered_map_reaches_and_exhausts(self):
        wmap = make_map(CLUTTERED, resolution=0.5)
        ok = self.assert_same(wmap, MODEL, (0.25, 0.25), (4.75, 3.75), step_size=0.4,
                              max_iterations=150)
        assert 0 < sum(ok) < len(ok)

    def test_start_within_step_of_the_goal(self):
        wmap = make_map(CLUTTERED, resolution=0.5)
        rho = MODEL.footprint_radius
        # a free sweep returns at once; a blocked one (an obstacle between)
        # runs the loop
        free, blocked = ((0.25, 0.25), (1.25, 0.25)), ((0.25, 2.25), (1.25, 2.25))
        assert swept_footprint_free(wmap, *free, rho)
        assert not swept_footprint_free(wmap, *blocked, rho)
        for start, goal in (free, blocked):
            ok = self.assert_same(wmap, MODEL, start, goal, step_size=1.2,
                                  max_iterations=200)
            assert sum(ok) > len(ok) // 2
        params = RrtParams(step_size=1.2, max_iterations=200)
        assert rrt_plan(wmap, MODEL, *free, params).vertices == free

    def test_sealed_goal_exhausts_budget(self):
        wmap = make_map([".....", ".###.", ".#.#.", ".###.", "....."])
        ok = self.assert_same(wmap, MODEL, (0.5, 4.5), (2.5, 2.5), step_size=0.5,
                              max_iterations=50)
        assert not any(ok)


class TestNearest:
    def test_tie_goes_to_the_old_node(self):
        # node 0 (held when the block started) and node 2 (added in it) lie
        # at squared distance 1.0 from the sample
        nodes = [(0.0, 0.0), (5.0, 5.0), (2.0, 0.0)]
        assert _nearest(nodes, 2, (1.0, 0.0), 0, 1.0) == (0, 1.0)

    def test_tie_between_new_nodes_goes_to_the_lower_index(self):
        nodes = [(9.0, 9.0), (1.0, 0.0), (-1.0, 0.0)]
        assert _nearest(nodes, 1, (0.0, 0.0), 0, 162.0) == (1, 1.0)

    def test_strictly_nearer_new_node_wins(self):
        nodes = [(0.0, 0.0), (1.5, 0.0)]
        assert _nearest(nodes, 1, (1.0, 0.0), 0, 1.0) == (1, 0.25)

    def test_matches_one_argmin_over_all_nodes(self):
        """The block's matrix row, then the scan, give the index and squared
        distance of the former line, on trees with exact ties."""
        rng = random.Random(25)
        for _ in range(2000):
            pts = [(rng.randint(-8, 8) / 4, rng.randint(-8, 8) / 4)
                   for _ in range(rng.randint(1, 12))]
            if rng.random() < 0.5:
                pts = [(x + rng.random(), y) for x, y in pts]
            sample = (rng.randint(-8, 8) / 4, rng.randint(-8, 8) / 4)
            xs, ys = np.array([p[0] for p in pts]), np.array([p[1] for p in pts])
            d2 = (xs - sample[0]) ** 2 + (ys - sample[1]) ** 2
            want = int(d2.argmin()), float(d2[d2.argmin()])
            first = rng.randint(1, len(pts))
            row = (xs[:first] - np.array([[sample[0]]])) ** 2 \
                + (ys[:first] - np.array([[sample[1]]])) ** 2
            got = _nearest(pts, first, sample, int(row.argmin(axis=1)[0]),
                           float(row.min(axis=1)[0]))
            assert got == want
