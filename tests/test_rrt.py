import math
import random

import numpy as np
import pytest

from pnav.gridmap import RobotModel, footprint_free
from pnav.rrt import (PolyPath, RrtParams, best_of_n,
                      curvature_sign_changes, rrt_plan)

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
