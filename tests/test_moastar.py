import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnav.gridmap import RobotModel
from pnav.lattice import HEADINGS, CostVector, LatticeGraph, LatticeNode, build_lattice
from pnav.moastar import (FLOAT_TOL, GoalSpec, PlanningError, _ideal_bounds,
                          _octile_bounds, brute_force_front, costs_equal, dominates,
                          octile, pareto_filter, plan_pareto)

from conftest import free_map, make_map
from test_moastar_reference import reference_plan_pareto

SQRT2 = math.sqrt(2.0)
SMALL = RobotModel(footprint_radius=0.2, camera_clearance_radius=0.4)


def row_path_costs(g, path):
    """Cost-to-come at each node of a node path, summed from the rows' entries."""
    acc = (0.0, 0, 0.0)
    out = [acc]
    for a, b in zip(path, path[1:]):
        ib = g.node_id(b)
        w = [e[1:] for e in g.rows[g.node_id(a)] if e[0] == ib]
        assert len(w) == 1, (a, b)
        acc = tuple(x + y for x, y in zip(acc, w[0]))
        out.append(acc)
    return out


def assert_fronts_equal(f1, f2):
    a = sorted(f1.costs())
    b = sorted(f2.costs())
    assert len(a) == len(b), (a, b)
    for x, y in zip(a, b):
        assert costs_equal(x, y), (x, y)


cost_vectors = st.builds(
    CostVector,
    st.floats(0, 10, allow_nan=False),
    st.integers(0, 10),
    st.floats(0, 10, allow_nan=False),
)


class TestDominance:
    def test_basic(self):
        assert dominates(CostVector(0, 0, 0), CostVector(1, 0, 0))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates(CostVector(1, 2, 3), CostVector(1, 2, 3))

    def test_incomparable(self):
        a, b = CostVector(2, 1, 0), CostVector(0, 1, 2)
        assert not dominates(a, b) and not dominates(b, a)

    @settings(max_examples=300, deadline=None)
    @given(a=cost_vectors)
    def test_irreflexive(self, a):
        assert not dominates(a, a)

    @settings(max_examples=300, deadline=None)
    @given(a=cost_vectors, b=cost_vectors)
    def test_asymmetric(self, a, b):
        assert not (dominates(a, b) and dominates(b, a))

    @settings(max_examples=300, deadline=None)
    @given(a=cost_vectors, b=cost_vectors, c=cost_vectors)
    def test_transitive(self, a, b, c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


class TestParetoFilter:
    def test_mutually_incomparable_survive(self):
        vs = [CostVector(1, 0, 0), CostVector(0, 1, 0), CostVector(0, 0, 1)]
        assert pareto_filter(vs) == vs

    def test_dominated_removed(self):
        vs = [CostVector(1, 1, 1), CostVector(1, 1, 2)]
        assert pareto_filter(vs) == [CostVector(1, 1, 1)]

    def test_duplicates_collapse(self):
        vs = [CostVector(1, 1, 1), CostVector(1, 1, 1)]
        assert pareto_filter(vs) == [CostVector(1, 1, 1)]

    def test_matches_quadratic_oracle(self):
        rng = random.Random(99)
        vs = [CostVector(rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5))
              for _ in range(1000)]
        got = pareto_filter(vs)
        # O(n^2) pairwise scan
        expect = []
        for v in vs:
            if any(dominates(u, v) for u in vs):
                continue
            if any(costs_equal(u, v) for u in expect):
                continue
            expect.append(v)
        assert got == expect


class TestHeuristic:
    """The search's distance bound h3: the octile distance to the goal."""

    def test_at_goal(self):
        assert octile((2 - 2) * 1.0, (3 - 3) * 1.0) == 0.0

    def test_straight_line(self):
        assert octile((3 - 0) * 0.5, (0 - 0) * 0.5) == pytest.approx(1.5)

    def test_octile_formula(self):
        assert octile((2 - 0) * 1.0, (1 - 0) * 1.0) == pytest.approx(1 + SQRT2)

    def test_octile_symmetry(self):
        assert octile(-3, 4) == octile(4, 3) == octile(3, -4)


class TestGoalSpec:
    """A goal heading is free (None) or one of the 8 lattice headings, as a
    LatticeNode's is; any other value once planned to an empty front."""

    @pytest.mark.parametrize("heading", [30, 44.6, 360, -45, 405, 1e300, math.nan, "90"])
    def test_heading_off_the_eight_values_rejected(self, heading):
        with pytest.raises(ValueError, match=re.escape(f"heading {heading} not in the 8-")):
            GoalSpec(2, 2, heading)

    def test_free_and_the_eight_values_accepted(self):
        for heading in (None, *HEADINGS, 45.0):
            assert GoalSpec(2, 2, heading).heading == heading
        g = build_lattice(free_map(3, 3), SMALL, 1.0)
        assert len(plan_pareto(g, LatticeNode(0, 0, 0), GoalSpec(2, 2, 45.0))) > 0


class TestPlanPareto:
    def test_start_equals_goal(self):
        g = build_lattice(free_map(2, 2), SMALL, 1.0)
        front = plan_pareto(g, LatticeNode(0, 0, 0), GoalSpec(0, 0))
        assert len(front) == 1
        cost, path = front.entries[0]
        assert cost == CostVector(0.0, 0, 0.0)
        assert path == [LatticeNode(0, 0, 0)]

    def test_three_by_three_free(self):
        g = build_lattice(free_map(3, 3), SMALL, 1.0)
        front = plan_pareto(g, LatticeNode(0, 0, 0), GoalSpec(2, 2))
        assert len(front) == 1
        cost, _ = front.entries[0]
        assert cost.w2 == 1
        assert cost.w3 == pytest.approx(2 * SQRT2)
        assert cost.w1 == 0.0
        assert_fronts_equal(front, brute_force_front(g, LatticeNode(0, 0, 0),
                                                     GoalSpec(2, 2)))

    def test_center_obstacle_hand_enumeration(self):
        # the diagonal cut past the block grazes its corner, so the only
        # non-dominated route is the one-turn L around it: N=1, D=4
        g = build_lattice(make_map(["...", ".#.", "..."]), SMALL, 1.0)
        start, goal = LatticeNode(0, 0, 0), GoalSpec(2, 2)
        front = plan_pareto(g, start, goal)
        got = sorted((c.w2, round(c.w3, 9)) for c in front.costs())
        assert got == [(1, 4.0)]
        assert all(c.w1 == 0.0 for c in front.costs())
        assert_fronts_equal(front, brute_force_front(g, start, goal))

    def test_invalid_start(self):
        g = build_lattice(make_map(["#.", ".."]), SMALL, 1.0)
        with pytest.raises(PlanningError, match="invalid start"):
            plan_pareto(g, LatticeNode(0, 1, 0), GoalSpec(1, 1))

    def test_invalid_goal(self):
        g = build_lattice(free_map(2, 2), SMALL, 1.0)
        with pytest.raises(PlanningError, match="invalid goal"):
            plan_pareto(g, LatticeNode(0, 0, 0), GoalSpec(5, 0))

    def test_unreachable_goal_gives_empty_front(self):
        g = build_lattice(make_map(["..#..", "..#..", "..#.."]), SMALL, 1.0)
        front = plan_pareto(g, LatticeNode(0, 0, 0), GoalSpec(4, 0))
        assert len(front) == 0

    def test_deterministic(self):
        wmap = make_map(["....", ".#..", "....", "...."])
        g = build_lattice(wmap, SMALL, 1.0)
        f1 = plan_pareto(g, LatticeNode(0, 0, 0), GoalSpec(3, 3))
        f2 = plan_pareto(g, LatticeNode(0, 0, 0), GoalSpec(3, 3))
        assert f1.entries == f2.entries

    def test_path_cost_consistency(self):
        wmap = make_map([".....", "..#..", ".....", ".#...", "....."])
        g = build_lattice(wmap, SMALL, 1.0)
        front = plan_pareto(g, LatticeNode(0, 0, 0), GoalSpec(4, 4, 90))
        assert len(front) > 0
        for cost, path in front.entries:
            resummed = row_path_costs(g, path)[-1]
            assert costs_equal(cost, resummed)
            assert path[0] == LatticeNode(0, 0, 0)
            assert (path[-1].ix, path[-1].iy, path[-1].heading) == (4, 4, 90)

    def test_mutual_nondominance(self):
        wmap = make_map([".....", "..#..", "#....", ".#...", "....."])
        g = build_lattice(wmap, SMALL, 1.0)
        front = plan_pareto(g, LatticeNode(0, 0, 45), GoalSpec(4, 0))
        cs = front.costs()
        for i, a in enumerate(cs):
            for j, b in enumerate(cs):
                if i != j:
                    assert not dominates(a, b)

    def test_heuristic_admissible_along_front_paths(self):
        # the search's own bounds (h1, h2, h3) at every node of every front
        # path are at most the cost that path still spends to its end; the
        # wider camera disc makes phi, and so h1, nonzero
        wmap = make_map([".....", "..#..", ".....", ".....", "....."])
        goal = GoalSpec(4, 4)
        for model in (SMALL, RobotModel(footprint_radius=0.2, camera_clearance_radius=1.2)):
            g = build_lattice(wmap, model, 1.0)
            front = plan_pareto(g, LatticeNode(0, 0, 0), goal)
            assert len(front) > 0
            H1, H2 = _ideal_bounds(g, goal)
            H3 = _octile_bounds(g, goal)
            for cost, path in front.entries:
                accs = row_path_costs(g, path)
                assert costs_equal(cost, accs[-1])
                for node, acc in zip(path, accs):
                    i = g.node_id(node)
                    assert H3[i] == octile((goal.ix - node.ix) * g.delta,
                                           (goal.iy - node.iy) * g.delta)
                    assert H1[i] <= cost.w1 - acc[0] + 1e-9
                    assert H2[i] <= cost.w2 - acc[1]
                    assert H3[i] <= cost.w3 - acc[2] + 1e-9
        assert H1[g.node_id(LatticeNode(0, 0, 0))] > 0


class TestBruteForce:
    def test_single_node(self):
        g = build_lattice(free_map(1, 1), SMALL, 1.0)
        front = brute_force_front(g, LatticeNode(0, 0, 90), GoalSpec(0, 0, 90))
        assert front.costs() == [CostVector(0.0, 0, 0.0)]

    def test_straight_edge(self):
        g = build_lattice(free_map(2, 1), SMALL, 1.0)
        front = brute_force_front(g, LatticeNode(0, 0, 0), GoalSpec(1, 0))
        assert len(front) == 1
        assert front.costs()[0] == CostVector(0.0, 0, 1.0)

    def test_guard_rejects_large_graphs(self):
        g = build_lattice(free_map(10, 10), SMALL, 1.0)
        with pytest.raises(PlanningError, match="guard"):
            brute_force_front(g, LatticeNode(0, 0, 0), GoalSpec(9, 9))

    def test_matches_planner_on_random_maps(self):
        rng = random.Random(1234)
        for _ in range(25):
            w, h = rng.randint(2, 5), rng.randint(2, 5)
            rows = ["".join("#" if rng.random() < 0.25 else "."
                            for _ in range(w)) for _ in range(h)]
            g = build_lattice(make_map(rows),
                              RobotModel(footprint_radius=0.2,
                                         camera_clearance_radius=1.2), 1.0)
            free = sorted(g.phi)
            if not free:
                continue
            sp, gp = rng.choice(free), rng.choice(free)
            start = LatticeNode(sp[0], sp[1], rng.choice(HEADINGS))
            goal = GoalSpec(gp[0], gp[1], rng.choice([None] + list(HEADINGS)))
            assert_fronts_equal(plan_pareto(g, start, goal),
                                brute_force_front(g, start, goal))

    def test_obstacle_insertion_never_improves(self):
        base = make_map(["....", "....", "....", "...."])
        walled = make_map(["....", ".##.", "....", "...."])
        g0 = build_lattice(base, SMALL, 1.0)
        g1 = build_lattice(walled, SMALL, 1.0)
        start, goal = LatticeNode(0, 0, 0), GoalSpec(3, 3)
        f0 = plan_pareto(g0, start, goal)
        f1 = plan_pareto(g1, start, goal)
        for c1 in f1.costs():
            for c0 in f0.costs():
                assert not dominates(c1, c0)


# a one-cell pocket at (2, 2) behind walls: its 8 nodes reach nothing else
POCKET = ["......",
          ".###..",
          ".#.#..",
          ".###..",
          "......"]


class TestIdealBounds:
    def test_bounds_are_the_oracles_least_w1_and_w2(self):
        rng = random.Random(606)
        checked = 0
        for _ in range(12):
            w, h = rng.randint(3, 5), rng.randint(2, 4)
            rows = ["".join("#" if rng.random() < 0.2 else "."
                            for _ in range(w)) for _ in range(h)]
            g = build_lattice(make_map(rows),
                              RobotModel(footprint_radius=0.2,
                                         camera_clearance_radius=1.2), 1.0)
            free = sorted(g.phi)
            if not free:
                continue
            gp = rng.choice(free)
            goal = GoalSpec(gp[0], gp[1], rng.choice([None] + list(HEADINGS)))
            h1s, h2s = _ideal_bounds(g, goal)
            assert len(h1s) == len(h2s) == len(g)
            for _ in range(4):
                sp = rng.choice(free)
                start = LatticeNode(sp[0], sp[1], rng.choice(HEADINGS))
                costs = brute_force_front(g, start, goal).costs()
                h1, h2 = h1s[g.node_id(start)], h2s[g.node_id(start)]
                if not costs:
                    assert h1 == h2 == math.inf
                    continue
                assert abs(h1 - min(c.w1 for c in costs)) <= FLOAT_TOL
                assert h2 == min(c.w2 for c in costs)
                checked += 1
        assert checked >= 30

    def test_walled_pocket_counts_dead_ends(self):
        g = build_lattice(make_map(POCKET), SMALL, 1.0)
        start, goal = LatticeNode(0, 0, 0), GoalSpec(5, 4)
        front = plan_pareto(g, start, goal)
        assert len(front) > 0
        assert_fronts_equal(front, brute_force_front(g, start, goal))
        assert front.metadata["dead_ends"] == 8

    def test_start_that_cannot_reach_the_goal(self):
        g = build_lattice(make_map(POCKET), SMALL, 1.0)
        start, goal = LatticeNode(2, 2, 90), GoalSpec(5, 4)
        front = plan_pareto(g, start, goal)
        assert len(front) == 0 and len(brute_force_front(g, start, goal)) == 0
        assert front.metadata["expanded"] == front.metadata["generated"] == 0
        assert front.metadata["dead_ends"] == 8

    def test_search_reads_only_rows(self, monkeypatch):
        rows = ["............",
                "..#....#....",
                "....#.....#.",
                ".#....#.....",
                "......##....",
                "..#.........",
                ".....#...#..",
                ".#.......#..",
                "............"]
        g = build_lattice(make_map(rows), SMALL, 1.0)
        start, goal = LatticeNode(0, 0, 0), GoalSpec(11, 8)
        ref = reference_plan_pareto(g, start, goal)  # walks neighbors()

        def refuse(graph, node):
            raise AssertionError("plan_pareto called LatticeGraph.neighbors")
        monkeypatch.setattr(LatticeGraph, "neighbors", refuse)
        front = plan_pareto(g, start, goal)
        meta = front.metadata
        assert front.entries == ref.entries
        assert len(front) > 0 and meta["front_size"] == len(front)
        assert meta["expanded"] == ref.metadata["expanded"] > 0
        assert meta["generated"] == ref.metadata["generated"]
        assert meta["pruned_at_node"] + meta["pruned_by_solution"] <= meta["generated"]
        assert meta["peak_open"] >= 1
