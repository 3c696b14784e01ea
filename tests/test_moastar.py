import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnav.gridmap import RobotModel
from pnav.lattice import HEADINGS, CostVector, LatticeGraph, LatticeNode, build_lattice
from pnav.moastar import (FLOAT_TOL, GoalSpec, PlanningError, _ideal_bounds,
                          _least_v, _octile_bounds, _prunes, brute_force_front,
                          costs_equal, dominates, octile, pareto_filter, plan_pareto)

from conftest import free_map, make_map
from test_moastar_reference import assert_same_search, reference_plan_pareto

SQRT2 = math.sqrt(2.0)
SMALL = RobotModel(footprint_radius=0.2, camera_clearance_radius=0.4)


def row_path_costs(g, path):
    """Cost-to-come at each node of a node path, summed from the row entries."""
    acc = (0.0, 0, 0.0)
    out = [acc]
    for a, b in zip(path, path[1:]):
        ib = g.node_id(b)
        w = [e[1:] for e in g.row(g.node_id(a)) if e[0] == ib]
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

    @pytest.mark.parametrize("heading", [None, 90])
    def test_goal_on_an_obstacle(self, heading):
        g = build_lattice(make_map(["#.", ".."]), SMALL, 1.0)
        assert (0, 1) not in g.phi
        for search in (plan_pareto, brute_force_front):
            with pytest.raises(PlanningError, match="invalid goal"):
                search(g, LatticeNode(1, 0, 0), GoalSpec(0, 1, heading))

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


class TestLeastVTable:
    """The solution check of plan_pareto: sol[min(f2, top)] <= f1 + FLOAT_TOL
    with sol = _least_v(solutions), each solution a goal label [g1, g2, g3]."""

    @staticmethod
    def prunes(sol, f1, f2):
        return sol[min(f2, len(sol) - 1)] <= f1 + FLOAT_TOL

    def test_least_v_falls_as_n_rises(self):
        sol = _least_v([[5.0, 0, 10.0], [1.0, 4, 14.0], [3.0, 2, 12.0]])
        assert sol == [5.0, 5.0, 3.0, 3.0, 1.0]
        assert self.prunes(sol, 5.0, 1) and not self.prunes(sol, 4.0, 1)
        assert self.prunes(sol, 3.0, 3) and not self.prunes(sol, 2.9, 3)

    def test_lookup_past_the_largest_turn_count(self):
        sol = _least_v([[5.0, 0, 10.0], [3.0, 2, 12.0]])
        assert len(sol) == 3
        assert self.prunes(sol, 3.0, 99) and not self.prunes(sol, 2.9, 99)

    def test_empty_table_before_the_first_solution(self):
        sol = _least_v([])
        assert sol == [math.inf]
        assert not any(self.prunes(sol, 1e300, n) for n in (0, 1, 99))

    def test_rebuild_after_a_tie_removes_a_solution(self):
        # Chains of crafted moves lead from S = (0, 0), heading 45, to
        # G = (3, 3), any heading; phi is 0 except at the first position
        # after S of each chain, and h3 is admissible on every chain.  The
        # goal labels pop as A (V 1, N 1, D 1 + s + s + s, s = sqrt 2), then
        # B (V 1 + FLOAT_TOL / 2, N 0, D s + s + 1 + s, one ulp longer by the
        # order of its axis and diagonal steps), which equals A up to
        # FLOAT_TOL in V and D with a turn fewer and so removes it, then C
        # (V 1 - 0.7 FLOAT_TOL, N 2, D 4 + s), which A would prune
        # (1 <= V_C + FLOAT_TOL) and B does not.  C's goal label is generated
        # at key 4 + 1, before A pops, so only the table can prune it.  A
        # table that kept A's V would drop C.
        eps = FLOAT_TOL
        chains = [[((0, 0), 0), ((1, 4), 45), ((2, 5), 135), ((2, 4), 225), ((3, 3), 0)],
                  [((0, 0), 45), ((5, 5), 45), ((3, 5), 90), ((4, 4), 315), ((3, 3), 45)],
                  [((0, 0), 90), ((2, 0), 0), ((3, 0), 90), ((3, 1), 90), ((3, 2), 90)],
                  [((3, 2), 45), ((3, 3), 90)]]  # C after its rotation at (3, 2)
        phi = dict.fromkeys(sorted({pos for chain in chains for pos, _ in chain}), 0.0)
        phi.update({(1, 4): 1.0, (5, 5): 1.0 + eps / 2, (2, 0): 1.0 - 0.7 * eps})
        first_id = {pos: 8 * p for p, pos in enumerate(phi)}
        moves = [-1] * (8 * len(phi))
        for chain in chains:
            for (p, h), (q, k) in zip(chain, chain[1:]):
                moves[first_id[p] + HEADINGS.index(h)] = first_id[q] + HEADINGS.index(k)
        g = LatticeGraph(1.0, 6, 6, phi, moves)
        start, goal = LatticeNode(0, 0, 45), GoalSpec(3, 3)
        front = plan_pareto(g, start, goal)
        s = SQRT2
        assert [c.as_tuple() for c in front.costs()] == [
            (1.0 + eps / 2, 0, s + s + 1 + s), (1.0 - 0.7 * eps, 2, 4 + s)]
        assert 1 + s + s + s < s + s + 1 + s <= 1 + s + s + s + eps
        assert [p[-1] for _, p in front.entries] == [LatticeNode(3, 3, 45),
                                                     LatticeNode(3, 3, 90)]
        assert_same_search(g, start, goal)
        # without B, A stands and prunes C
        moves[first_id[(0, 0)] + HEADINGS.index(45)] = -1
        assert [c.as_tuple() for c in plan_pareto(g, start, goal).costs()] == [
            (1.0, 1, 1 + s + s + s)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 10), st.integers(0, 8), st.floats(0, 10)),
                    max_size=8),
           st.floats(0, 10), st.integers(0, 12))
    def test_equals_the_scan_when_d_is_bounded(self, solutions, f1, f2):
        # every solution was popped before the label, so its D is at most f3
        f3 = max((sg[2] for sg in solutions), default=0.0)
        scan = any(_prunes(sg, (f1, f2, f3)) for sg in solutions)
        assert self.prunes(_least_v(solutions), f1, f2) == scan


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

    def test_lengths_one_ulp_apart_are_one_length(self):
        # both paths are 1 + 2 sqrt(2) long, but their float sums differ in
        # the last bit; the search's pruning takes them as equal in D, so
        # (0.365.., 2, D) removes (1.115.., 4, D'), and the oracle must agree
        g = build_lattice(make_map(["....."] * 5), RobotModel(0.2, 1.0), 1.0)
        start, goal = LatticeNode(4, 0, 45), GoalSpec(2, 3, 90)
        want = [(0.36538461538461536, 2, 3.8284271247461903)]
        assert [c.as_tuple() for c in plan_pareto(g, start, goal).costs()] == want
        assert [c.as_tuple() for c in brute_force_front(g, start, goal).costs()] == want

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

    def test_two_translation_predecessors_rejected(self):
        # (0,0,0) and (1,0,0) both translate to (2,0,0): one inverse entry
        # would keep only the last source and give h1 = inf at (0,0), an
        # empty front although (0,0,0) -> (2,0,0) reaches the goal
        phi = {(0, 0): 0.0, (1, 0): 0.5, (2, 0): 0.0}
        moves = [-1] * 24
        moves[0] = moves[8] = 16
        g = LatticeGraph(1.0, 3, 1, phi, moves)
        message = (r"nodes LatticeNode\(ix=0, iy=0, heading=0\) and "
                   r"LatticeNode\(ix=1, iy=0, heading=0\) both translate to "
                   r"LatticeNode\(ix=2, iy=0, heading=0\)")
        with pytest.raises(PlanningError, match=message):
            _ideal_bounds(g, GoalSpec(2, 0))
        with pytest.raises(PlanningError, match=message):
            plan_pareto(g, LatticeNode(0, 0, 0), GoalSpec(2, 0))
        moves[8] = -1  # one predecessor: the path reaches the goal
        front = plan_pareto(LatticeGraph(1.0, 3, 1, phi, moves), LatticeNode(0, 0, 0),
                            GoalSpec(2, 0))
        assert [c.as_tuple() for c in front.costs()] == [(0.0, 0, 1.0)]

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

    def test_search_reads_only_phi_and_moves(self, monkeypatch):
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

        read = set()

        class Recorded(LatticeGraph):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        def refuse(graph, *args):
            raise AssertionError("plan_pareto read an edge row")
        monkeypatch.setattr(LatticeGraph, "neighbors", refuse)
        monkeypatch.setattr(LatticeGraph, "row", refuse)
        g.__class__ = Recorded
        front = plan_pareto(g, start, goal)
        g.__class__ = LatticeGraph
        # the edge data it reads: phi and moves, with delta and the steps
        # it fixes; node and node_id map the start and the paths
        assert read == {"phi", "moves", "delta", "steps", "node_id", "_first_id",
                        "node", "_positions"}
        meta = front.metadata
        assert front.entries == ref.entries
        assert len(front) > 0 and meta["front_size"] == len(front)
        assert meta["expanded"] == ref.metadata["expanded"] > 0
        assert meta["generated"] == ref.metadata["generated"]
        assert meta["pruned_at_node"] + meta["pruned_by_solution"] <= meta["generated"]
        assert meta["peak_open"] >= 1
