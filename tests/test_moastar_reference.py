"""plan_pareto and brute_force_front against the code they replaced.

The search now runs on integer node ids over the lattice's phi and moves.
reference_plan_pareto below is the former search, on LatticeNode keys and
LatticeEdge objects, copied verbatim together with its _Label,
_ideal_bounds, _distance_bound and heuristic.  The adaptations: the former
_ideal_bounds read the edges through a LatticeGraph.adjacency() iterator
that no longer exists, and here reads them through neighbors() in node
order, which yields the same pairs; the return line no longer passes the
start, goal and delta fields that ParetoFront has dropped.  The lines marked
"# twice" are added: they count, for each rotation out of a label that a
rotation reached, whether it was pruned at the node or by a solution, and
assert that it is never kept.

Today's search never generates those rotations (see pnav.moastar).  Both
must agree exactly: the repr of every cost component, every node path, and
the metadata dict, in which today's pruned_at_node and pruned_by_solution
are the reference's less the rotations it counted.  The maps include
phi = 0 everywhere and decimal phi values, where labels tie within
FLOAT_TOL and the first generated label must win, dyadic phi values, where
they tie exactly, free and fixed goal headings, and starts with no path to
the goal.

reference_brute_force_front is the former exhaustive oracle, which walked
neighbors() edge objects, copied verbatim but for its name and the same
return-line adaptation.  The oracle now walks LatticeGraph.row on integer
ids; both must give the same entries: the repr of every cost component and every
node path.

former_row_bounds is the _ideal_bounds that followed, on integer ids: it
copied every edge of the rows that the lattice stored then once more into
reversed predecessor lists, where today's reads the predecessors off phi
and moves.  It reads those rows as conftest.former_rows rebuilds them, and
is otherwise verbatim.  Both must give equal h1 and h2 lists, down to their
repr.
"""

import heapq
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnav.lattice
import pnav.moastar
from pnav.fixtures import MUSEUM_DELTA, MUSEUM_GOAL, MUSEUM_START, museum_map, museum_model
from pnav.gridmap import RobotModel
from pnav.lattice import HEADINGS, CostVector, LatticeGraph, LatticeNode, build_lattice
from pnav.moastar import (BRUTE_FORCE_NODE_GUARD, GoalSpec, ParetoFront, PlanningError,
                          _goal_ids, _prunes, _sorted_front, brute_force_front,
                          costs_equal, octile, pareto_filter, plan_pareto)

from conftest import former_rows, make_map


# -- the former search, verbatim ----------------------------------------------


def heuristic(node: LatticeNode, goal: GoalSpec, delta: float) -> CostVector:
    """Admissible componentwise lower bound: (0, 0, octile distance)."""
    dx = (goal.ix - node.ix) * delta
    dy = (goal.iy - node.iy) * delta
    return CostVector(0.0, 0, octile(dx, dy))


def _distance_bound(goal: GoalSpec, delta: float):
    """node -> heuristic(node, goal, delta).w3, cached per position."""
    cache: dict[tuple[int, int], float] = {}

    def h3(node: LatticeNode) -> float:
        key = (node.ix, node.iy)
        val = cache.get(key)
        if val is None:
            val = cache[key] = heuristic(node, goal, delta).w3
        return val
    return h3




class _Label:
    __slots__ = ("g", "node", "parent")

    def __init__(self, g, node, parent):
        self.g = g
        self.node = node
        self.parent = parent

    def path(self) -> list[LatticeNode]:
        out = []
        lab = self
        while lab is not None:
            out.append(lab.node)
            lab = lab.parent
        out.reverse()
        return out


def _ideal_bounds(graph: LatticeGraph, goal: GoalSpec) -> dict[LatticeNode, tuple[float, int]]:
    """node -> (h1, h2): the least obstruction sum and the least turn count
    still needed to reach a goal node, each minimised on its own by a
    backward Dijkstra pass over reversed edges.  Nodes with no path to the
    goal are absent."""
    nodes = list(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    # integer ids, so heap ties never compare LatticeNode dataclasses
    preds: list[list[tuple[int, float, int]]] = [[] for _ in nodes]
    for node, edges in ((node, graph.neighbors(node)) for node in graph.nodes):
        src = index[node]
        for e in edges:
            preds[index[e.dst]].append((src, e.cost.w1, e.cost.w2))
    targets = [i for i, node in enumerate(nodes) if goal.satisfied_by(node)]

    def backward(k: int) -> list:
        dist = [math.inf] * len(nodes)
        for t in targets:
            dist[t] = 0
        heap = [(0, t) for t in targets]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for p in preds[u]:
                nd = d + p[k]
                if nd < dist[p[0]]:
                    dist[p[0]] = nd
                    heapq.heappush(heap, (nd, p[0]))
        return dist

    h1, h2 = backward(1), backward(2)
    return {nodes[i]: (a, b) for i, (a, b) in enumerate(zip(h1, h2)) if a < math.inf}


def reference_plan_pareto(graph: LatticeGraph, start: LatticeNode, goal: GoalSpec) -> ParetoFront:
    """All non-dominated goal-reaching cost vectors with one path each.

    Goal labels across the 8 headings are pooled when the goal heading is
    free.  Deterministic for identical inputs.  The front's metadata holds
    the search counters described in the module docstring.
    """
    if start not in graph:
        raise PlanningError("invalid start")
    if not (0 <= goal.ix < graph.nx and 0 <= goal.iy < graph.ny):
        raise PlanningError("invalid goal")

    delta = graph.delta
    h3 = _distance_bound(goal, delta)
    bounds = _ideal_bounds(graph, goal)
    counter = itertools.count()
    root = _Label((0.0, 0, 0.0), start, None)
    # empty at once when the start has no path to the goal
    open_heap = [(h3(start), 0, 0.0, next(counter), root)] if start in bounds else []
    # non-dominated g-vectors known per node (open or expanded)
    node_labels: dict[LatticeNode, list[tuple]] = {start: [root.g]}
    solutions: list[tuple[tuple, list[LatticeNode]]] = []
    generated = expanded = at_node = by_solution = 0
    twice_at_node = twice_by_solution = 0  # twice
    peak_open = len(open_heap)

    def solution_prunes(f: tuple) -> bool:
        return any(_prunes(s, f) for s, _ in solutions)

    while open_heap:
        _, _, _, _, lab = heapq.heappop(open_heap)
        g = lab.g
        node = lab.node
        if g not in node_labels.get(node, ()):  # removed by a dominator
            continue
        h1, h2 = bounds[node]
        if solution_prunes((g[0] + h1, g[1] + h2, g[2] + h3(node))):
            by_solution += 1
            continue

        if goal.satisfied_by(node):
            solutions[:] = [(s, p) for s, p in solutions if not _prunes(g, s)]
            solutions.append((g, lab.path()))
            # any extension strictly worsens some component; no expansion
            continue

        edges = graph.neighbors(node)
        expanded += 1
        generated += len(edges)
        turned = (lab.parent is not None  # twice
                  and (lab.parent.node.ix, lab.parent.node.iy) == (node.ix, node.iy))  # twice
        for edge in edges:
            dst = edge.dst
            h = bounds.get(dst)
            if h is None:  # dst cannot reach the goal
                continue
            twice = turned and edge.kind == "A"  # twice
            c = edge.cost
            g2 = (g[0] + c.w1, g[1] + c.w2, g[2] + c.w3)
            existing = node_labels.setdefault(dst, [])
            if any(_prunes(old, g2) for old in existing):
                at_node += 1
                twice_at_node += twice  # twice
                continue
            f3 = g2[2] + h3(dst)
            if solution_prunes((g2[0] + h[0], g2[1] + h[1], f3)):
                by_solution += 1
                twice_by_solution += twice  # twice
                continue
            assert not twice, f"a second rotation in a row was kept at {dst}"  # twice
            existing[:] = [old for old in existing if not _prunes(g2, old)]
            existing.append(g2)
            child = _Label(g2, dst, lab)
            heapq.heappush(open_heap, (f3, g2[1], g2[0], next(counter), child))
            if len(open_heap) > peak_open:
                peak_open = len(open_heap)

    entries = _sorted_front(solutions)
    metadata = {"generated": generated, "expanded": expanded,
                "pruned_at_node": at_node, "pruned_by_solution": by_solution,
                "dead_ends": len(graph) - len(bounds), "peak_open": peak_open,
                "front_size": len(entries),
                "twice_at_node": twice_at_node, "twice_by_solution": twice_by_solution}  # twice
    return ParetoFront(entries, metadata=metadata)


# -- the former oracle, verbatim ------------------------------------------------


def reference_brute_force_front(graph: LatticeGraph, start: LatticeNode, goal: GoalSpec) -> ParetoFront:
    """Oracle: depth-first enumeration of paths that never revisit a
    (position, heading) state, keeping goal-reaching cost vectors and
    Pareto-filtering them.

    Two prunings keep it tractable without changing the returned vector set,
    both sound because edge costs are non-negative and every cycle strictly
    increases a component (rotations add a turn, translations add distance):
    a branch is cut when its cost plus the octile lower bound is matched or
    beaten by a known solution, or when an earlier partial path reached the
    same state no worse in every component (any completion of the current
    branch appended to that earlier prefix is a walk that decycles to a path
    at least as good).  Refuses graphs above the size guard.
    """
    if len(graph) > BRUTE_FORCE_NODE_GUARD:
        raise PlanningError(
            f"graph has {len(graph)} nodes, above the brute-force guard "
            f"of {BRUTE_FORCE_NODE_GUARD}")
    if start not in graph:
        raise PlanningError("invalid start")
    if not (0 <= goal.ix < graph.nx and 0 <= goal.iy < graph.ny):
        raise PlanningError("invalid goal")

    delta = graph.delta
    h3 = _distance_bound(goal, delta)
    solutions: list[tuple[tuple, list[LatticeNode]]] = []

    # deterministic successor order biased toward the goal so pruning bites early
    succ_cache: dict[LatticeNode, list] = {}

    def successors(node: LatticeNode):
        cached = succ_cache.get(node)
        if cached is None:
            edges = list(graph.neighbors(node))
            edges.sort(key=lambda e: (h3(e.dst), e.kind == "A", e.dst.heading))
            cached = edges
            succ_cache[node] = cached
        return cached

    path: list[LatticeNode] = [start]
    on_path = {start}
    seen: dict[LatticeNode, list[tuple]] = {}

    def visit(node: LatticeNode, g: tuple):
        f = (g[0], g[1], g[2] + h3(node))
        if any(_prunes(s, f) for s, _ in solutions):
            return
        known = seen.setdefault(node, [])
        if any(_prunes(old, g) for old in known):
            return
        known[:] = [old for old in known if not _prunes(g, old)]
        known.append(g)
        if goal.satisfied_by(node):
            solutions.append((g, list(path)))
            return
        for edge in successors(node):
            if edge.dst in on_path:
                continue
            c = edge.cost
            g2 = (g[0] + c.w1, g[1] + c.w2, g[2] + c.w3)
            path.append(edge.dst)
            on_path.add(edge.dst)
            visit(edge.dst, g2)
            on_path.discard(edge.dst)
            path.pop()

    import sys
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, len(graph) * 4 + 100))
    try:
        visit(start, (0.0, 0, 0.0))
    finally:
        sys.setrecursionlimit(old_limit)

    # keep the first-discovered path for each surviving vector
    front = []
    for v in pareto_filter([CostVector(*g) for g, _ in solutions]):
        for g, p in solutions:
            if costs_equal(v, g):
                front.append((g, p))
                break
    return ParetoFront(_sorted_front(front))


def former_row_bounds(graph: LatticeGraph, goal: GoalSpec) -> tuple[list, list]:
    """(h1, h2), indexed by node id: the least obstruction sum and the least
    turn count still needed to reach a goal node, each minimised on its own
    by a backward Dijkstra pass over reversed edges.  Both are inf at a node
    with no path to the goal."""
    rows = former_rows(graph)
    preds: list[list[tuple[int, float, int]]] = [[] for _ in rows]
    for src, row in enumerate(rows):
        for dst, w1, w2, _ in row:
            preds[dst].append((src, w1, w2))
    targets = _goal_ids(graph, goal)

    def backward(k: int) -> list:
        dist = [math.inf] * len(rows)
        for t in targets:
            dist[t] = 0
        heap = [(0, t) for t in targets]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for p in preds[u]:
                nd = d + p[k]
                if nd < dist[p[0]]:
                    dist[p[0]] = nd
                    heapq.heappush(heap, (nd, p[0]))
        return dist

    return backward(1), backward(2)


# -- the comparison -------------------------------------------------------------


def assert_same_search(graph, start, goal):
    got = plan_pareto(graph, start, goal)
    ref = reference_plan_pareto(graph, start, goal)
    assert ([(repr(c.w1), repr(c.w2), repr(c.w3)) for c in got.costs()]
            == [(repr(c.w1), repr(c.w2), repr(c.w3)) for c in ref.costs()])
    assert [path for _, path in got.entries] == [path for _, path in ref.entries]
    expected = dict(ref.metadata)
    expected["pruned_at_node"] -= expected.pop("twice_at_node")
    expected["pruned_by_solution"] -= expected.pop("twice_by_solution")
    assert got.metadata == expected
    return ref


# phi per position: "map" keeps the obstruction ratio of the map; the others
# replace it by draws from a fixed set, taken from the test's seeded stream
PHI_VALUES = {"zero": (0.0,), "dyadic": (0.0, 0.25, 0.5, 0.75, 1.0),
              "decimal": (0.0, 0.1, 0.2, 0.3, 0.7)}


def lattice_with_phi(monkeypatch, wmap, model, delta, phi_mode, rng):
    if phi_mode != "map":
        values = PHI_VALUES[phi_mode]
        monkeypatch.setattr(pnav.lattice, "obstruction_ratios",
                            lambda wmap, xy, r: np.array([rng.choice(values) for _ in xy]))
    try:
        return build_lattice(wmap, model, delta)
    finally:
        monkeypatch.undo()


def random_rows(rng, w, h, density):
    return ["".join("#" if rng.random() < density else "." for _ in range(w))
            for _ in range(h)]


@pytest.mark.parametrize("phi_mode", ["map", "zero", "dyadic", "decimal"])
def test_matches_the_former_search_on_random_maps(monkeypatch, phi_mode):
    rng = random.Random(f"reference-{phi_mode}")
    totals = dict.fromkeys(["front", "unreachable", "fixed", "free", "at_node"], 0)
    for _ in range(30):
        w, h = rng.randint(3, 12), rng.randint(3, 9)
        model = RobotModel(footprint_radius=rng.choice([0.2, 0.3]),
                           camera_clearance_radius=rng.choice([0.4, 1.2, 2.0]))
        rows = random_rows(rng, w, h, rng.choice([0.1, 0.2, 0.3]))
        graph = lattice_with_phi(monkeypatch, make_map(rows), model, 1.0, phi_mode, rng)
        free = sorted(graph.phi)
        if not free:
            continue
        for _ in range(3):
            sp, gp = rng.choice(free), rng.choice(free)
            start = LatticeNode(*sp, rng.choice(HEADINGS))
            heading = rng.choice(HEADINGS) if rng.random() < 0.5 else None
            ref = assert_same_search(graph, start, GoalSpec(*gp, heading))
            totals["front"] += len(ref) > 0
            totals["unreachable"] += len(ref) == 0
            totals["fixed" if heading is not None else "free"] += 1
            totals["at_node"] += ref.metadata["pruned_at_node"]
    # the draws cover each kind of query
    assert totals["front"] >= 30 and totals["unreachable"] >= 3, totals
    assert totals["fixed"] >= 20 and totals["free"] >= 20, totals
    assert totals["at_node"] >= 1000, totals


def test_matches_the_former_search_on_larger_maps(monkeypatch):
    rng = random.Random(4096)
    for phi_mode in ("map", "zero", "decimal"):
        wmap = make_map(random_rows(rng, 24, 16, 0.1), resolution=0.5)
        graph = lattice_with_phi(monkeypatch, wmap, RobotModel(0.25, 1.5), 0.5,
                                 phi_mode, rng)
        free = sorted(graph.phi)
        ref = assert_same_search(graph, LatticeNode(*free[0], 45), GoalSpec(*free[-1]))
        assert len(ref) > 1 and ref.metadata["expanded"] > 200


def test_matches_the_former_search_on_museum():
    graph = build_lattice(museum_map(), museum_model(), MUSEUM_DELTA)
    start = LatticeNode(*MUSEUM_START)
    ref = assert_same_search(graph, start, GoalSpec(*MUSEUM_GOAL))
    assert len(ref) == 18
    assert_same_search(graph, start, GoalSpec(*MUSEUM_GOAL[:2], 90))


# a one-cell pocket at (2, 2) behind walls: its 8 nodes reach nothing else
POCKET = ["......",
          ".###..",
          ".#.#..",
          ".###..",
          "......"]


@pytest.mark.parametrize("start,goal", [
    ((2, 2, 90), (5, 4, None)),   # start inside the pocket
    ((0, 0, 0), (2, 2, None)),    # goal inside the pocket
    ((2, 2, 0), (2, 2, 180)),     # both inside: a front of rotations only
    ((0, 0, 0), (5, 4, 315)),
])
def test_matches_the_former_search_around_a_pocket(start, goal):
    graph = build_lattice(make_map(POCKET), RobotModel(0.2, 0.4), 1.0)
    assert_same_search(graph, LatticeNode(*start), GoalSpec(*goal))


# -- the oracle against the former edge-object walk -------------------------------


def test_oracle_matches_the_former_oracle_on_random_maps(monkeypatch):
    # maps of the 100-map oracle gate's sizes and densities, from another
    # seed, with three camera radii and the phi modes above for exact and
    # within-tolerance ties.  The oracle's time per map is heavy-tailed (one
    # 4x4 map can take 15 s); this seed's 100 maps take about 6 s for both.
    rng = random.Random("former-oracle-2")
    totals = dict.fromkeys(["several", "unreachable"], 0)
    for k in range(100):
        w, h = rng.randint(2, 5), rng.randint(2, 5)
        rows = random_rows(rng, w, h, rng.uniform(0.0, 0.30))
        model = RobotModel(footprint_radius=0.2,
                           camera_clearance_radius=rng.choice([0.4, 1.0, 1.2]))
        phi_mode = ("map", *PHI_VALUES)[k % 4]
        graph = lattice_with_phi(monkeypatch, make_map(rows), model, 1.0, phi_mode, rng)
        free = sorted(graph.phi)
        if not free:
            continue
        start = LatticeNode(*rng.choice(free), rng.choice(HEADINGS))
        goal = GoalSpec(*rng.choice(free), rng.choice([None, *HEADINGS]))
        got = brute_force_front(graph, start, goal)
        ref = reference_brute_force_front(graph, start, goal)
        assert ([(repr(c.w1), repr(c.w2), repr(c.w3)) for c in got.costs()]
                == [(repr(c.w1), repr(c.w2), repr(c.w3)) for c in ref.costs()])
        assert [path for _, path in got.entries] == [path for _, path in ref.entries]
        totals["several"] += len(ref) > 1
        totals["unreachable"] += len(ref) == 0
    assert totals["several"] >= 10 and totals["unreachable"] >= 2, totals


# -- the ideal-point bounds against the former reversed-edge copy ----------------


def assert_same_bounds(graph, goal):
    got, ref = pnav.moastar._ideal_bounds(graph, goal), former_row_bounds(graph, goal)
    assert got == ref
    assert repr(got) == repr(ref)  # 0 stays an int, 0.0 a float
    return ref


def test_bounds_match_the_former_copy_on_museum():
    graph = build_lattice(museum_map(), museum_model(), MUSEUM_DELTA)
    for heading in (None, *HEADINGS):
        assert_same_bounds(graph, GoalSpec(*MUSEUM_GOAL[:2], heading))
    assert_same_bounds(graph, GoalSpec(*MUSEUM_START[:2]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), phi_mode=st.sampled_from(["map", *PHI_VALUES]),
       w=st.integers(1, 10), h=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_bounds_match_the_former_copy_on_random_maps(data, phi_mode, w, h, seed):
    rng = random.Random(seed)
    model = RobotModel(footprint_radius=data.draw(st.sampled_from([0.2, 0.3])),
                       camera_clearance_radius=data.draw(st.sampled_from([0.4, 1.2, 2.0])))
    rows = random_rows(rng, w, h, data.draw(st.sampled_from([0.0, 0.1, 0.2, 0.3])))
    graph = lattice_with_phi(pytest.MonkeyPatch(), make_map(rows), model, 1.0, phi_mode, rng)
    gx, gy = data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, h - 1))
    heading = data.draw(st.sampled_from([None, *HEADINGS]))
    assert_same_bounds(graph, GoalSpec(gx, gy, heading))
