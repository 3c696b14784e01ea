"""Pareto dominance algebra and multiobjective label-setting A* over the lattice.

The search optimizes the componentwise sum g = (g1, g2, g3) of edge cost
vectors.  A label is pruned at generation when an existing label at the same
node is at least as good in every component (or equal up to tolerance).  It
is pruned at pop and at generation when an already found solution is at
least as good as its bound f = (g1 + h1, g2 + h2, g3 + h3): h3 is the octile
distance, and h1 and h2 are the least obstruction sum and the least turn
count still needed to reach the goal, each found on its own by a backward
Dijkstra pass over reversed edges (the ideal-point heuristic of NAMOA*,
Mandow & Perez-de-la-Cruz 2010).  A node with no path to the goal has no
bound and is never entered.  The open list stays ordered by
(g3 + h3, g2, g1), not by f: the path kept for a cost vector is the first
one generated, which depends on the pop order, so this order keeps the
representative paths.  With all edge costs non-negative and no zero-cost
cycles the search returns exactly the non-dominated goal-reaching cost
vectors, one representative path per distinct vector.

plan_pareto's front carries deterministic search counters in its metadata:
labels generated (one per edge of an expanded label) and expanded, labels
pruned at a node and pruned by a solution (at pop plus at generation),
dead_ends (lattice nodes with no path to the goal), peak_open (the largest
open-list size) and front_size.

brute_force_front is the independent oracle: exhaustive depth-first path
enumeration (no repeated (position, heading) state within a path), with
branch-and-bound pruning against already collected solutions.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

from .lattice import SQRT2, CostVector, LatticeGraph, LatticeNode

# Cost vectors closer than this (absolute, on the float components) are the
# same vector for the one-representative-per-vector rule.  w2 is exact.
FLOAT_TOL = 1e-9

BRUTE_FORCE_NODE_GUARD = 512


class PlanningError(ValueError):
    pass


def dominates(a: CostVector | tuple, b: CostVector | tuple) -> bool:
    """Strict Pareto dominance: a <= b in every component, < in at least one."""
    a1, a2, a3 = a.as_tuple() if isinstance(a, CostVector) else a
    b1, b2, b3 = b.as_tuple() if isinstance(b, CostVector) else b
    return (a1 <= b1 and a2 <= b2 and a3 <= b3
            and (a1 < b1 or a2 < b2 or a3 < b3))


def _tup(v) -> tuple[float, int, float]:
    return v.as_tuple() if isinstance(v, CostVector) else tuple(v)


def costs_equal(a, b, tol: float = FLOAT_TOL) -> bool:
    """Equality up to tol on the float components; exact on the turn count."""
    a1, a2, a3 = _tup(a)
    b1, b2, b3 = _tup(b)
    return a2 == b2 and abs(a1 - b1) <= tol and abs(a3 - b3) <= tol


def _prunes(a: tuple, b: tuple, tol: float = FLOAT_TOL) -> bool:
    """True if a dominates b or equals it up to tolerance (b is redundant)."""
    return a[0] <= b[0] + tol and a[1] <= b[1] and a[2] <= b[2] + tol


def pareto_filter(vectors: list[CostVector]) -> list[CostVector]:
    """Maximal non-dominated subset; duplicates collapse to the first
    occurrence and survivor order follows the input."""
    out: list[CostVector] = []
    for v in vectors:
        if any(dominates(u, v) or costs_equal(u, v) for u in out):
            continue
        out = [u for u in out if not dominates(v, u)]
        out.append(v)
    return out


def octile(dx: float, dy: float) -> float:
    """Shortest 8-connected travel distance for a displacement."""
    ax, ay = abs(dx), abs(dy)
    lo, hi = min(ax, ay), max(ax, ay)
    return hi - lo + SQRT2 * lo


@dataclass(frozen=True)
class GoalSpec:
    """Grid goal position; heading either fixed to one of the 8 values or free."""

    ix: int
    iy: int
    heading: int | None = None

    def satisfied_by(self, node: LatticeNode) -> bool:
        return (node.ix == self.ix and node.iy == self.iy
                and (self.heading is None or node.heading == self.heading))


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


@dataclass
class ParetoFront:
    """Mutually non-dominated (cost, node path) entries plus query metadata."""

    entries: list[tuple[CostVector, list[LatticeNode]]]
    start: LatticeNode | None = None
    goal: GoalSpec | None = None
    delta: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def costs(self) -> list[CostVector]:
        return [c for c, _ in self.entries]


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


def _sorted_front(solutions) -> list[tuple[CostVector, list[LatticeNode]]]:
    entries = [(CostVector(*g), path) for g, path in solutions]
    entries.sort(key=lambda e: (e[0].w3, e[0].w2, e[0].w1))
    return entries


def _ideal_bounds(graph: LatticeGraph, goal: GoalSpec) -> dict[LatticeNode, tuple[float, int]]:
    """node -> (h1, h2): the least obstruction sum and the least turn count
    still needed to reach a goal node, each minimised on its own by a
    backward Dijkstra pass over reversed edges.  Nodes with no path to the
    goal are absent."""
    nodes = list(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    # integer ids, so heap ties never compare LatticeNode dataclasses
    preds: list[list[tuple[int, float, int]]] = [[] for _ in nodes]
    for node, edges in graph.adjacency():
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


def plan_pareto(graph: LatticeGraph, start: LatticeNode, goal: GoalSpec) -> ParetoFront:
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
        for edge in edges:
            dst = edge.dst
            h = bounds.get(dst)
            if h is None:  # dst cannot reach the goal
                continue
            c = edge.cost
            g2 = (g[0] + c.w1, g[1] + c.w2, g[2] + c.w3)
            existing = node_labels.setdefault(dst, [])
            if any(_prunes(old, g2) for old in existing):
                at_node += 1
                continue
            f3 = g2[2] + h3(dst)
            if solution_prunes((g2[0] + h[0], g2[1] + h[1], f3)):
                by_solution += 1
                continue
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
                "front_size": len(entries)}
    return ParetoFront(entries, start=start, goal=goal, delta=delta, metadata=metadata)


def brute_force_front(graph: LatticeGraph, start: LatticeNode, goal: GoalSpec) -> ParetoFront:
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
    return ParetoFront(_sorted_front(front), start=start, goal=goal, delta=delta)
