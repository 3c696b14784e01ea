"""Pareto dominance algebra and multiobjective label-setting A* over the lattice.

The search optimizes the componentwise sum g = (g1, g2, g3) of edge cost
vectors.  A label is pruned at generation when an existing label at the same
node is at least as good in every component (or equal up to tolerance).  Its
bound is f = (g1 + h1, g2 + h2, g3 + h3): h3 is the octile distance, and h1
and h2 are the least obstruction sum and the least turn count still needed
to reach the goal, each found on its own by a backward pass over reversed
edges (the ideal-point heuristic of NAMOA*, Mandow & Perez-de-la-Cruz 2010).
A node with no path to the goal has no bound and is never entered.  The open
list stays ordered by (g3 + h3, g2, g1), not by f: the path kept for a cost
vector is the first one generated, which depends on the pop order, so this
order keeps the representative paths.  With all edge costs non-negative and
no zero-cost cycles the search returns exactly the non-dominated
goal-reaching cost vectors, one representative path per distinct vector.

At pop and at generation, a label is pruned when a solution found so far is
at least as good as f in V and N: sol[min(f2, top)] <= f1 (_least_v).  As h3
is consistent and 0 at the goal, pop keys are non-decreasing up to rounding,
so every such solution has D' <= f3: the lazy dimensionality reduction of
NAMOA*dr (Pulido et al. 2015) and BOA* (Hernandez et al. 2023).  FLOAT_TOL
covers the rounding, about an ulp of f3 a step (a few steps at 1e6 m,
thousands at 1e3 m); past it, a D just above f3 can prune the label.

A label that a rotation reached (its parent is at the same position) is
expanded by its translation only; it never rotates twice in a row (the
successor pruning of Harabor & Grastien 2011, "Online graph pruning for
pathfinding on grid maps").  Rotations are all-to-all at a position and
each costs (phi, 1, 0), so when the parent was expanded it generated the
single rotation to every heading, at (phi, 1, 0) more than itself; the
double rotation to that heading costs (2 phi, 2, 0) more, which the single
one dominates, so the single rotation's label, or one that removed it,
already prunes it at the node, or a solution prunes both.  The gap:
tolerance dominance is not transitive, so when the single rotation's label
is removed by one up to FLOAT_TOL better, and that one by another, the
label that stands in for it can be worse by up to 2 FLOAT_TOL in g1 or g3,
and the skipped rotation might then have been kept.  The exhaustive oracle
test and the comparison with the former search in the tests check costs and
paths.

plan_pareto runs on the lattice's integer node ids (see pnav.lattice): it
reads phi and moves, keeps its labels, bounds and goal flags in lists
indexed by id, and builds nodes only for the paths it returns.  An expansion
prices its 7 rotations once and its translation once.  A label is [g1, g2,
g3, id, parent, live]; one scan of a child's node list finds a label that
prunes the child or the labels it removes, which are marked dead.

plan_pareto's front carries deterministic search counters in its metadata:
labels generated and expanded, labels pruned at a node and pruned by a
solution (at pop plus at generation), dead_ends (lattice nodes with no path
to the goal), peak_open (the largest open-list size) and front_size.
generated counts every edge out of each expanded label, skipped rotations
included, so it equals the count of a search without the skip;
pruned_at_node and pruned_by_solution count only the labels that are
actually built, so they do not count the skipped rotations.

brute_force_front is the independent oracle: exhaustive depth-first path
enumeration (no repeated (position, heading) state within a path), with
branch-and-bound pruning against already collected solutions.  It walks the
rows of LatticeGraph.row on integer ids, builds the nodes of its stored
paths as the search does, and shares only the lattice and the octile bound
with the search.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from collections import deque
from dataclasses import dataclass, field

from .lattice import HEADINGS, SQRT2, CostVector, LatticeGraph, LatticeNode

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


def costs_equal(a, b) -> bool:
    """Equality up to FLOAT_TOL on the float components; exact on the turn
    count."""
    a1, a2, a3 = _tup(a)
    b1, b2, b3 = _tup(b)
    return a2 == b2 and abs(a1 - b1) <= FLOAT_TOL and abs(a3 - b3) <= FLOAT_TOL


def _prunes(a: tuple, b: tuple) -> bool:
    """True if a dominates b or equals it up to FLOAT_TOL (b is redundant)."""
    return a[0] <= b[0] + FLOAT_TOL and a[1] <= b[1] and a[2] <= b[2] + FLOAT_TOL


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

    def __post_init__(self):
        if self.heading is not None and self.heading not in HEADINGS:
            raise ValueError(f"heading {self.heading} not in the 8-value set")

    def satisfied_by(self, node: LatticeNode) -> bool:
        return (node.ix == self.ix and node.iy == self.iy
                and (self.heading is None or node.heading == self.heading))


@dataclass
class ParetoFront:
    """Mutually non-dominated (cost, node path) entries plus query metadata."""

    entries: list[tuple[CostVector, list[LatticeNode]]]
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def costs(self) -> list[CostVector]:
        return [c for c, _ in self.entries]


def _sorted_front(solutions) -> list[tuple[CostVector, list[LatticeNode]]]:
    entries = [(CostVector(*g), path) for g, path in solutions]
    entries.sort(key=lambda e: (e[0].w3, e[0].w2, e[0].w1))
    return entries


def _goal_ids(graph: LatticeGraph, goal: GoalSpec) -> list[int]:
    """Ids of the nodes that satisfy the goal, ascending."""
    if (goal.ix, goal.iy) not in graph.phi:
        return []
    headings = HEADINGS if goal.heading is None else (goal.heading,)
    return [graph.node_id(LatticeNode(goal.ix, goal.iy, h)) for h in headings]


def _octile_bounds(graph: LatticeGraph, goal: GoalSpec) -> list[float]:
    """h3, indexed by node id: the octile distance from the node's position
    to the goal's, one octile per position for its 8 headings."""
    delta = graph.delta
    h3 = []
    for ix, iy in graph.phi:
        h3 += [octile((goal.ix - ix) * delta, (goal.iy - iy) * delta)] * len(HEADINGS)
    return h3


def _ideal_bounds(graph: LatticeGraph, goal: GoalSpec) -> tuple[list, list]:
    """(h1, h2), indexed by node id: the least obstruction sum and the least
    turn count still needed to reach a goal node, each minimised on its own
    by a backward pass over reversed edges.  Both are inf at a node with no
    path to the goal.  Rotations are all-to-all at a position, and `mover`,
    the inverse of moves, holds a node's one translation predecessor; a
    graph in which two nodes translate to one raises PlanningError.  An
    edge of either kind into u weighs phi(u) in h1.

    h1 is a Dijkstra pass on a heap.  h2 weighs a rotation 1 and a
    translation 0, so it is a 0-1 BFS: a translation predecessor joins the
    front of the deque at the same count, the rotation predecessors its back
    at one more, and the deque pops counts in non-decreasing order.  In both
    passes only the first heading settled at a position relaxes its
    rotations, to all 8 ids there (d + w >= d leaves u as it is): a later one
    settles at d' >= d, and fl(d' + w) >= fl(d + w) improves no distance."""
    moves = graph.moves
    mover = [-1] * len(moves)  # id -> the node whose translation leads to it
    for src, dst in enumerate(moves):
        if dst >= 0:
            if mover[dst] >= 0:
                raise PlanningError(f"nodes {graph.node(mover[dst])} and {graph.node(src)} "
                                    f"both translate to {graph.node(dst)}")
            mover[dst] = src
    phis = list(graph.phi.values())
    targets = _goal_ids(graph, goal)

    h1 = [math.inf] * len(moves)
    for t in targets:
        h1[t] = 0
    h2 = h1.copy()
    heap = [(0, t) for t in targets]
    turned = [False] * len(phis)  # by position: rotations relaxed
    while heap:
        d, u = heapq.heappop(heap)
        if d > h1[u]:
            continue
        nd = d + phis[u >> 3]
        if not turned[u >> 3]:
            turned[u >> 3] = True
            for v in range(u & ~7, (u & ~7) + 8):
                if nd < h1[v]:
                    h1[v] = nd
                    heapq.heappush(heap, (nd, v))
        p = mover[u]
        if p >= 0 and nd < h1[p]:
            h1[p] = nd
            heapq.heappush(heap, (nd, p))

    queue = deque((0, t) for t in targets)
    turned = [False] * len(phis)
    while queue:
        d, u = queue.popleft()
        if d > h2[u]:
            continue
        if not turned[u >> 3]:
            turned[u >> 3] = True
            nd = d + 1
            for v in range(u & ~7, (u & ~7) + 8):
                if nd < h2[v]:
                    h2[v] = nd
                    queue.append((nd, v))
        p = mover[u]
        if p >= 0 and d < h2[p]:
            h2[p] = d
            queue.appendleft((d, p))
    return h1, h2


def _least_v(solutions: list) -> list[float]:
    """sol[n], n up to top, the largest g2: the least g1 of solutions with g2 <= n."""
    sol = [math.inf] * (max((sg[1] for sg in solutions), default=0) + 1)
    for g1, g2, *_ in solutions:
        sol[g2] = min(sol[g2], g1)
    return list(itertools.accumulate(sol, min))


def _path(label, graph: LatticeGraph) -> list[LatticeNode]:
    """The node path of a label chain (see plan_pareto)."""
    out = []
    while label is not None:
        out.append(graph.node(label[3]))
        label = label[4]
    out.reverse()
    return out


def _check_query(graph: LatticeGraph, start: LatticeNode, goal: GoalSpec) -> None:
    """PlanningError unless start and goal's position lie on the lattice."""
    if start not in graph:
        raise PlanningError("invalid start")
    if (goal.ix, goal.iy) not in graph.phi:
        raise PlanningError("invalid goal")


def plan_pareto(graph: LatticeGraph, start: LatticeNode, goal: GoalSpec) -> ParetoFront:
    """All non-dominated goal-reaching cost vectors with one path each.

    Goal labels across the 8 headings are pooled when the goal heading is
    free.  Deterministic for identical inputs.  The front's metadata holds
    the search counters described in the module docstring.  A graph in
    which two nodes translate to one raises PlanningError.
    """
    _check_query(graph, start, goal)

    moves, steps = graph.moves, graph.steps
    phis = list(graph.phi.values())
    H1, H2 = _ideal_bounds(graph, goal)
    H3 = _octile_bounds(graph, goal)
    goal_ids = set(_goal_ids(graph, goal))
    inf, tol = math.inf, FLOAT_TOL
    heappush, heappop = heapq.heappush, heapq.heappop

    s = graph.node_id(start)
    # a label is [g1, g2, g3, node id, parent label, live]; live is cleared
    # when a dominator removes the label from its node's list
    root = [0.0, 0, 0.0, s, None, True]
    # empty at once when the start has no path to the goal
    open_heap = [(H3[s], 0, 0.0, 0, root)] if H1[s] < inf else []
    tick = 0  # the push count: ties pop in push order
    # per node id: the non-dominated labels known there (open or expanded)
    labels: list[list] = [[] for _ in moves]
    labels[s].append(root)
    solutions: list[list] = []  # goal labels
    sol = _least_v(solutions)  # [inf]: prunes nothing
    top = len(sol) - 1
    generated = expanded = at_node = by_solution = 0
    peak_open = len(open_heap)

    # Inlined below: _prunes(old, child) and its converse, and min(n, top).
    while open_heap:
        lab = heappop(open_heap)[4]
        if not lab[5]:  # removed by a dominator
            continue
        g1, g2, g3, u, parent, _ = lab
        n = g2 + H2[u]
        if sol[n if n < top else top] <= (g1 + H1[u]) + tol:
            by_solution += 1
            continue

        if u in goal_ids:
            solutions[:] = [sg for sg in solutions if not _prunes(lab, sg)]
            solutions.append(lab)
            sol = _least_v(solutions)
            top = len(sol) - 1
            # any extension strictly worsens some component; no expansion
            continue

        expanded += 1
        m = moves[u]
        generated += 7 + (m >= 0)
        # the rotations, unless a rotation reached the label, then the translation
        groups = [] if parent is not None and parent[3] >> 3 == u >> 3 else [
            (g1 + phis[u >> 3], g2 + 1, g3, [v for v in range(u & ~7, (u | 7) + 1) if v != u])]
        if m >= 0:
            groups.append((g1 + phis[m >> 3], g2, g3 + steps[u & 7], (m,)))
        for a, b, c, dsts in groups:
            a_tol, c_tol = a + tol, c + tol
            for v in dsts:
                h1 = H1[v]
                if h1 == inf:  # v cannot reach the goal
                    continue
                existing = labels[v]
                dead = []
                for old in existing:
                    if old[0] <= a_tol and old[1] <= b and old[2] <= c_tol:
                        at_node += 1
                        break
                    if a <= old[0] + tol and b <= old[1] and c <= old[2] + tol:
                        dead.append(old)
                else:
                    n = b + H2[v]
                    if sol[n if n < top else top] <= (a + h1) + tol:
                        by_solution += 1
                        continue
                    if dead:
                        for old in dead:
                            old[5] = False
                        existing[:] = [old for old in existing if old[5]]
                    child = [a, b, c, v, lab, True]
                    existing.append(child)
                    tick += 1
                    heappush(open_heap, (c + H3[v], b, a, tick, child))
        if len(open_heap) > peak_open:
            peak_open = len(open_heap)

    entries = _sorted_front([(sl[:3], _path(sl, graph)) for sl in solutions])
    metadata = {"generated": generated, "expanded": expanded,
                "pruned_at_node": at_node, "pruned_by_solution": by_solution,
                "dead_ends": H1.count(inf), "peak_open": peak_open,
                "front_size": len(entries)}
    return ParetoFront(entries, metadata=metadata)


def brute_force_front(graph: LatticeGraph, start: LatticeNode, goal: GoalSpec) -> ParetoFront:
    """Oracle: depth-first enumeration of paths that never revisit a
    (position, heading) state, keeping goal-reaching cost vectors and
    filtering them with the search's own pruning relation, so that the
    oracle and the search call the same vectors dominated.

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
    _check_query(graph, start, goal)

    H3 = _octile_bounds(graph, goal)
    targets = set(_goal_ids(graph, goal))
    # deterministic successor order biased toward the goal so pruning bites
    # early: nearer first, translations before rotations, then by heading
    succ = [sorted(graph.row(i), key=lambda e: (H3[e[0]], e[2] == 1, e[0] % 8))
            for i in range(len(graph))]
    solutions: list[tuple[tuple, list[LatticeNode]]] = []

    s = graph.node_id(start)
    path = [s]
    on_path = [False] * len(graph)
    on_path[s] = True
    seen: list[list[tuple]] = [[] for _ in succ]

    def visit(u: int, g: tuple):
        f = (g[0], g[1], g[2] + H3[u])
        if any(_prunes(sg, f) for sg, _ in solutions):
            return
        known = seen[u]
        if any(_prunes(old, g) for old in known):
            return
        known[:] = [old for old in known if not _prunes(g, old)]
        known.append(g)
        if u in targets:
            solutions.append((g, [graph.node(i) for i in path]))
            return
        for v, w1, w2, w3 in succ[u]:
            if on_path[v]:
                continue
            path.append(v)
            on_path[v] = True
            visit(v, (g[0] + w1, g[1] + w2, g[2] + w3))
            on_path[v] = False
            path.pop()

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, len(graph) * 4 + 100))
    try:
        visit(s, (0.0, 0, 0.0))
    finally:
        sys.setrecursionlimit(old_limit)

    # keep the first-discovered path of each vector, then drop each vector
    # that another prunes as the search prunes, FLOAT_TOL included: two
    # lengths equal in exact arithmetic can differ by an ulp as float sums
    first: list[tuple[tuple, list[LatticeNode]]] = []
    for g, p in solutions:
        if not any(costs_equal(h, g) for h, _ in first):
            first.append((g, p))
    front = [(g, p) for i, (g, p) in enumerate(first)
             if not any(j != i and _prunes(h, g) for j, (h, _) in enumerate(first))]
    return ParetoFront(_sorted_front(front))
