"""Seeded geometric RRT baseline with best-of-N selection.

Plain RRT in the plane with straight-line steering; no kinematic
constraints.  Candidate paths from N seeded reruns are ranked by the number
of curvature sign changes (fewest wins), then by length, then by seed, which
keeps the whole procedure reproducible.

rrt_plan draws the samples of _NN_BLOCK iterations at a time, finds each
one's nearest among the nodes the tree held when the block started with one
distance matrix, then scans the nodes added since, which replace it only
when strictly nearer.  That builds the tree the one-sample-at-a-time loop
builds: the sample stream does not depend on the tree (a goal-bias draw,
then two coordinate draws unless it picks the goal), every squared distance
comes from the same float operations, and the lowest index wins a tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gridmap import RobotModel, WorkspaceMap, footprint_free, swept_footprint_free
from .validate import finite_number

COLLINEAR_EPS = 1e-9
# Uniforms rrt_plan draws from its Generator at a time; fixed, so memory does
# not grow with max_iterations.
_UNIFORM_BLOCK = 256
# Iterations whose samples rrt_plan draws, and whose nearest old nodes it
# finds with one distance matrix, at a time.
_NN_BLOCK = 16


@dataclass(frozen=True)
class RrtParams:
    """A run's settings.  step_size is also the goal tolerance: a node that
    close to the goal, with a free sweep to it, ends the run."""

    step_size: float
    goal_bias: float = 0.05
    max_iterations: int = 20000
    seed: int = 0

    def __post_init__(self):
        finite_number(self.step_size, "step_size", positive=True)
        if not 0.0 <= finite_number(self.goal_bias, "goal_bias") <= 1.0:
            raise ValueError("goal_bias must be in [0, 1]")
        finite_number(self.max_iterations, "max_iterations", positive=True, integer=True)
        if finite_number(self.seed, "seed", integer=True) < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class PolyPath:
    """Piecewise-linear path; consecutive vertices distinct, segments collision-free."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.vertices) < 1:
            raise ValueError("path needs at least one vertex")
        for a, b in zip(self.vertices, self.vertices[1:]):
            if a == b:
                raise ValueError("consecutive vertices must be distinct")

    def length(self) -> float:
        return sum(math.hypot(b[0] - a[0], b[1] - a[1])
                   for a, b in zip(self.vertices, self.vertices[1:]))


def rrt_plan(wmap: WorkspaceMap, model: RobotModel,
             start: tuple[float, float], goal: tuple[float, float],
             params: RrtParams) -> PolyPath | None:
    """Single seeded RRT run; None when max_iterations is exhausted."""
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
    uniform = _uniforms(rng).__next__

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

    for first in range(0, params.max_iterations, _NN_BLOCK):
        samples = []
        for _ in range(min(_NN_BLOCK, params.max_iterations - first)):
            if uniform() < params.goal_bias:
                samples.append(goal)
            else:
                samples.append((xmin + uniform() * (xmax - xmin),
                                ymin + uniform() * (ymax - ymin)))
        # each sample's nearest among the nodes held when the block starts
        m = len(nodes)
        sxy = np.array(samples, dtype=float)
        d2 = (xs[:m] - sxy[:, :1]) ** 2 + (ys[:m] - sxy[:, 1:]) ** 2
        for sample, near_idx, near_d2 in zip(samples, d2.argmin(axis=1).tolist(),
                                             d2.min(axis=1).tolist()):
            near_idx, near_d2 = _nearest(nodes, m, sample, near_idx, near_d2)
            near = nodes[near_idx]
            dist = math.sqrt(near_d2)
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
            n = len(nodes)
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


def _nearest(nodes: list, first: int, sample: tuple[float, float],
             idx: int, d2: float) -> tuple[int, float]:
    """The nearest of nodes to sample and its squared distance, given idx,
    the nearest of nodes[:first], at squared distance d2.  A later node
    replaces it only when strictly nearer, so the lowest index wins a tie,
    as an argmin over all the nodes does."""
    sx, sy = sample
    for j in range(first, len(nodes)):
        dx = nodes[j][0] - sx
        dy = nodes[j][1] - sy
        e = dx * dx + dy * dy
        if e < d2:
            idx, d2 = j, e
    return idx, d2


def _uniforms(rng: np.random.Generator):
    """rng's stream of uniforms on [0, 1), drawn in blocks: the values and
    order of repeated rng.random() calls, at a fraction of their cost."""
    while True:
        yield from rng.random(_UNIFORM_BLOCK).tolist()


def curvature_sign_changes(path: PolyPath) -> int:
    """Count sign alternations of the turn direction along the polyline.

    Turn direction at an interior vertex is the sign of the cross product of
    the unit directions of the adjoining segments; collinear triples carry no
    sign and do not reset the last one seen.  A path of one or two vertices
    has no interior vertex, so 0.
    """
    verts = path.vertices
    changes = 0
    last_sign = 0
    for i in range(1, len(verts) - 1):
        ax, ay = verts[i][0] - verts[i - 1][0], verts[i][1] - verts[i - 1][1]
        bx, by = verts[i + 1][0] - verts[i][0], verts[i + 1][1] - verts[i][1]
        na = math.hypot(ax, ay)
        nb = math.hypot(bx, by)
        cross = (ax * by - ay * bx) / (na * nb)
        if abs(cross) <= COLLINEAR_EPS:
            continue
        sign = 1 if cross > 0 else -1
        if last_sign != 0 and sign != last_sign:
            changes += 1
        last_sign = sign
    return changes


def best_of_n(wmap: WorkspaceMap, model: RobotModel,
              start: tuple[float, float], goal: tuple[float, float],
              params: RrtParams, n: int) -> PolyPath | None:
    """Run seeds seed..seed+n-1 and return the success with the fewest
    curvature sign changes; ties go to the shorter path, then the lower seed.
    None when every run failed."""
    finite_number(n, "n", positive=True, integer=True)
    best = None
    best_key = None
    for k in range(n):
        p = replace(params, seed=params.seed + k)
        path = rrt_plan(wmap, model, start, goal, p)
        if path is None:
            continue
        key = (curvature_sign_changes(path), path.length(), p.seed)
        if best_key is None or key < best_key:
            best, best_key = path, key
    return best
