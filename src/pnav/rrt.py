"""Seeded geometric RRT baseline with best-of-N selection.

Plain RRT in the plane with straight-line steering; no kinematic
constraints.  Candidate paths from N seeded reruns are ranked by the number
of curvature sign changes (fewest wins), then by length, then by seed, which
keeps the whole procedure reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .gridmap import RobotModel, WorkspaceMap, footprint_free, swept_footprint_free
from .validate import finite_number

COLLINEAR_EPS = 1e-9
# Uniforms rrt_plan draws from its Generator at a time; fixed, so memory does
# not grow with max_iterations.
_UNIFORM_BLOCK = 256


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


@dataclass
class RrtFailure:
    """Per-seed record of unsuccessful attempts."""

    attempts: list[dict] = field(default_factory=list)


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
        return PolyPath((start, goal)) if goal != start else PolyPath((start,))

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


def curvature_sign_changes(path: PolyPath) -> int:
    """Count sign alternations of the turn direction along the polyline.

    Turn direction at an interior vertex is the sign of the cross product of
    the unit directions of the adjoining segments; collinear triples carry no
    sign and do not reset the last one seen.
    """
    verts = path.vertices
    if len(verts) < 2:
        raise ValueError("path needs at least 2 vertices")
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
              params: RrtParams, n: int) -> PolyPath | RrtFailure:
    """Run seeds seed..seed+n-1 and return the success with the fewest
    curvature sign changes; ties go to the shorter path, then the lower seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    best = None
    best_key = None
    failure = RrtFailure()
    for k in range(n):
        p = replace(params, seed=params.seed + k)
        path = rrt_plan(wmap, model, start, goal, p)
        if path is None:
            failure.attempts.append({"seed": p.seed, "ok": False})
            continue
        failure.attempts.append({"seed": p.seed, "ok": True})
        if len(path.vertices) >= 2:
            signs = curvature_sign_changes(path)
        else:
            signs = 0
        key = (signs, path.length(), p.seed)
        if best_key is None or key < best_key:
            best, best_key = path, key
    return best if best is not None else failure
