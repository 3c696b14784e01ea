"""Golden digests of the lattice and the planner's front.

Refactors of the lattice, the collision test or the search must leave these
structures unchanged to the bit.  They hold only correctly rounded float
results (integer-count ratios, additions, sqrt), so the digests do not
depend on the platform.  Trajectories, which numpy evaluates, stay out.
RRT paths stay in: their vertices come from PCG64 uniforms and correctly
rounded arithmetic, and the nearest node from exact comparisons.
"""

import hashlib

import numpy as np
import pytest

from pnav.fixtures import (MUSEUM_DELTA, MUSEUM_GOAL, MUSEUM_GOAL_WORLD, MUSEUM_START,
                           MUSEUM_START_WORLD, museum_map, museum_model)
from pnav.gridmap import RobotModel, WorkspaceMap
from pnav.lattice import LatticeNode, build_lattice
from pnav.moastar import GoalSpec, plan_pareto
from pnav.rrt import PolyPath, RrtParams, best_of_n, rrt_plan


def _node(n):
    return (n.ix, n.iy, n.heading)


def edges_digest(graph) -> str:
    text = repr([(_node(n), [(_node(e.dst), e.kind, repr(e.cost.w1), repr(e.cost.w2),
                              repr(e.cost.w3)) for e in graph.neighbors(n)])
                 for n in graph.nodes])
    return hashlib.sha256(text.encode()).hexdigest()


def front_digest(front) -> str:
    text = repr([((repr(c.w1), repr(c.w2), repr(c.w3)), [_node(n) for n in path])
                 for c, path in front.entries])
    return hashlib.sha256(text.encode()).hexdigest()


def random_query():
    """A seeded 20 x 14 map of 0.5 m cells, 8% obstacles, lattice step 0.5 m.

    rho = 0.25 puts a node's disc exactly tangent to the sides of its
    axis-neighbour cells, so the collision test's tangency rule shows here."""
    occ = np.random.default_rng(20261018).random((14, 20)) < 0.08
    wmap = WorkspaceMap(20, 14, 0.5, (-1.25, 0.75), occ)
    graph = build_lattice(wmap, RobotModel(0.25, 1.5), 0.5)
    free = sorted(graph.phi)
    return graph, LatticeNode(*free[0], 0), GoalSpec(*free[-1])


@pytest.mark.parametrize("name,edges,front", [
    ("museum", "9d724d6933ffa38ff29021ca44b7fe0b1e0e105d5b55544f23d0234aa2b80660",
     "da73d56f62d2e06097f12aa867370ddd7fa2da945f3bf3aa2dbc7c255d4c63d1"),
    ("random", "dc75a782f574948cad72f09bf9a4061257ea813499768c881f85e6a0f60d6c71",
     "16e5d3e5c88cf394659487e28a600fa9e2bbe2bd77bda9fb04bf4444aa041ea7"),
])
def test_lattice_and_front_digests(name, edges, front):
    if name == "museum":
        graph = build_lattice(museum_map(), museum_model(), MUSEUM_DELTA)
        start, goal = LatticeNode(*MUSEUM_START), GoalSpec(*MUSEUM_GOAL)
    else:
        graph, start, goal = random_query()
    result = plan_pareto(graph, start, goal)
    assert (edges_digest(graph), front_digest(result)) == (edges, front)


def rrt_digest(result) -> str:
    """Of a PolyPath's vertices, or of an RrtFailure's attempts."""
    if isinstance(result, PolyPath):
        text = repr([(repr(x), repr(y)) for x, y in result.vertices])
    else:
        text = repr(result.attempts)
    return hashlib.sha256(text.encode()).hexdigest()


MUSEUM_RRT = (MUSEUM_START_WORLD[:2], MUSEUM_GOAL_WORLD)


@pytest.mark.parametrize("base,max_iterations,digest", [
    (0, 20000, "3ec3bb0a366b6c791a3dc49ffe1e0c19b18a278a3c57c1efd8b2518e73161f32"),
    (1000, 20000, "7e1fe75afa2371f83b4d503a82bd037c3a4b3f78ff7f4c47de80e46ed63adfb6"),
    (424242, 20000, "97c59d0fd06ff8dd9bccb10fcc304861ca7c7e80d5687823aac288580fe36c32"),
    # max_iterations 40: every run fails, and the result is an RrtFailure
    (77, 40, "443027d2a380eeb968230c585889d93d0d681b18c085f69b48a68f811febcf91"),
])
def test_rrt_best_of_n_digests(base, max_iterations, digest):
    params = RrtParams(step_size=1.0, max_iterations=max_iterations, seed=base)
    result = best_of_n(museum_map(), museum_model(), *MUSEUM_RRT, params, 20)
    assert rrt_digest(result) == digest


def test_rrt_goal_bias_half_digest():
    # 1,249 uniforms drawn: the 256-value blocks of rrt_plan's stream end
    # after a goal-branch draw, after the branch draw of a sample, after its
    # x and after its y; a stream that loses or swaps a block's last value
    # changes this path
    params = RrtParams(step_size=0.3, goal_bias=0.5, seed=6)
    path = rrt_plan(museum_map(), museum_model(), *MUSEUM_RRT, params)
    assert rrt_digest(path) == "9473f17cf15b6d11b1aa6d0360f39ed5d203e3e23b097507c79a11fb1960ce00"
