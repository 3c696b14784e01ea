"""Golden digests of the lattice and the planner's front.

Refactors of the lattice, the collision test or the search must leave these
structures unchanged to the bit.  They hold only correctly rounded float
results (integer-count ratios, additions, sqrt), so the digests do not
depend on the platform.  Trajectories, which numpy evaluates, stay out.
"""

import hashlib

import numpy as np
import pytest

from pnav.fixtures import MUSEUM_DELTA, MUSEUM_GOAL, MUSEUM_START, museum_map, museum_model
from pnav.gridmap import RobotModel, WorkspaceMap
from pnav.lattice import LatticeNode, build_lattice
from pnav.moastar import GoalSpec, plan_pareto


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
