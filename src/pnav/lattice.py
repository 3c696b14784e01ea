"""SE(2) grid graph with rotation (Type-A) and translation (Type-B) edges.

Nodes live at positions spaced by a step delta (a multiple of the map
resolution), each carrying one of 8 headings.  Type-A edges rotate in place
between any two headings at a position; Type-B edges translate one
heading-aligned step to an 8-neighbor.  Every edge carries a three-component
cost vector (obstruction, turn count, distance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .gridmap import (RobotModel, WorkspaceMap, footprint_free,
                      obstruction_ratios, swept_footprint_free)
from .validate import finite_number

HEADINGS = (0, 45, 90, 135, 180, 225, 270, 315)
AXIS_HEADINGS = frozenset((0, 90, 180, 270))

# unit grid step per heading
HEADING_STEP = {
    0: (1, 0), 45: (1, 1), 90: (0, 1), 135: (-1, 1),
    180: (-1, 0), 225: (-1, -1), 270: (0, -1), 315: (1, -1),
}

SQRT2 = math.sqrt(2.0)


class LatticeError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class CostVector:
    """(obstruction, turn count, distance); componentwise-additive, all >= 0."""

    w1: float
    w2: int
    w3: float

    def __post_init__(self):
        if self.w1 < 0 or self.w2 < 0 or self.w3 < 0:
            raise ValueError("cost components must be >= 0")

    def __add__(self, other: "CostVector") -> "CostVector":
        return CostVector(self.w1 + other.w1, self.w2 + other.w2, self.w3 + other.w3)

    def as_tuple(self) -> tuple[float, int, float]:
        return (self.w1, self.w2, self.w3)

ZERO_COST = CostVector(0.0, 0, 0.0)


@dataclass(frozen=True, order=True)
class LatticeNode:
    ix: int
    iy: int
    heading: int
    # hash((ix, iy, heading)), the value the generated __hash__ would build on
    # every call; the search hashes a node at every dict lookup
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.heading not in HEADING_STEP:
            raise ValueError(f"heading {self.heading} not in the 8-value set")
        object.__setattr__(self, "_hash", hash((self.ix, self.iy, self.heading)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class LatticeEdge:
    src: LatticeNode
    dst: LatticeNode
    kind: str  # "A" or "B"
    cost: CostVector


def node_position(node: LatticeNode, wmap: WorkspaceMap, delta: float) -> tuple[float, float]:
    """World coordinates of a lattice position (center of its delta-block)."""
    ox, oy = wmap.origin
    return (ox + (node.ix + 0.5) * delta, oy + (node.iy + 0.5) * delta)


class LatticeGraph:
    """Immutable directed graph over (ix, iy, heading) lattice nodes."""

    def __init__(self, wmap: WorkspaceMap, delta: float, nx: int, ny: int,
                 phi: dict[tuple[int, int], float],
                 adjacency: dict[LatticeNode, tuple[LatticeEdge, ...]]):
        self.map = wmap
        self.delta = delta
        self.nx = nx
        self.ny = ny
        self.phi = phi
        self._adjacency = adjacency

    @property
    def nodes(self) -> Iterable[LatticeNode]:
        return self._adjacency.keys()

    def __contains__(self, node: LatticeNode) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def has_position(self, ix: int, iy: int) -> bool:
        return (ix, iy) in self.phi

    def adjacency(self) -> Iterable[tuple[LatticeNode, tuple[LatticeEdge, ...]]]:
        """(node, outgoing edges) for every node, for whole-graph passes that
        should not count as neighbors() calls of a search."""
        return self._adjacency.items()

    def neighbors(self, node: LatticeNode) -> tuple[LatticeEdge, ...]:
        """Outgoing edges: Type-A by ascending destination heading, then Type-B."""
        try:
            return self._adjacency[node]
        except KeyError:
            raise LatticeError(f"node {node} not in graph") from None

    def path_cost(self, path: list[LatticeNode]) -> CostVector:
        """Componentwise sum of edge costs along a node path."""
        total = ZERO_COST
        for a, b in zip(path, path[1:]):
            for e in self.neighbors(a):
                if e.dst == b:
                    total = total + e.cost
                    break
            else:
                raise LatticeError(f"no edge {a} -> {b}")
        return total


def build_lattice(wmap: WorkspaceMap, model: RobotModel, delta: float) -> LatticeGraph:
    """Construct the weighted directed graph from the map and robot geometry.

    delta must be a positive integer multiple of the map resolution.
    """
    finite_number(delta, "delta", positive=True, error=LatticeError)
    ratio = delta / wmap.resolution
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise LatticeError(
            f"delta {delta} is not an integer multiple of resolution {wmap.resolution}")
    m = int(round(ratio))
    nx = wmap.width // m
    ny = wmap.height // m

    rho = model.footprint_radius
    r = model.camera_clearance_radius

    # free positions and their obstruction ratios
    free = {}
    for iy in range(ny):
        for ix in range(nx):
            pos = node_position(LatticeNode(ix, iy, 0), wmap, delta)
            if footprint_free(wmap, pos, rho):
                free[(ix, iy)] = pos
    xy = np.array(list(free.values()), dtype=float).reshape(-1, 2)
    phi = dict(zip(free, obstruction_ratios(wmap, xy, r).tolist()))

    step = {h: delta if h in AXIS_HEADINGS else SQRT2 * delta for h in HEADINGS}
    nodes = {pos: tuple(LatticeNode(*pos, h) for h in HEADINGS) for pos in sorted(phi)}
    adjacency: dict[LatticeNode, tuple[LatticeEdge, ...]] = {}
    for (ix, iy), here in nodes.items():
        turn = CostVector(phi[(ix, iy)], 1, 0.0)
        for k, src in enumerate(here):
            # Type-A: every other heading at this position, ascending
            edges = [LatticeEdge(src, dst, "A", turn) for dst in here if dst is not src]
            dx, dy = HEADING_STEP[src.heading]
            dst_pos = (ix + dx, iy + dy)
            if dst_pos in phi and swept_footprint_free(wmap, free[(ix, iy)],
                                                       free[dst_pos], rho):
                edges.append(LatticeEdge(src, nodes[dst_pos][k], "B",
                                         CostVector(phi[dst_pos], 0, step[src.heading])))
            adjacency[src] = tuple(edges)

    return LatticeGraph(wmap, delta, nx, ny, phi, adjacency)
