"""SE(2) grid graph with rotation (Type-A) and translation (Type-B) edges.

Nodes live at positions spaced by a step delta (a multiple of the map
resolution), each carrying one of 8 headings.  Type-A edges rotate in place
between any two headings at a position; Type-B edges translate one
heading-aligned step to an 8-neighbor.  Every edge carries a three-component
cost vector (obstruction, turn count, distance).

Nodes are numbered in `LatticeGraph.nodes` order: positions ascend by
(ix, iy), and the node at position index p with heading HEADINGS[k] has id
8 * p + k.  `LatticeGraph.rows[id]`, the only edge store, lists that node's
outgoing edges as (dst id, w1, w2, w3) tuples, so a search can run on
integer ids.  Entries 0-6 rotate to the other 7 headings, ascending, each
costing (phi here, 1, 0.0); entry 7, present when the swept footprint is
free, translates, so a node has at most one translation predecessor.
`neighbors()` builds a node's edges from its row on first use and keeps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gridmap import (RobotModel, WorkspaceMap, footprint_free,
                      obstruction_ratios, swept_footprint_free)
from .validate import finite_number

HEADINGS = (0, 45, 90, 135, 180, 225, 270, 315)
HEADING_INDEX = {h: k for k, h in enumerate(HEADINGS)}
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

    def __post_init__(self):
        if self.heading not in HEADING_STEP:
            raise ValueError(f"heading {self.heading} not in the 8-value set")


class LatticeEdge(NamedTuple):
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
                 phi: dict[tuple[int, int], float], nodes: tuple[LatticeNode, ...],
                 rows: list[tuple[tuple[int, float, int, float], ...]],
                 first_id: dict[tuple[int, int], int]):
        self.map = wmap
        self.delta = delta
        self.nx, self.ny = nx, ny
        self.phi = phi
        self.nodes = nodes  # id -> node, 8 headings per position
        self.rows = rows  # id -> ((dst id, w1, w2, w3), ...), in neighbors() order
        self._first_id = first_id  # position -> id of its heading-0 node
        self._edges: list[tuple[LatticeEdge, ...] | None] = [None] * len(nodes)

    def __contains__(self, node: LatticeNode) -> bool:
        return isinstance(node, LatticeNode) and (node.ix, node.iy) in self._first_id

    def __len__(self) -> int:
        return len(self.nodes)

    def has_position(self, ix: int, iy: int) -> bool:
        return (ix, iy) in self.phi

    def node_id(self, node: LatticeNode) -> int:
        """The node's index in `nodes` and `rows`."""
        try:
            return self._first_id[(node.ix, node.iy)] + HEADING_INDEX[node.heading]
        except KeyError:
            raise LatticeError(f"node {node} not in graph") from None

    def neighbors(self, node: LatticeNode) -> tuple[LatticeEdge, ...]:
        """Outgoing edges: Type-A by ascending destination heading, then Type-B."""
        i = self.node_id(node)
        edges = self._edges[i]
        if edges is None:
            nodes, row = self.nodes, self.rows[i]
            turn = CostVector(*row[0][1:])  # shared by the 7 rotations
            edges = self._edges[i] = tuple(
                LatticeEdge(nodes[i], nodes[dst], "A", turn) if w2 == 1
                else LatticeEdge(nodes[i], nodes[dst], "B", CostVector(w1, w2, w3))
                for dst, w1, w2, w3 in row)
        return edges

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
    nx, ny = wmap.width // m, wmap.height // m

    rho = model.footprint_radius
    # free positions and their obstruction ratios
    free = {}
    for iy in range(ny):
        for ix in range(nx):
            pos = node_position(LatticeNode(ix, iy, 0), wmap, delta)
            if footprint_free(wmap, pos, rho):
                free[(ix, iy)] = pos
    xy = np.array(list(free.values()), dtype=float).reshape(-1, 2)
    phi = dict(zip(free, obstruction_ratios(wmap, xy, model.camera_clearance_radius).tolist()))

    step = {h: delta if h in AXIS_HEADINGS else SQRT2 * delta for h in HEADINGS}
    positions = sorted(phi)
    first_id = {pos: 8 * p for p, pos in enumerate(positions)}
    nodes = tuple(LatticeNode(ix, iy, h) for ix, iy in positions for h in HEADINGS)
    rows: list[tuple[tuple[int, float, int, float], ...]] = []
    for (ix, iy), base in first_id.items():
        w1 = phi[(ix, iy)]
        # one row entry per heading, shared by the position's 8 rows
        turns = [(base + k, w1, 1, 0.0) for k in range(8)]
        for k, h in enumerate(HEADINGS):
            # Type-A: every other heading at this position, ascending
            row = turns[:k] + turns[k + 1:]
            dx, dy = HEADING_STEP[h]
            dst_pos = (ix + dx, iy + dy)
            if dst_pos in phi and swept_footprint_free(wmap, free[(ix, iy)],
                                                       free[dst_pos], rho):
                row.append((first_id[dst_pos] + k, phi[dst_pos], 0, step[h]))
            rows.append(tuple(row))

    return LatticeGraph(wmap, delta, nx, ny, phi, nodes, rows, first_id)
