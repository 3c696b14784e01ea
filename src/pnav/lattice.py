"""SE(2) grid graph with rotation (Type-A) and translation (Type-B) edges.

Nodes live at positions spaced by a step delta (a multiple of the map
resolution), each carrying one of 8 headings.  Type-A edges rotate in place
between any two headings at a position; Type-B edges translate one
heading-aligned step to an 8-neighbor.  Every edge carries a three-component
cost vector (obstruction, turn count, distance).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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

    def __post_init__(self):
        if self.heading not in HEADING_STEP:
            raise ValueError(f"heading {self.heading} not in the 8-value set")


@dataclass(frozen=True)
class LatticeEdge:
    src: LatticeNode
    dst: LatticeNode
    kind: str  # "A" or "B"
    cost: CostVector


def edge_cost(kind: str, heading: int, phi_dst: float, delta: float) -> CostVector:
    """Cost vector for an edge given its kind, the Type-B travel heading,
    and the obstruction ratio at the destination position.

    Rotations: w2 = 1, w3 = 0.  Translations: w2 = 0, w3 = delta for axis
    headings and sqrt(2)*delta for diagonals.  Both kinds carry the
    destination obstruction as w1.
    """
    if kind == "A":
        return CostVector(phi_dst, 1, 0.0)
    if kind == "B":
        w3 = delta if heading in AXIS_HEADINGS else SQRT2 * delta
        return CostVector(phi_dst, 0, w3)
    raise ValueError(f"unknown edge kind {kind!r}")


def validate_edge(wmap: WorkspaceMap, edge: LatticeEdge, rho: float,
                  delta: float | None = None) -> bool:
    """Swept collision check for an edge.

    Type-A needs only the endpoint disc (rotation-symmetric footprint);
    Type-B sweeps the disc along the full segment.
    """
    graph_delta = delta
    if graph_delta is None:
        raise ValueError("delta required to place lattice nodes in the world")
    p0 = node_position(edge.src, wmap, graph_delta)
    if edge.kind == "A":
        return footprint_free(wmap, p0, rho)
    p1 = node_position(edge.dst, wmap, graph_delta)
    return segment_free(wmap, p0, p1, rho)


def segment_free(wmap: WorkspaceMap, p0: tuple[float, float],
                 p1: tuple[float, float], rho: float) -> bool:
    """Swept footprint validation along a straight segment.

    Delegates to the exact continuous swept-disc test, which is at least as
    strict as footprint checks at any interpolation density.
    """
    return swept_footprint_free(wmap, p0, p1, rho)


def node_position(node: LatticeNode, wmap: WorkspaceMap, delta: float) -> tuple[float, float]:
    """World coordinates of a lattice position (center of its delta-block)."""
    ox, oy = wmap.origin
    return (ox + (node.ix + 0.5) * delta, oy + (node.iy + 0.5) * delta)


class LatticeGraph:
    """Immutable directed graph over (ix, iy, heading) lattice nodes."""

    def __init__(self, wmap: WorkspaceMap, model: RobotModel, delta: float,
                 nx: int, ny: int,
                 phi: dict[tuple[int, int], float],
                 adjacency: dict[LatticeNode, tuple[LatticeEdge, ...]]):
        self.map = wmap
        self.model = model
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

    def neighbors(self, node: LatticeNode) -> tuple[LatticeEdge, ...]:
        """Outgoing edges: Type-A by ascending destination heading, then Type-B."""
        try:
            return self._adjacency[node]
        except KeyError:
            raise LatticeError(f"node {node} not in graph") from None

    def position(self, node: LatticeNode) -> tuple[float, float]:
        return node_position(node, self.map, self.delta)

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

    def dump_json(self) -> str:
        """Debug dump; not a stability-guaranteed format."""
        nodes = [[n.ix, n.iy, n.heading] for n in sorted(self._adjacency)]
        edges = [
            [e.src.ix, e.src.iy, e.src.heading,
             e.dst.ix, e.dst.iy, e.dst.heading,
             e.kind, e.cost.w1, e.cost.w2, e.cost.w3]
            for n in sorted(self._adjacency) for e in self._adjacency[n]
        ]
        return json.dumps({"delta": self.delta, "nodes": nodes, "edges": edges})


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

    adjacency: dict[LatticeNode, tuple[LatticeEdge, ...]] = {}
    for (ix, iy) in sorted(phi):
        for heading in HEADINGS:
            src = LatticeNode(ix, iy, heading)
            edges = []
            for h2 in HEADINGS:  # Type-A: every other heading at this position
                if h2 == heading:
                    continue
                dst = LatticeNode(ix, iy, h2)
                edges.append(LatticeEdge(src, dst, "A",
                                         edge_cost("A", heading, phi[(ix, iy)], delta)))
            dx, dy = HEADING_STEP[heading]
            jx, jy = ix + dx, iy + dy
            if 0 <= jx < nx and 0 <= jy < ny and (jx, jy) in phi:
                dst = LatticeNode(jx, jy, heading)
                cand = LatticeEdge(src, dst, "B",
                                   edge_cost("B", heading, phi[(jx, jy)], delta))
                if validate_edge(wmap, cand, rho, delta):
                    edges.append(cand)
            adjacency[src] = tuple(edges)

    return LatticeGraph(wmap, model, delta, nx, ny, phi, adjacency)
