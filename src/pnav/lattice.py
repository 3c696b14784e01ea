"""SE(2) grid graph with rotation (Type-A) and translation (Type-B) edges.

Nodes live at positions spaced by a step delta (a multiple of the map
resolution), each carrying one of 8 headings.  Type-A edges rotate in place
between any two headings at a position; Type-B edges translate one
heading-aligned step to an 8-neighbor.  Every edge carries a three-component
cost vector (obstruction, turn count, distance).

`LatticeGraph.phi` maps each free position to its obstruction ratio in
node-id order, ascending by (ix, iy), and the graph derives `nodes` and ids
from it: the node at the p-th position with heading HEADINGS[k] has id
8 * p + k.  `LatticeGraph.rows[id]`, the only edge store, lists that node's
outgoing edges as (dst id, w1, w2, w3) tuples, so a search can run on
integer ids.  Entries 0-6 rotate to the other 7 headings, ascending, each
costing (phi here, 1, 0.0); entry 7, present when the swept footprint is
free, translates, so a node has at most one translation predecessor.  Every
reader in this package walks the rows: the search, its bounds and the
exhaustive oracle; none calls neighbors.  The neighbors method builds a
node's `LatticeEdge`s from its row on each call, as the benchmark's and the
tests' view of the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gridmap import RobotModel, WorkspaceMap, _sweeps_free, obstruction_ratios
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

    def as_tuple(self) -> tuple[float, int, float]:
        return (self.w1, self.w2, self.w3)


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

    def __init__(self, delta: float, nx: int, ny: int, phi: dict[tuple[int, int], float],
                 rows: list[tuple[tuple[int, float, int, float], ...]]):
        self.delta = delta
        self.nx, self.ny = nx, ny
        self.phi = phi  # position -> phi, in node-id order
        self.rows = rows  # id -> ((dst id, w1, w2, w3), ...), 7 rotations then a translation
        self.nodes = tuple(LatticeNode(ix, iy, h) for ix, iy in phi for h in HEADINGS)
        self._first_id = {pos: 8 * p for p, pos in enumerate(phi)}  # id of its heading-0 node

    def __contains__(self, node: LatticeNode) -> bool:
        return isinstance(node, LatticeNode) and (node.ix, node.iy) in self.phi

    def __len__(self) -> int:
        return len(self.nodes)

    def node_id(self, node: LatticeNode) -> int:
        """The node's index in `nodes` and `rows`."""
        try:
            return self._first_id[(node.ix, node.iy)] + HEADING_INDEX[node.heading]
        except KeyError:
            raise LatticeError(f"node {node} not in graph") from None

    def neighbors(self, node: LatticeNode) -> tuple[LatticeEdge, ...]:
        """Outgoing edges: Type-A by ascending destination heading, then Type-B,
        built from the node's row.

        Its readers are the benchmark, which counts and walks edges through
        it, and the tests; nothing in this package calls it.
        """
        i = self.node_id(node)
        nodes, row = self.nodes, self.rows[i]
        turn = CostVector(*row[0][1:])  # shared by the 7 rotations
        return tuple(LatticeEdge(nodes[i], nodes[dst], "A", turn) if w2 == 1
                     else LatticeEdge(nodes[i], nodes[dst], "B", CostVector(w1, w2, w3))
                     for dst, w1, w2, w3 in row)


def build_lattice(wmap: WorkspaceMap, model: RobotModel, delta: float) -> LatticeGraph:
    """Construct the weighted directed graph from the map and robot geometry.

    delta must be a positive integer multiple of the map resolution.  The
    standing discs at all positions, then all heading steps between free
    positions, go through the collision test as two batches (see
    pnav.gridmap).
    """
    finite_number(delta, "delta", positive=True, error=LatticeError)
    ratio = delta / wmap.resolution
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise LatticeError(
            f"delta {delta} is not an integer multiple of resolution {wmap.resolution}")
    m = int(round(ratio))
    nx, ny = wmap.width // m, wmap.height // m

    rho = model.footprint_radius
    ox, oy = wmap.origin
    # position centres as node_position computes them, in (ix, iy) order, so
    # the free ones come out in node-id order
    gx, gy = np.meshgrid(ox + (np.arange(nx) + 0.5) * delta,
                         oy + (np.arange(ny) + 0.5) * delta, indexing="ij")
    centres = np.column_stack((gx.ravel(), gy.ravel()))
    free = np.flatnonzero(_sweeps_free(wmap, centres, centres, rho))
    pix, piy = np.divmod(free, ny)
    xy = centres[free]
    phis = obstruction_ratios(wmap, xy, model.camera_clearance_radius).tolist()
    phi = dict(zip(zip(pix.tolist(), piy.tolist()), phis))

    # Type-B: dst[p, k] is the position that heading k steps to from
    # position p, -1 when it is not a lattice position; the swept footprint
    # decides which of those steps are edges, and target[p, k] is then the
    # destination node id, else -1
    index = np.full((ny + 2, nx + 2), -1, dtype=np.intp)  # framed, as steps reach past the map
    index[piy + 1, pix + 1] = np.arange(len(phis))
    steps = np.array([HEADING_STEP[h] for h in HEADINGS])
    dst = index[piy[:, None] + 1 + steps[:, 1], pix[:, None] + 1 + steps[:, 0]]
    src, heading = np.nonzero(dst >= 0)
    free_step = _sweeps_free(wmap, xy[src], xy[dst[src, heading]], rho)
    target = np.full_like(dst, -1)
    target[src, heading] = np.where(free_step, 8 * dst[src, heading] + heading, -1)

    step = [delta if h in AXIS_HEADINGS else SQRT2 * delta for h in HEADINGS]
    rows: list[tuple[tuple[int, float, int, float], ...]] = []
    for base, w1, targets in zip(range(0, 8 * len(phis), 8), phis, target.tolist()):
        # one row entry per heading, shared by the position's 8 rows
        turns = tuple([(base + k, w1, 1, 0.0) for k in range(8)])
        for k, d in enumerate(targets):
            # Type-A: every other heading at this position, ascending
            row = turns[:k] + turns[k + 1:]
            rows.append(row + ((d, phis[d >> 3], 0, step[k]),) if d >= 0 else row)

    return LatticeGraph(delta, nx, ny, phi, rows)
