import dataclasses
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnav.fixtures import MUSEUM_GOAL, MUSEUM_START
from pnav.gridmap import (RobotModel, footprint_free, obstruction_ratios,
                          swept_footprint_free)
from pnav.lattice import (AXIS_HEADINGS, HEADING_STEP, HEADINGS, SQRT2,
                          CostVector, LatticeEdge, LatticeError, LatticeNode,
                          build_lattice, node_position)
from pnav.moastar import GoalSpec, brute_force_front, plan_pareto
from pnav.validate import finite_number

from conftest import former_rows, free_map, make_map

SMALL = RobotModel(footprint_radius=0.2, camera_clearance_radius=0.4)


def count_kinds(edges):
    a = sum(1 for e in edges if e.kind == "A")
    b = sum(1 for e in edges if e.kind == "B")
    return a, b


class TestBuild:
    def test_single_cell_graph(self):
        g = build_lattice(free_map(1, 1), SMALL, 1.0)
        assert len(g) == 8
        edges = [e for n in g.nodes for e in g.neighbors(n)]
        a, b = count_kinds(edges)
        assert a == 56 and b == 0

    def test_two_cell_type_b(self):
        g = build_lattice(free_map(2, 1), SMALL, 1.0)
        east = g.neighbors(LatticeNode(0, 0, 0))
        assert any(e.kind == "B" and e.dst == LatticeNode(1, 0, 0) for e in east)
        north = g.neighbors(LatticeNode(0, 0, 90))
        assert not any(e.kind == "B" for e in north)

    def test_delta_must_divide_resolution(self):
        with pytest.raises(LatticeError, match="multiple"):
            build_lattice(free_map(4, 4, resolution=0.5), SMALL, 0.75)

    @pytest.mark.parametrize("delta, resolution", [(1e308, 0.5), (1.0, 5e-324)])
    def test_delta_over_resolution_past_the_float_range(self, delta, resolution):
        # the ratio is inf, which round() cannot take
        with pytest.raises(LatticeError, match=re.escape(f"delta {delta!r} is too large")):
            build_lattice(free_map(2, 2, resolution=resolution), SMALL, delta)

    def test_blocked_map_gives_empty_graph(self):
        g = build_lattice(make_map(["##", "##"]), SMALL, 1.0)
        assert len(g) == 0

    def test_obstacle_block_excludes_footprint_overlaps(self):
        rows = [".....",
                ".###.",
                ".###.",
                ".###.",
                "....."]
        wmap = make_map(rows)
        model = RobotModel(footprint_radius=0.6, camera_clearance_radius=1.0)
        g = build_lattice(wmap, model, 1.0)
        # oracle: per-position footprint check
        for ix in range(5):
            for iy in range(5):
                pos = node_position(LatticeNode(ix, iy, 0), wmap, 1.0)
                assert ((ix, iy) in g.phi) == footprint_free(wmap, pos, 0.6)

    def test_interior_node_edge_counts(self):
        g = build_lattice(free_map(7, 7), SMALL, 1.0)
        a, b = count_kinds(g.neighbors(LatticeNode(3, 3, 0)))
        assert (a, b) == (7, 1)

    def test_node_facing_wall(self):
        g = build_lattice(free_map(3, 3), SMALL, 1.0)
        a, b = count_kinds(g.neighbors(LatticeNode(2, 1, 0)))
        assert (a, b) == (7, 0)

    def test_neighbor_order(self):
        g = build_lattice(free_map(3, 3), SMALL, 1.0)
        edges = g.neighbors(LatticeNode(1, 1, 90))
        kinds = [e.kind for e in edges]
        assert kinds == ["A"] * 7 + ["B"]
        a_headings = [e.dst.heading for e in edges if e.kind == "A"]
        assert a_headings == sorted(a_headings)

    def test_unknown_node_lookup(self):
        g = build_lattice(free_map(2, 2), SMALL, 1.0)
        with pytest.raises(LatticeError):
            g.neighbors(LatticeNode(5, 5, 0))

    def test_corner_counts_match_rederivation(self):
        wmap = make_map(["...", "..#", "..."])
        g = build_lattice(wmap, SMALL, 1.0)
        for node in g.nodes:
            expect_b = 0
            dx, dy = HEADING_STEP[node.heading]
            jx, jy = node.ix + dx, node.iy + dy
            if (jx, jy) in g.phi and 0 <= jx < g.nx and 0 <= jy < g.ny:
                # the swept gate, written out between the two node positions
                dst = LatticeNode(jx, jy, node.heading)
                if swept_footprint_free(wmap, node_position(node, wmap, 1.0),
                                        node_position(dst, wmap, 1.0),
                                        SMALL.footprint_radius):
                    expect_b = 1
            a, b = count_kinds(g.neighbors(node))
            assert a == 7 and b == expect_b

    def test_determinism(self):
        wmap = make_map(["....", ".#..", "....", "..#."])
        g1 = build_lattice(wmap, SMALL, 1.0)
        g2 = build_lattice(wmap, SMALL, 1.0)
        assert ([(n, g1.neighbors(n)) for n in g1.nodes]
                == [(n, g2.neighbors(n)) for n in g2.nodes])

    def test_type_b_reversibility_in_free_space(self):
        g = build_lattice(free_map(5, 5), SMALL, 1.0)
        for node in g.nodes:
            for e in g.neighbors(node):
                if e.kind != "B":
                    continue
                back = LatticeNode(e.dst.ix, e.dst.iy, (e.dst.heading + 180) % 360)
                target = LatticeNode(node.ix, node.iy, back.heading)
                assert any(be.dst == target for be in g.neighbors(back)
                           if be.kind == "B")


class TestEdgeCost:
    """Stored edge costs: (phi at the destination, turns, distance)."""

    @staticmethod
    def free_space_edges(heading):
        # interior node of a 7 x 7 free map: no disc of r = 0.4 around it or
        # its neighbours meets an obstacle or the border, so phi = 0
        g = build_lattice(free_map(7, 7), SMALL, 1.0)
        return g.neighbors(LatticeNode(3, 3, heading))

    def test_type_a_free_space(self):
        turns = [e.cost for e in self.free_space_edges(0) if e.kind == "A"]
        assert turns == [CostVector(0.0, 1, 0.0)] * 7

    @pytest.mark.parametrize("heading", sorted(AXIS_HEADINGS))
    def test_type_b_axis(self, heading):
        moves = [e.cost for e in self.free_space_edges(heading) if e.kind == "B"]
        assert moves == [CostVector(0.0, 0, 1.0)]

    @pytest.mark.parametrize("heading", [45, 135, 225, 315])
    def test_type_b_diagonal(self, heading):
        moves = [e.cost for e in self.free_space_edges(heading) if e.kind == "B"]
        assert moves == [CostVector(0.0, 0, SQRT2)]

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            CostVector(-0.1, 0, 0.0)

    def test_stored_edges_match_rules(self):
        wmap = make_map(["....", ".#..", "....", "...."])
        model = RobotModel(footprint_radius=0.2, camera_clearance_radius=0.9)
        g = build_lattice(wmap, model, 1.0)
        # step length per heading: delta on the axes, sqrt(2) delta on diagonals
        step = {0: 1.0, 90: 1.0, 180: 1.0, 270: 1.0,
                45: SQRT2, 135: SQRT2, 225: SQRT2, 315: SQRT2}
        for node in g.nodes:
            p0 = node_position(node, wmap, 1.0)
            for e in g.neighbors(node):
                phi = g.phi[(e.dst.ix, e.dst.iy)]
                if e.kind == "A":
                    assert (e.src.ix, e.src.iy) == (e.dst.ix, e.dst.iy)
                    assert e.src.heading != e.dst.heading
                    assert e.cost == CostVector(phi, 1, 0.0)
                    assert footprint_free(wmap, p0, model.footprint_radius)
                else:
                    dx, dy = HEADING_STEP[node.heading]
                    assert (e.dst.ix - e.src.ix, e.dst.iy - e.src.iy) == (dx, dy)
                    assert e.src.heading == e.dst.heading
                    assert e.cost == CostVector(phi, 0, step[node.heading])
                    assert swept_footprint_free(wmap, p0, node_position(e.dst, wmap, 1.0),
                                                model.footprint_radius)


class TestValidateEdge:
    """The gate of a lattice edge: swept_footprint_free between its node
    positions; a rotation sweeps no distance."""

    def test_type_a_free(self):
        p = node_position(LatticeNode(1, 1, 0), free_map(3, 3), 1.0)
        assert swept_footprint_free(free_map(3, 3), p, p, 0.3)

    def test_type_b_through_wall(self):
        wmap = make_map([".#."])
        p0 = node_position(LatticeNode(0, 0, 0), wmap, 1.0)
        p1 = node_position(LatticeNode(2, 0, 0), wmap, 1.0)
        assert not swept_footprint_free(wmap, p0, p1, 0.2)

    def test_diagonal_squeeze(self):
        # obstacles diagonal-adjacent: the 45-degree move pinches between them
        wmap = make_map(["#.",
                         ".#"])
        p0 = node_position(LatticeNode(0, 0, 45), wmap, 1.0)
        p1 = node_position(LatticeNode(1, 1, 45), wmap, 1.0)
        rho = 0.15
        assert not swept_footprint_free(wmap, p0, p1, rho)
        # oracle: dense 1000-sample sweep agrees
        dense_free = all(
            footprint_free(wmap, (p0[0] + t * (p1[0] - p0[0]),
                                  p0[1] + t * (p1[1] - p0[1])), rho)
            for t in (i / 999 for i in range(1000)))
        assert not dense_free

    def test_heading_set_is_exact(self):
        with pytest.raises(ValueError):
            LatticeNode(0, 0, 30)
        assert len(HEADINGS) == 8


@dataclasses.dataclass(frozen=True, order=True)
class PlainNode:
    """LatticeNode as a plain frozen dataclass, with the generated __hash__."""

    ix: int
    iy: int
    heading: int


class TestNodeHash:
    """A node hashes, compares, orders and prints as a plain frozen dataclass."""

    NODES = [(0, 0, 0), (3, -2, 45), (-1, 7, 315), (2, 2, 180), (2, 2, 90),
             (10**12, 1, 270)]

    def test_hash_eq_order_repr_match_a_plain_node(self):
        nodes = [LatticeNode(*k) for k in self.NODES]
        plain = [PlainNode(*k) for k in self.NODES]
        for node, ref, key in zip(nodes, plain, self.NODES):
            assert hash(node) == hash(ref) == hash(key)
            assert node == LatticeNode(*key) and node != LatticeNode(*key[:2], 135)
            assert repr(node) == repr(ref).replace("PlainNode", "LatticeNode")
        assert ([(n.ix, n.iy, n.heading) for n in sorted(nodes)]
                == [(p.ix, p.iy, p.heading) for p in sorted(plain)])
        # set and dict orders follow the hashes, so they cannot move
        assert ([(n.ix, n.iy, n.heading) for n in set(nodes)]
                == [(p.ix, p.iy, p.heading) for p in set(plain)])

    def test_node_stays_frozen(self):
        node = LatticeNode(1, 2, 45)
        for name, value in (("ix", 3), ("heading", 90), ("_hash", 0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, value)
        assert hash(node) == hash((1, 2, 45))
        assert dataclasses.replace(node, heading=90) == LatticeNode(1, 2, 90)
        assert hash(dataclasses.replace(node, heading=90)) == hash((1, 2, 90))


def random_map(rng, w, h, density):
    return make_map(["".join("#" if rng.random() < density else "." for _ in range(w))
                     for _ in range(h)])


class TestRows:
    """row(id) is neighbors(nodes[id]) on integer ids, entry for entry."""

    @staticmethod
    def assert_rows_match_edges(g):
        assert len(g.moves) == len(g.nodes) == len(g)
        positions = sorted(g.phi)
        for i, node in enumerate(g.nodes):
            assert i == 8 * positions.index((node.ix, node.iy)) + HEADINGS.index(node.heading)
            assert g.node_id(node) == i
            edges = g.neighbors(node)
            assert len(g.row(i)) == len(edges)
            for (dst, w1, w2, w3), e in zip(g.row(i), edges):
                assert g.nodes[dst] == e.dst
                # bit-equal: same type and same repr, so -0.0 differs from 0.0
                got = [(type(w), repr(w)) for w in (w1, w2, w3)]
                assert got == [(type(w), repr(w)) for w in e.cost.as_tuple()]

    def test_museum(self, museum):
        wmap, model = museum
        self.assert_rows_match_edges(build_lattice(wmap, model, 1.0))

    def test_random_maps(self):
        rng = random.Random(8128)
        for _ in range(12):
            wmap = random_map(rng, rng.randint(1, 9), rng.randint(1, 7), 0.25)
            model = RobotModel(footprint_radius=rng.choice([0.2, 0.3, 0.5]),
                               camera_clearance_radius=rng.choice([0.4, 1.2]))
            self.assert_rows_match_edges(build_lattice(wmap, model, 1.0))

    def test_phi_keys_in_node_id_order(self, museum):
        rng = random.Random(6174)
        graphs = [build_lattice(*museum, 1.0)] + [
            build_lattice(random_map(rng, rng.randint(2, 9), rng.randint(2, 7), 0.25), SMALL, 1.0)
            for _ in range(12)]
        for g in graphs:
            assert list(g.phi) == sorted(g.phi) == [(n.ix, n.iy) for n in g.nodes[::8]]

    def test_blocked_map_has_no_rows(self):
        g = build_lattice(make_map(["##", "##"]), SMALL, 1.0)
        assert g.moves == [] and g.nodes == () and former_rows(g) == []

    def test_unknown_node_id(self):
        g = build_lattice(free_map(2, 2), SMALL, 1.0)
        with pytest.raises(LatticeError, match="not in graph"):
            g.node_id(LatticeNode(5, 5, 0))


class TestNodeIds:
    """node(id) inverts node_id, and the graph builds its node tuple only
    when something reads it."""

    def test_node_inverts_node_id(self, museum):
        for g in (build_lattice(*museum, 1.0), build_lattice(make_map(["##", "##"]), SMALL, 1.0)):
            assert len(g) == 8 * len(g.phi) == len(g.moves)
            derived = [g.row(i) for i in range(len(g))]
            assert repr(derived) == repr(former_rows(g))
            every = [LatticeNode(ix, iy, h) for ix, iy in g.phi for h in HEADINGS]
            for node in every:
                assert g.node(g.node_id(node)) == node
            assert [g.node(i) for i in range(len(g))] == every == list(g.nodes)

    def test_no_node_tuple_after_a_search(self, museum):
        g = build_lattice(*museum, 1.0)
        assert "nodes" not in vars(g)
        front = plan_pareto(g, LatticeNode(*MUSEUM_START), GoalSpec(*MUSEUM_GOAL))
        assert len(front) > 0 and "nodes" not in vars(g)
        small = build_lattice(make_map(["...", "..."]), SMALL, 1.0)
        assert len(brute_force_front(small, LatticeNode(0, 0, 0), GoalSpec(2, 1))) > 0
        assert "nodes" not in vars(small)


@dataclasses.dataclass(frozen=True)
class PlainEdge:
    """LatticeEdge as the frozen dataclass it was."""

    src: LatticeNode
    dst: LatticeNode
    kind: str
    cost: CostVector


class TestEdgeTuple:
    def test_eq_hash_repr_match_the_dataclass(self):
        g = build_lattice(make_map(["....", ".#..", "...."]),
                          RobotModel(footprint_radius=0.2, camera_clearance_radius=0.9), 1.0)
        edges = [e for n in g.nodes for e in g.neighbors(n)]
        plain = [PlainEdge(e.src, e.dst, e.kind, e.cost) for e in edges]
        for e, ref in zip(edges, plain):
            assert hash(e) == hash(ref)
            assert repr(e) == repr(ref).replace("PlainEdge", "LatticeEdge")
            assert e == LatticeEdge(ref.src, ref.dst, ref.kind, ref.cost)
            for field, other in (("src", LatticeNode(9, 9, 0)), ("dst", LatticeNode(9, 9, 0)),
                                 ("kind", "C"), ("cost", CostVector(9.0, 9, 9.0))):
                assert e != e._replace(**{field: other})
        # set and dict orders follow the hashes, so they cannot move
        assert ([(e.src, e.dst, e.kind, e.cost) for e in set(edges)]
                == [(p.src, p.dst, p.kind, p.cost) for p in set(plain)])
        assert len(set(edges)) == len(edges)


# -- the former build, with its LatticeEdge adjacency, as the reference ---------


def former_build(wmap, model, delta):
    """build_lattice as it was when it stored every edge twice, as a
    LatticeEdge and as a row entry; verbatim but for its last line, which
    returns (adjacency, rows) where it built a LatticeGraph from them."""
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
    positions = sorted(phi)
    first_id = {pos: 8 * p for p, pos in enumerate(positions)}
    nodes = {pos: tuple(LatticeNode(*pos, h) for h in HEADINGS) for pos in positions}
    adjacency: dict[LatticeNode, tuple[LatticeEdge, ...]] = {}
    rows: list[tuple[tuple[int, float, int, float], ...]] = []
    for (ix, iy), here in nodes.items():
        w1 = phi[(ix, iy)]
        turn = CostVector(w1, 1, 0.0)
        base = first_id[(ix, iy)]
        # one row entry per heading, shared by the position's 8 rows
        turns = [(base + k, w1, 1, 0.0) for k in range(8)]
        for k, src in enumerate(here):
            # Type-A: every other heading at this position, ascending
            edges = [LatticeEdge(src, dst, "A", turn) for dst in here if dst is not src]
            row = turns[:k] + turns[k + 1:]
            dx, dy = HEADING_STEP[src.heading]
            dst_pos = (ix + dx, iy + dy)
            if dst_pos in phi and swept_footprint_free(wmap, free[(ix, iy)],
                                                       free[dst_pos], rho):
                cost = CostVector(phi[dst_pos], 0, step[src.heading])
                edges.append(LatticeEdge(src, nodes[dst_pos][k], "B", cost))
                row.append((first_id[dst_pos] + k, cost.w1, 0, cost.w3))
            adjacency[src] = tuple(edges)
            rows.append(tuple(row))

    return adjacency, rows


@st.composite
def maps_and_models(draw):
    """A random map of up to 9 x 7 cells, about 1 in 5 an obstacle, and a
    robot whose footprint and camera disc vary."""
    w, h = draw(st.integers(1, 9)), draw(st.integers(1, 7))
    cells = draw(st.lists(st.sampled_from("....#"), min_size=w * h, max_size=w * h))
    wmap = make_map(["".join(cells[i * w:(i + 1) * w]) for i in range(h)])
    model = RobotModel(footprint_radius=draw(st.sampled_from([0.2, 0.3, 0.5])),
                       camera_clearance_radius=draw(st.sampled_from([0.4, 1.2, 2.0])))
    return wmap, model


class TestFormerBuild:
    """neighbors() and the rows derived from phi and moves equal, bit for
    bit, what the former build stored."""

    @staticmethod
    def assert_same_as_former(wmap, model, delta):
        g = build_lattice(wmap, model, delta)
        adjacency, rows = former_build(wmap, model, delta)
        derived = [g.row(i) for i in range(len(g))]
        assert derived == rows and repr(derived) == repr(rows)
        assert repr(former_rows(g)) == repr(rows)
        assert g.nodes == tuple(adjacency)
        got = [(n, g.neighbors(n)) for n in g.nodes]
        assert got == list(adjacency.items())
        # repr tells -0.0 from 0.0 and 1 from 1.0, which == does not
        assert repr(got) == repr(list(adjacency.items()))
        assert [hash(e) for _, edges in got for e in edges] == [
            hash(e) for edges in adjacency.values() for e in edges]
        for node, edges in got:
            assert g.neighbors(node) == edges  # rebuilt from the row on each call
            assert len({id(e.cost) for e in edges if e.kind == "A"}) == 1

    def test_museum(self, museum):
        self.assert_same_as_former(*museum, 1.0)

    def test_half_metre_steps(self):
        wmap = make_map(["......", "..#...", "......", "....#."], resolution=0.5)
        self.assert_same_as_former(wmap, RobotModel(0.2, 0.9), 1.0)
        self.assert_same_as_former(wmap, RobotModel(0.2, 0.9), 0.5)

    @settings(max_examples=150, deadline=None)
    @given(maps_and_models())
    def test_random_maps(self, map_and_model):
        self.assert_same_as_former(*map_and_model, 1.0)

    def test_neighbors_before_any_other_call(self):
        # the edges of one node are built on their own, in any call order
        g = build_lattice(free_map(3, 3), SMALL, 1.0)
        adjacency, _ = former_build(free_map(3, 3), SMALL, 1.0)
        for node in reversed(g.nodes):
            assert g.neighbors(node) == adjacency[node]


class TestRowLayout:
    """The layout of moves, which the MOA* bounds invert: moves[id] is the
    node's one heading step, or -1, and no id is the target of two nodes;
    and the row that row(id) derives from it: the implied rotations, then
    that translation."""

    @staticmethod
    def assert_layout(g):
        assert len(g.moves) == len(g)
        for i, d in enumerate(g.moves):
            node, k = g.node(i), i % 8
            # one heading step along the node's heading, keeping the heading
            assert type(d) is int and -1 <= d < len(g)
            translation = ()
            if d >= 0:
                dx, dy = HEADING_STEP[node.heading]
                there = LatticeNode(node.ix + dx, node.iy + dy, node.heading)
                assert g.node(d) == there
                step = g.delta if node.heading in AXIS_HEADINGS else SQRT2 * g.delta
                translation = ((d, g.phi[(there.ix, there.iy)], 0, step),)
            # the row: the other 7 headings here, ascending, at (phi, 1,
            # 0.0), then the translation
            row, phi = g.row(i), g.phi[(node.ix, node.iy)]
            assert [e[0] for e in row[:7]] == [i - k + j for j in range(8) if j != k]
            assert [repr(e[1:]) for e in row[:7]] == [repr((phi, 1, 0.0))] * 7
            assert repr(row[7:]) == repr(translation)
        # every translation target has exactly one translation predecessor
        targets = [d for d in g.moves if d >= 0]
        assert len(set(targets)) == len(targets)
        return len(targets)

    def test_museum(self, museum):
        assert self.assert_layout(build_lattice(*museum, 1.0)) > 1000

    def test_free_map(self):
        g = build_lattice(free_map(5, 4), SMALL, 1.0)
        # every heading-step inside the map is a translation
        assert self.assert_layout(g) == sum(
            0 <= n.ix + HEADING_STEP[n.heading][0] < 5
            and 0 <= n.iy + HEADING_STEP[n.heading][1] < 4 for n in g.nodes)

    @settings(max_examples=150, deadline=None)
    @given(maps_and_models())
    def test_random_maps(self, map_and_model):
        self.assert_layout(build_lattice(*map_and_model, 1.0))
