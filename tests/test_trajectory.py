import gc
import json
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnav.gridmap import RobotModel, WorkspaceMap, obstruction_ratio
from pnav.lattice import HEADINGS, LatticeNode, build_lattice, node_position
from pnav.moastar import GoalSpec, brute_force_front, plan_pareto
from pnav.rrt import PolyPath, RrtParams, rrt_plan
from pnav.render import rotation_points
from pnav.trajectory import (HEADING_EPS_DEG, MAX_SAMPLES, Rotate, SegmentPath,
                             TimedTrajectory, Translate, TrajectoryError, eval_costs,
                             JsonText, dump_json, heading_change_runs, sample_blocks,
                             signed_arc_deg, timed_from_json, timed_to_json, to_segment_path, to_timed,
                             wrap_deg)
from pnav.validate import finite_number

from conftest import free_map, make_map

SQRT2 = math.sqrt(2.0)


class TestSegmentPath:
    def test_lattice_rotate_then_merged_diagonals(self):
        wmap = free_map(3, 3)
        nodes = [LatticeNode(0, 0, 0), LatticeNode(0, 0, 45),
                 LatticeNode(1, 1, 45), LatticeNode(2, 2, 45)]
        sp = to_segment_path(nodes, wmap, 1.0)
        assert len(sp.segments) == 2
        rot, tr = sp.segments
        assert isinstance(rot, Rotate) and rot.arc == 45.0
        assert isinstance(tr, Translate)
        assert tr.length == pytest.approx(2 * SQRT2)

    def test_collinear_polyline_merges(self):
        sp = to_segment_path(PolyPath(((0, 0), (1, 0), (2, 0), (3.5, 0), (5, 0))))
        assert len(sp.segments) == 1
        assert isinstance(sp.segments[0], Translate)
        assert sp.segments[0].length == pytest.approx(5.0)

    def test_l_shaped_polyline(self):
        sp = to_segment_path(PolyPath(((0, 0), (2, 0), (2, 3))))
        kinds = [type(s).__name__ for s in sp.segments]
        assert kinds == ["Translate", "Rotate", "Translate"]
        assert sp.segments[1].arc == pytest.approx(90.0)

    def test_empty_path_rejected(self):
        with pytest.raises(TrajectoryError, match="empty"):
            to_segment_path([], free_map(2, 2), 1.0)

    @pytest.mark.parametrize("nodes, step", [
        # two blocks along heading 0: a diagonal sampled facing east
        ([LatticeNode(0, 0, 0), LatticeNode(2, 2, 0)], 0),
        # a move that also turns: 0 to 45 degrees between ticks, no Rotate
        ([LatticeNode(0, 0, 0), LatticeNode(1, 0, 45), LatticeNode(2, 1, 45)], 0),
        ([LatticeNode(0, 0, 0), LatticeNode(1, 0, 0), LatticeNode(2, 0, 90),
          LatticeNode(2, 1, 90)], 1),
        # one step off the heading, one step backwards
        ([LatticeNode(0, 0, 90), LatticeNode(0, 0, 0), LatticeNode(1, 1, 0)], 1),
        ([LatticeNode(1, 0, 0), LatticeNode(0, 0, 0)], 0),
        ([LatticeNode(0, 0, 45), LatticeNode(1, 1, 45), LatticeNode(1, 1, 90),
          LatticeNode(1, 1, 90), LatticeNode(2, 2, 90)], 3),
    ])
    def test_steps_that_are_not_lattice_edges_rejected(self, nodes, step):
        with pytest.raises(TrajectoryError,
                           match=f"step {step} of the path, .* is not a lattice edge"):
            to_segment_path(nodes, free_map(3, 3), 1.0)

    def test_shorter_arc_with_ccw_tie(self):
        assert signed_arc_deg(0, 270) == -90.0
        assert signed_arc_deg(0, 45) == 45.0
        assert signed_arc_deg(0, 180) == 180.0  # tie goes counterclockwise
        assert signed_arc_deg(315, 45) == 90.0


def _from_lattice(path: list[LatticeNode], wmap: WorkspaceMap, delta: float) -> SegmentPath:
    if not path:
        raise TrajectoryError("empty path")
    if wmap is None or delta is None:
        raise TrajectoryError("lattice paths need wmap and delta")
    pos = [node_position(n, wmap, delta) for n in path]
    segments = []
    i = 0
    while i < len(path) - 1:
        a, b = path[i], path[i + 1]
        if (a.ix, a.iy) == (b.ix, b.iy):
            arc = signed_arc_deg(a.heading, b.heading)
            segments.append(Rotate(pos[i], float(a.heading), float(b.heading), arc))
            i += 1
        else:
            j = i + 1  # extend the straight run while the heading repeats
            while (j < len(path) - 1
                   and path[j + 1].heading == a.heading
                   and (path[j + 1].ix, path[j + 1].iy) != (path[j].ix, path[j].iy)):
                j += 1
            segments.append(Translate(pos[i], pos[j], float(a.heading)))
            i = j
    return SegmentPath(pos[0], float(path[0].heading), tuple(segments))


def _from_polyline(poly: PolyPath) -> SegmentPath:
    verts = poly.vertices
    if len(verts) == 1:
        return SegmentPath(verts[0], 0.0, ())
    headings = []
    for a, b in zip(verts, verts[1:]):
        headings.append(wrap_deg(math.degrees(math.atan2(b[1] - a[1], b[0] - a[0]))))
    segments = []
    run_start = 0
    cur = headings[0]
    for i in range(1, len(headings) + 1):
        if i < len(headings) and abs(signed_arc_deg(cur, headings[i])) <= HEADING_EPS_DEG:
            continue
        segments.append(Translate(verts[run_start], verts[i], cur))
        if i < len(headings):
            arc = signed_arc_deg(cur, headings[i])
            segments.append(Rotate(verts[i], cur, headings[i], arc))
            run_start = i
            cur = headings[i]
    return SegmentPath(verts[0], headings[0], tuple(segments))


class TestSegmentPathAgainstFormer:
    """The one pose walk gives the former two converters' segment paths,
    _from_lattice and _from_polyline above (verbatim), compared by repr, so
    that an int heading where the former gave a float would show."""

    @staticmethod
    def assert_same(path, wmap=None, delta=None):
        former = _from_polyline(path) if isinstance(path, PolyPath) else \
            _from_lattice(path, wmap, delta)
        got = to_segment_path(path, wmap, delta)
        assert repr(got) == repr(former)
        return got

    def test_museum_front(self, museum):
        from pnav.fixtures import MUSEUM_DELTA, MUSEUM_GOAL, MUSEUM_START
        wmap, model = museum
        graph = build_lattice(wmap, model, MUSEUM_DELTA)
        front = plan_pareto(graph, LatticeNode(*MUSEUM_START), GoalSpec(*MUSEUM_GOAL))
        assert len(front.entries) == 18
        for _, nodes in front.entries:
            self.assert_same(nodes, wmap, MUSEUM_DELTA)

    def test_brute_force_fronts_on_random_maps(self):
        rng = random.Random(2424)
        paths = 0
        for _ in range(60):
            w, h = rng.randint(2, 4), rng.randint(2, 4)
            rows = ["".join("#" if rng.random() < 0.2 else "." for _ in range(w))
                    for _ in range(h)]
            wmap = make_map(rows, resolution=0.5, origin=(-1.25, 0.75))
            graph = build_lattice(wmap, RobotModel(footprint_radius=0.1,
                                                   camera_clearance_radius=0.6), 0.5)
            free = sorted(graph.phi)
            if not free:
                continue
            sp, gp = rng.choice(free), rng.choice(free)
            start = LatticeNode(sp[0], sp[1], rng.choice(HEADINGS))
            goal = GoalSpec(gp[0], gp[1], rng.choice([None] + list(HEADINGS)))
            for _, nodes in brute_force_front(graph, start, goal).entries:
                self.assert_same(nodes, wmap, 0.5)
                paths += 1
        assert paths >= 60

    def test_hand_made_node_lists(self):
        wmap = free_map(3, 3)
        twice = [LatticeNode(0, 0, 45), LatticeNode(0, 0, 45), LatticeNode(0, 0, 90),
                 LatticeNode(0, 1, 90), LatticeNode(0, 2, 90), LatticeNode(0, 2, 270)]
        for nodes in ([LatticeNode(1, 1, 90)],
                      [LatticeNode(0, 0, 0), LatticeNode(0, 0, 0)],
                      [LatticeNode(0, 0, 0), LatticeNode(1, 0, 0), LatticeNode(1, 0, 0),
                       LatticeNode(2, 0, 0)],
                      twice):
            self.assert_same(nodes, wmap, 1.0)
        spath = to_segment_path([LatticeNode(0, 0, 0), LatticeNode(0, 0, 0)], wmap, 1.0)
        assert spath.segments == (Rotate((0.5, 0.5), 0.0, 0.0, 0.0),)
        # a repeated node, then a turn: two rotations in a row
        spath = to_segment_path(twice, wmap, 1.0)
        assert [type(s) for s in spath.segments] == [Rotate, Rotate, Translate, Rotate]

    def test_museum_rrt_paths(self, museum):
        from pnav.fixtures import MUSEUM_GOAL_WORLD, MUSEUM_START_WORLD
        wmap, model = museum
        ran = 0
        for seed in range(200):
            path = rrt_plan(wmap, model, MUSEUM_START_WORLD[:2], MUSEUM_GOAL_WORLD,
                            RrtParams(step_size=1.0, seed=seed))
            if path is not None:
                self.assert_same(path)
                ran += 1
        assert ran >= 200

    def test_collinear_and_near_collinear_polylines(self):
        """Seeded polylines on a 1/8 grid, where a vertex that continues a
        segment between grid points is exactly collinear with it, or moved
        off that line by 1e-12, 1e-9 or 1e-7."""
        rng = random.Random(4242)
        merged = split = 0
        for _ in range(3000):
            verts = [(rng.randint(-80, 80) / 8, rng.randint(-80, 80) / 8)]
            for _ in range(rng.randint(0, 8)):
                (x, y), k = verts[-1], rng.randint(1, 3)
                if len(verts) > 1 and rng.random() < 0.7:
                    px, py = verts[-2]
                    off = rng.choice([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7])
                    dx, dy = (x - px) * k, (y - py) * k
                    if rng.random() < 0.5:
                        dx += off
                    else:
                        dy += off
                else:
                    dx, dy = rng.randint(-16, 16) / 8, rng.randint(-16, 16) / 8
                if (dx, dy) != (0, 0):
                    verts.append((x + dx, y + dy))
            kinds = [type(s) for s in self.assert_same(PolyPath(tuple(verts))).segments]
            merged += kinds.count(Translate) < len(verts) - 1
            split += kinds.count(Rotate) > 0
        assert merged > 500 and split > 500


class TestToTimed:
    def test_translate_sample_count(self):
        sp = to_segment_path(PolyPath(((0.0, 0.0), (4.0, 0.0))))
        tt = to_timed(sp, v=1.0, omega_deg=90.0, dt=0.5)
        assert tt.samples.shape[0] == 9
        assert tt.duration == pytest.approx(4.0)

    def test_rotation_duration(self):
        wmap = free_map(1, 1)
        nodes = [LatticeNode(0, 0, 0), LatticeNode(0, 0, 90)]
        tt = to_timed(to_segment_path(nodes, wmap, 1.0), v=1.0, omega_deg=45.0)
        assert tt.duration == pytest.approx(2.0)

    def test_duration_additivity(self):
        sp = to_segment_path(PolyPath(((0, 0), (2, 0), (2, 3), (5, 3))))
        tt = to_timed(sp, v=0.8, omega_deg=60.0, dt=0.05)
        expected = 0.0
        for seg in sp.segments:
            if isinstance(seg, Translate):
                expected += seg.length / 0.8
            else:
                expected += abs(seg.arc) / 60.0
        assert tt.duration == pytest.approx(expected, abs=1e-12)

    def test_kinematic_invariants(self):
        sp = to_segment_path(PolyPath(((0, 0), (3, 0), (3, 2))))
        tt = to_timed(sp, v=1.0, omega_deg=90.0, dt=0.1)
        s = tt.samples
        assert s[0, 0] == 0.0
        dts = np.diff(s[:, 0])
        assert np.all(dts > 0)
        assert np.allclose(dts[:-1], 0.1)
        # during each interval either position moves or heading turns, not both
        moved = np.hypot(np.diff(s[:, 1]), np.diff(s[:, 2])) > 1e-12
        turned = np.abs((np.diff(s[:, 3]) + 180) % 360 - 180) > 1e-12
        assert not np.any(moved & turned)

    def test_bad_parameters(self):
        sp = to_segment_path(PolyPath(((0, 0), (1, 0))))
        with pytest.raises(TrajectoryError):
            to_timed(sp, v=0.0)
        with pytest.raises(TrajectoryError):
            to_timed(sp, dt=-0.1)

    @pytest.mark.parametrize("name", ["v", "omega_deg", "dt"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, True])
    def test_non_finite_or_bool_parameter_names_it(self, name, bad):
        sp = to_segment_path(PolyPath(((0, 0), (1, 0), (1, 1))))
        with pytest.raises(TrajectoryError, match=name):
            to_timed(sp, **{name: bad})

    def test_sample_cap_checked_before_allocating(self):
        import tracemalloc
        sp = to_segment_path(PolyPath(((0, 0), (3, 0), (3, 4))))
        # 8 s / 5e-324 overflows to inf: without the cap this would build
        # ticks forever
        tracemalloc.start()
        try:
            with pytest.raises(TrajectoryError, match="dt"):
                to_timed(sp, dt=5e-324)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def former_to_timed(spath: SegmentPath, v: float = 1.0, omega_deg: float = 90.0,
                    dt: float = 0.05) -> TimedTrajectory:
    """to_timed as it was, scanning the schedule from the start for every
    tick; verbatim, the oracle of the forward walk."""
    for value, name in ((v, "v"), (omega_deg, "omega_deg"), (dt, "dt")):
        finite_number(value, name, positive=True, error=TrajectoryError)

    # per-segment schedule: (t_start, t_end, segment)
    schedule = []
    t = 0.0
    for seg in spath.segments:
        if isinstance(seg, Translate):
            dur = seg.length / v
        else:
            dur = abs(seg.arc) / omega_deg
        schedule.append((t, t + dur, seg))
        t += dur
    total = t
    if total / dt > MAX_SAMPLES:  # checked before any tick is built
        raise TrajectoryError(f"dt {dt!r} gives more than {MAX_SAMPLES} samples "
                              f"over the {total:.6g} s trajectory")

    def pose_at(tq: float) -> tuple[float, float, float]:
        for t0, t1, seg in schedule:
            if tq <= t1 or seg is schedule[-1][2]:
                if tq < t0:
                    tq = t0
                frac = 0.0 if t1 == t0 else (tq - t0) / (t1 - t0)
                frac = min(max(frac, 0.0), 1.0)
                if isinstance(seg, Translate):
                    x = seg.p0[0] + frac * (seg.p1[0] - seg.p0[0])
                    y = seg.p0[1] + frac * (seg.p1[1] - seg.p0[1])
                    return (x, y, wrap_deg(seg.heading))
                h = wrap_deg(seg.from_heading + frac * seg.arc)
                return (seg.point[0], seg.point[1], h)
        return (spath.start[0], spath.start[1], wrap_deg(spath.start_heading))

    times = [0.0]
    k = 1
    while k * dt < total - 1e-12:
        times.append(k * dt)
        k += 1
    if total > 0.0:
        times.append(total)

    rows = np.empty((len(times), 4), dtype=float)
    for i, tq in enumerate(times):
        x, y, h = pose_at(tq)
        rows[i] = (tq, x, y, h)
    return TimedTrajectory(rows, v, omega_deg, dt)


COORD = st.floats(-50, 50, allow_nan=False).map(lambda c: round(c, 3))
# PolyPath needs consecutive vertices distinct
POLYLINES = st.lists(st.tuples(COORD, COORD), min_size=1, max_size=8).map(
    lambda vs: [p for i, p in enumerate(vs) if i == 0 or p != vs[i - 1]])


class TestToTimedAgainstFormer:
    """The forward walk gives the former per-tick scan's samples, bit for bit."""

    @staticmethod
    def assert_same(spath, **kw):
        got, ref = to_timed(spath, **kw), former_to_timed(spath, **kw)
        assert got.samples.dtype == ref.samples.dtype == np.float64
        assert got.samples.shape == ref.samples.shape
        assert got.samples.tobytes() == ref.samples.tobytes()
        assert timed_to_json(got) == timed_to_json(ref)

    @settings(max_examples=200, deadline=None)
    @given(verts=POLYLINES, v=st.sampled_from([0.3, 1.0, 1.7]),
           omega_deg=st.sampled_from([45.0, 90.0, 200.0]),
           dt=st.sampled_from([0.05, 0.2, 0.37, 5.0]))
    def test_polylines(self, verts, v, omega_deg, dt):
        self.assert_same(to_segment_path(PolyPath(tuple(verts))),
                         v=v, omega_deg=omega_deg, dt=dt)

    def test_lattice_front(self, museum):
        from pnav.fixtures import MUSEUM_DELTA, MUSEUM_GOAL, MUSEUM_START
        wmap, model = museum
        graph = build_lattice(wmap, model, MUSEUM_DELTA)
        front = plan_pareto(graph, LatticeNode(*MUSEUM_START), GoalSpec(*MUSEUM_GOAL))
        for _, nodes in front.entries:
            spath = to_segment_path(nodes, wmap, MUSEUM_DELTA)
            for dt in (0.05, 0.2):
                self.assert_same(spath, dt=dt)

    def test_ticks_on_segment_ends(self):
        # a tick exactly at a segment's end samples that segment at frac 1,
        # where x is 0.7 + (0.1 - 0.7) = 0.09999999999999998, not the next
        # segment's 0.1
        spath = to_segment_path(PolyPath(((0.7, 0.0), (0.1, 0.0), (0.1, 2.3), (2.3, 0.9))))
        t = 0.0
        for seg in spath.segments[:-1]:
            t += seg.length if isinstance(seg, Translate) else abs(seg.arc) / 90.0
            self.assert_same(spath, dt=t)
        assert to_timed(spath, dt=spath.segments[0].length).samples[1, 1] == 0.09999999999999998

    def test_zero_length_segments_and_no_segments(self):
        p = (1.5, -2.0)
        for spath in (SegmentPath(p, 270.0, ()), SegmentPath(p, -0.0, ()),
                      SegmentPath(p, 0.0, (Rotate(p, 0.0, 0.0, 0.0),
                                           Translate(p, p, 0.0))),
                      SegmentPath(p, 0.0, (Translate(p, (2.5, -2.0), 0.0),
                                           Rotate((2.5, -2.0), 0.0, 0.0, 0.0),
                                           Rotate((2.5, -2.0), 0.0, 90.0, 90.0)))):
            self.assert_same(spath, dt=0.25)


class TestRotationRuns:
    @staticmethod
    def timed(rows):
        return TimedTrajectory(np.array(rows, dtype=float), 1.0, 90.0, 1.0)

    def test_runs_are_maximal_and_half_open(self):
        theta = np.array([0.0, 0.0, 45.0, 90.0, 90.0, 90.0, 350.0, 350.0, 10.0])
        assert heading_change_runs(theta) == [(1, 3), (5, 6), (7, 8)]
        assert heading_change_runs(np.array([7.0])) == []

    def test_marker_at_first_still_interval_of_each_run(self):
        # run 1 turns while moving, then in place; run 2 only while moving
        tt = self.timed([[0, 0, 0, 0], [1, 1, 0, 10], [2, 1, 0, 20], [3, 1, 0, 30],
                         [4, 2, 0, 30], [5, 3, 0, 40], [6, 4, 0, 40]])
        assert heading_change_runs(tt.samples[:, 3]) == [(0, 3), (4, 5)]
        assert rotation_points(tt) == [(1.0, 0.0)]
        assert eval_costs([tt], free_map(8, 8), 0.5)[0].N == 2


class TestEvalCosts:
    def test_stationary_in_free_space(self):
        wmap = free_map(10, 10)
        sp = to_segment_path(PolyPath(((5.0, 5.0),)))
        [rep] = eval_costs([to_timed(sp)], wmap, 1.0)
        assert (rep.V, rep.N, rep.D) == (0.0, 0, 0.0)

    def test_straight_translate(self):
        wmap = free_map(12, 6)
        sp = to_segment_path(PolyPath(((3.0, 3.0), (7.0, 3.0))))
        [rep] = eval_costs([to_timed(sp)], wmap, 1.0)
        assert rep.V == 0.0 and rep.N == 0
        assert rep.D == pytest.approx(4.0, abs=1e-9)

    def test_lattice_front_consistency(self):
        from pnav.gridmap import RobotModel
        wmap = make_map(["......", "..##..", "......", "......"])
        model = RobotModel(footprint_radius=0.2, camera_clearance_radius=0.8)
        graph = build_lattice(wmap, model, 1.0)
        front = plan_pareto(graph, LatticeNode(0, 0, 0), GoalSpec(5, 3))
        assert len(front) > 0
        for cost, nodes in front.entries:
            sp = to_segment_path(nodes, wmap, 1.0)
            [rep] = eval_costs([to_timed(sp)], wmap, 0.8)
            assert rep.N == cost.w2
            assert rep.D == pytest.approx(cost.w3, abs=1e-9)

    def test_dt_refinement_converges(self):
        # V is smooth along a straight approach to a wall, so trapezoidal
        # integration shows Cauchy behavior: each halving changes V less
        wmap = make_map(["#" * 16] * 4 + ["." * 16] * 12, resolution=0.5)
        sp = to_segment_path(PolyPath(((4.0, 1.0), (4.0, 5.0))))
        timeds = [to_timed(sp, dt=dt) for dt in (0.4, 0.2, 0.1, 0.05, 0.025)]
        vals = [rep.V for rep in eval_costs(timeds, wmap, 2.0)]
        deltas = [abs(a - b) for a, b in zip(vals, vals[1:])]
        assert deltas[0] > 0
        for d1, d2 in zip(deltas, deltas[1:]):
            assert d2 <= d1 + 1e-12

    def test_v_is_trapezoid_mean_of_obstruction(self, monkeypatch):
        # V must not depend on np.trapz, which numpy 2.4 removed
        monkeypatch.delattr(np, "trapz", raising=False)
        wmap = make_map(["#" * 16] * 4 + ["." * 16] * 12, resolution=0.5)
        sp = to_segment_path(PolyPath(((4.0, 1.0), (4.0, 5.0))))
        # dt does not divide the duration, so the last interval is shorter
        timed = to_timed(sp, dt=0.3)
        [rep] = eval_costs([timed], wmap, 2.0)

        t = [float(row[0]) for row in timed.samples]
        phi = [obstruction_ratio(wmap, (row[1], row[2]), 2.0)
               for row in timed.samples]
        assert len(set(phi)) > 2
        trapezoid = sum((t1 - t0) * (p0 + p1) / 2.0
                        for t0, t1, p0, p1 in zip(t, t[1:], phi, phi[1:]))
        left_sum = sum((t1 - t0) * p0 for t0, t1, p0 in zip(t, t[1:], phi))
        assert rep.T == t[-1]
        assert rep.V == pytest.approx(trapezoid / t[-1], rel=1e-12)
        assert rep.V != pytest.approx(left_sum / t[-1], rel=1e-6)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_samples_of_another_dtype_read_as_their_values(self, museum, dtype):
        wmap, _ = museum
        timed = to_timed(to_segment_path(PolyPath(((3.0, 3.0), (4.0, 3.0)))))
        samples = timed.samples.astype(dtype)
        [got] = eval_costs([TimedTrajectory(samples, 1.0, 90.0, 0.05)], wmap, 2.0)
        [want] = eval_costs([TimedTrajectory(samples.astype(np.float64), 1.0, 90.0, 0.05)],
                            wmap, 2.0)
        assert got == want
        if dtype is np.int64:  # every sample at x = 3 or 4, y = 3: no obstruction
            assert got.V == 0.0

    def test_distance_lower_bound(self):
        wmap = free_map(10, 10)
        sp = to_segment_path(PolyPath(((1, 1), (4, 1), (4, 6), (8, 6))))
        [rep] = eval_costs([to_timed(sp)], wmap, 0.5)
        chord = math.dist((1, 1), (8, 6))
        assert rep.D > chord

    def test_rigid_motion_invariance(self):
        # same geometry expressed in a translated map frame
        wmap1 = make_map(["....", ".#..", "...."], origin=(0.0, 0.0))
        wmap2 = make_map(["....", ".#..", "...."], origin=(10.0, -5.0))
        sp1 = to_segment_path(PolyPath(((0.5, 0.5), (3.5, 0.5), (3.5, 2.5))))
        sp2 = to_segment_path(PolyPath(((10.5, -4.5), (13.5, -4.5), (13.5, -2.5))))
        [r1] = eval_costs([to_timed(sp1)], wmap1, 1.0)
        [r2] = eval_costs([to_timed(sp2)], wmap2, 1.0)
        assert r1.V == pytest.approx(r2.V, abs=1e-12)
        assert r1.N == r2.N
        assert r1.D == pytest.approx(r2.D, abs=1e-12)


class TestTrajectoryJson:
    def test_round_trip(self):
        sp = to_segment_path(PolyPath(((0, 0), (2, 0), (2, 2))))
        tt = to_timed(sp, v=1.0, omega_deg=90.0, dt=0.1)
        again = timed_from_json(timed_to_json(tt))
        assert np.array_equal(tt.samples, again.samples)
        assert (again.v, again.omega_deg, again.dt) == (1.0, 90.0, 0.1)

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d.pop("v"), "v"),
        (lambda d: d.update(dt=-1.0), "dt"),
        (lambda d: d.update(samples=[]), "samples"),
        (lambda d: d["samples"][1].pop("x"), "samples\\[1\\].x"),
    ])
    def test_schema_violations_name_the_field(self, mutate, field):
        sp = to_segment_path(PolyPath(((0, 0), (1, 0))))
        doc = json.loads(timed_to_json(to_timed(sp)))
        mutate(doc)
        with pytest.raises(TrajectoryError, match=field):
            timed_from_json(json.dumps(doc))

    @pytest.mark.parametrize("path,bad", [
        (("v",), True),
        (("omega_deg",), math.inf),
        (("dt",), math.nan),
        (("samples", 1, "t"), math.nan),
        (("samples", 1, "x"), math.inf),
        (("samples", 0, "y"), -math.inf),
        (("samples", 1, "theta_deg"), False),
    ])
    def test_non_finite_or_bool_value_names_the_field(self, path, bad):
        sp = to_segment_path(PolyPath(((0, 0), (1, 0))))
        doc = json.loads(timed_to_json(to_timed(sp)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = bad
        field = path[0] if len(path) == 1 else f"samples\\[{path[1]}\\].{path[2]}"
        with pytest.raises(TrajectoryError, match=field):
            timed_from_json(json.dumps(doc))


def reference_timed_json(timed, **fields):
    """timed_to_json as it was written with json.dumps; the writer's oracle."""
    samples = [{"t": float(r[0]), "x": float(r[1]), "y": float(r[2]),
                "theta_deg": float(r[3])} for r in timed.samples]
    return json.dumps({"v": timed.v, "omega_deg": timed.omega_deg,
                       "dt": timed.dt, "samples": samples, **fields},
                      indent=1, sort_keys=True, allow_nan=False)


# finite floats, with the ones whose repr is easiest to get wrong
FINITE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7,
                                    0.1, 359.99999999999994, 1.7976931348623157e308]),
                   st.floats(allow_nan=False, allow_infinity=False))
SCALAR = st.one_of(st.integers(1, 10**6), st.floats(min_value=1e-9, max_value=1e9))
# any string but dump_json's slot, which it refuses (TestDumpJson)
TEXT = st.text().filter(lambda text: text != "\0")
VALUE = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(TEXT, inner, max_size=3), max_leaves=12)
FIELDS = st.dictionaries(
    TEXT.filter(lambda key: key not in ("timed", "v", "omega_deg", "dt", "samples", "depth")),
    VALUE, max_size=4)


class TestTrajectoryWriter:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE), max_size=12),
           v=SCALAR, omega_deg=SCALAR, dt=SCALAR, fields=FIELDS)
    def test_text_equals_json_dumps(self, rows, v, omega_deg, dt, fields):
        samples = np.array(rows, dtype=float).reshape(-1, 4)
        timed = TimedTrajectory(samples, v, omega_deg, dt)
        try:
            expected = reference_timed_json(timed, **fields)
        except ValueError:  # a NaN or infinity in fields, which JSON lacks
            with pytest.raises(ValueError, match="not JSON compliant"):
                timed_to_json(timed, **fields)
            return
        assert timed_to_json(timed, **fields) == expected
        # at depth 2 of an enclosing document: every later line 2 spaces in
        assert timed_to_json(timed, depth=2, **fields) == expected.replace("\n", "\n  ")

    # values that trajectories of one front share, always with the pairs
    # that compare equal, or nearly, as floats but write differently
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), pool=st.lists(FINITE, max_size=6))
    def test_blocks_of_trajectories_that_share_values(self, data, pool):
        value = st.sampled_from(pool + [0.0, -0.0, 5e-324, -5e-324])
        rows = st.lists(st.tuples(value, value, value, value), max_size=10)
        timeds = [TimedTrajectory(np.array(r, dtype=float).reshape(-1, 4), v, omega_deg, dt)
                  for r, v, omega_deg, dt in data.draw(
                      st.lists(st.tuples(rows, SCALAR, SCALAR, SCALAR), min_size=1, max_size=4))]
        for depth in (0, data.draw(st.integers(1, 5))):
            blocks = sample_blocks(timeds, depth)
            assert ([timed_to_json(timed, block, depth) for timed, block in zip(timeds, blocks)]
                    == [reference_timed_json(timed).replace("\n", "\n" + " " * depth)
                        for timed in timeds])

    def test_lattice_and_polyline_trajectories(self):
        wmap = free_map(6, 6)
        nodes = [LatticeNode(0, 0, 0), LatticeNode(0, 0, 45), LatticeNode(1, 1, 45),
                 LatticeNode(1, 1, 90), LatticeNode(1, 2, 90)]
        for sp in (to_segment_path(nodes, wmap, 1.0),
                   to_segment_path(PolyPath(((0.3, 0.1), (2.9, 0.1), (2.9, 4.7))))):
            for v, dt in ((1.0, 0.05), (1, 0.3), (0.7, 1)):
                timed = to_timed(sp, v=v, omega_deg=90.0, dt=dt)
                assert timed_to_json(timed) == reference_timed_json(timed)

    @pytest.mark.parametrize("row,col,field", [
        (0, 0, "t"), (2, 1, "x"), (1, 2, "y"), (3, 3, "theta_deg")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_is_refused(self, row, col, field, bad):
        samples = np.arange(16, dtype=float).reshape(4, 4)
        samples[row, col] = bad
        with pytest.raises(TrajectoryError, match=f"samples\\[{row}\\].{field}"):
            timed_to_json(TimedTrajectory(samples, 1.0, 90.0, 0.05))


class TestDumpJson:
    INNER = {"b": [1, 2.5, {"c": None}], "a": "x"}

    def at_depth(self, depth):
        """INNER's text for a slot at depth: its later lines indented so."""
        text = json.dumps(self.INNER, indent=1, sort_keys=True)
        return JsonText(text.replace("\n", "\n" + " " * depth))

    def test_json_text_at_two_depths(self):
        # "top" sits at depth 1; "k" at depth 3: document > "z" > list item > "k"
        doc = {"z": [3, {"k": self.INNER}], "top": self.INNER, "s": "a\0b", "t": (1, 2)}
        spliced = dict(doc, z=[3, {"k": self.at_depth(3)}], top=self.at_depth(1))
        assert dump_json(spliced) == json.dumps(doc, indent=1, sort_keys=True)
        # the same document at depth 2 of another: its texts at depth 2 more
        deeper = dict(doc, z=[3, {"k": self.at_depth(5)}], top=self.at_depth(3))
        assert dump_json(deeper, 2) == json.dumps(doc, indent=1, sort_keys=True).replace(
            "\n", "\n  ")

    def test_keeps_no_reference_to_its_texts(self):
        # a front's texts are most of its memory; held in a reference cycle
        # they would outlive the dump until a cyclic collection
        text = JsonText("[]")
        ref = weakref.ref(text)
        gc.disable()
        try:
            assert dump_json({"a": [text]}) == '{\n "a": [\n  []\n ]\n}'
            del text
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("doc", [
        {"text": JsonText("[]"), "plain": "\0"},
        {"plain": ["\0"]},
    ])
    def test_plain_string_equal_to_the_slot_is_refused(self, doc):
        with pytest.raises(RuntimeError, match="text slots for"):
            dump_json(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_refused(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dump_json({"report": {"D": value}})
