"""Acceptance gate: end-to-end checks with pinned tolerances and budgets.

Each test prints one PASS/FAIL line (bypassing capture) so the verdict is
visible in plain pytest output.
"""

import random
import sys
import time

import pytest

from pnav.cli import main
from pnav.fixtures import (MUSEUM_DELTA, MUSEUM_GOAL, MUSEUM_START,
                           museum_map, museum_model)
from pnav.gridmap import RobotModel, obstruction_ratio
from pnav.lattice import HEADINGS, CostVector, LatticeNode, build_lattice
from pnav.moastar import (GoalSpec, brute_force_front, costs_equal, dominates,
                          pareto_filter, plan_pareto)
from pnav.rrt import (PolyPath, RrtParams, best_of_n, curvature_sign_changes,
                      rrt_plan)
from pnav.trajectory import eval_costs, to_segment_path, to_timed

from conftest import dump_map, free_map, make_map


def report(name: str, ok: bool, elapsed: float, budget: float):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{verdict}] {name} ({elapsed:.1f}s, budget {budget:.0f}s)",
          file=sys.__stdout__)
    assert ok, name
    assert elapsed < budget, f"{name}: {elapsed:.1f}s over budget {budget}s"


@pytest.fixture(scope="module")
def museum_graph():
    wmap = museum_map()
    return wmap, museum_model(), build_lattice(wmap, museum_model(), MUSEUM_DELTA)


def test_planner_matches_exhaustive_oracle():
    t0 = time.time()
    rng = random.Random(20260823)
    ok = True
    tried = 0
    while tried < 100:
        w, h = rng.randint(2, 5), rng.randint(2, 5)
        density = rng.uniform(0.0, 0.30)
        rows = ["".join("#" if rng.random() < density else "."
                        for _ in range(w)) for _ in range(h)]
        g = build_lattice(make_map(rows),
                          RobotModel(footprint_radius=0.2,
                                     camera_clearance_radius=1.0), 1.0)
        free = sorted(g.phi)
        if not free:
            continue
        tried += 1
        start = LatticeNode(*rng.choice(free), rng.choice(HEADINGS))
        goal = GoalSpec(*rng.choice(free), rng.choice([None] + list(HEADINGS)))
        got = sorted(c.as_tuple() for c in plan_pareto(g, start, goal).costs())
        want = sorted(c.as_tuple()
                      for c in brute_force_front(g, start, goal).costs())
        if len(got) != len(want):
            ok = False
            break
        for a, b in zip(got, want):
            if a[1] != b[1] or abs(a[0] - b[0]) > 1e-9 or abs(a[2] - b[2]) > 1e-9:
                ok = False
                break
        if not ok:
            break
    report("planner front == exhaustive enumeration on 100 random maps",
           ok, time.time() - t0, 60.0)


def test_museum_front_tradeoff_structure(museum_graph):
    t0 = time.time()
    wmap, model, graph = museum_graph
    front = plan_pareto(graph, LatticeNode(*MUSEUM_START), GoalSpec(*MUSEUM_GOAL))
    timeds = [to_timed(to_segment_path(nodes, wmap, MUSEUM_DELTA))
              for _, nodes in front.entries]
    reports = eval_costs(timeds, wmap, model.camera_clearance_radius)
    has_clear = any(rep.V == 0.0 for rep in reports)
    min_d = min(reports, key=lambda rep: rep.D)
    min_n = min(reports, key=lambda rep: rep.N)
    ok = (len(reports) > 0 and has_clear and min_d.V > 0.0
          and min_n.N < min_d.N)
    report("museum front: unobstructed entry, shortest entry obstructed, "
           "fewest-turns entry turns less than shortest",
           ok, time.time() - t0, 30.0)


def test_obstruction_ratio_symmetry():
    t0 = time.time()
    r, res = 16.0, 1.0
    tol = 2.0 / (r / res)
    half = make_map(["#" * 48] * 24 + ["." * 48] * 24, resolution=res)
    quarter = make_map(["#" * 24 + "." * 24] * 24 + ["." * 48] * 24,
                       resolution=res)
    # probe on the boundary, far from map edges
    phi_half = obstruction_ratio(half, (24.0, 24.0), r)
    phi_quarter = obstruction_ratio(quarter, (24.0, 24.0), r)
    ok = abs(phi_half - 0.5) <= tol and abs(phi_quarter - 0.25) <= tol
    report("obstruction ratio: half-plane 0.5 and quarter-plane 0.25 "
           f"within {tol:g}", ok, time.time() - t0, 1.0)


def test_search_evaluator_consistency(museum_graph):
    t0 = time.time()
    wmap, model, graph = museum_graph
    rng = random.Random(7)
    positions = sorted(graph.phi)
    ok = True
    checked = 0
    for _ in range(20):
        start = LatticeNode(*rng.choice(positions), rng.choice(HEADINGS))
        goal = GoalSpec(*rng.choice(positions))
        front = plan_pareto(graph, start, goal)
        timeds = [to_timed(to_segment_path(nodes, wmap, MUSEUM_DELTA), dt=0.1)
                  for _, nodes in front.entries]
        reps = eval_costs(timeds, wmap, model.camera_clearance_radius)
        for (cost, _), rep in zip(front.entries, reps):
            checked += 1
            if rep.N != cost.w2 or abs(rep.D - cost.w3) > 1e-9:
                ok = False
    # time-averaged obstruction: halving the tick keeps shrinking the change
    # (checked on a straight wall approach, where the integrand is smooth)
    sp = to_segment_path(PolyPath(((3.5, 7.5), (9.5, 7.5))))
    timeds = [to_timed(sp, dt=dt) for dt in (0.4, 0.2, 0.1, 0.05, 0.025)]
    vals = [rep.V for rep in eval_costs(timeds, wmap, model.camera_clearance_radius)]
    deltas = [abs(a - b) for a, b in zip(vals, vals[1:])]
    converges = deltas[0] > 0 and all(
        d2 <= d1 + 1e-12 for d1, d2 in zip(deltas, deltas[1:]))
    ok = ok and checked > 0 and converges
    report(f"evaluator agrees with search costs on {checked} front entries; "
           "integration converges under tick halving",
           ok, time.time() - t0, 30.0)


def test_rrt_baseline_protocol(museum_graph):
    t0 = time.time()
    wmap, model, _ = museum_graph
    start, goal = (3.5, 3.5), (18.5, 3.5)
    params = RrtParams(step_size=1.0, seed=0)
    n = 1000
    best1 = best_of_n(wmap, model, start, goal, params, n)
    best2 = best_of_n(wmap, model, start, goal, params, n)
    successes = 0
    min_signs = None
    for k in range(n):
        p = rrt_plan(wmap, model, start, goal,
                     RrtParams(step_size=1.0, seed=k))
        if p is None:
            continue
        successes += 1
        s = curvature_sign_changes(p) if len(p.vertices) >= 2 else 0
        if min_signs is None or s < min_signs:
            min_signs = s
    ok = (successes >= 0.95 * n
          and best1.vertices == best2.vertices
          and curvature_sign_changes(best1) == min_signs)
    report(f"best-of-{n} sampling baseline: {successes / n:.1%} success, "
           "straightest run selected, bit-reproducible",
           ok, time.time() - t0, 120.0)


def test_dominance_algebra():
    t0 = time.time()
    rng = random.Random(5150)

    def vec():
        return CostVector(rng.uniform(0, 5), rng.randint(0, 5),
                          rng.uniform(0, 5))

    ok = True
    for _ in range(100_000):
        a, b, c = vec(), vec(), vec()
        if dominates(a, a):
            ok = False
        if dominates(a, b) and dominates(b, a):
            ok = False
        if dominates(a, b) and dominates(b, c) and not dominates(a, c):
            ok = False
        if not ok:
            break

    for _ in range(1000):
        vs = [CostVector(rng.randint(0, 4), rng.randint(0, 4),
                         rng.randint(0, 4)) for _ in range(rng.randint(1, 25))]
        got = pareto_filter(vs)
        expect = []
        for v in vs:
            if any(dominates(u, v) for u in vs):
                continue
            if any(costs_equal(u, v) for u in expect):
                continue
            expect.append(v)
        if got != expect:
            ok = False
            break
    report("dominance is irreflexive, asymmetric, transitive; filter matches "
           "quadratic oracle", ok, time.time() - t0, 10.0)


def test_cli_contract(tmp_path):
    t0 = time.time()
    free = tmp_path / "free.json"
    free.write_text(dump_map(free_map(3, 3)))
    sealed = tmp_path / "sealed.json"
    sealed.write_text(dump_map(make_map([".....",
                                         ".###.",
                                         ".#.#.",
                                         ".###.",
                                         "....."])))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")

    def plan(mp, out, goal):
        return main(["plan", "--map", str(mp), "--start", "0.5,0.5,0",
                     "--goal", goal, "--delta", "1.0", "--rho", "0.2",
                     "--r", "0.8", "--out", str(out), "--svg"])

    codes = (plan(free, tmp_path / "a", "2.5,2.5"),
             plan(sealed, tmp_path / "b", "2.5,2.5"),
             plan(bad, tmp_path / "c", "2.5,2.5"),
             plan(free, tmp_path / "d", "0.5,0.5,30"))  # bad heading
    ok = codes == (0, 2, 1, 1)

    blobs = []
    for k in (1, 2):
        out = tmp_path / f"rep{k}"
        if plan(free, out, "2.5,2.5") != 0:
            ok = False
        blobs.append(((out / "front.json").read_bytes(),
                      (out / "front.svg").read_bytes()))
    ok = ok and blobs[0] == blobs[1]
    report("CLI exit codes 0/2/1 and byte-identical outputs",
           ok, time.time() - t0, 10.0)
