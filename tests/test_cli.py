import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import pnav.cli
import pnav.rrt
from pnav.cli import main
from pnav.gridmap import RobotModel
from pnav.fixtures import museum_map
from pnav.trajectory import eval_costs, timed_to_json, to_segment_path, to_timed

from conftest import dump_map, free_map, make_map

SQRT2 = math.sqrt(2.0)


@pytest.fixture
def map_file(tmp_path):
    def write(wmap, name="map.json"):
        path = tmp_path / name
        path.write_text(dump_map(wmap))
        return str(path)
    return write


def run_plan(map_path, out, start="0.5,0.5,0", goal="2.5,2.5", extra=()):
    return main(["plan", "--map", map_path, "--start", start, "--goal", goal,
                 "--delta", "1.0", "--rho", "0.2", "--r", "0.8",
                 "--out", str(out), *extra])


class TestExitCodes:
    def test_plan_nonempty_front(self, map_file, tmp_path):
        code = run_plan(map_file(free_map(3, 3)), tmp_path / "out")
        assert code == 0
        doc = json.loads((tmp_path / "out" / "front.json").read_text())
        assert len(doc["entries"]) == 1
        cost = doc["entries"][0]["cost"]
        assert cost["w2"] == 1
        assert cost["w3"] == pytest.approx(2 * SQRT2)

    def test_plan_sealed_goal_is_empty(self, map_file, tmp_path):
        wmap = make_map([".....",
                         ".###.",
                         ".#.#.",
                         ".###.",
                         "....."])
        code = run_plan(map_file(wmap), tmp_path / "out",
                        start="0.5,0.5,0", goal="2.5,2.5")
        assert code == 2
        doc = json.loads((tmp_path / "out" / "front.json").read_text())
        assert doc["entries"] == []

    @pytest.mark.parametrize("start, goal, message", [
        ("a,b,c", "2.5,2.5", "--start must be numeric"),
        ("0.5,0.5", "2.5,2.5", "--start must be X,Y,TH"),
        ("0.5,0.5,0", "2.5,x", "--goal must be numeric X,Y"),
    ])
    def test_malformed_pose_fails_before_the_lattice_is_built(
            self, map_file, tmp_path, capsys, monkeypatch, start, goal, message):
        def no_build(*args, **kwargs):
            raise AssertionError("build_lattice called")
        monkeypatch.setattr(pnav.cli, "build_lattice", no_build)
        code = run_plan(map_file(free_map(3, 3)), tmp_path / "out", start=start, goal=goal)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_map(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"width": 2}')
        code = run_plan(str(bad), tmp_path / "out")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unreadable_map(self, tmp_path):
        assert run_plan(str(tmp_path / "missing.json"), tmp_path / "out") == 1

    def test_start_in_collision(self, map_file, tmp_path, capsys):
        code = run_plan(map_file(make_map(["#..", "...", "..."])), tmp_path / "out",
                        start="0.5,2.5,0", goal="2.5,0.5")
        assert code == 1
        assert "invalid start" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_goal_outside_map(self, map_file, tmp_path, capsys):
        code = run_plan(map_file(free_map(3, 3)), tmp_path / "out",
                        goal="25.0,25.0")
        assert code == 1
        assert "invalid goal" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("goal", ["0.5,0.5", "0.5,0.5,90"])
    def test_goal_on_an_obstacle(self, map_file, tmp_path, capsys, goal):
        # an error like a start there, not a valid query with an empty front
        code = run_plan(map_file(make_map(["...", "...", "#.."])), tmp_path / "out",
                        start="2.5,2.5,0", goal=goal)
        assert code == 1
        assert "invalid goal" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_start_and_goal_name_the_start(self, map_file, tmp_path, capsys):
        # plan_pareto checks the start first
        code = run_plan(map_file(make_map(["#..", "...", "..."])), tmp_path / "out",
                        start="0.5,2.5,0", goal="25.0,25.0")
        assert code == 1
        assert "invalid start" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_heading_rejected(self, map_file, tmp_path):
        code = run_plan(map_file(free_map(3, 3)), tmp_path / "out",
                        start="0.5,0.5,30")
        assert code == 1

    @pytest.mark.parametrize("heading", ["44.6", "405", "-45", "1e300", "360"])
    @pytest.mark.parametrize("flag", ["--start", "--goal"])
    def test_heading_off_the_eight_values_rejected(self, map_file, tmp_path, capsys,
                                                   flag, heading):
        # neither rounded to a near heading nor reduced mod 360
        start, goal = "0.5,0.5,0", "2.5,2.5"
        if flag == "--start":
            start = "0.5,0.5," + heading
        else:
            goal += "," + heading
        code = run_plan(map_file(free_map(3, 3)), tmp_path / "out", start=start, goal=goal)
        assert code == 1
        assert f"{flag} heading must be one of" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_heading_as_float_text_accepted(self, map_file, tmp_path):
        code = run_plan(map_file(free_map(3, 3)), tmp_path / "out",
                        start="0.5,0.5,45.0", goal="2.5,2.5,315")
        assert code == 0
        doc = json.loads((tmp_path / "out" / "front.json").read_text())
        assert doc["start"] == [0, 0, 45] and doc["goal"] == [2, 2, 315]
        assert doc["entries"][0]["nodes"][-1] == [2, 2, 315]

    def test_missing_required_radius(self, map_file, tmp_path, monkeypatch):
        monkeypatch.delenv("PNAV_RHO", raising=False)
        code = main(["plan", "--map", map_file(free_map(3, 3)),
                     "--start", "0.5,0.5,0", "--goal", "2.5,2.5",
                     "--r", "0.8", "--out", str(tmp_path / "out")])
        assert code == 1

    def test_env_fallback_for_radius(self, map_file, tmp_path, monkeypatch):
        monkeypatch.setenv("PNAV_RHO", "0.2")
        code = main(["plan", "--map", map_file(free_map(3, 3)),
                     "--start", "0.5,0.5,0", "--goal", "2.5,2.5",
                     "--delta", "1.0", "--r", "0.8",
                     "--out", str(tmp_path / "out")])
        assert code == 0

    def test_flag_overrides_env(self, map_file, tmp_path, monkeypatch):
        monkeypatch.setenv("PNAV_RHO", "999")  # would fail if used
        code = run_plan(map_file(free_map(3, 3)), tmp_path / "out")
        assert code == 0


class TestWorldToLattice:
    """A pose goes to the lattice position whose delta-block holds it: the
    nearest block centre, a point on a block edge going to the upper block."""

    def test_block_edges_go_to_the_upper_block(self):
        wmap = museum_map()  # origin (0, 0)
        xs = [3.0, 3.25, 3.5, 3.75, 4.0, 4.5, 4.999, 5.0, 5.5, 6.0, 6.5, 7.0]
        got = [pnav.cli._world_to_lattice(x, x + 1.0, wmap, 1.0, "--start") for x in xs]
        assert got == [(math.floor(x), math.floor(x) + 1) for x in xs]
        assert pnav.cli._world_to_lattice(3.0, 5.0, wmap, 2.0, "--start") == (1, 2)

    @pytest.mark.parametrize("start", ["3,3,0", "5,4,0"])
    def test_plan_start_on_a_block_corner(self, map_file, tmp_path, start):
        code = main(["plan", "--map", map_file(museum_map()), "--start", start,
                     "--goal", "18.5,3.5", "--delta", "1.0", "--rho", "0.3",
                     "--r", "2.0", "--out", str(tmp_path / "out")])
        assert code == 0
        doc = json.loads((tmp_path / "out" / "front.json").read_text())
        assert doc["start"] == [int(v) for v in start.split(",")]

    def test_a_tiny_offset_off_the_map_is_an_invalid_start(self, map_file, tmp_path,
                                                           capsys):
        code = run_plan(map_file(free_map(3, 3)), tmp_path / "out",
                        start="-1e-300,0.5,0")
        assert code == 1
        assert "invalid start" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPlanOutputs:
    def test_front_sorted_by_distance(self, map_file, tmp_path):
        wmap = make_map(["......",
                         "..##..",
                         "......",
                         "......"])
        code = main(["plan", "--map", map_file(wmap),
                     "--start", "0.5,0.5,0", "--goal", "5.5,3.5",
                     "--delta", "1.0", "--rho", "0.2", "--r", "1.2",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        doc = json.loads((tmp_path / "out" / "front.json").read_text())
        ds = [e["cost"]["w3"] for e in doc["entries"]]
        assert ds == sorted(ds)

    def test_outputs_byte_identical_across_runs(self, map_file, tmp_path):
        wmap = make_map(["....", ".#..", "....", "...."])
        path = map_file(wmap)
        blobs = []
        for k in (1, 2):
            out = tmp_path / f"out{k}"
            assert run_plan(path, out, goal="3.5,3.5", extra=["--svg"]) == 0
            blobs.append(((out / "front.json").read_bytes(),
                          (out / "front.svg").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_svg_files_written_per_entry(self, map_file, tmp_path):
        wmap = make_map(["......",
                         "..##..",
                         "......",
                         "......"])
        out = tmp_path / "out"
        code = main(["plan", "--map", map_file(wmap),
                     "--start", "0.5,0.5,0", "--goal", "5.5,3.5",
                     "--delta", "1.0", "--rho", "0.2", "--r", "1.2",
                     "--out", str(out), "--svg"])
        assert code == 0
        doc = json.loads((out / "front.json").read_text())
        per_entry = sorted(p.name for p in out.glob("entry_*.svg"))
        assert len(per_entry) == len(doc["entries"])
        assert (out / "front.svg").exists()

    def test_museum_front_structure(self, tmp_path):
        # slice of the bundled museum floor plan: wall with a slit, so the
        # front trades obstruction against distance
        out = tmp_path / "out"
        museum_path = tmp_path / "museum.json"
        museum_path.write_text(dump_map(museum_map()))
        code = main(["plan", "--map", str(museum_path),
                     "--start", "3.5,3.5,0", "--goal", "18.5,3.5",
                     "--delta", "1.0", "--rho", "0.3", "--r", "2.0",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "front.json").read_text())
        reports = [e["report"] for e in doc["entries"]]
        assert any(rep["V"] == 0.0 for rep in reports)
        min_d = min(reports, key=lambda rep: rep["D"])
        assert min_d["V"] > 0.0
        # each report carries its entry's search obstruction total as it is
        assert all(e["report"]["search_w1_sum"] == e["cost"]["w1_sum"]
                   for e in doc["entries"])


class TestRrtCommand:
    def test_success_and_reproducibility(self, map_file, tmp_path):
        path = map_file(free_map(8, 8))
        blobs = []
        for k in (1, 2):
            out = tmp_path / f"out{k}"
            code = main(["rrt", "--map", path, "--start", "1.0,1.0",
                         "--goal", "7.0,7.0", "--n", "5", "--seed", "3",
                         "--rho", "0.2", "--r", "0.8", "--out", str(out)])
            assert code == 0
            blobs.append((out / "rrt.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_sign_change_count_matches_vertices(self, map_file, tmp_path):
        from pnav.rrt import PolyPath, curvature_sign_changes
        out = tmp_path / "out"
        code = main(["rrt", "--map", map_file(free_map(8, 8)),
                     "--start", "1.0,1.0", "--goal", "7.0,7.0",
                     "--n", "3", "--seed", "11",
                     "--rho", "0.2", "--r", "0.8", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "rrt.json").read_text())
        verts = PolyPath(tuple(tuple(p) for p in doc["vertices"]))
        assert doc["curvature_sign_changes"] == curvature_sign_changes(verts)

    def test_negative_seed_names_the_flag(self, map_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["rrt", "--map", map_file(free_map(8, 8)), "--start", "1.0,1.0",
                     "--goal", "7.0,7.0", "--n", "3", "--seed", "-1",
                     "--rho", "0.2", "--r", "0.8", "--out", str(out)])
        assert code == 1
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--goal-bias", "nan", "--goal-bias must be a finite number"),
        ("--goal-bias", "1.5", "--goal-bias must be in [0, 1]"),
        ("--max-iterations", "0", "--max-iterations must be a finite integer > 0"),
    ])
    def test_run_setting_names_the_flag(self, map_file, tmp_path, capsys, monkeypatch,
                                        flag, value, message):
        def no_runs(*args, **kwargs):
            raise AssertionError("best_of_n called")
        monkeypatch.setattr(pnav.rrt, "best_of_n", no_runs)
        out = tmp_path / "out"
        argv = valid_argv("rrt", map_file(free_map(8, 8)), tmp_path, out)
        assert main(argv + [flag, value]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_blocked_goal_exit_two(self, map_file, tmp_path):
        wmap = make_map([".....",
                         ".###.",
                         ".#.#.",
                         ".###.",
                         "....."])
        out = tmp_path / "out"
        code = main(["rrt", "--map", map_file(wmap), "--start", "0.5,4.5",
                     "--goal", "2.5,2.5", "--n", "4", "--seed", "0",
                     "--rho", "0.2", "--r", "0.8", "--step", "0.5",
                     "--max-iterations", "60", "--out", str(out)])
        assert code == 2
        doc = json.loads((out / "rrt.json").read_text())
        assert doc["ok"] is False
        assert doc["failures"] == 4
        assert len(doc["attempts"]) == 4


def former_rrt_json(wmap, start, goal, n, seed, step, max_iterations,
                    rho=0.2, r=0.8, v=1.0, omega=90.0, dt=0.05):
    """rrt.json as cmd_rrt wrote it when it parsed its trajectory text back
    and re-encoded the whole document; the code is kept as it was."""
    def _dump_json(obj) -> str:
        return json.dumps(obj, indent=1, sort_keys=True)

    model = RobotModel(footprint_radius=rho, camera_clearance_radius=r)
    params = pnav.rrt.RrtParams(step_size=step, goal_bias=0.05,
                                max_iterations=max_iterations, seed=seed)
    result = pnav.rrt.best_of_n(wmap, model, start, goal, params, n)
    if result is None:
        attempts = [{"seed": seed + k, "ok": False} for k in range(n)]
        return _dump_json({
            "ok": False, "n": n, "base_seed": seed,
            "failures": n, "attempts": attempts,
        }) + "\n"

    spath = to_segment_path(result)
    timed = to_timed(spath, v=v, omega_deg=omega, dt=dt)
    [report] = eval_costs([timed], wmap, r)
    signs = (pnav.rrt.curvature_sign_changes(result)
             if len(result.vertices) >= 2 else 0)
    doc = json.loads(timed_to_json(timed))
    doc.update({
        "vertices": [list(p) for p in result.vertices],
        "report": report.to_dict(),
        "curvature_sign_changes": signs,
        "n": n,
        "base_seed": seed,
    })
    return _dump_json(doc) + "\n"


class TestRrtDocumentAgainstFormer:
    """rrt.json is written by timed_to_json with the extra fields spliced
    around its samples; it must be the bytes of the former round trip."""

    WALLED = ["........",
              "..##....",
              "..##..#.",
              "......#.",
              ".#....#.",
              ".#......",
              "....##..",
              "........"]

    def check(self, map_file, tmp_path, wmap, start, goal, n, seed, step,
              max_iterations=20000):
        out = tmp_path / f"out_{seed}"
        code = main(["rrt", "--map", map_file(wmap), "--start", "%r,%r" % start,
                     "--goal", "%r,%r" % goal, "--n", str(n), "--seed", str(seed),
                     "--rho", "0.2", "--r", "0.8", "--step", repr(step),
                     "--max-iterations", str(max_iterations), "--out", str(out)])
        text = (out / "rrt.json").read_text()
        assert text == former_rrt_json(wmap, start, goal, n, seed, step, max_iterations)
        return code

    @pytest.mark.parametrize("seed", [0, 3, 11, 29, 404])
    def test_seeds(self, map_file, tmp_path, seed):
        wmap = make_map(self.WALLED)
        assert self.check(map_file, tmp_path, wmap, (0.5, 0.5), (7.5, 7.5),
                          3, seed, 0.5) == 0

    def test_one_vertex_path(self, map_file, tmp_path):
        wmap = free_map(8, 8)
        assert self.check(map_file, tmp_path, wmap, (1.0, 1.0), (1.0, 1.0),
                          2, 5, 1.0) == 0
        doc = json.loads((tmp_path / "out_5" / "rrt.json").read_text())
        assert doc["vertices"] == [[1.0, 1.0]] and len(doc["samples"]) == 1

    def test_failure_document(self, map_file, tmp_path):
        wmap = make_map([".....", ".###.", ".#.#.", ".###.", "....."])
        assert self.check(map_file, tmp_path, wmap, (0.5, 4.5), (2.5, 2.5),
                          4, 0, 0.5, max_iterations=60) == 2


class TestOutputWriteFailures:
    """An output file that cannot be written exits 1 with an error naming
    its path, never a traceback."""

    def trajectory_file(self, tmp_path):
        traj = tmp_path / "t.json"
        traj.write_text(timed_to_json(to_timed(to_segment_path(
            pnav.rrt.PolyPath(((1.0, 1.0), (3.0, 1.0)))))))
        return traj

    def assert_names(self, capsys, path):
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and str(path) in err

    def no_work(self, monkeypatch):
        """--out of plan and rrt is checked before the lattice or any run."""
        def refuse(*args, **kwargs):
            raise AssertionError("the query ran before --out was checked")
        monkeypatch.setattr(pnav.cli, "build_lattice", refuse)
        monkeypatch.setattr(pnav.rrt, "best_of_n", refuse)

    def test_plan_out_is_a_file(self, map_file, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.write_text("kept")
        self.no_work(monkeypatch)
        assert run_plan(map_file(free_map(3, 3)), out) == 1
        self.assert_names(capsys, out)
        assert out.read_text() == "kept"

    def test_rrt_out_is_a_file(self, map_file, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.write_text("kept")
        self.no_work(monkeypatch)
        code = main(["rrt", "--map", map_file(free_map(8, 8)), "--start", "1.0,1.0",
                     "--goal", "7.0,7.0", "--n", "2", "--seed", "0",
                     "--rho", "0.2", "--r", "0.8", "--out", str(out)])
        assert code == 1
        self.assert_names(capsys, out)
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("command", ["plan", "rrt"])
    def test_out_below_a_file(self, map_file, tmp_path, capsys, monkeypatch, command):
        out = tmp_path / "file" / "out"
        out.parent.write_text("kept")
        self.no_work(monkeypatch)
        assert main(valid_argv(command, map_file(free_map(8, 8)), tmp_path, out)) == 1
        self.assert_names(capsys, out)
        assert out.parent.read_text() == "kept"

    def test_render_into_a_missing_directory(self, map_file, tmp_path, capsys):
        traj = self.trajectory_file(tmp_path)
        out = tmp_path / "missing" / "x.svg"
        code = main(["render", "--map", map_file(free_map(5, 5)), "--r", "0.5",
                     "--out", str(out), str(traj)])
        assert code == 1
        self.assert_names(capsys, out)
        assert not out.parent.exists()

    def test_eval_report_path_is_a_directory(self, map_file, tmp_path, capsys):
        traj = self.trajectory_file(tmp_path)
        report = tmp_path / "t.json.report.json"
        report.mkdir()
        code = main(["eval", "--map", map_file(free_map(5, 5)), "--r", "0.5",
                     str(traj)])
        assert code == 1
        self.assert_names(capsys, report)


class TestEvalCommand:
    def test_front_entries_round_trip(self, map_file, tmp_path):
        wmap = make_map(["....", ".#..", "....", "...."])
        out = tmp_path / "out"
        assert run_plan(map_file(wmap), out, goal="3.5,3.5") == 0
        doc = json.loads((out / "front.json").read_text())
        for i, entry in enumerate(doc["entries"]):
            tfile = tmp_path / f"traj_{i}.json"
            tfile.write_text(json.dumps(entry["trajectory"]))
            code = main(["eval", "--map", map_file(wmap), "--r", "0.8",
                         str(tfile)])
            assert code == 0
            rep = json.loads((tmp_path / f"traj_{i}.json.report.json").read_text())
            stored = entry["report"]
            assert rep["N"] == stored["N"]
            assert rep["V"] == pytest.approx(stored["V"], abs=1e-9)
            assert rep["D"] == pytest.approx(stored["D"], abs=1e-9)

    def test_hand_written_straight_trajectory(self, map_file, tmp_path):
        samples = [{"t": float(t), "x": 1.0 + t, "y": 1.0, "theta_deg": 0.0}
                   for t in range(5)]
        tfile = tmp_path / "straight.json"
        tfile.write_text(json.dumps(
            {"v": 1.0, "omega_deg": 90.0, "dt": 1.0, "samples": samples}))
        code = main(["eval", "--map", map_file(free_map(8, 8)), "--r", "0.5",
                     str(tfile)])
        assert code == 0
        rep = json.loads((tmp_path / "straight.json.report.json").read_text())
        assert rep["D"] == pytest.approx(4.0)
        assert rep["N"] == 0

    @pytest.mark.parametrize("command", ["eval", "render"])
    def test_report_past_the_float_range_is_refused(self, tmp_path, capsys, command):
        # finite samples whose displacement overflows: D would be inf
        samples = [{"t": float(t), "x": c, "y": c, "theta_deg": 0.0}
                   for t, c in enumerate((-1e308, 1e308))]
        tfile = tmp_path / "far.json"
        tfile.write_text(json.dumps(
            {"v": 1.0, "omega_deg": 90.0, "dt": 1.0, "samples": samples}))
        museum_path = tmp_path / "museum.json"
        museum_path.write_text(dump_map(museum_map()))
        out = tmp_path / "fig.svg"
        extra = ["--out", str(out)] if command == "render" else []
        code = main([command, "--map", str(museum_path), "--r", "2", *extra, str(tfile)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"trajectory {tfile}: report " in err and "'D': inf" in err
        assert not (tmp_path / "far.json.report.json").exists() and not out.exists()

    def test_schema_violation_names_field(self, map_file, tmp_path, capsys):
        tfile = tmp_path / "bad.json"
        tfile.write_text('{"v": 1.0, "omega_deg": 90.0, "dt": 0.05}')
        code = main(["eval", "--map", map_file(free_map(2, 2)), "--r", "0.5",
                     str(tfile)])
        assert code == 1
        assert "samples" in capsys.readouterr().err


class TestRenderCommand:
    def _write_traj(self, tmp_path, name, pts):
        samples = [{"t": float(i), "x": x, "y": y, "theta_deg": 0.0}
                   for i, (x, y) in enumerate(pts)]
        f = tmp_path / name
        f.write_text(json.dumps(
            {"v": 1.0, "omega_deg": 90.0, "dt": 1.0, "samples": samples}))
        return str(f)

    def test_single_polyline(self, map_file, tmp_path):
        t = self._write_traj(tmp_path, "a.json", [(1, 1), (2, 1), (3, 1)])
        out = tmp_path / "fig.svg"
        code = main(["render", "--map", map_file(free_map(5, 5)),
                     "--r", "0.5", "--out", str(out), t])
        assert code == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 1

    def test_three_trajectories_three_legend_rows(self, map_file, tmp_path):
        files = [self._write_traj(tmp_path, f"t{k}.json",
                                  [(1, 1 + k), (3, 1 + k)]) for k in range(3)]
        out = tmp_path / "fig.svg"
        code = main(["render", "--map", map_file(free_map(6, 6)),
                     "--r", "0.5", "--out", str(out), *files])
        assert code == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 3
        assert svg.count("V=") == 3

    def test_label_with_markup_characters(self, map_file, tmp_path):
        t = self._write_traj(tmp_path, "a&b<c.json", [(1, 1), (3, 1)])
        out = tmp_path / "fig.svg"
        assert main(["render", "--map", map_file(free_map(5, 5)),
                     "--r", "0.5", "--out", str(out), t]) == 0
        [label] = ET.parse(out).getroot().iter("{http://www.w3.org/2000/svg}text")
        assert label.text.startswith("a&b<c.json V=")

    def test_render_deterministic(self, map_file, tmp_path):
        t = self._write_traj(tmp_path, "a.json", [(1, 1), (4, 4)])
        path = map_file(make_map(["....", ".##.", "....", "...."]))
        outs = []
        for k in (1, 2):
            out = tmp_path / f"fig{k}.svg"
            assert main(["render", "--map", path, "--r", "0.5",
                         "--out", str(out), t]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestNumericInputs:
    """Every numeric input is a finite number (> 0 for parameters); a bad one
    exits 1 with a message that names it, never a traceback or a hang."""

    PLAN_FLAGS = {"--delta": "1.0", "--rho": "0.2", "--r": "0.8"}

    def plan_argv(self, map_path, tmp_path, flags):
        argv = ["plan", "--map", map_path, "--start", "0.5,0.5,0",
                "--goal", "2.5,2.5", "--out", str(tmp_path / "out")]
        for flag, value in flags.items():
            argv += [flag, value]
        return argv

    @pytest.mark.parametrize("flag", ["--delta", "--rho", "--r", "--v", "--omega", "--dt"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_plan_flag(self, map_file, tmp_path, capsys, flag, bad):
        flags = dict(self.PLAN_FLAGS, **{flag: bad})
        assert main(self.plan_argv(map_file(free_map(3, 3)), tmp_path, flags)) == 1
        assert f"{flag} must be a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["DELTA", "RHO", "R", "V", "OMEGA", "DT"])
    def test_plan_environment_variable(self, map_file, tmp_path, capsys,
                                       monkeypatch, name):
        monkeypatch.setenv(f"PNAV_{name}", "nan")
        flags = dict(self.PLAN_FLAGS)
        flags.pop(f"--{name.lower()}", None)
        assert main(self.plan_argv(map_file(free_map(3, 3)), tmp_path, flags)) == 1
        assert f"PNAV_{name} must be a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("env", [None, "inf"])
    def test_rrt_step(self, map_file, tmp_path, capsys, monkeypatch, env):
        argv = ["rrt", "--map", map_file(free_map(8, 8)), "--start", "1.0,1.0",
                "--goal", "7.0,7.0", "--n", "2", "--rho", "0.2", "--r", "0.8",
                "--out", str(tmp_path / "out")]
        if env is None:
            argv += ["--step", "nan"]
            name = "--step"
        else:
            monkeypatch.setenv("PNAV_STEP", env)
            name = "PNAV_STEP"
        assert main(argv) == 1
        assert f"{name} must be a finite number > 0" in capsys.readouterr().err

    def test_start_coordinate(self, map_file, tmp_path, capsys):
        assert run_plan(map_file(free_map(3, 3)), tmp_path / "out",
                        start="inf,0.5,0") == 1
        assert "--start must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, start, goal", [
        ("--start", "1e308,3.5,0", "2.5,2.5"),
        ("--goal", "0.5,0.5,0", "-1e308,3.5"),
    ])
    def test_pose_off_the_float_range_of_the_lattice(self, map_file, tmp_path, capsys,
                                                     monkeypatch, flag, start, goal):
        def no_build(*args, **kwargs):
            raise AssertionError("build_lattice called")
        monkeypatch.setattr(pnav.cli, "build_lattice", no_build)
        assert main(["plan", "--map", map_file(free_map(3, 3)), f"--start={start}",
                     f"--goal={goal}", "--delta", "0.5", "--rho", "0.2", "--r", "0.8",
                     "--out", str(tmp_path / "out")]) == 1
        assert f"error: {flag} is out of range" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, output, start, goal", [
        ("plan", "front.json", "-3.5,-3.5,0", "-.5,2.5"),
        ("rrt", "rrt.json", "-3.0,-3.0", "-1.0,2.0"),
    ])
    def test_negative_pose_as_a_separate_argument(self, map_file, tmp_path, command,
                                                  output, start, goal):
        # argparse alone reads -3.5,-3.5,0 after --start as an option
        path = map_file(make_map(["." * 8] * 8, origin=(-4.0, -4.0)))
        outputs = []
        for form in ("separate", "joined"):
            out = tmp_path / form
            argv = valid_argv(command, path, tmp_path, out)
            for flag, value in (("--start", start), ("--goal", goal)):
                i = argv.index(flag)
                argv[i:i + 2] = [flag, value] if form == "separate" else [f"{flag}={value}"]
            assert main(argv) == 0
            outputs.append((out / output).read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command, flag, value, message", [
        *(("plan", flag, value, f"error: {flag} must be a finite number > 0")
          for flag, value in (("--delta", "-1e-3"), ("--rho", "-1e-3"), ("--r", "-1e-3"),
                              ("--v", "-2e0"), ("--omega", "-inf"), ("--dt", "-1e-3"))),
        *(("rrt", flag, value, f"error: {flag} must be a finite number > 0")
          for flag, value in (("--rho", "-1e-3"), ("--r", "-1e-3"), ("--v", "-1e-3"),
                              ("--omega", "-2e0"), ("--dt", "-inf"), ("--step", "-2e0"))),
        ("rrt", "--goal-bias", "-1e-3", "error: --goal-bias must be in [0, 1]"),
        # int flags: the value reaches the flag's own conversion
        *(("rrt", flag, "-1e0", f"argument {flag}: invalid int value: '-1e0'")
          for flag in ("--n", "--seed", "--max-iterations")),
    ])
    def test_negative_value_as_a_separate_argument(self, map_file, tmp_path, capsys,
                                                   command, flag, value, message):
        # argparse alone reads -1e-3 or -inf after a flag as an option
        out = tmp_path / "out"
        argv = valid_argv(command, map_file(free_map(8, 8)), tmp_path, out)
        assert main(argv + [flag, value]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "render"])
    def test_trajectory_file_named_like_a_negative_number(self, map_file, tmp_path,
                                                          monkeypatch, command):
        # argparse's default rule reads -1.json as an option
        monkeypatch.chdir(tmp_path)
        argv = valid_argv(command, map_file(free_map(8, 8)), tmp_path, tmp_path / "fig.svg")
        Path(argv[-1]).rename("-1.json")
        assert main(argv[:-1] + ["-1.json"]) == 0
        if command == "eval":
            assert (tmp_path / "-1.json.report.json").exists()
        else:
            assert "-1.json V=" in (tmp_path / "fig.svg").read_text()

    @pytest.mark.parametrize("field,bad", [("width", True), ("resolution", math.nan)])
    def test_map_header(self, tmp_path, capsys, field, bad):
        doc = json.loads(dump_map(free_map(3, 3)))
        doc[field] = bad
        path = tmp_path / "map.json"
        path.write_text(json.dumps(doc))
        assert run_plan(str(path), tmp_path / "out") == 1
        assert f"'{field}' must be a finite" in capsys.readouterr().err

    def test_tiny_dt_is_an_input_error(self, map_file, tmp_path, capsys):
        # about 3e9 ticks per entry: refused by arithmetic before any is built
        assert run_plan(map_file(free_map(3, 3)), tmp_path / "out",
                        extra=("--dt", "1e-9")) == 1
        assert "dt 1e-09 gives more than" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,named", [("plan", "--omega", "omega_deg 1e-300"),
                                                    ("rrt", "--v", "v 1e-300")])
    def test_tiny_speed_is_named_with_dt(self, map_file, tmp_path, capsys, command, flag,
                                         named):
        # the sample cap names the speeds, not only the default dt
        path = map_file(free_map(8, 8))
        if command == "plan":
            code = run_plan(path, tmp_path / "out", extra=(flag, "1e-300"))
        else:
            code = main(["rrt", "--map", path, "--start", "1.0,1.0", "--goal", "7.0,7.0",
                         "--n", "5", "--rho", "0.2", "--r", "0.8", flag, "1e-300",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "dt 0.05 gives more than" in err and named in err

    @pytest.mark.parametrize("command", ["plan", "rrt"])
    def test_overflowing_camera_radius_is_an_input_error(self, map_file, tmp_path, capsys,
                                                         monkeypatch, command):
        # the window cap's arithmetic must not overflow on a finite r, and
        # rrt checks the cap before any run and before creating --out
        def no_runs(*args, **kwargs):
            raise AssertionError("best_of_n called")
        monkeypatch.setattr(pnav.rrt, "best_of_n", no_runs)
        path = map_file(free_map(8, 8))
        if command == "plan":
            argv = self.plan_argv(path, tmp_path, dict(self.PLAN_FLAGS, **{"--r": "1e300"}))
        else:
            argv = ["rrt", "--map", path, "--start", "1.0,1.0", "--goal", "7.0,7.0",
                    "--n", "200", "--rho", "0.2", "--r", "1e300",
                    "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "r 1e+300 gives a disc window of more than" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_huge_delta_is_an_input_error(self, map_file, tmp_path, capsys):
        # delta / resolution = 1e308 / 0.5 is inf: refused before it is rounded
        argv = ["plan", "--map", map_file(museum_map()), "--start", "3.5,3.5,0",
                "--goal", "18.5,3.5", "--delta", "1e308", "--rho", "0.3", "--r", "2",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: delta 1e+308 is too large for resolution 0.5\n"
        assert not (tmp_path / "out").exists()

    def test_huge_camera_radius_is_an_input_error(self, map_file, tmp_path, capsys):
        # r = 1000 m on 0.5 m cells is a window of about 16,000^2 subsamples
        # per point: refused by arithmetic before any buffer is built
        import tracemalloc
        argv = ["plan", "--map", map_file(museum_map()), "--start", "3.5,3.5,0",
                "--goal", "18.5,3.5", "--delta", "1.0", "--rho", "0.3",
                "--r", "1000", "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            assert main(argv) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "r 1000.0 gives a disc window of more than" in capsys.readouterr().err
        assert peak < 1_000_000


def valid_argv(command, map_path, tmp_path, out):
    """An argv of command that exits 0 on free_map(8, 8); eval ignores out."""
    if command == "plan":
        return ["plan", "--map", map_path, "--start", "0.5,0.5,0", "--goal", "2.5,2.5",
                "--delta", "1.0", "--rho", "0.2", "--r", "0.8", "--out", str(out)]
    if command == "rrt":
        return ["rrt", "--map", map_path, "--start", "1.0,1.0", "--goal", "7.0,7.0",
                "--n", "2", "--rho", "0.2", "--r", "0.8", "--out", str(out)]
    traj = tmp_path / "t.json"
    traj.write_text(timed_to_json(to_timed(to_segment_path(
        pnav.rrt.PolyPath(((1.0, 1.0), (3.0, 1.0)))))))
    return [command, "--map", map_path, "--r", "0.5",
            *(["--out", str(out)] if command == "render" else []), str(traj)]


COMMANDS = ("plan", "rrt", "eval", "render")


class TestUsageErrors:
    """Every rejected input, argparse's usage errors included, returns 1 from
    main, never SystemExit, and writes nothing; 2 means only "valid inputs,
    no solution"."""

    @pytest.mark.parametrize("command, flag, value, env, message", [
        *(pytest.param(c, "--map", None, {}, "the following arguments are required: --map",
                       id=f"{c}-missing-map") for c in COMMANDS),
        *(pytest.param(c, "--bogus", "1", {}, "unrecognized arguments: --bogus",
                       id=f"{c}-unknown-flag") for c in COMMANDS),
        # the flag and the variable give one message form
        *(pytest.param(c, "--r", "abc", {}, "error: --r must be a finite number > 0\n",
                       id=f"{c}-r-flag") for c in COMMANDS),
        *(pytest.param(c, "--r", None, {"PNAV_R": "abc"},
                       "error: PNAV_R must be a finite number > 0\n", id=f"{c}-r-variable")
          for c in COMMANDS),
        # a rho whose square is 0 or subnormal, by the flag or the variable
        *(pytest.param(c, "--rho", rho, {}, f"error: --rho must be a finite number > 0 "
                       f"whose square is a normal float (at least 2**-511), got {rho}\n",
                       id=f"{c}-rho-{rho}-flag")
          for c in ("plan", "rrt") for rho in ("1e-170", "5e-324")),
        *(pytest.param(c, "--rho", None, {"PNAV_RHO": "1e-170"},
                       "error: PNAV_RHO must be a finite number > 0 whose square",
                       id=f"{c}-rho-variable") for c in ("plan", "rrt")),
        pytest.param("rrt", "--n", "1.5", {}, "argument --n: invalid int value: '1.5'",
                     id="rrt-n-not-int"),
        pytest.param("rrt", "--seed", "x", {}, "argument --seed: invalid int value: 'x'",
                     id="rrt-seed-not-int"),
    ])
    def test_exit_code_table(self, map_file, tmp_path, capsys, monkeypatch,
                             command, flag, value, env, message):
        argv = valid_argv(command, map_file(free_map(8, 8)), tmp_path, tmp_path / "out")
        if flag in argv:
            i = argv.index(flag)
            del argv[i:i + 2]
        if value is not None:
            argv[1:1] = [flag, value]
        for name, text in env.items():
            monkeypatch.setenv(name, text)
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_zero(self, capsys, command):
        assert main([command, "-h"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: pnav {command}")

    def test_module_exit_status(self, tmp_path):
        src = str(Path(pnav.cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "pnav.cli", "plan", "--bogus"],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 1
        assert "usage: pnav plan" in proc.stderr


def assert_canonical(path):
    """The file is exactly the indent=1, sort_keys dump of what it holds."""
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"


class TestCanonicalOutput:
    """front.json is spliced from per-entry trajectory texts; it must still
    read as one json.dumps of the whole document."""

    def test_museum_front(self, tmp_path):
        museum_path = tmp_path / "museum.json"
        museum_path.write_text(dump_map(museum_map()))
        code = main(["plan", "--map", str(museum_path),
                     "--start", "3.5,3.5,0", "--goal", "18.5,3.5",
                     "--delta", "1.0", "--rho", "0.3", "--r", "2.0",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert_canonical(tmp_path / "out" / "front.json")

    def test_small_map_front(self, map_file, tmp_path):
        wmap = make_map(["....", ".#..", "....", "...."])
        assert run_plan(map_file(wmap), tmp_path / "out", goal="3.5,3.5",
                        extra=("--v", "2", "--dt", "0.1")) == 0
        doc = json.loads((tmp_path / "out" / "front.json").read_text())
        assert len(doc["entries"]) > 1
        assert_canonical(tmp_path / "out" / "front.json")

    def test_empty_front(self, map_file, tmp_path):
        wmap = make_map([".....", ".###.", ".#.#.", ".###.", "....."])
        assert run_plan(map_file(wmap), tmp_path / "out", goal="2.5,2.5") == 2
        assert_canonical(tmp_path / "out" / "front.json")

    def test_rrt_json(self, map_file, tmp_path):
        code = main(["rrt", "--map", map_file(free_map(8, 8)), "--start", "1.0,1.0",
                     "--goal", "7.0,7.0", "--n", "3", "--seed", "5",
                     "--rho", "0.2", "--r", "0.8", "--out", str(tmp_path / "out")])
        assert code == 0
        assert_canonical(tmp_path / "out" / "rrt.json")

    def test_nul_in_map_path_never_reaches_the_document(self, tmp_path, capsys):
        # the splice's placeholder is a NUL; the map path is the only input
        # string front.json holds, and reading it fails first
        code = main(["plan", "--map", str(tmp_path / "a\0b.json"),
                     "--start", "0.5,0.5,0", "--goal", "2.5,2.5", "--rho", "0.2",
                     "--r", "0.8", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "null byte" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_front_evaluated_at_once_equals_each_alone(self):
        from pnav.fixtures import (MUSEUM_DELTA, MUSEUM_GOAL, MUSEUM_R, MUSEUM_START,
                                   museum_model)
        from pnav.lattice import LatticeNode, build_lattice
        from pnav.moastar import GoalSpec, plan_pareto

        wmap = museum_map()
        graph = build_lattice(wmap, museum_model(), MUSEUM_DELTA)
        front = plan_pareto(graph, LatticeNode(*MUSEUM_START), GoalSpec(*MUSEUM_GOAL))
        timeds = [to_timed(to_segment_path(nodes, wmap, MUSEUM_DELTA))
                  for _, nodes in front.entries]
        batched = eval_costs(timeds, wmap, MUSEUM_R)
        assert len(batched) == 18
        alone = [report for timed in timeds for report in eval_costs([timed], wmap, MUSEUM_R)]
        assert [rep.to_dict() for rep in batched] == [rep.to_dict() for rep in alone]
        assert eval_costs([], wmap, MUSEUM_R) == []


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, which JSON lacks."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_every_written_file_parses_strictly(tmp_path):
    """The files of museum plan --svg, rrt --n 3, eval and render: each SVG
    is XML and each JSON document standard JSON."""
    museum_path = tmp_path / "museum.json"
    museum_path.write_text(dump_map(museum_map()))
    shared = ["--map", str(museum_path), "--rho", "0.3", "--r", "2.0"]
    assert main(["plan", *shared, "--start", "3.5,3.5,0", "--goal", "18.5,3.5",
                 "--delta", "1.0", "--svg", "--out", str(tmp_path / "plan")]) == 0
    assert main(["rrt", *shared, "--start", "3.5,3.5", "--goal", "18.5,3.5", "--n", "3",
                 "--out", str(tmp_path / "rrt")]) == 0
    front = strict_json((tmp_path / "plan" / "front.json").read_text())
    trajectories = [str(tmp_path / "rrt" / "rrt.json")]
    for i, entry in enumerate(front["entries"]):
        trajectories.append(str(tmp_path / f"entry_{i}.json"))
        Path(trajectories[-1]).write_text(json.dumps(entry["trajectory"]))
    assert main(["eval", "--map", str(museum_path), "--r", "2.0", *trajectories]) == 0
    assert main(["render", "--map", str(museum_path), "--r", "2.0",
                 "--out", str(tmp_path / "fig.svg"), *trajectories]) == 0

    files = [path for path in tmp_path.rglob("*") if path.is_file()]
    assert sum(path.suffix == ".svg" for path in files) == len(front["entries"]) + 2
    assert sum(path.name.endswith(".report.json") for path in files) == len(trajectories)
    for path in files:
        if path.suffix == ".svg":
            ET.parse(path)
        else:
            strict_json(path.read_text())
