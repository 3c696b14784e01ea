import json
import math

import pytest

import pnav.cli
import pnav.rrt
from pnav.cli import main
from pnav.gridmap import dump_map
from pnav.fixtures import museum_map

from conftest import free_map, make_map

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

    def test_batched_phi_gives_the_same_reports(self):
        from pnav.cli import _front_phi
        from pnav.fixtures import (MUSEUM_DELTA, MUSEUM_GOAL, MUSEUM_R, MUSEUM_START,
                                   museum_model)
        from pnav.lattice import LatticeNode, build_lattice
        from pnav.moastar import GoalSpec, plan_pareto
        from pnav.trajectory import eval_costs, to_segment_path, to_timed

        wmap = museum_map()
        graph = build_lattice(wmap, museum_model(), MUSEUM_DELTA)
        front = plan_pareto(graph, LatticeNode(*MUSEUM_START), GoalSpec(*MUSEUM_GOAL))
        timeds = [to_timed(to_segment_path(nodes, wmap, MUSEUM_DELTA))
                  for _, nodes in front.entries]
        phis = _front_phi(wmap, timeds, MUSEUM_R)
        assert len(front.entries) == len(phis) == 18
        for timed, phi in zip(timeds, phis):
            batched = eval_costs(timed, wmap, MUSEUM_R, phi=phi)
            alone = eval_costs(timed, wmap, MUSEUM_R)
            assert batched.to_dict() == alone.to_dict()
