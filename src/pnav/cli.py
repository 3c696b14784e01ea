"""Command-line front end: plan, rrt, eval, render.

Exit codes: 0 = non-empty result, 2 = valid inputs but no solution,
1 = any input or usage error, argparse's included, or an output file that
cannot be written.  Every input takes one path.  A numeric parameter is read
as text from its flag, else its PNAV_* variable, else a default, and _resolve
converts and checks it; poses go through _parse_pose, and map and trajectory
files through _read.  Every JSON document is written by trajectory.dump_json,
and every output file by _write.  An argument that starts with - and then a
digit, ".", inf or nan is a value, never an option: --r -1e-3, --start
-1.5,3.5,0 and a trajectory file -1.json reach pnav, which checks them.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path

from . import moastar, rrt, trajectory
from .gridmap import RobotModel, check_disc_radius, check_footprint_radius, load_map
from .lattice import HEADINGS, LatticeNode, build_lattice
from .render import render_svg, svg_layers
from .trajectory import (JsonText, dump_json, eval_costs, sample_blocks, timed_from_json,
                         timed_to_json, to_segment_path, to_timed)
from .validate import finite_number

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY = 2

# to_timed's speed (m/s), turn rate (deg/s) and tick (s) when neither the
# flag nor the PNAV_* variable gives one; plan and rrt share them
_TIMING = {"v": 1.0, "omega": 90.0, "dt": 0.05}


class CliError(ValueError):
    pass


def _resolve(args, name: str, default=None) -> float:
    """The text of flag --<name>, else of PNAV_<NAME>, else default; the text
    must be a finite number > 0, and rho's must pass the collision test's
    check_footprint_radius."""
    flag, var = f"--{name}", f"PNAV_{name.upper()}"
    source, text = flag, getattr(args, name)
    if text is None:
        source, text = var, os.environ.get(var)
    if text is None:
        if default is None:
            raise CliError(f"missing required parameter {flag} (flag or {var})")
        return default
    try:
        value = float(text)
    except ValueError:  # not a number: the same message as NaN
        value = math.nan
    value = finite_number(value, source, positive=True, error=CliError)
    return check_footprint_radius(value, source) if name == "rho" else value


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {what} {path}: {exc}")


def _parse_pose(text: str, what: str, counts: tuple[int, ...]):
    """(x, y, heading) from X,Y or X,Y,TH, its number of parts one of counts;
    the heading is None without TH, else one of HEADINGS as an int."""
    form = {(2,): "X,Y", (3,): "X,Y,TH", (2, 3): "X,Y[,TH]"}[counts]
    parts = text.split(",")
    if len(parts) not in counts:
        raise CliError(f"{what} must be {form}")
    try:
        values = [float(part) for part in parts]
    except ValueError:
        raise CliError(f"{what} must be numeric {form}")
    x, y, *th = (finite_number(v, what, error=CliError) for v in values)
    if th and th[0] not in HEADINGS:
        raise CliError(f"{what} heading must be one of {sorted(HEADINGS)}")
    return (x, y, int(th[0]) if th else None)


def _out_dir(text: str) -> Path:
    """The --out directory of plan and rrt, made at the first write.  Refused
    now, before any work, if it or its nearest existing ancestor is not a
    directory; creates nothing."""
    out = Path(text)
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise CliError(f"cannot write {out}: {existing} is not a directory")
    return out


def _world_to_lattice(x: float, y: float, wmap, delta: float, what: str) -> tuple[int, int]:
    """The lattice position whose delta-block holds (x, y): the nearest
    block centre, a point on a block edge going to the upper block."""
    ox, oy = wmap.origin
    fx, fy = (x - ox) / delta, (y - oy) / delta
    if not (math.isfinite(fx) and math.isfinite(fy)):
        raise CliError(f"{what} is out of range of the lattice at --delta {delta!r}")
    return (math.floor(fx), math.floor(fy))


def _write(path: Path, text: str, make_dir: bool = True) -> None:
    """Write an output file, first creating its directory unless make_dir is
    False; an OSError becomes a CliError naming path."""
    try:
        if make_dir:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


# -- plan -----------------------------------------------------------------------


# An entry's "nodes" and "segments" items as dump_json writes them in
# front.json: indent=1 at depth 4, keys sorted.  The values are ints (%d) and
# finite floats (%r), for which json writes int.__repr__ and float.__repr__.
_NODE_JSON = "    [\n     %d,\n     %d,\n     %d\n    ]"
_ROTATE_JSON = ('    {\n     "arc": %r,\n     "from_heading": %r,\n     "kind": "rotate",\n'
                '     "point": [\n      %r,\n      %r\n     ],\n     "to_heading": %r\n    }')
_TRANSLATE_JSON = ('    {\n     "heading": %r,\n     "kind": "translate",\n'
                   '     "p0": [\n      %r,\n      %r\n     ],\n'
                   '     "p1": [\n      %r,\n      %r\n     ]\n    }')
# indent of an entry's fields in front.json: entries > entry > field
_ENTRY_INDENT = "   "


def _entry_list(templates: list[str], values: tuple) -> JsonText:
    """An entry's list field, its items the templates filled with values."""
    if not templates:
        return JsonText("[]")
    return JsonText(("[\n" + ",\n".join(templates) + "\n" + _ENTRY_INDENT + "]") % values)


def _entry_record(cost, nodes, spath, trajectory_json: str, report) -> dict:
    """An entry of front.json; its "nodes", "segments" and "trajectory" are
    JsonText at the entry's depth."""
    templates, values = [], []
    for seg in spath.segments:
        if isinstance(seg, trajectory.Rotate):
            templates.append(_ROTATE_JSON)
            values += (seg.arc, seg.from_heading, *seg.point, seg.to_heading)
        else:
            templates.append(_TRANSLATE_JSON)
            values += (seg.heading, *seg.p0, *seg.p1)
    return {
        "cost": {"w1_sum": cost.w1, "w2": cost.w2, "w3": cost.w3},
        "report": {**report.to_dict(), "search_w1_sum": cost.w1},
        "nodes": _entry_list([_NODE_JSON] * len(nodes),
                             tuple(v for n in nodes for v in (n.ix, n.iy, n.heading))),
        "segments": _entry_list(templates, tuple(values)),
        "trajectory": JsonText(trajectory_json.replace("\n", "\n" + _ENTRY_INDENT)),
    }


def cmd_plan(args) -> int:
    wmap = load_map(_read(args.map, "map file"))
    delta = _resolve(args, "delta", default=2.0 * wmap.resolution)
    rho = _resolve(args, "rho")
    r = _resolve(args, "r")
    v, omega, dt = (_resolve(args, name, default) for name, default in _TIMING.items())

    sx, sy, sth = _parse_pose(args.start, "--start", (3,))
    gx, gy, gth = _parse_pose(args.goal, "--goal", (2, 3))
    six, siy = _world_to_lattice(sx, sy, wmap, delta, "--start")
    gix, giy = _world_to_lattice(gx, gy, wmap, delta, "--goal")
    outdir = _out_dir(args.out)

    model = RobotModel(footprint_radius=rho, camera_clearance_radius=r)
    graph = build_lattice(wmap, model, delta)
    # plan_pareto names a start or goal off the lattice (PlanningError)
    front = moastar.plan_pareto(graph, LatticeNode(six, siy, sth),
                                moastar.GoalSpec(gix, giy, gth))

    spaths = [to_segment_path(nodes, wmap, delta) for _, nodes in front.entries]
    timeds = [to_timed(spath, v=v, omega_deg=omega, dt=dt) for spath in spaths]
    # the text every document of the front shares, each number formatted once
    blocks = sample_blocks(timeds)
    rects, tracks = svg_layers(wmap, timeds) if args.svg else ("", [])
    entries = []
    rendered = []
    for i, ((cost, nodes), spath, timed, block, report) in enumerate(
            zip(front.entries, spaths, timeds, blocks, eval_costs(timeds, wmap, r))):
        entries.append(_entry_record(cost, nodes, spath, timed_to_json(timed, block), report))
        label = (f"#{i} V={report.V:.4f} N={report.N} D={report.D:.3f}")
        rendered.append((label, timed))
        if args.svg:
            _write(outdir / f"entry_{i:03d}.svg",
                   render_svg(wmap, [(label, timed)], (rects, tracks[i:i + 1])))

    doc = {
        "map": args.map,
        "delta": delta, "rho": rho, "r": r,
        "v": v, "omega_deg": omega, "dt": dt,
        "start": [six, siy, sth],
        "goal": [gix, giy] + ([gth] if gth is not None else []),
        "entries": entries,
    }
    _write(outdir / "front.json", dump_json(doc) + "\n")
    if args.svg:
        _write(outdir / "front.svg", render_svg(wmap, rendered, (rects, tracks)))
    print(f"front: {len(entries)} entries -> {outdir / 'front.json'}")
    return EXIT_OK if entries else EXIT_EMPTY


# -- rrt ------------------------------------------------------------------------


def cmd_rrt(args) -> int:
    wmap = load_map(_read(args.map, "map file"))
    rho = _resolve(args, "rho")
    r = check_disc_radius(wmap, _resolve(args, "r"))  # before any run
    v, omega, dt = (_resolve(args, name, default) for name, default in _TIMING.items())
    step = _resolve(args, "step", default=2.0 * wmap.resolution)
    if args.n < 1:
        raise CliError("--n must be >= 1")
    if args.seed < 0:
        raise CliError("--seed must be >= 0")
    # RrtParams checks these too, but names its fields, not the flags
    if not 0.0 <= finite_number(args.goal_bias, "--goal-bias", error=CliError) <= 1.0:
        raise CliError("--goal-bias must be in [0, 1]")
    finite_number(args.max_iterations, "--max-iterations", positive=True, integer=True,
                  error=CliError)

    model = RobotModel(footprint_radius=rho, camera_clearance_radius=r)
    start = _parse_pose(args.start, "--start", (2,))[:2]
    goal = _parse_pose(args.goal, "--goal", (2,))[:2]
    out = _out_dir(args.out) / "rrt.json"
    params = rrt.RrtParams(step_size=step, goal_bias=args.goal_bias,
                           max_iterations=args.max_iterations, seed=args.seed)
    result = rrt.best_of_n(wmap, model, start, goal, params, args.n)

    if result is None:  # every run failed
        seeds = range(args.seed, args.seed + args.n)
        _write(out, dump_json({
            "ok": False, "n": args.n, "base_seed": args.seed, "failures": args.n,
            "attempts": [{"seed": seed, "ok": False} for seed in seeds],
        }) + "\n")
        print(f"rrt: no solution in {args.n} runs ({args.n} failures)")
        return EXIT_EMPTY

    spath = to_segment_path(result)
    timed = to_timed(spath, v=v, omega_deg=omega, dt=dt)
    [report] = eval_costs([timed], wmap, r)
    signs = rrt.curvature_sign_changes(result)
    text = timed_to_json(timed, vertices=result.vertices, report=report.to_dict(),
                         curvature_sign_changes=signs, n=args.n, base_seed=args.seed)
    _write(out, text + "\n")
    print(f"rrt: best path with {signs} curvature sign changes -> {out}")
    return EXIT_OK


# -- eval and render --------------------------------------------------------------


def _evaluated(args):
    """The --map, and an iterator that reads, parses and evaluates each
    trajectory file in turn at --r: (path, timed trajectory, report)."""
    wmap = load_map(_read(args.map, "map file"))
    r = _resolve(args, "r")

    def each():
        for path in args.trajectories:
            timed = timed_from_json(_read(path, "trajectory"))
            [report] = eval_costs([timed], wmap, r)
            if not all(map(math.isfinite, report.to_dict().values())):
                raise CliError(f"trajectory {path}: report {report.to_dict()} is not finite")
            yield path, timed, report
    return wmap, each()


def cmd_eval(args) -> int:
    _, evaluated = _evaluated(args)
    for path, _, report in evaluated:
        out = dump_json(report.to_dict())
        print(f"{path}: {out}")
        _write(Path(path + ".report.json"), out + "\n")
    return EXIT_OK


def cmd_render(args) -> int:
    wmap, evaluated = _evaluated(args)
    rendered = [(f"{Path(path).name} V={report.V:.4f} N={report.N} D={report.D:.3f}", timed)
                for path, timed, report in evaluated]
    _write(Path(args.out), render_svg(wmap, rendered), make_dir=False)
    print(f"render: {len(rendered)} trajectories -> {args.out}")
    return EXIT_OK


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    def shared(*names, **kwargs) -> argparse.ArgumentParser:
        """A parent parser declaring each of names with kwargs."""
        parent = argparse.ArgumentParser(add_help=False)
        for name in names:
            parent.add_argument(name, **kwargs)
        return parent

    # numeric parameters are text here: _resolve converts them
    map_file, radius = shared("--map", required=True), shared("--r")
    robot = shared("--rho", "--v", "--omega", "--dt")
    out, files = shared("--out", required=True), shared("trajectories", nargs="+")

    p = argparse.ArgumentParser(prog="pnav",
                                description="Pareto-optimal comfort-aware "
                                            "trajectory planning")
    sub = p.add_subparsers(dest="command", required=True)

    pl = sub.add_parser("plan", parents=[map_file, radius, robot, out],
                        help="compute the Pareto front on the lattice")
    pl.add_argument("--start", required=True, help="X,Y,TH (degrees)")
    pl.add_argument("--goal", required=True, help="X,Y[,TH]")
    pl.add_argument("--delta")
    pl.add_argument("--svg", action="store_true")
    pl.set_defaults(func=cmd_plan)

    rr = sub.add_parser("rrt", parents=[map_file, radius, robot, out],
                        help="best-of-N seeded RRT baseline")
    rr.add_argument("--start", required=True, help="X,Y")
    rr.add_argument("--goal", required=True, help="X,Y")
    rr.add_argument("--n", type=int, required=True)
    rr.add_argument("--seed", type=int, default=rrt.RrtParams.seed)
    rr.add_argument("--step")
    rr.add_argument("--goal-bias", type=float, default=rrt.RrtParams.goal_bias)
    rr.add_argument("--max-iterations", type=int, default=rrt.RrtParams.max_iterations)
    rr.set_defaults(func=cmd_rrt)

    ev = sub.add_parser("eval", parents=[map_file, radius, files],
                        help="evaluate trajectory files")
    ev.set_defaults(func=cmd_eval)

    re_ = sub.add_parser("render", parents=[map_file, radius, out, files],
                         help="render map and trajectories to SVG")
    re_.set_defaults(func=cmd_render)

    # argparse reads an argument that looks like a negative number as a
    # value, not an option; its own rule knows -1 and -.5 but not -1e-3,
    # -inf or -1.5,3.5,0
    for parser in sub.choices.values():
        parser._negative_number_matcher = re.compile(r"-([\d.]|inf|nan)", re.I)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the help (0) or a usage error
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except ValueError as exc:  # every input error of pnav is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
