"""Command-line front end: plan, rrt, eval, render.

Exit codes: 0 = non-empty result, 2 = valid inputs but no solution,
1 = input or configuration error, or an output file that cannot be written.
Numeric parameters resolve as flags > PNAV_* environment variables >
defaults.  Every JSON document is written by trajectory.dump_json, and every
output file by _write.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import moastar, rrt, trajectory
from .gridmap import (MapFormatError, RobotModel, check_disc_radius, load_map,
                      obstruction_ratios)
from .lattice import HEADINGS, LatticeError, LatticeNode, build_lattice
from .render import render_svg
from .trajectory import (JsonText, TrajectoryError, dump_json, eval_costs,
                         timed_from_json, timed_to_json, to_segment_path, to_timed)
from .validate import finite_number

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY = 2


class CliError(ValueError):
    pass


def _env_float(name: str) -> float | None:
    raw = os.environ.get(f"PNAV_{name}")
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise CliError(f"environment variable PNAV_{name} is not a number: {raw!r}")


def _resolve(flag_value, env_name: str, default=None):
    """Flag --<env_name lowercased>, else PNAV_<env_name>, else default; the
    value must be a finite number > 0."""
    flag = f"--{env_name.lower()}"
    if flag_value is not None:
        return finite_number(flag_value, flag, positive=True, error=CliError)
    env = _env_float(env_name)
    if env is not None:
        return finite_number(env, f"PNAV_{env_name}", positive=True, error=CliError)
    if default is not None:
        return default
    raise CliError(f"missing required parameter {flag} (flag or PNAV_{env_name})")


def _read_map(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read map file {path}: {exc}")
    return load_map(text)


def _parse_xy(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"{what} must be X,Y")
    try:
        xy = (float(parts[0]), float(parts[1]))
    except ValueError:
        raise CliError(f"{what} must be numeric X,Y")
    return tuple(finite_number(v, what, error=CliError) for v in xy)


def _parse_pose(text: str, what: str, heading_optional: bool):
    parts = text.split(",")
    if len(parts) == 2 and heading_optional:
        x, y = _parse_xy(text, what)
        return (x, y, None)
    if len(parts) != 3:
        raise CliError(f"{what} must be X,Y,TH" + ("[,TH optional]" if heading_optional else ""))
    try:
        x, y, th = float(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        raise CliError(f"{what} must be numeric")
    x, y, th = (finite_number(v, what, error=CliError) for v in (x, y, th))
    if th not in HEADINGS:
        raise CliError(f"{what} heading must be one of {sorted(HEADINGS)}")
    return (x, y, int(th))


def _world_to_lattice(x: float, y: float, wmap, delta: float, what: str) -> tuple[int, int]:
    ox, oy = wmap.origin
    fx, fy = (x - ox) / delta - 0.5, (y - oy) / delta - 0.5
    if not (math.isfinite(fx) and math.isfinite(fy)):
        raise CliError(f"{what} is out of range of the lattice at --delta {delta!r}")
    return (int(round(fx)), int(round(fy)))


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
        "report": report.to_dict(),
        "nodes": _entry_list([_NODE_JSON] * len(nodes),
                             tuple(v for n in nodes for v in (n.ix, n.iy, n.heading))),
        "segments": _entry_list(templates, tuple(values)),
        "trajectory": JsonText(trajectory_json.replace("\n", "\n" + _ENTRY_INDENT)),
    }


def _front_phi(wmap, timeds, r: float) -> list[np.ndarray]:
    """Obstruction ratios of each trajectory's sample positions, from one
    obstruction_ratios batch over the distinct positions of all of them
    (rotations in place and shared prefixes repeat positions)."""
    if not timeds:
        return []
    xy = np.concatenate([t.samples[:, 1:3] for t in timeds])  # C-contiguous
    # each (x, y) row viewed as one complex number, far cheaper to sort than
    # rows; -0.0 and 0.0 compare equal there, which is harmless: they give
    # the same ratio, as obstruction_ratios only adds, subtracts and compares
    # coordinates, where the two agree
    unique, inverse = np.unique(xy.view(np.complex128).ravel(), return_inverse=True)
    phi = obstruction_ratios(wmap, unique.view(np.float64).reshape(-1, 2), r)[inverse]
    return np.split(phi, np.cumsum([len(t.samples) for t in timeds])[:-1])


def cmd_plan(args) -> int:
    wmap = _read_map(args.map)
    delta = _resolve(args.delta, "DELTA", default=2.0 * wmap.resolution)
    rho = _resolve(args.rho, "RHO")
    r = _resolve(args.r, "R")
    v = _resolve(args.v, "V", default=1.0)
    omega = _resolve(args.omega, "OMEGA", default=90.0)
    dt = _resolve(args.dt, "DT", default=0.05)

    sx, sy, sth = _parse_pose(args.start, "--start", heading_optional=False)
    gx, gy, gth = _parse_pose(args.goal, "--goal", heading_optional=True)
    six, siy = _world_to_lattice(sx, sy, wmap, delta, "--start")
    gix, giy = _world_to_lattice(gx, gy, wmap, delta, "--goal")

    model = RobotModel(footprint_radius=rho, camera_clearance_radius=r)
    graph = build_lattice(wmap, model, delta)
    # plan_pareto names a start or goal off the lattice (PlanningError)
    front = moastar.plan_pareto(graph, LatticeNode(six, siy, sth),
                                moastar.GoalSpec(gix, giy, gth))

    outdir = Path(args.out)
    spaths = [to_segment_path(nodes, wmap, delta) for _, nodes in front.entries]
    timeds = [to_timed(spath, v=v, omega_deg=omega, dt=dt) for spath in spaths]
    entries = []
    rendered = []
    for i, ((cost, nodes), spath, timed, phi) in enumerate(
            zip(front.entries, spaths, timeds, _front_phi(wmap, timeds, r))):
        report = eval_costs(timed, wmap, r, search_w1_sum=cost.w1, phi=phi)
        entries.append(_entry_record(cost, nodes, spath, timed_to_json(timed), report))
        label = (f"#{i} V={report.V:.4f} N={report.N} D={report.D:.3f}")
        rendered.append((label, timed))
        if args.svg:
            _write(outdir / f"entry_{i:03d}.svg", render_svg(wmap, [(label, timed)]))

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
        _write(outdir / "front.svg", render_svg(wmap, rendered))
    print(f"front: {len(entries)} entries -> {outdir / 'front.json'}")
    return EXIT_OK if entries else EXIT_EMPTY


# -- rrt ------------------------------------------------------------------------


def cmd_rrt(args) -> int:
    wmap = _read_map(args.map)
    rho = _resolve(args.rho, "RHO")
    r = check_disc_radius(wmap, _resolve(args.r, "R"))  # before any run
    v = _resolve(args.v, "V", default=1.0)
    omega = _resolve(args.omega, "OMEGA", default=90.0)
    dt = _resolve(args.dt, "DT", default=0.05)
    step = _resolve(args.step, "STEP", default=2.0 * wmap.resolution)
    if args.n < 1:
        raise CliError("--n must be >= 1")
    if args.seed < 0:
        raise CliError("--seed must be >= 0")

    model = RobotModel(footprint_radius=rho, camera_clearance_radius=r)
    start = _parse_xy(args.start, "--start")
    goal = _parse_xy(args.goal, "--goal")
    params = rrt.RrtParams(step_size=step, goal_bias=args.goal_bias,
                           max_iterations=args.max_iterations, seed=args.seed)
    try:
        result = rrt.best_of_n(wmap, model, start, goal, params, args.n)
    except ValueError as exc:
        raise CliError(str(exc))

    out = Path(args.out) / "rrt.json"
    if isinstance(result, rrt.RrtFailure):
        failures = sum(1 for a in result.attempts if not a["ok"])
        _write(out, dump_json({
            "ok": False, "n": args.n, "base_seed": args.seed,
            "failures": failures, "attempts": result.attempts,
        }) + "\n")
        print(f"rrt: no solution in {args.n} runs ({failures} failures)")
        return EXIT_EMPTY

    spath = to_segment_path(result)
    timed = to_timed(spath, v=v, omega_deg=omega, dt=dt)
    report = eval_costs(timed, wmap, r)
    signs = (rrt.curvature_sign_changes(result)
             if len(result.vertices) >= 2 else 0)
    text = timed_to_json(timed, vertices=result.vertices, report=report.to_dict(),
                         curvature_sign_changes=signs, n=args.n, base_seed=args.seed)
    _write(out, text + "\n")
    print(f"rrt: best path with {signs} curvature sign changes -> {out}")
    return EXIT_OK


# -- eval -----------------------------------------------------------------------


def cmd_eval(args) -> int:
    wmap = _read_map(args.map)
    r = _resolve(args.r, "R")
    for traj_path in args.trajectories:
        try:
            text = Path(traj_path).read_text()
        except OSError as exc:
            raise CliError(f"cannot read trajectory {traj_path}: {exc}")
        timed = timed_from_json(text)
        report = eval_costs(timed, wmap, r)
        out = dump_json(report.to_dict())
        print(f"{traj_path}: {out}")
        _write(Path(str(traj_path) + ".report.json"), out + "\n")
    return EXIT_OK


# -- render ---------------------------------------------------------------------


def cmd_render(args) -> int:
    wmap = _read_map(args.map)
    r = _resolve(args.r, "R")
    rendered = []
    for traj_path in args.trajectories:
        try:
            text = Path(traj_path).read_text()
        except OSError as exc:
            raise CliError(f"cannot read trajectory {traj_path}: {exc}")
        timed = timed_from_json(text)
        report = eval_costs(timed, wmap, r)
        label = (f"{Path(traj_path).name} V={report.V:.4f} "
                 f"N={report.N} D={report.D:.3f}")
        rendered.append((label, timed))
    _write(Path(args.out), render_svg(wmap, rendered), make_dir=False)
    print(f"render: {len(rendered)} trajectories -> {args.out}")
    return EXIT_OK


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pnav",
                                description="Pareto-optimal comfort-aware "
                                            "trajectory planning")
    sub = p.add_subparsers(dest="command", required=True)

    pl = sub.add_parser("plan", help="compute the Pareto front on the lattice")
    pl.add_argument("--map", required=True)
    pl.add_argument("--start", required=True, help="X,Y,TH (degrees)")
    pl.add_argument("--goal", required=True, help="X,Y[,TH]")
    pl.add_argument("--delta", type=float)
    pl.add_argument("--rho", type=float)
    pl.add_argument("--r", type=float)
    pl.add_argument("--v", type=float)
    pl.add_argument("--omega", type=float)
    pl.add_argument("--dt", type=float)
    pl.add_argument("--out", required=True)
    pl.add_argument("--svg", action="store_true")
    pl.set_defaults(func=cmd_plan)

    rr = sub.add_parser("rrt", help="best-of-N seeded RRT baseline")
    rr.add_argument("--map", required=True)
    rr.add_argument("--start", required=True, help="X,Y")
    rr.add_argument("--goal", required=True, help="X,Y")
    rr.add_argument("--n", type=int, required=True)
    rr.add_argument("--seed", type=int, default=0)
    rr.add_argument("--rho", type=float)
    rr.add_argument("--r", type=float)
    rr.add_argument("--step", type=float)
    rr.add_argument("--goal-bias", type=float, default=0.05)
    rr.add_argument("--max-iterations", type=int, default=20000)
    rr.add_argument("--v", type=float)
    rr.add_argument("--omega", type=float)
    rr.add_argument("--dt", type=float)
    rr.add_argument("--out", required=True)
    rr.set_defaults(func=cmd_rrt)

    ev = sub.add_parser("eval", help="evaluate trajectory files")
    ev.add_argument("--map", required=True)
    ev.add_argument("--r", type=float)
    ev.add_argument("trajectories", nargs="+")
    ev.set_defaults(func=cmd_eval)

    re_ = sub.add_parser("render", help="render map and trajectories to SVG")
    re_.add_argument("--map", required=True)
    re_.add_argument("--r", type=float)
    re_.add_argument("--out", required=True)
    re_.add_argument("trajectories", nargs="+")
    re_.set_defaults(func=cmd_render)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, MapFormatError, LatticeError, TrajectoryError,
            moastar.PlanningError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
