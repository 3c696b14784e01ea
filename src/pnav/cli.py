"""Command-line front end: plan, rrt, eval, render.

Exit codes: 0 = non-empty result, 2 = valid inputs but no solution,
1 = input or configuration error.  Numeric parameters resolve as
flags > PNAV_* environment variables > defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import moastar, rrt, trajectory
from .gridmap import MapFormatError, RobotModel, load_map, obstruction_ratios
from .lattice import HEADINGS, LatticeError, LatticeNode, build_lattice
from .render import render_svg
from .trajectory import (TrajectoryError, eval_costs, timed_from_json,
                         timed_to_json, to_segment_path, to_timed)
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


def _world_to_lattice(x: float, y: float, wmap, delta: float) -> tuple[int, int]:
    ox, oy = wmap.origin
    return (int(round((x - ox) / delta - 0.5)), int(round((y - oy) / delta - 0.5)))


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True)


# -- plan -----------------------------------------------------------------------


def _entry_record(cost, nodes, spath, trajectory_json: str, report) -> dict:
    segs = []
    for seg in spath.segments:
        if isinstance(seg, trajectory.Rotate):
            segs.append({"kind": "rotate", "point": list(seg.point),
                         "from_heading": seg.from_heading,
                         "to_heading": seg.to_heading, "arc": seg.arc})
        else:
            segs.append({"kind": "translate", "p0": list(seg.p0),
                         "p1": list(seg.p1), "heading": seg.heading})
    return {
        "cost": {"w1_sum": cost.w1, "w2": cost.w2, "w3": cost.w3},
        "report": report.to_dict(),
        "nodes": [[n.ix, n.iy, n.heading] for n in nodes],
        "segments": segs,
        "trajectory": trajectory_json,  # timed_to_json text, spliced by _dump_front
    }


def _front_phi(wmap, timeds, r: float) -> list[np.ndarray]:
    """Obstruction ratios of each trajectory's sample positions, from one
    obstruction_ratios batch over the distinct positions of all of them
    (rotations in place and shared prefixes repeat positions)."""
    if not timeds:
        return []
    xy = np.concatenate([t.samples[:, 1:3] for t in timeds])
    unique, inverse = np.unique(xy, axis=0, return_inverse=True)
    phi = obstruction_ratios(wmap, unique, r)[inverse.reshape(-1)]
    return np.split(phi, np.cumsum([len(t.samples) for t in timeds])[:-1])


# stands for an entry's trajectory in the document that _dump_front dumps; a
# map path, the only string read from input, cannot hold a NUL (_read_map fails)
_TRAJECTORY_SLOT = "\0"
# indent of a trajectory's lines in front.json: entries > entry > "trajectory"
_TRAJECTORY_INDENT = "   "


def _dump_front(doc: dict) -> str:
    """_dump_json(doc), with each entry's "trajectory" the JSON text it holds.

    The document is dumped with a placeholder string in place of each
    trajectory, and the texts are spliced in at their depth, never decoded.
    """
    entries = doc["entries"]
    slotted = dict(doc, entries=[dict(e, trajectory=_TRAJECTORY_SLOT) for e in entries])
    parts = _dump_json(slotted).split(json.dumps(_TRAJECTORY_SLOT))
    if len(parts) != len(entries) + 1:
        raise RuntimeError(f"front.json has {len(parts) - 1} trajectory slots "
                           f"for {len(entries)} entries")
    texts = [e["trajectory"].replace("\n", "\n" + _TRAJECTORY_INDENT) for e in entries]
    return "".join(part + text for part, text in zip(parts, texts + [""]))


def cmd_plan(args) -> int:
    wmap = _read_map(args.map)
    delta = _resolve(args.delta, "DELTA", default=2.0 * wmap.resolution)
    rho = _resolve(args.rho, "RHO")
    r = _resolve(args.r, "R")
    v = _resolve(args.v, "V", default=1.0)
    omega = _resolve(args.omega, "OMEGA", default=90.0)
    dt = _resolve(args.dt, "DT", default=0.05)

    model = RobotModel(footprint_radius=rho, camera_clearance_radius=r)
    graph = build_lattice(wmap, model, delta)

    sx, sy, sth = _parse_pose(args.start, "--start", heading_optional=False)
    gx, gy, gth = _parse_pose(args.goal, "--goal", heading_optional=True)
    six, siy = _world_to_lattice(sx, sy, wmap, delta)
    gix, giy = _world_to_lattice(gx, gy, wmap, delta)
    if not (0 <= gix < graph.nx and 0 <= giy < graph.ny):
        raise CliError("invalid goal")
    try:
        start = LatticeNode(six, siy, sth)
    except ValueError:
        raise CliError("invalid start")
    if start not in graph:
        raise CliError("invalid start")

    front = moastar.plan_pareto(graph, start, moastar.GoalSpec(gix, giy, gth))

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
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
            (outdir / f"entry_{i:03d}.svg").write_text(
                render_svg(wmap, [(label, timed)]))

    doc = {
        "map": args.map,
        "delta": delta, "rho": rho, "r": r,
        "v": v, "omega_deg": omega, "dt": dt,
        "start": [six, siy, sth],
        "goal": [gix, giy] + ([gth] if gth is not None else []),
        "entries": entries,
    }
    (outdir / "front.json").write_text(_dump_front(doc) + "\n")
    if args.svg:
        (outdir / "front.svg").write_text(render_svg(wmap, rendered))
    print(f"front: {len(entries)} entries -> {outdir / 'front.json'}")
    return EXIT_OK if entries else EXIT_EMPTY


# -- rrt ------------------------------------------------------------------------


def cmd_rrt(args) -> int:
    wmap = _read_map(args.map)
    rho = _resolve(args.rho, "RHO")
    r = _resolve(args.r, "R")
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

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if isinstance(result, rrt.RrtFailure):
        failures = sum(1 for a in result.attempts if not a["ok"])
        (outdir / "rrt.json").write_text(_dump_json({
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
    doc = json.loads(timed_to_json(timed))
    doc.update({
        "vertices": [list(p) for p in result.vertices],
        "report": report.to_dict(),
        "curvature_sign_changes": signs,
        "n": args.n,
        "base_seed": args.seed,
    })
    (outdir / "rrt.json").write_text(_dump_json(doc) + "\n")
    print(f"rrt: best path with {signs} curvature sign changes "
          f"-> {outdir / 'rrt.json'}")
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
        out = _dump_json(report.to_dict())
        print(f"{traj_path}: {out}")
        Path(str(traj_path) + ".report.json").write_text(out + "\n")
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
    Path(args.out).write_text(render_svg(wmap, rendered))
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
