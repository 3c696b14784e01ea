"""pnav benchmark: one workload, closed loop, outputs checked, one JSON line.

Usage (from the repository root):
    python3 perfbench/run.py --workload museum|grid|rrt --seed N \
        --seconds S --trace 0|1

The workload runs in its own worker process (perfbench/worker.py): one
client, one thread, each query a pnav.cli.main call, whole passes over the
workload's fixed query list for about S seconds.  Afterwards this process checks
every query's outputs with perfbench/checks.py and prints, as its last line,
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run of the
same queries.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent.relative_to(ROOT)
SETUP_PROBES = (4, 5)   # timed set-ups before and after the run; setup_s is their median
WORKER_DEADLINE = 150   # seconds before a worker is killed
# reference.reference()'s typical time on the host of the reference figures
# (perfbench/README.md); set-up and query times are reported scaled to it
REF_S = 0.065
RRT_START, RRT_GOAL, RRT_RHO = (3.5, 3.5), (18.5, 3.5), 0.3


def run_worker(plan: dict, rundir: Path, name: str) -> tuple[dict, float]:
    """Run the worker on plan; return its result and its peak RSS in MB."""
    plan_path = rundir / f"{name}.plan.json"
    plan = dict(plan, result=str(rundir / f"{name}.result.json"))
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(plan_path)],
                            cwd=ROOT, stdout=subprocess.DEVNULL)
    deadline = time.monotonic() + WORKER_DEADLINE
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.send_signal(signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise RuntimeError(f"worker {name} ran past {WORKER_DEADLINE} s")
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited with {proc.returncode}")
    result = json.loads(Path(plan["result"]).read_text())
    return result, usage.ru_maxrss / 1024.0


def check_query(workload: str, qdir: Path, map_path: str) -> None:
    """Check one query's first-pass outputs; raises checks.Reject."""
    map_text = (ROOT / map_path).read_text()
    if workload == "rrt":
        doc = json.loads((qdir / "rrt.json").read_text())
        checks.check_rrt(doc, checks.parse_map(map_text), RRT_START, RRT_GOAL, RRT_RHO)
        return
    doc = json.loads((qdir / "front.json").read_text())
    checks.check_front(doc)
    if workload == "museum":
        checks.check_museum_tradeoff(doc)
        grid = checks.parse_map(map_text)
        for e in doc["entries"]:
            checks.check_v(e["trajectory"]["samples"], e["report"]["V"], grid, doc["r"])
        return
    checks.check_front_minima(doc, grid_minima(doc, map_text))


def grid_minima(doc, map_text: str) -> tuple:
    """Single-objective optima on the program's lattice for this query,
    found by the benchmark's own Dijkstra."""
    from pnav import LatticeNode, RobotModel, build_lattice, load_map
    graph = build_lattice(load_map(map_text), RobotModel(doc["rho"], doc["r"]),
                          doc["delta"])

    def neighbors(n):
        for e in graph.neighbors(LatticeNode(*n)):
            yield ((e.dst.ix, e.dst.iy, e.dst.heading),
                   (e.cost.w1, e.cost.w2, e.cost.w3))
    return checks.dijkstra_minima(neighbors, tuple(doc["start"]), tuple(doc["goal"][:2]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "pnav" / "__init__.py").is_file():
        print(f"error: no pnav package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))     # for the grid checks' lattice
    rundir = BENCH / "out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(ROOT / rundir, ignore_errors=True)
    try:
        plan = inputs.make_inputs(args.workload, args.seed, ROOT, rundir / "inputs")
        base = {"src": str(ROOT / "src"), "maps": plan["maps"],
                "queries": plan["queries"],
                "outdir": str(rundir / "queries"), "seconds": args.seconds,
                "trace": bool(args.trace), "workload": args.workload,
                "setup_only": False}

        def setup_probes(first: int, count: int) -> list[float]:
            """Set-up times of fresh workers, each scaled by REF_S over the
            reference time its worker measured right after set-up."""
            out = []
            for i in range(first, first + count):
                res, _ = run_worker(dict(base, setup_only=True), ROOT / rundir, f"setup{i}")
                out.append(res["setup_s"] * REF_S / res["ref_s"])
            return out

        setups = []
        if not args.trace:
            # the first set-up also compiles and caches pnav's bytecode: untimed
            setups = setup_probes(0, SETUP_PROBES[0] + 1)[1:]
        result, rss_mb = run_worker(base, ROOT / rundir, "run")
        if not args.trace:
            setups += setup_probes(SETUP_PROBES[0] + 1, SETUP_PROBES[1])
        report = evaluate(args, plan, result, rundir)
        if args.trace:
            traces = ROOT / BENCH / "out" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            (traces / f"{args.workload}-s{args.seed}.json").write_text(
                json.dumps({"spans": result["spans"]}))
            metrics = tracing.layer_metrics(result["spans"],
                                            {int(q): c for q, c in result["counts"].items()})
            metrics["traced.query_s.p50"] = statistics.median(host_adjusted(result))
            units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
        else:
            metrics = {"setup_s": statistics.median(setups),
                       "query_s.p50": statistics.median(host_adjusted(result)),
                       "peak_rss_mb": rss_mb}
            units = {m["name"]: m["unit"] for m in bench_spec()["end_to_end"]}
        report["metrics"] = {name: {"value": metrics[name], "unit": unit}
                             for name, unit in units.items()}
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / rundir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def host_adjusted(result: dict) -> list[float]:
    """Each query's wall time scaled by REF_S over the mean of the reference
    times measured just before and just after it."""
    refs = [result["ref0_s"]] + [r[5] for r in result["records"]]
    return [r[3] * REF_S / ((before + after) / 2)
            for r, before, after in zip(result["records"], refs, refs[1:])]


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def evaluate(args, plan, result, rundir) -> dict:
    """Check outputs and count failed queries.  A query execution fails when
    the CLI returns non-zero, when its outputs differ from the first pass,
    when a check rejects the first pass's outputs, or (traced) when a span
    its workload must produce is missing or best_of_n picked another run."""
    records = result["records"]
    first = {r[1]: r[4] for r in records if r[0] == 0}
    rejected = {}
    for k, argv in enumerate(plan["queries"]):
        qdir = ROOT / rundir / "queries" / f"q{k}" / "p0"
        try:
            check_query(args.workload, qdir, argv[argv.index("--map") + 1])
        except (checks.Reject, OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            rejected[k] = f"{type(exc).__name__}: {exc}"
    names = {}
    if args.trace:
        for name, _, _, _, qid in result["spans"]:
            names.setdefault(qid, set()).add(name)
    failed, wrong = 0, 0
    for qid, (p, k, rc, _, d, _) in enumerate(records):
        why = None
        if rc != 0:
            why = f"exit code {rc}"
        elif k in rejected:
            why = rejected[k]
        elif d != first[k]:
            why = "outputs differ from the first pass"
        elif args.trace:
            missing = tracing.REQUIRED[args.workload] - names.get(qid, set())
            if missing:
                why = f"missing spans {sorted(missing)}"
            elif args.workload == "rrt" and not result["bestofn"][str(qid)]:
                why = "best_of_n did not pick the best run"
        if why:
            failed += 1
            wrong += rc == 0
            print(f"query {k} pass {p} failed: {why}", file=sys.stderr)
    # a query that exits non-zero fails; one that returns wrong outputs
    # also makes the run incorrect
    return {"correct": wrong == 0, "attempted": len(records), "failed": failed}


if __name__ == "__main__":
    sys.exit(main())
