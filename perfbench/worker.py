"""One workload process: set up, then run the query list in a closed loop.

Usage: python3 perfbench/worker.py PLAN.json

PLAN holds "src" (the directory holding the pnav package), "maps", "queries"
(CLI argv lists without --out), "outdir", "seconds", "trace", "setup_only"
and "result" (the JSON file written at the end).  Queries run in the current
directory, one at a time, each calling pnav.cli.main in this process; the
next query starts when the previous one returns.  Whole passes over the list
run until the pass boundary nearest to "seconds", and at least two, so that
every query is repeated.  Outputs of the first pass are kept for the checks;
every later pass is reduced to a digest of its files and deleted.

The worker also times reference.reference() once after set-up and once after
every query, so that run.py can scale each set-up and query time to the
host's speed at that moment.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import time
import traceback
from pathlib import Path


def digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(outdir.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def setup(plan: dict):
    """Import pnav and load every map once; return (cli module, seconds).

    numpy is imported before the clock starts: its import takes about 0.09 s
    or 0.16 s depending on the host's phase, which would swamp pnav's own
    set-up of about 0.05 s."""
    sys.path.insert(0, plan["src"])
    import numpy  # noqa: F401
    t0 = time.perf_counter()
    import pnav.cli as cli
    for m in plan["maps"]:
        cli.load_map(Path(m).read_text())
    elapsed = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parents[1] != Path(plan["src"]).resolve():
        raise SystemExit(f"pnav imported from {cli.__file__}, not {plan['src']}")
    return cli, elapsed


def run(plan: dict) -> dict:
    cli, setup_s = setup(plan)
    from reference import reference
    reference()                         # first call: numpy and allocator warm-up
    ref0_s = reference()
    if plan["setup_only"]:
        return {"setup_s": setup_s, "ref_s": ref0_s}
    tracer = None
    if plan["trace"]:
        import pnav.lattice
        import pnav.moastar
        import pnav.rrt
        import checks
        from tracing import Tracer
        tracer = Tracer()
        tracer.install({"cli": cli, "moastar": pnav.moastar, "rrt": pnav.rrt},
                       pnav.lattice.LatticeGraph)

    outdir = Path(plan["outdir"])
    records, counts, bestofn = [], {}, {}
    t_start = time.perf_counter()
    npass = 0
    while True:
        for k, argv in enumerate(plan["queries"]):
            qdir = outdir / f"q{k}" / f"p{npass}"
            qid = len(records)
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    if tracer is None:
                        t0 = time.perf_counter()
                        rc = cli.main(argv + ["--out", str(qdir)])
                        seconds = time.perf_counter() - t0
                    else:
                        tracer.qid = qid
                        idx = tracer.open("query")
                        try:
                            rc = cli.main(argv + ["--out", str(qdir)])
                        finally:
                            tracer.close(idx)
                        span = tracer.spans[idx]
                        seconds = (span[2] - span[1]) / 1e9
                except Exception:   # a crashing query is a failed query
                    traceback.print_exc()
                    rc, seconds = -1, 0.0
            if tracer is not None:
                counts[qid], (runs, chosen) = tracer.take_counts()
                if plan["workload"] == "rrt":
                    bestofn[qid] = checks.best_of_n_choice(runs) == chosen
            ref_s = reference()
            records.append([npass, k, rc, seconds,
                            digest(qdir) if qdir.is_dir() else "", ref_s])
            if npass > 0 and qdir.is_dir():
                shutil.rmtree(qdir)
        npass += 1
        # stop at the pass boundary nearest to the time budget
        elapsed = time.perf_counter() - t_start
        if npass >= 2 and elapsed + 0.5 * elapsed / npass >= plan["seconds"]:
            break
    out = {"setup_s": setup_s, "ref0_s": ref0_s, "records": records}
    if tracer is not None:
        out.update(spans=tracer.spans, counts=counts, bestofn=bestofn)
    return out


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text())
    Path(plan["result"]).write_text(json.dumps(run(plan)))


if __name__ == "__main__":
    main()
