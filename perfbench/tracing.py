"""Spans around the calls into each pnav layer, and the per-layer metrics.

The tracer wraps public functions where the CLI looks them up, so the
program itself is unchanged.  Each span is [name, start_ns, end_ns, parent,
query id]; all spans of a query sit under its "query" span.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

# (module, attribute) of every traced call; the span takes the attribute name
TRACED = (("cli", "load_map"), ("cli", "build_lattice"), ("moastar", "plan_pareto"),
          ("cli", "to_segment_path"), ("cli", "to_timed"), ("cli", "eval_costs"),
          ("cli", "timed_to_json"), ("cli", "render_svg"), ("rrt", "best_of_n"),
          ("rrt", "rrt_plan"), ("rrt", "curvature_sign_changes"))

_PLAN = {"query", "load_map", "build_lattice", "plan_pareto", "to_segment_path",
         "to_timed", "eval_costs", "timed_to_json"}
REQUIRED = {
    "museum": _PLAN | {"render_svg"},
    "grid": _PLAN,
    "rrt": {"query", "load_map", "best_of_n", "rrt_plan", "curvature_sign_changes",
            "to_segment_path", "to_timed", "eval_costs", "timed_to_json"},
}

# per-layer metric -> span whose self time it sums per query
SELF_TIME = {
    "gridmap.load_s": "load_map",
    "lattice.build_s": "build_lattice",
    "moastar.search_s": "plan_pareto",
    "trajectory.segment_s": "to_segment_path",
    "trajectory.timed_s": "to_timed",
    "trajectory.eval_s": "eval_costs",
    "trajectory.to_json_s": "timed_to_json",
    "render.svg_s": "render_svg",
    "rrt.best_of_n_s": "best_of_n",
    "rrt.plan_s": "rrt_plan",
    "rrt.curvature_s": "curvature_sign_changes",
    "cli.self_s": "query",
}
COUNTS = ("lattice.positions", "lattice.nodes", "lattice.edges",
          "moastar.front_entries", "moastar.expansions", "trajectory.samples",
          "render.svg_bytes", "rrt.seeds", "rrt.seeds_ok")


class Tracer:
    """Records spans and keeps each traced call's result until the query ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.qid = -1
        self.kept: list[tuple] = []     # (name, args, result, expansions) per call
        self.expansions = 0
        self._neighbors = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.qid])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def install(self, modules: dict, graph_class) -> None:
        """Wrap every TRACED call in modules ({"cli": pnav.cli, ...}) and
        count LatticeGraph.neighbors calls made during plan_pareto."""
        for mod, attr in TRACED:
            self._wrap(modules[mod], attr)
        neighbors = self._neighbors = graph_class.neighbors
        tracer = self

        def counted(graph, node):
            tracer.expansions += 1
            return neighbors(graph, node)
        graph_class.neighbors = counted

    def _wrap(self, owner, attr: str) -> None:
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            before = tracer.expansions
            idx = tracer.open(attr)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.kept.append((attr, args, result, tracer.expansions - before))
            return result
        setattr(owner, attr, traced)

    def take_counts(self) -> tuple[dict, tuple]:
        """Counts of the query just ended, plus its (seed, vertices) RRT runs
        and best_of_n choice; clears the kept call results."""
        c = dict.fromkeys(COUNTS, 0)
        runs, chosen = [], None
        for name, args, result, expanded in self.kept:
            if name == "build_lattice":
                c["lattice.positions"] += len(result.phi)
                c["lattice.nodes"] += len(result)
                c["lattice.edges"] += sum(len(self._neighbors(result, n))
                                          for n in result.nodes)
            elif name == "plan_pareto":
                c["moastar.front_entries"] += len(result.entries)
                c["moastar.expansions"] += expanded
            elif name == "to_timed":
                c["trajectory.samples"] += len(result.samples)
            elif name == "render_svg":
                c["render.svg_bytes"] += len(result.encode())
            elif name == "rrt_plan":
                c["rrt.seeds"] += 1
                c["rrt.seeds_ok"] += result is not None
                runs.append((args[4].seed,
                             None if result is None else list(result.vertices)))
            elif name == "best_of_n":
                chosen = list(getattr(result, "vertices", None) or [])
        self.kept = []
        return c, (runs, chosen)


def self_times(spans) -> dict:
    """{query id: {span name: summed self time in s}}."""
    covered = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, _, qid) in enumerate(spans):
        out[qid][name] += (end - start - covered[i]) / 1e9
    return out


def layer_metrics(spans, counts: dict) -> dict:
    """Per-layer metrics: medians over queries of per-query self times and
    counts (the lower median, so a count stays a count of one query), the
    median rrt_plan call and the evaluator's sample rate."""
    selfs = self_times(spans)
    qids = sorted(counts)
    m = {}
    for metric, span in SELF_TIME.items():
        m[metric] = statistics.median(selfs[q].get(span, 0.0) for q in qids)
    for metric in COUNTS:
        m[metric] = statistics.median_low(counts[q][metric] for q in qids)
    plans = [(e - s) / 1e9 for n, s, e, _, _ in spans if n == "rrt_plan"]
    m["rrt.plan_s.p50"] = statistics.median(plans) if plans else 0.0
    eval_s = sum(selfs[q].get("eval_costs", 0.0) for q in qids)
    samples = sum(counts[q]["trajectory.samples"] for q in qids)
    m["trajectory.eval_samples_per_s"] = samples / eval_s if eval_s > 0 else 0.0
    return m
