"""The benchmark's traced run needs every span its workload requires; a
query that lacks one counts as failed.  This runs one museum plan and one
rrt query under perfbench's own tracer, loaded from perfbench/tracing.py as
it is, so that a change that stops calling a traced function through the
attribute the tracer wraps fails here."""

import importlib.util
from pathlib import Path

import pytest

import pnav
import pnav.cli
import pnav.moastar
import pnav.rrt
from pnav.lattice import LatticeGraph

ROOT = Path(__file__).resolve().parents[1]
MUSEUM = Path(pnav.__file__).parent / "data" / "museum.json"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(tracing, monkeypatch):
    """perfbench's Tracer installed as its worker installs it; monkeypatch
    puts every wrapped attribute back afterwards."""
    modules = {"cli": pnav.cli, "moastar": pnav.moastar, "rrt": pnav.rrt}
    for mod, attr in tracing.TRACED:
        monkeypatch.setattr(modules[mod], attr, getattr(modules[mod], attr))
    monkeypatch.setattr(LatticeGraph, "neighbors", LatticeGraph.neighbors)
    t = tracing.Tracer()
    t.install(modules, LatticeGraph)
    return t


@pytest.mark.parametrize("workload, argv", [
    ("museum", ["plan", "--map", str(MUSEUM), "--start", "3.5,3.5,0", "--goal", "18.5,3.5",
                "--delta", "1.0", "--rho", "0.3", "--r", "2.0", "--svg"]),
    ("rrt", ["rrt", "--map", str(MUSEUM), "--start", "3.5,3.5", "--goal", "18.5,3.5",
             "--n", "3", "--seed", "0", "--rho", "0.3", "--r", "2.0"]),
])
def test_query_records_its_required_spans(tracing, tracer, workload, argv, tmp_path):
    assert pnav.cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    recorded = {span[0] for span in tracer.spans}
    assert tracing.REQUIRED[workload] - {"query"} <= recorded
