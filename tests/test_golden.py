"""Golden digests of the lattice and the planner's front.

Refactors of the lattice, the collision test or the search must leave these
structures unchanged to the bit.  They hold only correctly rounded float
results (integer-count ratios, additions, sqrt), so the digests do not
depend on the platform.  RRT paths stay in: their vertices come from PCG64
uniforms and correctly rounded arithmetic, and the nearest node from exact
comparisons.

The last three tests pin the bytes of every file that `pnav plan --svg` on
the museum query and two `pnav rrt --n 20` runs write, one of them a run in
which every seed fails.  Those files hold sampled trajectories and their
evaluated costs, which numpy computes, so a numpy whose float results differ
in the last bit could change them; they are the "same bytes" check of
refactors on the installed toolchain.
"""

import hashlib
from importlib import resources

import numpy as np
import pytest

from pnav.cli import main
from pnav.fixtures import (MUSEUM_DELTA, MUSEUM_GOAL, MUSEUM_GOAL_WORLD, MUSEUM_START,
                           MUSEUM_START_WORLD, museum_map, museum_model)
from pnav.gridmap import RobotModel, WorkspaceMap
from pnav.lattice import LatticeNode, build_lattice
from pnav.moastar import GoalSpec, plan_pareto
from pnav.rrt import PolyPath, RrtParams, best_of_n, rrt_plan


def _node(n):
    return (n.ix, n.iy, n.heading)


def edges_digest(graph) -> str:
    text = repr([(_node(n), [(_node(e.dst), e.kind, repr(e.cost.w1), repr(e.cost.w2),
                              repr(e.cost.w3)) for e in graph.neighbors(n)])
                 for n in graph.nodes])
    return hashlib.sha256(text.encode()).hexdigest()


def front_digest(front) -> str:
    text = repr([((repr(c.w1), repr(c.w2), repr(c.w3)), [_node(n) for n in path])
                 for c, path in front.entries])
    return hashlib.sha256(text.encode()).hexdigest()


def random_query():
    """A seeded 20 x 14 map of 0.5 m cells, 8% obstacles, lattice step 0.5 m.

    rho = 0.25 puts a node's disc exactly tangent to the sides of its
    axis-neighbour cells, so the collision test's tangency rule shows here."""
    occ = np.random.default_rng(20261018).random((14, 20)) < 0.08
    wmap = WorkspaceMap(20, 14, 0.5, (-1.25, 0.75), occ)
    graph = build_lattice(wmap, RobotModel(0.25, 1.5), 0.5)
    free = sorted(graph.phi)
    return graph, LatticeNode(*free[0], 0), GoalSpec(*free[-1])


@pytest.mark.parametrize("name,edges,front", [
    ("museum", "9d724d6933ffa38ff29021ca44b7fe0b1e0e105d5b55544f23d0234aa2b80660",
     "da73d56f62d2e06097f12aa867370ddd7fa2da945f3bf3aa2dbc7c255d4c63d1"),
    ("random", "dc75a782f574948cad72f09bf9a4061257ea813499768c881f85e6a0f60d6c71",
     "16e5d3e5c88cf394659487e28a600fa9e2bbe2bd77bda9fb04bf4444aa041ea7"),
])
def test_lattice_and_front_digests(name, edges, front):
    if name == "museum":
        graph = build_lattice(museum_map(), museum_model(), MUSEUM_DELTA)
        start, goal = LatticeNode(*MUSEUM_START), GoalSpec(*MUSEUM_GOAL)
    else:
        graph, start, goal = random_query()
    result = plan_pareto(graph, start, goal)
    assert (edges_digest(graph), front_digest(result)) == (edges, front)


def rrt_digest(path: PolyPath) -> str:
    """Of a PolyPath's vertices."""
    text = repr([(repr(x), repr(y)) for x, y in path.vertices])
    return hashlib.sha256(text.encode()).hexdigest()


MUSEUM_RRT = (MUSEUM_START_WORLD[:2], MUSEUM_GOAL_WORLD)


@pytest.mark.parametrize("base,digest", [
    (0, "3ec3bb0a366b6c791a3dc49ffe1e0c19b18a278a3c57c1efd8b2518e73161f32"),
    (1000, "7e1fe75afa2371f83b4d503a82bd037c3a4b3f78ff7f4c47de80e46ed63adfb6"),
    (424242, "97c59d0fd06ff8dd9bccb10fcc304861ca7c7e80d5687823aac288580fe36c32"),
])
def test_rrt_best_of_n_digests(base, digest):
    params = RrtParams(step_size=1.0, max_iterations=20000, seed=base)
    result = best_of_n(museum_map(), museum_model(), *MUSEUM_RRT, params, 20)
    assert rrt_digest(result) == digest


def test_rrt_goal_bias_half_digest():
    # 1,249 uniforms drawn: the 256-value blocks of rrt_plan's stream end
    # after a goal-branch draw, after the branch draw of a sample, after its
    # x and after its y; a stream that loses or swaps a block's last value
    # changes this path
    params = RrtParams(step_size=0.3, goal_bias=0.5, seed=6)
    path = rrt_plan(museum_map(), museum_model(), *MUSEUM_RRT, params)
    assert rrt_digest(path) == "9473f17cf15b6d11b1aa6d0360f39ed5d203e3e23b097507c79a11fb1960ce00"


# sha256 of every file that these commands write
MUSEUM_PLAN_FILES = {
    "entry_000.svg": "8e7d01109551b3b4e5af389393d977e020d8803a2eb51a9eeee8897366ba8085",
    "entry_001.svg": "30af91806bd84fe808b8b6e6ff1d387d23c8acfcddad5eb7d68b640d4db288b2",
    "entry_002.svg": "79159007dedaae7d9d24e89d1af24d4136084415f6266c7f77f67db7b7b9d5e7",
    "entry_003.svg": "2862fdea1f43cbd9f844719a346de2c6aef5bbc537b4bdc232002358cc27fc37",
    "entry_004.svg": "414a4617916c4c4c4b51f4a03424fa9793448892a6b07d0f0469336abec0782d",
    "entry_005.svg": "213a17dda00f86542128809493fbba7c1a34e4cb82a71a681d6b423b95182f10",
    "entry_006.svg": "18aaa1b9cfeb83f247a9153ba315c00bbb4463b6a0dc2e1bcd8c8cdd9b41c2a5",
    "entry_007.svg": "ada05ba702cfef9bed0a0a2b4c63aa331879c619eca4800c00d34ff515ccd295",
    "entry_008.svg": "ae8d3a7c5ba4a2b4d3618df24312712a9482b79f84054b354e45d44003010273",
    "entry_009.svg": "c7569a142295a7bc3414e71be0401e9ac7f6502d47a174357f346451000ac86f",
    "entry_010.svg": "0f33350925faa7ea33a4668505210b1e797f57afb33d5b1c0ea87e0a4477606f",
    "entry_011.svg": "edaf388fb795ce0898fda369bca028c611140981efb94fd9b48918abc61de76c",
    "entry_012.svg": "edd82c23ba3d22d1f5590e164ca69bca0a8a53761fac0cfd461be785b6a8b09c",
    "entry_013.svg": "e3449a8a095ae1648a27b478def0c4ccc94faf7e15acde3fbae930667035ad21",
    "entry_014.svg": "69f3c2b2719cba4a657e2b8c18b7928e3cf7dc7da1ae981eee4f54271183b4c2",
    "entry_015.svg": "553720e9e9a18f6d3eddf8fcbe01212761a1d9a3e994c8a27b153e306a4a57f1",
    "entry_016.svg": "58eb4240898d8c0c52be8dcd5d012bf8c966bcf09649ce9a7affdaf04eeba2fc",
    "entry_017.svg": "eb51e62cc84d5fa07e7d5c92855867d7305e289a7946fa39b927d820946512fa",
    "front.json": "be6c44bfb3f8c3a7e052adb66447c610e4649c5cd39f70a08f56f2a6d18fb47f",
    "front.svg": "497eed7494ab7a55701f3b276524e67386790317410fe8820086da6d0eb54339",
}
MUSEUM_RRT_FILES = {
    "rrt.json": "09f51171c4a3f9c5bad86c6a665cbe7aa37fbae865cbd9ab2e2dc5552cca5835",
}
# --max-iterations 40: every run fails
MUSEUM_RRT_FAILURE_FILES = {
    "rrt.json": "bc03217a7e7a584ee974a674f315e8bacf7a7d8c0f07941f1490181ddd15f994",
}


def _write_museum_map(directory) -> str:
    (directory / "museum.json").write_bytes(
        resources.files("pnav.data").joinpath("museum.json").read_bytes())
    return "museum.json"  # front.json records the --map text


def _file_digests(directory) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def test_museum_plan_svg_file_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["plan", "--map", _write_museum_map(tmp_path), "--start", "3.5,3.5,0",
                 "--goal", "18.5,3.5", "--delta", "1.0", "--rho", "0.3", "--r", "2.0",
                 "--out", "out", "--svg"]) == 0
    assert _file_digests(tmp_path / "out") == MUSEUM_PLAN_FILES


def test_museum_rrt_file_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["rrt", "--map", _write_museum_map(tmp_path), "--start", "3.5,3.5",
                 "--goal", "18.5,3.5", "--n", "20", "--seed", "0", "--rho", "0.3",
                 "--r", "2.0", "--out", "out"]) == 0
    assert _file_digests(tmp_path / "out") == MUSEUM_RRT_FILES


def test_museum_rrt_failure_file_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["rrt", "--map", _write_museum_map(tmp_path), "--start", "3.5,3.5",
                 "--goal", "18.5,3.5", "--n", "20", "--seed", "77", "--max-iterations", "40",
                 "--rho", "0.3", "--r", "2.0", "--out", "out"]) == 2
    assert _file_digests(tmp_path / "out") == MUSEUM_RRT_FAILURE_FILES
