import json
from pathlib import Path

import numpy as np
import pytest

import pnav
from pnav.cli import main
from pnav.fixtures import museum_map
from pnav.gridmap import WorkspaceMap, load_map
from pnav.render import (_MARGIN, _SCALE, _LEGEND_ROW, PALETTE, render_svg, rotation_points,
                         svg_layers)
from pnav.trajectory import TimedTrajectory, timed_from_json

from conftest import dump_map, free_map

MUSEUM = Path(pnav.__file__).parent / "data" / "museum.json"


def _fmt(x: float) -> str:
    return f"{x:.3f}"


# render_svg as it was when it formatted one point at a time, kept verbatim
# (renamed) as the oracle of the array version.

def _former_render_svg(wmap: WorkspaceMap,
                       trajectories: list[tuple[str, TimedTrajectory]]) -> str:
    """Render the map with any number of labeled trajectories."""
    xmin, ymin, xmax, ymax = wmap.world_bounds
    w_px = (xmax - xmin) * _SCALE + 2 * _MARGIN
    h_px = (ymax - ymin) * _SCALE + 2 * _MARGIN
    legend_h = _LEGEND_ROW * len(trajectories) + (10 if trajectories else 0)

    def sx(x: float) -> float:
        return _MARGIN + (x - xmin) * _SCALE

    def sy(y: float) -> float:
        return _MARGIN + (ymax - y) * _SCALE  # world y up, svg y down

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
               f'width="{_fmt(w_px)}" height="{_fmt(h_px + legend_h)}" '
               f'viewBox="0 0 {_fmt(w_px)} {_fmt(h_px + legend_h)}">')
    out.append(f'<rect x="0" y="0" width="{_fmt(w_px)}" '
               f'height="{_fmt(h_px + legend_h)}" fill="#ffffff"/>')

    cell = wmap.resolution * _SCALE
    for iy in range(wmap.height):
        for ix in range(wmap.width):
            if wmap.occupancy[iy, ix]:
                cx = wmap.origin[0] + (ix + 0.5) * wmap.resolution
                cy = wmap.origin[1] + (iy + 0.5) * wmap.resolution
                out.append(f'<rect x="{_fmt(sx(cx) - cell / 2)}" '
                           f'y="{_fmt(sy(cy) - cell / 2)}" '
                           f'width="{_fmt(cell)}" height="{_fmt(cell)}" '
                           f'fill="#444444"/>')

    for i, (label, timed) in enumerate(trajectories):
        color = PALETTE[i % len(PALETTE)]
        s = timed.samples
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(s[:, 1], s[:, 2]))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="2"/>')
        for (rx, ry) in rotation_points(timed):
            out.append(f'<circle cx="{_fmt(sx(rx))}" cy="{_fmt(sy(ry))}" r="4" '
                       f'fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = h_px + _LEGEND_ROW * (i + 1) - 4
        out.append(f'<rect x="{_fmt(float(_MARGIN))}" y="{_fmt(ly - 9)}" '
                   f'width="12" height="12" fill="{color}"/>')
        out.append(f'<text x="{_fmt(_MARGIN + 18.0)}" y="{_fmt(ly)}" '
                   f'font-family="monospace" font-size="12">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def random_trajectory(rng, n: int) -> TimedTrajectory:
    """n samples (t, x, y, heading); headings held for three samples, and a
    repeated position, so that rotation markers appear."""
    s = np.column_stack([np.arange(n) * 0.1,
                         rng.uniform(-60, 60, n), rng.uniform(-60, 60, n),
                         np.repeat(rng.uniform(-180, 180, n // 3 + 1), 3)[:n]])
    if n > 3:
        s[3, 1:3] = s[2, 1:3]
    return TimedTrajectory(s, 1.0, 90.0, 0.1)


@pytest.mark.parametrize("seed", range(6))
def test_same_bytes_as_the_former_renderer(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        w, h = rng.integers(1, 15, 2).tolist()
        origin = tuple(rng.uniform(-50, 50, 2).tolist())
        occ = rng.random((h, w)) < rng.random()
        resolution = float(rng.choice([0.1, 0.3, 0.37, 0.5, 1.0]))
        wmap = WorkspaceMap(w, h, resolution, origin, occ)
        trajectories = [(f"t{k}", random_trajectory(rng, int(rng.integers(0, 30))))
                        for k in range(int(rng.integers(0, 4)))]
        assert render_svg(wmap, trajectories) == _former_render_svg(wmap, trajectories)


def test_museum_map_without_trajectories():
    assert render_svg(museum_map(), []) == _former_render_svg(museum_map(), [])


# -- the layers one plan shares between its documents ---------------------------


def straight_trajectory(n: int) -> TimedTrajectory:
    """n samples along x at one heading: no rotation, so no markers."""
    s = np.column_stack([np.arange(n) * 0.1, np.linspace(0.5, 4.5, n),
                         np.full(n, 1.5), np.zeros(n)])
    return TimedTrajectory(s, 1.0, 90.0, 0.1)


@pytest.mark.parametrize("wmap", [museum_map(), WorkspaceMap(6, 4, 1.0, (0.0, 0.0),
                                                             np.zeros((4, 6), bool))],
                         ids=["museum", "no-obstacles"])
def test_documents_from_shared_layers(wmap):
    # ten tracks, so the palette wraps; every other one has no rotation
    rng = np.random.default_rng(7)
    trajectories = [(f"t{k}", straight_trajectory(12) if k % 2 else random_trajectory(rng, 20))
                    for k in range(10)]
    rects, tracks = svg_layers(wmap, [timed for _, timed in trajectories])
    assert (rects == "") == (not wmap.occupancy.any())
    assert {len(markers) > 0 for _, markers in tracks} == {True, False}
    for i, entry in enumerate(trajectories):
        assert (render_svg(wmap, [entry], (rects, tracks[i:i + 1]))
                == _former_render_svg(wmap, [entry]))
    assert render_svg(wmap, trajectories, (rects, tracks)) == _former_render_svg(wmap, trajectories)


@pytest.mark.parametrize("map_text, start, goal, entries", [
    (MUSEUM.read_text(), "3.5,3.5,0", "18.5,3.5", 18),
    (dump_map(free_map(8, 4)), "0.5,1.5,0", "6.5,1.5", 1),  # no obstacle, no turn
], ids=["museum", "straight-on-free-map"])
def test_plan_svgs_equal_the_former_renderer(tmp_path, map_text, start, goal, entries):
    """pnav plan --svg renders every entry's SVG and front.svg from one
    svg_layers call; each file must equal the former renderer's document of
    the entries read back from front.json."""
    (tmp_path / "map.json").write_text(map_text)
    out = tmp_path / "out"
    assert main(["plan", "--map", str(tmp_path / "map.json"), "--start", start,
                 "--goal", goal, "--delta", "1.0", "--rho", "0.3", "--r", "2.0",
                 "--svg", "--out", str(out)]) == 0
    wmap = load_map(map_text)
    front = json.loads((out / "front.json").read_text())["entries"]
    rendered = [(f"#{i} V={e['report']['V']:.4f} N={e['report']['N']} "
                 f"D={e['report']['D']:.3f}", timed_from_json(e["trajectory"]))
                for i, e in enumerate(front)]
    assert len(rendered) == entries > 0
    for i, entry in enumerate(rendered):
        assert (out / f"entry_{i:03d}.svg").read_text() == _former_render_svg(wmap, [entry])
    assert (out / "front.svg").read_text() == _former_render_svg(wmap, rendered)
