"""Deterministic SVG rendering of maps and trajectories.

Output is plain string assembly so identical inputs give byte-identical
files: obstacle cells as filled squares, each trajectory a polyline with
markers at rotation poses, and a legend row per trajectory.

svg_layers formats what does not depend on the document once: the obstacle
rects, and each trajectory's polyline points (each distinct coordinate of
all the trajectories once) and marker positions.  pnav plan makes one call
for its front and passes the layers to render_svg as layers= for every
entry's SVG and for front.svg; the colour, the markers' text and the legend
are written per document.  Without layers=, render_svg builds them itself.
"""

from __future__ import annotations

import numpy as np

from .gridmap import WorkspaceMap
from .trajectory import TimedTrajectory, distinct_texts, heading_change_runs

PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf")

_SCALE = 24.0  # px per meter
_LEGEND_ROW = 18
_MARGIN = 10


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _fill(template: str, xy: np.ndarray, sep: str) -> str:
    """template % (x, y) for each row (x, y) of xy, joined by sep; the
    template's %.3f writes a float as _fmt does."""
    return sep.join([template] * len(xy)) % tuple(xy.ravel().tolist())


def rotation_points(timed: TimedTrajectory) -> list[tuple[float, float]]:
    """Positions of zero-displacement heading-change spans in the samples."""
    s = timed.samples
    if len(s) < 2:
        return []
    moved = np.hypot(np.diff(s[:, 1]), np.diff(s[:, 2])) > 1e-9
    points = []
    for start, stop in heading_change_runs(s[:, 3]):
        first = np.flatnonzero(~moved[start:stop])  # the run's first still interval
        if len(first):
            i = start + int(first[0])
            points.append((float(s[i, 1]), float(s[i, 2])))
    return points


def svg_layers(wmap: WorkspaceMap, timeds: list[TimedTrajectory]) -> tuple[str, list]:
    """The parts of render_svg's documents that do not depend on which
    document they are in: the obstacle rects as one text ("" for none), and
    for each trajectory its polyline points text and its (k, 2) rotation
    marker screen positions.  Every document of a plan shares them."""
    xmin, _, _, ymax = wmap.world_bounds

    def screen(x, y) -> np.ndarray:
        """(n, 2) screen coordinates of world points (x[i], y[i])."""
        return np.column_stack([_MARGIN + (x - xmin) * _SCALE,
                                _MARGIN + (ymax - y) * _SCALE])  # world y up, svg y down

    cell = wmap.resolution * _SCALE
    iy, ix = np.nonzero(wmap.occupancy)  # row-major: by iy, then ix
    rects = ""
    if len(ix):
        ox, oy = wmap.origin
        corners = screen(ox + (ix + 0.5) * wmap.resolution,
                          oy + (iy + 0.5) * wmap.resolution) - cell / 2
        rects = _fill(f'<rect x="%.3f" y="%.3f" width="{_fmt(cell)}" '
                      f'height="{_fmt(cell)}" fill="#444444"/>', corners, "\n")
    # the tracks of a front share most of their points: each distinct
    # coordinate is formatted once
    xy = np.concatenate([timed.samples[:, 1:3] for timed in timeds] or [np.empty((0, 2))])
    texts = distinct_texts(screen(xy[:, 0], xy[:, 1]), _fmt)
    tracks, at = [], 0
    for timed in timeds:
        n = len(timed.samples)
        markers = np.array(rotation_points(timed), dtype=float).reshape(-1, 2)
        tracks.append((" ".join(["%s,%s"] * n) % texts[at:at + 2 * n],
                       screen(markers[:, 0], markers[:, 1])))
        at += 2 * n
    return rects, tracks


def render_svg(wmap: WorkspaceMap, trajectories: list[tuple[str, TimedTrajectory]],
               layers: tuple[str, list] | None = None) -> str:
    """Render the map with any number of labeled trajectories.  layers, when
    given, is the rects of svg_layers(wmap, timeds) and the tracks of these
    trajectories, in order: pnav plan renders each entry with its own track
    and the front with all of them, from one svg_layers call."""
    if layers is None:
        layers = svg_layers(wmap, [timed for _, timed in trajectories])
    rects, tracks = layers
    xmin, ymin, xmax, ymax = wmap.world_bounds
    w_px = (xmax - xmin) * _SCALE + 2 * _MARGIN
    h_px = (ymax - ymin) * _SCALE + 2 * _MARGIN
    legend_h = _LEGEND_ROW * len(trajectories) + (10 if trajectories else 0)

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
               f'width="{_fmt(w_px)}" height="{_fmt(h_px + legend_h)}" '
               f'viewBox="0 0 {_fmt(w_px)} {_fmt(h_px + legend_h)}">')
    out.append(f'<rect x="0" y="0" width="{_fmt(w_px)}" '
               f'height="{_fmt(h_px + legend_h)}" fill="#ffffff"/>')
    if rects:
        out.append(rects)

    for i, ((label, _), (pts, markers)) in enumerate(zip(trajectories, tracks, strict=True)):
        color = PALETTE[i % len(PALETTE)]
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="2"/>')
        if len(markers):
            out.append(_fill(f'<circle cx="%.3f" cy="%.3f" r="4" fill="none" stroke="{color}" '
                             f'stroke-width="1.5"/>', markers, "\n"))
        ly = h_px + _LEGEND_ROW * (i + 1) - 4
        out.append(f'<rect x="{_fmt(float(_MARGIN))}" y="{_fmt(ly - 9)}" '
                   f'width="12" height="12" fill="{color}"/>')
        # xml.sax.saxutils.escape, without its import of urllib.request and ssl
        text = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="{_fmt(_MARGIN + 18.0)}" y="{_fmt(ly)}" '
                   f'font-family="monospace" font-size="12">{text}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
