"""Constant-speed time parameterization and cost evaluation of trajectories.

A piecewise-linear path with rotations in place becomes a SegmentPath
(a chain of Rotate / Translate spans), then a TimedTrajectory sampled on a
uniform tick.  Lattice node paths and RRT polylines alike are first listed
as (point, heading) poses, which one walk turns into segments.
Evaluation produces the (V, N, D) report: time-averaged obstruction,
rotation count and traveled distance, plus the duration.

dump_json writes every JSON document pnav writes, splicing in JsonText
values verbatim; timed_to_json writes the trajectory document through it.
Its "samples" list text comes from sample_blocks, which formats the samples
of several trajectories together, each distinct float once: pnav plan makes
one call for its whole front and hands each entry's block to timed_to_json
as samples=, and a call without samples= formats its trajectory alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .gridmap import WorkspaceMap, obstruction_ratios
from .lattice import HEADING_STEP, node_position
from .rrt import PolyPath
from .validate import finite_number, json_object

HEADING_EPS_DEG = 1e-9
# Most samples one timed trajectory may hold; a museum plan entry has about
# 500 at the default tick, so only a degenerate dt reaches it.
MAX_SAMPLES = 1_000_000


class TrajectoryError(ValueError):
    pass


def wrap_deg(angle: float) -> float:
    return angle % 360.0


def signed_arc_deg(from_heading: float, to_heading: float) -> float:
    """Shorter rotation arc in degrees; 180-degree ties resolve counterclockwise."""
    d = (to_heading - from_heading) % 360.0
    if d > 180.0:
        d -= 360.0
    return d


@dataclass(frozen=True)
class Rotate:
    point: tuple[float, float]
    from_heading: float
    to_heading: float
    arc: float  # signed degrees, counterclockwise positive


@dataclass(frozen=True)
class Translate:
    p0: tuple[float, float]
    p1: tuple[float, float]
    heading: float

    @property
    def length(self) -> float:
        return math.hypot(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1])


@dataclass(frozen=True)
class SegmentPath:
    """Chained Rotate/Translate segments starting from an initial pose."""

    start: tuple[float, float]
    start_heading: float
    segments: tuple


def to_segment_path(path, wmap: WorkspaceMap | None = None,
                    delta: float | None = None) -> SegmentPath:
    """Convert a lattice node path (needs wmap and delta) or a PolyPath.

    Either becomes a list of (point, heading) poses, and one walk turns two
    poses at one point into a Rotate by the shorter arc and a run of moves
    at one heading into a single Translate.  A lattice node gives its
    position and heading.  A polyline vertex gives the heading of its
    straight run, then, where the next segment turns from it by more than
    HEADING_EPS_DEG, a pose turned to that segment.

    A lattice step that changes position must move one HEADING_STEP of its
    node's heading and keep that heading; any other raises TrajectoryError.
    """
    if isinstance(path, PolyPath):
        verts = path.vertices
        headings = [wrap_deg(math.degrees(math.atan2(b[1] - a[1], b[0] - a[0])))
                    for a, b in zip(verts, verts[1:])] or [0.0]
        poses = [(verts[0], headings[0])]
        for v, h in zip(verts[1:], headings):
            if abs(signed_arc_deg(poses[-1][1], h)) > HEADING_EPS_DEG:
                poses.append((poses[-1][0], h))
            poses.append((v, poses[-1][1]))
    elif not path:
        raise TrajectoryError("empty path")
    elif wmap is None or delta is None:
        raise TrajectoryError("lattice paths need wmap and delta")
    else:
        for i, (a, b) in enumerate(zip(path, path[1:])):
            move = (b.ix - a.ix, b.iy - a.iy)
            if move != (0, 0) and (move, b.heading) != (HEADING_STEP[a.heading], a.heading):
                raise TrajectoryError(f"step {i} of the path, {a} to {b}, "
                                      "is not a lattice edge")
        poses = [(node_position(n, wmap, delta), n.heading) for n in path]
    segments = []  # a straight run is a [p0, p1, heading] list until the end
    for (p, h), (q, k) in zip(poses, poses[1:]):
        if p == q:
            segments.append(Rotate(p, float(h), float(k), signed_arc_deg(h, k)))
        elif segments and isinstance(segments[-1], list) and segments[-1][2] == k:
            segments[-1][1] = q
        else:
            segments.append([p, q, float(h)])
    return SegmentPath(poses[0][0], float(poses[0][1]),
                       tuple(Translate(*s) if isinstance(s, list) else s for s in segments))


@dataclass(frozen=True)
class TimedTrajectory:
    """Uniformly ticked samples (t, x, y, theta_deg); final sample lands on T."""

    samples: np.ndarray  # shape (n, 4)
    v: float
    omega_deg: float
    dt: float

    @property
    def duration(self) -> float:
        return float(self.samples[-1, 0])


def to_timed(spath: SegmentPath, v: float = 1.0, omega_deg: float = 90.0,
             dt: float = 0.05) -> TimedTrajectory:
    """Sample the path executed at constant speed v with in-place rotations at
    constant rate omega_deg."""
    for value, name in ((v, "v"), (omega_deg, "omega_deg"), (dt, "dt")):
        finite_number(value, name, positive=True, error=TrajectoryError)

    # per segment: its end time, whether it translates, and its x, y and
    # heading at frac 0 with their change over the whole segment
    ends, moves, base, change = [0.0], [], [], []
    t = 0.0
    for seg in spath.segments:
        if isinstance(seg, Translate):
            t += seg.length / v
            base.append((seg.p0[0], seg.p0[1], seg.heading))
            change.append((seg.p1[0] - seg.p0[0], seg.p1[1] - seg.p0[1], 0.0))
        else:
            t += abs(seg.arc) / omega_deg
            base.append((seg.point[0], seg.point[1], seg.from_heading))
            change.append((0.0, 0.0, seg.arc))
        ends.append(t)
        moves.append(isinstance(seg, Translate))
    total = t
    if total / dt > MAX_SAMPLES:  # checked before any tick is built
        raise TrajectoryError(f"dt {dt!r} gives more than {MAX_SAMPLES} samples "
                              f"over the {total:.6g} s trajectory "
                              f"(v {v!r}, omega_deg {omega_deg!r})")
    if not moves:  # a path with no segments stands at its start pose
        ends.append(0.0)
        moves.append(False)
        base.append((spath.start[0], spath.start[1], spath.start_heading))
        change.append((0.0, 0.0, 0.0))

    # ticks k * dt for k < n, n the least count >= 1 with n * dt >= total - 1e-12,
    # then the end time
    n = max(1, math.ceil((total - 1e-12) / dt))
    while n > 1 and (n - 1) * dt >= total - 1e-12:  # the quotient rounded up
        n -= 1
    while n * dt < total - 1e-12:  # or down
        n += 1
    times = np.arange(n) * dt
    if total > 0.0:
        times = np.append(times, total)

    # each tick's segment: the first that ends at or after it, else the last
    ends = np.array(ends)
    j = np.minimum(np.searchsorted(ends[1:], times), len(moves) - 1)
    t0, t1 = ends[j], ends[j + 1]
    still = t1 == t0
    frac = np.where(still, 0.0, (np.maximum(times, t0) - t0) / np.where(still, 1.0, t1 - t0))
    frac = np.minimum(np.maximum(frac, 0.0), 1.0)
    moving = np.array(moves)[j]
    (x, y, h), (dx, dy, arc) = (np.array(c, dtype=float)[j].T for c in (base, change))
    x = np.where(moving, x + frac * dx, x)
    y = np.where(moving, y + frac * dy, y)
    theta = np.where(moving, h, h + frac * arc) % 360.0
    return TimedTrajectory(np.column_stack((times, x, y, theta)), v, omega_deg, dt)


@dataclass(frozen=True)
class CostReport:
    """Trajectory criteria: time-averaged obstruction V, rotation count N,
    distance D, duration T."""

    V: float
    N: int
    D: float
    T: float

    def to_dict(self) -> dict:
        return {"V": self.V, "N": self.N, "D": self.D, "T": self.T}


def heading_change_runs(theta: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of sample intervals over which the heading changes, as
    half-open [start, stop) ranges of interval indices (interval i joins
    samples i and i + 1)."""
    d = (np.diff(theta) + 180.0) % 360.0 - 180.0
    changing = np.concatenate(([False], np.abs(d) > HEADING_EPS_DEG, [False]))
    edges = np.diff(changing.astype(np.int8))
    return list(zip(np.flatnonzero(edges == 1).tolist(),
                    np.flatnonzero(edges == -1).tolist()))


def eval_costs(timeds: list[TimedTrajectory], wmap: WorkspaceMap,
               r: float) -> list[CostReport]:
    """Evaluate (V, N, D) on each timed trajectory, in order.

    V: trapezoidal time integral of the obstruction ratio divided by T (the
    single-pose value when T = 0).  D: summed sample-to-sample displacement.
    N: maximal runs of sample intervals over which the heading changes
    (rotations in place show up as zero-displacement heading drift).

    The obstruction ratios come from one obstruction_ratios batch over the
    distinct sample positions of all the trajectories (rotations in place
    and shared prefixes repeat positions).  A point's ratio does not depend
    on its batch, so a trajectory's report is the same alone or with others.
    """
    if not timeds:
        return []
    xy = np.concatenate([t.samples[:, 1:3] for t in timeds], dtype=np.float64)  # C-contiguous
    # each (x, y) row viewed as one complex number, far cheaper to sort than
    # rows; -0.0 and 0.0 compare equal there, which is harmless: they give
    # the same ratio, as obstruction_ratios only adds, subtracts and compares
    # coordinates, where the two agree
    unique, inverse = np.unique(xy.view(np.complex128).ravel(), return_inverse=True)
    phis = obstruction_ratios(wmap, unique.view(np.float64).reshape(-1, 2), r)[inverse]

    reports = []
    splits = np.cumsum([len(t.samples) for t in timeds])[:-1]
    for timed, phi in zip(timeds, np.split(phis, splits)):
        s = timed.samples
        t, x, y, theta = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
        T = float(t[-1])
        if len(s) == 1 or T == 0.0:
            reports.append(CostReport(V=float(phi[0]), N=0, D=0.0, T=T))
            continue
        V = float(np.sum(np.diff(t) * (phi[1:] + phi[:-1]) / 2.0) / T)
        with np.errstate(over="ignore"):  # inf past the float range
            D = float(np.sum(np.hypot(np.diff(x), np.diff(y))))
        reports.append(CostReport(V=V, N=len(heading_change_runs(theta)), D=D, T=T))
    return reports


# -- JSON output -----------------------------------------------------------------


class JsonText(str):
    """JSON text that dump_json splices into its output verbatim.  It holds
    the indentation of the slot it fills: every line after the first carries
    the indent of the value's depth in the document."""


# stands for each JsonText in the document dump_json dumps; a plain string
# equal to it would be taken for a slot, which the slot count catches
_SLOT = "\0"


def _slotted(obj, texts: list):
    """obj with _SLOT for each JsonText, which goes to texts in the order of
    the sorted dump."""
    if isinstance(obj, JsonText):
        texts.append(obj)
        return _SLOT
    if isinstance(obj, dict):
        return {k: _slotted(v, texts) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_slotted(v, texts) for v in obj]
    return obj


def dump_json(doc) -> str:
    """json.dumps(doc, indent=1, sort_keys=True, allow_nan=False), with each
    JsonText value spliced in verbatim where the dump holds a placeholder
    string for it."""
    texts = []
    parts = json.dumps(_slotted(doc, texts), indent=1, sort_keys=True,
                       allow_nan=False).split(json.dumps(_SLOT))
    if len(parts) != len(texts) + 1:
        raise RuntimeError(f"dump has {len(parts) - 1} text slots for {len(texts)} JSON texts")
    return "".join(part + text for part, text in zip(parts, texts + [""]))


# one sample of the "samples" list at indent=1, keys in sorted order, filled
# with the float.__repr__ text of t, theta_deg, x and y
_SAMPLE_JSON = '  {\n   "t": %s,\n   "theta_deg": %s,\n   "x": %s,\n   "y": %s\n  }'
_SAMPLE_KEYS = ("t", "x", "y", "theta_deg")  # column order of TimedTrajectory.samples


def distinct_texts(values: np.ndarray, fmt) -> tuple[str, ...]:
    """fmt(v) for each value v of values, read as float64, in flat order.
    fmt runs once per distinct bit pattern, so -0.0 and 0.0 each keep their
    own text."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    texts = np.array(list(map(fmt, bits.view(np.float64).tolist())), dtype=object)
    return tuple(texts[inverse.ravel()].tolist())


def sample_blocks(timeds: list[TimedTrajectory]) -> list[JsonText]:
    """The "samples" list text of each trajectory, as timed_to_json writes
    it: one fixed per-sample template over the samples' float.__repr__ text,
    which is what json writes for a finite float.  A non-finite sample
    raises TrajectoryError naming it (json would write NaN, which
    timed_from_json rejects).

    The trajectories of a front share most of their values (the tick column,
    positions and headings), so their columns are formatted together, each
    distinct value once.
    """
    cols = []
    for timed in timeds:
        s = timed.samples
        if not np.isfinite(s).all():
            i, k = np.argwhere(~np.isfinite(s))[0].tolist()
            raise TrajectoryError(f"'samples[{i}].{_SAMPLE_KEYS[k]}' must be a finite "
                                  f"number, not {float(s[i, k])!r}")
        cols.append(s[:, [0, 3, 1, 2]])  # t, theta_deg, x, y
    values = distinct_texts(np.concatenate(cols or [np.empty((0, 4))]), repr)
    blocks, at = [], 0
    for c in cols:
        n = len(c)
        if not n:
            blocks.append(JsonText("[]"))
            continue
        blocks.append(JsonText("[\n" + (",\n".join([_SAMPLE_JSON] * n)
                                        % values[at:at + 4 * n]) + "\n ]"))
        at += 4 * n
    return blocks


def timed_to_json(timed: TimedTrajectory, samples: JsonText | None = None,
                  **fields) -> str:
    """The trajectory document with any extra top-level fields, exactly the
    text of

        dump_json({"v": v, "omega_deg": omega_deg, "dt": dt,
                   "samples": [{"t": t, "x": x, "y": y, "theta_deg": th}, ...],
                   **fields})

    samples is timed's block from sample_blocks, which formats the
    trajectories of a front together; without it, timed_to_json formats
    timed's alone.
    """
    if samples is None:
        [samples] = sample_blocks([timed])
    return dump_json(dict(v=timed.v, omega_deg=timed.omega_deg, dt=timed.dt,
                          samples=samples, **fields))


def timed_from_json(text: str | dict) -> TimedTrajectory:
    """Parse and validate the trajectory JSON; errors name the bad field."""
    data = json_object(text, "trajectory document", ("v", "omega_deg", "dt", "samples"),
                       TrajectoryError)
    for key in ("v", "omega_deg", "dt"):
        finite_number(data[key], f"'{key}'", positive=True, error=TrajectoryError)
    samples = data["samples"]
    if not isinstance(samples, list) or not samples:
        raise TrajectoryError("'samples' must be a non-empty list")
    rows = np.empty((len(samples), 4), dtype=float)
    prev_t = -math.inf
    for i, rec in enumerate(samples):
        if not isinstance(rec, dict):
            raise TrajectoryError(f"'samples[{i}]' must be an object")
        for key in ("t", "x", "y", "theta_deg"):
            finite_number(rec.get(key), f"'samples[{i}].{key}'", error=TrajectoryError)
        if rec["t"] <= prev_t:
            raise TrajectoryError(f"'samples[{i}].t' must be strictly increasing")
        prev_t = rec["t"]
        rows[i] = (rec["t"], rec["x"], rec["y"], rec["theta_deg"])
    if rows[0, 0] != 0.0:
        raise TrajectoryError("'samples[0].t' must be 0")
    return TimedTrajectory(rows, float(data["v"]), float(data["omega_deg"]),
                           float(data["dt"]))
