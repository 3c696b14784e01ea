"""A fixed reference computation that measures how fast the host runs now.

On a shared host the speed of interpreted Python swings by a quarter or more
in phases of seconds to minutes, so the median wall time of a query moves
from run to run even when the program does not.  The worker times this
computation after set-up and after every query; a set-up's or a query's wall
time divided by the reference time next to it is its cost in host-speed
units, and that ratio moves much less than the wall time when the host
changes speed.

The computation mixes what pnav spends its time on: a Dijkstra search over
tuples, dicts and a heap; float arithmetic with math calls; small numpy
array operations; and JSON encoding.  It does not import pnav, so it stays
the same when the program changes.
"""

from __future__ import annotations

import heapq
import json
import math
import time

import numpy as np

_N = 80             # the search runs on an _N x _N 8-connected grid
_SAMPLES = 2000     # length of the numpy and JSON sample arrays
_MOVES = [(dx, dy, math.hypot(dx, dy)) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
          if dx or dy]


def _search() -> float:
    dist = {(0, 0): 0.0}
    heap = [(0.0, (0, 0))]
    while heap:
        d, (x, y) = heapq.heappop(heap)
        if d > dist[(x, y)]:
            continue
        for dx, dy, step in _MOVES:
            q = (x + dx, y + dy)
            if 0 <= q[0] < _N and 0 <= q[1] < _N and (q[0] * 7 + q[1] * 3) % 11:
                nd = d + step * (1.0 + 0.1 * math.sin(q[0] * 0.3 + q[1]))
                if nd < dist.get(q, math.inf):
                    dist[q] = nd
                    heapq.heappush(heap, (nd, q))
    return dist[(_N - 1, _N - 1)]


def _arrays() -> float:
    t = np.linspace(0.0, 10.0, _SAMPLES)
    x, y = np.cos(t) * t, np.sin(t) * t
    total = 0.0
    for k in range(150):
        seg = np.hypot(np.diff(x[k:]), np.diff(y[k:]))
        total += float(np.sum(seg * (t[1 + k:] - t[k:-1])))
    return total


def _encode() -> int:
    rows = [{"t": i * 0.05, "x": math.cos(i * 0.01), "y": math.sin(i * 0.01),
             "theta": (i * 0.7) % 6.283} for i in range(_SAMPLES)]
    return len(json.dumps(rows, indent=1))


def reference() -> float:
    """Run the reference computation once; return its wall time in seconds."""
    t0 = time.perf_counter()
    _search()
    _arrays()
    _encode()
    return time.perf_counter() - t0
