"""Machine-speed probe: scales wall times to a reference-speed core.

A shared host's cores change speed by a third within seconds, more than any
bound a regression check could use. ``speed_probe`` is a fixed mix of CSV
parsing and small numpy work, the program's two kinds of work, that never
calls probevolume. It runs after every timed request, and the request's wall
time is scaled by ``PROBE_REF_S`` over the probe times measured beside it.
The machine's drift moves both and largely cancels; a change to the program
moves only the request and shows in full.
"""

from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np

PROBE_REF_S = 1e-3  # a reference-speed core runs speed_probe in 1 ms
PROBE_WINDOW = 4  # probes on each side of a call that set its scale
_PROBE_ARRAY = np.random.default_rng(0).random(4096)
_PROBE_CSV = "\n".join(f"{i * 1.37:.3f},{10 + i % 17 * 0.61:.2f},jul" for i in range(800))


def speed_probe() -> float:
    """Seconds taken to parse a small CSV text and to run small numpy array work."""
    start = time.perf_counter()
    rows = [(float(r[0]), float(r[1]), r[2]) for r in csv.reader(io.StringIO(_PROBE_CSV))]
    rows.sort(key=lambda r: r[1])
    for _ in range(5):
        y = np.sort(np.sin(_PROBE_ARRAY) * 3.0)
        np.fft.rfft(y)
        np.cumsum(y)
    return time.perf_counter() - start


def reference_times(walls: list[float], probes: list[float]) -> list[float]:
    """Each wall time over the median of the nine probe times nearest it, times PROBE_REF_S.

    ``probes[i]`` ran right after the call timed as ``walls[i]``.
    """
    return [
        wall * PROBE_REF_S
        / statistics.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
        for i, wall in enumerate(walls)
    ]
