"""Machine-speed calibration of every reported time.

The speed of this kind of shared machine drifts by ±20% over seconds to
minutes, for a fixed pure-Python loop as much as for the analysis, so
raw wall-clock medians of two runs of the same code differ by more than
any useful bound. Every reported time is therefore calibrated: a fixed
probe is timed right before and right after each timed step, and the
step's wall time is scaled by PROBE_NOMINAL / (mean probe time). A
calibrated time reads as the wall time on a machine where the probe
takes PROBE_NOMINAL seconds; changes to the program move it exactly as
they move wall time.

Standard library only: the set-up measurement times its own imports.
"""

import statistics
import time
from typing import Dict

#: Nominal probe time, about the median on a 2-core container.
PROBE_NOMINAL = 0.004


def probe() -> float:
    """Wall time of a fixed dict-and-integer loop: the median of three
    passes (~2 ms each) doubled, so one disturbed pass does not count."""
    passes = []
    for _ in range(3):
        start = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(10000):
            table[i % 1000] = table.get(i % 1000, 0) + i
        passes.append(time.perf_counter() - start)
    return 2 * statistics.median(passes)


def calibrated(seconds: float, *probes: float) -> float:
    return seconds * PROBE_NOMINAL * len(probes) / sum(probes)
