"""Wall times rescaled to a reference machine speed.

On a shared virtual machine the same code runs up to twice as slow for
seconds to minutes at a time, and medians of plain wall times drift by
20-35% from run to run. A fixed loop timed right before and right after
each measured step tracks that drift, so every timing metric is
reported as

    wall seconds * NOMINAL_S / (mean of the two reference times)

that is, the wall time the step would take on a machine where the
reference loop takes ``NOMINAL_S``. The loop does not touch gdapred, so
a change to the program moves the metric and not the yardstick. The
plain wall-time medians are printed beside the metrics.
"""

from __future__ import annotations

import time

import numpy as np

#: reference-loop time on an idle core of a 2-vCPU x86-64 virtual machine
NOMINAL_S = 0.025

_TABLE = np.random.default_rng(0).random((256, 32))
_ROWS = np.random.default_rng(1).integers(0, 256, 64)


def reference_s() -> float:
    """Wall time of a fixed mix of interpreter work and small numpy calls,
    like the pipeline's inner loops."""
    table = _TABLE.copy()
    total = 0.0
    names: dict[str, float] = {}
    start = time.perf_counter()
    for i in range(4000):
        row = table[i % 256]
        total += float(row @ row)
        names[str(i % 97)] = total
        if i % 8 == 0:
            np.add.at(table, _ROWS, 1e-9)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * NOMINAL_S * 2.0 / (before + after)
