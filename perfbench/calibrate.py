"""Host-speed calibration for the timed figures.

The benchmark's 2-vCPU host shares its cores with other machines, and
its single-thread speed drifts by up to 1.7x over minutes (per-batch
times of one unchanged matching loop moved between about 200 and 340 ms
in one 100-second sample).  A run that lands in a slow minute would read
as a regression that no code change made.

So every timed interval is taken beside a fixed probe: a short pure-Python
and numpy kernel that uses none of the program's code.  The interval is
scaled by ``REFERENCE_SECONDS`` over the median of the latest probe
times; the figures read as they would on this host when the probe takes
its reference time.  The raw wall-clock publish rate is printed beside
them.  Over 3-second windows the scaled work time varied about a third
as much as the raw time.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: The probe's duration on this host in a quiet minute.
REFERENCE_SECONDS = 0.0125

_KEYS = np.random.default_rng(2006).integers(0, 5000, 100_000)


def _python_part() -> int:
    table: dict = {}
    total = 0
    for i in range(10_000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        if i % 3 == 0:
            total += len(str(i))
    return total + len(sorted(table.items(), key=lambda item: item[1]))


def _numpy_part() -> int:
    counts = np.bincount(_KEYS, minlength=5000)
    order = np.argsort(_KEYS, kind="stable")
    return int(counts.max()) + int(order[0])


def probe() -> float:
    """Run the fixed kernel once; returns its wall-clock seconds."""
    start = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - start


class HostSpeed:
    """The current scale factor: the reference time over the median of the
    last ``SMOOTHING`` probes, so one jittery probe cannot swing it while
    drifts of a minute still show.  Probes run at most every ``interval``
    seconds (the caller decides when a probe cannot disturb the work it
    times)."""

    SMOOTHING = 5

    def __init__(self, interval: float = 0.25) -> None:
        self.interval = interval
        self.scale = 1.0
        self.scales: List[float] = []
        self._recent: List[float] = []
        self._last = -float("inf")

    def due(self) -> bool:
        return time.perf_counter() - self._last >= self.interval

    def refresh(self, probes: int = 1) -> float:
        """Probe now (``probes`` times); returns the factor that turns wall
        seconds into reference seconds."""
        for _ in range(probes):
            self._recent = (self._recent + [probe()])[-self.SMOOTHING:]
        self.scale = REFERENCE_SECONDS / statistics.median(self._recent)
        self.scales.append(self.scale)
        self._last = time.perf_counter()
        return self.scale
