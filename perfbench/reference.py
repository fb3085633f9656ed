"""The host-speed reference: fixed work timed around every repetition.

The shared machine the benchmark runs on changes speed by up to 1.5x in
phases that last minutes, so repetitions inside one run cannot average
the phase out, and two runs of identical code minutes apart differ by
more than any useful bound.  The reference kernel is timed in the
parent process right before each repetition's child starts and right
after it exits; ``wall_ref`` is the repetition's wall time divided by
the median of those samples: the workload's time in units of the
reference, which cancels the host's speed of the moment.

The kernel is a plain interpreter loop: it reads one element of an
int64 array 600 000 times and sums the values, allocating an int per
read.  Timed the same way around fig12-1c and crash-campaign
repetitions, it tracked their phases better than a
dictionary-and-arithmetic kernel, an allocation-heavy one or a small
cache model did (see README.md).  It is part of the benchmark, not of
the simulator, so no change to the simulator can move it; compare
commits only with the same kernel.
"""

from __future__ import annotations

import array
import time
from typing import List

#: Loop iterations per kernel call (about 30 ms on the machine measured).
READS = 600_000
#: Kernel calls per bracket; a bracket's value is their median.
SAMPLES = 7


class Reference:
    """Builds the kernel's inputs once; :meth:`samples` times it."""

    def __init__(self) -> None:
        # Above 256, so every read allocates a new int object.
        self._data = array.array("q", [2_000_003])
        self._index = [0] * READS
        self._kernel()  # warm-up, untimed

    def _kernel(self) -> int:
        data = self._data
        total = 0
        for i in self._index:
            total += data[i]
        return total

    def samples(self) -> List[float]:
        """Seconds of each of SAMPLES kernel calls."""
        out = []
        for _ in range(SAMPLES):
            start = time.perf_counter()
            self._kernel()
            out.append(time.perf_counter() - start)
        return out
