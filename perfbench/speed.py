"""Host-speed reference: a fixed pure-Python kernel timed between requests.

The shared host the benchmark was tuned on changes speed by 1.3-2x over
seconds to minutes: its two vCPUs behave like two hyperthreads of one core,
and what runs on the sibling (another tenant, or any other process) slows
the benchmark's own.  CPU time follows wall time there, so the cause is
slower execution, not descheduling.  Such a shift moves every wall time of a
run together, and a set of ten runs that straddles one spreads further than
any bound a regression gate can use.

So a run times `kernel`, a fixed piece of work that never changes with the
package, at request boundaries, at most every SAMPLE_EVERY_S and so before
and after every request longer than that.  Each request's wall time is
scaled by REFERENCE_S over the median kernel time within WINDOW_S of its
start: it is reported as it would read on a host where the kernel takes
REFERENCE_S.  The package's slowdown and the kernel's are close but not
equal, so the scaled figures still spread; see README.md for measurements.
"""

from __future__ import annotations

import bisect
import time
from typing import List, Tuple

from common import median

# Kernel time that defines "reference speed": about its median on the 2-core
# shared VM the benchmark was tuned on.  A constant, so two commits measured
# with the same benchmark scale by the same rule.
REFERENCE_S = 0.02
# Sample the kernel at most this often, at request boundaries.
SAMPLE_EVERY_S = 0.5
# A request is scaled by the kernel times within this many seconds of its
# start: wide enough that a burst of a few milliseconds on the sibling vCPU
# does not set its factor, narrow enough to follow the host's shifts.
WINDOW_S = 5.0
# Length of the list the kernel sorts.
KERNEL_N = 50000


def kernel(values: List[int], work: List[int]) -> int:
    """Sort and scan `values` three times, in the scratch list `work`."""
    total = 0
    for _ in range(3):
        work[:] = values
        work.sort()
        for i in range(0, len(values), 3):
            total += work[i] - values[i]
    return total


class HostSpeed:
    """Kernel times taken during one run, each with the clock reading it ended at."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        # The kernel's data is built once, so a call allocates nothing large:
        # memory the kernel returned to the system would cost page faults on
        # the next call, and their cost on a VM is not the CPU speed the
        # kernel is there to see.  It is kept small because a child started
        # by vfork reports the parent's peak resident set as its own.
        self._values = [(i * 7919) % 100003 for i in range(KERNEL_N)]
        self._work = list(self._values)

    def sample(self) -> None:
        start = time.perf_counter()
        kernel(self._values, self._work)
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S:
            self.sample()

    def scale_at(self, start: float) -> float:
        """Factor to reference speed for a request that started at `start`."""
        ends = [end for end, _ in self.samples]
        lo = bisect.bisect_left(ends, start - WINDOW_S)
        hi = bisect.bisect_right(ends, start + WINDOW_S)
        near = [seconds for _, seconds in self.samples[lo:hi]]
        if not near:
            nearest = min(self.samples, key=lambda sample: abs(sample[0] - start))
            near = [nearest[1]]
        return REFERENCE_S / median(near)
