"""Host speed, measured with a fixed reference loop.

On a shared 2-core VM the same pure-Python code ran up to twice as slow at
some times as at others, for seconds to minutes at a time, which swamped
differences between runs.  The benchmark therefore reports times in
reference seconds: wall seconds scaled by REF_NOMINAL_S over the time of a
fixed reference loop run on the same CPU at about the same moment.
REF_NOMINAL_S is a fixed scale; the loop took 1.2-2.6 ms on that VM
(CPython 3.11), depending on the host's load.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REF_ITERATIONS = 500
REF_NOMINAL_S = 0.0025
# a job's speed comes from loops run before, during (every SAMPLE_CPU_S of
# CPU time) and after it
SAMPLE_CPU_S = 0.1
ENDPOINT_SAMPLES = 3


def reference_loop() -> float:
    """Time a fixed pure-Python computation in the program's style (tuple
    keys, dict updates, Fraction sums); it never changes with the program.
    The collector is off meanwhile, so the size of the program's heap does
    not change the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        seen: dict[tuple[int, ...], int] = {}
        for i in range(REF_ITERATIONS):
            key = (i % 7, i % 11, i % 13)
            seen[key] = seen.get(key, 0) + 1
            acc += Fraction(i % 97, 101)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Samples the reference loop around a job and, on SIGVTALRM, during it.

    The time the samples taken during the job cost is kept in ``stolen`` so
    the caller can take it out of the job's time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0
        self.armed = False
        signal.signal(signal.SIGVTALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self.armed:
            start = time.perf_counter()
            self.samples.append(reference_loop())
            self.stolen += time.perf_counter() - start

    def arm(self) -> None:
        self.samples = [reference_loop() for _ in range(ENDPOINT_SAMPLES)]
        self.stolen = 0.0
        self.armed = True
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def speed(self) -> float:
        """Host speed over the job, 1.0 at the nominal reference time."""
        self.samples += [reference_loop() for _ in range(ENDPOINT_SAMPLES)]
        return REF_NOMINAL_S / statistics.mean(self.samples)
