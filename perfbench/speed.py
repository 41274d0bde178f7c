"""Host-speed probe: turns host seconds into reference seconds.

The benchmark host is shared, and its speed drifts by up to 2x over tens
of seconds: a fixed pure-Python loop timed every 10 s swung between 67
and 103 ms, and one untouched rob-sweep pass took anywhere from 10.1 to
19.3 s.  Raw host seconds therefore cannot resolve a 25% regression.

:class:`SpeedProbe` samples the host's speed while a pass runs: a
``SIGALRM`` interval timer interrupts the process every ``INTERVAL``
seconds and times a fixed snippet of interpreter work (dict lookups and
small allocations, like the verifier's own hot loops).  A sample's speed
is ``REFERENCE_S`` over its duration, so speed 1.0 means the host runs the
snippet in ``REFERENCE_S``.  :class:`Clock` then converts any interval of
the pass into reference seconds: the host seconds the program itself used
(probe time taken out) times the mean sampled speed over the interval.
On the shared 2-vCPU host this cut the run-to-run spread of a rob-sweep
pass from about 11% to about 2%.

The probe runs in the same single thread as the program (Python runs
signal handlers between bytecodes) and touches no program state, so the
deterministic counts are unchanged.  The garbage collector is paused
while the snippet runs, so no collection the program's allocations
would trigger is billed to the probe.  The probe costs about 1.5% of a
pass, and it slows with the program's own cache pressure, so a change
that makes the program much more memory-bound shows somewhat damped.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from typing import List, Sequence, Tuple

__all__ = ["SpeedProbe", "Clock", "INTERVAL", "REFERENCE_S"]

#: seconds between probe samples.
INTERVAL = 0.01
#: snippet duration that counts as speed 1.0; about what the snippet takes
#: on the 2-vCPU benchmark host when no neighbour loads it.
REFERENCE_S = 130e-6


def _snippet() -> int:
    table = {}
    total = 0
    for i in range(300):
        key = (i & 63, i % 5)
        row = table.get(key)
        if row is None:
            row = table[key] = [i]
        else:
            row.append(i)
        total += len(row)
    return total


class SpeedProbe:
    """Samples host speed from a ``SIGALRM`` interval timer."""

    def __init__(self) -> None:
        #: (perf_counter at start, snippet seconds) per sample.
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        _snippet()
        self.samples.append((started, time.perf_counter() - started))
        if collecting:
            gc.enable()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Clock:
    """Reference-second conversion over one pass's probe samples."""

    def __init__(self, samples: Sequence[Sequence[float]]) -> None:
        if not samples:
            raise ValueError("the speed probe recorded no samples")
        ordered = sorted((float(t), float(d)) for t, d in samples)
        self.times = [t for t, _ in ordered]
        self.speed_sums = [0.0]
        self.probe_sums = [0.0]
        for _, duration in ordered:
            self.speed_sums.append(self.speed_sums[-1] + REFERENCE_S / duration)
            self.probe_sums.append(self.probe_sums[-1] + duration)
        self.mean_speed = self.speed_sums[-1] / len(ordered)

    def _window(self, t0: float, t1: float) -> Tuple[int, int]:
        return (bisect.bisect_left(self.times, t0),
                bisect.bisect_right(self.times, t1))

    def speed(self, t0: float, t1: float) -> float:
        """Mean sampled speed over ``[t0, t1]``; for an interval too short
        to hold a sample, the speed of the nearest samples."""
        lo, hi = self._window(t0, t1)
        if hi == lo:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return (self.speed_sums[hi] - self.speed_sums[lo]) / (hi - lo)

    def probe_seconds(self, t0: float, t1: float) -> float:
        lo, hi = self._window(t0, t1)
        return self.probe_sums[hi] - self.probe_sums[lo]

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds the program used in ``[t0, t1]``."""
        return (t1 - t0 - self.probe_seconds(t0, t1)) * self.speed(t0, t1)
