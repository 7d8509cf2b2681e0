"""Machine-speed meter: a fixed kernel timed from a wall-clock timer signal.

The host the benchmark was built on is shared: with nothing else running in
the container, the same work can take 40-70% longer for seconds at a time,
and process CPU time grows with the wall time.  The meter times a fixed
pure-Python kernel every ``PERIOD_S`` of wall time, from a ``SIGALRM``
handler, so it samples the machine's speed during an op as well as between
ops.  No thread or process is started: the handler runs in the main thread
between bytecodes.

An op's time is then reported at nominal speed: its wall time less the time
spent in the probes, times ``NOMINAL_S`` over the mean probe time seen during
the op (or over the last ``WINDOW`` probes, for ops shorter than that).  A
change to the program does not change the kernel, so it still shows in full.
"""

from __future__ import annotations

import math
import signal
import time

# Mean time of one probe() on an Intel Xeon (2 vCPU, Python 3.11.7) when
# nothing else loads the host.
NOMINAL_S = 0.00036
# Wall-clock period of the timer that runs the probe.
PERIOD_S = 0.025
# Fewest probes an op's speed is averaged over.
WINDOW = 8


def probe() -> float:
    """Seconds a fixed pure-Python kernel takes."""
    started = time.perf_counter()
    acc: dict[int, float] = {}
    x = 0.0
    for k in range(2000):
        acc[k % 61] = acc.get(k % 61, 0.0) + k * 0.5
        x += math.sqrt(k)
    sorted(acc.items())
    return time.perf_counter() - started


class SpeedMeter:
    """Probes the machine every ``PERIOD_S`` while used as a context manager."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None):
        took = probe()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedMeter":
        for _ in range(WINDOW):
            self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        """Where the probe record stands; pass it to :meth:`scale` later."""
        return len(self.samples), self.spent

    def scale(self, elapsed: float, mark: tuple[int, float]) -> float:
        """``elapsed`` wall seconds since ``mark``, less probe time, at nominal speed."""
        first, spent = mark
        own = elapsed - (self.spent - spent)
        window = self.samples[min(first, len(self.samples) - WINDOW):]
        return own * NOMINAL_S * len(window) / sum(window)

    def speed(self) -> float:
        """Median speed seen so far, relative to nominal."""
        ordered = sorted(self.samples)
        return NOMINAL_S / ordered[len(ordered) // 2]
