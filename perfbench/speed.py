"""Machine-speed probe: corrects pass times for load from other tenants.

On a shared host the same pass runs up to about 40% slower while other
tenants load the core, and that load changes over minutes, so raw times
of runs a minute apart differ by more than the changes the benchmark must
detect. While a pass runs, a 5 ms interval timer interrupts it to time a
fixed calibration kernel made of the same kind of work as the package's
inner loops (small numpy operations and float conversions). An operation's
time multiplied by ``scale(start)``, REFERENCE_S over the kernel's mean time
while the operation ran, is its time at the speed at which the kernel takes
REFERENCE_S. The kernel's own time is kept out of every timed region.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.005
WINDOW = 10  # fewest kernel samples one speed estimate rests on
# the kernel's time on an unloaded core of the machine in BASELINE.json; it only
# sets the scale, so that corrected times read as raw ones measured there unloaded
REFERENCE_S = 15e-6
_INPUT = np.ones(2)


def kernel_seconds() -> float:
    start = time.perf_counter()
    x = _INPUT
    for _ in range(8):
        x = np.abs(x * 1.0000001)
        float(x[0]) + 1.0
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager that times the kernel every INTERVAL_S of wall time."""

    def __init__(self):
        self.ticks = []  # (perf_counter when the tick started, kernel seconds)
        self.spent = 0.0

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        dt = kernel_seconds()
        self.ticks.append((start, dt))
        self.spent += dt

    def __enter__(self):
        for _ in range(WINDOW):  # so that every estimate has WINDOW samples to use
            self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        # the handler stays installed, so a tick already pending finds it
        return False

    def clock(self) -> float:
        """perf_counter minus the kernel time so far: the probe's own cost
        never lands inside an interval timed with this clock."""
        return time.perf_counter() - self.spent

    def scale(self, since: float) -> float:
        """REFERENCE_S over the kernel's mean time in the ticks since the
        perf_counter value ``since``, or in the last WINDOW ticks when fewer
        fell after it."""
        recent = []
        for start, dt in reversed(self.ticks):
            if start < since and len(recent) >= WINDOW:
                break
            recent.append(dt)
        return REFERENCE_S * len(recent) / sum(recent)
