"""Host-speed normalisation for timings on a shared machine.

On a shared host the speed of one vCPU swings by up to ~1.8x for seconds to
minutes at a time, as other tenants load the cores it runs on.  Process CPU
time swings with it, so it does not help.  While an operation runs, a timer
signal samples a fixed probe kernel (scalar complex arithmetic and small numpy
operations, the same mix as the package's hot loops) every INTERVAL_S.  The
operation's time, minus the time spent in the probe, is scaled by the mean of
PROBE_REF_S / (probe time) over the samples taken during it: it reads as
seconds on a host where the probe takes PROBE_REF_S.  A change to the package
moves the operation's time and not the probe's, so it shows in full.
"""

from __future__ import annotations

import cmath
import signal
import statistics
import time

import numpy as np

# A 0.2 s operation gets about four samples.  Sampling every 0.2 s left about
# twice the pass-to-pass variation in one operation's normalised time.
INTERVAL_S = 0.05
# Probe time on an unloaded 2-vCPU Xeon VM (2.0 GHz), where the benchmark was defined.
PROBE_REF_S = 0.75e-3


def probe() -> float:
    """Seconds taken by the fixed probe kernel."""
    t0 = time.perf_counter()
    acc = 0j
    arr = np.arange(16.0)
    for k in range(1, 400):
        z = complex(k, 0.5)
        acc += cmath.sin(z) / z
        arr = arr * 0.5 + 1.0
    return time.perf_counter() - t0


class HostSpeed:
    """Context manager that samples the probe on a timer while installed."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.probe_time = 0.0  # wall time spent inside timer-driven probes
        self._previous = None

    def _on_timer(self, signum, frame):
        del signum, frame
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.probe_time += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def measure(self, fn, *args):
        """Run fn(*args); returns (result, error, normalised s, wall s).

        The normalised time excludes the probes; the wall time includes them.

        error is None or the exception fn raised; the run goes on either way."""
        first = len(self.samples)
        self.samples.append(probe())
        spent = self.probe_time
        t0 = time.perf_counter()
        result, error = None, None
        try:
            result = fn(*args)
        except Exception as exc:  # the caller counts it as a failed operation
            error = exc
        wall = time.perf_counter() - t0
        # Samples are evenly spaced in time, so the mean of the speed
        # (1/probe time) is the operation's time-averaged speed.
        scale = statistics.fmean(PROBE_REF_S / p for p in self.samples[first:])
        return result, error, (wall - (self.probe_time - spent)) * scale, wall
