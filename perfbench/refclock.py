"""A clock that reads time at a fixed reference speed of the machine.

The benchmark's host gives it a share of a CPU that other tenants use too.
Its speed flips between a fast and a slow state, about 1.6x apart, in spells
of one second to about a minute, so a wall-clock time says as much about the
neighbours as about the program. ``RefClock`` runs a short, fixed probe every
``INTERVAL_S`` of wall time from a ``SIGALRM`` handler and turns wall time
into reference time: each stretch of time between two probes counts at the
speed the probes around it ran, as ``PROBE_REF_S / probe time``. The probes'
own time counts as zero. The probe is the benchmark's own code (a Python
loop and small numpy matrix products), so a change to the program cannot
change it.

``WallClock`` has the same interface and reads plain wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02  # one probe per 20 ms of wall time
PROBE_REF_S = 2.5e-4  # the probe's time on a quiet 2.1 GHz Xeon vCPU
SMOOTH = 5  # a stretch's speed is the median of the probes around it

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(64, 64)) * 0.1
_X = _rng.normal(size=(32, 64))


def _probe() -> int:
    s = 0
    for i in range(400):
        s += i * i % 7
    y = _X
    for _ in range(24):
        y = np.tanh(y @ _A)
    return s


class WallClock:
    """Plain wall time, with ``RefClock``'s interface."""

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def reference(self, t):
        return np.asarray(t, dtype=float)

    def elapsed(self, t0: float, t1: float) -> float:
        return float(t1 - t0)

    def summary(self) -> dict:
        return {"clock": "wall"}


class RefClock(WallClock):
    """Wall time scaled to the reference speed, from probes taken every ``INTERVAL_S``."""

    def __init__(self) -> None:
        self._spans: list[tuple[float, float]] = []  # (start, end) of each probe
        self._knots = (0, None)  # (probes they cover, knots)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe()
        self._spans.append((t0, time.perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)  # system calls resume after a probe
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._on_alarm(None, None)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _build(self):
        """Knots of the piecewise-linear map from wall to reference time."""
        n, knots = self._knots
        if n == len(self._spans):
            return knots
        spans = np.array(self._spans[:])  # a slice is taken whole; a probe may land at any time
        dur = spans[:, 1] - spans[:, 0]
        half = SMOOTH // 2
        padded = np.pad(dur, half, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTH), axis=1)
        speed = PROBE_REF_S / smooth
        # between probe i and i + 1 the clock runs at the mean of their speeds;
        # during a probe it stands still
        gap_speed = 0.5 * (speed[:-1] + speed[1:])
        wall = spans.ravel()  # start0, end0, start1, end1, ...
        steps = np.zeros(len(wall))
        steps[2::2] = (spans[1:, 0] - spans[:-1, 1]) * gap_speed
        knots = (wall, np.cumsum(steps), speed[0], speed[-1])
        self._knots = (len(spans), knots)
        return knots

    def reference(self, t):
        """Reference time at wall time(s) ``t``; outside the probed span the nearest speed holds."""
        wall, ref, first, last = self._build()
        t = np.asarray(t, dtype=float)
        out = np.interp(t, wall, ref)
        out = np.where(t < wall[0], ref[0] - (wall[0] - t) * first, out)
        return np.where(t > wall[-1], ref[-1] + (t - wall[-1]) * last, out)

    def elapsed(self, t0: float, t1: float) -> float:
        r = self.reference([t0, t1])
        return float(r[1] - r[0])

    def summary(self) -> dict:
        """The probes behind the clock, for the run's record."""
        dur = [b - a for a, b in self._spans]
        slow = sum(d > 1.3 * PROBE_REF_S for d in dur)
        return {
            "clock": "reference",
            "probes": len(dur),
            "probe_ref_ms": PROBE_REF_S * 1e3,
            "probe_median_ms": statistics.median(dur) * 1e3,
            "probe_share_slow": slow / len(dur),
            "probe_busy_s": sum(dur),
        }
