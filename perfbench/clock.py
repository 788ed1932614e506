"""Timing scaled to a reference machine speed.

The benchmark runs on a VM whose speed drifts with its co-tenants: the
same run_experiment takes 0.9 s or 1.4 s, in stretches from seconds to
minutes, so whole runs land in slow or fast stretches and no statistic
within a run removes it. While a Clock is entered, a SIGALRM interval timer
runs a fixed ~0.5 ms calibration (plain Python and small numpy operations,
no mtlopt code) every 50 ms in the main thread. The mean calibration time
during a sample, over its reference time, is the machine's slowdown during
that sample; the sample's scaled time is its wall time over that slowdown.
A change to mtlopt moves scaled and wall times alike, because the
calibration does not run mtlopt. The calibration costs about 1 % of the
wall time it observes, the same on every commit.
"""
from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
# timer calibration seconds when the 2-vCPU Intel Xeon VM the benchmark was
# tuned on runs at full speed, so that scaled and wall times agree there
REFERENCE_S = 4.8e-4

_X = np.random.default_rng(0).normal(size=(16, 3, 12, 12))
_W = np.random.default_rng(1).normal(size=(432, 24))
_A = np.random.default_rng(2).normal(size=(4, 12))
_V = np.random.default_rng(3).normal(size=12)


def calibration() -> float:
    """Seconds for the fixed calibration work."""
    start = perf_counter()
    total = 0.0
    for i in range(1_500):  # interpreter-bound, like the runner's bookkeeping
        total += i % 7
    for _ in range(40):  # tiny-array numpy calls, like the tape ops and the quadratic probes
        r = _A @ _V - 1.0
        total += float(np.sum(r * r)) + float(np.maximum(r, 0.0).sum())
    for _ in range(5):  # small dense products, like the convolutions
        total += float(np.maximum(_X.reshape(16, -1) @ _W, 0.0).sum())
    return perf_counter() - start


@dataclass(frozen=True)
class Sample:
    seconds: float   # wall time
    slowdown: float  # mean calibration time during the sample over REFERENCE_S

    @property
    def scaled(self) -> float:
        return self.seconds / self.slowdown


class Clock:
    """Times samples while the interval timer calibrates; use as a context manager."""

    def __init__(self):
        self._ticks: list[tuple[float, float]] = []  # (start, calibration seconds)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self._ticks.append((start, calibration()))

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrations(self) -> list[float]:
        return [c for _, c in self._ticks]

    def slowdown_now(self, repeats: int = 5) -> float:
        """Slowdown from calibrations run back to back, for samples whose own
        ticks would land while another process competes for the machine."""
        return statistics.mean(calibration() for _ in range(repeats)) / REFERENCE_S

    def measure(self, fn, *args):
        """Return (fn(*args), Sample)."""
        start = perf_counter()
        result = fn(*args)
        end = perf_counter()
        # a sample shorter than the period falls back to the latest calibrations
        during = [c for t, c in self._ticks if start <= t < end] or [c for _, c in self._ticks[-3:]]
        if not during:
            raise RuntimeError("Clock.measure needs an entered Clock")
        return result, Sample(end - start, statistics.mean(during) / REFERENCE_S)
