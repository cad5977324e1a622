"""Machine-speed probe: rescale pass times to a fixed reference speed.

On a shared host the speed of a vCPU drifts by tens of percent over seconds
to minutes (other tenants share its core), and the drift is the same for
wall time and CPU time.  A pass of the default threshold sweep takes several
seconds, so a median over passes cannot remove it.  ``SpeedProbe`` measures
the drift while a pass runs: every ``PERIOD_S`` a SIGALRM handler runs one
calibration sample, a fixed piece of interpreter and small-numpy work that
uses no reconcap code, so no change to the program moves it.  ``now()`` is a
clock that stops while a sample runs, so samples do not count in the pass.

``normalise(seconds)`` rescales a pass time measured in that window to a
machine on which one sample takes ``REF_SAMPLE_S``: a pass that runs at the
same speed as the samples keeps its share of them, however fast the machine
happens to be.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
# one sample's time on the reference machine (about its typical time on a
# shared 2-vCPU Xeon), so normalised times read close to seconds there
REF_SAMPLE_S = 0.002
_ITERATIONS = 300

_MATRIX = np.linspace(-1.0, 1.0, 36).reshape(6, 6) + np.eye(6)
_VECTOR = np.linspace(0.5, 1.5, 6)


def calibration_sample() -> float:
    """A fixed amount of interpreter and small-numpy work; returns its result."""
    total = 0.0
    for i in range(_ITERATIONS):
        record = {"index": i, "scale": i * 0.5}
        w = _MATRIX @ _VECTOR + _VECTOR * record["scale"]
        total += float(np.dot(w, w)) + sum(x * x for x in (1.0, 2.0, 3.0, record["index"]))
        if i % 20 == 0:
            total += float(np.linalg.svd(_MATRIX, compute_uv=False)[0])
    return total


class SpeedProbe:
    """Context manager that samples the machine's speed during a block.

    One sample runs on entry, so every block has at least one; further
    samples run every ``PERIOD_S`` of wall time.  The timer is one-shot and
    re-armed after each sample, so samples never nest; a sample that was
    already due when the block ends does not re-arm it.
    """

    def __init__(self):
        self.samples = 0
        self.sample_s = 0.0
        self._active = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        calibration_sample()
        self.sample_s += time.perf_counter() - start
        self.samples += 1
        if signum is not None and self._active:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def now(self) -> float:
        """``time.perf_counter()`` less the time spent in samples so far."""
        return time.perf_counter() - self.sample_s

    def mean_sample_s(self) -> float:
        return self.sample_s / self.samples

    def normalise(self, seconds: float) -> float:
        """``seconds`` measured inside the block, at the reference speed."""
        return seconds * REF_SAMPLE_S / self.mean_sample_s()

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
