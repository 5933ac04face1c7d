"""The host's speed around each timed span, from a fixed probe that is not tsgan code.

The reference machine shares its cores with other tenants. The same fixed
work runs up to twice as slow for seconds to minutes at a time, in CPU time
as well as in wall time, and a slow phase can outlast a whole run; no
statistic over one run's rounds can then tell it from a slower program. So
the harness times this probe before every set-up and round and after the
last, and scales each span by `Meter.scale`: REFERENCE_S over the median of
the probe calls just before and just after it.

The probe uses only numpy and plain Python written here, so no change to
tsgan moves it; a change to tsgan moves the spans it scales and nothing
else. It is a small GRU-like recurrence, forward and then backward through a
Python closure per step, on 16 x 8 arrays: interpreter and small-array
dispatch bound, like tsgan's tape at desk scale. It does not track BLAS-bound
work, which the workloads say with HOST_SCALED.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

STEPS = 400      # recurrence steps in one probe call (about 10 ms)
CALLS = 6        # probe calls per sample

# The median probe call on the reference machine (2 vCPUs of an Intel Xeon
# under KVM) at a quiet time. It sets the scale only: every run of every
# commit divides by the same constant, so comparisons between commits do not
# depend on it.
REFERENCE_S = 0.0068


def _kernel() -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 8))
    w = rng.standard_normal((8, 24)) * 0.1
    u = rng.standard_normal((8, 24)) * 0.1
    h = np.zeros((16, 8))
    tape = []
    for _ in range(STEPS):
        a = x @ w + h @ u
        z = 1.0 / (1.0 + np.exp(-a[:, :8]))
        r = 1.0 / (1.0 + np.exp(-a[:, 8:16]))
        c = np.tanh(a[:, 16:] * r)
        h = (1.0 - z) * h + z * c
        tape.append(lambda g, z=z, c=c: g * z * (1.0 - c * c))
    g = np.ones_like(h)
    for backward in reversed(tape):
        g = backward(g)
    return float(g.sum())


class Meter:
    """Probe samples taken over one run."""

    def __init__(self):
        self.samples: list[list[float]] = []   # seconds of each probe call
        self.seconds = 0.0                     # wall time spent sampling

    def sample(self) -> int:
        """Time CALLS probe calls now; the sample's index."""
        start = time.perf_counter()
        times = []
        for _ in range(CALLS):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
        self.samples.append(times)
        self.seconds += time.perf_counter() - start
        return len(self.samples) - 1

    def scale(self, before: int, after: int) -> float:
        """Factor to the reference speed for seconds measured between two samples."""
        return REFERENCE_S / statistics.median(self.samples[before] + self.samples[after])
