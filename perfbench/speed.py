"""Speed normalisation for a host whose speed changes while it is measured.

On a shared host the same work can take 1.7x longer for seconds to minutes
at a time, and CPU time grows with wall time, so neither repeats.  A
`SpeedSampler` runs a fixed calibration kernel in this process's own main
thread every PERIOD_S seconds (from SIGALRM) while a block runs.  The
kernel's duration follows the speed the block sees at that moment, so

    normalised = (raw - kernel time) * reference_s * mean(1 / kernel duration)

is the time the block would take at the speed at which one kernel call
takes reference_s.

Two kernels: `full_kernel` mixes what the workloads do (length-256 FFTs
through numpy, interpreted Python, a QUADPACK call with a Python
integrand) and samples the repetitions; `python_kernel` needs no import,
so it can sample a fresh interpreter's set-up from its first line.
"""

import functools
import math
import signal
import statistics
import time

PERIOD_S = 0.05
MIN_SAMPLES = 20
# reference durations: about the kernels' unloaded durations on a 2-core
# Xeon VM, so normalised seconds read close to raw ones on a quiet host
PYTHON_REFERENCE_S = 1e-4
FULL_REFERENCE_S = 6e-4


def python_kernel() -> float:
    """Interpreted Python only; returns its duration in seconds."""
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(400):
        acc += math.sqrt(i + acc % 7.0)
        table[i & 63] = acc
    return time.perf_counter() - start


@functools.cache
def _full_inputs():
    # binds scipy's quad at the first call, before a tracer can patch it,
    # so that the kernel's quad calls are never counted as the program's
    import numpy as np
    from scipy.integrate import quad
    return (np, quad, np.random.default_rng(0).standard_normal(256),
            np.fft.rfft(np.full(256, 1.0 / 256)))


def full_kernel() -> float:
    """numpy FFTs, interpreted Python and one quad; returns its duration."""
    np, quad, y, spectrum = _full_inputs()
    start = time.perf_counter()
    for _ in range(20):
        y = np.fft.irfft(np.fft.rfft(y) * spectrum, n=256)
    python_kernel()
    quad(lambda u: math.exp(-u * u) * math.cos(3.0 * u), 0.0, 4.0)
    return time.perf_counter() - start


class SpeedSampler:
    """Samples `kernel` from SIGALRM while the `with` block runs, then tops
    up to MIN_SAMPLES right after it."""

    def __init__(self, kernel, reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s
        self.durations = []
        self.in_block = 0
        self.in_block_s = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.durations.append(self.kernel())
        self._handler_s += time.perf_counter() - start

    def __enter__(self):
        self.durations = []
        self._handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.in_block = len(self.durations)
        self.in_block_s = self._handler_s
        while len(self.durations) < MIN_SAMPLES:
            self.durations.append(self.kernel())

    def scale(self) -> float:
        """Factor from raw seconds to reference-speed seconds."""
        return self.reference_s * statistics.mean(1.0 / d for d in self.durations)

    def normalise(self, raw_s: float) -> float:
        """Reference-speed seconds of a block that took `raw_s` (wall or
        CPU); the kernel calls made inside the block are taken out."""
        return (raw_s - self.in_block_s) * self.scale()
