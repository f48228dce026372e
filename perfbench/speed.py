"""Machine-speed probe, to scale measured times to a reference speed.

The reference machine is shared: a fixed CPU-bound loop there runs up to
a third faster or slower from one minute to the next, and up to a fifth
from one fraction of a second to the next, which moves every time of a
30 s run as much as a real change in the program would.  The swings are
those of the CPU the process runs on: the same loop in another process, on
the other CPU, does not follow them.  So while the timed rounds run, an
interval timer interrupts the process every INTERVAL_S and times a small
fixed kernel of interpreted Python, small NumPy operations and a complex
matrix product, the mix qccs itself runs.  The kernel's own time is taken
back out of every operation it interrupted, and each operation's time is
reported multiplied by REFERENCE_S / (mean time of the kernel runs during
and around it): seconds at the speed the reference machine had when
REFERENCE_S was taken.  The mean, not the median, because an operation's
time adds up fast and slow stretches alike.

The kernel must time the machine, not the program.  It allocates no array
(its operands and outputs are made once, here) and runs with the garbage
collector paused, so the program's heap cannot make it pay for a
collection or for fresh pages; its arrays fit in the CPU's cache, so what
the interrupted operation left there costs it a refill of microseconds.

A cold start is mostly process creation, file reads and imports, which the
kernel tracks poorly.  So each cold start of set-up is timed between two
cold starts of BASELINE, an interpreter that imports NumPy and no qccs
code, and scaled by COLD_REFERENCE_S / (their mean).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_S = 0.007  # mean kernel time on the reference machine
INTERVAL_S = 0.25    # about 3% of the run goes to the kernel
LOCAL_S = 1.0        # an operation's speed is that of the kernel runs this near it

BASELINE = "import time, numpy; print(time.monotonic())"
COLD_REFERENCE_S = 0.2  # median BASELINE cold start on the reference machine

_SMALL = np.arange(16.0).reshape(4, 4)
_MAT = np.full((128, 128), 1e-3 + 1e-3j)
_PRODUCT = np.empty_like(_MAT)
_VEC = np.zeros(20)
_SCRATCH = np.empty_like(_VEC)


def _kernel() -> None:
    counts: dict = {}
    total = 0.0
    for i in range(6000):
        k = (i * 7) % 101
        counts[k] = counts.get(k, 0) + 1
        total += float(_SMALL[i & 3, (i >> 2) & 3])
    for _ in range(3):
        np.matmul(_MAT, _MAT, out=_PRODUCT)
    _VEC.fill(0.0)
    for i in range(300):
        _VEC[i % 20] += 1.0
        np.divide(_VEC, 1.0 + _VEC.max(), out=_SCRATCH)
        _VEC[:] = _SCRATCH


class SpeedProbe:
    def __init__(self):
        self.runs: list = []  # (start, end) of every kernel run

    def run_kernel(self) -> None:
        paused = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _kernel()
            self.runs.append((t0, time.perf_counter()))
        finally:
            if paused:
                gc.enable()

    @contextmanager
    def sampling(self):
        """Run the kernel every INTERVAL_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.run_kernel())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def busy(self, start: float, end: float) -> float:
        """Kernel time spent inside [start, end]."""
        return sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.runs)

    def reference_seconds(self, start: float, end: float) -> float:
        """[start, end] less the kernel's time in it, at the speed of the
        kernel runs within LOCAL_S of it (the whole run's, if none)."""
        near = [b - a for a, b in self.runs if start - LOCAL_S <= a and b <= end + LOCAL_S]
        kernel_s = statistics.fmean(near or [b - a for a, b in self.runs])
        return (end - start - self.busy(start, end)) * REFERENCE_S / kernel_s
