"""Machine speed sampled during a timed call, to read timings at a nominal speed.

On a shared host the same code runs 20-40% faster or slower from one second
to the next (co-tenants, frequency scaling), which swamps the differences the
benchmark exists to catch. While a call is timed, a timer signal interrupts
it every 5 ms and runs a small fixed kernel that touches no proxichain code:
SHA-256 over a short input in a Python loop, and plain Python arithmetic.
The kernel's mean speed over the call, relative to its speed on the
reference machine, is the call's speed factor; the kernel's own time is
taken out of the call's time.

Rates are divided by the factor and times multiplied by it, so a change in
proxichain moves the scaled figure as much as the raw one, while drift of
the whole machine cancels. Both kernels track the workloads' drift; a NumPy
kernel tracked the mining loop worse and was left out. Raw figures are
recorded next to the scaled ones.
"""

from __future__ import annotations

import hashlib
import math
import signal
import struct
import time

PERIOD_S = 0.005
# Seconds per kernel part on the reference machine (2-vCPU Intel Xeon,
# Python 3.11); a machine exactly this fast has speed 1.0.
NOMINAL_S = (8.0e-5, 5.0e-5)

_BASE = hashlib.sha256(b"perfbench" * 32)


def _kernel() -> tuple[float, float]:
    started = time.perf_counter()
    for i in range(120):
        h = _BASE.copy()
        h.update(struct.pack("<Q", i))
        h.digest()
    middle = time.perf_counter()
    acc = 0
    table = {}
    for i in range(400):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = acc
    return middle - started, time.perf_counter() - middle


class Sampler:
    """Context manager: samples the kernel every ``PERIOD_S`` of wall time.

    ``spent`` is the time the samples took; ``speed()`` is the geometric mean
    over the two kernel parts of nominal time over mean sampled time.
    """

    def __init__(self) -> None:
        self.sums = [0.0, 0.0]
        self.samples = 0
        self.spent = 0.0

    def _sample(self) -> None:
        started = time.perf_counter()
        parts = _kernel()
        self.sums[0] += parts[0]
        self.sums[1] += parts[1]
        self.samples += 1
        self.spent += time.perf_counter() - started

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        # A call shorter than one period gets samples taken right after it.
        while self.samples < 5:
            self._sample()
        ratios = [nominal * self.samples / total for nominal, total in zip(NOMINAL_S, self.sums)]
        return math.sqrt(ratios[0] * ratios[1])
