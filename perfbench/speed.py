"""Machine-speed calibration around each timed call.

On a core shared with other tenants the same code runs up to ~1.8x slower
while a neighbour is busy, in phases of a second to minutes. Operation
wall times then spread by 25-30 % between runs, more than any bound worth
checking. Every timed call is therefore bracketed by a fixed reference
computation on the same core, independent of cqhjlab (a split-step FFT
loop, a pentadiagonal solve and small array arithmetic, the mix the
program's stepping loops make), and its time t is scaled to

    t * (REFERENCE_S / r) ** SENSITIVITY,  r = mean reference time before and after

REFERENCE_S is the reference computation's uncontended time on the machine
the benchmark was defined on (2-core Intel Xeon, Python 3.11.7, numpy
2.4.6, scipy 1.17.1), so a scaled time estimates the time on an
uncontended core. SENSITIVITY < 1 because the brackets sample the core
only around the call: regressing log operation time on log reference time
over 41 alternating stationary_split operations gave slopes of 0.61-0.73,
and 0.5-0.6 minimised the run-to-run spread of collapse_box and
stationary_split. Raw wall times are kept next to the scaled ones in the
run record.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np
from scipy.linalg import solve_banded

REFERENCE_S = 0.135
SENSITIVITY = 0.6

_N_FFT, _N_BAND = 256, 510
_x = np.linspace(-12.0, 12.0, _N_FFT, endpoint=False)
_half_v = np.exp(-0.25j * 1e-3 * _x**2)
_kinetic = np.exp(-0.5j * 1e-3 * np.fft.fftfreq(_N_FFT, 24.0 / _N_FFT) ** 2)
_ab = np.zeros((5, _N_BAND), dtype=np.complex128)
_ab[0], _ab[1], _ab[2], _ab[3], _ab[4] = -1e-4j, 1e-3j, 1.0 + 2e-3j, 1e-3j, -1e-4j
_rhs0 = np.exp(-np.linspace(-8.0, 8.0, _N_BAND) ** 2).astype(np.complex128)


def reference_work() -> float:
    """The fixed reference computation; returns a checksum."""
    v = np.exp(-_x**2).astype(np.complex128)
    r = _rhs0
    acc = 0.0
    for _ in range(1500):
        v = v * _half_v
        v = np.fft.ifft(_kinetic * np.fft.fft(v)) * _half_v
        r = solve_banded((2, 2), _ab, r)
        acc += float(np.sqrt(np.dot(np.abs(r), np.abs(r))))
    return acc + float(np.abs(v).sum())


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


@contextmanager
def on_cores(cores):
    """Run the body with this process restricted to `cores`."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cores)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


class Calibrated:
    """Times calls on the given cores, each bracketed by reference runs.

    With one core, the process stays pinned to it for the whole run so the
    call and its references share the core. With several (a process pool),
    each reference is the mean over the cores, sampled one after another.
    """

    def __init__(self, cores):
        self.cores = sorted(cores)
        self.last = self._reference()

    def _reference(self) -> float:
        samples = []
        for c in self.cores:
            with on_cores({c}):
                samples.append(reference_seconds())
        return sum(samples) / len(samples)

    def factor(self) -> float:
        """Scale for the call that just ended; takes the closing reference."""
        before, self.last = self.last, self._reference()
        return (REFERENCE_S * 2.0 / (before + self.last)) ** SENSITIVITY
