"""Host-speed calibration: a fixed loop timed next to every measured interval.

The shared hosts this benchmark runs on change speed: a 2-vCPU virtual
machine drifted between levels about 1.4x apart within seconds to minutes,
and the library slowed by the same factor, so raw wall times of the same
code on different runs spread by more than any useful bound.  The loop
below does the three kinds of work the library does (complex elementwise
numpy on a 128^2 grid, small Hermitian eigendecompositions and products,
interpreted Python) in about equal parts.  It is timed before and after
every measured interval, and

    scaled = interval * NOMINAL_S / mean(loop before, loop after)

is the interval's length on a host where the loop takes NOMINAL_S.  The
loop is part of the benchmark, never of the program, so a change to the
program moves `scaled` by the same share as it moves the raw time.  The
raw times are kept in the record line.
"""

import time

import numpy as np

# about what the loop takes on the 2-vCPU host the baseline was taken on,
# so scaled times read close to raw ones there
NOMINAL_S = 0.05

_rng = np.random.default_rng(0)
_FIELD = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_M = _rng.standard_normal((9, 9)) + 1j * _rng.standard_normal((9, 9))
_HERMITIAN = _M + _M.conj().T


def loop_seconds():
    """Wall time of one run of the fixed loop."""
    start = time.perf_counter()
    acc = np.zeros_like(_FIELD)
    for k in range(700):
        acc += _FIELD * np.exp(1e-3j * k)
    for _ in range(400):
        w, v = np.linalg.eigh(_HERMITIAN)
        (v * w) @ v.conj().T
    s = 0
    for i in range(200_000):
        s += i * i
    return time.perf_counter() - start


class Scaler:
    """Times intervals between calibration loops and scales them to NOMINAL_S."""

    def __init__(self):
        loop_seconds()  # first-call costs
        self.loops = [loop_seconds()]
        self.raw = []
        self.scaled = []

    def add(self, seconds):
        """Record an interval that has just ended; returns its scaled length."""
        self.loops.append(loop_seconds())
        self.raw.append(seconds)
        self.scaled.append(seconds * NOMINAL_S / (0.5 * (self.loops[-2] + self.loops[-1])))
        return self.scaled[-1]
