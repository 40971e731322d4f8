"""Host-speed calibration: time measured on a drifting host, rescaled to a
fixed reference speed.

A shared host runs the same pure-Python code at speeds that drift by tens
of percent over seconds to minutes, and the process's CPU time drifts with
its wall time, so neither tells a slow program from a slow moment.  The
benchmark therefore times a fixed exact-arithmetic kernel (Fraction
elimination on a fixed integer matrix, the kind of work the package does)
next to the ops, and reports every time as

    measured seconds * REF_SAMPLE_S / (the kernel's time measured next to it)

that is, in seconds at the speed where one calibration sample takes
REF_SAMPLE_S.  The kernel lives here, outside the package, so a change to
the package cannot change it.  The raw seconds are reported as well.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from time import perf_counter

# the reference speed: one sample (KERNEL_REPS eliminations) takes this long
REF_SAMPLE_S = 0.020
KERNEL_REPS = 8
# next to a long op, a sample is repeated once per LONG_OP_S of that op
# (at most MAX_REPEATS times) and averaged, so that its noise stays small
# next to the op's
LONG_OP_S = 0.5
MAX_REPEATS = 4
SIZE = 10
_rng = random.Random(20101035)
MATRIX = tuple(tuple(_rng.randint(-9, 9) for _ in range(SIZE)) for _ in range(SIZE))


def determinant(matrix=MATRIX):
    """Fraction Gaussian elimination; the kernel that is timed."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    det = Fraction(1)
    factors = {}
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        pivot = rows[c][c]
        det *= pivot
        for r in range(c + 1, n):
            f = rows[r][c] / pivot
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
                factors[r, c] = f
    return det


EXPECTED = determinant()


def bracket(samples, n_ops):
    """Per op, the mean of the last sample before it and the first after it.

    ``samples`` is a list of (ops done when taken, seconds), in order,
    with one taken before the first op and one after the last.
    """
    out = []
    k = 0
    for i in range(n_ops):
        while samples[k + 1][0] <= i:
            k += 1
        out.append((samples[k][1] + samples[k + 1][1]) / 2)
    return out


class Calibrator:
    """Takes calibration samples and keeps those of the current pass."""

    def __init__(self):
        self.samples = []  # (ops done when taken, seconds)
        self.all = []      # every sample of the run, in seconds
        self.last_times = None  # op times of the previous pass, if any

    def sample(self, done=0, next_to=0.0):
        """Take a sample after ``done`` ops, next to ops of ``next_to`` seconds."""
        repeats = min(MAX_REPEATS, max(1, round(next_to / LONG_OP_S)))
        # the kernel's garbage is acyclic; with the cycle collector off, the
        # sample does not depend on how many objects the package keeps alive
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            for _ in range(KERNEL_REPS * repeats):
                if determinant() != EXPECTED:
                    raise RuntimeError("calibration kernel gave a wrong determinant")
            elapsed = (perf_counter() - start) / repeats
        finally:
            if enabled:
                gc.enable()
        self.samples.append((done, elapsed))
        self.all.append(elapsed)
        return elapsed

    def start_pass(self, next_to=0.0):
        self.samples = []
        self.sample(0, next_to)

    def scales(self, n_ops):
        """Per op of the pass, the factor from measured to reference seconds."""
        return [REF_SAMPLE_S / s for s in bracket(self.samples, n_ops)]
