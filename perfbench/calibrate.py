"""Machine-speed calibration of the end-to-end timings.

The speed of a shared 2-core VM drifts by tens of percent over minutes.
In one four-minute window, one select-spins op on one fixed trace took
400 to 650 ms. In one 10-seed set, inversion-mix ops/s spread by 0.24 of
its median across runs; the bound allowed is 0.25. A fixed reference
kernel timed between ops tracks that drift. Over the same four minutes,
op time over kernel time stayed within ±3%. Every op time is therefore
reported at reference speed:

    t_reported = t_measured * t_kernel_reference / t_kernel

t_kernel is the median of the kernel samples taken within 2.5 s of the
op; samples are taken between ops, every 0.25 s. Machine load slows
different kinds of work by different amounts, so each workload's kernel
is made of the parts that mirror its own work (Workload.kernel). Set-up
time is calibrated the same way against a fresh interpreter importing
numpy and scipy.linalg (REF_IMPORT_CODE), which is the same kind of work
as importing nvsense. The kernel and the reference
import use numpy, scipy and the standard library only, so a change to
nvsense cannot move them. run.py prints the raw times next to the
calibrated ones.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
import time

import numpy as np
from scipy.linalg import expm

# Kernel parts, each mirroring one kind of work in nvsense, and the time
# one pass of each takes at reference speed.  The baseline machine
# (2-vCPU VM, Python 3.11, numpy 2.4, scipy 1.17) is 0.7x to 1.4x that
# fast, depending on its load.
REF_PART_S = {"fit": 1.75e-3, "inverse": 0.875e-3, "synth": 3.25e-3}
# a fresh interpreter running REF_IMPORT_CODE takes REF_IMPORT_S at
# reference speed (0.35 to 0.47 s on the baseline machine)
REF_IMPORT_S = 0.4
REF_IMPORT_CODE = "import numpy, scipy.linalg"
SAMPLE_REPEATS = 3
SAMPLE_EVERY_S = 0.25
WINDOW_S = 2.5

_T = np.linspace(0.0, 1.0, 101)
_H3 = np.array([[2870.0, 20.0, 0.0], [20.0, 0.0, 20.0], [0.0, 20.0, 2870.0]])
_H2 = np.array([[0.5, 0.3], [0.3, -0.5]], dtype=complex)


def _fit_part() -> float:
    """Levenberg-Marquardt-like steps on a 101-point cosine-product model:
    small-array ufuncs, a forward-difference Jacobian, a 3x3 solve."""
    p = np.array([7.0, 14.0, 0.34])
    acc = 0.0
    for _ in range(18):
        cols = []
        base = 0.5 + 0.5 * np.exp(-((_T / p[2]) ** 2)) * np.cos(p[0] * _T) \
            * np.cos(p[1] * _T)
        for j in range(3):
            q = p.copy()
            q[j] += 1e-6 * (1.0 + abs(q[j]))
            cols.append((0.5 + 0.5 * np.exp(-((_T / q[2]) ** 2))
                         * np.cos(q[0] * _T) * np.cos(q[1] * _T) - base)
                        / (q[j] - p[j]))
        jac = np.stack(cols, axis=1)
        a = jac.T @ jac
        step = np.linalg.solve(a + 1e-3 * np.diag(np.diag(a)), -jac.T @ base)
        acc += float(step @ step)
    return acc


def _inverse_part() -> float:
    """3x3 eigensolves and 2x2 matrix exponentials."""
    acc = 0.0
    for k in range(24):
        acc += float(np.linalg.eigvalsh(_H3 + k)[0])
        acc += float(expm(-1j * (1.0 + k) * _H2)[0, 0].real)
    return acc


def _synth_part() -> float:
    """One Philox generator per Poisson draw, written to CSV and parsed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i in range(100):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(7, spawn_key=(i % 4, i))))
        writer.writerow([repr(0.01 * i), "pulse_length", "SIG1",
                         repr(rng.poisson(63000.0) / 1260000), 1260000])
    rows = csv.reader(buf.getvalue().splitlines())
    return sum(float(row[3]) for row in rows)


_PARTS = {"fit": _fit_part, "inverse": _inverse_part, "synth": _synth_part}


def kernel_seconds(parts) -> float:
    """Time of one pass of the named kernel parts, in order."""
    t0 = time.perf_counter()
    acc = sum(_PARTS[name]() for name in parts)
    if not math.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite sum")
    return time.perf_counter() - t0


class Calibration:
    """Samples of one workload's kernel taken between measured intervals."""

    def __init__(self, parts):
        self.parts = tuple(parts)
        self.reference = sum(REF_PART_S[name] for name in self.parts)
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(statistics.median(
            kernel_seconds(self.parts) for _ in range(SAMPLE_REPEATS)))
        self.times.append(time.perf_counter())

    def due(self) -> bool:
        return time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S

    def factor(self, start: float, end: float) -> float:
        """Scale for an interval: reference kernel time over the median
        kernel sample within WINDOW_S of it (one sample is too noisy)."""
        near = [k for t, k in zip(self.times, self.samples)
                if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            raise ValueError("no kernel sample near the interval")
        return self.reference / statistics.median(near)
