"""Print one sha256 per fit family over every field of a fixed set of fits.

    python3 tools/fit_digest.py

It imports nvsense from the src/ next to its own tools/ directory, so
a copy placed in another checkout's tools/ digests that checkout.  The
inputs are the preset sweeps with seeded Gaussian noise, drawn here with
numpy alone, so a change to nvsense's own noise draws cannot move them.
Each family's digest covers every FitResult field of every fit (and the
chosen count of a selection, the float of an SNR), bit for bit.  Two
trees whose fits give the same bits print the same lines.  The bits
depend on the BLAS that numpy runs on, so compare digests taken on one
machine, not against numbers kept elsewhere.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import struct
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from nvsense import fitting, synth  # noqa: E402
from nvsense.core import Trace, XKind  # noqa: E402

SEEDS = range(12)
# the preset grids and truths: Rabi drive, EPR line, DEER-Rabi pair
RABI_X = np.linspace(0.0, 2.0, 201)
RABI_F, RABI_T0 = 5.50, 0.67
LINE_X = np.linspace(880.0, 950.0, 101)
LINE_CENTER, LINE_WIDTH, LINE_AMP, LINE_BASE = 914.7, 9.0, -0.3, 0.5
PAIR_X = np.linspace(0.0, 1.0, 101)
PAIR_MHZ, PAIR_T0 = (1.12, 2.24), 0.34


def _noisy(x, y, kind, seed, sigma):
    rng = np.random.default_rng([seed, int(sigma * 1e4)])
    return Trace(x, kind, {"y": y + rng.normal(0.0, sigma, y.size)})


def _rabi(seed):
    y = 0.5 * (1.0 + np.exp(-((RABI_X / RABI_T0) ** 2))
               * np.cos(2.0 * np.pi * RABI_F * RABI_X))
    return _noisy(RABI_X, y, XKind.PULSE_LENGTH, seed, 0.03)


def _line(seed, amplitude=LINE_AMP):
    y = LINE_BASE + amplitude * np.exp(
        -((LINE_X - LINE_CENTER) ** 2) / (2.0 * LINE_WIDTH ** 2))
    return _noisy(LINE_X, y, XKind.FREQUENCY, seed, 0.02)


def _pair(seed):
    w = 2.0 * np.pi * np.array(PAIR_MHZ)
    y = 0.5 + 0.5 * np.exp(-((PAIR_X / PAIR_T0) ** 2)) * np.prod(
        np.cos(np.multiply.outer(w, PAIR_X)), axis=0)
    return _noisy(PAIR_X, y, XKind.PULSE_LENGTH, seed, 0.01)


def _bits(value):
    """value as bytes, every float and array bit for bit."""
    if dataclasses.is_dataclass(value):
        return b"".join(f.name.encode() + _bits(getattr(value, f.name))
                        for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return value.dtype.str.encode() + repr(value.shape).encode() \
            + value.tobytes()
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return b"".join(repr(k).encode() + _bits(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return b"(" + b"".join(_bits(v) for v in value) + b")"
    return repr(value).encode()


FAMILIES = {
    "fit_rabi": lambda s: fitting.fit_rabi(_rabi(s)),
    "fit_gaussian_peak": lambda s: fitting.fit_gaussian_peak(
        _line(s), min_snr=0.0),
    "snr_estimate line": lambda s: synth.snr_estimate(_line(s)),
    "snr_estimate null": lambda s: synth.snr_estimate(_line(s, 0.0)),
    **{f"fit_deer_rabi n={n}": (lambda s, n=n: fitting.fit_deer_rabi(
        _pair(s), n)) for n in (1, 2, 3)},
    **{f"select_spin_count max_n={n}": (
        lambda s, n=n: fitting.select_spin_count(_pair(s), max_n=n))
       for n in (2, 3)},
}


def main():
    for name, fit in FAMILIES.items():
        digest = hashlib.sha256()
        for seed in SEEDS:
            digest.update(_bits(fit(seed)))
        print(f"{name:28s} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
