"""Print one sha256 per fit family over every field of a fixed set of fits.

    python3 tools/fit_digest.py
    python3 tools/fit_digest.py --against OTHER/src

It imports nvsense from the src/ next to its own tools/ directory, so
a copy placed in another checkout's tools/ digests that checkout.  The
inputs are the preset sweeps with seeded Gaussian noise, drawn here with
numpy alone, so a change to nvsense's own noise draws cannot move them.
Each family's digest covers every FitResult field of every fit (and the
chosen count of a selection, the float of an SNR), bit for bit.  Two
trees whose fits give the same bits print the same lines.  The bits
depend on the BLAS that numpy runs on, so compare digests taken on one
machine, not against numbers kept elsewhere.

With --against, the same fits also run on the nvsense package under
OTHER/src, and each family's line says how far they moved from this
tree's: the largest parameter move in units of this tree's 1-sigma
errors (param_errors; fits without them, and parameters whose error is
nan, on a bound, are left out), the largest relative change of ss_res
(of the SNR itself for the snr_estimate families), the number of
selections whose best_n differs, and the number of parameters whose
error differs, a null (None or nan) one against a number included.
Every fit of a selection counts.  A tree compared against itself prints
0 for each.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import math
import pathlib
import struct
import sys

import numpy as np

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SEEDS = range(12)
# the preset grids and truths: Rabi drive, EPR line, DEER-Rabi pair
RABI_X = np.linspace(0.0, 2.0, 201)
RABI_F, RABI_T0 = 5.50, 0.67
LINE_X = np.linspace(880.0, 950.0, 101)
LINE_CENTER, LINE_WIDTH, LINE_AMP, LINE_BASE = 914.7, 9.0, -0.3, 0.5
PAIR_X = np.linspace(0.0, 1.0, 101)
PAIR_MHZ, PAIR_T0 = (1.12, 2.24), 0.34


def _noisy(y, seed, sigma):
    rng = np.random.default_rng([seed, int(sigma * 1e4)])
    return y + rng.normal(0.0, sigma, y.size)


def _rabi(seed, sigma=0.03):
    y = 0.5 * (1.0 + np.exp(-((RABI_X / RABI_T0) ** 2))
               * np.cos(2.0 * np.pi * RABI_F * RABI_X))
    return RABI_X, _noisy(y, seed, sigma)


def _line(seed, amplitude=LINE_AMP):
    y = LINE_BASE + amplitude * np.exp(
        -((LINE_X - LINE_CENTER) ** 2) / (2.0 * LINE_WIDTH ** 2))
    return LINE_X, _noisy(y, seed, 0.02)


def _pair(seed):
    w = 2.0 * np.pi * np.array(PAIR_MHZ)
    y = 0.5 + 0.5 * np.exp(-((PAIR_X / PAIR_T0) ** 2)) * np.prod(
        np.cos(np.multiply.outer(w, PAIR_X)), axis=0)
    return PAIR_X, _noisy(y, seed, 0.01)


def _load(src):
    """nvsense's fitting, synth and core as imported from the tree src.

    Any nvsense imported before is dropped from sys.modules first, so two
    trees' modules live side by side, each bound to its own submodules.
    """
    for name in [m for m in sys.modules if m.split(".")[0] == "nvsense"]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return tuple(importlib.import_module(f"nvsense.{m}")
                     for m in ("fitting", "synth", "core"))
    finally:
        sys.path.remove(str(src))


def families(fitting, synth, core):
    """{family name: the fit of one seed} on these nvsense modules."""
    pulse, freq = core.XKind.PULSE_LENGTH, core.XKind.FREQUENCY

    def trace(data, kind):
        x, y = data
        return core.Trace(x, kind, {"y": y})

    return {
        "fit_rabi": lambda s: fitting.fit_rabi(trace(_rabi(s), pulse)),
        # noisy enough that the second FFT peak's start wins some seeds
        "fit_rabi noise=0.3": lambda s: fitting.fit_rabi(
            trace(_rabi(s, 0.3), pulse)),
        "fit_gaussian_peak": lambda s: fitting.fit_gaussian_peak(
            trace(_line(s), freq), min_snr=0.0),
        "snr_estimate line": lambda s: synth.snr_estimate(
            trace(_line(s), freq)),
        "snr_estimate null": lambda s: synth.snr_estimate(
            trace(_line(s, 0.0), freq)),
        **{f"fit_deer_rabi n={n}": (lambda s, n=n: fitting.fit_deer_rabi(
            trace(_pair(s), pulse), n)) for n in (1, 2, 3)},
        **{f"select_spin_count max_n={n}": (
            lambda s, n=n: fitting.select_spin_count(trace(_pair(s), pulse),
                                                     max_n=n))
           for n in (2, 3)},
    }


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


def _relative(a, b):
    return 0.0 if a == b else abs(b - a) / abs(a) if a else math.inf


def _errors(fit):
    """fit's 1-sigma errors, a list with None for each null one."""
    if fit.param_errors is None:
        return [None] * fit.params.size
    return [None if math.isnan(e) else e for e in fit.param_errors.tolist()]


def _moves(a, b):
    """(sigma move, relative change, best_n and error changes), a to b."""
    if isinstance(a, float):  # an SNR
        return 0.0, _relative(a, b), 0, 0
    if hasattr(a, "entries"):  # a selection: every count's fit
        fits = [(a.entries[n].fit, b.entries[n].fit) for n in a.entries]
        changed = int(a.best_n != b.best_n)
    else:
        fits, changed = [(a, b)], 0
    sigma, errors = 0.0, 0
    for fa, fb in fits:
        if fa.param_errors is not None:
            step = np.abs(fb.params - fa.params)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where((step == 0) | np.isnan(fa.param_errors),
                                 0.0, step / fa.param_errors)
            sigma = max(sigma, float(ratio.max()))
        errors += sum(ea != eb for ea, eb in zip(_errors(fa), _errors(fb)))
    return sigma, max(_relative(fa.ss_res, fb.ss_res) for fa, fb in fits), \
        changed, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="also fit with the nvsense under OTHER_SRC and "
                             "print how far each family moved")
    args = parser.parse_args(argv)
    mine = families(*_load(SRC))
    if args.against is None:
        for name, fit in mine.items():
            digest = hashlib.sha256()
            for seed in SEEDS:
                digest.update(_bits(fit(seed)))
            print(f"{name:28s} {digest.hexdigest()}")
        return
    other = families(*_load(pathlib.Path(args.against).resolve()))
    print(f"{'family':28s} {'sigma':>9s} {'ss_res':>9s} {'best_n':>6s} "
          f"{'errors':>6s}")
    for name, fit in mine.items():
        moves = [_moves(fit(seed), other[name](seed)) for seed in SEEDS]
        sigma, rel = (max(m[i] for m in moves) for i in (0, 1))
        print(f"{name:28s} {sigma:9.3g} {rel:9.3g} "
              f"{sum(m[2] for m in moves):6d} {sum(m[3] for m in moves):6d}")


if __name__ == "__main__":
    main()
