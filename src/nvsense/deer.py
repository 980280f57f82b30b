"""Dipolar coupling to dark electron spins and the double-resonance signal.

The NV echo picks up a phase from each target electron spin that the
second microwave tone flips.  Because the targets are unpolarized, the
observable is a statistical average over their up/down configurations,
which factorizes into a product of cosines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def statistical_average_bruteforce(omegas, t):
    """<cos(sum_j omega_j sigma_j t)> over all 2^N sign configurations.

    Direct enumeration, exponential in the spin count; reference for the
    product-of-cosines identity used by nv_epr_signal.  Capped at 20
    spins to keep memory finite.  t may be a scalar or an array.
    """
    omegas = np.asarray(omegas, dtype=float).ravel()
    n = omegas.size
    if n == 0:
        raise ValueError("need at least one coupling")
    if n > 20:
        raise ValueError(f"brute force capped at 20 spins, got {n}")
    sums = np.zeros(1)
    for w in omegas:
        sums = np.concatenate([sums + w, sums - w])
    t = np.asarray(t, dtype=float)
    avg = np.mean(np.cos(np.multiply.outer(sums, t)), axis=0)
    return float(avg) if avg.ndim == 0 else avg


@dataclass(frozen=True)
class TargetSpinModel:
    """n coupled dark spins: couplings (rad/us) and echo decay T0 (us)."""

    omegas: tuple
    t0: float

    def __post_init__(self):
        omegas = tuple(float(w) for w in self.omegas)
        if not 1 <= len(omegas) <= 5:
            raise ValueError(
                f"model supports 1 to 5 target spins, got {len(omegas)}")
        if not all(math.isfinite(w) for w in omegas):
            raise ValueError("couplings must be finite")
        if not self.t0 > 0:  # math.inf allowed: no decay
            raise ValueError(f"t0 must be positive, got {self.t0!r}")
        object.__setattr__(self, "omegas", omegas)

    @property
    def n_spins(self) -> int:
        return len(self.omegas)


def nv_epr_signal(model: TargetSpinModel, t):
    """Normalized double-resonance signal versus MW2 interaction time.

        I(t) = 1/2 + 1/2 exp(-(t/T0)^2) prod_j cos(omega_j t)

    The product form is the closed statistical average over unpolarized
    target configurations (see statistical_average_bruteforce).  I(0) = 1
    and I stays in [0, 1].  This is nv_epr_signal_grid on one parameter
    row, after checking t.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be >= 0")
    signal = nv_epr_signal_grid(np.array([model.omegas]), np.array([model.t0]),
                                t_arr.ravel())[0].reshape(t_arr.shape)
    return float(signal) if np.ndim(t) == 0 else signal


def nv_epr_signal_grid(omegas, t0, t, keep=False):
    """nv_epr_signal for many parameter sets at once, without validation.

    omegas is (s, n) in rad/us, t0 is (s,) in us (math.inf for no
    decay), t is (m,); returns the (s, m) signals.  Used inside fits,
    where the bounds already keep every parameter valid.  keep=True
    returns the pair (signals, kept) instead, kept = (phase, cos,
    envelope): the (s, n, m) phases omega_j t and their cosines and the
    (s, m) envelope, which nv_epr_jacobian_grid takes at the same
    parameters in place of computing them again.
    """
    phase = omegas[:, :, None] * t
    cos = np.cos(phase)
    envelope = np.exp(-((t / t0[:, None]) ** 2))
    signal = 0.5 + 0.5 * envelope * np.multiply.reduce(cos, axis=1)
    return (signal, (phase, cos, envelope)) if keep else signal


def nv_epr_jacobian_grid(omegas, t0, t, kept=None):
    """Closed-form derivatives of nv_epr_signal_grid, shape (s, m, n + 1).

    With E = exp(-(t/T0)^2) and C = prod_j cos(omega_j t):
        dI/domega_j = -1/2 E t sin(omega_j t) prod_{i != j} cos(omega_i t)
        dI/dT0      = C E t^2 / T0^3
    The last column is the T0 derivative.  kept is the (phase, cos,
    envelope) of nv_epr_signal_grid(omegas, t0, t, keep=True), computed
    here from omegas when None (omegas is read only then); either way
    the result has the same bits.  A coupling of 0 gives cos 1 and a
    zero column, and leaves every other column as it is without that
    coupling.  An empty product of the other cosines is left out, not
    multiplied by as ones: x * 1.0 is exactly x.
    """
    phase, cos, envelope = kept or nv_epr_signal_grid(omegas, t0, t,
                                                      keep=True)[1]
    sin = np.sin(phase)
    n = phase.shape[1]
    jac = np.empty((phase.shape[0], t.size, n + 1))
    # prod_{i != j} cos as (product of cos_i, i < j) (product, i > j);
    # left[0], the empty product, is never read
    left = [None, cos[:, 0]]
    for j in range(1, n):
        left.append(left[-1] * cos[:, j])
    right = -0.5 * envelope * t
    for j in range(n - 1, 0, -1):
        jac[:, :, j] = right * sin[:, j] * left[j]
        right = right * cos[:, j]
    jac[:, :, 0] = right * sin[:, 0]
    jac[:, :, n] = left[n] * envelope * t ** 2 / t0[:, None] ** 3
    return jac


@dataclass(frozen=True)
class DeerSpectrumModel:
    """Gaussian line of the swept-frequency double-resonance spectrum.

    center and width are in MHz; width is the Gaussian sigma (multiply
    by 2 sqrt(2 ln 2) ~ 2.355 for the FWHM).  amplitude and baseline are
    in the same normalized units as the difference signal.
    """

    center: float
    width: float
    amplitude: float
    baseline: float = 0.0

    def __post_init__(self):
        for name in ("center", "width", "amplitude", "baseline"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.width <= 0:
            raise ValueError(f"width must be positive, got {self.width!r}")


def gaussian_unit(f, center, width):
    """(exp(-(f - center)^2 / (2 width^2)), f - center), unchecked.

    The one body of the Gaussian line: the unit line e and the offset d
    it was taken at, which the peak fit's Jacobian reuses.
    gaussian_line, and through it deer_spectrum and the synthesized
    resonance dips, is baseline + amplitude e.
    """
    # squared by multiplication: numpy's scalar ** is not correctly
    # rounded, and a float's ** raises OverflowError past the float range
    d = f - center
    d2, w2 = d * d, 2.0 * (width * width)
    squares = np.ravel(w2).tolist()  # w2 has width's shape
    if math.inf in squares:
        # inf/inf where both squares overflow: divide before squaring
        # there; the other elements of the fallback are discarded
        both = np.isinf(d2) & np.isinf(w2)
        with np.errstate(all="ignore"):
            d2 = np.where(both, (d / width) ** 2 / 2.0, d2)
        w2 = np.where(both, 1.0, w2)
    # 0/0 at the center of a width whose square underflows: its limit is 0
    if 0.0 in squares:
        w2 = np.where((d2 == 0) & (w2 == 0), 1.0, w2)
    return np.exp(-d2 / w2), d


def gaussian_line(f, center, width, amplitude, baseline=0.0):
    """baseline + amplitude exp(-(f - center)^2 / (2 width^2)), unchecked.

    gaussian_unit's line, scaled and offset.
    """
    return baseline + amplitude * gaussian_unit(f, center, width)[0]


def deer_spectrum(f, model: DeerSpectrumModel):
    """Evaluate the Gaussian spectrum at frequency f (MHz)."""
    line = gaussian_line(np.asarray(f, dtype=float), model.center,
                         model.width, model.amplitude, model.baseline)
    return float(line) if np.ndim(f) == 0 else line
