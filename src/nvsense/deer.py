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

from .core import TWO_PI, DEFAULT_CONSTANTS


@dataclass(frozen=True)
class TargetSpin:
    """Geometry of one g~2 electron spin relative to the NV axis.

    r is the distance in nm, theta_d the angle between the inter-spin
    vector and the NV axis, sigma the projection (+1 or -1) used when a
    specific configuration is singled out.
    """

    r: float
    theta_d: float
    sigma: int = +1

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"r must be positive, got {self.r!r}")
        if not (math.isfinite(self.theta_d) and 0 <= self.theta_d <= math.pi):
            raise ValueError(f"theta_d must lie in [0, pi], got {self.theta_d!r}")
        if self.sigma not in (-1, 1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma!r}")


def coupling_from_geometry(spin: TargetSpin) -> float:
    """Secular dipolar coupling omega (rad/us) for a spin at (r, theta_d).

    omega = 2 pi * prefactor * (3 cos^2(theta_d) - 1) / r^3, signed; it
    vanishes at the magic angle and is negative between the magic angle
    and 90 degrees.
    """
    c = math.cos(spin.theta_d)
    return (TWO_PI * DEFAULT_CONSTANTS.dipolar_prefactor * (3.0 * c * c - 1.0)
            / spin.r ** 3)


def deer_phase(omegas, sigmas, t_mw2: float, resonant: bool = True) -> float:
    """Echo phase sum_j omega_j sigma_j t accumulated over the MW2 window.

    Off resonance the targets never flip and the CPMG train refocuses
    their static field, so the phase is exactly zero.
    """
    omegas = np.asarray(omegas, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if omegas.shape != sigmas.shape:
        raise ValueError("omegas and sigmas must have matching shapes")
    if not np.all(np.isin(sigmas, (-1.0, 1.0))):
        raise ValueError("sigmas must be +1 or -1")
    if t_mw2 < 0:
        raise ValueError(f"t_mw2 must be >= 0, got {t_mw2!r}")
    if not resonant:
        return 0.0
    return float(np.sum(omegas * sigmas) * t_mw2)


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


def nv_epr_signal_grid(omegas, t0, t):
    """nv_epr_signal for many parameter sets at once, without validation.

    omegas is (s, n) in rad/us, t0 is (s,) in us (math.inf for no
    decay), t is (m,); returns the (s, m) signals.  Used inside fits,
    where the bounds already keep every parameter valid.
    """
    envelope = np.exp(-((t / t0[:, None]) ** 2))
    product = np.prod(np.cos(omegas[:, :, None] * t), axis=1)
    return 0.5 + 0.5 * envelope * product


def nv_epr_jacobian_grid(omegas, t0, t):
    """Closed-form derivatives of nv_epr_signal_grid, shape (s, m, n + 1).

    With E = exp(-(t/T0)^2) and C = prod_j cos(omega_j t):
        dI/domega_j = -1/2 E t sin(omega_j t) prod_{i != j} cos(omega_i t)
        dI/dT0      = C E t^2 / T0^3
    The last column is the T0 derivative.
    """
    n = omegas.shape[1]
    phase = omegas[:, :, None] * t
    cos, sin = np.cos(phase), np.sin(phase)
    envelope = np.exp(-((t / t0[:, None]) ** 2))
    jac = np.empty((omegas.shape[0], t.size, n + 1))
    # prod_{i != j} cos as (product of cos_i, i < j) (product, i > j)
    left = [np.ones_like(envelope)]
    for j in range(n):
        left.append(left[-1] * cos[:, j])
    right = -0.5 * envelope * t
    for j in reversed(range(n)):
        jac[:, :, j] = right * sin[:, j] * left[j]
        right = right * cos[:, j]
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


def gaussian_line(f, center, width, amplitude, baseline=0.0):
    """baseline + amplitude exp(-(f - center)^2 / (2 width^2)), unchecked.

    The one body of the Gaussian line: deer_spectrum, the peak fit and
    the synthesized resonance dips all evaluate it.
    """
    # a float's ** raises OverflowError past the float range, where the
    # same power of a numpy float is inf
    if isinstance(width, float):
        width = np.float64(width)
    d2, w2 = (f - center) ** 2, 2.0 * width ** 2
    # 0/0 at the center of a width whose square underflows: its limit is 0
    w2 = np.where((d2 == 0) & (w2 == 0), 1.0, w2)
    return baseline + amplitude * np.exp(-d2 / w2)


def deer_spectrum(f, model: DeerSpectrumModel):
    """Evaluate the Gaussian spectrum at frequency f (MHz)."""
    line = gaussian_line(np.asarray(f, dtype=float), model.center,
                         model.width, model.amplitude, model.baseline)
    return float(line) if np.ndim(f) == 0 else line
