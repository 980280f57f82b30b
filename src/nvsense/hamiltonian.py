"""Ground-state S=1 Hamiltonian of the NV center in a tilted static field.

H = gamma_nv * B0 * (sin(theta) Sx + cos(theta) Sz) + D * Sz^2, in MHz,
written in the zero-field basis {|+1>, |0>, |-1>}.  theta is the polar
angle between the field and the NV symmetry axis; the azimuthal angle is
irrelevant for the spectrum and is fixed to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_CONSTANTS, SX, SZ, DegenerateTransitionError,
                   FieldEstimate)


@dataclass(frozen=True)
class TransitionPair:
    """The two |0> -> |+-1> resonance frequencies, MHz."""

    f_minus: float
    f_plus: float

    def __post_init__(self):
        if not (math.isfinite(self.f_minus) and math.isfinite(self.f_plus)):
            raise ValueError("transition frequencies must be finite")
        if not 0.0 < self.f_minus < self.f_plus:
            raise ValueError(
                f"need 0 < f_minus < f_plus, got ({self.f_minus}, {self.f_plus}); "
                "outside the B0 < D/gamma regime this labelling breaks down")


def build_hamiltonian(b0: float, theta: float) -> np.ndarray:
    """Zeeman + zero-field-splitting Hamiltonian (MHz), a read-only array."""
    if not (math.isfinite(b0) and b0 >= 0):
        raise ValueError(f"b0 must be finite and >= 0 mT, got {b0!r}")
    if not (math.isfinite(theta) and 0 <= theta <= math.pi / 2):
        raise ValueError(f"theta must lie in [0, pi/2] rad, got {theta!r}")
    gb = DEFAULT_CONSTANTS.gamma_nv * b0
    if not math.isfinite(gb):
        raise ValueError(f"b0 = {b0!r} mT overflows the Zeeman term")
    h = gb * (math.sin(theta) * SX + math.cos(theta) * SZ)
    h = h + DEFAULT_CONSTANTS.zero_field_d * (SZ @ SZ)
    h.setflags(write=False)
    return h


def transition_frequencies(b0: float, theta: float) -> TransitionPair:
    """Resonances |0> -> |-1> (f_minus) and |0> -> |+1> (f_plus), MHz.

    The |0>-like eigenstate is the one with the largest |0> component
    (an overlap tie is the spec'd degeneracy signal).  The remaining
    pair is labelled by energy, the lower as |-1> and the higher as
    |+1>: this agrees with labelling by overlap wherever that is
    defined, and stays defined at theta = pi/2, where the two states
    carry equal |+-1> character.
    """
    w, v = np.linalg.eigh(build_hamiltonian(b0, theta))
    overlap_0 = np.abs(v[1]) ** 2  # |<0|v>|^2 of each eigenvector
    _, second, first = np.sort(overlap_0)
    if first - second <= 1e-9:
        raise DegenerateTransitionError(
            f"two eigenstates carry equal |0> character (overlaps {first:.6f}"
            f" vs {second:.6f}); labels are ambiguous at this field")
    idx0 = int(np.argmax(overlap_0))
    lower, upper = (idx for idx in range(3) if idx != idx0)  # w ascends
    try:
        return TransitionPair(f_minus=float(w[lower]) - float(w[idx0]),
                              f_plus=float(w[upper]) - float(w[idx0]))
    except ValueError as exc:
        # e.g. zero field, where the |+-1> pair is exactly degenerate
        raise DegenerateTransitionError(str(exc)) from None


def invert_field(pair: TransitionPair,
                 freq_errors: tuple[float, float] = (0.0, 0.0),
                 b_max: float = 300.0) -> FieldEstimate:
    """Recover (B0, theta) from a measured transition pair, in closed form.

    The eigenvalue invariants of the axial S=1 Hamiltonian give, with
    s = f-^2 + f+^2 - f- f+,

        B0^2     = (s - D^2) / (3 gamma^2),
        cos 2theta = [7D^3 + 2(f- + f+)(2f-^2 + 2f+^2 - 5f- f+) - 3Ds]
                     / [9D(s - D^2)]

    (Balasubramanian et al., Nature 455, 648 (2008); Doherty et al.,
    Phys. Rep. 528, 1 (2013)).  freq_errors (1 sigma, MHz, independent)
    propagate through the analytic gradients of B0 and c = cos 2theta;
    theta_err = sigma_c / (2 |sin 2theta|), capped at pi/2, the whole
    theta domain, which also covers sin 2theta = 0.

    Raises ValueError on freq_errors that are negative or not finite,
    on a b_max that is not finite, and when no correctly labelled field
    within b0 <= b_max produces the pair: s <= D^2, B0 > b_max, |c| > 1
    by more than sigma_c plus the rounding allowance 16 eps T, or a
    field whose |0>-like level is not the one the pair puts at
    E0 = (2D - f- - f+) / 3.  T is the sum of the magnitudes of the
    terms of the c quotient divided by its denominator.  On forward-map
    pairs at theta = 0 and 1e-7 rad below 90 deg, B0 in [1, 90] mT, c
    errs by at most 1.9 eps T.  Inside the allowance c is clamped to
    +-1, so a noisy pair near zero tilt still inverts to theta = 0.
    The |0> character of the level at energy l grows with
    w = a^2 b^2 / (a^2 + b^2), a, b = D +- b_z - l (w = 0 where both
    vanish), so E0 must have the largest w.  Past D / gamma on axis,
    where transition_frequencies raises (f_minus < 0), it does not.
    """
    sig_m, sig_p = (float(freq_errors[0]), float(freq_errors[1]))
    if not (sig_m >= 0 and sig_p >= 0 and math.isfinite(sig_m + sig_p)):
        raise ValueError(f"freq_errors must be finite and non-negative, "
                         f"got {freq_errors!r}")
    if not math.isfinite(b_max):
        raise ValueError(f"b_max must be finite, got {b_max!r}")
    d, gamma = DEFAULT_CONSTANTS.zero_field_d, DEFAULT_CONSTANTS.gamma_nv
    fm, fp = pair.f_minus, pair.f_plus
    s = fm * fm + fp * fp - fm * fp
    if s <= d * d:
        raise ValueError(
            f"f_minus^2 + f_plus^2 - f_minus f_plus = {s:.6g} MHz^2 is not "
            f"above D^2 = {d * d:.6g} MHz^2; no field produces this pair")
    b0 = math.sqrt((s - d * d) / 3.0) / gamma
    if b0 > b_max:
        raise ValueError(f"the pair needs B0 = {b0:.3f} mT, above b_max = "
                         f"{b_max} mT")
    u, q = fm + fp, 2.0 * fm * fm + 2.0 * fp * fp - 5.0 * fm * fp
    den = 9.0 * d * (s - d * d)
    c = (7.0 * d ** 3 + 2.0 * u * q - 3.0 * d * s) / den

    # gradients of s and of the c numerator with respect to (f-, f+)
    ds = (2.0 * fm - fp, 2.0 * fp - fm)
    dnum = (2.0 * q + 2.0 * u * (4.0 * fm - 5.0 * fp) - 3.0 * d * ds[0],
            2.0 * q + 2.0 * u * (4.0 * fp - 5.0 * fm) - 3.0 * d * ds[1])
    dc = [(dn - c * 9.0 * d * dsi) / den for dn, dsi in zip(dnum, ds)]
    sig_c = math.hypot(dc[0] * sig_m, dc[1] * sig_p)
    rounding = 16.0 * np.finfo(float).eps * (
        7.0 * d ** 3 + abs(2.0 * u * q) + 3.0 * d * s
        + 9.0 * d * (s + d * d)) / den
    if abs(c) > 1.0 + sig_c + rounding:
        raise ValueError(
            f"the pair needs cos(2 theta) = {c:.6g}, outside [-1, 1] by more "
            f"than its error {sig_c:.3g}; no field tilt produces this pair")
    c = min(max(c, -1.0), 1.0)
    theta = 0.5 * math.acos(c)
    bz, e0 = gamma * b0 * math.cos(theta), (2.0 * d - fm - fp) / 3.0
    weight = []
    for level in (e0, e0 + fm, e0 + fp):
        a, b = d + bz - level, d - bz - level
        weight.append(a * a * b * b / (a * a + b * b) if a or b else 0.0)
    if not weight[0] >= max(weight[1:]):
        raise ValueError(
            f"the pair needs B0 = {b0:.3f} mT at theta = "
            f"{math.degrees(theta):.2f} deg, where the |0> level is not at "
            f"(2D - f_minus - f_plus) / 3; no correctly labelled field "
            f"produces this pair")

    b0_err = theta_err = 0.0
    if sig_m > 0 or sig_p > 0:
        db = [dsi / (6.0 * gamma * gamma * b0) for dsi in ds]
        b0_err = math.hypot(db[0] * sig_m, db[1] * sig_p)
        slope = 2.0 * abs(math.sin(2.0 * theta))
        theta_err = (sig_c / slope if sig_c < slope * math.pi / 2
                     else math.pi / 2)
    return FieldEstimate(b0=b0, theta=theta, b0_err=b0_err,
                         theta_err=theta_err)


def g_value(f_res: float, b0: float) -> float:
    """Electron g-factor of a bare spin resonant at f_res (MHz) in b0 (mT)."""
    if not (math.isfinite(b0) and b0 > 0):
        raise ValueError(f"b0 must be positive, got {b0!r}")
    if not (math.isfinite(f_res) and f_res > 0):
        raise ValueError(f"f_res must be positive, got {f_res!r}")
    return f_res / (DEFAULT_CONSTANTS.mu_b_over_h * b0)
