"""Echo envelope modulation and bath decoherence under CPMG sequences.

A nuclear spin I=1/2 coupled to the NV electron spin sees an effective
field that depends on the electron projection m_S.  With secular and
pseudo-secular couplings A and B (rad/us) the two branch Hamiltonians are

    H_m = (omega_i + m A) Iz + m B Ix,

and the echo of a CPMG train of N pi pulses acquires a modulation V(tau)
built from the branch precession frequencies.  All angular frequencies
here are rad/us and times are us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, DEFAULT_CONSTANTS


@dataclass(frozen=True)
class EseemNucleus:
    """One nuclear spin: projected couplings plus its Larmor frequency.

    ms_alpha and ms_beta are the two electron projections between which
    the echo coherence lives; the NV work here uses (0, 1).
    """

    a: float        # rad/us, secular
    b: float        # rad/us, pseudo-secular
    omega_i: float  # rad/us, nuclear Larmor
    ms_alpha: float = 0.0
    ms_beta: float = 1.0

    def __post_init__(self):
        for name in ("a", "b", "omega_i", "ms_alpha", "ms_beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.omega_i < 0:
            raise ValueError(f"omega_i must be >= 0, got {self.omega_i!r}")

    def branch_frequency(self, ms: float) -> float:
        """Nuclear precession frequency in the electron m_S branch."""
        return math.hypot(self.omega_i + ms * self.a, ms * self.b)


@dataclass(frozen=True)
class EseemSpectrum:
    """Branch and combination frequencies plus modulation coefficients."""

    omega_alpha: float
    omega_beta: float
    omega_plus: float
    omega_minus: float
    mu: float
    lam: float
    k: float


def eseem_spectrum(nucleus: EseemNucleus) -> EseemSpectrum:
    """Frequencies and coefficients entering the echo modulation.

    mu and lam are cos^2 and sin^2 of half the angle between the two
    branch quantization axes; the half-angles are taken with atan2 so the
    quadrant is right even when omega_i + m_S A goes negative.  The depth
    k = (B omega_i (ms_alpha - ms_beta) / (omega_alpha omega_beta))^2
    equals sin^2 of the full angle, so it always lands in [0, 1].
    """
    n = nucleus
    omega_alpha = n.branch_frequency(n.ms_alpha)
    omega_beta = n.branch_frequency(n.ms_beta)
    if omega_alpha * omega_beta == 0.0:
        raise ValueError(
            "a branch frequency vanishes (omega_alpha * omega_beta = 0); "
            "the modulation depth k is undefined at this working point")
    eta_alpha = math.atan2(n.ms_alpha * n.b, n.omega_i + n.ms_alpha * n.a)
    eta_beta = math.atan2(n.ms_beta * n.b, n.omega_i + n.ms_beta * n.a)
    half = 0.5 * (eta_alpha - eta_beta)
    mu = math.cos(half) ** 2
    lam = math.sin(half) ** 2
    k = (n.b * n.omega_i * (n.ms_alpha - n.ms_beta)
         / (omega_alpha * omega_beta)) ** 2
    return EseemSpectrum(
        omega_alpha=omega_alpha,
        omega_beta=omega_beta,
        omega_plus=omega_alpha + omega_beta,
        omega_minus=omega_alpha - omega_beta,
        mu=mu,
        lam=lam,
        k=min(k, 1.0),
    )


def eseem_modulation(tau, n_pulses: int, nucleus: EseemNucleus):
    """Closed-form echo modulation V(tau) for an even-N pi-pulse train.

    tau is the half-spacing of the sequence (pi pulses sit every 2 tau,
    total evolution time 2 N tau).  Scalar in, scalar out; array in,
    array out.  V is dimensionless in [-1, 1] and V(0) = 1.

    The envelope factor sin^2(N phi / 4) / sin^2(phi / 2) has a removable
    singularity where phi hits a multiple of 2 pi; it is replaced by its
    limit N^2 / 4 there.  The expansion below assumes the pulse train
    pairs up into identical two-pulse blocks, which holds for even N
    only; use density_matrix_eseem_oracle for odd pulse counts.
    """
    if not (isinstance(n_pulses, (int, np.integer)) and n_pulses >= 2
            and n_pulses % 2 == 0):
        raise ValueError(f"n_pulses must be an even integer >= 2, "
                         f"got {n_pulses!r}")
    tau_arr = np.asarray(tau, dtype=float)
    if np.any(tau_arr < 0):
        raise ValueError("tau must be >= 0")
    sp = eseem_spectrum(nucleus)
    t = tau_arr
    k, mu, lam = sp.k, sp.mu, sp.lam
    wa, wb = sp.omega_alpha, sp.omega_beta
    wp, wm = sp.omega_plus, sp.omega_minus

    cos_p, cos_m = np.cos(wp * t), np.cos(wm * t)
    cos_half_phi = np.clip(mu * cos_p + lam * cos_m, -1.0, 1.0)
    phi = 2.0 * np.arccos(cos_half_phi)
    sin_half = np.sin(0.5 * phi)
    singular = np.abs(sin_half) < 1e-6
    denom = np.where(singular, 1.0, sin_half ** 2)
    envelope = np.where(singular, n_pulses ** 2 / 4.0,
                        np.sin(n_pulses * phi / 4.0) ** 2 / denom)

    bracket = (
        -0.75 * k
        + 0.5 * k * (np.cos(wa * t) + np.cos(wb * t))
        + 0.25 * k * (np.cos(2 * wa * t) + np.cos(2 * wb * t))
        + 0.5 * k * (mu - lam) * (cos_p - cos_m)
        + 0.25 * k * mu * np.cos(2 * wp * t)
        + 0.25 * k * lam * np.cos(2 * wm * t)
        - 0.5 * k * mu * (np.cos((wp + wa) * t) + np.cos((wp + wb) * t))
        - 0.5 * k * lam * (np.cos((wm + wa) * t) + np.cos((wm - wb) * t))
    )
    v = 1.0 + envelope * bracket
    return float(v) if np.ndim(tau) == 0 else v


def _row_product(a, b, c, d):
    """First row of [[a, b], [-b*, a*]] @ [[c, d], [-d*, c*]]."""
    return a * c - b * d.conj(), a * d + b * c.conj()


def density_matrix_eseem_oracle(tau, n_pulses: int, nucleus: EseemNucleus):
    """Echo modulation by direct propagation of the nuclear spin.

    Brute-force reference for eseem_modulation, sharing none of its
    algebra: each branch Hamiltonian (a real symmetric 2x2) is
    diagonalized once, H = W diag(lam) W^T, which gives the propagator
    U(tau) = W diag(exp(-i lam tau)) W^T at every tau together; its
    square is the 2tau propagator.  The ket path starts in the ms_alpha
    branch and the bra path in ms_beta; each pi pulse swaps them along
    the interval pattern [tau, 2tau, ..., 2tau, tau].

    H is traceless, so U and every product of such propagators has the
    form [[a, b], [-b*, a*]] and is carried as its first row (a, b):
    (a, b)(c, d) = (ac - bd*, ad + bc*), and
    V = Re Tr[G_ket G_bra^dag] / 2 = Re(a_ket a_bra* + b_ket b_bra*).
    Works for any n_pulses >= 1, at n_pulses + 1 elementwise products
    over the whole grid.  Scalar in, scalar out; array in, array of the
    same shape out.
    """
    if not (isinstance(n_pulses, (int, np.integer)) and n_pulses >= 1):
        raise ValueError(f"n_pulses must be a positive integer, got {n_pulses!r}")
    tau_arr = np.asarray(tau, dtype=float)
    if np.any(tau_arr < 0):
        raise ValueError("tau must be >= 0")
    n = nucleus
    # H_m = (omega_i + m A) Iz + m B Ix for m = ms_alpha, ms_beta
    h = np.array([[[0.5 * (n.omega_i + ms * n.a), 0.5 * ms * n.b],
                   [0.5 * ms * n.b, -0.5 * (n.omega_i + ms * n.a)]]
                  for ms in (n.ms_alpha, n.ms_beta)])
    lam, w = np.linalg.eigh(h)
    phase = np.exp(-1j * lam[:, None, :] * tau_arr.reshape(-1, 1))
    # [branch, grid point, column]: U[0, j] = sum_k W[0, k] W[j, k] phase_k
    row = phase @ (w[:, 0, :, None] * np.swapaxes(w, -1, -2))
    a1, b1 = row[..., 0], row[..., 1]
    a2, b2 = _row_product(a1, b1, a1, b1)
    # [0] is the ket path, [1] the bra path; on odd intervals they swap
    a, b = a1, b1
    for j in range(1, n_pulses):
        c, d = (a2, b2) if j % 2 == 0 else (a2[::-1], b2[::-1])
        a, b = _row_product(c, d, a, b)
    c, d = (a1, b1) if n_pulses % 2 == 0 else (a1[::-1], b1[::-1])
    a, b = _row_product(c, d, a, b)
    v = np.real(a[0] * a[1].conj() + b[0] * b[1].conj())
    return float(v[0]) if np.ndim(tau) == 0 else v.reshape(tau_arr.shape)


@dataclass(frozen=True)
class BathModel:
    """Gaussian nuclear bath: RMS field (uT) and bath Larmor (rad/us)."""

    b_rms: float
    omega_i: float

    def __post_init__(self):
        if not (math.isfinite(self.b_rms) and self.b_rms >= 0):
            raise ValueError(f"b_rms must be >= 0 uT, got {self.b_rms!r}")
        if not (math.isfinite(self.omega_i) and self.omega_i >= 0):
            raise ValueError(f"omega_i must be >= 0, got {self.omega_i!r}")


def electron_gamma_per_ut() -> float:
    """NV gyromagnetic ratio in rad/(us uT), for the bath filter."""
    return TWO_PI * DEFAULT_CONSTANTS.gamma_nv * 1e-3


def bath_decoherence(tau, bath: BathModel, n_pulses: int):
    """Coherence C(tau) of an N = n_pulses CPMG train in a Gaussian bath.

    C = exp[-(2/pi^2) gamma_e^2 B_rms^2 K], gamma_e the NV gyromagnetic
    ratio (electron_gamma_per_ut), with the filter
    K = (N tau)^2 sinc^2[(N tau / 2)(omega_i - pi / tau)], which peaks
    (deepest decoherence) where the pulse spacing is resonant with the
    bath Larmor precession, omega_i = pi / tau.  C(0) = 1 by the limit.
    Raises ValueError where K or B_rms^2 leaves the float range, which
    takes tau, N, omega_i or B_rms far past any physical value.
    """
    if not (isinstance(n_pulses, (int, np.integer)) and n_pulses >= 1):
        raise ValueError(f"n_pulses must be a positive integer, "
                         f"got {n_pulses!r}")
    tau_arr = np.asarray(tau, dtype=float)
    if not np.all(tau_arr >= 0):
        raise ValueError("tau must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        detune = bath.omega_i - np.pi / tau_arr
        arg = 0.5 * n_pulses * tau_arr * detune
        filt = (n_pulses * tau_arr) ** 2 * np.sinc(arg / np.pi) ** 2
        # pi / tau overflows at tau = 0 and subnormal tau: the K -> 0 limit
        filt = np.where(np.isinf(detune), 0.0, filt)
        rate = (2.0 / np.pi ** 2) * electron_gamma_per_ut() ** 2 * np.float64(
            bath.b_rms) ** 2
        if not (np.isfinite(rate) and np.all(np.isfinite(filt))):
            raise ValueError("the bath filter leaves the float range at "
                             "these tau, n_pulses and bath values")
        c = np.exp(-rate * filt)  # past the float range, C = 0
    return float(c) if np.ndim(tau) == 0 else c


def cpmg_echo_model(t_total, nuclei, bath: BathModel | None, t2: float,
                    n_pulses: int = 8):
    """Echo coherence s(t) of a CPMG train versus total evolution time.

    t_total = 2 N tau covers all free evolution periods.  The model is
    the product of an exponential T2 decay, the bath filter C(tau) and
    the single-nucleus modulations V_i(tau):

        s(t) = exp(-t / T2) * C(t / 2N) * prod_i V_i(t / 2N)

    s lies in [-1, 1]; the measured population channel is (1 + s) / 2.
    """
    if not (math.isfinite(t2) and t2 > 0):
        raise ValueError(f"t2 must be positive, got {t2!r}")
    if n_pulses % 2 != 0 or n_pulses < 2:
        raise ValueError(f"n_pulses must be even and >= 2, got {n_pulses!r}")
    t_arr = np.asarray(t_total, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError(
            "t_total must be >= 0; the grid is inconsistent with a "
            f"{n_pulses}-pulse train")
    tau = t_arr / (2.0 * n_pulses)
    s = np.exp(-t_arr / t2)
    if bath is not None:
        s = s * bath_decoherence(tau, bath, n_pulses)
    for nucleus in nuclei:
        s = s * eseem_modulation(tau, n_pulses, nucleus)
    return float(s) if np.ndim(t_total) == 0 else s


@dataclass(frozen=True)
class HyperfineRecord:
    """Tabulated couplings for a named nuclear site, in ordinary MHz."""

    label: str
    species: str  # "13C" or "14N"
    a_mhz: float  # secular projection A
    b_mhz: float  # pseudo-secular projection B
    note: str = ""


# the nuclear sites coupled to the NV electron spin
_HYPERFINE_TABLE = (
    HyperfineRecord("nearest-13c", "13C", 921.080, -229.240,
                    "first-shell carbon, site-resolved"),
    HyperfineRecord("second-13c", "13C", 94.288, -15.498,
                    "second-shell carbon, site-resolved"),
    HyperfineRecord("near-13c", "13C", 0.314, 2.827,
                    "weakly coupled carbon seen in echo modulation"),
    HyperfineRecord("14n", "14N", -13.459, 0.214,
                    "intrinsic nitrogen of the center"),
)


def load_hyperfine_table() -> dict[str, HyperfineRecord]:
    """A new {label: record} dict of the nuclear sites near the NV."""
    return {record.label: record for record in _HYPERFINE_TABLE}


def nucleus_from_record(record: HyperfineRecord, b0: float) -> EseemNucleus:
    """Build an EseemNucleus for a tabulated site at field b0 (mT)."""
    gamma_n = (DEFAULT_CONSTANTS.gamma_c13 if record.species == "13C"
               else DEFAULT_CONSTANTS.gamma_n14)
    return EseemNucleus(a=TWO_PI * record.a_mhz,
                        b=TWO_PI * record.b_mhz,
                        omega_i=TWO_PI * gamma_n * b0)
