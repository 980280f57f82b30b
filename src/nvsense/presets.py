"""Ready-made fixtures: a characterized sensing center and three controls.

The "coupled-pair" preset is a center with a pair of dark electron
spins, a weakly coupled carbon and the usual nitrogen and carbon bath;
"null-a/b/c" are centers with no coupled target spins, for null-result
and SNR studies.  These are defaults for the CLI and test fixtures, all
overridable per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, DEFAULT_CONSTANTS, FieldEstimate
from .deer import DeerSpectrumModel, TargetSpinModel
from .eseem import BathModel, load_hyperfine_table, nucleus_from_record
from .hamiltonian import TransitionPair
from .synth import (Cpmg8Truth, DetectorModel, OdmrTruth, RabiTruth,
                    SequenceKind, SequenceSpec)

# Measured resonance pair of the main center and its 1-sigma errors (MHz).
MAIN_TRANSITIONS = TransitionPair(f_minus=1960.00, f_plus=3783.39)
MAIN_TRANSITION_ERRORS = (6.78, 3.39)

BATH_B_RMS_UT = 4.0  # RMS field of the carbon bath at natural abundance
ECHO_NUCLEI = ("near-13c", "14n")  # hyperfine table labels seen in the echo
CONTRAST = 0.166  # readout contrast of the main center


def main_field() -> FieldEstimate:
    return FieldEstimate(b0=32.59, theta=math.radians(3.5),
                         b0_err=0.02, theta_err=math.radians(0.8))


def rabi_truth() -> RabiTruth:
    return RabiTruth(f_mhz=5.50, t0_us=0.67)


def target_pair() -> TargetSpinModel:
    """The two dark electron spins coupled to the main center."""
    return TargetSpinModel(omegas=(TWO_PI * 1.12, TWO_PI * 2.24), t0=0.34)


def epr_line() -> DeerSpectrumModel:
    """Swept-frequency resonance of the dark spins, in coherence units."""
    return DeerSpectrumModel(center=914.7, width=9.0, amplitude=-0.3,
                             baseline=0.5)


def carbon_bath(b0: float, constants=DEFAULT_CONSTANTS,
                b_rms: float = BATH_B_RMS_UT) -> BathModel:
    """Carbon-13 bath at field b0 (mT): RMS field b_rms (uT), 13C Larmor."""
    return BathModel(b_rms=b_rms, omega_i=TWO_PI * constants.gamma_c13 * b0)


def echo_truth(constants=DEFAULT_CONSTANTS) -> Cpmg8Truth:
    """Echo decay of the main center: weak carbon + nitrogen + bath, T2."""
    table = load_hyperfine_table()
    b0 = main_field().b0
    nuclei = tuple(nucleus_from_record(table[label], b0, constants)
                   for label in ECHO_NUCLEI)
    return Cpmg8Truth(nuclei=nuclei, bath=carbon_bath(b0, constants),
                      t2_us=38.0)


def odmr_truth() -> OdmrTruth:
    field = main_field()
    return OdmrTruth(b0=field.b0, theta=field.theta)


def detector(n_avg: int, contrast: float = CONTRAST, seed: int = 1,
             noiseless: bool = False,
             n_avg_is_total: bool = False) -> DetectorModel:
    """Detector with DetectorModel's bright counts and a given contrast."""
    bright = DetectorModel.counts_bright
    return DetectorModel(counts_bright=bright,
                         counts_dark=bright * (1.0 - contrast),
                         n_avg=n_avg, seed=seed, noiseless=noiseless,
                         n_avg_is_total=n_avg_is_total)


@dataclass(frozen=True)
class NullCenter:
    """A control center with no resolvable coupled spins."""

    name: str
    b0: float          # mT
    t2_us: float
    contrast: float
    tau_us: float      # CPMG-DEER pulse spacing
    n_avg: int         # repetitions used in its swept-frequency run


NULL_CENTERS = {
    "null-a": NullCenter("null-a", b0=32.58, t2_us=17.0, contrast=0.166,
                         tau_us=1.4, n_avg=1_330_000),
    "null-b": NullCenter("null-b", b0=32.27, t2_us=40.0, contrast=0.127,
                         tau_us=4.2, n_avg=2_500_000),
    "null-c": NullCenter("null-c", b0=32.24, t2_us=24.0, contrast=0.134,
                         tau_us=1.6, n_avg=265_000),
}


def default_sequence(kind: SequenceKind,
                     constants=DEFAULT_CONSTANTS) -> SequenceSpec:
    """Default sweep grid per experiment kind."""
    if kind is SequenceKind.PULSED_ODMR:
        from .hamiltonian import transition_frequencies
        field = main_field()
        pair = transition_frequencies(field.b0, field.theta, constants)
        grid = np.linspace(pair.f_minus - 25.0, pair.f_minus + 25.0, 101)
        return SequenceSpec(kind=kind, grid=grid)
    if kind is SequenceKind.RABI:
        return SequenceSpec(kind=kind, grid=np.linspace(0.0, 2.0, 201))
    if kind is SequenceKind.CPMG8:
        return SequenceSpec(kind=kind, grid=np.linspace(0.8, 64.0, 199),
                            n_pulses=8)
    if kind is SequenceKind.CPMG_DEER:
        return SequenceSpec(kind=kind, grid=np.linspace(880.0, 950.0, 101),
                            tau=1.28, n_pulses=8)
    if kind is SequenceKind.DEER_RABI:
        return SequenceSpec(kind=kind, grid=np.linspace(0.0, 1.0, 101),
                            tau=1.28, n_pulses=8)
    raise ValueError(f"unhandled kind {kind!r}")


DEFAULT_N_AVG = {
    SequenceKind.PULSED_ODMR: 100_000,
    SequenceKind.RABI: 100_000,
    SequenceKind.CPMG8: 220_000,
    SequenceKind.CPMG_DEER: 1_325_000,
    SequenceKind.DEER_RABI: 1_260_000,
}


def default_truth(kind: SequenceKind, constants=DEFAULT_CONSTANTS):
    if kind is SequenceKind.PULSED_ODMR:
        return odmr_truth()
    if kind is SequenceKind.RABI:
        return rabi_truth()
    if kind is SequenceKind.CPMG8:
        return echo_truth(constants)
    if kind is SequenceKind.CPMG_DEER:
        return epr_line()
    if kind is SequenceKind.DEER_RABI:
        return target_pair()
    raise ValueError(f"unhandled kind {kind!r}")
