"""Ready-made fixtures: a characterized sensing center and three controls.

The "coupled-pair" preset is a center with a pair of dark electron
spins, a weakly coupled carbon and the usual nitrogen and carbon bath;
"null-a/b/c" are centers with no coupled target spins, for null-result
and SNR studies.  `simulate_defaults` and `eseem_defaults` hold every
default of a CLI run, keyed as in its config; `build_sequence` and
`build_truth` turn complete sections into models.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, DEFAULT_CONSTANTS, FieldEstimate
from .deer import DeerSpectrumModel, TargetSpinModel
from .eseem import BathModel, load_hyperfine_table, nucleus_from_record
from .hamiltonian import TransitionPair, transition_frequencies
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


def carbon_bath(b0: float, b_rms: float = BATH_B_RMS_UT) -> BathModel:
    """Carbon-13 bath at field b0 (mT): RMS field b_rms (uT), 13C Larmor."""
    return BathModel(b_rms=b_rms,
                     omega_i=TWO_PI * DEFAULT_CONSTANTS.gamma_c13 * b0)


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

    b0: float          # mT
    t2_us: float
    contrast: float
    tau_us: float      # CPMG-DEER pulse spacing
    n_avg: int         # repetitions used in its swept-frequency run


NULL_CENTERS = {
    "null-a": NullCenter(b0=32.58, t2_us=17.0, contrast=0.166,
                         tau_us=1.4, n_avg=1_330_000),
    "null-b": NullCenter(b0=32.27, t2_us=40.0, contrast=0.127,
                         tau_us=4.2, n_avg=2_500_000),
    "null-c": NullCenter(b0=32.24, t2_us=24.0, contrast=0.134,
                         tau_us=1.6, n_avg=265_000),
}
PRESETS = ("coupled-pair",) + tuple(NULL_CENTERS)


def _sweep(start: float, stop: float, num: int) -> dict:
    return {"x_start": start, "x_stop": stop, "x_num": num, "channels": None}


_FIELD = main_field()
_F_MINUS = transition_frequencies(_FIELD.b0, _FIELD.theta).f_minus
# the coupled-pair sequence and truth of each kind, in config units and
# in the order errors list them; channels None is the kind's default set
_SEQUENCES = {
    SequenceKind.PULSED_ODMR: _sweep(_F_MINUS - 25.0, _F_MINUS + 25.0, 101),
    SequenceKind.RABI: _sweep(0.0, 2.0, 201),
    SequenceKind.CPMG8: {**_sweep(0.8, 64.0, 199), "n_pulses": 8},
    SequenceKind.CPMG_DEER: {**_sweep(880.0, 950.0, 101), "tau_us": 1.28},
    SequenceKind.DEER_RABI: {**_sweep(0.0, 1.0, 101), "tau_us": 1.28},
}
_TRUTHS = {
    SequenceKind.PULSED_ODMR: {
        "b0_mt": _FIELD.b0, "theta_deg": math.degrees(_FIELD.theta),
        "linewidth_mhz": OdmrTruth.linewidth_mhz,
        "transfer": OdmrTruth.transfer},
    SequenceKind.RABI: {"f_mhz": 5.50, "t0_us": 0.67},
    SequenceKind.CPMG8: {"b0_mt": _FIELD.b0, "nuclei": list(ECHO_NUCLEI),
                         "b_rms_ut": BATH_B_RMS_UT, "t2_us": 38.0},
    SequenceKind.CPMG_DEER: {"center_mhz": 914.7, "width_mhz": 9.0,
                             "amplitude": -0.3, "baseline": 0.5},
    SequenceKind.DEER_RABI: {"omegas_mhz": [1.12, 2.24], "t0_us": 0.34},
}
DEFAULT_N_AVG = {
    SequenceKind.PULSED_ODMR: 100_000,
    SequenceKind.RABI: 100_000,
    SequenceKind.CPMG8: 220_000,
    SequenceKind.CPMG_DEER: 1_325_000,
    SequenceKind.DEER_RABI: 1_260_000,
}


def simulate_defaults(kind: SequenceKind,
                      preset: str = "coupled-pair") -> dict:
    """A new {"sequence", "truth", "detector"} dict of `simulate` defaults.

    Values are in config units; the sequence and truth sections hold
    exactly the keys the kind reads.  A null preset takes its center's
    field, T2, pulse spacing, contrast and cpmg-deer n_avg, and has no
    coupled spins: no echo nuclei, a flat line, deer-rabi couplings None.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {PRESETS}")
    defaults = copy.deepcopy({
        "sequence": _SEQUENCES[kind], "truth": _TRUTHS[kind],
        "detector": {"contrast": CONTRAST, "n_avg": DEFAULT_N_AVG[kind]}})
    null = NULL_CENTERS.get(preset)
    if null is not None:
        overrides = {"b0_mt": null.b0, "t2_us": null.t2_us,
                     "tau_us": null.tau_us, "contrast": null.contrast,
                     "nuclei": [], "amplitude": 0.0, "omegas_mhz": None}
        if kind is SequenceKind.CPMG_DEER:
            overrides["n_avg"] = null.n_avg
        for section in defaults.values():
            section.update((key, value) for key, value in overrides.items()
                           if key in section)
    return defaults


# the grids of the eseem modes; echo sweeps the cpmg8 grid
_ESEEM_SWEEPS = {"modulation": _sweep(0.0, 2.5, 251),
                 "bath": _sweep(0.0, 4.0, 201),
                 "echo": _SEQUENCES[SequenceKind.CPMG8]}


def eseem_defaults(mode: str, custom: bool = False) -> dict:
    """Every default of an `eseem` mode, exactly the keys it reads.

    Each is the coupled-pair cpmg8 default of its key, the grid aside.
    `custom` is --mode modulation with its own hyperfine pair: a_mhz and
    b_mhz (None: the run gives them) and species replace nucleus.
    """
    truth = _TRUTHS[SequenceKind.CPMG8]
    defaults = {key: _ESEEM_SWEEPS[mode][key]
                for key in ("x_start", "x_stop", "x_num")}
    defaults.update(n_pulses=_SEQUENCES[SequenceKind.CPMG8]["n_pulses"],
                    b0_mt=truth["b0_mt"])
    if mode == "echo":
        defaults.update(copy.deepcopy(truth))
    elif mode == "bath":
        defaults["b_rms_ut"] = truth["b_rms_ut"]
    elif custom:
        defaults.update(a_mhz=None, b_mhz=None, species="13C")
    else:
        defaults["nucleus"] = truth["nuclei"][0]
    return defaults


def sweep_grid(section: dict) -> np.ndarray:
    """The grid of a section's x_start, x_stop and x_num."""
    if section["x_num"] < 2:
        raise ValueError("x_num must be at least 2")
    return np.linspace(section["x_start"], section["x_stop"],
                       section["x_num"])


def table_nuclei(labels, b0: float) -> tuple:
    """One EseemNucleus at field b0 (mT) per hyperfine table label."""
    table = load_hyperfine_table()
    for label in labels:
        if label not in table:
            raise ValueError(f"unknown nucleus {label!r}; table has "
                             f"{sorted(table)}")
    return tuple(nucleus_from_record(table[label], b0) for label in labels)


def build_sequence(kind: SequenceKind, sequence: dict) -> SequenceSpec:
    """The SequenceSpec of a kind from a complete sequence section."""
    # tau_us is SequenceSpec.tau; n_pulses and channels keep their names
    timing = {key.removesuffix("_us"): value
              for key, value in sequence.items() if not key.startswith("x_")}
    return SequenceSpec(kind=kind, grid=sweep_grid(sequence), **timing)


def build_truth(kind: SequenceKind, truth: dict):
    """The truth model of a kind from a complete truth section."""
    if kind is SequenceKind.PULSED_ODMR:
        return OdmrTruth(truth["b0_mt"], math.radians(truth["theta_deg"]),
                         truth["linewidth_mhz"], truth["transfer"])
    if kind is SequenceKind.RABI:
        return RabiTruth(truth["f_mhz"], truth["t0_us"])
    if kind is SequenceKind.CPMG8:
        b0 = truth["b0_mt"]
        return Cpmg8Truth(nuclei=table_nuclei(truth["nuclei"], b0),
                          bath=carbon_bath(b0, truth["b_rms_ut"]),
                          t2_us=truth["t2_us"])
    if kind is SequenceKind.CPMG_DEER:
        return DeerSpectrumModel(truth["center_mhz"], truth["width_mhz"],
                                 truth["amplitude"], truth["baseline"])
    if kind is SequenceKind.DEER_RABI:
        return TargetSpinModel(tuple(TWO_PI * f for f in truth["omegas_mhz"]),
                               truth["t0_us"])
    raise ValueError(f"unhandled kind {kind!r}")


def default_sequence(kind: SequenceKind) -> SequenceSpec:
    """Default sweep grid and timing per experiment kind."""
    return build_sequence(kind, simulate_defaults(kind)["sequence"])


def default_truth(kind: SequenceKind):
    return build_truth(kind, simulate_defaults(kind)["truth"])


# the coupled-pair truth of each kind: the resonance dips of the main
# center, its Rabi drive, its echo decay (weak carbon + nitrogen + bath,
# T2), the swept-frequency line of the dark spins and the spins' couplings
odmr_truth = functools.partial(default_truth, SequenceKind.PULSED_ODMR)
rabi_truth = functools.partial(default_truth, SequenceKind.RABI)
echo_truth = functools.partial(default_truth, SequenceKind.CPMG8)
epr_line = functools.partial(default_truth, SequenceKind.CPMG_DEER)
target_pair = functools.partial(default_truth, SequenceKind.DEER_RABI)
