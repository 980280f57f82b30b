"""Argument guards of the library's records and entry points.

Each case is one guard that no other test reaches, with the exact
message it raises; tools/line_coverage.py lists what is still unreached.
"""

import math

import numpy as np
import pytest

from nvsense.core import FieldEstimate, PhysicalConstants, Trace, XKind
from nvsense.deer import DeerSpectrumModel, TargetSpinModel, nv_epr_signal
from nvsense.eseem import (EseemNucleus, cpmg_echo_model,
                           density_matrix_eseem_oracle, eseem_modulation)
from nvsense.fitting import (FitProblem, fit_deer_rabi, fit_gaussian_peak,
                             fit_rabi, select_spin_count)
from nvsense.hamiltonian import TransitionPair
from nvsense.synth import Cpmg8Truth, DetectorModel, OdmrTruth

NUCLEUS = EseemNucleus(a=1.0, b=0.5, omega_i=2.0)


def _trace(n, kind=XKind.PULSE_LENGTH, y=None):
    x = np.linspace(0.0, 1.0, n)
    return Trace(x, kind, {"c": 0.5 + 0.1 * np.cos(9.0 * x) if y is None
                           else np.asarray(y, dtype=float)})


def _problem(**change):
    args = dict(model=lambda p, x: p[0] * x, x=[0.0, 1.0, 2.0],
                y=[0.0, 1.0, 2.0], init=[1.0], bounds=((0.0, 2.0),))
    args.update(change)
    return FitProblem(**args)


GUARDS = {
    "constants": (lambda: PhysicalConstants(gamma_nv=-1.0),
                  "gamma_nv must be finite and positive, got -1.0"),
    "field-error": (lambda: FieldEstimate(b0=1.0, theta=0.0, b0_err=-1.0),
                    "b0_err must be finite and >= 0, got -1.0"),
    "trace-one-point": (lambda: Trace(np.zeros(1), XKind.FREQUENCY,
                                      {"c": np.zeros(1)}),
                        "x must be a 1-d grid with at least 2 points"),
    "trace-kind": (lambda: Trace(np.arange(2.0), "frequency",
                                 {"c": np.zeros(2)}),
                   "x_kind must be an XKind, got 'frequency'"),
    "trace-no-channel": (lambda: Trace(np.arange(2.0), XKind.FREQUENCY, {}),
                         "trace needs at least one channel"),
    "spectrum": (lambda: DeerSpectrumModel(center=math.nan, width=1.0,
                                           amplitude=1.0),
                 "center must be finite"),
    "couplings": (lambda: TargetSpinModel(omegas=(math.inf,), t0=1.0),
                  "couplings must be finite"),
    "signal-time": (lambda: nv_epr_signal(
        TargetSpinModel(omegas=(1.0,), t0=1.0), [-1.0]), "t must be >= 0"),
    "nucleus": (lambda: EseemNucleus(a=math.nan, b=0.0, omega_i=1.0),
                "a must be finite"),
    "modulation-tau": (lambda: eseem_modulation([-1.0], 2, NUCLEUS),
                       "tau must be >= 0"),
    "oracle-pulses": (lambda: density_matrix_eseem_oracle([1.0], 0, NUCLEUS),
                      "n_pulses must be a positive integer, got 0"),
    "oracle-tau": (lambda: density_matrix_eseem_oracle([-1.0], 1, NUCLEUS),
                   "tau must be >= 0"),
    "echo-pulses": (lambda: cpmg_echo_model([1.0], (), None, 1.0, n_pulses=3),
                    "n_pulses must be even and >= 2, got 3"),
    "echo-time": (lambda: cpmg_echo_model([-1.0], (), None, 1.0),
                  "t_total must be >= 0; the grid is inconsistent with a "
                  "8-pulse train"),
    "pair": (lambda: TransitionPair(f_minus=math.nan, f_plus=1.0),
             "transition frequencies must be finite"),
    "cpmg8-nuclei": (lambda: Cpmg8Truth(nuclei=("13c",), bath=None,
                                        t2_us=1.0),
                     "nuclei must be EseemNucleus instances"),
    "contrast": (lambda: DetectorModel(counts_bright=0.05, counts_dark=0.0),
                 "contrast 1.0 must lie in (0, 1)"),
    "odmr-width": (lambda: OdmrTruth(b0=1.0, theta=0.0, linewidth_mhz=0.0),
                   "linewidth_mhz must be positive"),
    "problem-bounds": (lambda: _problem(bounds=((0.0, 2.0), (0.0, 2.0))),
                       "need one (low, high) pair per parameter"),
    "problem-max-iter": (lambda: _problem(max_iter=0),
                         "max_iter must be >= 1"),
    "peak-points": (lambda: fit_gaussian_peak(_trace(7, XKind.FREQUENCY)),
                    "need at least 8 points to fit a peak, got 7"),
    "rabi-points": (lambda: fit_rabi(_trace(5)), "need at least 6 points, got 5"),
    "deer-rabi-points": (lambda: fit_deer_rabi(_trace(5), n_spins=3),
                         "not enough points for this many spins"),
    "flat-selection": (lambda: select_spin_count(_trace(20, y=np.full(20, 0.5))),
                       "channel has no dynamic range above its median"),
}


@pytest.mark.parametrize("case", list(GUARDS))
def test_guard_raises_its_message(case):
    call, message = GUARDS[case]
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
