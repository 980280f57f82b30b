"""Simulation and analysis toolkit for single NV-center sensing experiments.

Forward models: pulsed ODMR, Rabi, CPMG echo with nuclear modulation and
a nuclear-bath filter, echo-detected EPR spectra, and coherent
target-spin driving, all with photon shot noise.  Inversion: resonance
fitting, field reconstruction, coupling recovery, and spin-count model
selection.

Unit conventions are documented in :mod:`nvsense.core`.
"""

__version__ = "0.1.0"

from .core import (DEFAULT_CONSTANTS, TWO_PI, ConfigError,
                   DegenerateReferenceError, DegenerateTransitionError,
                   FieldEstimate, NoPeakError, NvSenseError,
                   PhysicalConstants, Trace, TraceFormatError, XKind,
                   spin1_operators)
from .hamiltonian import (TransitionPair, build_hamiltonian, g_value,
                          invert_field, transition_frequencies)
from .eseem import (BathModel, EseemNucleus, EseemSpectrum, HyperfineRecord,
                    bath_decoherence, cpmg_echo_model,
                    density_matrix_eseem_oracle, electron_gamma_per_ut,
                    eseem_modulation, eseem_spectrum, load_hyperfine_table,
                    nucleus_from_record)
from .deer import (DeerSpectrumModel, TargetSpinModel, deer_spectrum,
                   nv_epr_signal, statistical_average_bruteforce)
from .fitting import (FitProblem, FitResult, SpinCountEntry,
                      SpinCountSelection, adjusted_r_squared, fit_deer_rabi,
                      fit_gaussian_peak, fit_rabi, nlls_fit,
                      select_spin_count)
from .synth import (Cpmg8Truth, DetectorModel, OdmrTruth, RabiTruth,
                    SequenceKind, SequenceSpec, coherence_trace,
                    difference_signal, normalize_channels,
                    normalized_channels, snr_estimate, synthesize)
from .io import (read_json, read_trace, trace_from_csv, trace_to_csv,
                 write_columns, write_json, write_trace)

__all__ = [
    "__version__",
    # core
    "DEFAULT_CONSTANTS", "TWO_PI", "ConfigError",
    "DegenerateReferenceError", "DegenerateTransitionError", "FieldEstimate",
    "NoPeakError", "NvSenseError", "PhysicalConstants", "Trace",
    "TraceFormatError", "XKind", "spin1_operators",
    # hamiltonian
    "TransitionPair", "build_hamiltonian", "g_value", "invert_field",
    "transition_frequencies",
    # eseem
    "BathModel", "EseemNucleus", "EseemSpectrum", "HyperfineRecord",
    "bath_decoherence", "cpmg_echo_model", "density_matrix_eseem_oracle",
    "electron_gamma_per_ut", "eseem_modulation", "eseem_spectrum",
    "load_hyperfine_table", "nucleus_from_record",
    # deer
    "DeerSpectrumModel", "TargetSpinModel", "deer_spectrum", "nv_epr_signal",
    "statistical_average_bruteforce",
    # fitting
    "FitProblem", "FitResult", "SpinCountEntry", "SpinCountSelection",
    "adjusted_r_squared", "fit_deer_rabi", "fit_gaussian_peak", "fit_rabi",
    "nlls_fit", "select_spin_count",
    # synth
    "Cpmg8Truth", "DetectorModel", "OdmrTruth", "RabiTruth", "SequenceKind",
    "SequenceSpec", "coherence_trace", "difference_signal",
    "normalize_channels", "normalized_channels", "snr_estimate", "synthesize",
    # io
    "read_json", "read_trace", "trace_from_csv", "trace_to_csv",
    "write_columns", "write_json", "write_trace",
]
