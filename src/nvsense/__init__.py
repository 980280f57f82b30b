"""Simulation and analysis toolkit for single NV-center sensing experiments.

Forward models: pulsed ODMR, Rabi, CPMG echo with nuclear modulation and
a nuclear-bath filter, echo-detected EPR spectra, and coherent
target-spin driving, all with photon shot noise.  Inversion: resonance
fitting, field reconstruction, coupling recovery, and spin-count model
selection.

Submodules load on first use (PEP 562): ``import nvsense`` imports none
of them, and the first lookup of a public name or of a submodule
(``nvsense.fit_rabi``, ``nvsense.presets``) imports the one module that
defines it, so an error in a submodule surfaces there.  ``__all__``
lists the names of ``_EXPORTS``.  Unit conventions are documented in
:mod:`nvsense.core`.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; cli and presets export none
_EXPORTS = {
    "core": ("DEFAULT_CONSTANTS", "TWO_PI", "ConfigError",
             "DegenerateReferenceError", "DegenerateTransitionError",
             "FieldEstimate", "NoPeakError", "NvSenseError",
             "PhysicalConstants", "Trace", "TraceFormatError", "XKind",
             "spin1_operators"),
    "hamiltonian": ("TransitionPair", "build_hamiltonian", "g_value",
                    "invert_field", "transition_frequencies"),
    "eseem": ("BathModel", "EseemNucleus", "EseemSpectrum", "HyperfineRecord",
              "bath_decoherence", "cpmg_echo_model",
              "density_matrix_eseem_oracle", "electron_gamma_per_ut",
              "eseem_modulation", "eseem_spectrum", "load_hyperfine_table",
              "nucleus_from_record"),
    "deer": ("DeerSpectrumModel", "TargetSpinModel", "deer_spectrum",
             "nv_epr_signal", "statistical_average_bruteforce"),
    "fitting": ("FitProblem", "FitResult", "SpinCountEntry",
                "SpinCountSelection", "adjusted_r_squared", "fit_deer_rabi",
                "fit_gaussian_peak", "fit_rabi", "nlls_fit",
                "select_spin_count"),
    "synth": ("Cpmg8Truth", "DetectorModel", "OdmrTruth", "RabiTruth",
              "SequenceKind", "SequenceSpec", "coherence_trace",
              "difference_signal", "normalize_channels",
              "normalized_channels", "snr_estimate", "synthesize"),
    "io": ("read_json", "read_trace", "trace_from_csv", "trace_to_csv",
           "write_columns", "write_json", "write_trace"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "presets")

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
