"""Monte-Carlo synthesis of photon-count traces for the five experiments.

Every experiment reduces to: evaluate a physics model on the sweep grid
(a population in [0, 1]), map it to a mean photon number per readout,
and draw Poisson counts averaged over n_avg sequence repetitions.  The
channel scheme matches the hardware convention: SIG1 carries the
population, SIG2 the complementary (3 pi / 2 mapped) population, REF1
and REF2 the bright and dark references used for normalization.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import fitting
from .core import (DEFAULT_CONSTANTS, DegenerateReferenceError,
                   PhysicalConstants, Trace, XKind)
from .deer import (DeerSpectrumModel, TargetSpinModel, deer_spectrum,
                   gaussian_line, nv_epr_signal)
from .eseem import BathModel, EseemNucleus, cpmg_echo_model
from .hamiltonian import transition_frequencies

_CHANNEL_ORDER = ("SIG1", "SIG2", "REF1", "REF2")
# snr_estimate's narrowest Gaussian, as a fraction of the sweep span
_SNR_MIN_RELATIVE_WIDTH = 0.10


class SequenceKind(enum.Enum):
    PULSED_ODMR = "pulsed-odmr"
    RABI = "rabi"
    CPMG8 = "cpmg8"
    CPMG_DEER = "cpmg-deer"
    DEER_RABI = "deer-rabi"


_X_KIND = {
    SequenceKind.PULSED_ODMR: XKind.FREQUENCY,
    SequenceKind.RABI: XKind.PULSE_LENGTH,
    SequenceKind.CPMG8: XKind.EVOLUTION_TIME,
    SequenceKind.CPMG_DEER: XKind.FREQUENCY,
    SequenceKind.DEER_RABI: XKind.PULSE_LENGTH,
}

_DEFAULT_CHANNELS = {
    SequenceKind.PULSED_ODMR: ("SIG1", "REF1", "REF2"),
    SequenceKind.RABI: ("SIG1", "REF1", "REF2"),
    SequenceKind.CPMG8: ("SIG1", "SIG2", "REF1", "REF2"),
    SequenceKind.CPMG_DEER: ("SIG1", "SIG2", "REF1", "REF2"),
    SequenceKind.DEER_RABI: ("SIG1", "SIG2", "REF1", "REF2"),
}


@dataclass(frozen=True)
class DetectorModel:
    """Photon statistics of the readout.

    counts_bright / counts_dark are mean photons per readout for the
    bright |0> and dark |+-1> states.  n_avg is the number of sequence
    repetitions averaged per grid point per channel; when n_avg_is_total
    is set it is instead a total budget split evenly across grid points.
    noiseless skips sampling and returns exact means.
    """

    counts_bright: float = 0.05
    counts_dark: float = 0.0417
    n_avg: int = 100_000
    seed: int = 1
    noiseless: bool = False
    n_avg_is_total: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.counts_bright)
                and math.isfinite(self.counts_dark)
                and self.counts_bright > self.counts_dark >= 0):
            raise ValueError(
                f"need counts_bright > counts_dark >= 0, got "
                f"({self.counts_bright!r}, {self.counts_dark!r})")
        contrast = (self.counts_bright - self.counts_dark) / self.counts_bright
        if not 0 < contrast < 1:
            raise ValueError(f"contrast {contrast!r} must lie in (0, 1)")
        if not (isinstance(self.n_avg, (int, np.integer)) and self.n_avg >= 1):
            raise ValueError(f"n_avg must be a positive integer, got {self.n_avg!r}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    @property
    def contrast(self) -> float:
        return (self.counts_bright - self.counts_dark) / self.counts_bright


@dataclass(frozen=True)
class SequenceSpec:
    """What was swept and how the sequence was timed.

    grid is the swept variable: MHz for frequency sweeps, us for pulse
    length and evolution time sweeps.  tau (us) is sequence metadata
    carried into file headers; n_pulses is the pi-pulse count of the
    CPMG-style kinds.
    """

    kind: SequenceKind
    grid: np.ndarray
    tau: float | None = None
    n_pulses: int = 8
    channels: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.kind, SequenceKind):
            raise ValueError(f"kind must be a SequenceKind, got {self.kind!r}")
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be 1-d with at least 2 points")
        if np.any(~np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be finite and strictly increasing")
        grid = grid.copy()
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        if self.kind in (SequenceKind.CPMG8, SequenceKind.CPMG_DEER,
                         SequenceKind.DEER_RABI):
            if self.n_pulses % 2 != 0 or self.n_pulses < 2:
                raise ValueError(
                    f"CPMG-style kinds need an even pulse count >= 2, "
                    f"got {self.n_pulses!r}")
        if self.tau is not None and not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau!r}")
        channels = self.channels
        if channels is not None:
            channels = tuple(channels)
            bad = [c for c in channels if c not in _CHANNEL_ORDER]
            if bad:
                raise ValueError(f"unknown channels {bad}; "
                                 f"valid names are {_CHANNEL_ORDER}")
            if len(set(channels)) != len(channels):
                raise ValueError("duplicate channel names")
            object.__setattr__(self, "channels", channels)

    @property
    def x_kind(self) -> XKind:
        return _X_KIND[self.kind]

    def resolved_channels(self) -> tuple:
        return self.channels or _DEFAULT_CHANNELS[self.kind]


@dataclass(frozen=True)
class OdmrTruth:
    """Ground truth for a pulsed resonance sweep: field plus line shape.

    linewidth_mhz is the Gaussian sigma of each dip (the Fourier width
    of the probe pi pulse); transfer is the on-resonance population
    transferred out of |0> (1 for a perfect pi pulse).
    """

    b0: float
    theta: float
    linewidth_mhz: float = 3.8
    transfer: float = 1.0

    def __post_init__(self):
        if not self.linewidth_mhz > 0:
            raise ValueError("linewidth_mhz must be positive")
        if not 0 < self.transfer <= 1:
            raise ValueError("transfer must lie in (0, 1]")


@dataclass(frozen=True)
class RabiTruth:
    """Ground truth for a drive-length sweep on one transition."""

    f_mhz: float
    t0_us: float

    def __post_init__(self):
        if not self.f_mhz > 0:
            raise ValueError("f_mhz must be positive")
        if not self.t0_us > 0:
            raise ValueError("t0_us must be positive")


@dataclass(frozen=True)
class Cpmg8Truth:
    """Ground truth for the echo decay: nuclei, bath and T2."""

    nuclei: tuple
    bath: BathModel | None
    t2_us: float

    def __post_init__(self):
        nuclei = tuple(self.nuclei)
        if not all(isinstance(n, EseemNucleus) for n in nuclei):
            raise ValueError("nuclei must be EseemNucleus instances")
        object.__setattr__(self, "nuclei", nuclei)
        if not self.t2_us > 0:
            raise ValueError("t2_us must be positive")


def _model_values(spec: SequenceSpec, truth, constants) -> np.ndarray:
    """SIG1 population in [0, 1] on the sweep grid."""
    kind, x = spec.kind, spec.grid
    if kind is SequenceKind.PULSED_ODMR:
        if not isinstance(truth, OdmrTruth):
            raise ValueError(f"kind {kind.value} needs OdmrTruth, "
                             f"got {type(truth).__name__}")
        pair = transition_frequencies(truth.b0, truth.theta, constants)
        dips = (gaussian_line(x, pair.f_minus, truth.linewidth_mhz, 1.0)
                + gaussian_line(x, pair.f_plus, truth.linewidth_mhz, 1.0))
        return np.clip(1.0 - truth.transfer * dips, 0.0, 1.0)
    if kind is SequenceKind.RABI:
        if not isinstance(truth, RabiTruth):
            raise ValueError(f"kind {kind.value} needs RabiTruth, "
                             f"got {type(truth).__name__}")
        return fitting._rabi_model((truth.f_mhz, truth.t0_us), x)
    if kind is SequenceKind.CPMG8:
        if not isinstance(truth, Cpmg8Truth):
            raise ValueError(f"kind {kind.value} needs Cpmg8Truth, "
                             f"got {type(truth).__name__}")
        s = cpmg_echo_model(x, truth.nuclei, truth.bath, truth.t2_us,
                            constants, n_pulses=spec.n_pulses)
        return 0.5 * (1.0 + s)
    if kind is SequenceKind.CPMG_DEER:
        if not isinstance(truth, DeerSpectrumModel):
            raise ValueError(f"kind {kind.value} needs DeerSpectrumModel, "
                             f"got {type(truth).__name__}")
        s = deer_spectrum(x, truth)
        return np.clip(0.5 * (1.0 + s), 0.0, 1.0)
    if kind is SequenceKind.DEER_RABI:
        if not isinstance(truth, TargetSpinModel):
            raise ValueError(f"kind {kind.value} needs TargetSpinModel, "
                             f"got {type(truth).__name__}")
        return nv_epr_signal(truth, x)
    raise ValueError(f"unhandled kind {kind!r}")


_CHANNEL_VALUE = {
    "SIG1": lambda m: m,
    "SIG2": lambda m: 1.0 - m,
    "REF1": lambda m: np.ones_like(m),
    "REF2": lambda m: np.zeros_like(m),
}


def synthesize(spec: SequenceSpec, truth, det: DetectorModel,
               constants: PhysicalConstants = DEFAULT_CONSTANTS) -> Trace:
    """Generate a photon-count Trace for the sweep.

    Each (channel, grid point) pair draws from its own counter-derived
    random stream (seed plus indices), so the output is reproducible
    and independent of evaluation order.  Channel values are photons
    per repetition (counts / n_avg).
    """
    model = _model_values(spec, truth, constants)
    names = spec.resolved_channels()
    n_eff = det.n_avg
    if det.n_avg_is_total:
        n_eff = max(1, det.n_avg // spec.grid.size)
    rates = {name: det.counts_dark
             + (det.counts_bright - det.counts_dark) * _CHANNEL_VALUE[name](model)
             for name in names}
    if det.noiseless:
        return Trace(spec.grid, spec.x_kind, rates, n_avg=n_eff)

    out = {name: np.empty(spec.grid.size) for name in names}
    for i in range(spec.grid.size):
        for name in names:
            ci = _CHANNEL_ORDER.index(name)
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(det.seed, spawn_key=(ci, i))))
            out[name][i] = rng.poisson(n_eff * rates[name][i]) / n_eff
    return Trace(spec.grid, spec.x_kind, out, n_avg=n_eff)


def normalize_channels(sig, ref1, ref2, noise_floor: float = 0.0) -> np.ndarray:
    """(sig - ref2) / (ref1 - ref2) elementwise.

    Raises DegenerateReferenceError when the reference separation drops
    to noise_floor or below anywhere (the normalization would blow up).
    """
    sig = np.asarray(sig, dtype=float)
    ref1 = np.asarray(ref1, dtype=float)
    ref2 = np.asarray(ref2, dtype=float)
    if not sig.shape == ref1.shape == ref2.shape:
        raise ValueError("sig, ref1, ref2 must have matching shapes")
    denom = ref1 - ref2
    if np.any(denom <= noise_floor):
        worst = float(np.min(denom))
        raise DegenerateReferenceError(
            f"reference separation reaches {worst:.3g} (floor {noise_floor:g}); "
            "cannot normalize")
    return (sig - ref2) / denom


def normalized_channels(trace: Trace) -> dict:
    """Normalized signal channels {name + 'n': values} using REF1/REF2."""
    for ref in ("REF1", "REF2"):
        if ref not in trace.channels:
            raise ValueError(f"trace lacks {ref}; channels are "
                             f"{sorted(trace.channels)}")
    ref1, ref2 = trace.channel("REF1"), trace.channel("REF2")
    sigs = [c for c in trace.channel_names if c.startswith("SIG")]
    if not sigs:
        raise ValueError("trace has no SIG channels")
    return {name + "n": normalize_channels(trace.channel(name), ref1, ref2)
            for name in sigs}


def difference_signal(trace: Trace) -> np.ndarray:
    """Coherence readout s in [-1, 1]: SIG1n - SIG2n.

    With only one signal channel the complementary projection is implied
    and s = 2 SIG1n - 1, which is the same quantity up to shot noise.
    """
    norm = normalized_channels(trace)
    if "SIG2n" in norm:
        return norm["SIG1n"] - norm["SIG2n"]
    return 2.0 * norm["SIG1n"] - 1.0


def coherence_trace(trace: Trace) -> Trace:
    """Single-channel trace of the recovered population (1 + s) / 2.

    This is the normalized form the drive-length fits expect: 1 at full
    coherence, 0.5 once the echo has fully dephased.
    """
    u = 0.5 * (1.0 + difference_signal(trace))
    return Trace(trace.x, trace.x_kind, {"coherence": u}, trace.n_avg)


def snr_estimate(trace: Trace) -> float:
    """Peak amplitude over residual noise for a frequency-sweep trace.

    Fits a Gaussian whose width is constrained to a physically plausible
    band (at least _SNR_MIN_RELATIVE_WIDTH of the sweep span), so a bare
    noise spike cannot masquerade as a peak.  Accepts a raw multichannel
    trace (difference taken internally) or an already-normalized
    single-channel one.  Returns a large value (capped at 1e12) when the
    residual noise underflows.
    """
    if len(trace.channels) == 1:
        y = trace.channel(trace.channel_names[0])
    else:
        y = difference_signal(trace)
    work = Trace(trace.x, trace.x_kind, {"diff": y}, trace.n_avg)
    span = float(trace.x[-1] - trace.x[0])
    result = fitting.fit_gaussian_peak(
        work, min_snr=0.0,
        width_bounds=(_SNR_MIN_RELATIVE_WIDTH * span, 0.5 * span))
    dof = trace.x.size - 4
    noise = math.sqrt(result.ss_res / dof) if dof > 0 else 0.0
    amp = abs(float(result.params[2]))
    if noise <= 0 or not math.isfinite(noise):
        return 1e12
    return min(amp / noise, 1e12)
