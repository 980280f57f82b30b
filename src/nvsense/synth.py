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
from .core import (PHOTON_CHANNELS, TWO_PI, DegenerateReferenceError,
                   Trace, XKind, grid_span)
from .deer import (DeerSpectrumModel, TargetSpinModel, deer_spectrum,
                   gaussian_line, nv_epr_signal, nv_epr_signal_grid)
from .eseem import BathModel, EseemNucleus, cpmg_echo_model
from .hamiltonian import transition_frequencies

# snr_estimate's narrowest Gaussian, as a fraction of the sweep span
_SNR_MIN_RELATIVE_WIDTH = 0.10
# rounding a population may carry past [0, 1] before the clip
_POP_SLACK = 1e-12


class SequenceKind(enum.Enum):
    PULSED_ODMR = "pulsed-odmr"
    RABI = "rabi"
    CPMG8 = "cpmg8"
    CPMG_DEER = "cpmg-deer"
    DEER_RABI = "deer-rabi"


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
        if not 0 < self.contrast < 1:
            raise ValueError(f"contrast {self.contrast!r} must lie in (0, 1)")
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
    carried into file headers.  n_pulses, even, is the pi-pulse count of
    the CPMG-style kinds; only cpmg8's echo model reads it.
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
        if np.any(~np.isfinite(grid)) or np.any(grid[1:] <= grid[:-1]):
            raise ValueError("grid must be finite and strictly increasing")
        grid = grid.copy()
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        if _KINDS[self.kind].pulse_train and (self.n_pulses % 2 != 0
                                              or self.n_pulses < 2):
            raise ValueError(f"CPMG-style kinds need an even pulse count "
                             f">= 2, got {self.n_pulses!r}")
        if self.tau is not None and not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau!r}")
        channels = self.channels
        if channels is not None:
            channels = tuple(channels)
            if not channels:
                raise ValueError("channels must name at least one channel")
            bad = [c for c in channels if c not in PHOTON_CHANNELS]
            if bad:
                raise ValueError(f"unknown channels {bad}; "
                                 f"valid names are {PHOTON_CHANNELS}")
            if len(set(channels)) != len(channels):
                raise ValueError("duplicate channel names")
            object.__setattr__(self, "channels", channels)

    @property
    def x_kind(self) -> XKind:
        return _KINDS[self.kind].x_kind

    def resolved_channels(self) -> tuple:
        return self.channels or _KINDS[self.kind].channels


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

    def signal(self, t) -> np.ndarray:
        """fit_rabi's model bit for bit: the one-spin signal at 2 pi f."""
        return nv_epr_signal_grid(np.array([[TWO_PI * self.f_mhz]]),
                                  np.array([self.t0_us]), t)[0]


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


def _population(kind: SequenceKind, pop: np.ndarray, formula: str,
                advice: str) -> np.ndarray:
    """pop clipped into [0, 1], which it may leave by rounding only.

    A population outside [0, 1] by more than _POP_SLACK is unphysical:
    a ValueError naming formula and what keeps it inside (advice).
    """
    low, high = float(pop.min()), float(pop.max())
    if low < -_POP_SLACK or high > 1.0 + _POP_SLACK:
        raise ValueError(
            f"kind {kind.value}: population {formula} spans "
            f"[{low:.6g}, {high:.6g}], outside [0, 1]; {advice}")
    return np.clip(pop, 0.0, 1.0)


def _odmr_population(spec: SequenceSpec, truth: OdmrTruth) -> np.ndarray:
    pair = transition_frequencies(truth.b0, truth.theta)
    dips = (gaussian_line(spec.grid, pair.f_minus, truth.linewidth_mhz, 1.0)
            + gaussian_line(spec.grid, pair.f_plus, truth.linewidth_mhz, 1.0))
    # the dips add; where they overlap past what one probe pulse can
    # transfer, the truth is rejected, not saturated
    return _population(
        spec.kind, 1.0 - truth.transfer * dips, "1 - transfer (dip- + dip+)",
        "the two dips overlap; raise the field or narrow the lines")


@dataclass(frozen=True)
class _Kind:
    """What synthesis knows of one SequenceKind."""

    x_kind: XKind
    channels: tuple      # drawn when SequenceSpec.channels is None
    truth: type          # the ground truth that population reads
    population: object   # (spec, truth) -> SIG1 population on spec.grid
    pulse_train: bool    # a CPMG-style train of spec.n_pulses pi pulses


_KINDS = {
    SequenceKind.PULSED_ODMR: _Kind(
        XKind.FREQUENCY, ("SIG1", "REF1", "REF2"), OdmrTruth,
        _odmr_population, pulse_train=False),
    SequenceKind.RABI: _Kind(
        XKind.PULSE_LENGTH, ("SIG1", "REF1", "REF2"), RabiTruth,
        lambda spec, truth: truth.signal(spec.grid), pulse_train=False),
    SequenceKind.CPMG8: _Kind(
        XKind.EVOLUTION_TIME, PHOTON_CHANNELS, Cpmg8Truth,
        lambda spec, truth: _population(
            spec.kind, 0.5 * (1.0 + cpmg_echo_model(
                spec.grid, truth.nuclei, truth.bath, truth.t2_us,
                n_pulses=spec.n_pulses)),
            "0.5 (1 + s)", "the echo coherence s must lie in [-1, 1]"),
        pulse_train=True),
    SequenceKind.CPMG_DEER: _Kind(
        XKind.FREQUENCY, PHOTON_CHANNELS, DeerSpectrumModel,
        lambda spec, truth: _population(
            spec.kind, 0.5 * (1.0 + deer_spectrum(spec.grid, truth)),
            "0.5 (1 + s)", "amplitude and baseline must keep it inside"),
        pulse_train=True),
    SequenceKind.DEER_RABI: _Kind(
        XKind.PULSE_LENGTH, PHOTON_CHANNELS, TargetSpinModel,
        lambda spec, truth: nv_epr_signal(truth, spec.grid),
        pulse_train=True),
}


def _model_values(spec: SequenceSpec, truth) -> np.ndarray:
    """SIG1 population in [0, 1] on the sweep grid (see _population).

    A line width near the float range's ends overflows width**2 or
    divides by its underflow to 0; both give the right limit of the
    line, so only those two warnings are silenced.
    """
    kind = _KINDS[spec.kind]
    if not isinstance(truth, kind.truth):
        raise ValueError(f"kind {spec.kind.value} needs "
                         f"{kind.truth.__name__}, got {type(truth).__name__}")
    with np.errstate(over="ignore", divide="ignore"):
        return kind.population(spec, truth)


_CHANNEL_VALUE = {
    "SIG1": lambda m: m,
    "SIG2": lambda m: 1.0 - m,
    "REF1": lambda m: np.ones_like(m),
    "REF2": lambda m: np.zeros_like(m),
}


def synthesize(spec: SequenceSpec, truth, det: DetectorModel) -> Trace:
    """Generate a photon-count Trace for the sweep.

    Channel values are photons per repetition (counts / n_avg).  Each
    channel's counts are one draw of
    Generator(Philox(SeedSequence(seed, spawn_key=(c,)))).poisson over
    the whole grid, c the channel's index in SIG1, SIG2, REF1, REF2.  So
    a point's noise depends on (seed, channel) and on the points before
    it in its channel, not on other channels or on the worker count, and
    the output is byte-identical across runs.
    """
    model = _model_values(spec, truth)
    names = spec.resolved_channels()
    n_eff = det.n_avg
    if det.n_avg_is_total:
        n_eff = max(1, det.n_avg // spec.grid.size)
    rates = {name: det.counts_dark
             + (det.counts_bright - det.counts_dark) * _CHANNEL_VALUE[name](model)
             for name in names}
    if det.noiseless:
        return Trace(spec.grid, spec.x_kind, rates, n_avg=n_eff)

    counts = np.array([
        np.random.Generator(np.random.Philox(np.random.SeedSequence(
            det.seed, spawn_key=(PHOTON_CHANNELS.index(name),))))
        .poisson(n_eff * rates[name]) for name in names])
    if n_eff <= 2 ** 53 and counts.max() <= 2 ** 53:
        values = counts / n_eff
    else:
        # beyond 2**53 a double does not hold every int: divide as ints
        values = np.array([k / n_eff for k in counts.ravel().tolist()]
                          ).reshape(counts.shape)
    return Trace(spec.grid, spec.x_kind, dict(zip(names, values)), n_avg=n_eff)


def normalize_channels(sig, ref1, ref2) -> np.ndarray:
    """(sig - ref2) / (ref1 - ref2) elementwise.

    Raises DegenerateReferenceError when the reference separation drops
    to zero or below anywhere (the normalization would blow up).
    """
    sig = np.asarray(sig, dtype=float)
    ref1 = np.asarray(ref1, dtype=float)
    ref2 = np.asarray(ref2, dtype=float)
    if not sig.shape == ref1.shape == ref2.shape:
        raise ValueError("sig, ref1, ref2 must have matching shapes")
    denom = ref1 - ref2
    if np.any(denom <= 0.0):
        worst = float(np.min(denom))
        raise DegenerateReferenceError(
            f"reference separation reaches {worst:.3g}; cannot normalize")
    return (sig - ref2) / denom


def normalized_channels(trace: Trace) -> dict:
    """Normalized signal channels {name + 'n': values} using REF1/REF2.

    Every point is normalized against the sweep means of REF1 and REF2,
    which the model holds constant.  A point's own references did no
    better where the two were compared, and on a split budget, with few
    shots per point, their separation can reach zero.  normalize_channels raises
    DegenerateReferenceError if the mean separation is not positive.
    """
    for ref in ("REF1", "REF2"):
        if ref not in trace.channels:
            raise ValueError(f"trace lacks {ref}; channels are "
                             f"{sorted(trace.channels)}")
    ref1, ref2 = trace.channel("REF1"), trace.channel("REF2")
    sigs = [c for c in trace.channel_names if c.startswith("SIG")]
    if not sigs:
        raise ValueError("trace has no SIG channels")
    # summing value / size overflows only where every value is within an
    # ulp or so of the float range's end, and the clip restores the mean
    with np.errstate(over="ignore"):
        ref1, ref2 = (np.full_like(ref, np.clip(np.sum(ref / ref.size),
                                                ref.min(), ref.max()))
                      for ref in (ref1, ref2))
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
    single-channel one.  The residual noise is floored at the float
    resolution of the data, eps max|y|: on a noiseless trace the
    residuals are rounding alone, so a line-free one reads well below 1
    and a real line reads the cap, 1e12.  An all-zero trace reads 0.
    """
    if len(trace.channels) == 1:
        y = trace.channel(trace.channel_names[0])
    else:
        y = difference_signal(trace)
    work = Trace(trace.x, trace.x_kind, {"diff": y}, trace.n_avg)
    span = grid_span(trace.x)
    result = fitting.fit_gaussian_peak(
        work, min_snr=0.0,
        width_bounds=(_SNR_MIN_RELATIVE_WIDTH * span, 0.5 * span))
    noise = max(math.sqrt(result.ss_res / (trace.x.size - 4)),
                np.finfo(float).eps * float(np.max(np.abs(y))))
    amp = abs(float(result.params[2]))
    if not math.isfinite(noise):
        return 1e12
    return min(amp / noise, 1e12) if noise else 0.0
