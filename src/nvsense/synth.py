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
from .core import DegenerateReferenceError, Trace, XKind
from .deer import (DeerSpectrumModel, TargetSpinModel, deer_spectrum,
                   gaussian_line, nv_epr_signal)
from .eseem import BathModel, EseemNucleus, cpmg_echo_model
from .hamiltonian import transition_frequencies

_CHANNEL_ORDER = ("SIG1", "SIG2", "REF1", "REF2")
# snr_estimate's narrowest Gaussian, as a fraction of the sweep span
_SNR_MIN_RELATIVE_WIDTH = 0.10
# rounding a cpmg-deer population may carry past [0, 1] before the clip
_POP_SLACK = 1e-12


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


def _model_values(spec: SequenceSpec, truth) -> np.ndarray:
    """SIG1 population in [0, 1] on the sweep grid."""
    kind, x = spec.kind, spec.grid
    if kind is SequenceKind.PULSED_ODMR:
        if not isinstance(truth, OdmrTruth):
            raise ValueError(f"kind {kind.value} needs OdmrTruth, "
                             f"got {type(truth).__name__}")
        pair = transition_frequencies(truth.b0, truth.theta)
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
                            n_pulses=spec.n_pulses)
        return 0.5 * (1.0 + s)
    if kind is SequenceKind.CPMG_DEER:
        if not isinstance(truth, DeerSpectrumModel):
            raise ValueError(f"kind {kind.value} needs DeerSpectrumModel, "
                             f"got {type(truth).__name__}")
        pop = 0.5 * (1.0 + deer_spectrum(x, truth))
        low, high = float(pop.min()), float(pop.max())
        if low < -_POP_SLACK or high > 1.0 + _POP_SLACK:
            raise ValueError(
                f"kind {kind.value}: population 0.5 (1 + s) spans "
                f"[{low:.6g}, {high:.6g}], outside [0, 1]; amplitude and "
                f"baseline must keep it inside")
        return np.clip(pop, 0.0, 1.0)
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


# numpy's SeedSequence hash mix (numpy/random/bit_generator.pyx)
_SEED_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# Philox4x64-10 round multipliers and key increments (Random123)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
# Generator.poisson's largest lam (numpy/random/_common.pyx)
_POISSON_LAM_MAX = (np.iinfo(np.int64).max
                    - np.sqrt(np.iinfo(np.int64).max) * 10)
# below this lam Generator.poisson uses the multiplication method, not PTRS
_PTRS_LAM_MIN = 10.0


def _uint32_words(n: int) -> list:
    """A non-negative int as little-endian uint32 words, as SeedSequence reads it."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _philox_keys(seed: int, channel: np.ndarray, point: np.ndarray) -> tuple:
    """SeedSequence(seed, spawn_key=(c, i)).generate_state(2, np.uint64)
    for each entry of the equal-shaped uint32 arrays channel and point.
    """
    run = _uint32_words(seed)
    run += [0] * (_SEED_POOL_SIZE - len(run))
    # seed words 1-d, so that uint32 arithmetic wraps without warnings
    entropy = [np.array([w], dtype=np.uint32) for w in run] + [channel, point]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:_SEED_POOL_SIZE]]
    for src in range(_SEED_POOL_SIZE):
        for dst in range(_SEED_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_SEED_POOL_SIZE:]:
        for dst in range(_SEED_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for word in pool:
        word = word ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * np.uint32(hash_const)
        state.append((word ^ (word >> np.uint32(16))).astype(np.uint64))
    shift = np.uint64(32)
    return state[0] | state[1] << shift, state[2] | state[3] << shift


def _mulhilo64(a: np.uint64, b: np.ndarray) -> tuple:
    """High and low 64-bit words of a * b, from 32-bit halves."""
    lo32, shift = np.uint64(_MASK32), np.uint64(32)
    a_lo, a_hi = a & lo32, a >> shift
    b_lo, b_hi = b & lo32, b >> shift
    lo_lo = a_lo * b_lo
    cross = (lo_lo >> shift) + (a_hi * b_lo & lo32) + a_lo * b_hi
    hi = a_hi * b_hi + (a_hi * b_lo >> shift) + (cross >> shift)
    return hi, a * b


def _philox_first_block(key0: np.ndarray, key1: np.ndarray) -> tuple:
    """The four uint64 words a fresh Philox(key=(key0, key1)) yields first.

    numpy's Philox bumps the counter before each block, so the first
    block is Philox4x64-10 at counter (1, 0, 0, 0).
    """
    zero = np.zeros_like(key0)
    c0, c1, c2, c3 = zero + np.uint64(1), zero, zero, zero
    k0, k1 = key0, key1
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo64(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo64(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _unit_double(word: np.ndarray) -> np.ndarray:
    """numpy's next_double: the top 53 bits of a uint64 as a double in [0, 1)."""
    return (word >> np.uint64(11)).astype(float) * (1.0 / 9007199254740992.0)


def _poisson_counts(seed: int, channel: np.ndarray, point: np.ndarray,
                    lam: np.ndarray) -> np.ndarray:
    """Generator(Philox(SeedSequence(seed, spawn_key=(c, i)))).poisson(lam)
    for each entry, in whole arrays.

    channel and point are integer arrays broadcast to lam's shape.  Most
    draws with lam >= 10 end at the first PTRS try's quick accept, which
    needs only the stream's first two doubles; it is replayed here with
    numpy's arithmetic.  Every other draw (a PTRS rejection, lam < 10,
    or a lam numpy refuses) runs numpy's own Generator.poisson on a
    Philox reset to that stream, so it raises what numpy raises.
    """
    channel, point = np.broadcast_arrays(channel.astype(np.uint32),
                                         point.astype(np.uint32))
    key0, key1 = _philox_keys(seed, channel, point)
    counts = np.zeros(lam.shape, dtype=np.int64)
    todo = np.ones(lam.shape, dtype=bool)

    ptrs = (lam >= _PTRS_LAM_MIN) & (lam <= _POISSON_LAM_MAX)
    if ptrs.any():
        w0, w1, _, _ = _philox_first_block(key0[ptrs], key1[ptrs])
        lam_p = lam[ptrs]
        slam = np.sqrt(lam_p)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        vr = 0.9277 - 3.6224 / (b - 2)
        u = _unit_double(w0) - 0.5
        v = _unit_double(w1)
        us = 0.5 - np.abs(u)
        ok = (us >= 0.07) & (v <= vr)
        k = np.floor((2 * a[ok] / us[ok] + b[ok]) * u[ok] + lam_p[ok] + 0.43)
        where = np.flatnonzero(ptrs)[ok]
        counts.flat[where] = k.astype(np.int64)
        todo.flat[where] = False

    left = np.flatnonzero(todo)
    if left.size:
        bitgen = np.random.Philox(key=0)
        gen = np.random.Generator(bitgen)
        state = bitgen.state
        state.update(buffer_pos=4, has_uint32=0, uinteger=0)
        for j in left:
            state["state"] = {"counter": [0, 0, 0, 0],
                              "key": [key0.flat[j], key1.flat[j]]}
            bitgen.state = state
            counts.flat[j] = gen.poisson(lam.flat[j])
    return counts


def synthesize(spec: SequenceSpec, truth, det: DetectorModel) -> Trace:
    """Generate a photon-count Trace for the sweep.

    Channel values are photons per repetition (counts / n_avg).  The
    noise of each (channel, grid point) pair depends only on (seed,
    channel, point): it is the draw of
    Generator(Philox(SeedSequence(seed, spawn_key=(c, i)))).poisson,
    c the channel's index in SIG1, SIG2, REF1, REF2 and i the point's
    index.  So the output is byte-identical across runs and whatever
    other channels or points are drawn, and it follows numpy's
    SeedSequence, Philox and Poisson streams.  The draws are computed
    in whole arrays; tests/test_synth.py keeps the per-point loop as
    the oracle and requires equal bytes.
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

    lam = n_eff * np.array([rates[name] for name in names])
    channel = np.array([_CHANNEL_ORDER.index(name) for name in names])
    counts = _poisson_counts(det.seed, channel[:, None],
                             np.arange(spec.grid.size), lam)
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
