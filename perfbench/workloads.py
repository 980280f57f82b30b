"""The three benchmark workloads: inputs from a seed, one op, its check.

Each workload builds its inputs itself from the workload seed with numpy
(Poisson draws on the preset truths, eigenvalues of the spin-1
Hamiltonian), so the program receives only generated data and a change
to nvsense's own noise generator cannot change what the fits are given.
Op i of a workload depends only on (seed, i).

check() returns "ok", "miss" (a noisy estimate outside the acceptance
gate's tolerance, which the gate itself allows in up to 5 of 50 runs) or
"fail: <reason>" (an output a correct program never gives).
"""

from __future__ import annotations

import contextlib
import io as _stdio
import math
import os

import numpy as np

_TAGS = {"select-spins": 1, "simulate-large": 2, "inversion-mix": 3}


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _photon_rates(nv, model, contrast: float = 0.166) -> dict:
    """Mean photons per readout of SIG1/SIG2/REF1/REF2 for a population."""
    det = nv.presets.detector(n_avg=1, contrast=contrast)
    bright, dark = det.counts_bright, det.counts_dark
    span = bright - dark
    return {"SIG1": dark + span * model, "SIG2": dark + span * (1.0 - model),
            "REF1": np.full_like(model, bright),
            "REF2": np.full_like(model, dark)}


def _poisson_channels(rng, rates: dict, n_avg: int, names) -> dict:
    return {name: rng.poisson(n_avg * rates[name]) / n_avg for name in names}


def _normalized(ch: dict, name: str) -> np.ndarray:
    return (ch[name] - ch["REF2"]) / (ch["REF1"] - ch["REF2"])


class SelectSpins:
    """coherence_trace + select_spin_count(max_n=2) per DEER-Rabi trace.

    max_n=2, not the CLI default of 3: the 3-spin fit costs 0.7 to 4.2 s
    depending on the noise draw, so a run of tens of seconds holds about
    a dozen such traces and its per-trace median moves by ~30% from one
    seed to the next.  The 1- and 2-spin fits run the same multi-start
    LM at ~0.3 s per trace, so a run holds ~100 traces.
    """

    name = "select-spins"
    kernel = ("fit",)
    # ~85 ops per 30-s run: p75 keeps ten or more ops beyond it
    tail_pct = 75.0
    trace_ops = 30
    max_n = 2
    n_avg = 1_260_000
    tol_rad_us = 2.0 * math.pi * 0.20

    def __init__(self, nv, seed: int):
        self.nv, self.seed = nv, seed
        truth = nv.presets.target_pair()
        self.omegas = np.sort(np.asarray(truth.omegas))
        self.x = np.array(nv.presets.default_sequence(
            nv.synth.SequenceKind.DEER_RABI).grid)
        model = 0.5 + 0.5 * np.exp(-((self.x / truth.t0) ** 2)) * np.prod(
            [np.cos(w * self.x) for w in truth.omegas], axis=0)
        self.rates = _photon_rates(nv, model)

    def make_input(self, i: int):
        channels = _poisson_channels(_rng(self.seed, _TAGS[self.name], i),
                                     self.rates, self.n_avg,
                                     ("SIG1", "SIG2", "REF1", "REF2"))
        return self.nv.core.Trace(self.x, self.nv.core.XKind.PULSE_LENGTH,
                                  channels, self.n_avg)

    def run(self, trace):
        unit = self.nv.synth.coherence_trace(trace)
        return self.nv.fitting.select_spin_count(unit, max_n=self.max_n)

    def check(self, trace, sel) -> str:
        if sorted(sel.entries) != list(range(1, self.max_n + 1)):
            return f"fail: selection lacks the 1..{self.max_n} spin entries"
        for entry in sel.entries.values():
            if not np.all(np.isfinite(entry.fit.params)):
                return f"fail: non-finite {entry.n_spins}-spin fit"
        pair = np.sort(sel.entries[2].fit.params[:2])
        if sel.best_n == 2 and np.all(np.abs(pair - self.omegas)
                                      <= self.tol_rad_us):
            return "ok"
        return "miss"


class SimulateLarge:
    """`nvsense simulate` of all five kinds, 1 and nproc workers, read back.

    One op simulates every kind once, so all ops cost the same: with one
    kind per op the 3-channel kinds (odmr, rabi) and the 4-channel ones
    form two cost classes and a run's median lands on either.  Each kind
    gets a 1000-point grid: 5e3 points per op at ~1.3 s, so a run holds
    ~20 ops.
    """

    name = "simulate-large"
    kernel = ("synth",)
    # ~20 ops per 30-s run: no percentile above the median has ten ops
    # beyond it, so the tail is reported at p50
    tail_pct = 50.0
    trace_ops = 10
    kinds = ("pulsed-odmr", "rabi", "cpmg8", "cpmg-deer", "deer-rabi")
    x_num = 1_000

    def __init__(self, nv, seed: int, workdir: str):
        self.nv, self.seed, self.workdir = nv, seed, workdir
        nproc = len(os.sched_getaffinity(0))
        # two distinct worker counts are needed for the determinism check
        self.workers = (1, max(nproc, 2))
        self.bright = nv.presets.detector(n_avg=1).counts_bright

    def make_input(self, i: int):
        rng = _rng(self.seed, _TAGS[self.name], i)
        order = rng.permutation(len(self.kinds))
        seeds = rng.integers(0, 2 ** 31, size=len(self.kinds))
        return [(self.kinds[k], int(seed),
                 [os.path.join(self.workdir, f"op{i}-{self.kinds[k]}-w{w}.csv")
                  for w in self.workers])
                for k, seed in zip(order, seeds)]

    def run(self, jobs):
        results = []
        with contextlib.redirect_stdout(_stdio.StringIO()):
            for kind, seed, paths in jobs:
                codes = [self.nv.cli.main(
                    ["simulate", "--kind", kind, "--seed", str(seed),
                     "--x-num", str(self.x_num), "--workers", str(workers),
                     "--out", path])
                    for workers, path in zip(self.workers, paths)]
                traces = (None if any(codes) else
                          [self.nv.io.read_trace(path) for path in paths])
                results.append((codes, traces))
        return results

    def check(self, jobs, results) -> str:
        try:
            for (kind, _, paths), (codes, traces) in zip(jobs, results):
                verdict = self._check_kind(kind, paths, codes, traces)
                if verdict != "ok":
                    return verdict
            return "ok"
        finally:
            for _, _, paths in jobs:
                for path in paths:
                    if os.path.exists(path):
                        os.unlink(path)

    def _check_kind(self, kind, paths, codes, traces) -> str:
        if any(codes):
            return f"fail: simulate {kind} exited {codes}"
        blobs = []
        for path in paths:
            with open(path, "rb") as handle:
                blobs.append(handle.read())
        if blobs[0] != blobs[1]:
            return f"fail: {kind} bytes differ between worker counts"
        spec = self.nv.synth.SequenceSpec(
            kind=self.nv.synth.SequenceKind(kind), grid=[0.0, 1.0])
        for trace in traces:
            if trace.x.size != self.x_num:
                return f"fail: {kind} read back {trace.x.size} points"
            if trace.x_kind is not spec.x_kind:
                return f"fail: {kind} read back x_kind {trace.x_kind}"
            if set(trace.channels) != set(spec.resolved_channels()):
                return f"fail: {kind} read back {sorted(trace.channels)}"
            # REF1 is the bright reference; at n_avg >= 1e5 its mean over
            # 1000 points sits within ~2.2e-5 of the bright rate, so 2.5e-4
            # is over ten sigma
            ref1 = float(np.mean(trace.channel("REF1")))
            if abs(ref1 - self.bright) > 2.5e-4:
                return f"fail: {kind} REF1 mean is off the bright rate"
        return "ok"


def _spin1_lines(b0: float, theta: float, constants) -> tuple[float, float]:
    """(f_minus, f_plus) of the NV ground state from numpy eigenvalues.

    Below the level anticrossing the |0>-like state is the lowest level,
    so the two resonances are the gaps to the upper two eigenvalues.
    """
    r = 1.0 / math.sqrt(2.0)
    sx = np.array([[0.0, r, 0.0], [r, 0.0, r], [0.0, r, 0.0]])
    sz = np.diag([1.0, 0.0, -1.0])
    gb = constants.gamma_nv * b0
    h = gb * (math.sin(theta) * sx + math.cos(theta) * sz) \
        + constants.zero_field_d * sz @ sz
    w = np.linalg.eigvalsh(h)
    return float(w[1] - w[0]), float(w[2] - w[0])


class InversionMix:
    """A shuffled stream of short inverse problems at gate tolerances."""

    name = "inversion-mix"
    kernel = ("fit", "inverse")
    # ~1500 ops per 30-s run.  p99 would keep only ~15 ops beyond it,
    # and a single stall of the machine moved it by 40% between seeds;
    # p95 keeps ~75 beyond it
    tail_pct = 95.0
    trace_ops = 500
    # each block of len(_MIX) ops is one shuffled copy of this list, so
    # every run holds the kinds in these proportions
    _MIX = ("field", "field", "eseem", "rabi", "peak")
    # gate tolerances: criteria 01/10 (field, g), 04 (ESEEM), 08 (line),
    # 09 (Rabi), 11 (null SNR)
    b0_tol_mt, theta_tol_deg = 0.05, 1.0
    eseem_tol = 1e-6

    def __init__(self, nv, seed: int):
        self.nv, self.seed = nv, seed
        self.constants = nv.core.DEFAULT_CONSTANTS
        self.line_errors = nv.presets.MAIN_TRANSITION_ERRORS
        self.tau = np.linspace(0.0, 5.0, 101)
        kinds = nv.synth.SequenceKind
        rabi = nv.presets.rabi_truth()
        self.rabi_f = rabi.f_mhz
        self.rabi_x = np.array(nv.presets.default_sequence(kinds.RABI).grid)
        self.rabi_rates = _photon_rates(nv, 0.5 * (
            1.0 + np.exp(-((self.rabi_x / rabi.t0_us) ** 2))
            * np.cos(2.0 * np.pi * rabi.f_mhz * self.rabi_x)))
        self.rabi_n = nv.presets.DEFAULT_N_AVG[kinds.RABI]
        self.line = nv.presets.epr_line()
        self.line_x = np.array(
            nv.presets.default_sequence(kinds.CPMG_DEER).grid)
        s = self.line.baseline + self.line.amplitude * np.exp(
            -((self.line_x - self.line.center) ** 2)
            / (2 * self.line.width ** 2))
        self.line_rates = _photon_rates(nv, np.clip(0.5 * (1.0 + s), 0.0, 1.0))
        self.line_n = nv.presets.DEFAULT_N_AVG[kinds.CPMG_DEER]
        null = nv.presets.NULL_CENTERS["null-a"]
        flat = np.full_like(self.line_x, 0.5 * (1.0 + self.line.baseline))
        self.null_rates = _photon_rates(nv, flat, contrast=null.contrast)
        self.null_n = null.n_avg

    def make_input(self, i: int):
        block, slot = divmod(i, len(self._MIX))
        kind = self._MIX[_rng(self.seed, _TAGS[self.name], block).permutation(
            len(self._MIX))[slot]]
        rng = _rng(self.seed, _TAGS[self.name], block, slot)
        return kind, getattr(self, "_make_" + kind)(rng)

    def _make_field(self, rng):
        b0 = float(rng.uniform(5.0, 80.0))
        theta = math.radians(float(rng.uniform(2.0, 60.0)))
        g_true = float(rng.uniform(2.0, 2.01))
        f_minus, f_plus = _spin1_lines(b0, theta, self.constants)
        pair = self.nv.hamiltonian.TransitionPair(f_minus, f_plus)
        f_res = g_true * self.constants.mu_b_over_h * b0
        return b0, theta, g_true, pair, f_res

    def _make_eseem(self, rng):
        nucleus = self.nv.eseem.EseemNucleus(
            a=float(rng.uniform(-30.0, 30.0)), b=float(rng.uniform(0.1, 30.0)),
            omega_i=float(rng.uniform(0.5, 15.0)))
        return nucleus, int(rng.choice((2, 4, 8)))

    def _single(self, x, kind, values, n_avg):
        return self.nv.core.Trace(x, kind, {"y": values}, n_avg)

    def _make_rabi(self, rng):
        ch = _poisson_channels(rng, self.rabi_rates, self.rabi_n,
                               ("SIG1", "REF1", "REF2"))
        return self._single(self.rabi_x, self.nv.core.XKind.PULSE_LENGTH,
                            _normalized(ch, "SIG1"), self.rabi_n)

    def _make_peak(self, rng):
        names = ("SIG1", "SIG2", "REF1", "REF2")
        freq = self.nv.core.XKind.FREQUENCY
        ch = _poisson_channels(rng, self.line_rates, self.line_n, names)
        line = self._single(self.line_x, freq, _normalized(ch, "SIG1")
                            - _normalized(ch, "SIG2"), self.line_n)
        ch = _poisson_channels(rng, self.null_rates, self.null_n, names)
        null = self._single(self.line_x, freq, _normalized(ch, "SIG1")
                            - _normalized(ch, "SIG2"), self.null_n)
        return line, null

    def run(self, inp):
        kind, data = inp
        nv = self.nv
        if kind == "field":
            b0, theta, g_true, pair, f_res = data
            est = nv.hamiltonian.invert_field(pair, self.line_errors)
            return est, nv.hamiltonian.g_value(f_res, est.b0)
        if kind == "eseem":
            nucleus, n_pulses = data
            return (nv.eseem.eseem_modulation(self.tau, n_pulses, nucleus),
                    nv.eseem.density_matrix_eseem_oracle(self.tau, n_pulses,
                                                         nucleus))
        if kind == "rabi":
            return nv.fitting.fit_rabi(data)
        line, null = data
        return (nv.fitting.fit_gaussian_peak(line, min_snr=0.0),
                nv.synth.snr_estimate(null))

    def check(self, inp, out) -> str:
        kind, data = inp
        if kind == "field":
            b0, theta, g_true, _, _ = data
            est, g = out
            if not (abs(est.b0 - b0) <= self.b0_tol_mt
                    and abs(math.degrees(est.theta - theta))
                    <= self.theta_tol_deg):
                return (f"fail: field ({b0:.3f} mT, "
                        f"{math.degrees(theta):.2f} deg) inverted to "
                        f"({est.b0:.3f}, {math.degrees(est.theta):.2f})")
            if not (est.b0_err > 0 and est.theta_err > 0
                    and math.isfinite(est.b0_err + est.theta_err)):
                return "fail: field errors not finite and positive"
            if abs(g - g_true) > g_true * self.b0_tol_mt / b0:
                return f"fail: g {g:.5f} for true {g_true:.5f}"
            return "ok"
        if kind == "eseem":
            closed, oracle = out
            worst = float(np.max(np.abs(closed - oracle)))
            if not worst <= self.eseem_tol:
                return f"fail: ESEEM closed form off the oracle by {worst:.2e}"
            return "ok"
        if kind == "rabi":
            if not np.all(np.isfinite(out.params)):
                return "fail: non-finite Rabi fit"
            return "ok" if abs(out.params[0] - self.rabi_f) <= 0.05 else "miss"
        fit, snr = out
        if not (np.all(np.isfinite(fit.params)) and math.isfinite(snr)):
            return "fail: non-finite line fit or SNR"
        center, width = fit.params[0], abs(fit.params[1])
        hit = (abs(center - self.line.center) <= 1.0
               and abs(width - self.line.width) <= 3.0 and snr < 1.0)
        return "ok" if hit else "miss"


def make(name: str, nv, seed: int, workdir: str):
    if name == SelectSpins.name:
        return SelectSpins(nv, seed)
    if name == SimulateLarge.name:
        return SimulateLarge(nv, seed, workdir)
    if name == InversionMix.name:
        return InversionMix(nv, seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = tuple(_TAGS)
