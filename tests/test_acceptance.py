"""Acceptance gate: one test per release criterion, tolerances inline.

Each criterion is a separate test so `pytest -v` prints one pass/fail
line per item.  Monte-Carlo criteria use fixed seed ranges and the
required minimum pass counts; runtime ceilings are asserted with a
monotonic clock.
"""

import math
import shutil
import subprocess
import sys
import time

import numpy as np

from nvsense.core import DEFAULT_CONSTANTS, TWO_PI, Trace
from nvsense.deer import (DeerSpectrumModel, statistical_average_bruteforce)
from nvsense.eseem import (EseemNucleus, density_matrix_eseem_oracle,
                           eseem_modulation, eseem_spectrum,
                           load_hyperfine_table, nucleus_from_record)
from nvsense.fitting import (fit_deer_rabi, fit_gaussian_peak, fit_rabi,
                             select_spin_count)
from nvsense.hamiltonian import (TransitionPair, g_value, invert_field,
                                 transition_frequencies)
from nvsense.presets import (default_sequence, detector, epr_line,
                             rabi_truth, target_pair)
from nvsense.synth import (SequenceKind, coherence_trace, difference_signal,
                           normalized_channels, snr_estimate, synthesize)

MEASURED_PAIR = TransitionPair(f_minus=1960.00, f_plus=3783.39)
MEASURED_PAIR_ERRORS = (6.78, 3.39)


def test_criterion_01_field_inversion_recovers_field_and_tilt():
    start = time.monotonic()
    estimate = invert_field(MEASURED_PAIR, MEASURED_PAIR_ERRORS)
    elapsed = time.monotonic() - start
    assert abs(estimate.b0 - 32.59) <= 0.05
    assert abs(math.degrees(estimate.theta) - 3.5) <= 1.0
    assert elapsed < 1.0


def test_criterion_02_zero_tilt_transitions_are_analytic():
    start = time.monotonic()
    d = DEFAULT_CONSTANTS.zero_field_d
    gamma = DEFAULT_CONSTANTS.gamma_nv
    for b0 in np.linspace(5.0, 100.0, 381):
        pair = transition_frequencies(float(b0), 0.0)
        assert abs(pair.f_minus - (d - gamma * b0)) <= 1e-9 * abs(d - gamma * b0)
        assert abs(pair.f_plus - (d + gamma * b0)) <= 1e-9 * abs(d + gamma * b0)
    assert time.monotonic() - start < 1.0


def test_criterion_03_statistical_average_factorizes():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        omegas = rng.uniform(0.1, 50.0, size=n)
        t = float(rng.uniform(0.0, 2.0))
        brute = statistical_average_bruteforce(omegas, t)
        product = float(np.prod(np.cos(omegas * t)))
        assert abs(brute - product) <= 1e-12
    assert time.monotonic() - start < 10.0


def test_criterion_04_eseem_closed_form_matches_propagation_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    tau = np.linspace(0.0, 5.0, 101)
    worst = 0.0
    for _ in range(50):
        nucleus = EseemNucleus(a=float(rng.uniform(-30.0, 30.0)),
                               b=float(rng.uniform(0.1, 30.0)),
                               omega_i=float(rng.uniform(0.5, 15.0)))
        for n_pulses in (2, 4, 8):
            closed = eseem_modulation(tau, n_pulses, nucleus)
            oracle = density_matrix_eseem_oracle(tau, n_pulses, nucleus)
            worst = max(worst, float(np.max(np.abs(closed - oracle))))
    assert worst <= 1e-6
    assert time.monotonic() - start < 60.0


def test_criterion_05_nitrogen_modulation_depth_is_negligible():
    start = time.monotonic()
    table = load_hyperfine_table()
    nucleus = nucleus_from_record(table["14n"], 32.59)
    k = eseem_spectrum(nucleus).k
    assert 5e-5 <= k <= 5e-4
    assert time.monotonic() - start < 1.0


def test_criterion_06_deer_rabi_fit_recovers_couplings_at_full_averaging():
    start = time.monotonic()
    truth = target_pair()
    seq = default_sequence(SequenceKind.DEER_RABI)
    target = np.array(truth.omegas)
    hits = 0
    for seed in range(50):
        det = detector(n_avg=1_260_000, seed=seed)
        trace = coherence_trace(synthesize(seq, truth, det))
        fit = fit_deer_rabi(trace, n_spins=2)
        dw = np.sort(fit.params[:2]) - target
        if np.all(np.abs(dw) <= TWO_PI * 0.20):
            hits += 1
    assert hits >= 45, f"couplings recovered in only {hits}/50 runs"
    assert time.monotonic() - start < 300.0


def test_criterion_07_model_selection_prefers_two_spins():
    start = time.monotonic()
    truth = target_pair()
    seq = default_sequence(SequenceKind.DEER_RABI)
    hits = 0
    for seed in range(50):
        det = detector(n_avg=1_260_000, seed=seed)
        trace = coherence_trace(synthesize(seq, truth, det))
        if select_spin_count(trace, max_n=3).best_n == 2:
            hits += 1
    assert hits >= 45, f"two-spin model selected in only {hits}/50 runs"
    assert time.monotonic() - start < 600.0


def test_criterion_08_epr_line_center_and_width_recovered():
    start = time.monotonic()
    truth = epr_line()
    seq = default_sequence(SequenceKind.CPMG_DEER)
    hits = 0
    for seed in range(50):
        det = detector(n_avg=1_325_000, seed=seed)
        raw = synthesize(seq, truth, det)
        work = Trace(raw.x, raw.x_kind, {"diff": difference_signal(raw)},
                     raw.n_avg)
        fit = fit_gaussian_peak(work, min_snr=0.0)
        center, width = fit.params[0], abs(fit.params[1])
        if abs(center - 914.7) <= 1.0 and abs(width - 9.0) <= 3.0:
            hits += 1
    assert hits >= 45, f"line recovered in only {hits}/50 runs"
    assert time.monotonic() - start < 60.0


def test_criterion_09_rabi_frequency_recovered_at_shot_noise():
    start = time.monotonic()
    truth = rabi_truth()
    seq = default_sequence(SequenceKind.RABI)
    for seed in range(10):
        det = detector(n_avg=100_000, seed=seed)
        raw = synthesize(seq, truth, det)
        work = Trace(raw.x, raw.x_kind,
                     {"SIG1n": normalized_channels(raw)["SIG1n"]}, raw.n_avg)
        fit = fit_rabi(work)
        assert abs(fit.params[0] - 5.50) <= 0.05, f"seed {seed}"
    assert time.monotonic() - start < 30.0


def test_criterion_10_g_value_in_free_electron_band():
    start = time.monotonic()
    estimate = invert_field(MEASURED_PAIR, MEASURED_PAIR_ERRORS)
    g = g_value(914.7, estimate.b0)
    assert 2.002 <= g <= 2.012
    assert time.monotonic() - start < 1.0


def test_criterion_11_no_coupled_spins_means_no_detected_signal():
    start = time.monotonic()
    flat = DeerSpectrumModel(center=914.7, width=9.0, amplitude=0.0,
                             baseline=0.5)
    seq = default_sequence(SequenceKind.CPMG_DEER)
    hits = 0
    for seed in range(50):
        det = detector(n_avg=1_330_000, contrast=0.166, seed=seed)
        trace = synthesize(seq, flat, det)
        if snr_estimate(trace) < 1.0:
            hits += 1
    assert hits >= 45, f"SNR below 1 in only {hits}/50 runs"
    assert time.monotonic() - start < 60.0


def test_criterion_12_simulate_is_deterministic_across_runs_and_threads(
        tmp_path):
    start = time.monotonic()
    exe = shutil.which("nvsense")
    base = [exe] if exe else [sys.executable, "-m", "nvsense.cli"]
    paths = {name: tmp_path / f"{name}.csv"
             for name in ("run1", "run2", "w1", "w4")}
    for name, extra in (("run1", []), ("run2", []),
                        ("w1", ["--workers", "1"]),
                        ("w4", ["--workers", "4"])):
        cmd = base + ["simulate", "--kind", "deer-rabi", "--seed", "7",
                      "--out", str(paths[name])] + extra
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert paths["run1"].read_bytes() == paths["run2"].read_bytes()
    assert paths["w1"].read_bytes() == paths["w4"].read_bytes()
    assert paths["run1"].read_bytes() == paths["w1"].read_bytes()
    assert time.monotonic() - start < 30.0
