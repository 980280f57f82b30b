"""Synthesis pipeline: detector statistics, channels, normalization, SNR."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvsense.core import (PHOTON_CHANNELS, TWO_PI, DegenerateReferenceError,
                          Trace, XKind)
from nvsense.deer import DeerSpectrumModel, deer_spectrum, nv_epr_signal
from nvsense.eseem import cpmg_echo_model
from nvsense.fitting import fit_deer_rabi
from nvsense.hamiltonian import transition_frequencies
from nvsense.presets import (DEFAULT_N_AVG, NULL_CENTERS, default_sequence,
                             default_truth, detector, echo_truth, epr_line,
                             odmr_truth, rabi_truth, target_pair)
from nvsense.synth import (DetectorModel, RabiTruth, SequenceKind,
                           SequenceSpec, coherence_trace, difference_signal,
                           normalize_channels, normalized_channels,
                           snr_estimate, synthesize)

ALL_KINDS = list(SequenceKind)


class TestDetectorModel:
    def test_contrast_property(self):
        det = DetectorModel(counts_bright=0.05, counts_dark=0.0417)
        assert det.contrast == pytest.approx(0.166, abs=1e-12)

    def test_preset_detector_contrast(self):
        det = detector(n_avg=1000, contrast=0.127)
        assert det.contrast == pytest.approx(0.127, abs=1e-12)
        assert det.counts_bright == 0.05

    def test_bright_must_exceed_dark(self):
        with pytest.raises(ValueError):
            DetectorModel(counts_bright=0.04, counts_dark=0.05)
        with pytest.raises(ValueError):
            DetectorModel(counts_bright=0.05, counts_dark=0.05)
        with pytest.raises(ValueError):
            DetectorModel(counts_bright=0.05, counts_dark=-0.01)

    def test_n_avg_validation(self):
        for bad in (0, -5, 1.5):
            with pytest.raises(ValueError):
                DetectorModel(n_avg=bad)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(seed=-1)
        with pytest.raises(ValueError):
            DetectorModel(seed=2.5)


class TestSequenceSpec:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SequenceSpec(kind=SequenceKind.RABI, grid=[0.0, 0.5, 0.4])
        with pytest.raises(ValueError):
            SequenceSpec(kind=SequenceKind.RABI, grid=[0.0, 0.5, 0.5])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_spanning_the_float_range(self):
        # the difference of the ends overflows; comparing neighbours does not
        spec = SequenceSpec(kind=SequenceKind.RABI, grid=[-1e308, 1e308])
        assert spec.grid.tolist() == [-1e308, 1e308]
        with pytest.raises(ValueError, match="strictly increasing"):
            SequenceSpec(kind=SequenceKind.RABI, grid=[1e308, -1e308])

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError):
            SequenceSpec(kind=SequenceKind.RABI, grid=[1.0])

    def test_grid_finite(self):
        with pytest.raises(ValueError):
            SequenceSpec(kind=SequenceKind.RABI, grid=[0.0, np.inf])

    def test_grid_read_only(self):
        spec = SequenceSpec(kind=SequenceKind.RABI, grid=[0.0, 1.0])
        with pytest.raises(ValueError):
            spec.grid[0] = 5.0

    def test_cpmg_kinds_need_even_pulses(self):
        for kind in (SequenceKind.CPMG8, SequenceKind.CPMG_DEER,
                     SequenceKind.DEER_RABI):
            with pytest.raises(ValueError):
                SequenceSpec(kind=kind, grid=[0.0, 1.0], n_pulses=7)
            with pytest.raises(ValueError):
                SequenceSpec(kind=kind, grid=[0.0, 1.0], n_pulses=0)

    def test_tau_positive(self):
        with pytest.raises(ValueError):
            SequenceSpec(kind=SequenceKind.CPMG_DEER, grid=[880.0, 950.0],
                         tau=-1.0)

    def test_channel_names_validated(self):
        with pytest.raises(ValueError):
            SequenceSpec(kind=SequenceKind.RABI, grid=[0.0, 1.0],
                         channels=("SIG1", "BOGUS"))
        with pytest.raises(ValueError):
            SequenceSpec(kind=SequenceKind.RABI, grid=[0.0, 1.0],
                         channels=("SIG1", "SIG1"))

    def test_default_channels(self):
        three = SequenceSpec(kind=SequenceKind.RABI, grid=[0.0, 1.0])
        assert three.resolved_channels() == ("SIG1", "REF1", "REF2")
        four = SequenceSpec(kind=SequenceKind.DEER_RABI, grid=[0.0, 1.0])
        assert four.resolved_channels() == ("SIG1", "SIG2", "REF1", "REF2")

    def test_x_kind_mapping(self):
        assert SequenceSpec(kind=SequenceKind.PULSED_ODMR,
                            grid=[1.0, 2.0]).x_kind is XKind.FREQUENCY
        assert SequenceSpec(kind=SequenceKind.CPMG8,
                            grid=[1.0, 2.0]).x_kind is XKind.EVOLUTION_TIME

    def test_kind_type_checked(self):
        with pytest.raises(ValueError):
            SequenceSpec(kind="rabi", grid=[0.0, 1.0])


class TestNormalize:
    def test_anchor_points(self):
        ref1 = np.full(5, 0.05)
        ref2 = np.full(5, 0.04)
        assert np.allclose(normalize_channels(ref1, ref1, ref2), 1.0)
        assert np.allclose(normalize_channels(ref2, ref1, ref2), 0.0)
        mid = 0.5 * (ref1 + ref2)
        assert np.allclose(normalize_channels(mid, ref1, ref2), 0.5)

    def test_degenerate_references_raise(self):
        ref1 = np.array([0.05, 0.04])
        ref2 = np.array([0.04, 0.04])
        with pytest.raises(DegenerateReferenceError):
            normalize_channels(ref1, ref1, ref2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            normalize_channels(np.zeros(3), np.ones(3), np.zeros(4))

    def test_normalized_channels_requires_refs(self):
        tr = Trace(np.array([0.0, 1.0]), XKind.PULSE_LENGTH,
                   {"SIG1": np.array([0.5, 0.6])}, 100)
        with pytest.raises(ValueError, match="REF1"):
            normalized_channels(tr)

    def test_normalized_channels_requires_signal(self):
        tr = Trace(np.array([0.0, 1.0]), XKind.PULSE_LENGTH,
                   {"REF1": np.array([1.0, 1.0]),
                    "REF2": np.array([0.0, 0.0])}, 100)
        with pytest.raises(ValueError, match="SIG"):
            normalized_channels(tr)

    def test_unresolved_reference_pools_every_point(self):
        # one point with REF1 == REF2: every point is normalized against
        # the sweep means, and a non-positive mean separation still raises
        ref1 = np.array([0.05, 0.05, 0.0417, 0.05])
        ref2 = np.full(4, 0.0417)
        sig1 = np.array([0.045, 0.047, 0.044, 0.046])
        tr = Trace(np.arange(4.0), XKind.PULSE_LENGTH,
                   {"SIG1": sig1, "REF1": ref1, "REF2": ref2}, 1_000_000)
        expect = normalize_channels(sig1, np.full(4, ref1.mean()),
                                    np.full(4, ref2.mean()))
        assert normalized_channels(tr)["SIG1n"].tobytes() == expect.tobytes()
        flat = tr.with_channels({"SIG1": sig1, "REF1": ref2, "REF2": ref2})
        with pytest.raises(DegenerateReferenceError):
            normalized_channels(flat)

    @pytest.mark.parametrize("n", [2, 3, 9])
    @pytest.mark.parametrize("value", [1e308, np.finfo(float).max])
    def test_references_at_the_float_range_end(self, n, value):
        # a plain sum of the references overflows here; the pooled means
        # stay finite, equal, and raise as a zero separation, no warning
        tr = Trace(np.arange(float(n)), XKind.PULSE_LENGTH,
                   {"SIG1": np.zeros(n), "REF1": np.full(n, value),
                    "REF2": np.full(n, value)}, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateReferenceError):
                normalized_channels(tr)
            bright = tr.with_channels({"SIG1": np.full(n, value),
                                       "REF1": np.full(n, value),
                                       "REF2": np.zeros(n)})
            assert np.all(normalized_channels(bright)["SIG1n"] == 1.0)

    def test_difference_signal_two_channels(self):
        x = np.array([0.0, 1.0, 2.0])
        sig1 = np.array([0.05, 0.045, 0.0417])
        tr = Trace(x, XKind.PULSE_LENGTH,
                   {"SIG1": sig1, "SIG2": 0.05 + 0.0417 - sig1,
                    "REF1": np.full(3, 0.05), "REF2": np.full(3, 0.0417)},
                   100)
        norm = normalized_channels(tr)
        s = difference_signal(tr)
        assert np.allclose(s, norm["SIG1n"] - norm["SIG2n"], atol=1e-15)
        assert np.allclose(norm["SIG1n"] + norm["SIG2n"], 1.0, atol=1e-12)

    def test_difference_signal_single_channel(self):
        x = np.array([0.0, 1.0])
        tr = Trace(x, XKind.PULSE_LENGTH,
                   {"SIG1": np.array([0.05, 0.0417]),
                    "REF1": np.full(2, 0.05), "REF2": np.full(2, 0.0417)},
                   100)
        assert np.allclose(difference_signal(tr), [1.0, -1.0], atol=1e-12)


def _noiseless(kind, n_avg=1000):
    spec = default_sequence(kind)
    truth = default_truth(kind)
    det = DetectorModel(n_avg=n_avg, noiseless=True)
    return spec, truth, synthesize(spec, truth, det)


class TestNoiselessRoundTrip:
    # each kind is checked against the model formula written out
    # independently here, through the full channel + normalization path

    def test_references_are_pure_rates(self):
        for kind in ALL_KINDS:
            _, _, tr = _noiseless(kind)
            assert np.all(tr.channel("REF1") == 0.05)
            assert np.all(tr.channel("REF2") == 0.0417)

    def test_pulsed_odmr(self):
        spec, truth, tr = _noiseless(SequenceKind.PULSED_ODMR)
        pair = transition_frequencies(truth.b0, truth.theta)
        dips = (np.exp(-((spec.grid - pair.f_minus) ** 2)
                       / (2.0 * truth.linewidth_mhz ** 2))
                + np.exp(-((spec.grid - pair.f_plus) ** 2)
                         / (2.0 * truth.linewidth_mhz ** 2)))
        expect = np.clip(1.0 - truth.transfer * dips, 0.0, 1.0)
        got = normalized_channels(tr)["SIG1n"]
        assert np.allclose(got, expect, atol=1e-12)

    def test_rabi(self):
        spec, truth, tr = _noiseless(SequenceKind.RABI)
        t = spec.grid
        expect = 0.5 * (1.0 + np.exp(-((t / truth.t0_us) ** 2))
                        * np.cos(TWO_PI * truth.f_mhz * t))
        got = normalized_channels(tr)["SIG1n"]
        assert np.allclose(got, expect, atol=1e-12)

    def test_cpmg8(self):
        spec, truth, tr = _noiseless(SequenceKind.CPMG8)
        s = cpmg_echo_model(spec.grid, truth.nuclei, truth.bath,
                            truth.t2_us, n_pulses=8)
        got = difference_signal(tr)
        assert np.allclose(got, s, atol=1e-12)

    def test_cpmg_deer(self):
        spec, truth, tr = _noiseless(SequenceKind.CPMG_DEER)
        expect = deer_spectrum(spec.grid, truth)
        got = difference_signal(tr)
        assert np.allclose(got, expect, atol=1e-12)

    def test_deer_rabi(self):
        spec, truth, tr = _noiseless(SequenceKind.DEER_RABI)
        expect = nv_epr_signal(truth, spec.grid)
        got = coherence_trace(tr).channel("coherence")
        assert np.allclose(got, expect, atol=1e-12)

    def test_complementary_channels_sum_to_one(self):
        for kind in (SequenceKind.CPMG8, SequenceKind.CPMG_DEER,
                     SequenceKind.DEER_RABI):
            _, _, tr = _noiseless(kind)
            norm = normalized_channels(tr)
            assert np.allclose(norm["SIG1n"] + norm["SIG2n"], 1.0,
                               atol=1e-12)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        spec = default_sequence(SequenceKind.DEER_RABI)
        truth = target_pair()
        det = DetectorModel(n_avg=10_000, seed=7)
        a = synthesize(spec, truth, det)
        b = synthesize(spec, truth, det)
        for name in a.channel_names:
            assert a.channel(name).tobytes() == b.channel(name).tobytes()

    def test_different_seeds_differ(self):
        spec = default_sequence(SequenceKind.RABI)
        truth = rabi_truth()
        a = synthesize(spec, truth, DetectorModel(n_avg=1000, seed=0))
        b = synthesize(spec, truth, DetectorModel(n_avg=1000, seed=1))
        assert not np.array_equal(a.channel("SIG1"), b.channel("SIG1"))


@st.composite
def noisy_runs(draw):
    kind = draw(st.sampled_from(ALL_KINDS))
    base = default_sequence(kind).grid
    spec = SequenceSpec(
        kind=kind, grid=np.linspace(base[0], base[-1],
                                    draw(st.integers(2, 300))),
        channels=draw(st.lists(st.sampled_from(PHOTON_CHANNELS), min_size=1,
                               max_size=4, unique=True)))
    # n_avg spans every lam regime: the multiplication method below 10,
    # PTRS, and lam beyond numpy's maximum from ~2**67 on
    n_avg = draw(st.integers(0, 68).flatmap(
        lambda e: st.integers(2 ** e, 2 ** (e + 1))))
    seed = draw(st.one_of(st.integers(0, 2 ** 32 - 1),
                          st.integers(2 ** 32, 2 ** 128),
                          st.integers(2 ** 128, 2 ** 200),
                          # DetectorModel takes numpy integers too
                          st.integers(0, 2 ** 63 - 1).map(np.int64),
                          st.integers(0, 2 ** 64 - 1).map(np.uint64)))
    counts_dark = draw(st.one_of(st.just(1e-9),
                                 st.floats(1e-9, 0.049)))
    det = DetectorModel(counts_dark=counts_dark, n_avg=n_avg, seed=seed,
                        n_avg_is_total=draw(st.booleans()))
    return spec, default_truth(kind), det


class TestChannelDraws:
    @settings(max_examples=150, deadline=None)
    @given(run=noisy_runs())
    def test_draw_contract(self, run):
        spec, truth, det = run
        clean = synthesize(spec, truth, dataclasses.replace(det, noiseless=True))
        n_eff = clean.n_avg
        try:
            # numpy checks lam before it draws, whatever the stream
            for rates in clean.channels.values():
                np.random.Generator(np.random.Philox(0)).poisson(n_eff * rates)
        except (ValueError, OverflowError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                synthesize(*run)
            return
        got = synthesize(*run)
        again = synthesize(*run)
        assert got.n_avg == n_eff
        assert got.channel_names == clean.channel_names
        for name in got.channel_names:
            values = got.channel(name)
            # non-negative integer counts over n_eff, to float precision
            counts = np.rint(values * n_eff)
            assert np.all(counts >= 0)
            assert np.all(np.abs(values * n_eff - counts) <= 2.0 ** -50 * counts)
            assert values.tobytes() == again.channel(name).tobytes()
            # a channel's draw does not depend on the other channels
            alone = synthesize(dataclasses.replace(spec, channels=(name,)),
                               truth, det)
            assert alone.channel(name).tobytes() == values.tobytes()


class TestPhotonStatistics:
    def test_poisson_variance_calibration(self):
        # counts at one grid point over many seeds must have variance
        # equal to their mean (3 sigma band for 1000 draws)
        spec = SequenceSpec(kind=SequenceKind.RABI, grid=[0.0, 0.5])
        truth = RabiTruth(f_mhz=5.5, t0_us=0.67)
        n = 50_000
        t = 0.5
        m = 0.5 * (1.0 + math.exp(-((t / 0.67) ** 2))
                   * math.cos(TWO_PI * 5.5 * t))
        rate = 0.0417 + (0.05 - 0.0417) * m
        counts = np.empty(1000)
        for seed in range(1000):
            tr = synthesize(spec, truth, DetectorModel(n_avg=n, seed=seed))
            counts[seed] = tr.channel("SIG1")[1] * n
        ratio = np.var(counts, ddof=1) / (n * rate)
        assert abs(ratio - 1.0) < 0.134
        assert np.mean(counts) == pytest.approx(n * rate, rel=0.01)

    def test_channel_ordering(self):
        # bright reference above signal above dark reference on average
        spec = default_sequence(SequenceKind.CPMG_DEER)
        tr = synthesize(spec, epr_line(), DetectorModel(n_avg=20_000, seed=5))
        assert np.mean(tr.channel("REF1")) > np.mean(tr.channel("SIG1"))
        assert np.mean(tr.channel("SIG1")) > np.mean(tr.channel("REF2"))


class TestKindTruthMismatch:
    def test_wrong_truth_rejected(self):
        wrong = {
            SequenceKind.PULSED_ODMR: rabi_truth(),
            SequenceKind.RABI: odmr_truth(),
            SequenceKind.CPMG8: epr_line(),
            SequenceKind.CPMG_DEER: echo_truth(),
            SequenceKind.DEER_RABI: odmr_truth(),
        }
        det = DetectorModel(n_avg=100, noiseless=True)
        for kind, truth in wrong.items():
            with pytest.raises(ValueError, match="needs"):
                synthesize(default_sequence(kind), truth, det)


class TestSplitBudget:
    def test_total_budget_divides_across_grid(self):
        spec = default_sequence(SequenceKind.DEER_RABI)
        det = detector(n_avg=1_260_000, seed=1, n_avg_is_total=True)
        tr = synthesize(spec, target_pair(), det)
        assert tr.n_avg == 1_260_000 // 101 == 12475

    def test_split_budget_noise_level(self):
        # with the full budget split over the grid the per-point scatter
        # sits near 0.2 in coherence units
        spec = default_sequence(SequenceKind.DEER_RABI)
        truth = target_pair()
        model = nv_epr_signal(truth, spec.grid)
        for seed in (1, 2, 3, 4):
            det = detector(n_avg=1_260_000, seed=seed, n_avg_is_total=True)
            u = coherence_trace(synthesize(spec, truth, det))
            resid = u.channel("coherence") - model
            assert 0.1 < float(np.std(resid)) < 0.35

    def test_no_split_budget_trace_raises(self):
        # some of these seeds have a point with REF1 - REF2 <= 0, where a
        # per-point normalization raises; every trace pools its references
        spec = default_sequence(SequenceKind.DEER_RABI)
        truth = target_pair()
        unresolved = 0
        for seed in range(50):
            det = detector(n_avg=1_260_000, seed=seed, n_avg_is_total=True)
            tr = synthesize(spec, truth, det)
            unresolved += bool(np.any(tr.channel("REF1") <= tr.channel("REF2")))
            u = coherence_trace(tr).channel("coherence")
            assert np.all(np.isfinite(u))
        assert unresolved > 0

    def test_split_budget_fit_recovers_couplings(self):
        spec = default_sequence(SequenceKind.DEER_RABI)
        truth = target_pair()
        det = detector(n_avg=1_260_000, seed=1, n_avg_is_total=True)
        u = coherence_trace(synthesize(spec, truth, det))
        fit = fit_deer_rabi(u, n_spins=2)
        dw = np.sort(fit.params[:2]) - np.array(truth.omegas)
        assert abs(dw[0]) <= TWO_PI * 0.13
        assert abs(dw[1]) <= TWO_PI * 0.17


class TestSnrEstimate:
    def test_noiseless_peak_is_huge(self):
        spec, truth, tr = _noiseless(SequenceKind.CPMG_DEER)
        assert snr_estimate(tr) >= 1e6

    def test_real_peak_detected(self):
        spec = default_sequence(SequenceKind.CPMG_DEER)
        det = detector(n_avg=DEFAULT_N_AVG[SequenceKind.CPMG_DEER], seed=0)
        tr = synthesize(spec, epr_line(), det)
        assert snr_estimate(tr) > 2.0

    def test_no_coupled_spins_reads_below_one(self):
        # control center: flat line at full experimental averaging
        null = NULL_CENTERS["null-a"]
        spec = default_sequence(SequenceKind.CPMG_DEER)
        flat = DeerSpectrumModel(center=914.7, width=9.0, amplitude=0.0,
                                 baseline=0.5)
        below = 0
        for seed in range(20):
            det = detector(n_avg=null.n_avg, contrast=null.contrast,
                           seed=seed)
            tr = synthesize(spec, flat, det)
            if snr_estimate(tr) < 1.0:
                below += 1
        assert below >= 16

    def test_invariant_to_relabelled_single_channel(self):
        spec = default_sequence(SequenceKind.CPMG_DEER)
        det = detector(n_avg=200_000, seed=2)
        tr = synthesize(spec, epr_line(), det)
        s = difference_signal(tr)
        single = Trace(tr.x, tr.x_kind, {"whatever": s}, tr.n_avg)
        assert snr_estimate(single) == pytest.approx(snr_estimate(tr),
                                                     rel=1e-9)
