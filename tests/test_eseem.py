import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from nvsense.core import DEFAULT_CONSTANTS, TWO_PI
from nvsense.eseem import (BathModel, EseemNucleus, bath_decoherence,
                           cpmg_echo_model, density_matrix_eseem_oracle,
                           electron_gamma_per_ut, eseem_modulation,
                           eseem_spectrum, load_hyperfine_table,
                           nucleus_from_record)

B0_MAIN = 32.59


def random_nucleus(rng, general_ms=False):
    kwargs = {}
    if general_ms:
        ms = rng.choice([-1.0, 0.0, 1.0], size=2, replace=False)
        kwargs = {"ms_alpha": float(ms[0]), "ms_beta": float(ms[1])}
    return EseemNucleus(a=rng.uniform(-30.0, 30.0),
                        b=rng.uniform(0.1, 30.0),
                        omega_i=rng.uniform(0.5, 15.0), **kwargs)


def expm_walk_oracle(tau, n_pulses, nucleus):
    """The oracle for density_matrix_eseem_oracle: per point, four matrix
    exponentials and the [tau, 2tau, ..., 2tau, tau] walk.  tau is 1-d."""
    iz = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
    ix = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)

    def branch_h(ms):
        return (nucleus.omega_i + ms * nucleus.a) * iz + ms * nucleus.b * ix

    h_by_branch = {0: branch_h(nucleus.ms_alpha), 1: branch_h(nucleus.ms_beta)}
    tau_arr = np.asarray(tau, dtype=float)
    out = np.empty(tau_arr.shape)
    for idx, t in enumerate(tau_arr):
        u = {(br, mult): expm(-1j * h_by_branch[br] * (mult * t))
             for br in (0, 1) for mult in (1, 2)}
        intervals = [1] + [2] * (n_pulses - 1) + [1]
        g_ket = np.eye(2, dtype=complex)
        g_bra = np.eye(2, dtype=complex)
        for j, mult in enumerate(intervals):
            g_ket = u[(j % 2, mult)] @ g_ket
            g_bra = u[((j + 1) % 2, mult)] @ g_bra
        out[idx] = 0.5 * np.real(np.trace(g_ket @ g_bra.conj().T))
    return out


class TestSpectrum:
    def test_branch_frequency(self):
        nuc = EseemNucleus(a=3.0, b=4.0, omega_i=1.0)
        assert nuc.branch_frequency(0.0) == pytest.approx(1.0)
        assert nuc.branch_frequency(1.0) == pytest.approx(math.hypot(4.0, 4.0))

    def test_mu_lam_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            spec = eseem_spectrum(random_nucleus(rng, general_ms=True))
            assert spec.mu + spec.lam == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= spec.k <= 1.0

    def test_depth_equals_sin_sq_axis_angle(self):
        # k = (B w_I dm / (w_a w_b))^2 must equal sin^2 of the angle
        # between the two branch quantization axes
        rng = np.random.default_rng(4)
        for _ in range(200):
            nuc = random_nucleus(rng)
            spec = eseem_spectrum(nuc)
            eta_a = math.atan2(nuc.ms_alpha * nuc.b,
                               nuc.omega_i + nuc.ms_alpha * nuc.a)
            eta_b = math.atan2(nuc.ms_beta * nuc.b,
                               nuc.omega_i + nuc.ms_beta * nuc.a)
            assert spec.k == pytest.approx(math.sin(eta_a - eta_b) ** 2,
                                           abs=1e-10)

    def test_combination_frequencies(self):
        nuc = EseemNucleus(a=2.0, b=1.5, omega_i=5.0)
        spec = eseem_spectrum(nuc)
        assert spec.omega_plus == pytest.approx(spec.omega_alpha
                                                + spec.omega_beta)
        assert abs(spec.omega_minus) == pytest.approx(
            abs(spec.omega_alpha - spec.omega_beta))

    def test_nitrogen_depth_is_negligible(self):
        table = load_hyperfine_table()
        nuc = nucleus_from_record(table["14n"], B0_MAIN)
        k = eseem_spectrum(nuc).k
        assert 5e-5 <= k <= 5e-4

    def test_near_site_carbon_depth(self):
        # frozen regression value for the weakly coupled 13C site
        table = load_hyperfine_table()
        nuc = nucleus_from_record(table["near-13c"], B0_MAIN)
        assert eseem_spectrum(nuc).k == pytest.approx(0.947870, abs=1e-4)

    def test_degenerate_branch_rejected(self):
        # a = -omega_i with b = 0 zeroes the beta-branch frequency
        with pytest.raises(ValueError):
            eseem_spectrum(EseemNucleus(a=-5.0, b=0.0, omega_i=5.0))

    def test_reduced_form_flagged(self):
        # omega_i = 0 with A = 0: both branch frequencies collapse
        with pytest.raises(ValueError):
            eseem_spectrum(EseemNucleus(a=0.0, b=0.0, omega_i=0.0))


class TestModulation:
    def test_tau_zero_is_unity(self):
        nuc = EseemNucleus(a=3.0, b=5.0, omega_i=2.0)
        for n in (2, 4, 8):
            assert eseem_modulation(0.0, n, nuc) == pytest.approx(1.0,
                                                                  abs=1e-12)

    def test_odd_pulse_count_rejected(self):
        nuc = EseemNucleus(a=3.0, b=5.0, omega_i=2.0)
        with pytest.raises(ValueError):
            eseem_modulation(1.0, 3, nuc)
        with pytest.raises(ValueError):
            eseem_modulation(1.0, 0, nuc)

    def test_pure_secular_coupling_no_modulation(self):
        # B = 0 means both branches share the quantization axis: k = 0
        nuc = EseemNucleus(a=7.0, b=0.0, omega_i=2.0)
        taus = np.linspace(0.0, 5.0, 57)
        assert np.allclose(eseem_modulation(taus, 8, nuc), 1.0, atol=1e-12)

    def test_scalar_in_scalar_out(self):
        nuc = EseemNucleus(a=3.0, b=5.0, omega_i=2.0)
        v = eseem_modulation(0.7, 4, nuc)
        assert isinstance(v, float)

    def test_matches_propagation_oracle(self):
        rng = np.random.default_rng(11)
        taus = np.linspace(0.0, 5.0, 83)
        for _ in range(10):
            nuc = random_nucleus(rng)
            for n in (2, 4, 8):
                closed = eseem_modulation(taus, n, nuc)
                oracle = density_matrix_eseem_oracle(taus, n, nuc)
                assert np.max(np.abs(closed - oracle)) < 1e-6

    def test_matches_oracle_general_ms_pairs(self):
        rng = np.random.default_rng(12)
        taus = np.linspace(0.0, 4.0, 61)
        for _ in range(6):
            nuc = random_nucleus(rng, general_ms=True)
            closed = eseem_modulation(taus, 4, nuc)
            oracle = density_matrix_eseem_oracle(taus, 4, nuc)
            assert np.max(np.abs(closed - oracle)) < 1e-6

    @settings(max_examples=150, deadline=None)
    @given(a=st.floats(-30.0, 30.0), b=st.floats(0.1, 30.0),
           omega_i=st.floats(0.5, 15.0),
           n_pulses=st.sampled_from([2, 4, 6, 8]),
           taus=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8))
    def test_matches_oracle_over_the_domain(self, a, b, omega_i, n_pulses,
                                            taus):
        # criterion 04's domain and tolerance, at any point of it
        nuc = EseemNucleus(a=a, b=b, omega_i=omega_i)
        taus = np.array(taus)
        closed = eseem_modulation(taus, n_pulses, nuc)
        oracle = density_matrix_eseem_oracle(taus, n_pulses, nuc)
        assert np.max(np.abs(closed - oracle)) <= 1e-6

    def test_oracle_supports_single_pulse(self):
        # plain Hahn echo from the propagation route (closed form is
        # CPMG-only); V stays within [-1, 1]
        nuc = EseemNucleus(a=3.0, b=5.0, omega_i=2.0)
        v = density_matrix_eseem_oracle(np.linspace(0.0, 3.0, 31), 1, nuc)
        assert np.all(np.abs(v) <= 1.0 + 1e-12)
        assert v[0] == pytest.approx(1.0)


    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(-30.0, 30.0), b=st.floats(0.1, 30.0),
           omega_i=st.floats(0.5, 15.0),
           n_pulses=st.sampled_from([1, 2, 3, 5, 8]),
           ms=st.sampled_from([(0.0, 1.0), (1.0, 0.0), (0.0, -1.0),
                               (-1.0, 0.0), (1.0, -1.0), (-1.0, 1.0)]),
           taus=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8))
    def test_oracle_matches_expm_walk(self, a, b, omega_i, n_pulses, ms,
                                      taus):
        # criterion 04's domain, odd and even N, every ms pair
        nuc = EseemNucleus(a=a, b=b, omega_i=omega_i, ms_alpha=ms[0],
                           ms_beta=ms[1])
        taus = np.array(taus)
        got = density_matrix_eseem_oracle(taus, n_pulses, nuc)
        assert np.max(np.abs(got - expm_walk_oracle(taus, n_pulses,
                                                    nuc))) <= 1e-11

    SHAPES = [(), (4,), (2, 2), (1, 3), (3, 1), (2, 0)]

    def test_oracle_keeps_tau_shape(self):
        # any tau shape gives the values of the same points passed flat
        nuc = EseemNucleus(a=5.0, b=3.0, omega_i=4.0)
        rng = np.random.default_rng(13)
        for n in (1, 2, 3):
            for shape in self.SHAPES:
                tau = rng.uniform(0.0, 2.0, size=shape)
                got = density_matrix_eseem_oracle(tau, n, nuc)
                flat = density_matrix_eseem_oracle(tau.ravel(), n, nuc)
                assert np.shape(got) == shape
                assert isinstance(got, float) == (shape == ())
                np.testing.assert_array_equal(np.ravel(got), flat)

    def test_oracle_any_shape_matches_closed_form(self):
        nuc = EseemNucleus(a=5.0, b=3.0, omega_i=4.0)
        tau = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert density_matrix_eseem_oracle(tau, 2, nuc) == pytest.approx(
            np.array([[0.99749, 0.92517], [0.79986, 0.92603]]), abs=1e-5)
        rng = np.random.default_rng(14)
        for n in (2, 4, 8):
            for shape in self.SHAPES:
                tau = rng.uniform(0.0, 2.0, size=shape)
                np.testing.assert_allclose(
                    density_matrix_eseem_oracle(tau, n, nuc),
                    eseem_modulation(tau, n, nuc), rtol=0, atol=1e-9)


def test_runs_without_scipy(tmp_path):
    # numpy is the one runtime dependency: the package, the eseem command
    # and the propagation oracle at odd N all work with scipy unimportable
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        import nvsense
        from nvsense import cli
        from nvsense.eseem import EseemNucleus, density_matrix_eseem_oracle
        assert cli.main(["eseem", "--mode", "echo", "--out", sys.argv[1]]) == 0
        nuc = EseemNucleus(a=3.0, b=5.0, omega_i=2.0)
        for n in (1, 3):
            v = density_matrix_eseem_oracle(np.linspace(0.0, 3.0, 31), n, nuc)
            assert np.all(np.abs(v) <= 1.0 + 1e-12), v
        assert not any(name.startswith("scipy.") for name in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", code,
                           str(tmp_path / "e.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "e.csv").exists()


class TestBath:
    def bath(self):
        omega_i = TWO_PI * DEFAULT_CONSTANTS.gamma_c13 * B0_MAIN
        return BathModel(b_rms=4.0, omega_i=omega_i)

    def test_gamma_conversion(self):
        # 2 pi * 28.024 MHz/mT in rad/(us uT)
        assert electron_gamma_per_ut() == pytest.approx(0.176080, abs=1e-5)

    def test_starts_at_unity_and_bounded(self):
        taus = np.linspace(0.0, 5.0, 301)
        c = bath_decoherence(taus, self.bath(), 8)
        assert c[0] == pytest.approx(1.0)
        assert np.all(c <= 1.0 + 1e-15)
        assert np.all(c > 0.0)

    def test_resonance_value_exact(self):
        # at tau* = pi / omega_i the sinc argument vanishes and
        # C = exp[-(2/pi^2) (gamma_e B)^2 (N tau*)^2]
        bath = self.bath()
        tau_star = math.pi / bath.omega_i
        gamma_e = electron_gamma_per_ut()
        expected = math.exp(-(2.0 / math.pi ** 2)
                            * (gamma_e * bath.b_rms) ** 2
                            * (8 * tau_star) ** 2)
        assert bath_decoherence(tau_star, bath, 8) == pytest.approx(
            expected, rel=1e-12)

    def test_stronger_bath_decoheres_more(self):
        taus = np.linspace(0.1, 5.0, 50)
        omega_i = self.bath().omega_i
        weak = bath_decoherence(taus, BathModel(2.0, omega_i), 8)
        strong = bath_decoherence(taus, BathModel(8.0, omega_i), 8)
        assert np.all(strong <= weak + 1e-15)

    @settings(max_examples=300, deadline=None)
    @given(taus=st.lists(st.floats(0.0, 1e100), min_size=1, max_size=8),
           b_rms=st.floats(0.0, 1e100), omega_i=st.floats(0.0, 1e100),
           n_pulses=st.integers(1, 10 ** 6))
    def test_bounded_and_unity_at_zero(self, taus, b_rms, omega_i, n_pulses):
        c = bath_decoherence(np.array([0.0] + taus),
                             BathModel(b_rms, omega_i), n_pulses)
        assert c[0] == 1.0
        assert np.all((c >= 0.0) & (c <= 1.0))

    @settings(max_examples=300, deadline=None)
    @given(tau=st.floats(0.0, allow_infinity=False),
           b_rms=st.floats(0.0, allow_infinity=False),
           omega_i=st.floats(0.0, allow_infinity=False),
           n_pulses=st.integers(1, 10 ** 6))
    def test_bounded_or_rejected_past_float_range(self, tau, b_rms, omega_i,
                                                  n_pulses):
        try:
            c = bath_decoherence(tau, BathModel(b_rms, omega_i), n_pulses)
        except ValueError as exc:
            assert "float range" in str(exc)
        else:
            assert 0.0 <= c <= 1.0

    def test_subnormal_tau_takes_the_zero_limit(self):
        assert bath_decoherence(5e-324, self.bath(), 8) == 1.0

    @pytest.mark.parametrize("tau, b_rms", [(1e160, 4.0), (0.0, 1e200)])
    def test_past_float_range_rejected(self, tau, b_rms):
        with pytest.raises(ValueError, match="float range"):
            bath_decoherence(tau, BathModel(b_rms, 1.0), 1)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            bath_decoherence(-0.1, self.bath(), 8)

    @pytest.mark.parametrize("n_pulses", [0, -2, 4.0])
    def test_bad_pulse_count_rejected(self, n_pulses):
        with pytest.raises(ValueError):
            bath_decoherence(0.1, self.bath(), n_pulses)


class TestEchoModel:
    def test_bare_exponential_without_nuclei(self):
        t = np.linspace(0.0, 64.0, 100)
        s = cpmg_echo_model(t, (), None, 38.0)
        assert np.allclose(s, np.exp(-t / 38.0), rtol=1e-12)

    def test_factorizes_into_parts(self):
        table = load_hyperfine_table()
        nuc1 = nucleus_from_record(table["near-13c"], B0_MAIN)
        nuc2 = nucleus_from_record(table["14n"], B0_MAIN)
        omega_i = TWO_PI * DEFAULT_CONSTANTS.gamma_c13 * B0_MAIN
        bath = BathModel(4.0, omega_i)
        t = np.linspace(0.8, 64.0, 73)
        tau = t / 16.0
        s = cpmg_echo_model(t, (nuc1, nuc2), bath, 38.0)
        manual = (np.exp(-t / 38.0) * bath_decoherence(tau, bath, 8)
                  * eseem_modulation(tau, 8, nuc1)
                  * eseem_modulation(tau, 8, nuc2))
        assert np.allclose(s, manual, rtol=1e-12)

    def test_nucleus_order_irrelevant(self):
        rng = np.random.default_rng(2)
        nuclei = [random_nucleus(rng) for _ in range(3)]
        t = np.linspace(0.5, 30.0, 41)
        a = cpmg_echo_model(t, tuple(nuclei), None, 20.0)
        b = cpmg_echo_model(t, tuple(reversed(nuclei)), None, 20.0)
        assert np.allclose(a, b, rtol=1e-12)

    def test_bad_t2_rejected(self):
        with pytest.raises(ValueError):
            cpmg_echo_model(np.array([1.0]), (), None, 0.0)


class TestHyperfineTable:
    def test_all_records_present(self):
        table = load_hyperfine_table()
        assert set(table) == {"nearest-13c", "second-13c", "near-13c", "14n"}

    def test_tabulated_couplings(self):
        table = load_hyperfine_table()
        assert table["nearest-13c"].a_mhz == pytest.approx(921.080)
        assert table["nearest-13c"].b_mhz == pytest.approx(-229.240)
        assert table["second-13c"].a_mhz == pytest.approx(94.288)
        assert table["second-13c"].b_mhz == pytest.approx(-15.498)
        assert table["near-13c"].a_mhz == pytest.approx(0.314)
        assert table["near-13c"].b_mhz == pytest.approx(2.827)
        assert table["14n"].a_mhz == pytest.approx(-13.459)
        assert table["14n"].b_mhz == pytest.approx(0.214)
        assert table["14n"].species == "14N"
        assert table["near-13c"].species == "13C"

    def test_nucleus_from_record_scaling(self):
        table = load_hyperfine_table()
        nuc = nucleus_from_record(table["near-13c"], B0_MAIN)
        assert nuc.a == pytest.approx(TWO_PI * 0.314)
        assert nuc.b == pytest.approx(TWO_PI * 2.827)
        assert nuc.omega_i == pytest.approx(
            TWO_PI * DEFAULT_CONSTANTS.gamma_c13 * B0_MAIN)
        nuc_n = nucleus_from_record(table["14n"], B0_MAIN)
        assert nuc_n.omega_i == pytest.approx(
            TWO_PI * DEFAULT_CONSTANTS.gamma_n14 * B0_MAIN)
