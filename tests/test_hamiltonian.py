import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nvsense.fitting
from nvsense.core import DEFAULT_CONSTANTS, DegenerateTransitionError
from nvsense.hamiltonian import (TransitionPair, build_hamiltonian,
                                 g_value, invert_field,
                                 transition_frequencies)

GB = DEFAULT_CONSTANTS.gamma_nv * 32.59  # 913.30216 MHz
D = DEFAULT_CONSTANTS.zero_field_d


class TestBuildHamiltonian:
    def test_aligned_field_is_diagonal(self):
        h = build_hamiltonian(32.59, 0.0)
        assert np.allclose(h, np.diag([D + GB, 0.0, D - GB]), atol=1e-9)
        assert np.diag(h)[0].real == pytest.approx(3783.30216)
        assert np.diag(h)[2].real == pytest.approx(1956.69784)

    def test_zero_field(self):
        h = build_hamiltonian(0.0, 1.0)
        assert np.allclose(h, np.diag([D, 0.0, D]), atol=1e-12)

    def test_tilted_off_diagonal_structure(self):
        theta = math.radians(3.5)
        h = build_hamiltonian(32.59, theta)
        assert np.allclose(h, h.conj().T)
        expected = GB * math.sin(theta) / math.sqrt(2.0)
        assert h[0, 1] == pytest.approx(expected)
        assert h[1, 2] == pytest.approx(expected)
        assert h[0, 2] == pytest.approx(0.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            build_hamiltonian(-1.0, 0.0)
        with pytest.raises(ValueError):
            build_hamiltonian(10.0, -0.1)
        with pytest.raises(ValueError):
            build_hamiltonian(10.0, math.pi / 2 + 0.1)
        with pytest.raises(ValueError):
            build_hamiltonian(float("nan"), 0.0)

    @pytest.mark.parametrize("b0", [1e308, 6.5e306])
    def test_overflowing_zeeman_term_names_b0(self, b0):
        # gamma_nv * b0 past the float range: rejected at the input, not
        # as a non-Hermitian matrix of inf and nan entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"b0 = {b0!r} mT")):
                build_hamiltonian(b0, 0.3)
        build_hamiltonian(6.4e306, 0.3)  # the largest b0s stay accepted

    def test_read_only_hermitian_array(self):
        h = build_hamiltonian(32.59, math.radians(3.5))
        assert isinstance(h, np.ndarray) and h.shape == (3, 3)
        assert not h.flags.writeable
        assert np.array_equal(h, h.conj().T)


class TestEigen:
    def test_cubic_characteristic_polynomial_oracle(self):
        # independent eigenvalue route: roots of det(H - x I); at this
        # field the |0>-like level is the lowest, so the forward map's
        # pair is the other two roots measured from it
        h = build_hamiltonian(32.59, math.radians(3.5))
        c2 = -np.trace(h).real
        minors = 0.0
        for i in range(3):
            rows = [r for r in range(3) if r != i]
            sub = h[np.ix_(rows, rows)]
            minors += (sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]).real
        c0 = -np.linalg.det(h).real
        roots = np.sort(np.roots([1.0, c2, minors, c0]).real)
        w = np.linalg.eigh(h)[0]
        assert np.allclose(w, roots, rtol=1e-9, atol=1e-6)
        pair = transition_frequencies(32.59, math.radians(3.5))
        assert np.allclose([pair.f_minus, pair.f_plus], roots[1:] - roots[0],
                           rtol=1e-9, atol=1e-6)

    def test_residual_property_random_fields(self):
        # every eigenpair of the built matrix solves H v = w v, and the
        # forward map's pair is two level differences from one level
        rng = np.random.default_rng(5)
        for _ in range(1000):
            b0 = rng.uniform(0.0, 200.0)
            theta = rng.uniform(0.0, math.pi / 2)
            h = build_hamiltonian(b0, theta)
            w, v = np.linalg.eigh(h)
            scale = max(1.0, np.linalg.norm(h))
            assert np.linalg.norm(h @ v - v * w) <= 1e-9 * scale
            assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-10)
            try:
                pair = transition_frequencies(b0, theta)
            except DegenerateTransitionError:
                continue
            assert any(np.allclose(np.delete(w, i) - w[i],
                                   [pair.f_minus, pair.f_plus], rtol=0,
                                   atol=1e-9 * scale) for i in range(3))


class TestTransitionFrequencies:
    def test_aligned_analytic(self):
        pair = transition_frequencies(32.59, 0.0)
        assert pair.f_minus == pytest.approx(D - GB, rel=1e-12)
        assert pair.f_plus == pytest.approx(D + GB, rel=1e-12)

    def test_zero_field_degenerate(self):
        with pytest.raises(DegenerateTransitionError):
            transition_frequencies(0.0, 0.0)

    def test_forward_model_hits_measured_lines(self):
        # the fitted field must reproduce the measured resonances within
        # their quoted uncertainties
        pair = transition_frequencies(32.59, math.radians(3.5))
        assert abs(pair.f_minus - 1960.00) < 6.78
        assert abs(pair.f_plus - 3783.39) < 3.39

    def test_zero_tilt_splitting_identity(self):
        for b0 in np.linspace(5.0, 100.0, 25):
            pair = transition_frequencies(b0, 0.0)
            split = pair.f_plus - pair.f_minus
            assert split == pytest.approx(2.0 * DEFAULT_CONSTANTS.gamma_nv * b0,
                                          rel=1e-9)

    def test_labelling_beats_energy_order_near_crossing(self):
        # at 100 mT the |-1>-like level has dropped almost onto |0>: the
        # |0>-like state is now the LOWEST eigenvalue, so any labelling
        # that assumes the low-field energy order (middle = |0>) breaks;
        # overlap labelling still returns the analytic pair
        b0 = 100.0
        gb = DEFAULT_CONSTANTS.gamma_nv * b0
        assert 0 < D - gb < 100.0  # just below the crossing
        pair = transition_frequencies(b0, 0.0)
        assert pair.f_minus == pytest.approx(D - gb, rel=1e-9)
        assert pair.f_plus == pytest.approx(D + gb, rel=1e-9)
        w = np.linalg.eigh(build_hamiltonian(b0, 0.0))[0]
        assert abs(w[0]) < 1e-9  # |0> state is the bottom of the spectrum

    @pytest.mark.parametrize("b0", [1.0, 30.0, 90.0])
    @pytest.mark.parametrize("theta", [math.pi / 2, math.pi / 2 - 1e-12])
    def test_transverse_field_pair(self, b0, theta):
        # at 90 deg the two upper states carry equal |+1> and |-1>
        # character; the levels are D and D/2 + r around |0> at D/2 - r,
        # r = sqrt(D^2 / 4 + (gamma B0)^2)
        r = math.hypot(D / 2, DEFAULT_CONSTANTS.gamma_nv * b0)
        pair = transition_frequencies(b0, theta)
        assert pair.f_minus == pytest.approx(D / 2 + r, rel=1e-12)
        assert pair.f_plus == pytest.approx(2 * r, rel=1e-12)
        est = invert_field(pair)
        assert est.b0 == pytest.approx(b0, rel=1e-9)
        assert abs(est.theta - math.pi / 2) <= 1e-6

    def test_equal_zero_character_is_ambiguous(self):
        # found by bisection between 100 and 105 mT on the difference of
        # the two largest |0> overlaps: at it two eigenstates share |0>
        with pytest.raises(DegenerateTransitionError) as caught:
            transition_frequencies(102.41229490800323, 1e-3)
        assert str(caught.value) == (
            "two eigenstates carry equal |0> character (overlaps 0.500000 "
            "vs 0.500000); labels are ambiguous at this field")

    def test_beyond_crossing_flagged(self):
        # past gamma B = D the f_minus transition goes negative and the
        # two-sided labelling contract no longer applies
        with pytest.raises(DegenerateTransitionError):
            transition_frequencies(150.0, 0.0)


class TestTransitionPair:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            TransitionPair(3000.0, 2000.0)
        with pytest.raises(ValueError):
            TransitionPair(-5.0, 2000.0)
        with pytest.raises(ValueError):
            TransitionPair(2870.0, 2870.0)


class TestInvertField:
    def test_measured_line_pair(self):
        est = invert_field(TransitionPair(1960.00, 3783.39), (6.78, 3.39))
        assert abs(est.b0 - 32.59) < 0.05
        assert abs(math.degrees(est.theta) - 3.5) < 1.0
        assert est.b0_err > 0 and est.theta_err > 0

    def test_round_trip_grid(self):
        for b0 in [5.0, 20.0, 32.59, 60.0, 100.0]:
            for theta_deg in [0.0, 5.0, 10.0, 20.0]:
                theta = math.radians(theta_deg)
                pair = transition_frequencies(b0, theta)
                est = invert_field(pair)
                assert abs(est.b0 - b0) / b0 < 1e-4
                assert abs(est.theta - theta) <= 1e-4 * max(theta, 1e-2)

    def test_residual_at_optimum_tiny(self):
        pair = transition_frequencies(30.0, math.radians(7.0))
        est = invert_field(pair)
        back = transition_frequencies(est.b0, est.theta)
        ss = (back.f_minus - pair.f_minus) ** 2 \
            + (back.f_plus - pair.f_plus) ** 2
        assert ss < 1e-6

    def test_tilt_monotone_in_sum_perturbation(self):
        # pushing f_minus up at fixed f_plus moves the pair off the
        # theta = 0 manifold; recovered tilt grows with the push
        thetas = []
        for delta in [0.5, 1.0, 2.0, 4.0, 8.0]:
            est = invert_field(TransitionPair(1956.69784 + delta, 3783.30216))
            thetas.append(est.theta)
        assert all(b > a for a, b in zip(thetas, thetas[1:]))

    def test_out_of_model_pair_rejected(self):
        # sum deviating from 2D by more than gamma*b_max cannot come from
        # any field inside the search box
        with pytest.raises(ValueError):
            invert_field(TransitionPair(7000.0, 7200.0))

    def test_negative_errors_rejected(self):
        with pytest.raises(ValueError):
            invert_field(TransitionPair(1960.0, 3783.39), (-1.0, 0.0))

    @pytest.mark.parametrize("errors, b_max, name", [
        ((math.nan, 1.0), 300.0, "freq_errors"),
        ((1.0, math.inf), 300.0, "freq_errors"),
        ((-math.inf, 0.0), 300.0, "freq_errors"),
        ((1.0, 1.0), math.nan, "b_max"),
        ((1.0, 1.0), math.inf, "b_max"),
    ])
    def test_non_finite_errors_and_b_max_rejected(self, errors, b_max, name):
        # nan fails every comparison, so sign and b_max tests alone let
        # it through: a nan error gave +/- 0 and a nan b_max any field
        with pytest.raises(ValueError, match=name):
            invert_field(TransitionPair(1960.0, 3783.39), errors, b_max)

    @pytest.mark.parametrize("b0", [110.0, 150.0])
    def test_on_axis_pair_past_crossing_rejected(self, b0):
        # past D / gamma the on-axis |-1> level falls below |0>: the
        # forward map refuses the field, and the pair it would give,
        # read as (f_minus, f_plus), is labelled by no field at all
        gb = DEFAULT_CONSTANTS.gamma_nv * b0
        with pytest.raises(DegenerateTransitionError):
            transition_frequencies(b0, 0.0)
        with pytest.raises(ValueError, match="no correctly labelled field"):
            invert_field(TransitionPair(gb - D, gb + D))

    def test_tilted_field_past_crossing_inverts(self):
        # above D / gamma a tilted field can still keep |0> in the middle
        pair = transition_frequencies(182.0, math.radians(47.61))
        est = invert_field(pair)
        assert est.b0 == pytest.approx(182.0, rel=1e-9)
        assert math.degrees(est.theta) == pytest.approx(47.61, abs=1e-6)
        est = invert_field(TransitionPair(4976.7, 10716.7))
        assert abs(est.b0 - 182.0) < 0.01
        assert abs(math.degrees(est.theta) - 47.61) < 0.01

    def test_every_forward_pair_below_crossing_inverts(self):
        for b0 in np.linspace(0.5, 102.0, 80):
            for theta_deg in np.linspace(0.0, 90.0, 91):
                pair = transition_frequencies(b0, math.radians(theta_deg))
                assert abs(invert_field(pair).b0 - b0) <= 1e-9 * b0


def _forward(b0, theta):
    pair = transition_frequencies(b0, theta)
    return np.array([pair.f_minus, pair.f_plus])


def _reference_errors(b0, theta, errors):
    """1-sigma (B0, theta) errors from J^-1 Sigma J^-T, J the central-
    difference Jacobian of the forward map d(f-, f+)/d(B0, theta)."""
    db, dth = 1e-5 * b0, 1e-5
    jac = np.column_stack([
        (_forward(b0 + db, theta) - _forward(b0 - db, theta)) / (2 * db),
        (_forward(b0, theta + dth) - _forward(b0, theta - dth)) / (2 * dth)])
    jinv = np.linalg.inv(jac)
    cov = jinv @ np.diag(np.square(errors)) @ jinv.T
    return np.sqrt(np.diag(cov))


class TestClosedFormInversion:
    @settings(max_examples=300, deadline=None)
    @given(b0=st.floats(1.0, 90.0), theta_deg=st.floats(0.0, 90.0))
    def test_round_trip_against_forward_map(self, b0, theta_deg):
        theta = math.radians(theta_deg)
        pair = transition_frequencies(b0, theta)
        est = invert_field(pair)
        assert abs(est.b0 - b0) <= 1e-9
        if abs(math.sin(2 * theta)) >= 1e-3:
            assert abs(est.theta - theta) <= 1e-6
        back = _forward(est.b0, est.theta)
        np.testing.assert_allclose(back, [pair.f_minus, pair.f_plus],
                                   rtol=1e-9, atol=0)

    @pytest.mark.parametrize("b0, theta_deg", [
        (32.59, 3.5), (10.0, 30.0), (60.0, 60.0), (80.0, 45.0), (5.0, 80.0)])
    def test_errors_match_inverse_jacobian_propagation(self, b0, theta_deg):
        theta = math.radians(theta_deg)
        errors = (6.78, 3.39)
        est = invert_field(transition_frequencies(b0, theta), errors)
        ref = _reference_errors(est.b0, est.theta, errors)
        np.testing.assert_allclose([est.b0_err, est.theta_err], ref,
                                   rtol=1e-6)

    def test_measured_pair_matches_iterative_solution(self):
        # values of the four-start Levenberg-Marquardt solver this
        # closed form replaced
        est = invert_field(TransitionPair(1960.00, 3783.39), (6.78, 3.39))
        assert est.b0 == pytest.approx(32.596074893394125, rel=1e-9)
        assert est.theta == pytest.approx(0.059160891302354995, rel=1e-9)
        assert est.b0_err == pytest.approx(0.123894, rel=1e-3)
        assert est.theta_err == pytest.approx(0.066157, rel=1e-3)

    def test_no_eigensolve_and_no_iterative_fit(self, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("invert_field must stay closed-form")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(nvsense.fitting, "nlls_fit", forbidden)
        monkeypatch.setattr(nvsense.fitting, "_lockstep_lm", forbidden)
        est = invert_field(TransitionPair(1960.00, 3783.39), (6.78, 3.39))
        assert abs(est.b0 - 32.59) < 0.05

    def test_theta_error_capped_at_zero_tilt(self):
        pair = TransitionPair(D - GB, D + GB)
        est = invert_field(pair, (6.78, 3.39))
        assert est.theta == pytest.approx(0.0, abs=1e-6)
        assert est.theta_err == pytest.approx(math.pi / 2)
        assert est.b0_err > 0
        assert invert_field(pair).theta_err == 0.0

    def test_noisy_pair_near_zero_tilt_clamps(self):
        # 0.5 MHz below the zero-tilt line: cos 2theta exceeds 1, but by
        # less than its propagated error
        pair = TransitionPair(D - GB - 0.5, D + GB)
        est = invert_field(pair, (6.78, 3.39))
        assert est.theta == 0.0 and est.theta_err == math.pi / 2
        with pytest.raises(ValueError, match="cos"):
            invert_field(pair)

    def test_off_model_pair_inside_sum_window_rejected(self):
        # |f- + f+ - 2D| = 8 MHz is far inside gamma * b_max, yet no tilt
        # produces a pair this far below the zero-tilt line
        with pytest.raises(ValueError, match="cos"):
            invert_field(TransitionPair(D - GB - 8.0, D + GB))
        # f-^2 + f+^2 - f- f+ below D^2: no field at all
        with pytest.raises(ValueError, match="D\\^2"):
            invert_field(TransitionPair(1000.0, 1500.0))

    def test_field_above_b_max_rejected(self):
        pair = transition_frequencies(32.59, math.radians(3.5))
        assert invert_field(pair, b_max=33.0).b0 == pytest.approx(32.59)
        with pytest.raises(ValueError, match="b_max"):
            invert_field(pair, b_max=30.0)


class TestGValue:
    def test_direct_evaluation(self):
        g = g_value(914.7, 32.59)
        assert g == pytest.approx(2.005, abs=0.002)

    def test_unit_construction(self):
        b0 = 17.3
        assert g_value(DEFAULT_CONSTANTS.mu_b_over_h * b0, b0) \
            == pytest.approx(1.0, rel=1e-12)

    def test_free_electron_case(self):
        assert g_value(2.0 * DEFAULT_CONSTANTS.mu_b_over_h * 20.0, 20.0) \
            == pytest.approx(2.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            g_value(914.7, 0.0)
        with pytest.raises(ValueError):
            g_value(-5.0, 30.0)
