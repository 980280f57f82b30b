import dataclasses
import functools
import itertools
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nvsense import fitting
from nvsense.core import (GRID_LIMIT, GRID_MIN_SPAN, GRID_MIN_STEP,
                          PHOTON_CHANNELS, NoPeakError, TWO_PI, Trace, XKind)
from nvsense.deer import (DeerSpectrumModel, TargetSpinModel, gaussian_line,
                          gaussian_unit, nv_epr_jacobian_grid, nv_epr_signal,
                          nv_epr_signal_grid)
from nvsense.fitting import (_COST_FLOOR, _LAM_MIN, _LAM_STALL, _LAM_START,
                             _MAX_ITER, _MERGE_TOL, _NU_MAX, _RETIRE_FACTOR,
                             _RETIRE_GAIN, _RETIRE_ROUNDS, _TOL, _TWIN_COST,
                             _TWIN_REL,
                             FitProblem, FitResult, _deer_rabi_candidates,
                             _fd_jacobian, _fft_peak_frequencies,
                             _lockstep_lm, _LockstepRuns, _param_errors,
                             _rejected_lam, _solve_each, adjusted_r_squared,
                             fit_deer_rabi, fit_gaussian_peak, fit_rabi,
                             nlls_fit, select_spin_count)
from nvsense.presets import (default_sequence, detector, epr_line, rabi_truth,
                             target_pair)
from nvsense.synth import (SequenceKind, coherence_trace, difference_signal,
                           normalized_channels, snr_estimate, synthesize)

INF = math.inf


def make_trace(x, y, kind=XKind.FREQUENCY, name="c"):
    return Trace(np.asarray(x, float), kind, {name: np.asarray(y, float)})


def _epr_model(p, t):
    """The n-spin signal of params (omega_1 .. omega_n in rad/us, t0)."""
    return nv_epr_signal(TargetSpinModel(omegas=tuple(p[:-1]), t0=p[-1]), t)


def epr_trace(omegas_mhz, t0=0.34, n=101, span=1.0, noise=0.0, seed=0):
    t = np.linspace(0.0, span, n)
    model = TargetSpinModel(omegas=tuple(TWO_PI * f for f in omegas_mhz),
                            t0=t0)
    y = nv_epr_signal(model, t)
    if noise > 0:
        y = y + noise * np.random.default_rng(seed).standard_normal(n)
    return make_trace(t, y, XKind.PULSE_LENGTH, "coherence")


class TestEngine:
    def test_exact_linear_recovery(self):
        x = np.linspace(0.0, 1.0, 20)
        y = 3.0 * x - 0.7
        problem = FitProblem(model=lambda p, x: p[0] * x + p[1], x=x, y=y,
                             init=np.array([1.0, 0.0]),
                             bounds=((-INF, INF), (-INF, INF)))
        result = nlls_fit(problem)
        assert result.converged
        assert np.allclose(result.params, [3.0, -0.7], atol=1e-8)
        assert result.ss_res < 1e-16

    def test_exponential_recovery_with_noise(self):
        rng = np.random.default_rng(8)
        x = np.linspace(0.0, 3.0, 60)
        y = 2.0 * np.exp(-1.3 * x) + 0.01 * rng.standard_normal(60)
        problem = FitProblem(model=lambda p, x: p[0] * np.exp(-p[1] * x),
                             x=x, y=y, init=np.array([1.0, 1.0]),
                             bounds=((0.0, 10.0), (0.0, 10.0)))
        result = nlls_fit(problem)
        assert result.converged
        assert result.params[0] == pytest.approx(2.0, abs=0.05)
        assert result.params[1] == pytest.approx(1.3, abs=0.05)
        assert result.param_errors is not None
        assert np.all(result.param_errors > 0)

    def test_solution_pinned_at_bound(self):
        # unconstrained optimum (slope 3) outside the box: solver must
        # stop at the wall and still report convergence
        x = np.linspace(0.0, 1.0, 10)
        y = 3.0 * x
        problem = FitProblem(model=lambda p, x: p[0] * x, x=x, y=y,
                             init=np.array([1.0]), bounds=((0.0, 2.0),))
        result = nlls_fit(problem)
        assert result.converged
        assert result.params[0] == pytest.approx(2.0, abs=1e-9)

    def test_start_at_optimum(self):
        x = np.linspace(0.0, 1.0, 10)
        y = 2.0 * x
        problem = FitProblem(model=lambda p, x: p[0] * x, x=x, y=y,
                             init=np.array([2.0]), bounds=((0.0, 5.0),))
        result = nlls_fit(problem)
        assert result.converged
        assert result.params[0] == pytest.approx(2.0, abs=1e-12)

    def test_singular_jacobian_gives_no_errors(self):
        # p[1] never enters the model: J has a zero column
        x = np.linspace(0.0, 1.0, 10)
        y = 2.0 * x
        problem = FitProblem(model=lambda p, x: p[0] * x + 0.0 * p[1],
                             x=x, y=y, init=np.array([1.0, 0.5]),
                             bounds=((-INF, INF), (0.0, 1.0)))
        result = nlls_fit(problem)
        assert result.params[0] == pytest.approx(2.0, abs=1e-6)
        assert result.param_errors is None

    def test_validation(self):
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            FitProblem(model=lambda p, x: x, x=x, y=x[:4],
                       init=np.array([1.0]), bounds=((0, 1),))
        with pytest.raises(ValueError):
            FitProblem(model=lambda p, x: x, x=x, y=x,
                       init=np.array([2.0]), bounds=((0.0, 1.0),))
        with pytest.raises(ValueError):
            FitProblem(model=lambda p, x: x, x=x, y=x,
                       init=np.array([0.5]), bounds=((1.0, 1.0),))
        with pytest.raises(ValueError):
            FitProblem(model=lambda p, x: x, x=np.zeros(2), y=np.zeros(2),
                       init=np.array([0.0, 0.0, 0.0]),
                       bounds=((0, 1),) * 3)


class TestAdjustedR2:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert adjusted_r_squared(y, y, 1) == pytest.approx(1.0)

    def test_mean_model_is_nonpositive(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(50)
        yhat = np.full(50, y.mean())
        assert adjusted_r_squared(y, yhat, 2) < 0.0

    def test_penalizes_parameter_count(self):
        rng = np.random.default_rng(2)
        y = np.linspace(0, 1, 30) + 0.1 * rng.standard_normal(30)
        yhat = np.linspace(0, 1, 30)
        a2 = adjusted_r_squared(y, yhat, 2)
        a5 = adjusted_r_squared(y, yhat, 5)
        assert a2 > a5

    def test_constant_data_degenerate(self):
        y = np.full(10, 3.0)
        with pytest.raises(ValueError):
            adjusted_r_squared(y, y, 1)

    def test_shape_and_dof_validation(self):
        y = np.arange(5.0)
        with pytest.raises(ValueError):
            adjusted_r_squared(y, y[:4], 1)
        with pytest.raises(ValueError):
            adjusted_r_squared(y, y, 0)
        with pytest.raises(ValueError):
            adjusted_r_squared(y, y, 4)  # n <= k + 1

    def test_fit_result_reports_nan_where_undefined(self):
        def line(p, x):
            return p[0] + p[1] * x

        bounds = ((-INF, INF), (-INF, INF))
        x = np.arange(6.0)
        fit = nlls_fit(FitProblem(model=line, x=x, y=1.0 + 2.0 * x,
                                  init=np.zeros(2), bounds=bounds))
        assert fit.adj_r2 == pytest.approx(1.0)
        for xs, ys in ((x, np.full(6, 3.0)),           # constant target
                       (x[:3], 1.0 + 2.0 * x[:3])):   # n = k + 1
            fit = nlls_fit(FitProblem(model=line, x=xs, y=ys,
                                      init=np.zeros(2), bounds=bounds))
            assert math.isnan(fit.adj_r2)


class TestParamErrors:
    def test_line_errors(self):
        jac = np.column_stack([np.ones(4), np.arange(4.0)])
        expect = np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)) * 0.5)
        assert np.allclose(_param_errors(jac, 1.0, 2), expect, rtol=1e-12)

    def test_parameter_on_its_bound_has_nan_error(self):
        # the intercept of y = 2x - 1 + noise, bounded below by 0, ends on
        # its bound: its error is nan, and the slope's that of its own
        # column, with the dof of both parameters
        x = np.linspace(0.0, 1.0, 12)
        y = 2.0 * x - 1.0 + 0.01 * np.cos(7.0 * x)
        fit = nlls_fit(FitProblem(model=lambda p, x: p[0] * x + p[1], x=x,
                                  y=y, init=np.array([1.0, 0.5]),
                                  bounds=((-INF, INF), (0.0, 1.0))))
        assert fit.params[1] == 0.0
        slope = _param_errors(x[:, None], fit.ss_res, x.size - 2)
        assert math.isnan(fit.param_errors[1])
        # nlls_fit's Jacobian is a forward difference
        assert fit.param_errors[0] == pytest.approx(slope[0], rel=1e-6)

    @pytest.mark.parametrize("jac, cost", [
        # the inverse has an inf entry, and times a cost of 0 gives nan
        (np.array([[1e-160, 0.0], [0.0, 1.0]]), 0.0),
        # J^T J overflows
        (np.array([[1e155, 0.0], [0.0, 1.0]]), 1.0),
    ])
    def test_non_finite_covariance_is_none_without_warning(self, jac, cost):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _param_errors(jac, cost, 1) is None


class TestGaussianPeak:
    def x(self):
        return np.linspace(880.0, 950.0, 101)

    def test_noiseless_recovery(self):
        x = self.x()
        y = 0.5 - 0.3 * np.exp(-((x - 914.7) ** 2) / (2 * 81.0))
        fit = fit_gaussian_peak(make_trace(x, y))
        p = dict(zip(fit.param_names, fit.params))
        assert p["center_mhz"] == pytest.approx(914.7, abs=1e-6)
        assert p["width_mhz"] == pytest.approx(9.0, abs=1e-6)
        assert p["amplitude"] == pytest.approx(-0.3, abs=1e-8)
        assert p["baseline"] == pytest.approx(0.5, abs=1e-8)
        assert fit.converged

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_constant_trace_fits_a_vanishing_line(self):
        # no residual to start the amplitude from: it starts at 1 instead
        fit = fit_gaussian_peak(make_trace(self.x(), np.full(101, 0.5)),
                                min_snr=0.0)
        assert fit.stop_reason == "converged" and fit.ss_res == 0.0
        assert fit.params[3] == 0.5 and abs(fit.params[2]) < 1e-12

    @pytest.mark.parametrize("trace", ["noiseless-spectrum", "constant"])
    def test_noiseless_line_free_trace_has_no_peak(self, trace):
        # the residual noise is line_noise, floored at eps max|y| as in
        # snr_estimate; unfloored it was 0 here, and a fitted amplitude of
        # rounding alone, -1.7e-17, passed as a peak
        if trace == "constant":
            tr = make_trace(self.x(), np.full(101, 0.5))
        else:
            flat = DeerSpectrumModel(center=914.7, width=9.0, amplitude=0.0,
                                     baseline=0.5)
            raw = synthesize(default_sequence(SequenceKind.CPMG_DEER), flat,
                             detector(n_avg=1000, noiseless=True))
            tr = make_trace(raw.x, difference_signal(raw))
        with pytest.raises(NoPeakError, match="is below 2.0 x residual noise "
                                              "1.11e-16"):
            fit_gaussian_peak(tr)
        fit = fit_gaussian_peak(tr, min_snr=0.0)
        assert fit.ss_res == 0.0 and 0.0 < abs(fit.params[2]) < 1e-16
        noise = fitting.line_noise(fit.ss_res, tr.channel("c"))
        assert noise == np.finfo(float).eps * 0.5

    def test_positive_peak(self):
        x = self.x()
        y = 0.1 + 0.6 * np.exp(-((x - 900.0) ** 2) / (2 * 25.0))
        fit = fit_gaussian_peak(make_trace(x, y))
        p = dict(zip(fit.param_names, fit.params))
        assert p["center_mhz"] == pytest.approx(900.0, abs=1e-6)
        assert p["amplitude"] == pytest.approx(0.6, abs=1e-6)

    def test_flat_trace_flagged(self):
        x = self.x()
        rng = np.random.default_rng(0)
        y = 0.5 + 1e-3 * rng.standard_normal(x.size)
        with pytest.raises(NoPeakError):
            fit_gaussian_peak(make_trace(x, y), min_snr=5.0)

    def test_min_snr_zero_always_returns(self):
        x = self.x()
        rng = np.random.default_rng(0)
        y = 0.5 + 1e-3 * rng.standard_normal(x.size)
        fit = fit_gaussian_peak(make_trace(x, y), min_snr=0.0)
        assert fit.params.size == 4

    def test_width_bounds_respected(self):
        x = self.x()
        y = 0.5 - 0.3 * np.exp(-((x - 914.7) ** 2) / (2 * 81.0))
        fit = fit_gaussian_peak(make_trace(x, y), width_bounds=(15.0, 40.0))
        p = dict(zip(fit.param_names, fit.params))
        assert 15.0 <= p["width_mhz"] <= 40.0
        with pytest.raises(ValueError):
            fit_gaussian_peak(make_trace(x, y), width_bounds=(-1.0, 5.0))

    def test_channel_required_for_multichannel(self):
        x = self.x()
        tr = Trace(x, XKind.FREQUENCY,
                   {"a": np.zeros(x.size), "b": np.ones(x.size)})
        with pytest.raises(ValueError):
            fit_gaussian_peak(tr)

    def test_null_trace_converges_with_width_on_bound(self):
        # criterion 11's flat spectrum at seed 0, fitted as snr_estimate
        # does: the best Gaussian on this noise is narrower than the width
        # band, so the width ends on its lower bound.  Without the bound
        # rule of the engine, clipped steps crept to max_iter on such a
        # trace
        flat = DeerSpectrumModel(center=914.7, width=9.0, amplitude=0.0,
                                 baseline=0.5)
        raw = synthesize(default_sequence(SequenceKind.CPMG_DEER), flat,
                         detector(n_avg=1_330_000, contrast=0.166, seed=0))
        span = float(raw.x[-1] - raw.x[0])
        w_lo = 0.1 * span
        fit = fit_gaussian_peak(make_trace(raw.x, difference_signal(raw)),
                                min_snr=0.0, width_bounds=(w_lo, 0.5 * span))
        assert fit.converged
        assert fit.n_iter < fitting._MAX_ITER
        assert fit.params[1] == w_lo

    @pytest.mark.parametrize("band", [(5.0, 5.005), (1000.0, 1001.0)])
    def test_narrow_width_band_converges(self, band):
        # a band narrower than the width start's margins (w_hi < w_lo /
        # 0.999) once put the start below w_lo, and the engine raised
        x = self.x()
        y = 0.5 - 0.3 * np.exp(-((x - 914.7) ** 2) / (2 * 81.0))
        fit = fit_gaussian_peak(make_trace(x, y), min_snr=0.0,
                                width_bounds=band)
        assert fit.converged
        assert band[0] <= fit.params[1] <= band[1]

    @settings(max_examples=200, deadline=None)
    @given(center=st.floats(880.0, 950.0), width=st.floats(0.14, 140.0),
           amplitude=st.floats(-2.0, 2.0), baseline=st.floats(-1.0, 1.0))
    # numpy's scalar ** squares this width 1 ulp above the array square
    @example(center=880.0, width=25.250908993568274, amplitude=1.0,
             baseline=0.0)
    @example(center=880.0, width=25.250908993568274, amplitude=0.0,
             baseline=0.0)
    def test_model_and_jacobian_read_the_one_gaussian_body(
            self, center, width, amplitude, baseline):
        # inside the default bounds (0.2 dx, 2 span) of this grid
        x = self.x()
        model, jacobian = _peak_closures()
        p = np.array([[center, width, amplitude, baseline]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yhat, kept = model(p)
            jac = jacobian(p, kept)[0]
            fd = np.empty_like(jac)
            for j, h in enumerate(1e-6 * np.array([width, width, 1.0, 1.0])):
                step = np.zeros((1, 4))
                step[0, j] = h
                fd[:, j] = (model(p + step)[0][0]
                            - model(p - step)[0][0]) / (2.0 * h)
        assert _bits(yhat[0]) == _bits(gaussian_line(x, center, width,
                                                     amplitude, baseline))
        assert _bits(jac[:, 2]) == _bits(gaussian_line(x, center, width, 1.0))
        assert np.all(jac[:, 3] == 1.0)
        tol = 1e-6 * np.max(np.abs(jac), axis=0) + 1e-7
        assert np.all(np.abs(jac - fd) <= tol)


def _closures(fit, trace):
    """The model and Jacobian that fit(trace) hands the engine."""
    captured = []

    def capture(model, jacobian, *args, **kwargs):
        captured.append((model, jacobian))
        return _lockstep_lm(model, jacobian, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_lockstep_lm", capture)
        fit(trace)
    (model, jacobian), = captured
    return model, jacobian


@functools.cache
def _peak_closures():
    """The model and Jacobian fit_gaussian_peak hands the engine, on
    TestGaussianPeak's grid."""
    x = TestGaussianPeak.x(None)
    y = 0.5 - 0.3 * np.exp(-((x - 914.7) ** 2) / (2 * 81.0))
    return _closures(fit_gaussian_peak, make_trace(x, y))


class TestRabi:
    def test_noiseless_recovery(self):
        t = np.linspace(0.0, 2.0, 201)
        y = 0.5 * (1 + np.exp(-((t / 0.67) ** 2)) * np.cos(TWO_PI * 5.5 * t))
        fit = fit_rabi(make_trace(t, y, XKind.PULSE_LENGTH))
        assert fit.params[0] == pytest.approx(5.5, abs=1e-6)
        assert fit.params[1] == pytest.approx(0.67, abs=1e-4)
        assert fit.converged

    def test_drive_near_nyquist_decaying_within_samples(self):
        # 2 MHz on a 0.2 us grid (Nyquist 2.5 MHz), gone in a few samples:
        # the padded spectrum rises all the way to the band edge, so there
        # is no interior FFT peak and the fallback is the top bin, which
        # fit_rabi's bound f < 0.5 / dt excludes; the fit starts from its
        # own fallback inside the band and still lands on the drive
        x = 0.1 + 0.2 * np.arange(8)
        y = 0.5 * (1 + np.exp(-((x / 0.5) ** 2)) * np.cos(TWO_PI * 2.0 * x))
        assert _fft_peak_frequencies(x, y, count=2) == [pytest.approx(2.5)]
        fit = fit_rabi(make_trace(x, y, XKind.PULSE_LENGTH))
        assert fit.converged and fit.n_starts == 1
        assert fit.params[0] == pytest.approx(2.0, rel=1e-9)
        assert fit.params[1] == pytest.approx(0.5, rel=1e-9)

    def test_slow_oscillation(self):
        # under one period across the record: FFT peak is at the floor,
        # the fit still has to land on the true frequency
        t = np.linspace(0.0, 2.0, 201)
        y = 0.5 * (1 + np.exp(-((t / 1.5) ** 2)) * np.cos(TWO_PI * 0.8 * t))
        fit = fit_rabi(make_trace(t, y, XKind.PULSE_LENGTH))
        assert fit.params[0] == pytest.approx(0.8, abs=1e-3)

    @pytest.mark.parametrize("n_points", [6, 8, 10])
    def test_short_trace(self, n_points):
        # on an even grid below 7 points the T0 start span / 3 is raised
        # to the bound 2 dt
        t = np.linspace(0.0, 1.0, n_points)
        y = 0.5 * (1 + np.exp(-((t / 0.8) ** 2)) * np.cos(TWO_PI * 0.9 * t))
        fit = fit_rabi(make_trace(t, y, XKind.PULSE_LENGTH))
        assert fit.params[0] == pytest.approx(0.9, abs=1e-6)
        assert fit.params[1] == pytest.approx(0.8, abs=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(f=st.floats(0.01, 50.0), t0=st.floats(0.01, 100.0),
           t=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=30))
    def test_model_is_the_one_spin_signal(self, f, t0, t):
        # fit_rabi, synth and report evaluate the Rabi curve as the
        # one-spin double-resonance signal at omega = 2 pi f; it must be
        # the closed form fit_rabi documents, bit for bit
        t = np.array(t)
        closed_form = 0.5 * (1.0 + np.exp(-((t / t0) ** 2))
                             * np.cos(2.0 * np.pi * f * t))
        np.testing.assert_array_equal(
            closed_form,
            nv_epr_signal_grid(np.array([[TWO_PI * f]]), np.array([t0]),
                               t)[0])


class TestDeerRabiFit:
    def test_noiseless_two_spin_exact(self):
        fit = fit_deer_rabi(epr_trace([1.12, 2.24]), n_spins=2)
        assert fit.converged
        assert fit.params[0] / TWO_PI == pytest.approx(1.12, abs=1e-6)
        assert fit.params[1] / TWO_PI == pytest.approx(2.24, abs=1e-6)
        assert fit.params[2] == pytest.approx(0.34, abs=1e-5)

    def test_equal_couplings_degenerate_pair(self):
        fit = fit_deer_rabi(epr_trace([1.5, 1.5]), n_spins=2)
        assert fit.params[0] / TWO_PI == pytest.approx(1.5, abs=1e-4)
        assert fit.params[1] / TWO_PI == pytest.approx(1.5, abs=1e-4)

    def test_output_sorted(self):
        rng_seeds = range(6)
        for seed in rng_seeds:
            tr = epr_trace([1.12, 2.24], noise=0.15, seed=seed)
            fit = fit_deer_rabi(tr, n_spins=3)
            omegas = fit.params[:-1]
            assert np.all(np.diff(omegas) >= -1e-12)

    def test_three_spins_noiseless(self):
        fit = fit_deer_rabi(epr_trace([0.9, 1.7, 2.6], t0=0.5), n_spins=3)
        assert np.allclose(fit.params[:-1] / TWO_PI, [0.9, 1.7, 2.6],
                           atol=1e-4)

    @pytest.mark.parametrize("omegas, t0, tol", [
        ((7.0, 14.0, 20.0, 30.0), 0.4, 0.25),
        ((6.0, 12.0, 19.0, 27.0, 36.0), 0.5, 0.3)])
    def test_four_and_five_spins(self, omegas, t0, tol):
        trace = coherence_trace(synthesize(
            default_sequence(SequenceKind.DEER_RABI),
            TargetSpinModel(omegas=omegas, t0=t0),
            detector(n_avg=1_260_000, seed=3)))
        n = len(omegas)
        fit = fit_deer_rabi(trace, n_spins=n)
        peaks = [TWO_PI * f for f in
                 _fft_peak_frequencies(trace.x, trace.channel("coherence"), 4)]
        n_cand = len(_deer_rabi_candidates(peaks, n, W_LO, W_HI))
        assert fit.converged and fit.n_starts == n_cand
        assert np.all(np.abs(fit.params[:-1] - omegas) <= tol)
        assert select_spin_count(trace, max_n=5).best_n == n

    @pytest.mark.parametrize("span", [1.0, 1e8, 1e10, 1e100])
    def test_starts_kept_on_any_time_scale(self, span):
        # an undamped pair of 3 and 5 cycles per span: starts are told
        # apart in rad per span, so on a long grid they do not all round
        # to one start of couplings near 0
        x = np.linspace(0.0, span, 40)
        u = x / span
        tr = make_trace(x, 0.5 + 0.5 * np.cos(6 * np.pi * u)
                        * np.cos(10 * np.pi * u), XKind.PULSE_LENGTH)
        fit = fit_deer_rabi(tr, n_spins=2)
        assert fit.n_starts == 17
        assert fit.params[:2] * span == pytest.approx([6 * np.pi, 10 * np.pi],
                                                      abs=0.01)
        assert select_spin_count(tr, max_n=2, canonicalize=False).best_n == 2

    def test_rejects_unnormalized_trace(self):
        t = np.linspace(0.0, 1.0, 101)
        y = 40.0 + 25.0 * np.cos(TWO_PI * 2.0 * t)  # raw counts scale
        with pytest.raises(ValueError):
            fit_deer_rabi(make_trace(t, y, XKind.PULSE_LENGTH), n_spins=2)

    def test_n_spins_validation(self):
        tr = epr_trace([1.12, 2.24])
        with pytest.raises(ValueError):
            fit_deer_rabi(tr, n_spins=0)
        with pytest.raises(ValueError):
            fit_deer_rabi(tr, n_spins=6)

    @pytest.mark.parametrize("n_points", [4, 6, 8])
    def test_short_trace(self, n_points):
        # the fewest points a 1-spin fit takes, and a few more
        tr = epr_trace([0.6], t0=0.5, n=n_points)
        fit = fit_deer_rabi(tr, n_spins=1)
        assert fit.params[0] / TWO_PI == pytest.approx(0.6, abs=1e-6)
        assert fit.params[1] == pytest.approx(0.5, abs=1e-6)
        if n_points == 4:
            # the T0 start span / 3 equals the bound dt
            dt = 1.0 / 3.0
            peaks = [TWO_PI * f for f in
                     _fft_peak_frequencies(tr.x, tr.channel("coherence"), 4)]
            n_cand = len(_deer_rabi_candidates(
                peaks, 1, 0.5 * math.pi, 0.5 * math.pi / dt))
            assert fit.n_starts == n_cand

    @pytest.mark.parametrize("channel", PHOTON_CHANNELS)
    @pytest.mark.parametrize("fit", [
        fit_rabi, functools.partial(fit_deer_rabi, n_spins=2)],
        ids=["rabi", "deer-rabi"])
    def test_photon_count_channel_raises(self, fit, channel):
        # both drive-length models describe a normalized population
        raw = synthesize(default_sequence(SequenceKind.DEER_RABI),
                         target_pair(), detector(n_avg=1_260_000, seed=5))
        message = f"channel {channel!r} holds photon counts"
        with pytest.raises(ValueError, match=message):
            fit(raw, channel=channel)
        with pytest.raises(ValueError, match=message):
            fit(raw.with_channels({channel: raw.channel(channel)}))


@st.composite
def drive_length_grids(draw, min_points):
    """Strictly increasing drive-length grids (us), even or uneven."""
    n = draw(st.integers(min_points, 40))
    t_first = draw(st.floats(0.0, 0.5))
    if draw(st.booleans()):
        return t_first + draw(st.floats(0.01, 0.2)) * np.arange(n)
    gaps = draw(st.lists(st.floats(0.005, 0.3), min_size=n - 1,
                         max_size=n - 1))
    return t_first + np.concatenate([[0.0], np.cumsum(gaps)])


class TestStartsOnAnyGrid:
    # each recipe raises its T0 start to its own T0 bound, so no grid
    # the recipe accepts puts a start outside the bounds

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_spins=st.integers(1, 3),
           t0=st.floats(0.05, 3.0))
    def test_deer_rabi(self, data, n_spins, t0):
        x = data.draw(drive_length_grids(n_spins + 3))
        omegas = data.draw(st.lists(st.floats(TWO_PI * 0.2, TWO_PI * 5.0),
                                    min_size=n_spins, max_size=n_spins))
        y = nv_epr_signal(TargetSpinModel(omegas=tuple(omegas), t0=t0), x)
        fit = fit_deer_rabi(make_trace(x, y, XKind.PULSE_LENGTH), n_spins)
        span, dt = x[-1] - x[0], float(np.median(np.diff(x)))
        peaks = [TWO_PI * f for f in _fft_peak_frequencies(x, y, 4)]
        assert fit.n_starts == len(_deer_rabi_candidates(
            peaks, n_spins, 0.5 * math.pi / span, 0.5 * math.pi / dt))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), f=st.floats(0.2, 20.0), t0=st.floats(0.05, 3.0))
    def test_rabi(self, data, f, t0):
        x = data.draw(drive_length_grids(6))
        y = 0.5 * (1 + np.exp(-((x / t0) ** 2)) * np.cos(TWO_PI * f * x))
        assert fit_rabi(make_trace(x, y, XKind.PULSE_LENGTH)).n_starts <= 2


class TestModelComparison:
    def test_r2_improves_then_adjusted_flips(self):
        # two-spin data: raw R2 must rise from n=1 to n=2 (more structure
        # captured); the extra parameter at n=3 buys nothing and adjusted
        # R2 must drop
        tr = epr_trace([1.12, 2.24], noise=0.016, seed=5)
        sel = select_spin_count(tr, max_n=3, canonicalize=False)
        n = tr.x.size

        def raw_r2(entry):
            k = entry.n_spins + 1
            return 1.0 - (1.0 - entry.fit.adj_r2) * (n - k - 1.0) / (n - 1.0)

        r1, r2, r3 = (raw_r2(sel.entries[i]) for i in (1, 2, 3))
        assert r2 > r1
        assert sel.entries[2].fit.adj_r2 > sel.entries[3].fit.adj_r2
        assert sel.best_n == 2

    def test_noiseless_single_spin(self):
        tr = epr_trace([1.3], t0=0.4)
        # raw scale: the single-spin model reproduces the data exactly
        sel = select_spin_count(tr, max_n=3, canonicalize=False)
        assert sel.best_n == 1
        assert not sel.no_signal
        assert sel.entries[1].fit.adj_r2 == pytest.approx(1.0, abs=1e-9)
        # quantile anchoring distorts an already-normalized trace only
        # at the fourth decimal and must not change the verdict
        sel_c = select_spin_count(tr, max_n=3)
        assert sel_c.best_n == 1
        assert sel_c.entries[1].fit.adj_r2 == pytest.approx(1.0, abs=1e-3)

    def test_pure_noise_flagged_no_signal(self):
        # on the raw coherence scale the model amplitude (1/2) cannot
        # shrink onto millinormalized noise: every candidate fit is
        # worse than the mean and the selection flags no-signal
        t = np.linspace(0.0, 1.0, 101)
        rng = np.random.default_rng(17)
        y = 0.5 + 0.016 * rng.standard_normal(101)
        tr = make_trace(t, y, XKind.PULSE_LENGTH, "coherence")
        sel = select_spin_count(tr, max_n=3, canonicalize=False)
        assert sel.no_signal
        assert all(e.fit.adj_r2 <= 0.0 for e in sel.entries.values())

    def test_affine_invariance_exact(self):
        tr = epr_trace([1.12, 2.24], noise=0.05, seed=23)
        sel0 = select_spin_count(tr, max_n=3)
        for a, b in [(7.3, -2.0), (0.02, 40.0)]:
            tr2 = tr.with_channels({"coherence": a * tr.channel("coherence")
                                    + b})
            sel = select_spin_count(tr2, max_n=3)
            assert sel.best_n == sel0.best_n
            assert sel.no_signal == sel0.no_signal
            for n in sel.entries:
                assert sel.entries[n].fit.adj_r2 == pytest.approx(
                    sel0.entries[n].fit.adj_r2, rel=1e-9, abs=1e-12)

    def test_ties_break_toward_smaller_n(self, monkeypatch):
        # the selection reads each fit's own adjusted R^2; a larger count
        # wins only by more than the margin over the incumbent
        margin = fitting._SPIN_COUNT_MARGIN
        adj = {}

        def fake_fits(x, y, counts):
            return {n: FitResult(params=np.array([TWO_PI] * n + [0.34]),
                                 param_errors=None, ss_res=1.0, adj_r2=adj[n],
                                 stop_reason="converged", n_iter=1)
                    for n in counts}

        monkeypatch.setattr(fitting, "_deer_rabi_fits", fake_fits)
        tr = epr_trace([1.12, 2.24])
        for gains, best_n in [
                ((0.0, 0.0), 1),        # exact ties
                ((0.999, 0.9995), 1),   # just under the margin over n = 1
                ((1.001, 1.5), 2),      # n = 3 must beat n = 2, not n = 1
                ((1.001, 2.003), 3),
                ((-5.0, 1.001), 3)]:    # a worse n = 2 leaves n = 1 in place
            adj.update(zip((1, 2, 3),
                           (0.5, *(0.5 + g * margin for g in gains))))
            sel = select_spin_count(tr, max_n=3)
            assert [sel.entries[n].fit.adj_r2 for n in (1, 2, 3)] == \
                [adj[n] for n in (1, 2, 3)]
            assert sel.best_n == best_n, gains

    def test_constant_target_raises(self):
        tr = make_trace(np.linspace(0.0, 1.0, 41), np.full(41, 0.5),
                        XKind.PULSE_LENGTH)
        with pytest.raises(ValueError, match="target is constant"):
            select_spin_count(tr, max_n=2, canonicalize=False)

    @pytest.mark.parametrize("canonicalize", [True, False])
    @pytest.mark.parametrize("channel", PHOTON_CHANNELS)
    def test_photon_count_channel_raises(self, channel, canonicalize):
        # fit_deer_rabi's input rule: counts per shot are no normalized
        # signal, and re-anchoring them onto the model's scale would only
        # hide that
        raw = synthesize(default_sequence(SequenceKind.DEER_RABI),
                         target_pair(), detector(n_avg=1_260_000, seed=5))
        one = raw.with_channels({channel: raw.channel(channel)})
        with pytest.raises(ValueError,
                           match=f"channel {channel!r} holds photon counts"):
            select_spin_count(one, max_n=2, canonicalize=canonicalize)


# a finite, increasing grid (Trace accepts it) whose span x[-1] - x[0]
# is past the float range
WIDE_GRID = np.concatenate([np.linspace(-1.7e308, -1e307, 10),
                            np.linspace(1e307, 1.7e308, 10)])


_GRID_FITS = pytest.mark.parametrize("fit, kind", [
    (fit_gaussian_peak, XKind.FREQUENCY),
    (snr_estimate, XKind.FREQUENCY),
    (fit_rabi, XKind.PULSE_LENGTH),
    (functools.partial(fit_deer_rabi, n_spins=2), XKind.PULSE_LENGTH),
    (functools.partial(select_spin_count, max_n=2), XKind.PULSE_LENGTH)],
    ids=["gaussian", "snr", "rabi", "deer-rabi", "select"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@_GRID_FITS
def test_grid_spanning_the_float_range_is_an_input_error(fit, kind):
    tr = make_trace(WIDE_GRID, 0.5 + 0.3 * np.cos(np.arange(20.0)), kind)
    with pytest.raises(ValueError, match="spans more than the float range"):
        fit(tr)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@_GRID_FITS
@pytest.mark.parametrize("top", [1e150, 1e160, 1.7e308])
def test_grid_past_the_limit_is_an_input_error(fit, kind, top):
    # the span is finite, but the models' powers of x and of the T0
    # bound overflowed here
    tr = make_trace(np.linspace(0.0, top, 20),
                    0.5 + 0.3 * np.cos(np.arange(20.0)), kind)
    with pytest.raises(ValueError, match=r"reaches past \+-1e\+100"):
        fit(tr)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@_GRID_FITS
@pytest.mark.parametrize("span", [np.nextafter(GRID_MIN_SPAN, 0.0), 1e-120,
                                  1e-300])
def test_grid_below_the_min_span_is_an_input_error(fit, kind, span):
    # the cube of the T0 bound underflowed to 0 from 1e-107 on 20 points,
    # and at 1e-300 the peak fits divided by 0 too
    tr = make_trace(np.linspace(0.0, span, 20),
                    0.5 + 0.3 * np.cos(np.arange(20.0)), kind)
    with pytest.raises(ValueError, match=r"spans less than 1e-90"):
        fit(tr)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@_GRID_FITS
@pytest.mark.parametrize("lo, hi", [(0.0, GRID_LIMIT),
                                    (-GRID_LIMIT, GRID_LIMIT),
                                    (0.0, GRID_MIN_SPAN),
                                    (-GRID_MIN_SPAN / 2, GRID_MIN_SPAN / 2)])
def test_grid_just_inside_the_limit_fits(fit, kind, lo, hi):
    # a line for the peak fits, an undamped Rabi signal for the others,
    # whose T0 runs to its bound of 50 spans
    x = np.linspace(lo, hi, 40)
    u = x / (hi - lo)
    y = (0.5 + 0.3 * np.exp(-0.5 * ((u - u[20]) / 0.1) ** 2)
         if kind is XKind.FREQUENCY else 0.5 + 0.5 * np.cos(6 * np.pi * u))
    result = fit(make_trace(x, y, kind))
    if fit is fit_rabi:
        assert result.params[1] == 50.0 * (hi - lo)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@_GRID_FITS
@pytest.mark.parametrize("value", [np.nextafter(GRID_LIMIT, INF),
                                   -np.nextafter(GRID_LIMIT, INF), 1e160])
def test_channel_past_the_limit_is_an_input_error(fit, kind, value):
    # past 1e154 the squares of the residuals overflow, and a line-free
    # trace there would read as the strongest detection, SNR 1e12
    y = 0.5 + 0.3 * np.cos(np.arange(20.0))
    y[7] = value
    tr = make_trace(np.linspace(0.0, 1.0, 20), y, kind, name="big")
    with pytest.raises(ValueError, match=r"channel 'big' reaches past "
                                         r"\+-1e\+100"):
        fit(tr)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("seed", range(3))
def test_channel_at_the_limit_fits(seed, sign):
    # line-free noise, a line and a Rabi signal whose largest |y| is
    # GRID_LIMIT itself
    rng = np.random.default_rng(seed)
    x = default_sequence(SequenceKind.CPMG_DEER).grid
    u = (x - x[0]) / (x[-1] - x[0])
    t = np.linspace(0.0, 2.0, 41)
    noise = 0.5 + 0.01 * rng.standard_normal(x.size)
    line = noise - 0.3 * np.exp(-0.5 * ((u - 0.5) / 0.1) ** 2)
    rabi = 0.5 + 0.5 * np.exp(-(t / 1.5) ** 2) * np.cos(TWO_PI * 2.3 * t)

    def at_limit(y):
        return sign * y * (GRID_LIMIT / np.max(np.abs(y)))

    assert 0.0 < snr_estimate(make_trace(x, at_limit(noise))) < 1.0
    assert snr_estimate(make_trace(x, at_limit(line))) > 10.0
    fit_gaussian_peak(make_trace(x, at_limit(noise)), min_snr=0.0)
    fit = fit_rabi(make_trace(t, at_limit(rabi), XKind.PULSE_LENGTH))
    assert fit.params[0] == pytest.approx(2.3, rel=0.05)


# 12 points 1e-200 apart, then 8 on [0.5, 1]: the span is 1, the
# median step 1e-200
TINY_STEP_GRID = np.concatenate([np.arange(12) * 1e-200,
                                 np.linspace(0.5, 1.0, 8)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fit", [
    fit_rabi, functools.partial(fit_deer_rabi, n_spins=2),
    functools.partial(select_spin_count, max_n=2, canonicalize=False)],
    ids=["rabi", "deer-rabi", "select"])
def test_grid_of_tiny_median_step_is_an_input_error(fit):
    # the T0 lower bound is one or two median steps, and (t / T0)^2
    # overflowed on the long steps
    tr = make_trace(TINY_STEP_GRID, 0.5 + 0.3 * np.cos(np.arange(20.0)),
                    XKind.PULSE_LENGTH)
    with pytest.raises(ValueError,
                       match=r"median step 1e-200 is less than 1e-12 of "
                             r"the span 1,"):
        fit(tr)


_TINY_STEP_LINE = 0.5 + 0.3 * np.exp(
    -0.5 * ((TINY_STEP_GRID - TINY_STEP_GRID[15]) / 0.1) ** 2)
# without a line the width runs to its lower bound, whose square
# underflowed when the bound was 0.2 of the smallest step
_TINY_STEP_NO_LINE = 0.5 + 0.3 * np.cos(np.arange(20.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fit, y", [
    (fit_gaussian_peak, _TINY_STEP_LINE), (snr_estimate, _TINY_STEP_LINE),
    (functools.partial(fit_gaussian_peak, min_snr=0.0), _TINY_STEP_NO_LINE),
    (snr_estimate, _TINY_STEP_NO_LINE)],
    ids=["gaussian", "snr", "gaussian-line-free", "snr-line-free"])
def test_peak_fits_take_a_grid_of_tiny_median_step(fit, y):
    fit(make_trace(TINY_STEP_GRID, y))


def _decay_model(p, x):
    return p[:, :1] * np.exp(-p[:, 1:] * x)


def _decay_jacobian(p, x):
    e = np.exp(-p[:, 1:] * x)
    return np.stack([e, -p[:, :1] * x * e], axis=2)


def _decay_data():
    rng = np.random.default_rng(8)
    x = np.linspace(0.0, 3.0, 60)
    return x, 2.0 * np.exp(-1.3 * x) + 0.01 * rng.standard_normal(60)


def _serial_lm(problem: FitProblem, jacobian=None):
    """The bounded LM of _lockstep_lm as a serial loop: the test oracle.

    One start, and the engine's rules written out one step at a time:
    the damping schedule, clipping into the box, the bound rule,
    acceptance on strict decrease and convergence within _TOL.  The
    Jacobian is jacobian(p), (m, k), when given, else forward
    differences (_fd_jacobian).  Returns (result, history): params,
    ss_res, stop_reason and n_iter of result are filled in, and history
    holds the cost after each accepted step, the first included.
    """
    lo, hi = problem.lo, problem.hi
    tol, floor = fitting._TOL, fitting._COST_FLOOR

    def residuals(q):
        return np.asarray(problem.model(q, problem.x), dtype=float) - problem.y

    p = problem.init.copy()
    r = residuals(p)
    cost = float(r @ r)
    history = [cost]
    lam, nu = fitting._LAM_START, 2.0
    converged = False
    n_accept = 0

    for _ in range(problem.max_iter):
        jac = (_fd_jacobian(residuals, p, lo, hi, r) if jacobian is None
               else jacobian(p))
        a = jac.T @ jac
        g = jac.T @ r
        d = np.diag(a).copy()
        d[d <= 0] = 1.0
        # bound rule: hold a parameter on a bound that -g points out of
        held = ((p <= lo) & (g > 0)) | ((p >= hi) & (g < 0))
        stalled = False
        while True:
            m = a + lam * np.diag(d)
            m[held, :] = 0.0
            m[:, held] = 0.0
            m[held, held] = 1.0
            try:
                delta = np.linalg.solve(m, np.where(held, 0.0, -g))
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None:
                trial = np.clip(p + delta, lo, hi)
                r_t = residuals(trial)
                cost_t = float(r_t @ r_t)
                if cost_t < cost:
                    gain = cost - cost_t
                    p, r, cost = trial, r_t, cost_t
                    n_accept += 1
                    history.append(cost)
                    lam = max(lam / 3.0, fitting._LAM_MIN)
                    nu = 2.0
                    if gain <= tol * max(cost, floor):
                        converged = True
                    break
                if abs(cost_t - cost) <= tol * max(cost, floor):
                    converged = True
                    break
            # rejected: lambda*nu, or where larger the finite damping that
            # about halves the step, -g.delta / delta.D.delta
            grown, quot = lam * nu, math.nan
            if delta is not None:
                den = float(delta @ (d * delta))
                if den > 0:
                    quot = float(-g @ delta) / den
            lam = quot if math.isfinite(quot) and quot > grown else grown
            nu = min(2.0 * nu, fitting._NU_MAX)
            if lam > fitting._LAM_STALL:
                stalled = True
                break
        if converged or stalled:
            break

    stop = ("converged" if converged else "stalled" if stalled
            else "max_iter")
    return (FitResult(params=p, param_errors=None, ss_res=cost,
                      adj_r2=math.nan, n_iter=n_accept, stop_reason=stop),
            np.asarray(history))


def _logging_engine(engine, calls):
    """engine with the model and Jacobian calls of each run logged.

    Each call of the returned engine appends (y, log, runs) to calls:
    log holds, in call order, ("model", P, predictions, kept) and
    ("jacobian", P, kept, derivatives), copied as passed and returned.
    """
    def run(model, jacobian, y, *args, **kwargs):
        log = []

        def logged_model(p):
            yhat, kept = model(p)
            log.append(("model", p.copy(), np.array(yhat),
                        tuple(np.array(v) for v in kept)))
            return yhat, kept

        def logged_jacobian(p, kept):
            jac = jacobian(p, kept)
            log.append(("jacobian", p.copy(),
                        tuple(np.array(v) for v in kept), np.array(jac)))
            return jac

        runs = engine(logged_model, logged_jacobian, y, *args, **kwargs)
        calls.append((y, log, runs))
        return runs

    return run


def _cost_paths(y, log, runs):
    """Each start's cost after each accepted step, its first included.

    Rebuilt from the model calls of one _lockstep_lm run (see
    _logging_engine): call 0 holds every start and call t >= 1 the
    starts live in round t (n_rounds >= t), in index order.  A trial is
    accepted when its cost, the engine's einsum on the returned rows, is
    below the start's current cost.
    """
    def costs(yhat):
        r = yhat - y
        return np.einsum("ij,ij->i", r, r).tolist()

    first, *rounds = [yhat for kind, _, yhat, _ in log if kind == "model"]
    paths = [[c] for c in costs(first)]
    assert len(rounds) == runs.n_rounds.max()
    for t, yhat in enumerate(rounds, 1):
        live = np.flatnonzero(runs.n_rounds >= t)
        assert len(yhat) == live.size
        for i, c in zip(live.tolist(), costs(yhat)):
            if c < paths[i][-1]:
                paths[i].append(c)
    return [np.asarray(h) for h in paths]


def _run_with_paths(*args, **kwargs):
    """_lockstep_lm(*args, **kwargs) and its starts' cost paths."""
    calls = []
    runs = _logging_engine(_lockstep_lm, calls)(*args, **kwargs)
    return runs, _cost_paths(*calls[0])


class TestLockstepEngine:
    """_lockstep_lm against the serial oracle _serial_lm, start by start."""

    lo, hi = np.array([0.0, 0.0]), np.array([10.0, 10.0])
    starts = np.array([[1.0, 1.0], [0.5, 3.0], [5.0, 0.2], [2.0, 1.3]])

    def run(self, starts, max_iter=200, hi=None, groups=None):
        """The runs of starts and their cost paths (_cost_paths)."""
        x, y = _decay_data()
        return _run_with_paths(lambda p: (_decay_model(p, x), ()),
                               lambda p, kept: _decay_jacobian(p, x), y,
                               starts, self.lo, self.hi if hi is None else hi,
                               max_iter=max_iter, groups=groups)

    def problem(self, start, max_iter=200, hi=None):
        x, y = _decay_data()
        return FitProblem(
            model=lambda p, x: _decay_model(p[None], x)[0], x=x, y=y,
            init=start,
            bounds=tuple(zip(self.lo, self.hi if hi is None else hi)),
            max_iter=max_iter)

    def serial(self, start, max_iter=200, hi=None):
        # on the engine's closed-form Jacobian, so both run the same
        # arithmetic
        x, _ = _decay_data()
        problem = self.problem(start, max_iter, hi)
        return _serial_lm(problem, lambda q: _decay_jacobian(q[None], x)[0])

    def assert_same_steps(self, runs, paths, i, ref, ref_path):
        assert runs.converged[i] == ref.converged
        assert np.allclose(runs.params[i], ref.params, atol=1e-6)
        assert runs.cost[i] == pytest.approx(ref.ss_res, rel=1e-9)
        # same accepted steps on the same Jacobian: the paths differ by
        # rounding only
        assert runs.n_iter[i] == ref.n_iter
        np.testing.assert_allclose(paths[i], ref_path, rtol=1e-12)

    def test_each_start_matches_nlls_fit(self, monkeypatch):
        # each start in a group of its own, so none is merged at the
        # minimum another has converged to
        runs, paths = self.run(self.starts, groups=range(len(self.starts)))
        calls = []
        monkeypatch.setattr(fitting, "_lockstep_lm",
                            _logging_engine(_lockstep_lm, calls))
        for i, start in enumerate(self.starts):
            self.assert_same_steps(runs, paths, i, *self.serial(start))
            # nlls_fit is one lockstep start on the oracle's
            # forward-difference Jacobian
            ref, ref_path = _serial_lm(self.problem(start))
            calls.clear()
            fit = nlls_fit(self.problem(start))
            (path,) = _cost_paths(*calls[0])
            assert fit.n_iter == ref.n_iter
            assert fit.converged == ref.converged
            np.testing.assert_allclose(path, ref_path, rtol=1e-9)

    def test_start_on_bound_with_outward_gradient_held(self):
        # the amplitude's optimum, 2, lies above its bound 1.5: a start on
        # that bound has -g pointing out of the box there, so the bound
        # rule holds the amplitude and only the rate moves
        hi = np.array([1.5, 10.0])
        start = np.array([[1.5, 2.5]])
        x, y = _decay_data()
        g = _decay_jacobian(start, x)[0].T @ (_decay_model(start, x)[0] - y)
        assert g[0] < 0
        runs, paths = self.run(start, hi=hi)
        ref, ref_path = self.serial(start[0], hi=hi)
        self.assert_same_steps(runs, paths, 0, ref, ref_path)
        assert runs.converged[0]
        assert runs.params[0, 0] == ref.params[0] == 1.5
        # the rate reaches the optimum of the one-parameter problem with
        # the amplitude fixed at its bound
        rates = np.linspace(0.5, 2.0, 30001)
        costs = np.sum((1.5 * np.exp(-rates[:, None] * x) - y) ** 2, axis=1)
        assert runs.params[0, 1] == pytest.approx(rates[np.argmin(costs)],
                                                  abs=1e-4)

    def test_max_iter_exhaustion_is_not_convergence(self):
        runs, _ = self.run(self.starts, max_iter=1)
        assert not np.any(runs.converged)
        assert np.all(runs.n_iter == 1)
        assert not self.serial(self.starts[0], max_iter=1)[0].converged

    def test_start_pinned_at_bound(self):
        # unconstrained optimum (slope 3) outside the box; one start sits
        # on the wall from the outset
        x = np.linspace(0.0, 1.0, 10)
        runs = _lockstep_lm(lambda p: (p * x, ()),
                            lambda p, kept: np.broadcast_to(
                                x[None, :, None], (len(p), x.size, 1)),
                            3.0 * x, np.array([[1.0], [2.0]]),
                            np.array([0.0]), np.array([2.0]))
        assert np.all(runs.converged)
        assert np.allclose(runs.params, 2.0, atol=1e-9)

    def test_degenerate_start_leaves_others_untouched(self):
        # a start whose Jacobian is nan gets a nan normal matrix, never
        # accepts a step and stalls; the other rows must come out exactly
        # as they do without it
        x, y = _decay_data()

        def jacobian(p, kept):
            jac = _decay_jacobian(p, x)
            jac[p[:, 0] == 7.0] = np.nan
            return jac

        def run(starts):
            return _lockstep_lm(lambda p: (_decay_model(p, x), ()), jacobian,
                                y, starts, self.lo, self.hi)

        clean = run(self.starts)
        mixed = run(np.insert(self.starts, 1, [7.0, 1.0], axis=0))
        others = [0, 2, 3, 4]
        assert np.array_equal(mixed.params[others], clean.params)
        assert np.array_equal(mixed.cost[others], clean.cost)
        assert np.array_equal(mixed.n_iter[others], clean.n_iter)
        assert not mixed.converged[1] and mixed.n_iter[1] == 0
        assert np.array_equal(mixed.params[1], [7.0, 1.0])

    def test_singular_matrix_solved_alone(self):
        mats = np.array([np.eye(2), np.ones((2, 2)), 2.0 * np.eye(2)])
        rhs = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, 4.0]])
        x, ok = _solve_each(mats, rhs)
        assert ok.tolist() == [True, False, True]
        assert np.array_equal(x[0], [1.0, 2.0])
        assert np.array_equal(x[2], [1.5, 2.0])
        assert np.all(np.isnan(x[1]))
        # with every row solved, ok is True rather than a mask
        x, ok = _solve_each(mats[[0, 2]], rhs[[0, 2]])
        assert ok is True
        assert np.array_equal(x, [[1.0, 2.0], [1.5, 2.0]])

    def test_starts_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            self.run(np.array([[11.0, 1.0]]))


class TestRejectedDamping:
    """The damping after a rejected step: lambda*nu, or more (_rejected_lam).

    The problem is one parameter, tanh(p) against 0, from p = 1.2.  Its
    Gauss-Newton step, -2.733, overshoots to a higher cost, and half of
    it lowers the cost.
    """

    def run(self, monkeypatch, trials=None):
        monkeypatch.setattr(fitting, "_LAM_START", 1e-9)

        def model(p):
            if trials is not None:
                trials.append(float(p[0, 0]))
            return np.tanh(p), ()

        return _lockstep_lm(
            model, lambda p, kept: (1.0 / np.cosh(p) ** 2)[:, :, None],
            np.zeros(1), [[1.2]], -10.0, 10.0, max_iter=1)

    def test_trial_after_rejection_is_half_the_step(self, monkeypatch):
        # in one parameter the quotient is 1 + lambda, so the next step
        # is (1 + lambda) / (2 + lambda) of the rejected one
        trials = []
        self.run(monkeypatch, trials)
        p0, first, second = trials[:3]
        assert first - p0 == pytest.approx(-2.7331, abs=1e-4)
        assert (second - p0) / (first - p0) == pytest.approx(0.5, rel=1e-9)

    def test_one_rejected_round_before_the_half_step(self, monkeypatch):
        # max_iter=1 ends the run at its first accepted step
        runs = self.run(monkeypatch)
        assert runs.stop[0] == "max_iter" and runs.n_rounds[0] == 2
        # lambda*nu alone takes 8 rejected rounds to grow lambda from
        # 1e-9 past the 0.139 that the step needs: nu runs 2, 4, ..., 64
        # and stays at its cap, and 2^27 * 1e-9 falls just short
        monkeypatch.setattr(fitting, "_rejected_lam",
                            lambda lam, nu, g, delta, d: lam * nu)
        slow = self.run(monkeypatch)
        assert slow.stop[0] == "max_iter" and slow.n_rounds[0] == 9
        # and overshoots the damping: its step, 2.733 / (1 + 8.6), lowers
        # the cost less than the half step
        assert runs.cost[0] < 0.03 < 0.5 < slow.cost[0]

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           lam=st.floats(1e-12, 1e14), nu=st.sampled_from(
               [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]))
    def test_never_below_lambda_nu(self, k, seed, lam, nu):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((k + 2, k)) * 10.0 ** rng.uniform(-3, 3, k)
        a = b.T @ b
        d = 10.0 ** rng.uniform(-3, 3, k)
        g = rng.standard_normal(k)
        delta = np.linalg.solve(a + lam * np.diag(d), -g)
        # the second row is an unsolved one, whose delta is nan
        new = _rejected_lam(np.array([lam, lam]), np.array([nu, nu]),
                            np.array([g, g]),
                            np.array([delta, np.full(k, np.nan)]),
                            np.array([d, d]))
        assert new[0] >= lam * nu
        assert new[1] == lam * nu


# the DEER-Rabi preset grid and the coupling and T0 bounds fit_deer_rabi
# derives from it
GRID = np.linspace(0.0, 1.0, 101)
DT, SPAN = 0.01, 1.0
W_LO, W_HI = 0.5 * math.pi / SPAN, 0.5 * math.pi / DT


class TestRetire:
    """The cross-start rule of _lockstep_lm on a two-spin problem."""

    lo = np.array([W_LO, W_LO, DT])
    hi = np.array([W_HI, W_HI, 10.0 * SPAN])
    # two starts that reach the optimum (the first in round 4, the last
    # in round 41 in a group of its own) and, between them, one that falls
    # into the short-decay basin (T0 ~ 0.08 us) and creeps there: the
    # stuck-cost rule retires it in round 4, once the first start has set
    # B, and without that rule it converges there in round 331.  In the
    # first's group the last start, too, creeps far above B on its way
    # (T0 ~ 0.09 us), so the stuck-cost rule retires it in round 14;
    # without that rule the merge rule ends it at the optimum in round 38.
    # The last starts on the equal-coupling saddle: with exchangeable
    # couplings it walks to the (W_LO, W_LO) corner and is retired there
    # in round 7; without, it leaves the saddle by rounding
    starts = np.array([[7.0, 14.0, 1 / 3], [38.0, 38.0, 1 / 3],
                       [38.0, 38.0, 0.125]])
    stuck = 1
    # a start with equal couplings, still equal when the first start
    # converges: the equal-coupling rule retires it then, in round 4;
    # without either retire rule, it leaves the saddle by rounding and
    # converges to the optimum with its couplings swapped in round 40
    twin = np.array([5.0, 5.0, 1 / 3])

    def run_paths(self, starts, groups=None, exchangeable=(), lo=None,
                  hi=None):
        """The runs of starts and their cost paths (_cost_paths)."""
        tr = epr_trace([1.12, 2.24], noise=0.01, seed=0)
        x, y = tr.x, tr.channel("coherence")
        return _run_with_paths(
            lambda p: nv_epr_signal_grid(p[:, :-1], p[:, -1], x, keep=True),
            lambda p, kept: nv_epr_jacobian_grid(p[:, -1], x, kept),
            y, starts, self.lo if lo is None else lo,
            self.hi if hi is None else hi, groups=groups,
            exchangeable=exchangeable)

    def run(self, *args, **kwargs):
        return self.run_paths(*args, **kwargs)[0]

    def assert_same_runs(self, got, rows, alone):
        """The rows of got, a (runs, paths) pair, are those of alone."""
        (runs, paths), (alone, alone_paths) = got, alone
        for name in ("params", "cost", "stop", "n_iter", "n_evals",
                     "n_rounds"):
            assert np.array_equal(getattr(runs, name)[rows],
                                  getattr(alone, name)), name
        for i, h in zip(rows, alone_paths):
            assert np.array_equal(paths[i], h)

    def test_stuck_start_retired_others_untouched(self, monkeypatch):
        # the last start in a group of its own, so that it converges
        groups = [0, 0, 1]
        runs = self.run(self.starts, groups=groups)
        assert runs.stop[self.stuck] == "retired"
        assert not runs.converged[self.stuck]
        others = [0, 2]
        assert runs.stop[others].tolist() == ["converged", "converged"]
        assert runs.cost[self.stuck] > 10.0 * runs.cost[others].min()
        alone = self.run(self.starts[others], groups=[0, 1])
        assert np.array_equal(runs.params[others], alone.params)
        assert np.array_equal(runs.cost[others], alone.cost)
        assert np.array_equal(runs.n_iter[others], alone.n_iter)
        # left to run, it converges in the losing basin after many more
        # rounds
        monkeypatch.setattr(fitting, "_RETIRE_FACTOR", math.inf)
        full = self.run(self.starts, groups=groups)
        assert full.stop[self.stuck] == "converged"
        assert full.cost[self.stuck] > 10.0 * full.cost[others].min()
        assert full.n_iter[self.stuck] > 5 * runs.n_iter[self.stuck]
        assert np.array_equal(full.params[others], runs.params[others])
        assert full.n_evals.sum() > runs.n_evals.sum()

    def test_single_start_never_retires(self, monkeypatch):
        starts = [*self.starts, self.twin]
        alone = [self.run(start[None], exchangeable=(0, 1))
                 for start in starts]
        monkeypatch.setattr(fitting, "_RETIRE_FACTOR", math.inf)
        for start, runs in zip(starts, alone):
            assert runs.stop[0] != "retired"
            ref = self.run(start[None])
            assert np.array_equal(runs.params, ref.params)
            assert runs.stop.tolist() == ref.stop.tolist()

    def test_equal_couplings_retired_others_untouched(self, monkeypatch):
        # with the stuck-cost rule off, only the equal-coupling rule
        # retires a start; it ends the twin in the round that sets B
        monkeypatch.setattr(fitting, "_RETIRE_FACTOR", math.inf)
        starts = np.insert(self.starts, 1, self.twin, axis=0)
        got = runs, paths = self.run_paths(starts, exchangeable=(0, 1))
        assert runs.stop[1] == "retired"
        assert runs.n_rounds[1] == runs.n_rounds[0]
        w1, w2, _ = runs.params[1]
        assert w1 == pytest.approx(w2, rel=fitting._TWIN_REL)
        assert (runs.cost[1]
                > (1.0 + fitting._TWIN_COST) * runs.cost[runs.converged].min())
        others = [0, 2, 3]
        self.assert_same_runs(got, others, self.run_paths(
            starts[others], exchangeable=(0, 1)))
        # against the run without exchangeable columns: a row the rule
        # leaves live is bit-identical there; a row it retires sits on
        # equal couplings above (1 + _TWIN_COST) B, and its path up to
        # then is the plain run's, which goes on for more rounds
        plain, plain_paths = self.run_paths(starts)
        best = runs.cost[runs.converged].min()
        w1, w2 = runs.params[:, 0], runs.params[:, 1]
        twin = (runs.stop == "retired") & (
            np.abs(w1 - w2) <= fitting._TWIN_REL * np.abs(w2))
        assert twin.tolist() == [False, True, False, True]
        live = np.flatnonzero(~twin)
        self.assert_same_runs(got, live, (plain.take(live, [0, 1, 2]),
                                          [plain_paths[i] for i in live]))
        for i in np.flatnonzero(twin):
            assert runs.cost[i] > (1.0 + fitting._TWIN_COST) * best
            h = paths[i]
            assert np.array_equal(plain_paths[i][:h.size], h)
            assert plain.n_rounds[i] > runs.n_rounds[i]

    def test_equal_pad_couplings_never_retired(self, monkeypatch):
        # the layout of _deer_rabi_fits at three couplings: 1-spin starts
        # carry two pads pinned at 0 by bounds [0, 0], equal to each other
        monkeypatch.setattr(fitting, "_RETIRE_FACTOR", math.inf)
        t0_hi = 10.0 * SPAN
        lo = np.array([[W_LO, W_LO, 0.0, DT], [W_LO, 0.0, 0.0, DT],
                       [W_LO, 0.0, 0.0, DT]])
        hi = np.array([[W_HI, W_HI, 0.0, t0_hi], [W_HI, 0.0, 0.0, t0_hi],
                       [W_HI, 0.0, 0.0, t0_hi]])
        starts = np.array([[7.0, 14.0, 0.0, 1 / 3], [7.0, 0.0, 0.0, 1 / 3],
                           [20.0, 0.0, 0.0, 1 / 3]])
        got = runs, _ = self.run_paths(starts, exchangeable=(0, 1, 2),
                                       lo=lo, hi=hi)
        assert runs.stop.tolist() == ["converged"] * 3
        # the 1-spin starts stay live far above B after it is set
        assert np.all(runs.n_rounds[1:] > runs.n_rounds[0])
        assert np.all(runs.cost[1:] > 10.0 * runs.cost[0])
        self.assert_same_runs(got, [0, 1, 2],
                              self.run_paths(starts, lo=lo, hi=hi))

    @pytest.mark.parametrize("t, stop", [(0.5, "merged"),
                                         (5.0, "retired")])
    def test_tie_retired_only_above_best_cost(self, t, stop):
        # residuals (p0 - p1, p2, -1): a start with p2 = 0 converges in
        # round 1 at B = 1, and one with p2 = t steps to p2 ~ 1e-3 t, at
        # cost ~1 + 1e-6 t^2: within B (1 + 1e-6) for t = 0.5, above it
        # for t = 5; both hold p0 = p1.  Both are within the merge
        # rule's limits, but the equal-parameter rule comes first
        def model(p):
            return np.stack([p[:, 0] - p[:, 1], p[:, 2],
                             np.zeros(len(p))], axis=1), ()

        def jacobian(p, kept):
            return np.broadcast_to([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0],
                                    [0.0, 0.0, 0.0]], (len(p), 3, 3))

        def run(exchangeable):
            return _run_with_paths(
                model, jacobian, np.array([0.0, 0.0, 1.0]),
                [[1.0, 1.0, 0.0], [1.0, 1.0, t]], -10.0, 10.0,
                exchangeable=exchangeable)

        got = runs, _ = run((0, 1))
        assert runs.stop.tolist() == ["converged", stop]
        assert runs.cost[0] == 1.0 and runs.n_rounds.tolist() == [1, 1]
        if stop == "merged":
            self.assert_same_runs(got, [0, 1], run(()))

    def test_swapped_minimum_not_merged(self, monkeypatch):
        # the twin start, without exchangeable columns, converges to the
        # optimum with its couplings swapped: at the cost of the first
        # start's minimum, but far from it.  On its way it creeps far
        # above B, where the stuck-cost rule would retire it first
        monkeypatch.setattr(fitting, "_RETIRE_FACTOR", math.inf)
        starts = np.array([self.starts[0], self.twin])
        got = runs, _ = self.run_paths(starts)
        assert runs.stop.tolist() == ["converged", "converged"]
        assert runs.n_rounds[1] > runs.n_rounds[0]
        assert runs.cost[1] <= (1.0 + _MERGE_TOL) * runs.cost[0]
        np.testing.assert_allclose(runs.params[1, [1, 0, 2]], runs.params[0],
                                   rtol=1e-6)
        self.assert_same_runs(got, [0, 1], self.run_paths(starts,
                                                          groups=[0, 1]))

    def test_group_without_best_never_merges(self, monkeypatch):
        # the last start reaches the first one's minimum, but in a group
        # of its own, which has no B until it converges itself.  In the
        # first one's group the stuck-cost rule would retire it on its way
        monkeypatch.setattr(fitting, "_RETIRE_FACTOR", math.inf)
        starts = self.starts[[0, 2]]
        got = runs, _ = self.run_paths(starts, groups=[0, 1])
        assert runs.stop.tolist() == ["converged", "converged"]
        assert runs.cost[1] <= (1.0 + _MERGE_TOL) * runs.cost[0]
        for row in (0, 1):
            self.assert_same_runs(got, [row], self.run_paths(starts[[row]]))
        fused = self.run(starts)
        assert fused.stop.tolist() == ["converged", "merged"]
        assert fused.n_rounds[1] < runs.n_rounds[1]

    def test_merged_cost_above_best(self, monkeypatch):
        # every merged start of these selections ended above its group's
        # B (its final one, which later starts may have lowered), none
        # won, and n_retired does not count them
        calls = []

        def capture(*args, groups, **kwargs):
            calls.append((groups, _lockstep_lm(*args, groups=groups,
                                               **kwargs)))
            return calls[-1][-1]

        monkeypatch.setattr(fitting, "_lockstep_lm", capture)
        traces = [_preset_pair_trace(n_avg, seed) for seed, n_avg in
                  enumerate((1_260_000, 100_000, 30_000))]
        fits = [select_spin_count(tr, max_n=3).entries for tr in traces]
        n_merged = 0
        for (groups, runs), entries in zip(calls, fits):
            for n, entry in entries.items():
                rows = np.flatnonzero(groups == n - 1)
                stop, cost = runs.stop[rows], runs.cost[rows]
                merged = stop == "merged"
                n_merged += np.count_nonzero(merged)
                best = cost[stop == "converged"].min()
                assert np.all(cost[merged] > best)
                assert stop[entry.fit.winning_start] == "converged"
                assert entry.fit.n_retired == np.count_nonzero(
                    stop == "retired")
        assert n_merged > 0

    def test_fit_counts_retired_starts(self):
        tr = epr_trace([1.12, 2.24], noise=0.01, seed=0)
        fit = fit_deer_rabi(tr, 2)
        assert 0 < fit.n_retired < fit.n_starts

    def test_groups_run_as_separate_calls(self):
        # group 0 holds the three starts, so its stuck start is retired
        # against group 0's B; group 1 holds a copy of the stuck start
        # alone, which no converged start of its own group can retire
        stuck = self.starts[self.stuck][None]
        starts = np.vstack([self.starts, stuck])
        fused = self.run_paths(starts, groups=[0, 0, 0, 1])
        for rows, alone in (([0, 1, 2], self.run_paths(self.starts)),
                            ([3], self.run_paths(stuck))):
            self.assert_same_runs(fused, rows, alone)
        assert fused[0].stop[[1, 3]].tolist() == ["retired", "converged"]
        # in one group, the copy meets the B of the other starts
        assert self.run(starts).stop[3] == "retired"


def _selection_matches_without_retiring(monkeypatch, traces, max_n,
                                        canonicalize=True):
    def select(tr):
        return select_spin_count(tr, max_n=max_n, canonicalize=canonicalize)

    with_rule = [select(tr) for tr in traces]
    assert sum(e.fit.n_retired for sel in with_rule
               for e in sel.entries.values()) > 0
    # the reference runs without either retire rule
    monkeypatch.setattr(fitting, "_RETIRE_FACTOR", math.inf)
    engine = fitting._lockstep_lm
    monkeypatch.setattr(fitting, "_lockstep_lm",
                        lambda *args, exchangeable=(), **kwargs:
                        engine(*args, **kwargs))
    for tr, sel in zip(traces, with_rule):
        ref = select(tr)
        assert sel.best_n == ref.best_n
        for n, entry in ref.entries.items():
            assert entry.fit.n_retired == 0
            assert sel.entries[n].fit.ss_res == pytest.approx(
                entry.fit.ss_res, rel=1e-9)


def _preset_pair_trace(n_avg, seed):
    return coherence_trace(synthesize(
        default_sequence(SequenceKind.DEER_RABI), target_pair(),
        detector(n_avg=n_avg, seed=seed)))


def test_retiring_keeps_spin_count_selection(monkeypatch):
    traces = [_preset_pair_trace(n_avg, seed) for seed, n_avg in
              enumerate((1_260_000, 300_000, 100_000, 30_000, 1_260_000))]
    _selection_matches_without_retiring(monkeypatch, traces, max_n=3)


@pytest.mark.parametrize("canonicalize", [True, False])
@pytest.mark.parametrize("f_mhz", [1.12, 3.0])
def test_retiring_keeps_equal_coupling_selection(monkeypatch, f_mhz,
                                                 canonicalize):
    # a pair of equal couplings: the best 2-spin fit lies near the line
    # omega_1 = omega_2 (on it, within 4e-6, at 1.12 MHz, seed 1, not
    # re-anchored), where the equal-coupling rule retires starts
    truth = TargetSpinModel((TWO_PI * f_mhz,) * 2, target_pair().t0)
    traces = [coherence_trace(synthesize(
        default_sequence(SequenceKind.DEER_RABI), truth,
        detector(n_avg=n_avg, seed=seed)))
        for seed, n_avg in enumerate((1_260_000, 1_260_000, 100_000, 30_000))]
    _selection_matches_without_retiring(monkeypatch, traces, max_n=2,
                                        canonicalize=canonicalize)


@pytest.mark.slow
def test_retiring_keeps_criterion_07_selection(monkeypatch):
    traces = [_preset_pair_trace(1_260_000, seed) for seed in range(50)]
    _selection_matches_without_retiring(monkeypatch, traces, max_n=3)


@pytest.mark.parametrize("truth", [
    TargetSpinModel(tuple(TWO_PI * f for f in (0.8, 1.5, 2.6)), 0.6),
    TargetSpinModel((TWO_PI * 0.5, TWO_PI * 0.55), target_pair().t0)],
    ids=["three-spins", "close-pair"])
@pytest.mark.parametrize("canonicalize", [True, False])
def test_retiring_keeps_low_n_avg_selection(monkeypatch, truth,
                                            canonicalize):
    # the truths and noise levels where slow starts are most common: three
    # spins whose 3-spin starts creep, and a close pair
    traces = [coherence_trace(synthesize(
        default_sequence(SequenceKind.DEER_RABI), truth,
        detector(n_avg=n_avg, seed=seed)))
        for n_avg in (100_000, 30_000) for seed in (0, 1)]
    _selection_matches_without_retiring(monkeypatch, traces, max_n=3,
                                        canonicalize=canonicalize)


def test_retiring_keeps_equal_pair_three_spin_fit(monkeypatch):
    # of 240 max_n=3 selections (four truths, three n_avg, seeds 0-9,
    # re-anchored or not) the one whose count a stuck rule of 1.5 B over
    # 2 rounds moves: that rule retires its 3-spin winner on the way
    truth = TargetSpinModel((TWO_PI * 1.12,) * 2, target_pair().t0)
    trace = coherence_trace(synthesize(
        default_sequence(SequenceKind.DEER_RABI), truth,
        detector(n_avg=30_000, seed=2)))
    _selection_matches_without_retiring(monkeypatch, [trace], max_n=3,
                                        canonicalize=False)


def _rabi_trace(n_avg, seed):
    """The normalized SIG1 of a preset Rabi trace."""
    raw = synthesize(default_sequence(SequenceKind.RABI), rabi_truth(),
                     detector(n_avg=n_avg, seed=seed))
    return Trace(raw.x, raw.x_kind,
                 {"SIG1n": normalized_channels(raw)["SIG1n"]})


def test_retiring_keeps_rabi_winner(monkeypatch):
    # the second FFT peak's start wins on these seeds at n_avg 1,000, on
    # 5 and 13 still live after the first start has set B; at 100,000 it
    # wins on seeds 0 and 51 and is retired on a short-T0 detour on 1, 7
    traces = [_rabi_trace(n_avg, seed) for n_avg, seeds in (
        (1_000, (2, 5, 12, 13)), (100_000, (0, 1, 7, 51))) for seed in seeds]
    fits = [fit_rabi(tr) for tr in traces]
    assert sum(fit.n_retired for fit in fits) > 0
    monkeypatch.setattr(fitting, "_RETIRE_FACTOR", math.inf)
    refs = [fit_rabi(tr) for tr in traces]
    assert [ref.winning_start for ref in refs] == [1, 1, 1, 1, 1, 0, 0, 1]
    for fit, ref in zip(fits, refs):
        assert ref.n_retired == 0
        assert fit.winning_start == ref.winning_start
        assert fit.ss_res == pytest.approx(ref.ss_res, rel=1e-9)


@pytest.mark.parametrize("canonicalize", [True, False])
def test_merging_keeps_spin_count_selection(monkeypatch, canonicalize):
    # against the engine without the merge rule: a merged start might
    # have ended lower than the start that set B, by the convergence
    # tolerance at most, so the winner may move within it but the count
    # may not
    truths = [target_pair(),
              TargetSpinModel(tuple(TWO_PI * f for f in (0.8, 1.5, 2.6)), 0.6),
              TargetSpinModel((TWO_PI * 0.5, TWO_PI * 0.55), target_pair().t0)]
    traces = [coherence_trace(synthesize(
        default_sequence(SequenceKind.DEER_RABI), truth,
        detector(n_avg=n_avg, seed=seed)))
        for truth in truths for n_avg in (1_260_000, 100_000, 30_000)
        for seed in (0, 1)]

    def select():
        return [select_spin_count(tr, max_n=3, canonicalize=canonicalize)
                for tr in traces]

    merged = select()
    monkeypatch.setattr(fitting, "_MERGE_TOL", 0.0)
    for sel, ref in zip(merged, select()):
        assert sel.best_n == ref.best_n
        for n, entry in ref.entries.items():
            fit, ref_fit = sel.entries[n].fit, entry.fit
            if ref_fit.param_errors is not None:  # else the move has no sigma
                # a parameter with a nan error is on its bound: it stays
                step, sigma = (np.abs(fit.params - ref_fit.params),
                               ref_fit.param_errors)
                assert np.all(np.where(np.isnan(sigma), step == 0,
                                       step <= 1e-3 * sigma))
            assert fit.ss_res <= ref_fit.ss_res * (1.0 + 1e-7)


def _fd_jacobian_extrapolated(f, p, lo, hi):
    """_fd_jacobian with its first-order truncation error removed.

    A forward difference D(h) = J + (h/2) f'' + O(h^2); 2 D(h/2) - D(h)
    cancels the f'' term.  D(h/2) comes from the same routine applied to
    f with its argument compressed about p, so the step in p halves.
    """
    def half(q):
        return f(p + 0.5 * (q - p))

    coarse = _fd_jacobian(f, p, lo, hi, f(p))
    fine = 2.0 * _fd_jacobian(half, p, lo, hi, half(p))
    return 2.0 * fine - coarse


def _serial_best_cost(x, y, n_spins):
    """Best cost of the serial recipe fit_deer_rabi runs in lockstep: one
    _serial_lm per spectral start."""
    span, dt = x[-1] - x[0], float(np.median(np.diff(x)))
    w_lo, w_hi = 0.5 * math.pi / span, 0.5 * math.pi / dt
    bounds = ((w_lo, w_hi),) * n_spins + ((dt, 10.0 * span),)
    peaks = [TWO_PI * f for f in _fft_peak_frequencies(x, y, count=4)]
    best = None
    for ws in _deer_rabi_candidates(peaks, n_spins, w_lo, w_hi):
        fit, _ = _serial_lm(FitProblem(
            model=_epr_model, x=x, y=y,
            init=np.array(ws + (max(span / 3.0, dt),)), bounds=bounds))
        if best is None or fit.ss_res < best.ss_res:
            best = fit
    return best.ss_res


class TestDeerRabiLockstep:
    @settings(max_examples=200, deadline=None)
    @given(omegas=st.lists(st.floats(W_LO, W_HI), min_size=1, max_size=5),
           t0=st.floats(DT, 10.0 * SPAN))
    def test_grid_model_and_jacobian_match_references(self, omegas, t0):
        p = np.array(omegas + [t0])
        grid = nv_epr_signal_grid(p[None, :-1], p[-1:], GRID)[0]
        np.testing.assert_allclose(
            grid, nv_epr_signal(TargetSpinModel(omegas, t0), GRID),
            rtol=1e-12, atol=1e-15)

        def f(q):
            return nv_epr_signal_grid(q[None, :-1], q[-1:], GRID)[0]

        lo = np.array([W_LO] * len(omegas) + [DT])
        hi = np.array([W_HI] * len(omegas) + [10.0 * SPAN])
        jac = nv_epr_jacobian_grid(
            p[-1:], GRID, nv_epr_signal_grid(p[None, :-1], p[-1:], GRID,
                                             keep=True)[1])[0]
        ref = _fd_jacobian_extrapolated(f, p, lo, hi)
        # 1e-5 of each column's scale, over a 1e-9 floor for the rounding
        # of differences taken at steps of ~1e-6
        tol = 1e-5 * np.max(np.abs(jac), axis=0) + 1e-9
        assert np.all(np.abs(jac - ref) <= tol)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_best_cost_matches_serial_oracle(self, seed):
        tr = epr_trace([1.12, 2.24], noise=0.05, seed=seed)
        y = tr.channel("coherence")
        for n in (1, 2):
            fit = fit_deer_rabi(tr, n_spins=n)
            assert fit.ss_res == pytest.approx(
                _serial_best_cost(tr.x, y, n), rel=1e-8)

    def test_alias_of_coupling_pair_not_selected(self):
        # at this seed (criterion 06) the pair (1.12, 2.26) MHz and its
        # alias (47.74, 48.88) MHz fit the samples equally well; the
        # sum line of the alias lies above the Nyquist limit
        trace = coherence_trace(synthesize(
            default_sequence(SequenceKind.DEER_RABI), target_pair(),
            detector(n_avg=1_260_000, seed=47)))
        fit = fit_deer_rabi(trace, n_spins=2)
        dt = float(np.median(np.diff(trace.x)))
        assert np.all(fit.params[:2] <= 0.5 * math.pi / dt)
        assert np.all(np.abs(fit.params[:2] - np.array(target_pair().omegas))
                      <= TWO_PI * 0.2)
        # on t = k dt, cos((pi/dt - w) t) = (-1)^k cos(w t): the alias
        # pair reproduces the fitted samples and only the bound excludes it
        w1, w2, t0 = fit.params
        alias = np.array([[math.pi / dt - w2, math.pi / dt - w1]])
        yhat = nv_epr_signal_grid(alias, np.array([t0]), trace.x)[0]
        y = trace.channel(next(iter(trace.channels)))
        assert np.sum((yhat - y) ** 2) == pytest.approx(fit.ss_res, rel=1e-9)
        assert np.all(alias > 0.5 * math.pi / dt)

    def test_work_counters(self, monkeypatch):
        x = np.linspace(0.0, 1.0, 40)
        calls = []

        def model(p, x):
            calls.append(1)
            return p[0] * np.sin(p[1] * x)

        fit = nlls_fit(FitProblem(model=model, x=x, y=np.sin(3.0 * x),
                                  init=np.array([0.5, 2.5]),
                                  bounds=((-5.0, 5.0), (0.1, 10.0))))
        assert fit.n_starts == 1 and fit.n_model_evals == len(calls)

        tr = epr_trace([1.12, 2.24], noise=0.05, seed=3)
        peaks = [TWO_PI * f for f in
                 _fft_peak_frequencies(tr.x, tr.channel("coherence"), 4)]
        lockstep_calls = []

        def counting_lockstep(*args, **kwargs):
            lockstep_calls.append(1)
            return _lockstep_lm(*args, **kwargs)

        monkeypatch.setattr(fitting, "_lockstep_lm", counting_lockstep)
        for n in (1, 2, 3):
            lockstep_calls.clear()
            fit = fit_deer_rabi(tr, n)
            # one lockstep call, one start per spectral start
            n_cand = len(_deer_rabi_candidates(peaks, n, W_LO, W_HI))
            assert len(lockstep_calls) == 1
            assert fit.n_starts == n_cand
            assert fit.n_model_evals > 2 * fit.n_starts
        # fit_rabi starts once per FFT peak inside its frequency bounds
        tr = epr_trace([1.3], t0=0.6)
        rabi = fit_rabi(tr)
        f_peaks = [f for f in _fft_peak_frequencies(
            tr.x, tr.channel("coherence"), count=2) if 0.25 < f < 50.0]
        assert rabi.n_starts == max(len(f_peaks), 1) <= 2
        assert rabi.n_model_evals > rabi.n_starts


def _same_fit(a: FitResult, b: FitResult):
    """Every field of two fits, bit for bit."""
    for name in ("params", "param_errors"):
        got, want = getattr(a, name), getattr(b, name)
        assert (got is None) == (want is None), name
        if want is not None:
            np.testing.assert_array_equal(got, want, err_msg=name)
    for name in ("ss_res", "adj_r2", "converged", "n_iter", "param_names",
                 "n_starts", "n_model_evals", "n_retired", "stop_reason",
                 "winning_start", "n_rounds"):
        got, want = getattr(a, name), getattr(b, name)
        assert got == want or (got != got and want != want), name


def _unit_trace(tr, canonicalize):
    """The trace select_spin_count fits, as a one-channel trace."""
    y = tr.channel(next(iter(tr.channels)))
    if canonicalize:
        y = fitting._canonicalize_unit(y)
    return make_trace(tr.x, y, XKind.PULSE_LENGTH)


def _noise_trace(seed):
    t = np.linspace(0.0, 1.0, 101)
    y = 0.5 + 0.016 * np.random.default_rng(seed).standard_normal(101)
    return make_trace(t, y, XKind.PULSE_LENGTH)


class TestOneCallSelection:
    """select_spin_count's one engine call against fit_deer_rabi per count."""

    @pytest.mark.parametrize("n_avg", [1_260_000, 100_000, 30_000])
    def test_two_spin_selection_is_the_per_count_fits(self, monkeypatch,
                                                      n_avg):
        calls = []
        monkeypatch.setattr(fitting, "_lockstep_lm",
                            _logging_engine(_lockstep_lm, calls))
        traces = [_preset_pair_trace(n_avg, seed) for seed in range(7)]
        if n_avg == 30_000:
            traces += [_noise_trace(seed) for seed in range(3)]
        for tr, canonicalize in itertools.product(traces, (True, False)):
            calls.clear()
            sel = select_spin_count(tr, max_n=2, canonicalize=canonicalize)
            unit = _unit_trace(tr, canonicalize)
            for n in (1, 2):
                _same_fit(sel.entries[n].fit, fit_deer_rabi(unit, n))
            # the selection's starts, count by count, take the paths of
            # the per-count fits' starts
            fused, *alone = (_cost_paths(*call) for call in calls)
            assert _bits(fused) == _bits([h for paths in alone
                                          for h in paths])

    def test_three_spin_selection_within_tolerance(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fitting, "_lockstep_lm",
                            _logging_engine(_lockstep_lm, calls))
        margin = fitting._SPIN_COUNT_MARGIN
        traces = [_preset_pair_trace(n_avg, 11) for n_avg in
                  (1_260_000, 100_000, 30_000)] + [_noise_trace(5)]
        for tr in traces:
            calls.clear()
            sel = select_spin_count(tr, max_n=3)
            fits = {n: fit_deer_rabi(_unit_trace(tr, True), n)
                    for n in (1, 2, 3)}
            best_n = 1
            for n in (2, 3):
                if fits[n].adj_r2 > fits[best_n].adj_r2 + margin:
                    best_n = n
            assert sel.best_n == best_n
            for n, fit in fits.items():
                assert sel.entries[n].fit.ss_res == pytest.approx(
                    fit.ss_res, rel=1e-9)
            # the 3-spin starts carry no pad: their fit and paths are the
            # same
            _same_fit(sel.entries[3].fit, fits[3])
            fused, three = _cost_paths(*calls[0]), _cost_paths(*calls[3])
            assert _bits(fused[-fits[3].n_starts:]) == _bits(three)

    def test_pad_couplings_stay_zero(self, monkeypatch):
        calls = []

        def capture(*args, **kwargs):
            calls.append((args, kwargs, _lockstep_lm(*args, **kwargs)))
            return calls[-1][-1]

        monkeypatch.setattr(fitting, "_lockstep_lm", capture)
        sel = select_spin_count(_preset_pair_trace(100_000, 2), max_n=3)
        (args, kwargs, runs), = calls  # one engine call for all counts
        counts = np.array(kwargs["groups"]) + 1
        assert np.count_nonzero(counts < 3) > 0
        for row, n in enumerate(counts):
            # a pad stays on its start, 0, and on its bounds [0, 0]
            assert np.all(runs.params[row, n:3] == 0.0)
            assert np.all(np.asarray(args[4])[row, n:3] == 0.0)
            assert np.all(np.asarray(args[5])[row, n:3] == 0.0)
        assert [sel.entries[n].fit.n_starts for n in (1, 2, 3)] == [
            np.count_nonzero(counts == n) for n in (1, 2, 3)]

    @settings(max_examples=200, deadline=None)
    @given(omegas=st.lists(st.floats(0.0, W_HI), min_size=1, max_size=5),
           t0=st.floats(DT, 10.0 * SPAN), n_pad=st.integers(0, 2))
    def test_kept_trig_jacobian_is_bit_identical(self, omegas, t0, n_pad):
        w, t0 = np.array([omegas]), np.array([t0])
        signal, kept = nv_epr_signal_grid(w, t0, GRID, keep=True)
        np.testing.assert_array_equal(signal, nv_epr_signal_grid(w, t0, GRID))
        jac = nv_epr_jacobian_grid(t0, GRID, kept)
        # pad couplings of 0 leave the model and every other column as
        # they are, and their own columns 0
        n = w.shape[1]
        padded = np.append(w, np.zeros((1, n_pad)), axis=1)
        signal_pad, kept_pad = nv_epr_signal_grid(padded, t0, GRID, keep=True)
        np.testing.assert_array_equal(signal_pad, signal)
        jac_pad = nv_epr_jacobian_grid(t0, GRID, kept_pad)
        np.testing.assert_array_equal(jac_pad[:, :, :n], jac[:, :, :n])
        np.testing.assert_array_equal(jac_pad[:, :, -1], jac[:, :, -1])
        assert np.all(jac_pad[:, :, n:-1] == 0.0)


class TestWinnerRecord:
    """FitResult's stop_reason, winning_start and n_rounds."""

    def test_deer_rabi_winner(self, monkeypatch):
        calls = []

        def capture(*args, **kwargs):
            calls.append(_lockstep_lm(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(fitting, "_lockstep_lm", capture)
        fit = fit_deer_rabi(epr_trace([1.12, 2.24], noise=0.01, seed=0), 2)
        runs, = calls
        win = int(np.argmin(runs.cost))
        assert fit.winning_start == win
        assert fit.stop_reason == runs.stop[win] == "converged"
        assert fit.n_rounds == runs.n_rounds[win] >= fit.n_iter
        # a start is live for at least as many rounds as it accepts steps
        assert np.all(runs.n_rounds >= runs.n_iter)
        # the stuck-cost rule waits _RETIRE_ROUNDS rounds, the equal-
        # coupling rule does not
        retired = runs.stop == "retired"
        twin = (np.abs(runs.params[:, 0] - runs.params[:, 1])
                <= fitting._TWIN_REL * runs.params[:, :2].max(axis=1))
        assert np.any(retired & twin)
        assert np.all(runs.n_rounds[retired & ~twin]
                      >= fitting._RETIRE_ROUNDS)

    def test_max_iter_winner(self):
        x, y = _decay_data()
        fit = nlls_fit(FitProblem(
            model=lambda p, x: _decay_model(p[None], x)[0], x=x, y=y,
            init=np.array([1.0, 1.0]), bounds=((0.0, 10.0), (0.0, 10.0)),
            max_iter=1))
        assert not fit.converged
        assert fit.stop_reason == "max_iter"
        assert fit.winning_start == 0 and fit.n_iter == 1
        assert fit.n_rounds >= 1


# _lockstep_lm and _solve_each as they were before the round was trimmed
# to fewer numpy calls (see _lockstep_lm); beside their names, only the
# damping after a rejected step differs, written out as the engine's
# _rejected_lam has it.
def _reference_solve_each(mats, rhs):
    """_solve_each with a mask for ok, also when every row is solved."""
    try:
        return (np.linalg.solve(mats, rhs[..., None])[..., 0],
                np.ones(len(rhs), dtype=bool))
    except np.linalg.LinAlgError:
        x = np.full_like(rhs, np.nan)
        ok = np.zeros(len(rhs), dtype=bool)
        for i in range(len(rhs)):
            try:
                x[i] = np.linalg.solve(mats[i], rhs[i])
                ok[i] = True
            except np.linalg.LinAlgError:
                pass
        return x, ok


def _reference_lockstep_lm(model, jacobian, y, starts, lo, hi,
                           max_iter=_MAX_ITER, groups=None,
                           exchangeable=()) -> _LockstepRuns:
    """_lockstep_lm before its round was trimmed to fewer numpy calls.

    Kept as the oracle of the trimmed round, which must give the same
    bits (TestTrimmedRound), with the engine's damping rule after a
    rejected step and its merge rule, as masks.
    """
    p = np.array(starts, dtype=float)
    lo, hi = (np.array(np.broadcast_to(b, p.shape), dtype=float)
              for b in (lo, hi))
    if np.any(p < lo) or np.any(p > hi):
        raise ValueError("starts must lie within bounds")
    n_start, k = p.shape
    group = (np.zeros(n_start, dtype=int) if groups is None
             else np.asarray(groups, dtype=int))
    twins = np.asarray(exchangeable, dtype=int)
    yhat, kept = model(p)
    r = yhat - y
    cost = np.einsum("ij,ij->i", r, r)
    runs = _LockstepRuns(params=p.copy(), cost=cost.copy(),
                         stop=np.full(n_start, "", dtype="<U9"),
                         n_iter=np.zeros(n_start, dtype=int),
                         n_evals=np.ones(n_start, dtype=int),
                         n_rounds=np.zeros(n_start, dtype=int), lo=lo, hi=hi)
    # one row per unfinished start; live[row] is its index in runs
    live = np.arange(n_start)
    # B of each group: the lowest cost a start of it has converged to
    best = np.full(int(group.max()) + 1, math.inf)
    any_best = False
    # each group's p and J^T J of the start that set its B
    p_star = np.zeros((best.size, k))
    a_star = np.zeros((best.size, k, k))
    # past[row, t % _RETIRE_ROUNDS] holds the cost after round t; it is
    # read back, _RETIRE_ROUNDS rounds later, just before it is overwritten
    past = np.repeat(cost[:, None], _RETIRE_ROUNDS, axis=1)
    n_round = 0
    lam = np.full(n_start, _LAM_START)
    nu = np.full(n_start, 2.0)
    n_iter = np.zeros(n_start, dtype=int)
    stale = np.ones(n_start, dtype=bool)  # Jacobian due at p
    a = np.empty((n_start, k, k))
    g = np.empty((n_start, k))
    d = np.empty((n_start, k))
    eye = np.eye(k)

    while live.size:
        if stale.any():
            # kept is that of the model call that evaluated p[stale]
            jac = jacobian(p[stale], tuple(v[stale] for v in kept))
            jt = jac.transpose(0, 2, 1)
            a[stale] = jtj = jt @ jac
            g[stale] = (jt @ r[stale][:, :, None])[:, :, 0]
            diag = np.diagonal(jtj, axis1=1, axis2=2).copy()
            # keep damping effective for insensitive parameters
            diag[diag <= 0] = 1.0
            d[stale] = diag
            runs.n_evals[live[stale]] += 1
        held = ((p <= lo) & (g > 0)) | ((p >= hi) & (g < 0))
        free = ~held
        delta, solved = _reference_solve_each(
            np.where(free[:, :, None] & free[:, None, :],
                     a + (lam[:, None] * d)[:, :, None] * eye, eye),
            np.where(held, 0.0, -g))
        # an unsolved row has a nan trial and cost: rejected below
        trial = np.clip(p + delta, lo, hi)
        yhat, kept = model(trial)
        r_t = yhat - y
        cost_t = np.einsum("ij,ij->i", r_t, r_t)
        runs.n_evals[live[solved]] += 1
        better = cost_t < cost
        # flat to within tolerance: at an optimum or pinned to a bound
        flat = ~better & (np.abs(cost_t - cost)
                          <= _TOL * np.maximum(cost, _COST_FLOOR))
        conv = flat | (better & (cost - cost_t
                                 <= _TOL * np.maximum(cost_t, _COST_FLOOR)))
        p[better], r[better], cost[better] = (trial[better], r_t[better],
                                              cost_t[better])
        n_iter += better
        # a rejected row: lambda*nu, or where larger the finite damping
        # that about halves its step, -g.delta / delta.D.delta
        grown = lam * nu
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            quot = (-np.einsum("ij,ij->i", g, delta)
                    / np.einsum("ij,ij,ij->i", delta, d, delta))
        lam = np.where(better, np.maximum(lam / 3.0, _LAM_MIN),
                       np.where(np.isfinite(quot) & (quot > grown), quot,
                                grown))
        nu = np.where(better, 2.0, np.minimum(2.0 * nu, _NU_MAX))
        stale = better
        maxed = n_iter >= max_iter
        # stalled: no acceptable step even at heavy damping
        stalled = lam > _LAM_STALL
        end = conv | maxed | stalled
        if conv.any():
            # at most once per start: a loop over the groups that converged
            for gid in set(group[conv].tolist()):
                rows = conv & (group == gid)
                low = float(cost[rows].min())
                if low < best[gid]:
                    # the first of the rows at that cost sets B
                    first = np.flatnonzero(rows & (cost == low))[0]
                    best[gid] = low
                    p_star[gid], a_star[gid] = p[first], a[first]
            any_best = True
        n_round += 1
        slot = n_round % _RETIRE_ROUNDS
        fell = past[:, slot] - cost
        past[:, slot] = cost
        if n_round >= _RETIRE_ROUNDS and any_best:
            end |= ((cost > _RETIRE_FACTOR * best[group])
                    & (fell <= _RETIRE_GAIN * cost))
        if twins.size and any_best:
            # sorted, a parameter's nearest equal is its neighbour; a
            # parameter pinned by its bounds is nan and equals none
            w = np.where(lo[:, twins] < hi[:, twins], p[:, twins], np.nan)
            w.sort(axis=1)
            end |= ((cost > (1.0 + _TWIN_COST) * best[group])
                    & np.any(np.abs(np.diff(w, axis=1))
                             <= _TWIN_REL * np.abs(w[:, 1:]), axis=1))
        merged = np.zeros(live.size, dtype=bool)
        if any_best:
            # arrived at the minimum that set B: a cost in (B, (1 + tol) B]
            # and (p - p*).A*.(p - p*) <= tol B; never where B is inf
            b = best[group]
            step = p - p_star[group]
            merged = ~end & (cost > b) & (cost <= (1.0 + _MERGE_TOL) * b) & (
                np.einsum("ij,ijk,ik->i", step, a_star[group], step)
                <= _MERGE_TOL * b)
            end |= merged
        if end.any():
            done = live[end]
            runs.params[done], runs.cost[done] = p[end], cost[end]
            runs.stop[done] = np.where(
                conv[end], "converged", np.where(
                    maxed[end], "max_iter",
                    np.where(stalled[end], "stalled", np.where(
                        merged[end], "merged", "retired"))))
            runs.n_iter[done] = n_iter[end]
            runs.n_rounds[done] = n_round
            keep = ~end
            (live, p, r, cost, lam, nu, n_iter, stale, a, g, d, past, lo, hi,
             group) = (v[keep] for v in (live, p, r, cost, lam, nu, n_iter,
                                         stale, a, g, d, past, lo, hi, group))
            kept = tuple(v[keep] for v in kept)

    return runs


# the DEER-Rabi and Gaussian kernels and the fits' models and Jacobians
# as they were before the fits passed their by-products to the Jacobian
# (nv_epr_signal_grid's kept phase, gaussian_unit's offset): the oracles
# of TestKernelBits, whose bits the kernels must give
def _reference_signal_grid(omegas, t0, t, keep=False):
    envelope = np.exp(-((t / t0[:, None]) ** 2))
    cos = np.cos(omegas[:, :, None] * t)
    signal = 0.5 + 0.5 * envelope * np.prod(cos, axis=1)
    return (signal, (cos, envelope)) if keep else signal


def _reference_jacobian_grid(omegas, t0, t, kept=None):
    n = omegas.shape[1]
    phase = omegas[:, :, None] * t
    cos, envelope = kept or (np.cos(phase), np.exp(-((t / t0[:, None]) ** 2)))
    sin = np.sin(phase)
    jac = np.empty((omegas.shape[0], t.size, n + 1))
    left = [None, cos[:, 0]]
    for j in range(1, n):
        left.append(left[-1] * cos[:, j])
    right = -0.5 * envelope * t
    for j in range(n - 1, 0, -1):
        jac[:, :, j] = right * sin[:, j] * left[j]
        right = right * cos[:, j]
    jac[:, :, 0] = right * sin[:, 0]
    jac[:, :, n] = left[n] * envelope * t ** 2 / t0[:, None] ** 3
    return jac


def _reference_gaussian_line(f, center, width, amplitude, baseline=0.0):
    d = f - center
    d2, w2 = d * d, 2.0 * (width * width)
    if np.isinf(w2).any():
        both = np.isinf(d2) & np.isinf(w2)
        with np.errstate(all="ignore"):
            d2 = np.where(both, ((f - center) / width) ** 2 / 2.0, d2)
        w2 = np.where(both, 1.0, w2)
    if not np.all(w2):
        w2 = np.where((d2 == 0) & (w2 == 0), 1.0, w2)
    return baseline + amplitude * np.exp(-d2 / w2)


def _reference_peak_closures(x):
    def model(p):
        center, width, amplitude, baseline = p.T[:, :, None]
        e = _reference_gaussian_line(x, center, width, 1.0)
        return baseline + amplitude * e, (e,)

    def jacobian(p, kept):
        center, width, amplitude = p.T[:3, :, None]
        (e,) = kept
        u = x - center
        jac = np.empty(e.shape + (4,))
        jac[:, :, 0] = d_center = amplitude * e * u / width ** 2
        jac[:, :, 1] = d_center * u / width
        jac[:, :, 2] = e
        jac[:, :, 3] = 1.0
        return jac

    return model, jacobian


def _reference_rabi_closures(x):
    def model(p):
        return _reference_signal_grid(TWO_PI * p[:, :1], p[:, 1], x,
                                      keep=True)

    def jacobian(p, kept):
        jac = _reference_jacobian_grid(TWO_PI * p[:, :1], p[:, 1], x, kept)
        jac[:, :, 0] *= TWO_PI
        return jac

    return model, jacobian


def _bits(value):
    """value as nested tuples of bytes: == compares bit for bit."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits(getattr(value, f.name)))
                     for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return tuple((k, _bits(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    return value


def _rabi_two_starts():
    raw = synthesize(default_sequence(SequenceKind.RABI), rabi_truth(),
                     detector(n_avg=100_000, seed=1))
    fit = fit_rabi(Trace(raw.x, raw.x_kind,
                         {"SIG1n": normalized_channels(raw)["SIG1n"]}))
    assert fit.n_starts == 2
    return fit


def _spectrum(model, seed=0):
    raw = synthesize(default_sequence(SequenceKind.CPMG_DEER), model,
                     detector(n_avg=1_330_000, contrast=0.166, seed=seed))
    return raw, make_trace(raw.x, difference_signal(raw))


_FLAT = DeerSpectrumModel(center=914.7, width=9.0, amplitude=0.0,
                          baseline=0.5)


def _peak_width_on_bound():
    # TestGaussianPeak.test_null_trace_converges_with_width_on_bound
    raw, trace = _spectrum(_FLAT)
    w_lo = 0.1 * float(raw.x[-1] - raw.x[0])
    fit = fit_gaussian_peak(trace, min_snr=0.0, width_bounds=(w_lo, 5 * w_lo))
    assert fit.params[1] == w_lo
    return fit


def _singular_row():
    # row 1's Jacobian is (1, 2.2e-162) at the first point and 0 elsewhere:
    # diag(J^T J) is (1, the smallest subnormal), lambda times the second
    # underflows to 0, and elimination leaves an exact zero pivot, so
    # _solve_each falls back to solving row by row
    x, y = _decay_data()

    def jacobian(p, kept):
        jac = _decay_jacobian(p, x)
        odd = p[:, 0] == 7.0
        jac[odd] = 0.0
        jac[odd, 0] = [1.0, 2.2e-162]
        return jac

    def model(p):
        return _decay_model(p, x), ()

    starts = np.insert(TestLockstepEngine.starts, 1, [7.0, 1.0], axis=0)
    jac = jacobian(starts[1:2], ())[0]
    damped = jac.T @ jac + _LAM_START * np.diag(np.diag(jac.T @ jac))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(damped, np.ones(2))
    runs = fitting._lockstep_lm(model, jacobian, y, starts,
                                TestLockstepEngine.lo, TestLockstepEngine.hi)
    return runs, fitting._fit_result(runs, model, jacobian, y)


def _both_retire_rules(runs):
    # the stuck-cost rule retires after _RETIRE_ROUNDS rounds, the
    # equal-coupling rule on two equal free couplings
    (runs,) = runs
    n = runs.params.shape[1] - 1
    retired = runs.stop == "retired"
    w = np.sort(runs.params[:, :n], axis=1)
    twin = np.any((w[:, :-1] > 0)
                  & (np.diff(w, axis=1) <= _TWIN_REL * w[:, 1:]), axis=1)
    assert np.any(retired & twin) and np.any(retired & ~twin)


def _rabi_second_start_wins():
    # the start of the second FFT peak ends lower: 139.48 against 139.97
    fit = fit_rabi(_rabi_trace(1_000, 5))
    assert fit.n_starts == 2 and fit.winning_start == 1
    return fit


def _lone_stop(reason, n_rounds=None):
    """Check that the one engine call ran one start, which ended so."""
    def check(runs):
        (runs,) = runs
        assert runs.stop.tolist() == [reason]
        if n_rounds is not None:
            assert runs.n_rounds.tolist() == [n_rounds]
    return check


def _scripted_runs(residuals, groups=None, jac=((0.0, 1.0), (0.0, 1.0))):
    """_lockstep_lm on a problem whose cost path is scripted.

    Start i has the parameters (i, 0): its index, pinned by bounds, and a
    free one.  The model reads only the index: at its t-th evaluation of
    start i it returns residuals[i][t], one integer per row of jac, so
    the cost is their sum of squares exactly.  Past the script it doubles
    the last residuals at each call, a rejected trial, until the start
    stalls.  jac is every start's Jacobian.
    """
    calls = [0] * len(residuals)

    def model(p):
        rows = []
        for i in p[:, 0].astype(int).tolist():
            script, t = residuals[i], calls[i]
            calls[i] += 1
            past = t - len(script) + 1
            rows.append(script[t] if past <= 0
                        else [2.0 ** past * v for v in script[-1]])
        return np.array(rows, dtype=float), ()

    def jacobian(p, kept):
        return np.tile(jac, (len(p), 1, 1))

    index = np.arange(float(len(residuals)))
    free = np.full(index.size, INF)
    return fitting._lockstep_lm(
        model, jacobian, np.zeros(len(jac)),
        np.column_stack([index, 0 * index]),
        np.column_stack([index, -free]), np.column_stack([index, free]),
        groups=groups)


def _stops(reasons, n_rounds):
    """Check that the one engine call's starts ended so, in those rounds."""
    def check(runs):
        (runs,) = runs
        assert runs.stop.tolist() == reasons
        assert runs.n_rounds.tolist() == n_rounds
    return check


_TRIMMED_ROUND_CASES = {
    "rabi-two-starts": (_rabi_two_starts, None),
    "peak-line": (lambda: fit_gaussian_peak(_spectrum(epr_line())[1],
                                            min_snr=0.0), None),
    "peak-null": (lambda: fit_gaussian_peak(_spectrum(_FLAT)[1],
                                            min_snr=0.0), None),
    "peak-width-on-bound": (_peak_width_on_bound, None),
    "snr-null": (lambda: snr_estimate(_spectrum(_FLAT, seed=3)[0]), None),
    "select-max-n-2": (lambda: select_spin_count(
        _preset_pair_trace(1_260_000, 0), max_n=2), _both_retire_rules),
    "select-max-n-3": (lambda: select_spin_count(
        _preset_pair_trace(1_260_000, 0), max_n=3), _both_retire_rules),
    "nlls-fit": (lambda: nlls_fit(FitProblem(
        model=lambda p, x: p[0] * np.exp(-p[1] * x), x=_decay_data()[0],
        y=_decay_data()[1], init=np.array([1.0, 1.0]),
        bounds=((0.0, 10.0), (0.0, 10.0)))), None),
    "singular-row": (_singular_row, None),
    # criterion 11's null trace whose line fit runs out of steps
    "snr-null-max-iter": (
        lambda: snr_estimate(_spectrum(_FLAT, seed=253)[0]),
        _lone_stop("max_iter", n_rounds=203)),
    # the line-free trace whose width runs to its lower bound
    "peak-stalled": (lambda: fit_gaussian_peak(
        make_trace(TINY_STEP_GRID, _TINY_STEP_NO_LINE), min_snr=0.0),
        _lone_stop("stalled")),
    "rabi-second-start-wins": (_rabi_second_start_wins, None),
    # the most rows: 133 starts over five spin counts
    "select-max-n-5": (lambda: select_spin_count(
        _preset_pair_trace(1_260_000, 0), max_n=5), _both_retire_rules),
    # costs on the convergence boundary, |c_t - c| = _TOL min(c, c_t)
    # with 1e-10 * 1e10 exactly 1: the first start's trial gains exactly
    # that, the second's is that much higher
    "converged-on-the-tolerance": (lambda: _scripted_runs(
        [[[100_000, 1], [100_000, 0]], [[100_000, 0], [100_000, 1]]]),
        _stops(["converged", "converged"], [1, 1])),
    # the first start converges at cost 1 in round 1; the second falls
    # from 10,100 to 10,000 over _RETIRE_ROUNDS rounds (residuals (100,
    # 10), then (100, k) for k = _RETIRE_ROUNDS - 1, ..., 0), exactly
    # _RETIRE_GAIN of its cost (0.01 * 10,000 is exactly 100), so the
    # stuck rule retires it
    "stuck-on-the-gain-limit": (lambda: _scripted_runs(
        [[[1, 0], [1, 0]],
         [[100, k] for k in (10, *range(_RETIRE_ROUNDS - 1, -1, -1))]]),
        _stops(["converged", "retired"], [1, _RETIRE_ROUNDS])),
    # the merge rule's limits, B = 33,000 in each group: (1 + _MERGE_TOL) B
    # is exactly 33,033 and _MERGE_TOL B exactly 33, the distance of
    # neighbouring starts in the J^T J of every start, diag(33, 0); no
    # step moves a start.  Start 1 sits on both limits and merges in
    # round 1; start 2 is twice as far, start 4 costs 33,034 and start
    # 6 costs B itself, so those three stall at the end of their scripts
    "merged-on-both-limits": (lambda: _scripted_runs(
        [[[2, 64, 170]] * 2, [[200, 0, 0], [1, 74, 166]],
         [[200, 0, 0], [1, 74, 166]], [[2, 64, 170]] * 2,
         [[200, 0, 0], [3, 25, 180]], [[2, 64, 170]] * 2,
         [[200, 0, 0], [2, 64, 170]]],
        groups=[0, 0, 0, 1, 1, 2, 2],
        jac=((1.0, 0.0), (4.0, 0.0), (4.0, 0.0))),
        _stops(["converged", "merged", "stalled", "converged", "stalled",
                "converged", "stalled"], [1, 1, 14, 1, 14, 1, 14])),
}


class TestTrimmedRound:
    """_lockstep_lm against _reference_lockstep_lm, bit for bit."""

    @pytest.mark.parametrize("case", list(_TRIMMED_ROUND_CASES))
    def test_same_bits_as_reference_engine(self, monkeypatch, case):
        run, check = _TRIMMED_ROUND_CASES[case]

        def under(engine):
            calls = []
            monkeypatch.setattr(fitting, "_lockstep_lm",
                                _logging_engine(engine, calls))
            return run(), calls

        out, calls = under(_lockstep_lm)
        ref_out, ref_calls = under(_reference_lockstep_lm)
        assert calls and len(calls) == len(ref_calls)
        # every model and Jacobian call, in order, and every run
        assert _bits(calls) == _bits(ref_calls)
        assert _bits(out) == _bits(ref_out)
        if check is not None:
            check([runs for _, _, runs in calls])

    def test_damping_on_the_stall_limit(self, monkeypatch):
        # a rejected step that raises lambda to exactly _LAM_STALL leaves
        # the start live; the next one, above it, stalls it
        rises = []

        def rejected_lam(lam, nu, g, delta, d):
            rises.append(lam)
            return np.full_like(lam, _LAM_STALL) if len(rises) == 1 \
                else lam * nu

        monkeypatch.setattr(fitting, "_rejected_lam", rejected_lam)
        runs = _scripted_runs([[[1, 0], [2, 0], [2, 0]]])
        assert runs.stop.tolist() == ["stalled"]
        assert runs.n_rounds.tolist() == [2]
        assert rises[1].tolist() == [_LAM_STALL]


RABI_GRID = np.linspace(0.0, 2.0, 201)


@functools.cache
def _rabi_closures():
    """The model and Jacobian fit_rabi hands the engine, on RABI_GRID."""
    y = 0.5 + 0.5 * np.exp(-((RABI_GRID / 0.67) ** 2)) * np.cos(
        TWO_PI * 5.5 * RABI_GRID)
    return _closures(fit_rabi, Trace(RABI_GRID, XKind.PULSE_LENGTH,
                                     {"SIG1n": y}))


def _rows(data, count, strategy):
    return [data.draw(strategy) for _ in range(count)]


class TestKernelBits:
    """The kernels and the fits' closures against their references.

    TestTrimmedRound runs one model in both of its engines, so only
    these oracles see a change to a model or a Jacobian itself.
    """

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5), s=st.integers(1, 3))
    def test_deer_rabi_kernels(self, data, n, s):
        # couplings of 0 pad a start of fewer spins (_deer_rabi_fits)
        n_pad = data.draw(st.integers(0, 5 - n))
        w = np.array([row + [0.0] * n_pad for row in _rows(
            data, s, st.lists(st.floats(0.0, W_HI), min_size=n, max_size=n))])
        t0 = np.array(_rows(data, s, st.one_of(
            st.floats(DT, 10.0 * SPAN), st.just(INF))))
        signal, kept = nv_epr_signal_grid(w, t0, GRID, keep=True)
        ref, ref_kept = _reference_signal_grid(w, t0, GRID, keep=True)
        assert _bits(signal) == _bits(ref)
        assert _bits(nv_epr_signal_grid(w, t0, GRID)) == _bits(ref)
        ref_jac = _reference_jacobian_grid(w, t0, GRID, ref_kept)
        assert _bits(nv_epr_jacobian_grid(t0, GRID, kept)) == _bits(ref_jac)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), s=st.integers(1, 2))
    def test_rabi_closures(self, data, s):
        # inside fit_rabi's bounds on RABI_GRID: f in (0.25 / span,
        # 0.5 / dt), T0 in (2 dt, 50 span)
        p = np.array(_rows(data, s, st.tuples(st.floats(0.125, 50.0),
                                              st.floats(0.02, 100.0))))
        model, jacobian = _rabi_closures()
        ref_model, ref_jacobian = _reference_rabi_closures(RABI_GRID)
        yhat, kept = model(p)
        ref, ref_kept = ref_model(p)
        assert _bits(yhat) == _bits(ref)
        assert _bits(jacobian(p, kept)) == _bits(ref_jacobian(p, ref_kept))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), s=st.integers(1, 3))
    def test_peak_closures(self, data, s):
        # TestGaussianPeak's grid, span 70; widths from the floor of a
        # tiny-step grid, GRID_MIN_STEP span, to the top bound 2 span
        w_lo, w_hi = GRID_MIN_STEP * 70.0, 140.0
        width = st.one_of(st.sampled_from([w_lo, w_hi]),
                          st.floats(w_lo, w_hi))
        p = np.array(_rows(data, s, st.tuples(
            st.floats(880.0, 950.0), width, st.floats(-2.0, 2.0),
            st.floats(-1.0, 1.0))))
        model, jacobian = _peak_closures()
        ref_model, ref_jacobian = _reference_peak_closures(
            TestGaussianPeak.x(None))
        yhat, kept = model(p)
        ref, ref_kept = ref_model(p)
        assert _bits(yhat) == _bits(ref)
        assert _bits(jacobian(p, kept)) == _bits(ref_jacobian(p, ref_kept))

    @settings(max_examples=300, deadline=None)
    @given(f=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6),
           center=st.floats(-1e300, 1e300),
           width=st.floats(1e-300, 1e300), amplitude=st.floats(-2.0, 2.0),
           baseline=st.floats(-1.0, 1.0), column=st.booleans())
    # both guards: squares that overflow, and one that underflows at the
    # center
    @example(f=[1e160, 0.0, -1e300], center=0.0, width=1e160, amplitude=1.0,
             baseline=0.0, column=False)
    @example(f=[0.0, 1e-300, 1.0], center=0.0, width=1e-170, amplitude=1.0,
             baseline=0.0, column=True)
    def test_gaussian_line(self, f, center, width, amplitude, baseline,
                           column):
        # a scalar width, as the dips and deer_spectrum pass it, or a
        # column of them, as the peak fit does
        f = np.array(f)
        if column:
            center, width = np.array([[center], [0.0]]), np.array([[width],
                                                                   [1.0]])
        with np.errstate(all="ignore"):
            line = gaussian_line(f, center, width, amplitude, baseline)
            ref = _reference_gaussian_line(f, center, width, amplitude,
                                           baseline)
            unit, offset = gaussian_unit(f, center, width)
            ref_unit = _reference_gaussian_line(f, center, width, 1.0)
        assert _bits(line) == _bits(ref)
        assert _bits(unit) == _bits(ref_unit)
        assert _bits(offset) == _bits(f - center)

    @pytest.mark.parametrize("width, f, squares", [
        (1e160, [1e160, 0.0], INF), (1e-170, [0.0, 1.0], 0.0)])
    def test_gaussian_line_guards_are_reached(self, width, f, squares):
        # the examples above take each guard's branch
        assert 2.0 * (width * width) == squares
        with np.errstate(all="ignore"):
            assert _bits(gaussian_line(np.array(f), 0.0, width, 1.0)) \
                == _bits(_reference_gaussian_line(np.array(f), 0.0, width,
                                                  1.0))

    @settings(max_examples=300, deadline=None)
    @given(y=st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=60))
    # middle edge samples of 0.0 and -0.0, whose median is 0.0
    @example(y=[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, -0.0, -0.0])
    @example(y=[-0.0, -0.0, 5.0, 5.0, 5.0, 5.0, -0.0, -0.0])
    def test_peak_baseline_start_is_the_edge_median(self, y):
        # fit_gaussian_peak starts its baseline at np.median of its
        # 2 max(2, n // 10) edge samples, an even count
        class Started(Exception):
            pass

        def engine(model, jacobian, y, starts, *args, **kwargs):
            raise Started(starts)

        y = np.array(y)
        x = np.linspace(880.0, 950.0, y.size)
        with pytest.MonkeyPatch.context() as mp, \
                pytest.raises(Started) as started:
            mp.setattr(fitting, "_lockstep_lm", engine)
            fit_gaussian_peak(make_trace(x, y))
        edge = max(2, y.size // 10)
        (starts,) = started.value.args
        assert _bits(starts[0][3]) == _bits(
            float(np.median(np.concatenate([y[:edge], y[-edge:]]))))
