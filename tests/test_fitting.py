import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvsense.core import NoPeakError, TWO_PI, Trace, XKind
from nvsense.deer import (TargetSpinModel, nv_epr_jacobian_grid,
                          nv_epr_signal, nv_epr_signal_grid)
from nvsense.fitting import (FitProblem, _deer_rabi_candidates,
                             _epr_model, _fd_jacobian,
                             _fft_peak_frequencies, _lockstep_lm,
                             _perturbation_starts, _solve_each,
                             adjusted_r_squared, fit_deer_rabi,
                             fit_gaussian_peak, fit_rabi, nlls_fit,
                             select_spin_count, spectrum_model_from_fit,
                             target_model_from_fit)
from nvsense.presets import default_sequence, detector, target_pair
from nvsense.synth import SequenceKind, coherence_trace, synthesize

INF = math.inf


def make_trace(x, y, kind=XKind.FREQUENCY, name="c"):
    return Trace(np.asarray(x, float), kind, {name: np.asarray(y, float)})


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

    def test_cost_history_non_increasing(self):
        rng = np.random.default_rng(9)
        x = np.linspace(0.0, 2.0, 40)
        y = np.sin(4.0 * x) + 0.1 * rng.standard_normal(40)
        problem = FitProblem(model=lambda p, x: np.sin(p[0] * x) * p[1],
                             x=x, y=y, init=np.array([3.0, 0.5]),
                             bounds=((0.1, 20.0), (-5.0, 5.0)))
        result = nlls_fit(problem)
        hist = result.cost_history
        assert hist.size >= 1
        assert np.all(np.diff(hist) <= 1e-15)

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

    def test_weights_pull_solution(self):
        # constant model over two incompatible points: the weighted
        # optimum sits at the weighted mean
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 1.0])
        problem = FitProblem(model=lambda p, x: p[0] * np.ones_like(x),
                             x=x, y=y, init=np.array([0.3]),
                             bounds=((-INF, INF),),
                             weights=np.array([1.0, 9.0]))
        result = nlls_fit(problem)
        assert result.params[0] == pytest.approx(0.9, abs=1e-6)

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

    def test_model_export(self):
        x = self.x()
        y = 0.5 - 0.3 * np.exp(-((x - 914.7) ** 2) / (2 * 81.0))
        model = spectrum_model_from_fit(fit_gaussian_peak(make_trace(x, y)))
        assert model.center == pytest.approx(914.7, abs=1e-6)
        assert model.width == pytest.approx(9.0, abs=1e-6)


class TestRabi:
    def test_noiseless_recovery(self):
        t = np.linspace(0.0, 2.0, 201)
        y = 0.5 * (1 + np.exp(-((t / 0.67) ** 2)) * np.cos(TWO_PI * 5.5 * t))
        fit = fit_rabi(make_trace(t, y, XKind.PULSE_LENGTH))
        assert fit.params[0] == pytest.approx(5.5, abs=1e-6)
        assert fit.params[1] == pytest.approx(0.67, abs=1e-4)
        assert fit.converged

    def test_slow_oscillation(self):
        # under one period across the record: FFT peak is at the floor,
        # the fit still has to land on the true frequency
        t = np.linspace(0.0, 2.0, 201)
        y = 0.5 * (1 + np.exp(-((t / 1.5) ** 2)) * np.cos(TWO_PI * 0.8 * t))
        fit = fit_rabi(make_trace(t, y, XKind.PULSE_LENGTH))
        assert fit.params[0] == pytest.approx(0.8, abs=1e-3)


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
        # below 9 points the T0 start span / 8 lies under the bound dt
        tr = epr_trace([0.6], t0=0.5, n=n_points)
        fit = fit_deer_rabi(tr, n_spins=1)
        assert fit.params[0] / TWO_PI == pytest.approx(0.6, abs=1e-6)
        assert fit.params[1] == pytest.approx(0.5, abs=1e-6)
        if n_points == 4:
            # span / 3 and span / 8 both clamp to dt: one T0 start each
            dt = 1.0 / 3.0
            peaks = [TWO_PI * f for f in
                     _fft_peak_frequencies(tr.x, tr.channel("coherence"), 4)]
            n_cand = len(_deer_rabi_candidates(
                peaks, 1, 0.5 * math.pi, 0.5 * math.pi / dt))
            assert fit.n_starts == n_cand

    def test_model_export(self):
        fit = fit_deer_rabi(epr_trace([1.12, 2.24]), n_spins=2)
        model = target_model_from_fit(fit)
        assert model.n_spins == 2
        assert model.t0 == pytest.approx(0.34, abs=1e-5)


class TestModelComparison:
    def test_r2_improves_then_adjusted_flips(self):
        # two-spin data: raw R2 must rise from n=1 to n=2 (more structure
        # captured); the extra parameter at n=3 buys nothing and adjusted
        # R2 must drop
        tr = epr_trace([1.12, 2.24], noise=0.016, seed=5)
        sel = select_spin_count(tr, max_n=3, canonicalize=False)
        n = tr.x.size

        def raw_r2(entry):
            return 1.0 - (1.0 - entry.adj_r2) \
                * (n - entry.k - 1.0) / (n - 1.0)

        r1, r2, r3 = (raw_r2(sel.entries[i]) for i in (1, 2, 3))
        assert r2 > r1
        assert sel.entries[2].adj_r2 > sel.entries[3].adj_r2
        assert sel.best_n == 2

    def test_noiseless_single_spin(self):
        tr = epr_trace([1.3], t0=0.4)
        # raw scale: the single-spin model reproduces the data exactly
        sel = select_spin_count(tr, max_n=3, canonicalize=False)
        assert sel.best_n == 1
        assert not sel.no_signal
        assert sel.entries[1].adj_r2 == pytest.approx(1.0, abs=1e-9)
        # quantile anchoring distorts an already-normalized trace only
        # at the fourth decimal and must not change the verdict
        sel_c = select_spin_count(tr, max_n=3)
        assert sel_c.best_n == 1
        assert sel_c.entries[1].adj_r2 == pytest.approx(1.0, abs=1e-3)

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
        assert all(e.adj_r2 <= 0.0 for e in sel.entries.values())

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
                assert sel.entries[n].adj_r2 == pytest.approx(
                    sel0.entries[n].adj_r2, rel=1e-9, abs=1e-12)

    def test_k_fixed_switch(self):
        tr = epr_trace([1.12, 2.24], noise=0.016, seed=5)
        sel = select_spin_count(tr, max_n=3, k_fixed=3)
        assert all(e.k == 3 for e in sel.entries.values())
        sel_default = select_spin_count(tr, max_n=3)
        assert [sel_default.entries[n].k for n in (1, 2, 3)] == [2, 3, 4]

    def test_ties_break_toward_smaller_n(self):
        # force a tie by fixing both k and the data so two models reach
        # identical quality: equal-coupling data gives n=1 and n=2 the
        # same perfect fit only in the k-fixed view
        tr = epr_trace([1.5], t0=0.4)
        sel = select_spin_count(tr, max_n=2, k_fixed=3)
        if math.isclose(sel.entries[1].adj_r2, sel.entries[2].adj_r2,
                        rel_tol=0, abs_tol=1e-12):
            assert sel.best_n == 1
        else:
            assert sel.best_n == 1  # single-spin data: n=1 wins anyway


def _decay_model(p, x):
    return p[:, :1] * np.exp(-p[:, 1:] * x)


def _decay_jacobian(p, x):
    e = np.exp(-p[:, 1:] * x)
    return np.stack([e, -p[:, :1] * x * e], axis=2)


def _decay_data():
    rng = np.random.default_rng(8)
    x = np.linspace(0.0, 3.0, 60)
    return x, 2.0 * np.exp(-1.3 * x) + 0.01 * rng.standard_normal(60)


class TestLockstepEngine:
    """_lockstep_lm against the serial nlls_fit rules, start by start."""

    lo, hi = np.array([0.0, 0.0]), np.array([10.0, 10.0])
    starts = np.array([[1.0, 1.0], [0.5, 3.0], [5.0, 0.2], [2.0, 1.3]])

    def run(self, starts, max_iter=200):
        x, y = _decay_data()
        return _lockstep_lm(lambda p: _decay_model(p, x),
                            lambda p: _decay_jacobian(p, x), y, starts,
                            self.lo, self.hi, max_iter=max_iter)

    def serial(self, start, max_iter=200):
        x, y = _decay_data()
        return nlls_fit(FitProblem(
            model=lambda p, x: _decay_model(p[None], x)[0], x=x, y=y,
            init=start, bounds=tuple(zip(self.lo, self.hi)),
            max_iter=max_iter))

    def test_each_start_matches_nlls_fit(self):
        runs = self.run(self.starts)
        for i, start in enumerate(self.starts):
            ref = self.serial(start)
            assert runs.converged[i] == ref.converged
            assert np.allclose(runs.params[i], ref.params, atol=1e-6)
            assert runs.cost[i] == pytest.approx(ref.ss_res, rel=1e-9)
            # same accepted steps: only the Jacobians differ (closed form
            # against forward differences), so the paths agree closely
            assert runs.n_iter[i] == ref.n_iter
            np.testing.assert_allclose(runs.history[i], ref.cost_history,
                                       rtol=1e-4)

    def test_max_iter_exhaustion_is_not_convergence(self):
        runs = self.run(self.starts, max_iter=1)
        assert not np.any(runs.converged)
        assert np.all(runs.n_iter == 1)
        assert not self.serial(self.starts[0], max_iter=1).converged

    def test_start_pinned_at_bound(self):
        # unconstrained optimum (slope 3) outside the box; one start sits
        # on the wall from the outset
        x = np.linspace(0.0, 1.0, 10)
        runs = _lockstep_lm(lambda p: p * x, lambda p: np.broadcast_to(
            x[None, :, None], (len(p), x.size, 1)), 3.0 * x,
            np.array([[1.0], [2.0]]), np.array([0.0]), np.array([2.0]))
        assert np.all(runs.converged)
        assert np.allclose(runs.params, 2.0, atol=1e-9)

    def test_degenerate_start_leaves_others_untouched(self):
        # a start whose Jacobian is nan gets a nan normal matrix, never
        # accepts a step and stalls; the other rows must come out exactly
        # as they do without it
        x, y = _decay_data()

        def jacobian(p):
            jac = _decay_jacobian(p, x)
            jac[p[:, 0] == 7.0] = np.nan
            return jac

        def run(starts):
            return _lockstep_lm(lambda p: _decay_model(p, x), jacobian, y,
                                starts, self.lo, self.hi)

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

    def test_starts_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            self.run(np.array([[11.0, 1.0]]))


# the DEER-Rabi preset grid and the coupling and T0 bounds fit_deer_rabi
# derives from it
GRID = np.linspace(0.0, 1.0, 101)
DT, SPAN = 0.01, 1.0
W_LO, W_HI = 0.5 * math.pi / SPAN, 0.5 * math.pi / DT


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
    nlls_fit per spectral start, then the perturbation ring."""
    span, dt = x[-1] - x[0], float(np.median(np.diff(x)))
    w_lo, w_hi = 0.5 * math.pi / span, 0.5 * math.pi / dt
    bounds = ((w_lo, w_hi),) * n_spins + ((dt, 10.0 * span),)
    peaks = [TWO_PI * f for f in _fft_peak_frequencies(x, y, count=4)]
    best = None
    for ws in _deer_rabi_candidates(peaks, n_spins, w_lo, w_hi):
        for t00 in (span / 3.0, span / 8.0):
            fit = nlls_fit(FitProblem(model=_epr_model, x=x, y=y,
                                      init=np.array(ws + (t00,)),
                                      bounds=bounds))
            if best is None or fit.ss_res < best.ss_res:
                best = fit
    for ws in _perturbation_starts(best.params[:-1], TWO_PI * 0.3 / span,
                                   w_lo, w_hi):
        fit = nlls_fit(FitProblem(model=_epr_model, x=x, y=y,
                                  init=np.array(ws + (best.params[-1],)),
                                  bounds=bounds))
        best = fit if fit.ss_res < best.ss_res else best
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
        jac = nv_epr_jacobian_grid(p[None, :-1], p[-1:], GRID)[0]
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

    def test_work_counters(self):
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
        fit = fit_deer_rabi(tr, 2)
        peaks = [TWO_PI * f for f in
                 _fft_peak_frequencies(tr.x, tr.channel("coherence"), 4)]
        # two T0 starts per spectral start, then the 3^2 - 1 ring
        n_cand = len(_deer_rabi_candidates(peaks, 2, W_LO, W_HI))
        assert fit.n_starts == 2 * n_cand + 8
        assert fit.n_model_evals > 2 * fit.n_starts
        rabi = fit_rabi(epr_trace([1.3], t0=0.6))
        assert rabi.n_starts >= 2 and rabi.n_model_evals > rabi.n_starts
