"""Nonlinear least squares and the analysis recipes built on it.

The engine is a small bounded Levenberg-Marquardt: damped normal
equations, steps clipped into box bounds, acceptance only on strict
objective decrease.  Recipes wrap it with model functions, data-driven
starting values (FFT peaks for oscillatory models) and multi-start
loops, and return a uniform FitResult record.  The double-resonance fit
runs all its starts at once through a lockstep copy of the engine that
takes a closed-form Jacobian; nlls_fit is its reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import NoPeakError, Trace, XKind
from .deer import (DeerSpectrumModel, TargetSpinModel, gaussian_line,
                   nv_epr_jacobian_grid, nv_epr_signal, nv_epr_signal_grid)

_COST_FLOOR = 1e-300
# damping schedule shared by nlls_fit and _lockstep_lm (Madsen, Nielsen
# & Tingleff 2004): start, floor, stall limit and cap of the growth nu
_LAM_START, _LAM_MIN, _LAM_STALL, _NU_MAX = 1e-3, 1e-12, 1e14, 64.0
# relative convergence tolerance and default accepted-step cap of both
_TOL, _MAX_ITER = 1e-10, 200
# _lockstep_lm retires a live start whose cost is above _RETIRE_FACTOR
# times the best cost a start of the call has converged to and fell by at
# most _RETIRE_GAIN of itself over its last _RETIRE_ROUNDS rounds
_RETIRE_FACTOR, _RETIRE_GAIN, _RETIRE_ROUNDS = 10.0, 0.01, 10
# a larger spin count must beat the incumbent's adjusted R^2 by more
_SPIN_COUNT_MARGIN = 1e-3


@dataclass
class FitProblem:
    """Weighted box-bounded least-squares problem.

    model(params, x) -> predicted y.  bounds is one (low, high) pair per
    parameter; use -inf/inf for free parameters.  weights multiply the
    squared residuals (1/sigma^2 for Poisson-style weighting).  The
    relative objective-change convergence threshold is _TOL.
    """

    model: object
    x: np.ndarray
    y: np.ndarray
    init: np.ndarray
    bounds: tuple
    weights: np.ndarray | None = None
    max_iter: int = _MAX_ITER

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.init = np.asarray(self.init, dtype=float)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y lengths differ")
        k = self.init.size
        if self.y.size < k:
            raise ValueError(
                f"{self.y.size} points cannot constrain {k} parameters")
        if len(self.bounds) != k:
            raise ValueError("need one (low, high) pair per parameter")
        self.lo = np.array([float(b[0]) for b in self.bounds])
        self.hi = np.array([float(b[1]) for b in self.bounds])
        if np.any(self.lo >= self.hi):
            raise ValueError("each bound must satisfy low < high")
        if np.any(self.init < self.lo) or np.any(self.init > self.hi):
            raise ValueError("init must lie within bounds")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != self.y.shape:
                raise ValueError("weights must match y in shape")
            if np.any(~np.isfinite(self.weights)) or np.any(self.weights <= 0):
                raise ValueError("weights must be finite and positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class FitResult:
    """Solution record shared by every fit in the package.

    param_errors is None when the covariance is not available (singular
    Jacobian or zero degrees of freedom).  cost_history holds the
    optimizer objective after each accepted step, first entry included,
    and is non-increasing by construction.  n_starts counts the LM runs
    behind the result and n_model_evals the parameter vectors at which
    they evaluated the model, over all runs: a forward-difference
    Jacobian costs k of them, a closed-form Jacobian one.  n_retired
    counts the runs that _lockstep_lm ended early, stuck far above a
    converged run (see there).
    """

    params: np.ndarray
    param_errors: np.ndarray | None
    ss_res: float
    adj_r2: float
    converged: bool
    n_iter: int
    param_names: tuple = ()
    cost_history: np.ndarray = field(default_factory=lambda: np.empty(0))
    n_starts: int = 1
    n_model_evals: int = 0
    n_retired: int = 0


def _fd_jacobian(fun, p, lo, hi, r0):
    """Forward-difference Jacobian of the residual vector at p."""
    k = p.size
    jac = np.empty((r0.size, k))
    for j in range(k):
        h = 1e-6 * (1.0 + abs(p[j]))
        if p[j] + h > hi[j]:
            h = -h
        q = p.copy()
        q[j] += h
        jac[:, j] = (fun(q) - r0) / h
    return jac


def nlls_fit(problem: FitProblem) -> FitResult:
    """Minimize sum(w (model(p, x) - y)^2) over box-bounded p."""
    lo, hi = problem.lo, problem.hi
    sw = np.sqrt(problem.weights) if problem.weights is not None else None
    n_evals = 0

    def residuals(q):
        nonlocal n_evals
        n_evals += 1
        r = np.asarray(problem.model(q, problem.x), dtype=float) - problem.y
        return r * sw if sw is not None else r

    p = problem.init.copy()
    r = residuals(p)
    cost = float(r @ r)
    history = [cost]
    lam, nu = _LAM_START, 2.0
    converged = False
    n_accept = 0

    for _ in range(problem.max_iter):
        jac = _fd_jacobian(residuals, p, lo, hi, r)
        a = jac.T @ jac
        g = jac.T @ r
        d = np.diag(a).copy()
        d[d <= 0] = 1.0  # keep damping effective for insensitive parameters
        stalled = False
        while True:
            try:
                delta = np.linalg.solve(a + lam * np.diag(d), -g)
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
                    lam = max(lam / 3.0, _LAM_MIN)
                    nu = 2.0
                    if gain <= _TOL * max(cost, _COST_FLOOR):
                        converged = True
                    break
                if abs(cost_t - cost) <= _TOL * max(cost, _COST_FLOOR):
                    # flat to within tolerance: at an optimum or pinned
                    # to a bound
                    converged = True
                    break
            lam = lam * nu
            nu = min(2.0 * nu, _NU_MAX)
            if lam > _LAM_STALL:
                stalled = True  # no acceptable step even at heavy damping
                break
        if converged or stalled:
            break

    yhat = np.asarray(problem.model(p, problem.x), dtype=float)
    ss_res = float(np.sum((yhat - problem.y) ** 2))
    n, k = problem.y.size, p.size
    adj = _adj_r2_or_nan(problem.y, yhat, k)

    param_errors = None
    if n > k:
        jac = _fd_jacobian(residuals, p, lo, hi, r)
        param_errors = _param_errors(jac, cost, n - k)

    return FitResult(params=p, param_errors=param_errors, ss_res=ss_res,
                     adj_r2=adj, converged=converged, n_iter=n_accept,
                     cost_history=np.asarray(history),
                     n_model_evals=n_evals + 1)


def _param_errors(jac, cost, dof):
    """1-sigma errors from the covariance inv(J^T J) cost / dof.

    None when J^T J is singular or the covariance has a non-finite or
    negative diagonal.
    """
    try:
        cov = np.linalg.inv(jac.T @ jac) * (cost / dof)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(cov)
    if np.all(np.isfinite(diag)) and np.all(diag >= 0):
        return np.sqrt(diag)
    return None


@dataclass
class _LockstepRuns:
    """Per-start outcome of _lockstep_lm, one entry or row per start.

    stop says why each start ended: "converged", "max_iter", "stalled"
    or "retired".
    """

    params: np.ndarray
    cost: np.ndarray
    stop: np.ndarray
    n_iter: np.ndarray
    n_evals: np.ndarray
    history: list

    @property
    def converged(self) -> np.ndarray:
        return self.stop == "converged"

    def extend(self, other: "_LockstepRuns") -> "_LockstepRuns":
        """These runs followed by other's, as if started together."""
        def cat(name):
            return np.concatenate([getattr(self, name), getattr(other, name)])

        return _LockstepRuns(params=cat("params"), cost=cat("cost"),
                             stop=cat("stop"), n_iter=cat("n_iter"),
                             n_evals=cat("n_evals"),
                             history=self.history + other.history)


def _solve_each(mats, rhs):
    """Solve mats[i] x = rhs[i] for every i.

    Returns (x, ok).  A singular matrix leaves only its own row unsolved
    (ok False, x nan), so one degenerate start cannot stop the others.
    """
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


def _lockstep_lm(model, jacobian, y, starts, lo, hi,
                 max_iter=_MAX_ITER) -> _LockstepRuns:
    """Unweighted bounded LM from every row of starts, all in lockstep.

    model(P) maps an (s, k) block of parameter rows to (s, m)
    predictions of y, jacobian(P) to their (s, m, k) derivatives.  Each
    start follows the rules of nlls_fit on its own: damped normal
    equations with per-start lambda and nu, acceptance only on strict
    decrease, convergence on a gain or a flat trial within _TOL, lambda/3
    after an accepted step and lambda*nu after a rejected one, a stall
    above lambda 1e14 and at most max_iter accepted steps.  Each round
    takes the Jacobian only where the last step was accepted and drops
    finished starts.

    One rule couples the starts.  Let B be the lowest cost any start of
    this call has converged to so far.  A live start is retired when its
    cost is above _RETIRE_FACTOR * B and fell by at most _RETIRE_GAIN of
    itself over its last _RETIRE_ROUNDS rounds: it is stuck in a losing
    basin.  Its cost is then more than _RETIRE_FACTOR times a final
    cost, so it is never the lowest; the lowest cost is always that of a
    start that ran to its own end.  Rows do not interact, so retiring
    one leaves every other row's path unchanged.  A lone start never
    meets the rule, since B exists only once it has converged.  A
    retired start might have left its basin later; tests/test_fitting.py
    holds spin-count selections to their results without the rule.
    """
    p = np.array(starts, dtype=float)
    if np.any(p < lo) or np.any(p > hi):
        raise ValueError("starts must lie within bounds")
    n_start, k = p.shape
    r = model(p) - y
    cost = np.einsum("ij,ij->i", r, r)
    runs = _LockstepRuns(params=p.copy(), cost=cost.copy(),
                         stop=np.full(n_start, "", dtype="<U9"),
                         n_iter=np.zeros(n_start, dtype=int),
                         n_evals=np.ones(n_start, dtype=int),
                         history=[[c] for c in cost.tolist()])
    # one row per unfinished start; live[row] is its index in runs
    live = np.arange(n_start)
    best = math.inf  # lowest cost a start has converged to
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
            jac = jacobian(p[stale])
            jt = jac.transpose(0, 2, 1)
            a[stale] = jt @ jac
            g[stale] = (jt @ r[stale][:, :, None])[:, :, 0]
            diag = np.diagonal(a[stale], axis1=1, axis2=2).copy()
            diag[diag <= 0] = 1.0  # keep damping effective, as in nlls_fit
            d[stale] = diag
            runs.n_evals[live[stale]] += 1
        delta, solved = _solve_each(
            a + (lam[:, None] * d)[:, :, None] * eye, -g)
        # an unsolved row has a nan trial and cost: rejected below
        trial = np.clip(p + delta, lo, hi)
        r_t = model(trial) - y
        cost_t = np.einsum("ij,ij->i", r_t, r_t)
        runs.n_evals[live[solved]] += 1
        better = cost_t < cost
        # flat to within tolerance: at an optimum or pinned to a bound
        flat = ~better & (np.abs(cost_t - cost)
                          <= _TOL * np.maximum(cost, _COST_FLOOR))
        conv = flat | (better & (cost - cost_t
                                 <= _TOL * np.maximum(cost_t, _COST_FLOOR)))
        for i, c in zip(live[better].tolist(), cost_t[better].tolist()):
            runs.history[i].append(c)
        p[better], r[better], cost[better] = (trial[better], r_t[better],
                                              cost_t[better])
        n_iter += better
        lam = np.where(better, np.maximum(lam / 3.0, _LAM_MIN), lam * nu)
        nu = np.where(better, 2.0, np.minimum(2.0 * nu, _NU_MAX))
        stale = better
        maxed = n_iter >= max_iter
        # stalled: no acceptable step even at heavy damping
        stalled = lam > _LAM_STALL
        end = conv | maxed | stalled
        if conv.any():
            best = min(best, float(cost[conv].min()))
        n_round += 1
        slot = n_round % _RETIRE_ROUNDS
        fell = past[:, slot] - cost
        past[:, slot] = cost
        if n_round >= _RETIRE_ROUNDS and best < math.inf:
            end |= ((cost > _RETIRE_FACTOR * best)
                    & (fell <= _RETIRE_GAIN * cost))
        if end.any():
            done = live[end]
            runs.params[done], runs.cost[done] = p[end], cost[end]
            runs.stop[done] = np.select(
                [conv[end], maxed[end], stalled[end]],
                ["converged", "max_iter", "stalled"], "retired")
            runs.n_iter[done] = n_iter[end]
            keep = ~end
            live, p, r, cost, lam, nu, n_iter, stale, a, g, d, past = (
                v[keep] for v in (live, p, r, cost, lam, nu, n_iter, stale,
                                  a, g, d, past))

    runs.history = [np.asarray(h) for h in runs.history]
    return runs


def _adj_r2_or_nan(y, yhat, k):
    try:
        return adjusted_r_squared(y, yhat, k)
    except ValueError:
        return float("nan")


def adjusted_r_squared(y, yhat, k: int) -> float:
    """1 - (SS_res / SS_tot) (n - 1) / (n - k - 1) for k fit parameters.

    Penalizes parameter count; can be negative for fits worse than the
    mean.  Raises for a constant target (SS_tot = 0) or n <= k + 1.
    """
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape:
        raise ValueError("y and yhat must have matching shapes")
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    n = y.size
    if n - k - 1 <= 0:
        raise ValueError(f"need n > k + 1 points, got n = {n}, k = {k}")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 0:
        raise ValueError("target is constant; R^2 is undefined")
    ss_res = float(np.sum((y - yhat) ** 2))
    return 1.0 - (ss_res / ss_tot) * (n - 1) / (n - k - 1)


def _resolve_channel(trace: Trace, channel, kind: XKind, what: str):
    if trace.x_kind is not kind:
        raise ValueError(
            f"{what} expects x_kind {kind.value!r}, trace has "
            f"{trace.x_kind.value!r}")
    if channel is None:
        if len(trace.channels) != 1:
            raise ValueError(
                f"trace has channels {sorted(trace.channels)}; pass channel=")
        channel = next(iter(trace.channels))
    return trace.x, trace.channel(channel)


def _fft_peak_frequencies(x, y, count=4):
    """Frequencies (cycles per x unit) of the largest spectral peaks.

    The transform is zero padded 8x so line positions are read off a
    grid much finer than 1/span, and reported peaks are kept at least
    half a resolution element apart so one broad lobe yields one entry.
    """
    dt = float(np.mean(np.diff(x)))
    yc = y - y.mean()
    n_fft = 8 * y.size
    mag = np.abs(np.fft.rfft(yc, n=n_fft))
    freqs = np.fft.rfftfreq(n_fft, dt)
    if mag.size < 3:
        return []
    interior = mag[1:-1]
    is_peak = (interior >= mag[:-2]) & (interior >= mag[2:])
    idx = np.nonzero(is_peak)[0] + 1
    if idx.size == 0:
        idx = np.array([1 + int(np.argmax(mag[1:]))])
    order = idx[np.argsort(mag[idx])[::-1]]
    min_sep = 0.5 / (dt * (y.size - 1))
    chosen = []
    for i in order:
        f = float(freqs[i])
        if f <= 0.0:
            continue
        if all(abs(f - g) >= min_sep for g in chosen):
            chosen.append(f)
        if len(chosen) == count:
            break
    return chosen


GAUSSIAN_PARAMS = ("center_mhz", "width_mhz", "amplitude", "baseline")
RABI_PARAMS = ("f_mhz", "t0_us")


def _gaussian_model(p, f):
    return gaussian_line(f, *p)


def fit_gaussian_peak(trace: Trace, channel: str | None = None,
                      min_snr: float = 2.0,
                      width_bounds: tuple | None = None) -> FitResult:
    """Fit baseline + amplitude exp(-(f - center)^2 / 2 width^2).

    Starting values come from the data (edge median baseline, extremal
    residual peak, half-maximum width).  width_bounds defaults to
    (0.2 dx, 2 span).  Raises NoPeakError when the fitted amplitude is
    below min_snr times the residual noise; pass min_snr=0 to always get
    the fit back.
    """
    x, y = _resolve_channel(trace, channel, XKind.FREQUENCY, "fit_gaussian_peak")
    n = x.size
    if n < 8:
        raise ValueError(f"need at least 8 points to fit a peak, got {n}")
    edge = max(2, n // 10)
    baseline0 = float(np.median(np.concatenate([y[:edge], y[-edge:]])))
    resid = y - baseline0
    i0 = int(np.argmax(np.abs(resid)))
    amp0 = float(resid[i0])
    center0 = float(x[i0])
    half = 0.5 * abs(amp0)
    left = i0
    while left > 0 and abs(resid[left - 1]) >= half:
        left -= 1
    right = i0
    while right < n - 1 and abs(resid[right + 1]) >= half:
        right += 1
    dx = float(np.min(np.diff(x)))
    span = float(x[-1] - x[0])
    if width_bounds is None:
        width_bounds = (0.2 * dx, 2.0 * span)
    w_lo, w_hi = float(width_bounds[0]), float(width_bounds[1])
    if not 0 < w_lo < w_hi:
        raise ValueError(f"width_bounds must satisfy 0 < low < high, "
                         f"got {width_bounds!r}")
    width0 = min(max((x[right] - x[left]) / 2.355, dx, w_lo * 1.001),
                 w_hi * 0.999)
    if amp0 == 0.0:
        amp0 = float(np.ptp(y)) or 1.0
    problem = FitProblem(
        model=_gaussian_model, x=x, y=y,
        init=np.array([center0, width0, amp0, baseline0]),
        bounds=((x[0], x[-1]), (w_lo, w_hi),
                (-np.inf, np.inf), (-np.inf, np.inf)),
    )
    result = nlls_fit(problem)
    result.param_names = GAUSSIAN_PARAMS
    noise = math.sqrt(result.ss_res / (n - 4)) if n > 4 else 0.0
    if min_snr > 0 and abs(result.params[2]) < min_snr * noise:
        raise NoPeakError(
            f"fitted amplitude {result.params[2]:.3g} is below {min_snr} x "
            f"residual noise {noise:.3g}; no significant peak")
    return result


def spectrum_model_from_fit(result: FitResult) -> DeerSpectrumModel:
    """Package a fit_gaussian_peak solution as a DeerSpectrumModel."""
    center, width, amplitude, baseline = result.params
    return DeerSpectrumModel(center=float(center), width=abs(float(width)),
                             amplitude=float(amplitude),
                             baseline=float(baseline))


def _rabi_model(p, t):
    f, t0 = p
    return 0.5 * (1.0 + np.exp(-((t / t0) ** 2)) * np.cos(2.0 * np.pi * f * t))


def fit_rabi(trace: Trace, channel: str | None = None) -> FitResult:
    """Fit (1 + exp(-(t/T0)^2) cos(2 pi f t)) / 2 to a drive-length sweep.

    Returns params (f_mhz, t0_us).  The frequency start comes from the
    FFT peak, so anything below the Nyquist limit of the grid is found
    without a prior guess.
    """
    x, y = _resolve_channel(trace, channel, XKind.PULSE_LENGTH, "fit_rabi")
    if x.size < 6:
        raise ValueError(f"need at least 6 points, got {x.size}")
    span = float(x[-1] - x[0])
    dt = float(np.median(np.diff(x)))
    f_lo, f_hi = 0.25 / span, 0.5 / dt
    peaks = [f for f in _fft_peak_frequencies(x, y, count=2)
             if f_lo < f < f_hi] or [min(max(1.0 / span, f_lo * 1.01),
                                         f_hi * 0.99)]
    best, n_starts, n_evals = None, 0, 0
    for f0 in peaks:
        for t00 in (span / 5.0, span / 2.0):
            problem = FitProblem(
                model=_rabi_model, x=x, y=y,
                init=np.array([f0, t00]),
                bounds=((f_lo, f_hi), (2.0 * dt, 50.0 * span)),
            )
            result = nlls_fit(problem)
            n_starts += 1
            n_evals += result.n_model_evals
            if best is None or result.ss_res < best.ss_res:
                best = result
    best.param_names = RABI_PARAMS
    best.n_starts, best.n_model_evals = n_starts, n_evals
    return best


def _epr_model(p, t):
    return nv_epr_signal(TargetSpinModel(omegas=tuple(p[:-1]), t0=p[-1]), t)


def _deer_rabi_candidates(peaks_w, n_spins, w_lo, w_hi):
    """Starting coupling tuples from spectral peaks of the cosine product.

    A product of n cosines puts its spectral lines at sums and
    differences of the couplings, not at the couplings themselves, so
    derived combinations (half-sum with half-difference) are seeded next
    to the raw peak tuples.
    """
    clip = lambda w: min(max(w, w_lo * 1.0001), w_hi * 0.9999)
    peaks = [clip(w) for w in peaks_w] or [clip(math.sqrt(w_lo * w_hi))]
    candidates = []
    if n_spins >= 2:
        for hi, lo in itertools.combinations(sorted(peaks, reverse=True), 2):
            half_diff, half_sum = 0.5 * (hi - lo), 0.5 * (hi + lo)
            if half_diff <= 0:
                continue
            derived = (clip(half_diff), clip(half_sum))
            rest = tuple(peaks[:n_spins - 2])
            candidates.append(tuple(sorted(derived + rest)))
    if n_spins == 3 and len(peaks) >= 3:
        # treating one line as the full sum w1+w2+w3 inverts two of the
        # remaining lines exactly: w_a=(s0-la)/2, w_b=(s0-lb)/2, and the
        # third coupling is whatever keeps the sum, (la+lb)/2
        for i, s0 in enumerate(peaks):
            others = peaks[:i] + peaks[i + 1:]
            for la, lb in itertools.combinations(others, 2):
                triple = (0.5 * (s0 - la), 0.5 * (s0 - lb), 0.5 * (la + lb))
                if min(triple) <= 0:
                    continue
                candidates.append(tuple(sorted(clip(w) for w in triple)))
    for combo in itertools.combinations_with_replacement(peaks, n_spins):
        candidates.append(tuple(sorted(combo)))
    # spread fallback covers spectra whose peaks all sit on combinations
    spread = tuple(clip(w_lo * (w_hi / w_lo) ** ((i + 1) / (n_spins + 1)))
                   for i in range(n_spins))
    candidates.append(spread)
    seen, unique = set(), []
    for cand in candidates:
        key = tuple(round(w, 6) for w in cand)
        if key not in seen:
            seen.add(key)
            unique.append(cand)
    return unique[:40]


def _perturbation_starts(ws, delta, w_lo, w_hi):
    """Sign-pattern offsets of delta around a coupling tuple (all-zero
    pattern excluded); axis-aligned only above 3 couplings to keep the
    count linear."""
    n = len(ws)
    clip = lambda w: min(max(w, w_lo * 1.0001), w_hi * 0.9999)
    if n <= 3:
        patterns = itertools.product((-1.0, 0.0, 1.0), repeat=n)
    else:
        patterns = [tuple(s if i == j else 0.0 for j in range(n))
                    for i in range(n) for s in (-1.0, 1.0)]
    return [tuple(clip(w + delta * s) for w, s in zip(ws, pat))
            for pat in patterns if any(pat)]


def fit_deer_rabi(trace: Trace, n_spins: int,
                  channel: str | None = None) -> FitResult:
    """Fit the n-spin double-resonance model to a drive-length sweep.

    The input channel must already be normalized to the model scale
    (0.5 asymptote, values in roughly [0, 1]; see
    synth.coherence_trace).  Returns params (omega_1 .. omega_n in
    rad/us, ascending, then t0_us).  Coupling bounds follow the grid:
    at least a quarter oscillation over the record (pi / 2 span) and at
    most one oscillation per four samples (pi / 2 dt).  The upper bound
    keeps sum lines of the cosine product below the Nyquist limit, where
    an aliased coupling set would fit the samples equally well.  All
    starts run in lockstep (see _lockstep_lm) with the closed-form
    Jacobian; the first start with the lowest cost wins.  Starts stuck
    far above a converged one, typically in a short-decay basin, are
    retired early (n_retired counts them).  A retired start ends above
    ten times a converged start's cost, so it never wins: the winner is
    always a start that ran to its own end, on the path it takes when
    no start is retired.
    """
    if not 1 <= n_spins <= 5:
        raise ValueError(f"n_spins must be between 1 and 5, got {n_spins}")
    x, y = _resolve_channel(trace, channel, XKind.PULSE_LENGTH, "fit_deer_rabi")
    if x.size < n_spins + 3:
        raise ValueError("not enough points for this many spins")
    if np.ptp(y) > 10.0 or abs(float(np.mean(y)) - 0.5) > 5.0:
        raise ValueError(
            "channel does not look normalized to [0, 1]; normalize the "
            "difference signal before fitting")
    span = float(x[-1] - x[0])
    dt = float(np.median(np.diff(x)))
    w_lo, w_hi = 0.5 * np.pi / span, 0.5 * np.pi / dt
    peaks_w = [2.0 * np.pi * f for f in _fft_peak_frequencies(x, y, count=4)
               if f > 0]
    lo = np.array([w_lo] * n_spins + [dt])
    hi = np.array([w_hi] * n_spins + [10.0 * span])

    def model(p):
        return nv_epr_signal_grid(p[:, :-1], p[:, -1], x)

    def jacobian(p):
        return nv_epr_jacobian_grid(p[:, :-1], p[:, -1], x)

    # below 9 points span / 8 falls under the T0 bound dt
    t0_starts = dict.fromkeys(min(max(t00, dt), 10.0 * span)
                              for t00 in (span / 3.0, span / 8.0))
    starts = [list(omegas0) + [t00]
              for omegas0 in _deer_rabi_candidates(peaks_w, n_spins,
                                                   w_lo, w_hi)
              for t00 in t0_starts]
    runs = _lockstep_lm(model, jacobian, y, starts, lo, hi)
    win = int(np.argmin(runs.cost))
    # the spectral starts can strand the solver one resolution element
    # from the optimum; a fixed perturbation ring around the winner is
    # deterministic and cheap insurance against that
    scale = float(np.sum((y - y.mean()) ** 2))
    if runs.cost[win] > 1e-12 * max(scale, 1e-30):
        ring = [list(ws) + [runs.params[win, -1]]
                for ws in _perturbation_starts(runs.params[win, :-1],
                                               2.0 * np.pi * 0.3 / span,
                                               w_lo, w_hi)]
        runs = runs.extend(_lockstep_lm(model, jacobian, y, ring, lo, hi))
        win = int(np.argmin(runs.cost))

    p = runs.params[win]
    cost = float(runs.cost[win])
    n, k = y.size, p.size
    yhat = model(p[None])[0]
    n_evals = int(runs.n_evals.sum()) + 1
    param_errors = None
    if n > k:
        param_errors = _param_errors(jacobian(p[None])[0], cost, n - k)
        n_evals += 1
    order = np.argsort(p[:-1])
    params = np.concatenate([p[:-1][order], p[-1:]])
    if param_errors is not None:
        param_errors = np.concatenate(
            [param_errors[:-1][order], param_errors[-1:]])
    return FitResult(
        params=params, param_errors=param_errors, ss_res=cost,
        adj_r2=_adj_r2_or_nan(y, yhat, k),
        converged=bool(runs.converged[win]), n_iter=int(runs.n_iter[win]),
        param_names=tuple(f"omega_{i + 1}_rad_us"
                          for i in range(n_spins)) + ("t0_us",),
        cost_history=runs.history[win], n_starts=len(runs.cost),
        n_model_evals=n_evals,
        n_retired=int(np.count_nonzero(runs.stop == "retired")))


def target_model_from_fit(result: FitResult) -> TargetSpinModel:
    """Package a fit_deer_rabi solution as a TargetSpinModel."""
    return TargetSpinModel(omegas=tuple(result.params[:-1]),
                           t0=float(result.params[-1]))


@dataclass(frozen=True)
class SpinCountEntry:
    """One row of the model-count comparison."""

    n_spins: int
    k: int
    adj_r2: float
    fit: FitResult


@dataclass(frozen=True)
class SpinCountSelection:
    """Adjusted-R^2 comparison across spin counts 1..max_n."""

    best_n: int
    entries: dict
    no_signal: bool


def _canonicalize_unit(y):
    """Affine-map a difference signal onto the model's 0..1 scale.

    Anchors: the median (the dead tail of the record, where the envelope
    has decayed to the 0.5 asymptote) goes to 0.5, and a high quantile
    (the t ~ 0 recovery) goes to 1.  Both anchors are affine-equivariant,
    so any a*y + b with a > 0 canonicalizes to the same signal.
    """
    q50 = float(np.quantile(y, 0.5))
    q_hi = float(np.quantile(y, 0.995))
    scale = q_hi - q50
    if scale <= 0:
        raise ValueError("channel has no dynamic range above its median")
    return 0.5 + 0.5 * (y - q50) / scale


def select_spin_count(trace: Trace, max_n: int = 3,
                      channel: str | None = None,
                      k_fixed: int | None = None,
                      canonicalize: bool = True) -> SpinCountSelection:
    """Pick the spin count whose model has the best adjusted R^2.

    Fits the 1..max_n spin models and compares adjusted R^2 with
    k = n + 1 parameters each (couplings plus decay time), or a fixed k
    for all models when k_fixed is given.  A larger count must beat the
    incumbent by more than _SPIN_COUNT_MARGIN, so ties and smaller
    improvements go to the smaller count.  no_signal is set when every
    model does worse than the mean (adjusted R^2 <= 0 for all n).
    """
    if not 1 <= max_n <= 5:
        raise ValueError(f"max_n must be between 1 and 5, got {max_n}")
    x, y = _resolve_channel(trace, channel, XKind.PULSE_LENGTH,
                            "select_spin_count")
    if canonicalize:
        y = _canonicalize_unit(y)
    unit_trace = Trace(x, trace.x_kind, {"unit": y}, trace.n_avg)
    entries = {}
    best_n, best_adj = None, -np.inf
    for n in range(1, max_n + 1):
        fit = fit_deer_rabi(unit_trace, n)
        k = k_fixed if k_fixed is not None else n + 1
        yhat = _epr_model(fit.params, x)
        adj = adjusted_r_squared(y, yhat, k)
        entries[n] = SpinCountEntry(n_spins=n, k=k, adj_r2=adj, fit=fit)
        if math.isfinite(adj) and adj > best_adj + _SPIN_COUNT_MARGIN:
            best_n, best_adj = n, adj
    if best_n is None:
        best_n = 1
    no_signal = all(not math.isfinite(e.adj_r2) or e.adj_r2 <= 0
                    for e in entries.values())
    return SpinCountSelection(best_n=best_n, entries=entries,
                              no_signal=no_signal)
