"""Nonlinear least squares and the analysis recipes built on it.

The engine is one small bounded Levenberg-Marquardt, _lockstep_lm:
damped normal equations, steps clipped into box bounds, parameters held
on a bound that the descent direction points out of, acceptance only on
strict objective decrease.  It runs all the starts of a fit, or of a
whole spin-count selection, at once: the array work batched in numpy
over the starts, each start's control (acceptance, damping, stops and
retirement) in plain Python floats, since most fits run one or two
starts and a numpy call on so few costs more than its arithmetic.
A start that reaches the minimum another has converged to stops there.
Recipes give it model functions with closed-form Jacobians and
data-driven starting values (FFT peaks for oscillatory models), and
return a uniform FitResult record.
nlls_fit runs one start of the same engine on a forward-difference
Jacobian, for models without a closed form; tests/test_fitting.py keeps
a serial copy of the loop and a copy with every decision a numpy mask
as the engine's oracles, whose bits it must give.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (GRID_LIMIT, GRID_MIN_STEP, PHOTON_CHANNELS, TWO_PI,
                   NoPeakError, Trace, XKind, grid_span, grid_span_and_step)
# no fit calls nv_epr_signal: perfbench/tracer.py wraps fitting.nv_epr_signal
from .deer import (MAX_SPINS, gaussian_unit, nv_epr_jacobian_grid,
                   nv_epr_signal, nv_epr_signal_grid)

_COST_FLOOR = 1e-300
# damping schedule of _lockstep_lm (Madsen, Nielsen & Tingleff 2004):
# start, floor, stall limit and cap of the growth nu
_LAM_START, _LAM_MIN, _LAM_STALL, _NU_MAX = 1e-3, 1e-12, 1e14, 64.0
# relative convergence tolerance and default accepted-step cap
_TOL, _MAX_ITER = 1e-10, 200
# _lockstep_lm retires a live start whose cost is above _RETIRE_FACTOR
# times the best cost a start of its group has converged to and fell by at
# most _RETIRE_GAIN of itself over its last _RETIRE_ROUNDS rounds; at 1.5
# times over 2 rounds a spin-count selection first moved (1 in 240)
_RETIRE_FACTOR, _RETIRE_GAIN, _RETIRE_ROUNDS = 2.0, 0.01, 3
# it also retires a live start whose cost is above (1 + _TWIN_COST) times
# that best cost and two of whose free exchangeable parameters are equal
# within _TWIN_REL of their size
_TWIN_COST, _TWIN_REL = 1e-6, 1e-9
# and it merges a live start whose cost is above B but within (1 +
# _MERGE_TOL) B and whose distance from the start that set B, in that
# start's J^T J, is within _MERGE_TOL B: about 0.3 sigma at 98 degrees of
# freedom, so the start has arrived at that minimum
_MERGE_TOL = 1e-3
# a larger spin count must beat the incumbent's adjusted R^2 by more
_SPIN_COUNT_MARGIN = 1e-3


@dataclass
class FitProblem:
    """Box-bounded least-squares problem.

    model(params, x) -> predicted y.  bounds is one (low, high) pair per
    parameter; use -inf/inf for free parameters.  The relative
    objective-change convergence threshold is _TOL.
    """

    model: object
    x: np.ndarray
    y: np.ndarray
    init: np.ndarray
    bounds: tuple
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
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class FitResult:
    """Solution record shared by every fit in the package.

    param_errors is None when the covariance is not available (singular
    Jacobian or zero degrees of freedom); a parameter that ended on one
    of its bounds has a nan error (see _fit_result).  n_starts counts the
    LM runs behind the result and n_model_evals the parameter vectors at
    which they evaluated the model, over all runs: a closed-form Jacobian
    costs one of them, nlls_fit's forward-difference one k + 1.  n_retired
    counts the runs that _lockstep_lm ended early, stuck above twice a
    converged run's cost or above it on equal exchangeable parameters (see
    there); it does not count the runs merged at a converged run's
    minimum.  stop_reason says why the winning run ended (a
    _LockstepRuns.stop value other than "retired" or "merged"; converged
    reads it), winning_start is its index among the fit's starts and
    n_rounds the rounds it was live for.
    """

    params: np.ndarray
    param_errors: np.ndarray | None
    ss_res: float
    adj_r2: float
    n_iter: int
    param_names: tuple = ()
    n_starts: int = 1
    n_model_evals: int = 0
    n_retired: int = 0
    stop_reason: str = ""
    winning_start: int = 0
    n_rounds: int = 0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _fd_jacobian(fun, p, lo, hi, r0):
    """Forward-difference Jacobian of fun at p, where r0 = fun(p)."""
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
    """Minimize sum((model(p, x) - y)^2) over box-bounded p.

    One _lockstep_lm start from problem.init, on a forward-difference
    Jacobian (_fd_jacobian), for models that have no closed-form one;
    the package's own fits pass theirs to _lockstep_lm directly.
    n_model_evals counts every call of problem.model, k + 1 per Jacobian.
    """
    lo, hi, x = problem.lo, problem.hi, problem.x
    n_evals = 0

    def fun(q):
        nonlocal n_evals
        n_evals += 1
        return np.asarray(problem.model(q, x), dtype=float)

    def model(p):
        return np.array([fun(q) for q in p]), ()

    def jacobian(p, kept):
        return np.array([_fd_jacobian(fun, q, lo, hi, fun(q)) for q in p])

    runs = _lockstep_lm(model, jacobian, problem.y, problem.init[None], lo,
                        hi, max_iter=problem.max_iter)
    result = _fit_result(runs, model, jacobian, problem.y)
    result.n_model_evals = n_evals
    return result


def _param_errors(jac, cost, dof):
    """1-sigma errors from the covariance inv(J^T J) cost / dof.

    None when J^T J overflows or is singular, or the covariance has a
    non-finite or negative diagonal (an inverse with inf entries times a
    cost of 0 gives nan), with no numpy warning.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        jtj = jac.T @ jac
        try:
            cov = np.linalg.inv(jtj) * (cost / dof)
        except np.linalg.LinAlgError:
            return None
    diag = np.diag(cov)
    if (np.all(np.isfinite(jtj)) and np.all(np.isfinite(diag))
            and np.all(diag >= 0)):
        return np.sqrt(diag)
    return None


@dataclass
class _LockstepRuns:
    """Per-start outcome of _lockstep_lm, one entry or row per start.

    stop says why each start ended: "converged", "max_iter", "stalled",
    "retired" (stuck above a converged start) or "merged" (arrived at
    a converged start's minimum); n_rounds counts the rounds each start
    was live for, and lo and hi hold its box bounds.
    """

    params: np.ndarray
    cost: np.ndarray
    stop: np.ndarray
    n_iter: np.ndarray
    n_evals: np.ndarray
    n_rounds: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def converged(self) -> np.ndarray:
        return self.stop == "converged"

    def take(self, rows, cols) -> _LockstepRuns:
        """The runs of the starts in rows, with the params in cols."""
        cells = np.ix_(rows, cols)
        return _LockstepRuns(
            params=self.params[cells], cost=self.cost[rows],
            stop=self.stop[rows], n_iter=self.n_iter[rows],
            n_evals=self.n_evals[rows], n_rounds=self.n_rounds[rows],
            lo=self.lo[cells], hi=self.hi[cells])


def _solve_each(mats, rhs):
    """Solve mats[i] x = rhs[i] for every i.

    Returns (x, ok): ok is True when every row is solved, else a mask
    of the solved rows.  A singular matrix leaves only its own row
    unsolved (ok False, x nan), so one degenerate start cannot stop the
    others.
    """
    try:
        return np.linalg.solve(mats, rhs[..., None])[..., 0], True
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


def _rejected_lam(lam, nu, g, delta, d):
    """Each row's damping after its step delta was rejected.

    max(lambda nu, -g.delta / delta.D.delta) with D = diag(d).  As
    (A + lambda D) delta = -g, the quotient is delta.A.delta /
    delta.D.delta + lambda, so the next step is about half as long
    (More, Lecture Notes in Math. 630, 105 (1978)); a non-finite one
    (the nan delta of an unsolved row, or delta = 0) leaves lambda nu.
    The caller passes every row, so no row's bits depend on the others.
    """
    grown = lam * nu
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        quot = (-np.einsum("ij,ij->i", g, delta)
                / np.einsum("ij,ij,ij->i", delta, d, delta))
    return np.where(np.isfinite(quot) & (quot > grown), quot, grown)


def _equal_pairs(w, free):
    """Per row of w, whether two of its free entries are equal.

    Equal within _TWIN_REL of their size.  Sorted, an entry's nearest
    equal is its neighbour; an entry not free (pinned by its bounds) is
    nan and equals none.
    """
    w = np.where(free, w, np.nan)
    w.sort(axis=1)
    tail = w[:, 1:]  # sorted, so each gap tail - w[:, :-1] is >= 0 or nan
    return (tail - w[:, :-1] <= _TWIN_REL * np.abs(tail)).any(axis=1).tolist()


def _normal_equations(jac, r):
    """J^T J, g = J^T r and the damping scale d of each row of jac.

    d is the diagonal of J^T J, with 1 for a parameter the row is
    insensitive to (a diagonal entry <= 0), so damping stays effective.
    """
    jt = jac.transpose(0, 2, 1)
    jtj = jt @ jac
    diag = np.diagonal(jtj, axis1=1, axis2=2)
    return (jtj, (jt @ r[:, :, None])[:, :, 0],
            np.where(diag <= 0, 1.0, diag))


def _lockstep_lm(model, jacobian, y, starts, lo, hi, max_iter=_MAX_ITER,
                 groups=None, exchangeable=()) -> _LockstepRuns:
    """Bounded LM from every row of starts, all in lockstep.

    model(P) maps an (s, k) block of parameter rows to a pair: the
    (s, m) predictions of y and kept, a tuple of arrays with one row per
    parameter row (by-products the Jacobian can reuse, or ()).
    jacobian(P, kept) gives the (s, m, k) derivatives; the engine takes
    it only at points the model has just evaluated, and passes their own
    kept rows (P and kept themselves when every row is due, so it writes
    into neither).  lo and hi are the box bounds, (k,) for every start or
    (s, k) for each start its own; a parameter with low = high stays
    where it starts.  Each start minimizes its sum of squared residuals
    on its own: damped normal equations (J^T J + lambda diag(J^T J))
    delta = -g with g = J^T r and per-start lambda and nu, the trial
    p + delta clipped into its box, acceptance only on strict decrease,
    convergence on a gain or a flat trial within _TOL, lambda/3 after an
    accepted step and after a rejected one lambda*nu or, where it is
    larger, the damping that about halves the step (_rejected_lam), a
    stall above lambda 1e14 and at most max_iter accepted steps.  Each
    round takes the Jacobian only where the last step was accepted and
    drops finished starts.

    A round splits its work in two.  The array work is batched numpy
    over the live rows: the Jacobian where the last step was accepted,
    J^T J, g, the held mask, the damped matrix, the solve, the clipped
    trial, the model, the costs, the damping after a rejected step and
    the equal-parameter test below.  Each start's control is Python
    floats and lists: its cost, lambda, nu, step and evaluation counts,
    group and the window of the stuck rule, with one loop over the live
    rows to accept, converge, damp and stop and one for the retire and
    merge rules.  They take the comparisons and products that numpy masks
    would, so they give the same bits.  Most fits run one or two starts,
    where a numpy call costs more than its arithmetic.  When every row's
    Jacobian is due, as always in a lone start's round after an accepted
    step, J^T J, g and the damping scale are the fresh arrays, not
    copies into the old ones.
    tests/test_fitting.py keeps the engine with every decision a mask
    and holds every output to its bits.

    Bound rule: a parameter that sits on a bound and whose descent
    direction -g points out of the box is held fixed for the step.  Its
    row and column of the damped matrix become those of the identity
    and its gradient entry 0, so the step moves the free parameters
    only (the free-variable subproblem of Bertsekas, SIAM J. Control
    Optim. 20, 221 (1982)).  Without it the clipped steps of a pinned
    parameter creep towards max_iter.

    Three rules couple the starts of a group.  groups gives each start a
    group id 0, 1, ... (default: all in group 0), and B is the lowest
    cost any start of the group has converged to so far.  A live start
    is retired when its cost is above _RETIRE_FACTOR * B and fell by at
    most _RETIRE_GAIN of itself over its last _RETIRE_ROUNDS rounds: it
    is stuck in a losing basin, or creeping out of one too slowly to
    matter.  It is also retired when its cost is
    above (1 + _TWIN_COST) * B and two of its exchangeable parameters
    (column indices; default none) are equal within _TWIN_REL, both free
    (low < high): the model is symmetric in them, so their Jacobian
    columns are equal too and the step keeps them equal up to rounding;
    the start is caught on the saddle where the swap maps the model to
    itself.  A start that is not retired is merged when it has arrived
    at the minimum that set B: the engine keeps the parameters p* and
    the J^T J A* (taken at the start's last Jacobian) of the converged
    start that last lowered B, and a live start with B < c <= (1 +
    _MERGE_TOL) B and (p - p*).A*.(p - p*) <= _MERGE_TOL B ends there
    (the critical distance of multi-level single linkage, Rinnooy Kan &
    Timmer, Math. Program. 39, 57 (1987)).  A start converging to
    another minimum at the same cost, such as the one with exchangeable
    parameters swapped, is far from p* in that metric and runs on.
    Under each rule the start's cost is above a final cost of its group,
    so it is never the group's lowest; that is always the cost of a
    start that ran to its own end.  Rows do not interact otherwise, so
    ending one leaves every other row's path unchanged, and each group
    comes out as it does alone.  A lone start never meets a rule, since
    B exists only once it has converged.  A retired start might have
    left its basin or saddle later, and a merged one might have ended
    below B by the convergence tolerance; tests/test_fitting.py holds
    spin-count selections to their results without the rules.
    """
    p = np.array(starts, dtype=float)
    lo, hi = (np.array(np.broadcast_to(b, p.shape), dtype=float)
              for b in (lo, hi))
    if np.any(p < lo) or np.any(p > hi):
        raise ValueError("starts must lie within bounds")
    n_start, k = p.shape
    twins = np.asarray(exchangeable, dtype=int)
    yhat, kept = model(p)
    r = yhat - y
    runs = _LockstepRuns(params=p.copy(), cost=np.zeros(n_start),
                         stop=np.full(n_start, "", dtype="<U9"),
                         n_iter=np.zeros(n_start, dtype=int),
                         n_evals=np.zeros(n_start, dtype=int),
                         n_rounds=np.zeros(n_start, dtype=int), lo=lo, hi=hi)
    eye = np.eye(k)
    # one entry per unfinished start, in step with the rows of the arrays;
    # live[row] is its index in runs
    live = list(range(n_start))
    cost = np.einsum("ij,ij->i", r, r).tolist()
    lam, nu = [_LAM_START] * n_start, [2.0] * n_start
    n_iter = [0] * n_start
    evals = [1] * n_start  # model evaluations, p's included
    stale = [True] * n_start  # Jacobian due at p
    group = ([0] * n_start if groups is None
             else np.asarray(groups, dtype=int).tolist())
    # past[row][t % _RETIRE_ROUNDS] holds the cost after round t; it is
    # read back, _RETIRE_ROUNDS rounds later, just before it is overwritten
    past = [[c] * _RETIRE_ROUNDS for c in cost]
    # B of each group: the lowest cost a start of it has converged to
    best = [math.inf] * (max(group) + 1)
    # each group's (p, J^T J) of the start that set its B
    star = [None] * len(best)
    n_round = 0

    while live:
        n = len(live)
        n_stale = stale.count(True)
        if n_stale == n:
            # every row is stale (always so in the first round): a, g and
            # d are the fresh arrays, bound and not copied
            a, g, d = _normal_equations(jacobian(p, kept), r)
        elif n_stale:
            # kept is that of the model call that evaluated p[at]
            at = np.array(stale)
            a[at], g[at], d[at] = _normal_equations(
                jacobian(p[at], tuple(v[at] for v in kept)), r[at])
        lam_rows = np.array(lam)
        held = np.where(g > 0, p <= lo, (g < 0) & (p >= hi))
        damped = a + (lam_rows[:, None] * d)[:, :, None] * eye
        if np.count_nonzero(held):
            free = ~held
            delta, solved = _solve_each(
                np.where(free[:, :, None] & free[:, None, :], damped, eye),
                np.where(held, 0.0, -g))
        else:
            delta, solved = _solve_each(damped, -g)
        # an unsolved row has a nan trial and cost: rejected below
        trial = np.minimum(np.maximum(p + delta, lo), hi)
        yhat, kept = model(trial)
        r_t = yhat - y
        cost_t = np.einsum("ij,ij->i", r_t, r_t).tolist()
        solved = [True] * n if solved is True else solved.tolist()
        better = [ct < c for ct, c in zip(cost_t, cost)]
        if all(better):  # every row accepted: rebind, no masks
            p, r = trial, r_t
        else:
            rejected = _rejected_lam(lam_rows, np.array(nu), g, delta,
                                     d).tolist()
            if any(better):
                moved = np.array(better)
                p[moved], r[moved] = trial[moved], r_t[moved]
        n_round += 1
        slot = n_round % _RETIRE_ROUNDS
        stop, fell = [""] * n, [0.0] * n
        for i, (c, ct) in enumerate(zip(cost, cost_t)):
            # converged: a gain, or a flat trial (at an optimum or pinned
            # to a bound), within _TOL of the lower of the two costs; never
            # on a nan
            conv = abs(ct - c) <= _TOL * max(min(c, ct), _COST_FLOOR)
            evals[i] += stale[i] + solved[i]
            if better[i]:
                cost[i] = c = ct
                lam[i] = max(lam[i] / 3.0, _LAM_MIN)
                nu[i] = 2.0
                n_iter[i] += 1
            else:
                lam[i] = rejected[i]
                nu[i] = min(2.0 * nu[i], _NU_MAX)
            if conv:
                stop[i] = "converged"
                if c < best[group[i]]:
                    best[group[i]] = c
                    star[group[i]] = p[i].copy(), a[i].copy()
            elif n_iter[i] >= max_iter:
                stop[i] = "max_iter"
            elif lam[i] > _LAM_STALL:  # no acceptable step at heavy damping
                stop[i] = "stalled"
            window = past[i]
            fell[i] = window[slot] - c
            window[slot] = c
        stale = better
        if min(best) < math.inf:
            twin = (_equal_pairs(p[:, twins], lo[:, twins] < hi[:, twins])
                    if twins.size else [False] * n)
            stuck = n_round >= _RETIRE_ROUNDS
            near = []
            for i, c in enumerate(cost):
                if stop[i]:
                    continue
                b = best[group[i]]
                if ((stuck and c > _RETIRE_FACTOR * b
                     and fell[i] <= _RETIRE_GAIN * c)
                        or (twin[i] and c > (1.0 + _TWIN_COST) * b)):
                    stop[i] = "retired"
                elif b < c <= (1.0 + _MERGE_TOL) * b:
                    near.append(i)
            if near:
                at_star, a_star = zip(*(star[group[i]] for i in near))
                step = p[near] - at_star
                for i, dist in zip(near, np.einsum(
                        "ij,ijk,ik->i", step, a_star, step).tolist()):
                    if dist <= _MERGE_TOL * best[group[i]]:
                        stop[i] = "merged"
        if any(stop):
            for i in range(n):
                if stop[i]:
                    at = live[i]
                    runs.params[at], runs.cost[at] = p[i], cost[i]
                    runs.stop[at], runs.n_rounds[at] = stop[i], n_round
                    runs.n_iter[at], runs.n_evals[at] = n_iter[i], evals[i]
            keep = [not s for s in stop]
            if not any(keep):
                break
            rows = np.array(keep)
            p, r, a, g, d, lo, hi = (
                v[rows] for v in (p, r, a, g, d, lo, hi))
            kept = tuple(v[rows] for v in kept)
            live, cost, lam, nu, n_iter, evals, stale, group, past = (
                list(itertools.compress(v, keep)) for v in (
                    live, cost, lam, nu, n_iter, evals, stale, group, past))

    return runs


def _fit_result(runs: _LockstepRuns, model, jacobian, y,
                param_names=()) -> FitResult:
    """FitResult of the first lowest-cost start of runs.

    model and jacobian are those the runs used (see _lockstep_lm); the
    fitted curve gives the adjusted R^2 and the Jacobian at the winner
    the 1-sigma errors.  A parameter on one of its bounds, where the
    minimum need not be, gets a nan error and the others those of the
    covariance of their own Jacobian columns.
    """
    win = int(np.argmin(runs.cost))
    p, cost = runs.params[win], float(runs.cost[win])
    n, k = y.size, p.size
    yhat, kept = model(p[None])
    n_evals = int(runs.n_evals.sum()) + 1
    param_errors = None
    if n > k:
        free = (p > runs.lo[win]) & (p < runs.hi[win])
        errors = _param_errors(jacobian(p[None], kept)[0][:, free], cost,
                               n - k)
        n_evals += 1
        if errors is not None:
            param_errors = np.full(k, np.nan)
            param_errors[free] = errors
    return FitResult(
        params=p.copy(), param_errors=param_errors, ss_res=cost,
        adj_r2=_adj_r2_or_nan(y, yhat[0], k), n_iter=int(runs.n_iter[win]),
        param_names=tuple(param_names), n_starts=len(runs.cost),
        n_model_evals=n_evals, winning_start=win,
        n_retired=int(np.count_nonzero(runs.stop == "retired")),
        stop_reason=str(runs.stop[win]), n_rounds=int(runs.n_rounds[win]))


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


def _resolve_channel(trace: Trace, channel, kind: XKind, what: str,
                     normalized: bool = False):
    """x and the channel a fit reads; normalized rejects photon counts.

    A channel past +-GRID_LIMIT is refused: its residuals' squares overflow.
    """
    if trace.x_kind is not kind:
        raise ValueError(
            f"{what} expects x_kind {kind.value!r}, trace has "
            f"{trace.x_kind.value!r}")
    if channel is None:
        if len(trace.channels) != 1:
            raise ValueError(
                f"trace has channels {sorted(trace.channels)}; pass channel=")
        channel = next(iter(trace.channels))
    if normalized and channel in PHOTON_CHANNELS:
        raise ValueError(
            f"{what} fits a normalized signal; channel {channel!r} holds "
            f"photon counts, so normalize it against REF1/REF2 first")
    y = trace.channel(channel)
    if float(np.max(np.abs(y))) > GRID_LIMIT:
        raise ValueError(f"channel {channel!r} reaches past +-{GRID_LIMIT:g}, "
                         f"where the fit residuals overflow")
    return trace.x, y


def _fft_peak_frequencies(x, y, count=4):
    """Frequencies (cycles per x unit) of the largest spectral peaks.

    The transform is zero padded 8x so line positions are read off a
    grid much finer than 1/span, and reported peaks are kept at least
    half a resolution element apart so one broad lobe yields one entry.
    Every frequency is positive on a grid that core.grid_span accepts.
    """
    dt = float(np.mean(np.diff(x)))
    yc = y - y.mean()
    n_fft = 8 * y.size
    mag = np.abs(np.fft.rfft(yc, n=n_fft))
    freqs = np.fft.rfftfreq(n_fft, dt)
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
        if all(abs(f - g) >= min_sep for g in chosen):
            chosen.append(f)
        if len(chosen) == count:
            break
    return chosen


GAUSSIAN_PARAMS = ("center_mhz", "width_mhz", "amplitude", "baseline")
RABI_PARAMS = ("f_mhz", "t0_us")


def line_noise(ss_res: float, y) -> float:
    """sqrt(ss_res / (n - 4)) of a line fit to y, floored at eps max|y|.

    The floor is the float resolution of the data: on a noiseless trace
    the residuals are rounding alone.
    """
    return max(math.sqrt(ss_res / (y.size - 4)),
               np.finfo(float).eps * float(np.max(np.abs(y))))


def fit_gaussian_peak(trace: Trace, channel: str | None = None,
                      min_snr: float = 2.0,
                      width_bounds: tuple | None = None) -> FitResult:
    """Fit baseline + amplitude exp(-(f - center)^2 / 2 width^2).

    One _lockstep_lm start on gaussian_line with its closed-form
    gradient.  The model keeps gaussian_unit's unit line e, the
    Jacobian's amplitude column, and offset x - center, and the Jacobian
    reads the other columns off them, so the exponent has one body and
    the offset one subtraction.  Starting values come from the data
    (edge median baseline, extremal residual peak, half-maximum width,
    kept inside width_bounds even where the band is narrower than the
    start's 0.1% margins).  width_bounds
    defaults to (max(0.2 dx, GRID_MIN_STEP span), 2 span), dx the
    smallest step.  On a trace without a line the width often ends on a
    bound; the engine's bound rule holds it there while the other
    parameters converge.  Raises NoPeakError when the fitted
    amplitude is below min_snr times the residual noise (line_noise, as
    snr_estimate takes it); pass min_snr=0 to always get the fit back.
    """
    x, y = _resolve_channel(trace, channel, XKind.FREQUENCY, "fit_gaussian_peak")
    n = x.size
    if n < 8:
        raise ValueError(f"need at least 8 points to fit a peak, got {n}")
    edge = max(2, n // 10)
    # the median of the 2 edge samples as np.median takes it: the mean
    # of the middle two, whose sum numpy starts at 0.0, so that it is
    # never -0.0 whichever of 0.0 and -0.0 the sort puts in the middle
    low, high = np.sort(np.concatenate([y[:edge], y[-edge:]]))[
        edge - 1:edge + 1].tolist()
    baseline0 = (0.0 + low + high) / 2.0
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
    span = grid_span(x)
    if width_bounds is None:
        # on a grid of tiny steps, a floor of GRID_MIN_STEP of the span
        # keeps the width's square a normal float and (x - center)^2
        # over it at most 1e24
        width_bounds = (max(0.2 * dx, GRID_MIN_STEP * span), 2.0 * span)
    w_lo, w_hi = float(width_bounds[0]), float(width_bounds[1])
    if not 0 < w_lo < w_hi:
        raise ValueError(f"width_bounds must satisfy 0 < low < high, "
                         f"got {width_bounds!r}")
    width0 = min(max((x[right] - x[left]) / 2.355, dx, w_lo * 1.001),
                 w_hi * 0.999)
    # the 0.1% margins cross in a band narrower than them (w_hi < w_lo /
    # 0.999), so the start must be clamped into the band itself
    width0 = min(max(width0, w_lo), w_hi)
    if amp0 == 0.0:
        amp0 = float(np.ptp(y)) or 1.0

    def model(p):
        center, width, amplitude, baseline = p.T[:, :, None]
        e, u = gaussian_unit(x, center, width)
        return baseline + amplitude * e, (e, u)

    def jacobian(p, kept):
        width, amplitude = p.T[1:3, :, None]
        e, u = kept
        jac = np.empty(e.shape + (4,))
        jac[:, :, 0] = d_center = amplitude * e * u / width ** 2
        jac[:, :, 1] = d_center * u / width
        jac[:, :, 2] = e
        jac[:, :, 3] = 1.0
        return jac

    lo = np.array([x[0], w_lo, -np.inf, -np.inf])
    hi = np.array([x[-1], w_hi, np.inf, np.inf])
    runs = _lockstep_lm(model, jacobian, y,
                        [[center0, width0, amp0, baseline0]], lo, hi)
    result = _fit_result(runs, model, jacobian, y, GAUSSIAN_PARAMS)
    noise = line_noise(result.ss_res, y)
    if min_snr > 0 and abs(result.params[2]) < min_snr * noise:
        raise NoPeakError(
            f"fitted amplitude {result.params[2]:.3g} is below {min_snr} x "
            f"residual noise {noise:.3g}; no significant peak")
    return result


def fit_rabi(trace: Trace, channel: str | None = None) -> FitResult:
    """Fit (1 + exp(-(t/T0)^2) cos(2 pi f t)) / 2 to a drive-length sweep.

    Returns params (f_mhz, t0_us).  The model is the one-spin
    double-resonance signal at omega = 2 pi f, of a normalized channel
    (SIG1n); photon counts (SIG1, SIG2, REF1, REF2) raise ValueError.
    The frequency starts come from the FFT peaks, so anything below the
    Nyquist limit of the grid is found without a prior guess.  Each
    starts at T0 = span / 3, raised to the T0 bound 2 dt; all (at most
    2) run in one _lockstep_lm call on the closed-form Jacobian, which
    reuses the model's phase, cosine and envelope, and the first with the
    lowest cost wins.  A start stuck above twice a converged one's cost
    is retired, as the second start often is on a short-T0 detour, and
    one that arrives at a converged one's minimum, as it mostly does
    otherwise, is merged there (see _lockstep_lm).
    """
    x, y = _resolve_channel(trace, channel, XKind.PULSE_LENGTH, "fit_rabi",
                            normalized=True)
    if x.size < 6:
        raise ValueError(f"need at least 6 points, got {x.size}")
    span, dt = grid_span_and_step(x)
    f_lo, f_hi = 0.25 / span, 0.5 / dt
    peaks = [f for f in _fft_peak_frequencies(x, y, count=2)
             if f_lo < f < f_hi] or [min(max(1.0 / span, f_lo * 1.01),
                                         f_hi * 0.99)]

    def model(p):
        return nv_epr_signal_grid(TWO_PI * p[:, :1], p[:, 1], x, keep=True)

    def jacobian(p, kept):
        jac = nv_epr_jacobian_grid(p[:, 1], x, kept)
        jac[:, :, 0] *= TWO_PI
        return jac

    t00 = max(span / 3.0, 2.0 * dt)
    runs = _lockstep_lm(model, jacobian, y, [[f0, t00] for f0 in peaks],
                        np.array([f_lo, 2.0 * dt]),
                        np.array([f_hi, 50.0 * span]))
    return _fit_result(runs, model, jacobian, y, RABI_PARAMS)


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
    # near-equal tuples share a key, in rad per span so that the
    # resolution is the same on any grid: w_lo is a quarter turn per span
    span = 0.5 * math.pi / w_lo
    seen, unique = set(), []
    for cand in candidates:
        key = tuple(round(w * span, 6) for w in cand)
        if key not in seen:
            seen.add(key)
            unique.append(cand)
    return unique[:40]


def _deer_rabi_fits(x, y, counts) -> dict:
    """{n: the n-spin fit of y} for every n in counts, in one engine call.

    fit_deer_rabi's recipe (see there) for several spin counts at once.
    A start of a count n below n_max = max(counts) carries n_max - n pad
    couplings after its own, each pinned at 0 by bounds [0, 0]: cos(0 t)
    is 1, so its model and its other Jacobian columns are those of the
    n-coupling start, and the pad column, 0, never moves the pad.  The
    couplings are the engine's exchangeable columns; a pad is not free,
    so two pads at 0 never count as equal couplings.  Each count is one
    _lockstep_lm group, so it keeps its own retire and merge rules, and its
    FitResult is built from its own starts without the pads.
    """
    n_max = max(counts)
    if x.size < n_max + 3:
        raise ValueError("not enough points for this many spins")
    if np.ptp(y) > 10.0 or abs(float(np.mean(y)) - 0.5) > 5.0:
        raise ValueError(
            "channel does not look normalized to [0, 1]; normalize the "
            "difference signal before fitting")
    span, dt = grid_span_and_step(x)
    w_lo, w_hi = 0.5 * np.pi / span, 0.5 * np.pi / dt
    peaks_w = [2.0 * np.pi * f for f in _fft_peak_frequencies(x, y, count=4)]
    t00 = max(span / 3.0, dt)
    starts, lo, hi, groups = [], [], [], []
    for gid, n in enumerate(counts):
        pad = [0.0] * (n_max - n)
        for omegas0 in _deer_rabi_candidates(peaks_w, n, w_lo, w_hi):
            starts.append([*omegas0, *pad, t00])
            lo.append([w_lo] * n + pad + [dt])
            hi.append([w_hi] * n + pad + [10.0 * span])
            groups.append(gid)
    groups = np.array(groups)

    def model(p):
        return nv_epr_signal_grid(p[:, :-1], p[:, -1], x, keep=True)

    def jacobian(p, kept):
        return nv_epr_jacobian_grid(p[:, -1], x, kept)

    runs = _lockstep_lm(model, jacobian, y, starts, lo, hi, groups=groups,
                        exchangeable=range(n_max))
    fits = {}
    for gid, n in enumerate(counts):
        rows = np.flatnonzero(groups == gid)
        fit = _fit_result(runs.take(rows, [*range(n), n_max]), model,
                          jacobian, y,
                          tuple(f"omega_{i + 1}_rad_us" for i in range(n))
                          + ("t0_us",))
        order = np.append(np.argsort(fit.params[:-1]), n)
        fit.params = fit.params[order]
        if fit.param_errors is not None:
            fit.param_errors = fit.param_errors[order]
        fits[n] = fit
    return fits


def fit_deer_rabi(trace: Trace, n_spins: int,
                  channel: str | None = None) -> FitResult:
    """Fit the n-spin double-resonance model to a drive-length sweep.

    The input channel must already be normalized to the model scale
    (0.5 asymptote, values in roughly [0, 1]; see
    synth.coherence_trace); a photon-count channel (SIG1, SIG2, REF1 or
    REF2) raises ValueError.  Returns params (omega_1 .. omega_n in
    rad/us, ascending, then t0_us).  Coupling bounds follow the grid:
    at least a quarter oscillation over the record (pi / 2 span) and at
    most one oscillation per four samples (pi / 2 dt).  The upper bound
    keeps sum lines of the cosine product below the Nyquist limit, where
    an aliased coupling set would fit the samples equally well.  Each
    tuple of _deer_rabi_candidates is one start, at T0 = span / 3 raised
    to the bound dt.  All starts run in lockstep (see _lockstep_lm) with
    the closed-form Jacobian, which reuses the model's phases, cosines
    and envelope; the first start with the lowest cost wins.  Two kinds of
    start are retired early (n_retired counts them; see _lockstep_lm):
    those stuck above twice a converged one's cost, typically in or on
    the way out of a short-decay basin, and those above it with two
    equal couplings.  The model is symmetric in the couplings, so a
    start with equal ones keeps them equal, creeping along that line;
    the repeated-peak tuples of _deer_rabi_candidates start on it, and
    others fall onto it with both couplings at the lower bound.  A
    retired start ends above a converged start's cost, so it never wins:
    the winner is always a start that ran to its own end, on the path it
    takes when no start is retired.  A start that arrives at the minimum
    of a converged one, at a cost within _MERGE_TOL of it, is merged
    there (see _lockstep_lm): it ends without being counted in n_retired.
    """
    if not 1 <= n_spins <= MAX_SPINS:
        raise ValueError(
            f"n_spins must be between 1 and {MAX_SPINS}, got {n_spins}")
    x, y = _resolve_channel(trace, channel, XKind.PULSE_LENGTH, "fit_deer_rabi",
                            normalized=True)
    return _deer_rabi_fits(x, y, (n_spins,))[n_spins]


@dataclass(frozen=True)
class SpinCountEntry:
    """One row of the model-count comparison: the n-spin fit."""

    n_spins: int
    fit: FitResult


@dataclass(frozen=True)
class SpinCountSelection:
    """Adjusted-R^2 comparison across spin counts 1..max_n."""

    best_n: int
    entries: dict  # n -> SpinCountEntry

    @property
    def no_signal(self) -> bool:
        """Every model does worse than the mean (adjusted R^2 <= 0)."""
        return all(e.fit.adj_r2 <= 0 for e in self.entries.values())


def _canonicalize_unit(y):
    """Affine-map a difference signal onto the model's 0..1 scale.

    Anchors: the median (the dead tail of the record, where the envelope
    has decayed to the 0.5 asymptote) goes to 0.5, and a high quantile
    (the t ~ 0 recovery) goes to 1.  Both anchors are affine-equivariant,
    so any a*y + b with a > 0 canonicalizes to the same signal.
    """
    q50, q_hi = np.quantile(y, [0.5, 0.995]).tolist()
    scale = q_hi - q50
    if scale <= 0:
        raise ValueError("channel has no dynamic range above its median")
    return 0.5 + 0.5 * (y - q50) / scale


def select_spin_count(trace: Trace, max_n: int = 3,
                      canonicalize: bool = True) -> SpinCountSelection:
    """Pick the spin count whose model has the best adjusted R^2.

    The trace's one channel, normalized as for fit_deer_rabi (photon
    counts raise ValueError), is first re-anchored onto the model's 0..1
    scale (_canonicalize_unit: median to 0.5, 99.5% quantile to 1), so
    any a*y + b with a > 0 selects alike.  canonicalize=False fits the
    channel as given, for one already on that scale (coherence_trace):
    re-anchoring stretches pure noise to full scale, where a fit can
    find "signal" in it.  The n-spin fits, n = 1..max_n, are those of
    fit_deer_rabi, all run in one _lockstep_lm call (_deer_rabi_fits):
    each count is a group of its own, so at max_n = 2 every fit has the
    bits of its fit_deer_rabi.  Each reports its adjusted R^2 with k its
    parameter count (couplings plus decay time); a larger count must
    beat the incumbent by more than _SPIN_COUNT_MARGIN, so ties and
    smaller gains go to the smaller count.
    """
    if not 1 <= max_n <= MAX_SPINS:
        raise ValueError(
            f"max_n must be between 1 and {MAX_SPINS}, got {max_n}")
    x, y = _resolve_channel(trace, None, XKind.PULSE_LENGTH,
                            "select_spin_count", normalized=True)
    if canonicalize:
        y = _canonicalize_unit(y)
    entries = {}
    best_n = 1
    for n, fit in _deer_rabi_fits(x, y, range(1, max_n + 1)).items():
        if math.isnan(fit.adj_r2):  # the fit's adjusted_r_squared raised
            raise ValueError("target is constant; R^2 is undefined")
        entries[n] = SpinCountEntry(n_spins=n, fit=fit)
        if fit.adj_r2 > entries[best_n].fit.adj_r2 + _SPIN_COUNT_MARGIN:
            best_n = n
    return SpinCountSelection(best_n=best_n, entries=entries)
