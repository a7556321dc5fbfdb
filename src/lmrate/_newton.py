"""Every Newton loop in the package: ``bracketed_newton``, the safeguarded
scalar Newton behind the multiplier root and the GMI tilt, and ``descend``,
damped Newton on the dual behind the Newton oracle and the Newton finish
of the solver's root runs.

The dual variables (alpha, beta, lam) parameterize the coupling

    q_ij = exp(-alpha_i - beta_j - lam*d_ij - 1)

and the (convex, to-be-minimized) dual objective is

    g = sum_ij q_ij + <alpha, p_x> + <beta, p_y> + lam * t.

Shifting (alpha, beta) by (+s, -s) leaves q unchanged; this gauge
direction (1_M, -1_N, 0) is the only flat direction of g for metrics
that are not additively separable.  The Hessian is an arrowhead
whose blocks are q and its metric-weighted sums, so one pass over the
coupling at a point gives its gradient, its dual value and rate, and the
Hessian the next Newton step needs: every trial point of a line search is
swept once, and the accepted one is not swept again.  Given the metric's
axis tables (the solver's Newton finish, under the kernels' guard) that
pass is _kernels' one table reduction (_table_sums, with three row sums
and two node sums), and the step takes its products with the coupling
from the tables too.  When the inputs' levels on each axis form a product
(every built-in square alphabet under a diagonal h_hat) both read the
U + V level rows of one exp of _kernels._level_tables, the step through
_kernels.LevelCoupling with no M x N array; otherwise the sums read every
input's own rows, and the step the one M x N array factored_coupling
builds, its Schur factor.  Without them (the Newton oracle) the pass
exponentiates the dense coupling, so the oracle stays an independent
cross-check of the factored path.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import BracketError, EvaluationError, NumericalFailureError
from .problem import Coupling, evaluate

# The first trial of a line search moves no log q_ij up by more than this.
# Longer full steps, common far from the optimum, land where the dual value
# is far worse or where exp overflows, and are halved back one sweep at a
# time: on the six oracle-cert cells (qpsk, qam16 at grids 10-20), from the
# product point at lam = 1 on the raw metric, this cap takes the trials from
# 466 to 95 for 94 steps (10 to 12 does best).  The oracle's own start, on
# the centred metric, is close enough that it moves them only 42 -> 40.
STEP_EXP_CAP = 10.0

# A full step whose predicted decrease -slope is below this fraction of
# max(|g|, 1) asks the Armijo test to compare rounding errors of g; it is
# accepted when it lowers the gauge-projected gradient instead.
FLAT_SLOPE_RTOL = 6.4e-14

# The damping delta of a Newton step, relative to the mean entry of the
# Hessian's marginal diagonal: the coupling's mass over M + N, which a
# shift or a scale of the metric leaves alone.  The metric border w grows
# with the square of the metric and stays out: with it (at 1e-12), a shift
# of 2000 took the solver's Newton finish 497 steps on qpsk at grid 10, and
# 3 without.  From 1e-12 to 1e-11 the benchmark cells' rows and rates hold;
# 5e-12 keeps the factored step within 0.41 of its test bound against the
# dense one under OpenBLAS's SkylakeX kernel and 0.21 under its Haswell
# kernel (3e-12: 0.36 and 0.22, 1e-12: 1.04 and 0.97) and every shift up
# to 2000 at 3 steps (1e-11: 8).
NEWTON_DAMPING = 5e-12

# The Newton step solves its Schur system by conjugate gradients
# (_schur_pcg) on a LevelCoupling from PCG_MIN_INPUTS inputs, and on an
# M x N array where the direct solve's multiply-adds, M^2 N / 2 for the
# Gram matrix and M^3 / 3 for the LU, are at least PCG_ARRAY_ITERATIONS
# times one CG iteration's 2 M N.  CG takes 6-7 iterations at 0 dB and
# 10-14 at 5-10 dB.  One step at the hand-off point, direct -> CG (best of
# 5, OMP_NUM_THREADS=1, 2-core Xeon): on the levels, qam64 at grid 50
# 0.40 -> 0.75 ms, 121 points 0.40 -> 0.45, 144 points at 5 dB
# 0.52 -> 0.73, 196 points 0.80 -> 0.48, qam256 1.8-2.1 -> 0.76-0.87 at
# grids 50 and 100 (1.37 -> 1.30 at 5 dB), 1024 points at grid 20
# 52 -> 0.87 ms; on arrays at 10 dB, 256 x 4440 12.8 -> 17.5 ms,
# 256 x 2158 7.9 -> 9.4, 256 x 1092 4.4 -> 3.8, 576 x 696 10.9 -> 5.1 and
# 1024 x 700 62 -> 11.  The array rule is set where CG wins at 10 dB; at
# 0 dB, with half the iterations, CG wins on arrays from M = 121
# (0.36 -> 0.22 ms at 121 x 100), so there the rule errs towards the
# direct solve.  No benchmark workload holds an array step past the rule:
# it serves large inputs that are not a level product (a rotated h_hat, a
# custom alphabet) and steps past the kernels' guard, such as qam256 at
# grid 50 and 10 dB.
PCG_MIN_INPUTS = 200
PCG_ARRAY_ITERATIONS = 70
PCG_RTOL = 1e-10

# One bracketed_newton search looks on [0, SCALAR_CAP]: the multiplier root
# and the GMI tilt are one dual variable, the GMI's shifts being pinned at 0.
SCALAR_CAP = 1e6
SCALAR_MAX_EVALS = 200        # evaluations of one bracketed_newton search


@dataclass
class DualPoint:
    alpha: np.ndarray
    beta: np.ndarray
    lam: float

    def __post_init__(self):
        self.alpha = np.ascontiguousarray(self.alpha, dtype=np.float64)
        self.beta = np.ascontiguousarray(self.beta, dtype=np.float64)
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam!r}")
        self.lam = float(self.lam)


def from_coupling(q: Coupling) -> DualPoint:
    """Bijection phi = exp(-alpha - 1/2), psi = exp(-beta - 1/2)."""
    return DualPoint(alpha=-q.log_phi - 0.5, beta=-q.log_psi - 0.5, lam=q.lam)


def coupling_from_dual(dp: DualPoint, d: np.ndarray) -> Coupling:
    return Coupling(log_phi=-dp.alpha - 0.5, log_psi=-dp.beta - 0.5, lam=dp.lam, d=d)


class DualHessian(NamedTuple):
    """Arrowhead dual Hessian in (alpha, beta, lam) order.  The coupling q
    fills the off-diagonal block and its marginals r = q 1 and c = q^T 1 the
    diagonal; u = (d q) 1, v = (d q)^T 1 and w = sum d^2 q border it.  On
    the factored path r, u and w come from _kernels._table_sums' row sums
    of d^0, d^1, d^2, and c, v from its node sums of d^0, d^1, all through
    the inputs' levels where they form a product.
    ``q_scaled(s)`` returns Q diag(s) as the three products the Newton step
    takes of it (gram, dot, tdot): a _kernels.ScaledCoupling over an M x N
    array (the dense coupling times s, or factored_coupling's product of
    the axis tables), or a _kernels.LevelCoupling, which takes them through
    the inputs' levels from the table exps of the sums and builds no M x N
    array.  dense() is the whole Hessian as an array, for checks on small
    instances."""

    r: np.ndarray
    c: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: float
    q_scaled: Callable

    def dense(self) -> np.ndarray:
        r, c, u, v, w, q_scaled = self
        q = q_scaled(np.ones(c.size)).tdot(np.eye(r.size))
        return np.block([[np.diag(r), q, u[:, None]],
                         [q.T, np.diag(c), v[:, None]],
                         [u[None, :], v[None, :], np.array([[w]])]])


def dual_hessian(dp: DualPoint, p, axes=None) -> DualHessian:
    """The Hessian at a dual point, as its arrowhead blocks.  With ``axes``
    (p's GridAxes), under the kernels' guard at dp.lam, its sums come from
    the axis tables and Q only from q_scaled; otherwise from the dense
    coupling, refusing couplings above problem.DENSE_CAP entries."""
    lphi, lpsi = -dp.alpha - 0.5, -dp.beta - 0.5
    if _kernels._factored(axes, dp.lam, p.d):
        tables = _kernels._level_tables(axes, dp.lam)
        (r, u, w), (c, v) = _kernels._coupling_sums(lphi, lpsi, tables, axes, 3, 2)
        return DualHessian(r, c, u, v, float(w.sum()),
                           partial(_kernels.scaled_coupling, lphi, lpsi, dp.lam, axes, tables))
    q = coupling_from_dual(dp, p.d).dense()
    dq = p.d * q
    return DualHessian(q.sum(axis=1), q.sum(axis=0), dq.sum(axis=1), dq.sum(axis=0),
                       float(_kernels.vdot(p.d, dq)),
                       lambda s: _kernels.ScaledCoupling(q * s))


def _sweep(dp: DualPoint, p, it=0, hessian=True, axes=None):
    """One pass over the coupling at a dual point: the full gradient
    (d/dalpha, d/dbeta, d/dlam) as one vector, the point's TraceRow, and the
    point's DualHessian (dual_hessian with ``axes``), whose sums give the
    marginals and metric moments.  With hessian=False the sums come from a
    streamed coupling_stats sweep with no size cap, and the Hessian is None.
    The pass is its own overflow guard: raises EvaluationError when an exp,
    a sum or the evaluation overflows."""
    lphi, lpsi = -dp.alpha - 0.5, -dp.beta - 0.5
    h = None
    try:
        with np.errstate(over="raise", invalid="raise"):
            if hessian:
                h = dual_hessian(dp, p, axes)
                stats = (h.r, h.c, float(h.u.sum()), h.w)
            else:
                stats = _kernels.coupling_stats(lphi, lpsi, dp.lam, p.d)
            row = evaluate(lphi, lpsi, dp.lam, p, it, stats)
    except FloatingPointError:
        raise EvaluationError("dual point too far out: its coupling sums overflow") from None
    grad = np.concatenate([p.p_x - stats[0], p.p_y - stats[1], [p.t - stats[2]]])
    return grad, row, h


def gauge_vector(m: int, n: int) -> np.ndarray:
    k = np.concatenate([np.ones(m), -np.ones(n), [0.0]])
    return k / math.sqrt(m + n)


def _project(grad, k_hat):
    """The part of a gradient orthogonal to the gauge direction."""
    return grad - _kernels.vdot(grad, k_hat) * k_hat


def _newton_step(h: DualHessian, grad):
    """Solve (H + delta I) s = -grad, delta = NEWTON_DAMPING times the mean of
    the marginal diagonal (r, c), by eliminating
    s_beta = (-g_beta - Q^T s_alpha - v s_lam) / (c + delta).
    The (M+1)-square Schur complement and every product with Q go through
    G = Q diag((c + delta)^-1/2), built once by the Hessian's q_scaled.  The
    complement is diag(r + delta) - G G^T bordered by the metric sums, with
    r = G (G^T 1 + delta (c + delta)^-1/2), which is Q 1 in exact
    arithmetic: so each row rounds like the products it is set against, and
    the near null direction 1_M (the gauge) cancels as it does in exact
    arithmetic.  _pcg_wins picks how the system is solved: directly
    (_schur_direct, from the Gram matrix G G^T) or by conjugate gradients
    (_schur_pcg, two products with G an iteration and no M x M array).
    The gradient is orthogonal to the gauge vector, an eigenvector of
    H + delta I, so no gauge pin is needed."""
    r, c, u, v, w, q_scaled = h
    m = r.size
    delta = NEWTON_DAMPING * (r.sum() + c.sum()) / (m + c.size)
    scale = np.sqrt(1.0 / (c + delta))
    g = q_scaled(scale)
    vs, gs = v * scale, grad[m:-1] * scale
    border = u - g.dot(vs)
    corner = w + delta - _kernels.vdot(vs, vs)
    rhs = np.append(g.dot(gs) - grad[:m], _kernels.vdot(vs, gs) - grad[-1])
    solve = _schur_pcg if _pcg_wins(g, m, c.size) else _schur_direct
    x = solve(g, delta, delta * scale, border, corner, rhs)
    s_beta = -(gs + g.tdot(x[:m]) + vs * x[m]) * scale
    step = np.concatenate([x[:m], s_beta, x[m:]])
    if not np.isfinite(step).all():
        raise NumericalFailureError("Newton step is not finite")
    return step


def _pcg_wins(g, m, n):
    """True when conjugate gradients solve the Schur system faster than the
    direct solve (measured crossover in PCG_MIN_INPUTS' comment)."""
    if isinstance(g, _kernels.LevelCoupling):
        return m >= PCG_MIN_INPUTS
    return m * (n / 2 + m / 3) >= PCG_ARRAY_ITERATIONS * 2 * n


def _schur_direct(g, delta, ds, border, corner, rhs):
    """The Schur system solved by LU: its M x M block
    diag(r + delta) - G G^T, r the Gram matrix's row sums plus G ds."""
    m = border.size
    gram = g.gram()
    r = gram.sum(axis=1) + g.dot(ds)
    schur = np.empty((m + 1, m + 1))
    np.negative(gram, out=schur[:m, :m])
    schur.flat[:m * (m + 2):m + 2] += r + delta
    schur[:m, m] = schur[m, :m] = border
    schur[m, m] = corner
    try:
        return np.linalg.solve(schur, rhs)
    except np.linalg.LinAlgError as err:
        raise NumericalFailureError(f"Newton system could not be solved: {err}") from None


def _schur_pcg(g, delta, ds, border, corner, rhs):
    """The Schur system S x = rhs by Jacobi-preconditioned conjugate
    gradients, deflated along e = (1_M, 0) / sqrt(M), S's near null
    direction: CG runs on P S with P y = y - (S e)(e.y) / (e.S e), which
    leaves no component along e for its iterates to resolve, and
    x = e (e.rhs) / (e.S e) + P^T x_cg puts that component back (Nicolaides,
    SIAM J. Numer. Anal. 1987).  Projecting e out instead, as if it were
    an exact null vector, leaves the step far off the direct one at nodes
    of tiny mass.  Each product with S is one G^T x and one G y.  CG stops
    at relative residual PCG_RTOL; when it has not got there after m + 1
    iterations, or P S stops being positive along a search direction, the
    system is solved directly instead (_schur_direct)."""
    m = border.size
    diag = g.dot(g.tdot(np.ones(m)) + ds) + delta

    def apply(x):
        out = diag * x[:m] - g.dot(g.tdot(x[:m])) + border * x[m]
        return np.append(out, _kernels.vdot(border, x[:m]) + corner * x[m])

    e = np.append(np.full(m, 1.0 / math.sqrt(m)), 0.0)
    se = apply(e)
    ese = _kernels.vdot(e, se)

    def deflate(y):
        return y - se * (_kernels.vdot(e, y) / ese)

    jacobi = 1.0 / np.append(diag, corner)
    res = deflate(rhs)
    stop = PCG_RTOL * math.sqrt(_kernels.vdot(rhs, rhs))
    x = np.zeros(m + 1)
    z = jacobi * res
    d, rz = z, _kernels.vdot(res, z)
    for _ in range(m + 1):
        sd = deflate(apply(d))
        dsd = _kernels.vdot(d, sd)
        if not dsd > 0.0:
            break
        step = rz / dsd
        x += step * d
        res -= step * sd
        if math.sqrt(_kernels.vdot(res, res)) <= stop:
            return x - e * ((_kernels.vdot(se, x) - _kernels.vdot(e, rhs)) / ese)
        z = jacobi * res
        rz, rz_old = _kernels.vdot(res, z), rz
        d = z + (rz / rz_old) * d
    return _schur_direct(g, delta, ds, border, corner, rhs)


def _first_trial(dp, step, p, axes=None):
    """Length of a line search's first trial: 1, or 0.95 of the way to lam = 0
    when the step lowers lam, and no longer than moves some log q_ij up by
    STEP_EXP_CAP.  The rise -s_alpha_i - s_beta_j - s_lam d_ij is first
    bounded, through each row's table maxima (d_ij = d1_ia + d2_ib) where
    the kernels take ``axes`` at dp.lam, else through the metric's range
    [p.d_min, p.d_max], and the pass over d that finds its maximum is made
    only when that bound could bind.  Rounding is monotone, so no entry's
    rounded rise passes the range bound, and the length is the pass's."""
    t_step = 1.0
    s_lam = step[-1]
    if s_lam < 0.0:
        t_step = min(t_step, 0.95 * dp.lam / -s_lam)
    m = dp.alpha.size
    if _kernels._factored(axes, dp.lam, p.d):
        row_top = np.max(-s_lam * axes.d1, axis=1) + np.max(-s_lam * axes.d2, axis=1) - step[:m]
        bound = row_top.max() - step[m:-1].min()
    else:
        bound = -step[:m].min() - step[m:-1].min() + max(-s_lam * p.d_min, -s_lam * p.d_max)
    if bound * t_step <= STEP_EXP_CAP:
        return t_step
    top = max(float(rise.max())
              for _, rise in _kernels.exponent_blocks(-step[:m], -step[m:-1], s_lam, p.d))
    if top * t_step > STEP_EXP_CAP:
        t_step = STEP_EXP_CAP / top
    return t_step


def _line_search(dp, step, slope, g_cur, gnorm_cur, p, it, k_hat, axes):
    """Armijo backtracking from _first_trial's step; the accepted
    (point, gradient, row, Hessian).  A full step too flat for the Armijo
    test to resolve is accepted when it lowers the projected gradient."""
    m = dp.alpha.size
    t_step = _first_trial(dp, step, p, axes)
    flat = -slope <= FLAT_SLOPE_RTOL * max(abs(g_cur), 1.0)
    while t_step > 1e-20:
        trial = DualPoint(dp.alpha + t_step * step[:m], dp.beta + t_step * step[m:-1],
                          dp.lam + t_step * step[-1])
        try:
            grad, row, h = _sweep(trial, p, it, axes=axes)
        except EvaluationError:
            pass                # far out: its objective is beyond every bound here
        else:
            if row.dual_objective <= g_cur + 1e-4 * t_step * slope:
                return trial, grad, row, h
            if (flat and t_step == 1.0
                    and float(np.abs(_project(grad, k_hat)).max()) < gnorm_cur):
                return trial, grad, row, h
        t_step *= 0.5
    raise NumericalFailureError("Newton line search failed to decrease", iteration=it)


def descend(dp: DualPoint, p, steps: int, done, trace: list, it0: int = 0, axes=None):
    """Damped Newton on (alpha, beta, lam) from dp, at most ``steps`` steps.

    Each step solves the Schur-complement system at the current point, falls
    back to the negative projected gradient when that is no descent
    direction, and line-searches with lam kept positive; the accepted point's
    sweep gives the next gradient and Hessian.  Stops as soon as
    ``done(grad, row)`` holds at the current point.  Every accepted point's
    TraceRow (iter it0 + 1, it0 + 2, ...) is appended to ``trace``.  Returns
    (point, row, done, failure) at the last accepted point, failure being
    the NumericalFailureError (with its step's iteration) that ended the
    loop, or None.  The start point's sweep raises EvaluationError when it
    overflows.  With ``axes``, p's GridAxes, every sweep and step that the
    kernels' guard admits goes through the axis tables (dual_hessian).
    """
    k_hat = gauge_vector(p.m, p.n)
    grad, row, h = _sweep(dp, p, it0, axes=axes)
    for it in range(it0 + 1, it0 + steps + 1):
        if done(grad, row):
            return dp, row, True, None
        grad_proj = _project(grad, k_hat)
        try:
            step = _newton_step(h, grad)
            h = None        # free before the line search sweeps the next coupling
            slope = _kernels.vdot(grad, step)
            if slope >= 0.0:
                step = -grad_proj
                slope = _kernels.vdot(grad, step)
            gnorm = float(np.abs(grad_proj).max())
            dp, grad, row, h = _line_search(dp, step, slope, row.dual_objective, gnorm,
                                            p, it, k_hat, axes)
        except NumericalFailureError as err:
            err.iteration = it
            return dp, row, False, err
        trace.append(row)
    return dp, row, done(grad, row), None


def bracketed_newton(f, x):
    """Safeguarded Newton from x for the zero of a decreasing function on
    [0, SCALAR_CAP].  ``f(x)`` returns (value, step, done): value > 0 places
    x left of the zero in a bracket of evaluated points, step is the
    caller's Newton step (NaN for none) and done its stopping test; x = 0
    with value <= 0 also stops.  A step out of the bracket bisects it, or
    goes to the cap while it is open on the right; steps are clipped to the
    range.  A positive value at the cap raises BracketError.  Returns
    (x, evaluations, resolved) at the last point, resolved False when the
    bracket got too narrow to split.
    """
    lo, hi = -math.inf, math.inf     # evaluated points with value > 0 / value <= 0
    for evals in range(1, SCALAR_MAX_EVALS + 1):
        value, step, done = f(x)
        if value > 0.0:
            lo = x
        else:
            hi = x
        if done or hi == 0.0:
            return x, evals, True
        if lo >= SCALAR_CAP:
            raise BracketError(f"zero still beyond the search cap {SCALAR_CAP:g}")
        x_new = x + step
        if not lo < x_new < hi:
            x_new = 0.5 * (max(lo, 0.0) + hi) if hi < math.inf else SCALAR_CAP
        x_new = min(max(x_new, 0.0), SCALAR_CAP)
        if not lo < x_new < hi:
            return x, evals, False
        x = x_new
    raise NumericalFailureError(f"Newton search unresolved after {SCALAR_MAX_EVALS} evaluations")
