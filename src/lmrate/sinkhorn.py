"""Alternating-scaling solver for the capacity-constrained rate problem.

Each iteration refreshes the Gibbs kernel exp(-lam*d) at the current
multiplier, rescales rows then columns to match the target marginals (the
column update already sees the new row scaling), and finally advances the
multiplier, either by a projected gradient step

    lam <- max(0, lam + tau * excess)        excess = sum d q - t

(the excess is exactly minus the multiplier-gradient of the dual, so this
is projected gradient descent on the dual) or by solving excess(lam) = 0
directly; the excess is strictly decreasing in lam, so the root is unique
whenever excess(0) > 0.

The step API (sinkhorn_step, update_lambda_projection,
update_lambda_rootfind, residuals) takes those steps one sweep each on a
problem.Coupling, the log-domain iterate (log_phi, log_psi, lam) that
``solve`` holds too, and returns a new one built at p.d.  ``solve`` runs
the projected iteration in one pass over the coupling
(_kernels.projected_sweep), the reuse of log-domain sums of stabilized
scaling (Schmitzer, SIAM J. Sci. Comput. 2019): the evaluation at the
new multiplier, shifted by row, holds the next row update's sums, and
its column sums, reweighted by that update, hold the column update after
it and the excess of the coupling it leaves (its columns then summing to
p_y).  The run's first pass is also its start's evaluation.  Its trace
matches the step API's to rounding.

Residuals after a full iteration are the L1 marginal gaps plus the
multiplier residual, |excess| taken on the metric less its minimum
(problem.evaluate), with the complementary-slackness convention
that the multiplier residual is zero at lam = 0 with negative excess
(the constraint is simply inactive there).

The scaling iteration converges only sub-linearly, and at high SNR a root
run can stall far from tol.  A root run therefore hands its iterate to the
damped Newton loop of the dual (``_newton.descend``, the Newton oracle's
loop), which finishes it in a few steps.  It does so after one scaling
iteration, whatever the alphabet's size: scaling first, then Newton, as in
the Sinkhorn-Newton methods of Brauer, Clason, Lorenz & Wirth
(arXiv:1710.06635) and Tang et al. (ICLR 2024).  On large alphabets the
Newton step solves its system by conjugate gradients with no M x M
matrix (_newton._schur_pcg), so it wins there too.  When excess(0) <= tol
at the product coupling p_x (x) p_y, the optimal multiplier is 0 and a
root run starts there instead; otherwise at the optimal tilt of the GMI,
the rate's dual with no per-input shifts (Ganti, Lapidoth & Telatar,
IEEE T-IT 2000); see ``solve``.
"""

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np

from . import _kernels, problem
from ._newton import DualPoint, bracketed_newton, descend
from .channel import DiscreteProblem
from .errors import NumericalFailureError
from .gmi import GmiResult, gmi
from .problem import Coupling, TraceRow, balance_gauge, evaluate

# relative tolerance of the multiplier root solve: |excess| <= ROOT_RTOL * t
ROOT_RTOL = 1e-13


class LambdaStrategy(str, Enum):
    PROJECT = "project"
    ROOT = "root"


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    NUMERICAL_FAILURE = "numerical_failure"

    @classmethod
    def of_run(cls, failure, converged) -> "SolveStatus":
        """How a run ended: NUMERICAL_FAILURE when it stopped on ``failure``
        (a NumericalFailureError), else CONVERGED or MAX_ITERS by ``converged``."""
        if failure is not None:
            return cls.NUMERICAL_FAILURE
        return cls.CONVERGED if converged else cls.MAX_ITERS


@dataclass
class SolverConfig:
    max_iters: int = 500
    tol: float = 1e-10
    lambda_strategy: LambdaStrategy = LambdaStrategy.ROOT
    tau: float | None = None          # None -> 1 / max(d)^2
    lambda_init: float | None = None  # None -> the GMI tilt (root) or 1.0 (project)

    def __post_init__(self):
        self.lambda_strategy = LambdaStrategy(self.lambda_strategy)
        if isinstance(self.max_iters, bool) or not (isinstance(self.max_iters, Integral)
                                                    and self.max_iters >= 1):
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")
        if self.tau is not None and not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite when given")
        if self.lambda_init is not None and not 0 <= self.lambda_init < math.inf:
            raise ValueError("lambda_init must be nonnegative and finite when given")


@dataclass
class SolveReport:
    solution: Coupling
    lm_rate_nats: float
    lambda_final: float
    iterations: int
    residual_trace: list
    status: SolveStatus
    dual_objective: float
    # at the start: H(p_x) + H(p_y) at the product start, and from the first
    # row update on a root run from the zero scalings (no sweep of its own)
    dual_objective_init: float
    tau: float | None                 # the projected step size; None for other strategies
    strategy: str
    lambda_init: float = 1.0          # the start taken; 0.0 at the product start
    failed_iteration: int | None = None
    failure_reason: str | None = None
    root_evals: int = 0               # excess evaluations of the multiplier root solves
    newton_steps: int = 0             # trace rows made by the Newton hand-off
    gmi: GmiResult | None = None      # the GMI whose tilt started the run, if one did

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


def multiplier_excess(lphi, lpsi, lam, d, t, axes=None) -> float:
    """excess(lam) = sum_ij d_ij q_ij(lam) - t at fixed scalings; ``axes``
    is the metric's GridAxes or None, as for the kernels."""
    s1, _ = _kernels.metric_moments(lphi, lpsi, lam, d, axes)
    return s1 - t


class _Root(float):
    """A multiplier with the coupling_stats sweep taken at it (``stats``, None
    when the hint was accepted as it stood) and its evaluation count (``evals``)."""

    def __new__(cls, lam, stats, evals):
        root = super().__new__(cls, lam)
        root.stats = stats
        root.evals = evals
        return root


def solve_multiplier_root(lphi, lpsi, d, t, lam_hint: float = 1.0, axes=None) -> float:
    """Unique nonnegative root of the excess, or 0 when excess(0) <= 0.

    ``_newton.bracketed_newton`` from lam_hint, over [0, _newton.SCALAR_CAP],
    on log(s1/t), s1 = sum d q: decreasing and convex like the excess, with
    the same root, and linear for a single metric value.  Its step is
    log(s1/t) * s1/s2, s2 = sum d^2 q; it stops at |excess| <= ROOT_RTOL * t.
    The first evaluation is a metric_moments sweep and every later one a
    coupling_stats sweep, carried by the returned float as ``.stats`` (the
    count as ``.evals``), so the solver needs no sweep at the new multiplier.
    NumericalFailureError when t <= 0 (before any sweep), at NaN moments, on
    a stall and past the evaluation budget; BracketError, its subclass, when
    the excess is still positive at the cap.  ``axes``: the metric's
    GridAxes or None.
    """
    if not t > 0.0:
        raise NumericalFailureError(f"no multiplier bracket: threshold t = {t!r} is not positive")
    stats = None
    swept = False

    def excess(lam):
        nonlocal stats, swept
        if swept:
            stats = _kernels.coupling_stats(lphi, lpsi, lam, d, axes)
            _, _, s1, s2 = stats
        else:
            s1, s2 = _kernels.metric_moments(lphi, lpsi, lam, d, axes)
            swept = True
        if math.isnan(s1) or math.isnan(s2):
            raise NumericalFailureError(
                f"non-finite metric moments ({s1!r}, {s2!r}) at lam={lam!r}")
        finite = 0.0 < s1 < math.inf and 0.0 < s2 < math.inf
        step = math.log(s1 / t) * s1 / s2 if finite else math.nan
        return s1 - t, step, abs(s1 - t) <= ROOT_RTOL * t

    lam, evals, resolved = bracketed_newton(excess, float(lam_hint))
    if not resolved:
        raise NumericalFailureError("multiplier root solve stalled before tolerance")
    return _Root(lam, stats, evals)


def _scale(lpsi, lam, p, log_px, log_py):
    """One row-then-column rescale at fixed multiplier: (log_phi, log_psi)."""
    lphi = _kernels.scale_rows(lpsi, lam, p.d, log_px, p.axes)
    return lphi, _kernels.scale_cols(lphi, lam, p.d, log_py, p.axes)


def sinkhorn_step(q: Coupling, p: DiscreteProblem) -> Coupling:
    """One full row-then-column rescale at fixed multiplier."""
    return Coupling(*_scale(q.log_psi, q.lam, p, np.log(p.p_x), np.log(p.p_y)), q.lam, p.d)


def update_lambda_projection(q: Coupling, p: DiscreteProblem, tau: float) -> Coupling:
    """Projected multiplier step lam <- max(0, lam + tau * excess)."""
    excess = multiplier_excess(q.log_phi, q.log_psi, q.lam, p.d, p.t, p.axes)
    return Coupling(q.log_phi, q.log_psi, max(0.0, q.lam + tau * excess), p.d)


def update_lambda_rootfind(q: Coupling, p: DiscreteProblem) -> Coupling:
    """Multiplier jump to the root of the excess at the current scalings."""
    root = solve_multiplier_root(q.log_phi, q.log_psi, p.d, p.t, lam_hint=q.lam, axes=p.axes)
    return Coupling(q.log_phi, q.log_psi, float(root), p.d)


def residuals(q: Coupling, p: DiscreteProblem) -> tuple:
    """(r_phi, r_psi, r_lambda) at the coupling."""
    row = evaluate(q.log_phi, q.log_psi, q.lam, p)
    return row.r_phi, row.r_psi, row.r_lambda


def threshold_failure(p: DiscreteProblem, tol: float):
    """A NumericalFailureError (iteration 0) when no coupling whose columns
    sum to p_y meets the metric constraint to within tol, t + tol < p.t_min;
    else None.  solve and the Newton oracle check it before any sweep."""
    if p.t + tol < p.t_min:
        return NumericalFailureError(
            f"threshold t = {p.t!r} is below {p.t_min!r}, the least metric mass "
            "sum d q of any coupling with output marginal p_y", 0)
    return None


def _peak(row: TraceRow) -> float:
    return max(row.r_phi, row.r_psi, row.r_lambda)


def _newton_done(row: TraceRow, tol: float, p: DiscreteProblem) -> bool:
    """A root run's stopping test, in its scaling and its Newton phase: the
    residuals, and the gap from the rate to its weak-duality lower bound
    H(p_x) + H(p_y) - g, at most tol."""
    return (_peak(row) <= tol
            and abs(row.lm_rate_nats - (p.h_x + p.h_y - row.dual_objective)) <= tol)


def solve(p: DiscreteProblem, cfg: SolverConfig | None = None) -> SolveReport:
    """Run the alternating-scaling loop until all residuals fall below tol.

    The multiplier update is ``root`` unless the config asks for
    ``project``.  A ``root`` run first sweeps once at lam = 0 (the active-set
    test at a simple bound, Bertsekas, SIAM J. Control Optim. 1982): when
    the multiplier gradient t - sum d q at the product coupling p_x (x) p_y
    is at least -tol, as in the Newton oracle, the optimal multiplier is 0,
    which the Newton line search never reaches, and the run starts from
    that coupling at lam = 0 (the product start), whose dual value
    dual_objective_init is H(p_x) + H(p_y), as the Newton oracle reports
    it, taken with no sweep.  Otherwise, with
    cfg.lambda_init None, it starts at the GMI's optimal tilt gmi(p).s_star
    and reports that GmiResult as ``gmi`` (it starts at 1.0, ``gmi`` None,
    when gmi raises NumericalFailureError).  That start, at zero scalings,
    takes no sweep of its own: its dual value, dual_objective_init, is
    sum_i exp(log p_x_i - lphi_i) - 1 + lam t, the mass read off the first
    row update lphi.  It hands the gauge-balanced iterate at a positive
    multiplier to the damped Newton loop after the first iteration; its
    sweeps and steps read the metric's level tables where the kernels'
    guard admits them.  Every ``root`` run, handed off or not, stops on the
    residual test and on the primal-dual gap (``_newton_done``): at high
    SNR lam reaches tens, and a point that meets the residual test alone
    can still be 2e-9 nats short of the optimal rate.  Such a run's status
    is that test's: it is MAX_ITERS when the run spends max_iters without
    meeting it, whatever the last residuals read.  A ``project`` run stops
    on the residual test alone, which its certificate reads, and never
    hands off, since its certificate speaks about the scaling trace.  Nor
    does an instance above problem.DENSE_CAP metric entries: the cap is a
    gate on the instance's size, read at call time, whichever path its
    Newton steps would take (through the level tables they build no
    M x N array, off them they read the dense coupling).  A ``project`` run
    makes iterations + 1 passes over the coupling
    (module docstring).  A threshold that no
    coupling meets to within tol (``threshold_failure``) stops either
    strategy before any sweep of its loop, at the product coupling and its
    dual value H(p_x) + H(p_y), with status NUMERICAL_FAILURE.
    Returns a SolveReport whose residual_trace has exactly one row per
    completed iteration or Newton step (both count against max_iters); the
    trace carries the dual objective and the multiplier so convergence
    certificates can be built from it.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    strategy = cfg.lambda_strategy
    m_d = p.d_max
    tau = cfg.tau if cfg.tau is not None else (1.0 / (m_d * m_d) if m_d > 0 else 1.0)
    may_hand_off = strategy is LambdaStrategy.ROOT and p.d.size <= problem.DENSE_CAP

    failure = threshold_failure(p, cfg.tol)
    log_px, log_py = np.log(p.p_x), np.log(p.p_y)
    lphi, lpsi, lam, tilt = np.zeros(p.m), np.zeros(p.n), cfg.lambda_init, None
    dual_init = None
    product = failure is not None or (
        strategy is LambdaStrategy.ROOT
        and multiplier_excess(log_px, log_py, 0.0, p.d, p.t, p.axes) <= cfg.tol)
    if product:
        lphi, lpsi, lam, dual_init = log_px, log_py, 0.0, p.h_x + p.h_y
    elif strategy is LambdaStrategy.ROOT and lam is None:
        try:
            tilt = gmi(p)
            lam = tilt.s_star
        except NumericalFailureError:
            pass
    lam_init = lam = 1.0 if lam is None else float(lam)
    if strategy is LambdaStrategy.PROJECT and failure is None:
        stats, step = _kernels.projected_sweep(lphi, lpsi, lam, p.d, p.d_max - p.d_min,
                                               log_px, log_py, p.p_y, p.axes)
        dual_init = evaluate(lphi, lpsi, lam, p, 0, stats).dual_objective

    trace: list = []
    converged = False
    root_evals = 0
    newton_steps = 0

    for it in range(1, (cfg.max_iters if failure is None else 0) + 1):
        try:
            if strategy is LambdaStrategy.ROOT:
                lphi, lpsi = _scale(lpsi, lam, p, log_px, log_py)
                if dual_init is None:
                    # the row update from the zero start: its row sums are
                    # exp(log p_x - lphi), so they give that start's mass
                    dual_init = float(np.exp(log_px - lphi).sum()) - 1.0 + lam * p.t
                root = solve_multiplier_root(lphi, lpsi, p.d, p.t, lam_hint=lam, axes=p.axes)
                lam, stats = float(root), root.stats
                root_evals += root.evals
            else:
                lphi, lpsi, mass = step
                lam = max(0.0, lam + tau * (mass - p.t))
                stats, step = _kernels.projected_sweep(lphi, lpsi, lam, p.d, p.d_max - p.d_min,
                                                       log_px, log_py, p.p_y, p.axes)
            row = evaluate(lphi, lpsi, lam, p, it, stats)
            if not (math.isfinite(row.dual_objective) and math.isfinite(row.lm_rate_nats)):
                raise NumericalFailureError("coupling evaluation became non-finite")
        except NumericalFailureError as err:
            failure = NumericalFailureError(str(err), it)
            break
        trace.append(row)
        converged = (_newton_done(row, cfg.tol, p) if strategy is LambdaStrategy.ROOT
                     else _peak(row) <= cfg.tol)
        if converged:
            break
        if may_hand_off and lam > 0.0:
            # the iterate's entries are at most its marginals, so its dense
            # sweep cannot overflow
            lphi, lpsi = balance_gauge(lphi, lpsi)
            dp, _, converged, failure = descend(DualPoint(-lphi - 0.5, -lpsi - 0.5, lam),
                                                p, cfg.max_iters - it,
                                                lambda _, r: _newton_done(r, cfg.tol, p),
                                                trace, it, p.axes)
            newton_steps = len(trace) - it
            lphi, lpsi, lam = -dp.alpha - 0.5, -dp.beta - 0.5, dp.lam
            if failure is not None:
                failure = NumericalFailureError(f"Newton phase: {failure}", failure.iteration)
            break

    final = trace[-1] if trace else evaluate(lphi, lpsi, lam, p)
    solution = Coupling(*balance_gauge(lphi, lpsi), lam, p.d)
    return SolveReport(
        solution=solution,
        lm_rate_nats=final.lm_rate_nats,
        lambda_final=lam,
        iterations=len(trace),
        residual_trace=trace,
        status=SolveStatus.of_run(failure, converged),
        dual_objective=final.dual_objective,
        dual_objective_init=dual_init,
        tau=tau if strategy is LambdaStrategy.PROJECT else None,
        strategy=strategy.value,
        lambda_init=lam_init,
        failed_iteration=failure and failure.iteration,
        failure_reason=failure and str(failure),
        root_evals=root_evals,
        newton_steps=newton_steps,
        gmi=tilt,
    )
