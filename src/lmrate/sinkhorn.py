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

Residuals after a full iteration are the L1 marginal gaps plus the
multiplier residual |excess|, with the complementary-slackness convention
that the multiplier residual is zero at lam = 0 with negative excess
(the constraint is simply inactive there).
"""

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np

from . import _kernels
from .channel import DiscreteProblem
from .errors import NumericalFailureError
from .problem import Coupling, TraceRow, balance_gauge, evaluate

# relative tolerance of the multiplier root solve: |excess| <= ROOT_RTOL * t
ROOT_RTOL = 1e-13

_ROOT_LAMBDA_CAP = 1e6
_ROOT_MAX_EVALS = 200


class LambdaStrategy(str, Enum):
    PROJECT = "project"
    ROOT = "root"
    AUTO = "auto"


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class SolverConfig:
    max_iters: int = 500
    tol: float = 1e-10
    lambda_strategy: LambdaStrategy = LambdaStrategy.AUTO
    tau: float | None = None          # None -> 1 / max(d)^2
    lambda_init: float = 1.0

    def __post_init__(self):
        self.lambda_strategy = LambdaStrategy(self.lambda_strategy)
        if isinstance(self.max_iters, bool) or not (isinstance(self.max_iters, Integral)
                                                    and self.max_iters >= 1):
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")
        if self.tau is not None and not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite when given")
        if not (self.lambda_init >= 0 and math.isfinite(self.lambda_init)):
            raise ValueError("lambda_init must be nonnegative and finite")


@dataclass
class SinkhornState:
    """Iterate of the alternating-scaling loop (plain-domain view)."""

    phi: np.ndarray
    psi: np.ndarray
    lam: float
    iter: int = 0


@dataclass
class SolveReport:
    solution: Coupling
    lm_rate_nats: float
    lambda_final: float
    iterations: int
    residual_trace: list
    status: SolveStatus
    dual_objective: float
    dual_objective_init: float
    tau: float | None                 # the projected step size; None for other strategies
    strategy: str
    lambda_init: float = 1.0
    failed_iteration: int | None = None
    failure_reason: str | None = None
    root_evals: int = 0               # excess evaluations of the multiplier root solves

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


def _resolve_strategy(cfg: SolverConfig, p: DiscreteProblem) -> LambdaStrategy:
    if cfg.lambda_strategy is not LambdaStrategy.AUTO:
        return cfg.lambda_strategy
    return LambdaStrategy.ROOT if p.rootfind_safe else LambdaStrategy.PROJECT


def _update_lambda(strategy, lphi, lpsi, lam, p, tau):
    """(new multiplier, coupling_stats taken at it or None, root-solve evaluations)."""
    if strategy is LambdaStrategy.ROOT:
        root = solve_multiplier_root(lphi, lpsi, p.d, p.t, lam_hint=lam, axes=p.axes)
        return float(root), root.stats, root.evals
    excess = multiplier_excess(lphi, lpsi, lam, p.d, p.t, p.axes)
    return max(0.0, lam + tau * excess), None, 0


def multiplier_excess(lphi, lpsi, lam, d, t, axes=None) -> float:
    """excess(lam) = sum_ij d_ij q_ij(lam) - t at fixed scalings; ``axes``
    is the metric's GridAxes or None, as for the kernels."""
    s1, _ = _kernels.metric_moments(lphi, lpsi, lam, d, axes)
    return s1 - t


class _Root(float):
    """A multiplier that also carries the coupling_stats sweep taken at it
    (``stats``, None when the warm-start hint was accepted as it stood) and
    the number of excess evaluations that found it (``evals``), so the
    solver's one multiplier call per iteration stays solve_multiplier_root."""

    def __new__(cls, lam, stats, evals):
        root = super().__new__(cls, lam)
        root.stats = stats
        root.evals = evals
        return root


def solve_multiplier_root(lphi, lpsi, d, t, lam_hint: float = 1.0, axes=None) -> float:
    """Unique nonnegative root of the excess, or 0 when excess(0) <= 0.

    Safeguarded Newton warm-started at lam_hint, taken on
    log(s1) - log(t) with s1 = sum d q and slope -s2/s1, s2 = sum d^2 q.
    Like the excess s1 - t it is decreasing and convex with the same root,
    and it is linear for a single metric value.  So a step from the left of
    the root never overshoots, one from the right lands at or left of it,
    and after at most one step the iterates climb to the root.  lam = 0 is
    evaluated only when a step reaches it.  Overflowed moments step right
    by doubling; underflowed moments, and steps that leave the bracket of
    evaluated points, bisect it.  Tolerance |excess| <= ROOT_RTOL * t.

    The first evaluation is a metric_moments sweep and every later one a
    coupling_stats sweep, which the returned float carries as ``.stats``
    (with the evaluation count as ``.evals``) so the solver evaluates the
    new multiplier without another sweep.  NaN moments (an exact zero of d
    times an overflowed coupling entry) raise NumericalFailureError at the
    multiplier where they occur, as do a bracket too narrow to split
    ("stalled") and an excess still positive past _ROOT_LAMBDA_CAP.  Every
    sweep is given ``axes``, the metric's GridAxes or None.
    """
    f_tol = ROOT_RTOL * abs(t)
    lo, hi = -math.inf, math.inf     # evaluated points with excess > 0 / <= 0
    x = float(lam_hint)
    s1, s2 = _kernels.metric_moments(lphi, lpsi, x, d, axes)
    stats = None
    for evals in range(1, _ROOT_MAX_EVALS + 1):
        if math.isnan(s1) or math.isnan(s2):
            raise NumericalFailureError(
                f"non-finite metric moments ({s1!r}, {s2!r}) at lam={x!r}")
        fx = s1 - t
        if abs(fx) <= f_tol or (x == 0.0 and fx <= 0.0):
            return _Root(x, stats, evals)
        if fx > 0.0:
            lo = x
        else:
            hi = x
        x_new = math.nan
        if t > 0.0 and 0.0 < s1 < math.inf and 0.0 < s2 < math.inf:
            x_new = x + math.log(s1 / t) * s1 / s2
        if not lo < x_new < hi:
            x_new = 0.5 * (max(lo, 0.0) + hi) if hi < math.inf else max(2.0 * x, 1.0)
        x_new = max(x_new, 0.0)
        if not lo < x_new < hi:
            break
        if x_new > _ROOT_LAMBDA_CAP and hi == math.inf:
            raise NumericalFailureError(
                f"no multiplier bracket below {_ROOT_LAMBDA_CAP:g}; "
                "threshold t may be inconsistent with the metric")
        x = x_new
        stats = _kernels.coupling_stats(lphi, lpsi, x, d, axes)
        _, _, s1, s2 = stats
    raise NumericalFailureError("multiplier root solve stalled before tolerance")


def _log_state(state: SinkhornState):
    phi = np.asarray(state.phi, dtype=np.float64)
    psi = np.asarray(state.psi, dtype=np.float64)
    if np.any(phi <= 0) or np.any(psi <= 0):
        raise ValueError("state scalings must be strictly positive")
    return np.log(phi), np.log(psi)


def sinkhorn_step(state: SinkhornState, p: DiscreteProblem) -> SinkhornState:
    """One full row-then-column rescale at fixed multiplier."""
    lphi, lpsi = _log_state(state)
    lphi = _kernels.scale_rows(lpsi, state.lam, p.d, np.log(p.p_x), p.axes)
    lpsi = _kernels.scale_cols(lphi, state.lam, p.d, np.log(p.p_y), p.axes)
    return SinkhornState(phi=np.exp(lphi), psi=np.exp(lpsi), lam=state.lam,
                         iter=state.iter + 1)


def _lambda_step(state, p, strategy, tau=None) -> SinkhornState:
    lphi, lpsi = _log_state(state)
    lam, _, _ = _update_lambda(strategy, lphi, lpsi, state.lam, p, tau)
    return SinkhornState(phi=state.phi, psi=state.psi, lam=lam, iter=state.iter)


def update_lambda_projection(state: SinkhornState, p: DiscreteProblem,
                             tau: float) -> SinkhornState:
    """Projected multiplier step lam <- max(0, lam + tau * excess)."""
    return _lambda_step(state, p, LambdaStrategy.PROJECT, tau)


def update_lambda_rootfind(state: SinkhornState, p: DiscreteProblem) -> SinkhornState:
    """Multiplier jump to the root of the excess at the current scalings."""
    return _lambda_step(state, p, LambdaStrategy.ROOT)


def residuals(state: SinkhornState, p: DiscreteProblem) -> tuple:
    """(r_phi, r_psi, r_lambda) at the current state."""
    lphi, lpsi = _log_state(state)
    row = evaluate(lphi, lpsi, state.lam, p)
    return row.r_phi, row.r_psi, row.r_lambda


def solve(p: DiscreteProblem, cfg: SolverConfig | None = None) -> SolveReport:
    """Run the alternating-scaling loop until all residuals fall below tol.

    Returns a SolveReport whose residual_trace has exactly one row per
    completed iteration; the trace carries the dual objective and the
    multiplier so convergence certificates can be built from it.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    strategy = _resolve_strategy(cfg, p)
    m_d = p.d_max
    tau = cfg.tau if cfg.tau is not None else (1.0 / (m_d * m_d) if m_d > 0 else 1.0)

    log_px = np.log(p.p_x)
    log_py = np.log(p.p_y)
    lphi = np.zeros(p.m)
    lpsi = np.zeros(p.n)
    lam = float(cfg.lambda_init)
    g_init = evaluate(lphi, lpsi, lam, p).dual_objective

    trace: list = []
    status = SolveStatus.MAX_ITERS
    failed_iteration = None
    failure_reason = None
    root_evals = 0

    for it in range(1, cfg.max_iters + 1):
        try:
            lphi = _kernels.scale_rows(lpsi, lam, p.d, log_px, p.axes)
            lpsi = _kernels.scale_cols(lphi, lam, p.d, log_py, p.axes)
            lam, stats, evals = _update_lambda(strategy, lphi, lpsi, lam, p, tau)
            root_evals += evals
            row = evaluate(lphi, lpsi, lam, p, it, stats)
            if not (math.isfinite(row.dual_objective) and math.isfinite(row.lm_rate_nats)):
                raise NumericalFailureError("coupling evaluation became non-finite")
        except NumericalFailureError as err:
            status = SolveStatus.NUMERICAL_FAILURE
            failed_iteration = it
            failure_reason = str(err)
            break
        trace.append(row)
        if max(row.r_phi, row.r_psi, row.r_lambda) <= cfg.tol:
            status = SolveStatus.CONVERGED
            break

    final = trace[-1] if trace else evaluate(lphi, lpsi, lam, p)
    solution = Coupling(*balance_gauge(lphi, lpsi), lam, p.d)
    return SolveReport(
        solution=solution,
        lm_rate_nats=final.lm_rate_nats,
        lambda_final=lam,
        iterations=len(trace),
        residual_trace=trace,
        status=status,
        dual_objective=final.dual_objective,
        dual_objective_init=g_init,
        tau=tau if strategy is LambdaStrategy.PROJECT else None,
        strategy=strategy.value,
        lambda_init=float(cfg.lambda_init),
        failed_iteration=failed_iteration,
        failure_reason=failure_reason,
        root_evals=root_evals,
    )
