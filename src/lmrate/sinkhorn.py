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

import numpy as np

from . import _kernels
from .channel import DiscreteProblem
from .errors import NumericalFailureError
from .problem import Coupling, TraceRow, balance_gauge, evaluate

# switch the marginal updates to shifted log-sum-exp reductions once the
# smallest kernel exponent -lam*max(d) drops below this
_LSE_EXPONENT = -700.0

# relative tolerance of the multiplier root solve: |excess| <= ROOT_RTOL * t
ROOT_RTOL = 1e-13

_ROOT_LAMBDA_CAP = 1e6


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
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")
        if self.tau is not None and not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite when given")
        if not (self.lambda_init >= 0):
            raise ValueError("lambda_init must be nonnegative")


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
    tau: float | None
    strategy: str
    lambda_init: float = 1.0
    failed_iteration: int | None = None
    failure_reason: str | None = None

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


def _resolve_strategy(cfg: SolverConfig, p: DiscreteProblem) -> LambdaStrategy:
    if cfg.lambda_strategy is not LambdaStrategy.AUTO:
        return cfg.lambda_strategy
    return LambdaStrategy.ROOT if p.rootfind_safe else LambdaStrategy.PROJECT


def _update_rows(lpsi, lam, p, log_px):
    # jump straight to the shifted reduction once the kernel exponents can
    # underflow; otherwise try the plain sum and fall back on failure
    if lam * p.d_max < -_LSE_EXPONENT:
        lphi, ok = _kernels.scale_rows(lpsi, lam, p.d, log_px)
        if ok:
            return lphi
    return _kernels.scale_rows_lse(lpsi, lam, p.d, log_px)


def _update_cols(lphi, lam, p, log_py):
    if lam * p.d_max < -_LSE_EXPONENT:
        lpsi, ok = _kernels.scale_cols(lphi, lam, p.d, log_py)
        if ok:
            return lpsi
    return _kernels.scale_cols_lse(lphi, lam, p.d, log_py)


def _update_lambda(strategy, lphi, lpsi, lam, p, tau):
    if strategy is LambdaStrategy.ROOT:
        return solve_multiplier_root(lphi, lpsi, p.d, p.t, lam_hint=max(lam, 1.0))
    return max(0.0, lam + tau * multiplier_excess(lphi, lpsi, lam, p.d, p.t))


def multiplier_excess(lphi, lpsi, lam, d, t) -> float:
    """excess(lam) = sum_ij d_ij q_ij(lam) - t at fixed scalings."""
    s1, _ = _kernels.metric_moments(lphi, lpsi, lam, d)
    return s1 - t


def _moments(lphi, lpsi, lam, d):
    s1, s2 = _kernels.metric_moments(lphi, lpsi, lam, d)
    if math.isnan(s1) or math.isnan(s2):
        raise NumericalFailureError(
            f"non-finite metric moments ({s1!r}, {s2!r}) at lam={lam!r}")
    return s1, s2


def solve_multiplier_root(lphi, lpsi, d, t, lam_hint: float = 1.0) -> float:
    """Unique nonnegative root of the excess, or 0 when excess(0) <= 0.

    Bracketing by doubling from lam_hint, then bisection with guarded
    Newton steps (the excess derivative is -sum d^2 q, available in the
    same sweep).  Tolerance |excess| <= ROOT_RTOL * t.  NaN moments (an
    exact zero of d times an overflowed coupling entry) raise
    NumericalFailureError at the multiplier where they occur.
    """
    s1, _ = _moments(lphi, lpsi, 0.0, d)
    f_lo = s1 - t
    if f_lo <= 0.0:
        return 0.0
    f_tol = ROOT_RTOL * abs(t)
    lo = 0.0
    hi = max(1.0, 2.0 * lam_hint)
    while True:
        s1, _ = _moments(lphi, lpsi, hi, d)
        f_hi = s1 - t
        if f_hi <= 0.0:
            break
        lo, f_lo = hi, f_hi
        hi *= 2.0
        if hi > _ROOT_LAMBDA_CAP:
            raise NumericalFailureError(
                f"no multiplier bracket below {_ROOT_LAMBDA_CAP:g}; "
                "threshold t may be inconsistent with the metric")
    x = 0.5 * (lo + hi)
    for _ in range(200):
        s1, s2 = _moments(lphi, lpsi, x, d)
        fx = s1 - t
        if abs(fx) <= f_tol:
            return x
        if fx > 0.0:
            lo = x
        else:
            hi = x
        if s2 > 0.0:
            x_newton = x + fx / s2   # Newton step, derivative is -s2
            if lo < x_newton < hi:
                x = x_newton
                continue
        x = 0.5 * (lo + hi)
        if hi - lo <= 1e-18 * max(1.0, hi):
            break
    s1, _ = _moments(lphi, lpsi, x, d)
    if abs(s1 - t) <= f_tol:
        return x
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
    lphi = _update_rows(lpsi, state.lam, p, np.log(p.p_x))
    lpsi = _update_cols(lphi, state.lam, p, np.log(p.p_y))
    return SinkhornState(phi=np.exp(lphi), psi=np.exp(lpsi), lam=state.lam,
                         iter=state.iter + 1)


def _lambda_step(state, p, strategy, tau=None) -> SinkhornState:
    lphi, lpsi = _log_state(state)
    lam = _update_lambda(strategy, lphi, lpsi, state.lam, p, tau)
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

    for it in range(1, cfg.max_iters + 1):
        try:
            lphi = _update_rows(lpsi, lam, p, log_px)
            lpsi = _update_cols(lphi, lam, p, log_py)
            lam = _update_lambda(strategy, lphi, lpsi, lam, p, tau)
            row = evaluate(lphi, lpsi, lam, p, it)
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
        tau=tau if strategy is LambdaStrategy.PROJECT else cfg.tau,
        strategy=strategy.value,
        lambda_init=float(cfg.lambda_init),
        failed_iteration=failed_iteration,
        failure_reason=failure_reason,
    )
