"""Dual machinery: objective, derivatives, an independent Newton oracle,
the classical mismatched-decoding dual, and sub-linear convergence
certificates for the alternating-scaling trace.

The dual variables (alpha, beta, lam) parameterize the coupling

    q_ij = exp(-alpha_i - beta_j - lam*d_ij - 1)

and the (convex, to-be-minimized) dual objective is

    g = sum_ij q_ij + <alpha, p_x> + <beta, p_y> + lam * t.

Shifting (alpha, beta) by (+s, -s) leaves q unchanged; this gauge
direction (1_M, -1_N, 0) is the only flat direction of g for
non-constant centrally symmetric metrics, which is what makes the
projected Newton oracle well posed.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channel import DiscreteProblem
from .errors import (EvaluationError, InconsistentOracleError,
                     NumericalFailureError, UnsupportedConfigurationError)
from .problem import DENSE_CAP, Coupling, balance_gauge, evaluate
from .sinkhorn import SolveReport, SolveStatus

HESSIAN_CAP = 2048


@dataclass
class DualPoint:
    alpha: np.ndarray
    beta: np.ndarray
    lam: float

    def __post_init__(self):
        self.alpha = np.ascontiguousarray(self.alpha, dtype=np.float64)
        self.beta = np.ascontiguousarray(self.beta, dtype=np.float64)
        if not (self.lam >= 0.0):
            raise ValueError(f"lam must be nonnegative, got {self.lam!r}")


def from_coupling(q: Coupling) -> DualPoint:
    """Bijection phi = exp(-alpha - 1/2), psi = exp(-beta - 1/2)."""
    return DualPoint(alpha=-q.log_phi - 0.5, beta=-q.log_psi - 0.5, lam=q.lam)


def coupling_from_dual(dp: DualPoint, d: np.ndarray) -> Coupling:
    return Coupling(log_phi=-dp.alpha - 0.5, log_psi=-dp.beta - 0.5, lam=dp.lam, d=d)


def gauge_normalize(dp: DualPoint) -> DualPoint:
    """Shift along the gauge so sum(alpha) == sum(beta); idempotent."""
    lphi, lpsi = balance_gauge(-dp.alpha - 0.5, -dp.beta - 0.5)
    return DualPoint(alpha=-lphi - 0.5, beta=-lpsi - 0.5, lam=dp.lam)


def _evaluate(alpha, beta, lam, p: DiscreteProblem, it=0):
    return evaluate(-alpha - 0.5, -beta - 0.5, lam, p, it)


def dual_objective(dp: DualPoint, p: DiscreteProblem) -> float:
    g = _evaluate(dp.alpha, dp.beta, dp.lam, p).dual_objective
    if not math.isfinite(g):
        raise EvaluationError("dual objective overflowed; dual point too far out")
    return g


def dual_gradient(dp: DualPoint, p: DiscreteProblem):
    """(d/dalpha, d/dbeta, d/dlam) of the dual objective."""
    row, col, mass, metric_mass, _ = _kernels.coupling_stats(
        -dp.alpha - 0.5, -dp.beta - 0.5, dp.lam, p.d)
    if not math.isfinite(mass):
        raise EvaluationError("dual gradient overflowed; dual point too far out")
    return p.p_x - row, p.p_y - col, p.t - metric_mass


def dual_hessian(dp: DualPoint, p: DiscreteProblem, cap: int = HESSIAN_CAP) -> np.ndarray:
    """Dense (M+N+1)^2 Hessian; refuses above the size cap."""
    m, n = p.m, p.n
    if m + n + 1 > cap:
        raise UnsupportedConfigurationError(
            f"Hessian size {m + n + 1} exceeds the cap {cap}")
    q = coupling_from_dual(dp, p.d).dense()
    dq = p.d * q
    h = np.zeros((m + n + 1, m + n + 1))
    h[:m, :m] = np.diag(q.sum(axis=1))
    h[:m, m:m + n] = q
    h[m:m + n, :m] = q.T
    h[m:m + n, m:m + n] = np.diag(q.sum(axis=0))
    v_row = dq.sum(axis=1)
    v_col = dq.sum(axis=0)
    h[:m, -1] = v_row
    h[-1, :m] = v_row
    h[m:m + n, -1] = v_col
    h[-1, m:m + n] = v_col
    h[-1, -1] = float((p.d * dq).sum())
    return h


# --------------------------------------------------------------------------
# scaling-kernel rank checks
# --------------------------------------------------------------------------


def gauge_vector(m: int, n: int) -> np.ndarray:
    k = np.concatenate([np.ones(m), -np.ones(n), [0.0]])
    return k / np.linalg.norm(k)


def scaling_constraint_matrix(d: np.ndarray) -> np.ndarray:
    """MN x (M+N+1) matrix whose rows read (e_i, e_j, d_ij), row-major in (i, j).

    Its null space is exactly the flat subspace of the dual objective.
    """
    m, n = d.shape
    mn = m * n
    a = np.zeros((mn, m + n + 1))
    rows = np.arange(mn)
    a[rows, np.repeat(np.arange(m), n)] = 1.0
    a[rows, m + np.tile(np.arange(n), m)] = 1.0
    a[:, m + n] = d.ravel()
    return a


def scaling_null_space(d: np.ndarray, rel_tol: float = 1e-10) -> dict:
    """SVD-based null space summary of the scaling constraint matrix.

    Returns {singular_values, rank, null_dim, null_basis, degenerate};
    degenerate means the flat subspace is larger than the gauge line,
    which happens exactly when the metric is additively separable (a
    constant metric being the canonical case).
    """
    a = scaling_constraint_matrix(d)
    # a thin SVD has all M+N+1 rows of vt whenever MN >= M+N+1, and never
    # builds the MN x MN left factor
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    cutoff = rel_tol * s[0]
    rank = int((s > cutoff).sum())
    cols = a.shape[1]
    null_basis = vt[rank:].T
    return {
        "singular_values": s,
        "rank": rank,
        "null_dim": cols - rank,
        "null_basis": null_basis,
        "degenerate": cols - rank != 1,
    }


# --------------------------------------------------------------------------
# damped Newton oracle
# --------------------------------------------------------------------------


def _g_raw(alpha, beta, lam, p):
    g = _evaluate(alpha, beta, lam, p).dual_objective
    return g if math.isfinite(g) else math.inf


def _solve_newton_step(h, grad, k_hat):
    """Solve (H + k k^T + damping) s = -grad; the gradient is orthogonal to
    the gauge vector, so the rank-one term pins the flat direction without
    touching the solution component that matters."""
    reg = np.outer(k_hat, k_hat)
    damping = 0.0
    scale = max(float(np.trace(h)) / h.shape[0], 1e-30)
    for _ in range(12):
        try:
            c = np.linalg.cholesky(h + reg + damping * scale * np.eye(h.shape[0]))
            step = -np.linalg.solve(c.T, np.linalg.solve(c, grad))
            return step
        except np.linalg.LinAlgError:
            damping = max(damping * 10.0, 1e-12)
    raise NumericalFailureError("Newton system could not be factorized")


def newton_oracle(p: DiscreteProblem, tol: float = 1e-10, max_iters: int = 200,
                  start: DualPoint | None = None,
                  hessian_cap: int = HESSIAN_CAP) -> SolveReport:
    """Second-order dual solve, independent of the alternating-scaling path.

    Active-set treatment of lam >= 0: first minimize with lam frozen at
    zero; if the multiplier gradient is negative there the capacity
    constraint binds, and the oracle re-solves with lam free (kept
    positive by the line search).  Steps solve the gauge-pinned Newton
    system with backtracking on the dual objective.
    """
    m, n = p.m, p.n
    if m + n + 1 > hessian_cap:
        raise UnsupportedConfigurationError(
            f"oracle needs the dense Hessian; size {m + n + 1} exceeds {hessian_cap}")
    if start is None:
        alpha = np.zeros(m)
        beta = np.zeros(n)
        lam_restart = 1.0
    else:
        alpha = start.alpha.copy()
        beta = start.beta.copy()
        lam_restart = start.lam if start.lam > 0 else 1.0

    g_init = _g_raw(alpha, beta, 0.0, p)
    trace: list = []
    status = SolveStatus.MAX_ITERS
    failure_reason = None
    failed_iteration = None

    def record(alpha, beta, lam):
        trace.append(_evaluate(alpha, beta, lam, p, len(trace) + 1))

    def minimize(alpha, beta, lam, lam_free, budget):
        # with lam frozen, the lam row and column of the system drop out
        size = m + n + 1 if lam_free else m + n
        k_hat = gauge_vector(m, n)[:size]
        g_cur = _g_raw(alpha, beta, lam, p)
        for _ in range(budget):
            dp = DualPoint(alpha, beta, lam)
            ga, gb, gl = dual_gradient(dp, p)
            grad = np.concatenate([ga, gb, [gl]])[:size]
            grad_proj = grad - np.dot(grad, k_hat) * k_hat
            if float(np.abs(grad_proj).max()) <= tol:
                return alpha, beta, lam, True
            h = dual_hessian(dp, p, cap=hessian_cap)[:size, :size]
            step = _solve_newton_step(h, grad, k_hat)
            slope = float(np.dot(grad, step))
            if slope >= 0.0:
                step = -grad_proj
                slope = float(np.dot(grad, step))
            t_step = 1.0
            if lam_free and step[-1] < 0.0:
                t_step = min(1.0, 0.95 * lam / -step[-1])
            accepted = False
            while t_step > 1e-20:
                a_try = alpha + t_step * step[:m]
                b_try = beta + t_step * step[m:m + n]
                l_try = lam + t_step * step[-1] if lam_free else lam
                g_try = _g_raw(a_try, b_try, l_try, p)
                if g_try <= g_cur + 1e-4 * t_step * slope:
                    alpha, beta, lam, g_cur = a_try, b_try, l_try, g_try
                    accepted = True
                    break
                t_step *= 0.5
            if not accepted:
                raise NumericalFailureError("Newton line search failed to decrease",
                                            iteration=len(trace) + 1)
            record(alpha, beta, lam)
        return alpha, beta, lam, False

    try:
        alpha, beta, lam, done_eq = minimize(alpha, beta, 0.0, lam_free=False,
                                             budget=max_iters)
        _, _, gl = dual_gradient(DualPoint(alpha, beta, 0.0), p)
        lam = 0.0
        done = done_eq
        if gl < 0.0:
            # constraint binds: re-solve with the multiplier free
            budget_left = max(max_iters - len(trace), 10)
            alpha, beta, lam, done = minimize(alpha, beta, lam_restart,
                                              lam_free=True, budget=budget_left)
        if done:
            status = SolveStatus.CONVERGED
    except NumericalFailureError as err:
        status = SolveStatus.NUMERICAL_FAILURE
        failure_reason = str(err)
        failed_iteration = err.iteration

    dp = gauge_normalize(DualPoint(alpha, beta, lam))
    final = _evaluate(dp.alpha, dp.beta, lam, p)
    return SolveReport(
        solution=coupling_from_dual(dp, p.d),
        lm_rate_nats=final.lm_rate_nats,
        lambda_final=lam,
        iterations=len(trace),
        residual_trace=trace,
        status=status,
        dual_objective=final.dual_objective,
        dual_objective_init=g_init,
        tau=None,
        strategy="newton",
        lambda_init=0.0,
        failed_iteration=failed_iteration,
        failure_reason=failure_reason,
    )


def reference_dual_value(p: DiscreteProblem, hessian_cap: int = HESSIAN_CAP):
    """Best available reference optimum (g_star, source_string)."""
    if p.m + p.n + 1 <= hessian_cap and p.d.size <= DENSE_CAP:
        report = newton_oracle(p, tol=1e-12)
        return report.dual_objective, "newton_oracle(tol=1e-12)"
    from .sinkhorn import SolverConfig, solve

    report = solve(p, SolverConfig(max_iters=5000, tol=1e-14))
    return report.dual_objective, "extended_scaling(max_iters=5000)"


# --------------------------------------------------------------------------
# classical mismatched-decoding dual
# --------------------------------------------------------------------------


@dataclass
class ScarlettDualPoint:
    """Point of the classical dual: a tilt zeta >= 0 and per-input shifts a."""

    zeta: float
    a: np.ndarray

    def __post_init__(self):
        self.a = np.ascontiguousarray(self.a, dtype=np.float64)
        if not (self.zeta >= 0.0):
            raise ValueError(f"zeta must be nonnegative, got {self.zeta!r}")


def scarlett_dual_value(sp: ScarlettDualPoint, p: DiscreteProblem) -> float:
    """Classical dual objective (nats); every point lower-bounds the rate."""
    w_t = np.ascontiguousarray((p.p_x[:, None] * p.w).T)
    d_t = np.ascontiguousarray(p.d.T)
    return _kernels.mismatch_dual_value(w_t, sp.a, np.log(p.p_x), sp.zeta, d_t)


def scarlett_point_from_coupling(q: Coupling, p: DiscreteProblem) -> ScarlettDualPoint:
    """Map a scaled-coupling optimum to the classical dual variables:
    zeta is the capacity multiplier, exp(a_i) = phi_i / p_x_i."""
    return ScarlettDualPoint(zeta=q.lam, a=q.log_phi - np.log(p.p_x))


# --------------------------------------------------------------------------
# sub-linear convergence certificate
# --------------------------------------------------------------------------


@dataclass
class ConvergenceCertificate:
    """Constants and verdict of the 1/iteration convergence bound

        1/e_(l+1) >= 1/e_0 + (l+1) / (8 * s0^2 * (1 + l_lambda))

    with e_l the dual gap at iteration l, checked at every recorded row.
    """

    m_d: float
    delta: float
    l_lambda: float
    m_lambda: float
    c_d: float
    m0: float
    s0: float
    e0: float
    bound_satisfied: bool
    worst_margin: float
    g_star: float
    g_star_source: str

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


_GAP_FLOOR = 1e-300


def certificate(report: SolveReport, p: DiscreteProblem, g_star: float,
                g_star_source: str = "newton_oracle") -> ConvergenceCertificate:
    """Build and verify the certificate from a projected-step solve trace.

    All constants are computed a posteriori from the realized multiplier
    path; the reference optimum g_star must come from an independent
    solver.  Raises InconsistentOracleError when any recorded dual value
    undershoots g_star by more than 1e-10.
    """
    if report.tau is None:
        raise ValueError("certificate requires a projected-gradient trace "
                         "(report.tau is unset for root-find runs)")
    if not report.residual_trace:
        raise ValueError("certificate requires a non-empty trace")
    tau = report.tau
    lams = [report.lambda_init] + [r.lam for r in report.residual_trace]
    deltas = [abs(b - a) for a, b in zip(lams, lams[1:])]
    delta = max(deltas) if deltas else 0.0
    m_d = p.d_max
    l_lambda = m_d * m_d * math.exp(delta * m_d)
    m_lambda = max(lams) / 2.0
    log_c_d = -2.0 * m_d * m_lambda
    c_d = math.exp(log_c_d) if log_c_d > -745.0 else 0.0
    m0 = max(m_lambda / (tau * l_lambda), 2.0 * m_d / l_lambda)
    ratio = min(float(p.p_x.min()) / float(p.p_x.max()),
                float(p.p_y.min()) / float(p.p_y.max()))
    s0 = max(m0, -(log_c_d + math.log(ratio)))

    gaps = [report.dual_objective_init - g_star] + [
        r.dual_objective - g_star for r in report.residual_trace]
    worst_gap = min(gaps)
    if worst_gap < -1e-10:
        raise InconsistentOracleError(
            f"trace dual value undershoots the reference optimum by {-worst_gap:.3e}; "
            "the reference cannot be optimal")
    slope = 1.0 / (8.0 * s0 * s0 * (1.0 + l_lambda))
    inv_e0 = 1.0 / max(gaps[0], _GAP_FLOOR)
    worst_margin = math.inf
    for step_count, gap in enumerate(gaps[1:], start=1):
        margin = 1.0 / max(gap, _GAP_FLOOR) - inv_e0 - step_count * slope
        if margin < worst_margin:
            worst_margin = margin
    return ConvergenceCertificate(
        m_d=m_d, delta=delta, l_lambda=l_lambda, m_lambda=m_lambda, c_d=c_d,
        m0=m0, s0=s0, e0=gaps[0], bound_satisfied=bool(worst_margin >= 0.0),
        worst_margin=worst_margin, g_star=g_star, g_star_source=g_star_source)
