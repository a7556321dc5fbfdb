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

At lam = 0 the minimizer of g is the product coupling p_x (x) p_y in
closed form; the Newton oracle starts there and runs one damped Newton
phase over (alpha, beta, lam) only when that coupling breaks the metric
constraint.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channel import DiscreteProblem
from .errors import (EvaluationError, InconsistentOracleError,
                     NumericalFailureError, UnsupportedConfigurationError)
from .problem import DENSE_CAP, Coupling, balance_gauge, evaluate, product_coupling
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


def _sweep(dp: DualPoint, p: DiscreteProblem, it=0):
    """One coupling_stats sweep at a dual point: the full gradient
    (d/dalpha, d/dbeta, d/dlam) as one vector, and the point's TraceRow.
    Raises EvaluationError, before any exp, if a sum of the sweep could overflow."""
    lphi, lpsi = -dp.alpha - 0.5, -dp.beta - 0.5
    # each sum is at most MN * max(d_max^2, log q, 1) times the largest entry q
    log_cap = 709.0 - math.log(p.d.size * 710.0 * max(p.d_max, 1.0) ** 2)
    if _kernels.max_exponent(lphi, lpsi, dp.lam, p.d) > log_cap:
        raise EvaluationError("dual point too far out: its coupling sums would overflow")
    stats = _kernels.coupling_stats(lphi, lpsi, dp.lam, p.d)
    row, col, _, metric_mass, _, _ = stats
    grad = np.concatenate([p.p_x - row, p.p_y - col, [p.t - metric_mass]])
    return grad, evaluate(lphi, lpsi, dp.lam, p, it, stats)


def dual_objective(dp: DualPoint, p: DiscreteProblem) -> float:
    return _sweep(dp, p)[1].dual_objective


def dual_gradient(dp: DualPoint, p: DiscreteProblem):
    """(d/dalpha, d/dbeta, d/dlam) of the dual objective."""
    grad = _sweep(dp, p)[0]
    return grad[:p.m], grad[p.m:-1], float(grad[-1])


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


def _line_search(dp, step, slope, g_cur, p, it):
    """Armijo backtracking from the full step, or from 0.95 of the way to
    lam = 0 when the step lowers lam; the accepted (point, gradient, row)."""
    m = dp.alpha.size
    t_step = 1.0
    if step[-1] < 0.0:
        t_step = min(1.0, 0.95 * dp.lam / -step[-1])
    while t_step > 1e-20:
        trial = DualPoint(dp.alpha + t_step * step[:m], dp.beta + t_step * step[m:-1],
                          dp.lam + t_step * step[-1])
        try:
            grad, row = _sweep(trial, p, it)
        except EvaluationError:
            pass                # far out: its objective is beyond every bound here
        else:
            if row.dual_objective <= g_cur + 1e-4 * t_step * slope:
                return trial, grad, row
        t_step *= 0.5
    raise NumericalFailureError("Newton line search failed to decrease", iteration=it)


def _project(grad, k_hat):
    """The part of a gradient orthogonal to the gauge direction."""
    return grad - np.dot(grad, k_hat) * k_hat


def newton_oracle(p: DiscreteProblem, tol: float = 1e-10, max_iters: int = 200,
                  start: DualPoint | None = None,
                  hessian_cap: int = HESSIAN_CAP) -> SolveReport:
    """Second-order dual solve, independent of the alternating-scaling path.

    Active-set treatment of lam >= 0: if the multiplier gradient t - sum d q
    is nonnegative at the product coupling (the lam = 0 optimum, rate 0 and
    dual value H(p_x) + H(p_y)), that coupling is the answer after 0 steps.
    Otherwise damped Newton on (alpha, beta, lam) runs from the product point
    at lam = 1, or from ``start`` (lam 0 restarts at 1): gauge-pinned Newton
    steps, Armijo backtracking with lam kept positive, and one sweep per
    trial point, whose accepted one gives the trace row and next gradient.
    """
    m, n = p.m, p.n
    if m + n + 1 > hessian_cap:
        raise UnsupportedConfigurationError(
            f"oracle needs the dense Hessian; size {m + n + 1} exceeds {hessian_cap}")
    k_hat = gauge_vector(m, n)
    zero = from_coupling(product_coupling(p))
    ga, gb, gl = dual_gradient(zero, p)
    trace: list = []
    failure_reason = None
    failed_iteration = None
    if gl >= 0.0:
        # slack constraint: the product coupling is optimal
        dp, rate, g = zero, 0.0, p.h_x + p.h_y
        grad = np.concatenate([ga, gb, [0.0]])
    else:
        base = zero if start is None else start
        dp = DualPoint(base.alpha, base.beta, base.lam or 1.0)
        grad, row = _sweep(dp, p)
        try:
            for it in range(1, max_iters + 1):
                grad_proj = _project(grad, k_hat)
                if float(np.abs(grad_proj).max()) <= tol:
                    break
                step = _solve_newton_step(dual_hessian(dp, p, cap=hessian_cap), grad, k_hat)
                slope = float(np.dot(grad, step))
                if slope >= 0.0:
                    step = -grad_proj
                    slope = float(np.dot(grad, step))
                dp, grad, row = _line_search(dp, step, slope, row.dual_objective, p, it)
                trace.append(row)
        except NumericalFailureError as err:
            failure_reason = str(err)
            failed_iteration = err.iteration
        rate, g = row.lm_rate_nats, row.dual_objective

    if failure_reason is not None:
        status = SolveStatus.NUMERICAL_FAILURE
    elif float(np.abs(_project(grad, k_hat)).max()) <= tol:
        status = SolveStatus.CONVERGED
    else:
        status = SolveStatus.MAX_ITERS
    return SolveReport(
        solution=coupling_from_dual(gauge_normalize(dp), p.d),
        lm_rate_nats=rate,
        lambda_final=dp.lam,
        iterations=len(trace),
        residual_trace=trace,
        status=status,
        dual_objective=g,
        dual_objective_init=p.h_x + p.h_y,
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
