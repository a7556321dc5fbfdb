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
constraint, each step eliminating the arrowhead Hessian's column block.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .channel import DiscreteProblem
from .errors import EvaluationError, InconsistentOracleError, NumericalFailureError
from .problem import Coupling, balance_gauge, evaluate, product_coupling
from .sinkhorn import SolveReport, SolveStatus


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
    The sweep is its own overflow guard: raises EvaluationError when an exp,
    a sum of the sweep or the evaluation overflows."""
    lphi, lpsi = -dp.alpha - 0.5, -dp.beta - 0.5
    try:
        with np.errstate(over="raise", invalid="raise"):
            stats = _kernels.coupling_stats(lphi, lpsi, dp.lam, p.d)
            row = evaluate(lphi, lpsi, dp.lam, p, it, stats)
    except FloatingPointError:
        raise EvaluationError("dual point too far out: its coupling sums overflow") from None
    return np.concatenate([p.p_x - stats[0], p.p_y - stats[1], [p.t - stats[2]]]), row


def dual_objective(dp: DualPoint, p: DiscreteProblem) -> float:
    return _sweep(dp, p)[1].dual_objective


def dual_gradient(dp: DualPoint, p: DiscreteProblem):
    """(d/dalpha, d/dbeta, d/dlam) of the dual objective."""
    grad = _sweep(dp, p)[0]
    return grad[:p.m], grad[p.m:-1], float(grad[-1])


class DualHessian(NamedTuple):
    """Arrowhead dual Hessian in (alpha, beta, lam) order: the coupling q, whose
    sums fill the diagonal blocks, u = (d q) 1, v = (d q)^T 1, w = sum d^2 q."""

    q: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: float

    def dense(self) -> np.ndarray:
        q, u, v, w = self
        return np.block([[np.diag(q.sum(axis=1)), q, u[:, None]],
                         [q.T, np.diag(q.sum(axis=0)), v[:, None]],
                         [u[None, :], v[None, :], np.array([[w]])]])


def dual_hessian(dp: DualPoint, p: DiscreteProblem) -> DualHessian:
    """The Hessian at a dual point, as its arrowhead blocks."""
    q = coupling_from_dual(dp, p.d).dense()
    dq = p.d * q
    return DualHessian(q, dq.sum(axis=1), dq.sum(axis=0), float((p.d * dq).sum()))


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


def _newton_step(h: DualHessian, grad):
    """Solve (H + delta I) s = -grad, delta = 1e-12 trace(H) / (M+N+1), by
    eliminating s_beta = (-g_beta - Q^T s_alpha - v s_lam) / (c + delta): the
    (M+1)-square Schur complement is built from Q / sqrt(c + delta) in
    O(M^2 N).  The gradient is orthogonal to the gauge vector, an eigenvector
    of H + delta I, so no gauge pin is needed."""
    q, u, v, w = h
    m, r, c = q.shape[0], q.sum(axis=1), q.sum(axis=0)
    delta = 1e-12 * (r.sum() + c.sum() + w) / (m + c.size + 1)
    inv_c = 1.0 / (c + delta)
    g = q * np.sqrt(inv_c)
    schur = np.empty((m + 1, m + 1))
    schur[:m, :m] = np.diag(r + delta) - g @ g.T
    schur[:m, m] = schur[m, :m] = u - q @ (v * inv_c)
    schur[m, m] = w + delta - v @ (v * inv_c)
    gb_c = grad[m:-1] * inv_c
    rhs = np.append(q @ gb_c - grad[:m], v @ gb_c - grad[-1])
    try:
        x = np.linalg.solve(schur, rhs)
    except np.linalg.LinAlgError as err:
        raise NumericalFailureError(f"Newton system could not be solved: {err}") from None
    s_beta = -(gb_c + (x[:m] @ q + v * x[m]) * inv_c)
    step = np.concatenate([x[:m], s_beta, x[m:]])
    if not np.isfinite(step).all():
        raise NumericalFailureError("Newton step is not finite")
    return step


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
                  start: DualPoint | None = None) -> SolveReport:
    """Second-order dual solve, independent of the alternating-scaling path.

    Active-set treatment of lam >= 0: if the multiplier gradient t - sum d q
    is nonnegative at the product coupling (the lam = 0 optimum, rate 0 and
    dual value H(p_x) + H(p_y)), that coupling is the answer after 0 steps.
    Otherwise damped Newton on (alpha, beta, lam) runs from the product point
    at lam = 1, or from ``start`` (lam 0 restarts at 1): Schur-complement
    Newton steps, Armijo backtracking with lam kept positive, and one sweep per
    trial point, whose accepted one gives the trace row and next gradient.
    """
    k_hat = gauge_vector(p.m, p.n)
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
                step = _newton_step(dual_hessian(dp, p), grad)
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


def reference_dual_value(p: DiscreteProblem):
    """Reference optimum (g_star, source_string) from a converged oracle run;
    raises NumericalFailureError when the oracle does not converge."""
    report = newton_oracle(p, tol=1e-12)
    if not report.converged:
        raise NumericalFailureError(
            f"reference oracle did not converge: status {report.status.value}, "
            f"failure_reason {report.failure_reason!r}")
    return report.dual_objective, "newton_oracle(tol=1e-12)"


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
    return _kernels.mismatch_dual_value(p.p_x[:, None] * p.w, sp.a, np.log(p.p_x),
                                        sp.zeta, p.d)[0]


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
