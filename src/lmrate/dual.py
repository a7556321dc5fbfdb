"""Dual machinery: objective, derivatives, an independent Newton oracle,
the classical mismatched-decoding dual, and sub-linear convergence
certificates for the alternating-scaling trace.

The dual variables, objective, Hessian and the damped Newton loop live in
``_newton`` (the scaling solver hands its root runs to the same loop) and
are bound here as well.  Shifting (alpha, beta) by (+s, -s) leaves the
coupling unchanged; this gauge direction (1_M, -1_N, 0) is the only flat
direction of the dual for metrics that are not additively separable
(see ``scaling_null_space``), which is what makes the projected Newton
oracle well posed.

At lam = 0 the product coupling p_x (x) p_y minimizes the dual in closed
form; the Newton oracle starts there and runs one damped Newton phase over
(alpha, beta, lam) only when that coupling breaks the metric constraint by
more than tol, each step eliminating the arrowhead Hessian's column block,
on the column-centred metric (see ``newton_oracle``).
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._newton import (DualHessian, DualPoint, _newton_step, _project, _sweep,  # noqa: F401
                      coupling_from_dual, descend, dual_hessian, from_coupling,
                      gauge_vector)
from .channel import DiscreteProblem
from .errors import InconsistentOracleError, NumericalFailureError
from .problem import Coupling, balance_gauge, product_coupling
from .sinkhorn import SolveReport, SolveStatus

# Newton steps of one newton_oracle run; the seed-0 oracle-cert runs take 5
# to 7 at tol 1e-10 and 1e-12
ORACLE_MAX_STEPS = 200


def dual_objective(dp: DualPoint, p: DiscreteProblem) -> float:
    return _sweep(dp, p, hessian=False)[1].dual_objective


def dual_gradient(dp: DualPoint, p: DiscreteProblem):
    """(d/dalpha, d/dbeta, d/dlam) of the dual objective."""
    grad = _sweep(dp, p, hessian=False)[0]
    return grad[:p.m], grad[p.m:-1], float(grad[-1])


def gauge_normalize(dp: DualPoint) -> DualPoint:
    """Shift along the gauge so sum(alpha) == sum(beta); idempotent."""
    lphi, lpsi = balance_gauge(-dp.alpha - 0.5, -dp.beta - 0.5)
    return DualPoint(alpha=-lphi - 0.5, beta=-lpsi - 0.5, lam=dp.lam)


# --------------------------------------------------------------------------
# scaling-kernel rank checks
# --------------------------------------------------------------------------


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


def scaling_null_space(d: np.ndarray) -> dict:
    """SVD-based null space summary of the scaling constraint matrix, whose
    rank counts the singular values above 1e-10 times the largest.

    Returns {singular_values, rank, null_dim, null_basis, degenerate};
    degenerate means the flat subspace is larger than the gauge line,
    which happens exactly when the metric is additively separable (a
    constant metric being the canonical case).
    """
    a = scaling_constraint_matrix(d)
    # a thin SVD has all M+N+1 rows of vt whenever MN >= M+N+1, and never
    # builds the MN x MN left factor
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank = int((s > 1e-10 * s[0]).sum())
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


def newton_oracle(p: DiscreteProblem, tol: float = 1e-10) -> SolveReport:
    """Second-order dual solve, independent of the alternating-scaling path.

    Active-set treatment of lam >= 0: if the multiplier gradient t - sum d q
    is at least -tol at the product coupling (the lam = 0 optimum, rate 0 and
    dual value H(p_x) + H(p_y)), that coupling is the answer after 0 steps.
    Otherwise the damped Newton loop (``_newton.descend``) runs until the
    gauge-projected gradient's max-norm is at most tol, for at most
    ORACLE_MAX_STEPS steps (status MAX_ITERS past them).  It runs on the
    column-centred metric d_c = d - min_i d with t - <min_i d, p_y>, an
    exact change of variables (beta_c = beta + lam min_i d, the coupling
    and the dual value unchanged), from the product point at
    lam = 1 / E[d_c] under p_x (x) p_y (1 when that is 0): a start that
    scales with the metric and is not the GMI tilt ``solve`` starts from.
    Its trace rows are the centred instance's; the solution is mapped back.
    """
    k_hat = gauge_vector(p.m, p.n)

    def done(grad, _row):
        return float(np.abs(_project(grad, k_hat)).max()) <= tol

    zero = from_coupling(product_coupling(p))
    ga, gb, gl = dual_gradient(zero, p)
    trace: list = []
    failure = None
    if gl >= -tol:
        dp, rate, g = zero, 0.0, p.h_x + p.h_y
        converged = done(np.concatenate([ga, gb, [0.0]]), None)
    else:
        low = p.d.min(axis=0)
        centred = dataclasses.replace(p, d=p.d - low, t=p.t - _kernels.vdot(low, p.p_y),
                                      axes=None)
        mean = float(p.p_x @ centred.d @ p.p_y)
        dp = DualPoint(zero.alpha, zero.beta, 1.0 / mean if mean > 0.0 else 1.0)
        dp, row, converged, failure = descend(dp, centred, ORACLE_MAX_STEPS, done, trace)
        dp = DualPoint(dp.alpha, dp.beta - dp.lam * low, dp.lam)
        rate, g = row.lm_rate_nats, row.dual_objective

    return SolveReport(
        solution=coupling_from_dual(gauge_normalize(dp), p.d),
        lm_rate_nats=rate,
        lambda_final=dp.lam,
        iterations=len(trace),
        residual_trace=trace,
        status=SolveStatus.of_run(failure, converged),
        dual_objective=g,
        dual_objective_init=p.h_x + p.h_y,
        tau=None,
        strategy="newton",
        lambda_init=0.0,
        failed_iteration=failure and failure.iteration,
        failure_reason=failure and str(failure),
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
        if not (0.0 <= self.zeta < math.inf):
            raise ValueError(f"zeta must be finite and nonnegative, got {self.zeta!r}")
        if self.a.ndim != 1 or not np.all(np.isfinite(self.a)):
            raise ValueError("a must be a finite 1-D array")


def scarlett_dual_value(sp: ScarlettDualPoint, p: DiscreteProblem) -> float:
    """Classical dual objective (nats); every point lower-bounds the rate."""
    if sp.a.shape != (p.m,):
        raise ValueError(f"a has shape {sp.a.shape}, the instance has {p.m} inputs")
    return _kernels.mismatch_dual_value(p.joint, sp.a, np.log(p.p_x), sp.zeta, p.d,
                                        p.axes)[0]


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
