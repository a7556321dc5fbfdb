"""Factored couplings and the rate objective.

A coupling is kept in scaled-exponential form

    q_ij = exp(log_phi_i + log_psi_j - lam * d_ij)

and is never materialized by the evaluation routines; reductions stream
over the metric via the kernels module.  The rate objective in nats is

    lm_rate = sum_ij q_ij log q_ij + H(p_x) + H(p_y)

which equals the KL divergence of the coupling from the product of its
target marginals when the coupling is feasible.  ``evaluate`` turns one
sweep over a coupling (marginals and metric moments, ``_stats``) into
every number the solvers report about it; ``Coupling.stats`` gives the
sums themselves.  A ``Coupling`` is the iterate of the public step API
(``sinkhorn``) and the solution of every solver, which return the
representative of its scaling gauge that ``balance_gauge`` picks.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import EvaluationError, UnsupportedConfigurationError

# largest coupling that dense() will expand, and above which solve makes no
# Newton hand-off; both read it at call time
DENSE_CAP = 10**7


@dataclass
class Coupling:
    """Scaled-exponential coupling over an M x N metric.

    log_phi / log_psi are the logs of the positive row/column scalings;
    lam is the nonnegative capacity multiplier; d is a reference to the
    metric matrix (not copied).
    """

    log_phi: np.ndarray
    log_psi: np.ndarray
    lam: float
    d: np.ndarray

    def __post_init__(self):
        self.log_phi = np.ascontiguousarray(self.log_phi, dtype=np.float64)
        self.log_psi = np.ascontiguousarray(self.log_psi, dtype=np.float64)
        if self.log_phi.shape != (self.d.shape[0],) or self.log_psi.shape != (self.d.shape[1],):
            raise ValueError("scaling lengths must match the metric shape")
        if not (np.all(np.isfinite(self.log_phi)) and np.all(np.isfinite(self.log_psi))):
            raise EvaluationError("scaling factors must be finite and positive")
        if not (self.lam >= 0.0 and np.isfinite(self.lam)):
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam!r}")

    def stats(self):
        """(row_marginal, col_marginal, mass, metric_mass, neg_entropy)."""
        return _stats(self.log_phi, self.log_psi, self.lam, self.d)

    def dense(self) -> np.ndarray:
        """Materialize q as an (M, N) array, exponentiated block by block into
        it, so it is the only M x N array made; refuses above DENSE_CAP
        entries."""
        if self.d.size > DENSE_CAP:
            raise UnsupportedConfigurationError(
                f"coupling has {self.d.size} entries, above the dense cap {DENSE_CAP}")
        q = np.empty(self.d.shape)
        for lo, e in _kernels.exponent_blocks(self.log_phi, self.log_psi, self.lam, self.d):
            np.exp(e, out=q[lo:lo + e.shape[0]])
        return q


def _stats(log_phi, log_psi, lam, d, stats=None, axes=None):
    """(row, col, mass, metric_mass, neg_entropy) from a coupling_stats sweep
    at (log_phi, log_psi, lam), made here (with the metric's GridAxes
    ``axes``, if any) when ``stats`` is None: log q_ij
    summed against q gives sum q log q = <row, log_phi> + <col, log_psi>
    - lam * metric_mass, and the mass is the row marginal's sum."""
    if stats is None:
        stats = _kernels.coupling_stats(log_phi, log_psi, lam, d, axes)
    row, col, metric_mass = stats[:3]
    return (row, col, float(row.sum()), metric_mass,
            _kernels.vdot(row, log_phi) + _kernels.vdot(col, log_psi) - lam * metric_mass)


@dataclass
class TraceRow:
    iter: int
    r_phi: float
    r_psi: float
    r_lambda: float
    dual_objective: float
    lm_rate_nats: float
    lam: float


def evaluate(log_phi, log_psi, lam, p, it=0, stats=None) -> TraceRow:
    """Residuals, dual value and rate of a factored coupling, from one sweep.

    r_phi / r_psi are the L1 marginal gaps and r_lambda the multiplier
    residual on the metric less its minimum, the excess of d - d_min against
    t - d_min:

        r_lambda = |(sum d q - t) - d_min * (mass - 1)|

    taken as zero at lam = 0 with negative excess (the constraint is simply
    inactive there).  It leaves out the coupling's mass error times d_min,
    which a metric offset scales up: on qpsk at grid 10 shifted by 2000 the
    raw excess |sum d q - t| sat at 1.3e-10 to 3.8e-10 on Newton rows whose
    rate was within 1e-12 nats of the optimum.  The raw excess is at most
    r_lambda + |d_min| r_phi.  The dual value is

        g = mass - <p_x, log_phi> - <p_y, log_psi> - 1 + lam * t

    and the rate sum q log q + H(p_x) + H(p_y), with the mass and sum q log q
    derived from the sweep by ``_stats``.  Non-finite sums are passed
    through for the caller to judge.  ``stats`` is a coupling_stats result,
    or its first three sums (_kernels.projected_sweep's), already taken at
    (log_phi, log_psi, lam); without it the sweep is made,
    through p.axes when the instance has them.  The numbers are plain floats,
    whatever scalar type ``lam`` comes as.
    """
    lam = float(lam)
    row, col, mass, metric_mass, neg_entropy = _stats(log_phi, log_psi, lam, p.d, stats, p.axes)
    excess = (metric_mass - p.t) - p.d_min * (mass - 1.0)
    return TraceRow(
        iter=it,
        r_phi=float(np.abs(row - p.p_x).sum()),
        r_psi=float(np.abs(col - p.p_y).sum()),
        r_lambda=0.0 if (lam == 0.0 and excess < 0.0) else abs(excess),
        dual_objective=(mass - _kernels.vdot(p.p_x, log_phi)
                        - _kernels.vdot(p.p_y, log_psi) - 1.0 + lam * p.t),
        lm_rate_nats=neg_entropy + p.h_x + p.h_y,
        lam=lam)


def balance_gauge(log_phi, log_psi):
    """Shift along the scaling gauge (+s, -s), which leaves the coupling
    unchanged, so that the dual shifts alpha = -log_phi - 1/2 and
    beta = -log_psi - 1/2 have equal sums; idempotent."""
    m = log_phi.shape[0]
    n = log_psi.shape[0]
    s = (log_psi.sum() - log_phi.sum() + 0.5 * (n - m)) / (m + n)
    return log_phi + s, log_psi - s


def shannon_entropy(p: np.ndarray) -> float:
    """H(p) = -sum p log p in nats; requires strictly positive entries."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0):
        raise EvaluationError("entropy requires strictly positive probabilities")
    return -_kernels.vdot(p, np.log(p))


def lm_rate(q: Coupling, p, feasibility_tol: float | None = None) -> float:
    """Rate value (nats) of a coupling against problem p.

    With feasibility_tol set, first verifies that both L1 marginal gaps
    are below it and raises EvaluationError otherwise.
    """
    row = evaluate(q.log_phi, q.log_psi, q.lam, p)
    if feasibility_tol is not None and max(row.r_phi, row.r_psi) > feasibility_tol:
        raise EvaluationError(
            f"coupling infeasible: marginal gaps ({row.r_phi:.3e}, {row.r_psi:.3e}) "
            f"exceed {feasibility_tol:.3e}")
    if not np.isfinite(row.lm_rate_nats):
        raise EvaluationError("coupling evaluation overflowed")
    return row.lm_rate_nats


def product_coupling(p) -> Coupling:
    """The independent coupling p_x (x) p_y, the lam = 0 entropy minimizer."""
    return Coupling(np.log(p.p_x), np.log(p.p_y), 0.0, p.d)
