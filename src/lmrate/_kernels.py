"""Streaming reductions over the factored coupling q_ij = exp(lphi_i + lpsi_j - lam*d_ij).

Every hot loop of the solver lives here.  The kernels are vectorized numpy
taking the M x N metric as stored and working on blocks of it, so the
coupling is never materialized whole and memory stays bounded for large
grids.  A shifted (max-subtracted) reduction over the inputs takes column
blocks, so each column's maximum and sum finish in one pass; every other
kernel takes row blocks, and its sums over the inputs accumulate across them.

All kernels take log-scale factors.  Entries whose exponent falls below
the double underflow threshold contribute exactly zero to every sum, as
exp() underflows to 0.0.  A coupling sweep returns only what no identity
gives, the marginals and two metric moments; sum q log q is derived from
them, so 0*log(0) = 0 holds through the marginals without a per-entry product.

A channel-built metric splits by axis: column j is grid node (a, b) and
d_ij = d1[i, a] + d2[i, b] (GridAxes), so exp(-lam d_ij) = F_i(a) G_i(b).
Given the tables, scale_rows, scale_cols, coupling_stats and
metric_moments take their sums as small GEMMs over the n_side x n_side
grid (the separable kernel of Solomon et al., Convolutional Wasserstein
Distances, 2015): 2 M n_side + n_side^2 exps a sweep in place of M N,
about 28k against 640k for qam256 at grid 50.  Scalings are shifted by
their maximum before exp, and each coupling sum is exp of its log, so it
overflows or underflows where the plain sum would.  The factored path runs
only while lam * (max d1 + max d2) < LSE_SWITCH, which keeps every F G
product a normal double, and only on metrics of at least
FACTORED_MIN_ENTRIES entries.  That crossover is where qpsk, whose
M = 4 gains least from the factoring, starts to win.  Solve time to tol
1e-10 at 0 dB, factored over block loop, best of 7 to 11 runs on a
2-core Xeon with numpy 2.4 and OpenBLAS: 1.90 at 4 x 100 (qpsk grid 10),
1.09-1.10 at 4 x 2500 (qpsk grid 50), 1.15 at 4 x 3600, 0.91 at 4 x 4096,
0.71-0.83 at 16 x 900 and 64 x 225, and 0.34 at 16 x 2500 (qam16 grid
50).  Off the factored path, scale_rows and scale_cols hand the call to
the shifted block loop.  mismatch_dual_value and all of dual.py keep the
block loop, so the Newton oracle stays a dense cross-check of the factored
path.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Read by perfbench/run.py's environment block; there is no numba family.
USING_NUMBA = False

# Block budget: at most this many matrix entries are expanded into
# temporaries at a time.
BLOCK_ENTRIES = 1 << 22

# Metrics with fewer entries than this keep the block loop even when they
# have axis tables: below it the factored sweep's fixed per-call cost loses
# (measured crossover in the module docstring).
FACTORED_MIN_ENTRIES = 1 << 14

# Largest matrix product (in multiply-adds) handed to BLAS in one call.
# OpenBLAS runs products up to this size on one thread; threaded, the
# factored sweeps' small products gained nothing on an idle 2-core machine
# and slowed a qam256 solve 3-8x while another process held a core.
GEMM_CHUNK = 1 << 18

# The factored sweeps run while every kernel exponent -lam*d stays above
# -LSE_SWITCH; past it they keep the block loop.
LSE_SWITCH = 700.0


@dataclass(frozen=True)
class GridAxes:
    """Axis tables of a metric that splits over a square output grid.

    Column j of the M x N metric is grid node kept[j] = a * n_side + b, and
    d[i, j] = d1[i, a] + d2[i, b] with d1, d2 of shape (M, n_side).  So the
    Gibbs kernel factors, exp(-lam d[i, j]) = F[i, a] G[i, b] with
    F = exp(-lam d1) and G = exp(-lam d2).
    """

    d1: np.ndarray
    d2: np.ndarray
    kept: np.ndarray

    @cached_property
    def span(self) -> float:
        """max d1 + max d2, a bound on the metric's largest entry."""
        return float(self.d1.max() + self.d2.max())

    @cached_property
    def d1_powers(self) -> np.ndarray:
        """(3, M, n_side) stack of d1^0, d1^1, d1^2."""
        return np.stack([np.ones_like(self.d1), self.d1, self.d1 * self.d1])

    @cached_property
    def d2_powers(self) -> np.ndarray:
        """(3, M, n_side) stack of d2^0, d2^1, d2^2."""
        return np.stack([np.ones_like(self.d2), self.d2, self.d2 * self.d2])

    def grid(self, values):
        """Node values laid out on the n_side x n_side grid, pruned nodes zero."""
        n = self.d1.shape[1]
        out = np.zeros(n * n)
        out[self.kept] = values
        return out.reshape(n, n)


def _blocks(count, width):
    """Index ranges of at most BLOCK_ENTRIES // width rows (or columns) each."""
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    for lo in range(0, count, step):
        yield lo, min(count, lo + step)


def _factored(axes, lam, d):
    """True when the sweep over d at multiplier lam goes through its axis tables."""
    return (axes is not None and d.size >= FACTORED_MIN_ENTRIES
            and lam * axes.span < LSE_SWITCH)


def _matmul(a, b):
    """a @ b in row blocks of at most GEMM_CHUNK multiply-adds each."""
    rows = max(1, GEMM_CHUNK // (a.shape[1] * b.shape[1]))
    out = np.empty((a.shape[0], b.shape[1]))
    for lo in range(0, a.shape[0], rows):
        np.matmul(a[lo:lo + rows], b, out=out[lo:lo + rows])
    return out


def _gibbs_factors(axes, lam):
    return np.exp(-lam * axes.d1), np.exp(-lam * axes.d2)


def _row_dot(x, y):
    return np.einsum("ia,ia->i", x, y)


def scale_rows(lpsi, lam, d, log_px, axes=None):
    """Row scaling update: lphi_i = log_px_i - log sum_j exp(lpsi_j - lam*d_ij).

    With ``axes`` (the GridAxes of d) the sums are ((F @ Psi) * G) summed
    over each row, Psi the grid of exp(lpsi - max lpsi).  Under the
    LSE_SWITCH guard each sum lies in [exp(-LSE_SWITCH), N], so the result
    is finite; outside it the call goes to scale_rows_lse.
    """
    if _factored(axes, lam, d):
        f, g = _gibbs_factors(axes, lam)
        shift = lpsi.max()
        s = _row_dot(_matmul(f, axes.grid(np.exp(lpsi - shift))), g)
        return log_px - (shift + np.log(s))
    return scale_rows_lse(lpsi, lam, d, log_px)


def scale_rows_lse(lpsi, lam, d, log_px):
    """scale_rows as the shifted (max-subtracted) block loop: a row's largest
    term is 1, so its sum lies in [1, N].  perfbench traces it by this name."""
    m, n = d.shape
    out = np.empty(m)
    for lo, hi in _blocks(m, n):
        e = d[lo:hi] * -lam
        e += lpsi
        mx = e.max(axis=1)
        e -= mx[:, None]
        np.exp(e, out=e)
        out[lo:hi] = log_px[lo:hi] - (mx + np.log(e.sum(axis=1)))
    return out


def scale_cols(lphi, lam, d, log_py, axes=None):
    """Column scaling update, scale_rows' counterpart over the inputs.

    With ``axes`` the sums are (F^T diag(phi)) @ G read at the kept nodes,
    phi = exp(lphi - max lphi); outside the guard the call goes to
    scale_cols_lse.
    """
    if _factored(axes, lam, d):
        f, g = _gibbs_factors(axes, lam)
        shift = lphi.max()
        s = _matmul((f * np.exp(lphi - shift)[:, None]).T, g).ravel()[axes.kept]
        return log_py - (shift + np.log(s))
    return scale_cols_lse(lphi, lam, d, log_py)


def scale_cols_lse(lphi, lam, d, log_py):
    """scale_cols as the shifted block loop, one pass over column blocks."""
    m, n = d.shape
    out = np.empty(n)
    for lo, hi in _blocks(n, m):
        e = d[:, lo:hi] * -lam
        e += lphi[:, None]
        mx = e.max(axis=0)
        e -= mx
        np.exp(e, out=e)
        out[lo:hi] = log_py[lo:hi] - (mx + np.log(e.sum(axis=0)))
    return out


def _moment_sweep(lphi, lpsi, lam, d, row_marg=None, col_marg=None):
    """(sum_ij d q, sum_ij d^2 q) of the coupling, each block exponentiated and
    weighted in place; fills row_marg and adds into col_marg when given."""
    s1 = s2 = 0.0
    for lo, hi in _blocks(*d.shape):
        q = np.add.outer(lphi[lo:hi], lpsi)
        q -= lam * d[lo:hi]
        np.exp(q, out=q)
        if row_marg is not None:
            row_marg[lo:hi] = q.sum(axis=1)
            col_marg += q.sum(axis=0)
        q *= d[lo:hi]
        s1 += float(q.sum())
        q *= d[lo:hi]
        s2 += float(q.sum())
    return s1, s2


def _factored_sweep(lphi, lpsi, lam, axes, marginals):
    """_moment_sweep's sums through the axis tables.  With d = d1 + d2 the
    sum of q d^k splits into grid sums of phi F d1^p Psi G d2^q over
    p + q = k: one stacked GEMM a = [F; F d1; F d1^2] @ Psi, then inner
    products of a[p] with b[q] = phi G d2^q.  The column marginal takes a
    second GEMM.  Both scalings are shifted by their maximum, and every
    result is exp of its log, so it overflows or underflows where the plain
    sum would; an overflow is +inf here even where the block loop's
    0 * inf at an exact zero of d makes it NaN."""
    f, g = _gibbs_factors(axes, lam)
    m = lphi.shape[0]
    lphi_max, lpsi_max = lphi.max(), lpsi.max()
    phi = np.exp(lphi - lphi_max)[:, None]
    a = _matmul((axes.d1_powers * f).reshape(3 * m, -1), axes.grid(np.exp(lpsi - lpsi_max)))
    a = a.reshape(3, m, -1)
    b = axes.d2_powers * (g * phi)
    # einsum, not vdot: OpenBLAS threads dot products this long (GEMM_CHUNK)
    t = np.einsum("pia,qia->pq", a, b)
    moments = (t[1, 0] + t[0, 1], t[2, 0] + 2.0 * t[1, 1] + t[0, 2])
    with np.errstate(divide="ignore"):
        s1, s2 = np.exp(lphi_max + lpsi_max + np.log(moments)).tolist()
        if not marginals:
            return s1, s2
        row = np.exp(lphi + lpsi_max + np.log(_row_dot(a[0], g)))
        col = _matmul((f * phi).T, g).ravel()[axes.kept]
        col = np.exp(lpsi + lphi_max + np.log(col))
    return row, col, s1, s2


def coupling_stats(lphi, lpsi, lam, d, axes=None):
    """One sweep over the coupling: the sums that only a sweep can give.

    Returns (row_marg, col_marg, metric_mass, metric_moment2) with
    metric_mass = sum_ij d_ij q_ij and metric_moment2 = sum_ij d_ij^2 q_ij
    (the multiplier root solve's Newton slope, so its last candidate sweep is
    also the evaluation sweep).  problem.evaluate derives the rest.  With
    ``axes`` (the GridAxes of d) the sums go through the axis tables.
    """
    if _factored(axes, lam, d):
        return _factored_sweep(lphi, lpsi, lam, axes, marginals=True)
    row_marg, col_marg = np.empty(d.shape[0]), np.zeros(d.shape[1])
    return (row_marg, col_marg, *_moment_sweep(lphi, lpsi, lam, d, row_marg, col_marg))


def metric_moments(lphi, lpsi, lam, d, axes=None):
    """First two metric moments of the coupling taken at multiplier ``lam``.

    Returns (sum_ij d q, sum_ij d^2 q); the multiplier root solve's first
    evaluation, at its warm-start hint.  ``axes`` as for coupling_stats.
    """
    if _factored(axes, lam, d):
        return _factored_sweep(lphi, lpsi, lam, axes, marginals=False)
    return _moment_sweep(lphi, lpsi, lam, d)


def mismatch_dual_value(w, a, log_px, zeta, d):
    """Mismatched-decoding dual objective and its first two zeta-derivatives.

    w is the M x N joint weight matrix p_x[i]*w[i][j] and d the M x N
    metric, both as stored.  Returns (value, first, second) in nats:

        value  = sum_ij w_ij * [ (a_i - zeta*d_ij) - log sum_k exp(log_px_k + a_k - zeta*d_kj) ]
        first  = sum_j W_j E_post[d] - sum_ij w_ij d_ij
        second = -sum_j W_j Var_post[d]

    with W_j = sum_i w_ij and the posterior at output j the softmax over
    inputs k of log_px_k + a_k - zeta*d_kj.  One exp pass over column blocks
    gives all three; the variance is taken about the posterior mean, so it
    stays accurate when the posterior concentrates at large zeta.
    """
    m, n = d.shape
    base = (log_px + a)[:, None]
    wd = float(np.vdot(w, d))
    value = float(a @ w.sum(axis=1)) - zeta * wd
    first, second = -wd, 0.0
    for lo, hi in _blocks(n, m):
        dc = d[:, lo:hi]
        e = dc * -zeta
        e += base
        mx = e.max(axis=0)
        e -= mx
        np.exp(e, out=e)
        mass = e.sum(axis=0)
        dev = dc * e
        mean = dev.sum(axis=0) / mass
        np.subtract(dc, mean, out=dev)
        np.square(dev, out=dev)
        dev *= e
        var = dev.sum(axis=0) / mass
        weight = w[:, lo:hi].sum(axis=0)
        value -= float(weight @ (mx + np.log(mass)))
        first += float(weight @ mean)
        second -= float(weight @ var)
    return value, first, second
