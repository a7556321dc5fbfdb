"""Streaming reductions over the factored coupling q_ij = exp(lphi_i + lpsi_j - lam*d_ij).

Every hot loop of the solver lives here.  The kernels are vectorized numpy
taking the M x N metric as stored and working on blocks of it, so the
coupling is never materialized whole and memory stays bounded for large
grids.  Both scaling updates run one shifted (max-subtracted) log-sum-exp
loop, _scaled_lse, over column blocks (the row update over those of d.T),
so each column's maximum and sum finish in one pass.  The classical dual
takes the same column blocks; every other kernel takes row blocks, and its
sums over the inputs accumulate across them.

All kernels take log-scale factors.  Entries whose exponent falls below
the double underflow threshold contribute exactly zero to every sum, as
exp() underflows to 0.0.  A coupling sweep returns only what no identity
gives, the marginals and two metric moments; sum q log q is derived from
them, so 0*log(0) = 0 holds through the marginals without a per-entry product.

A channel-built metric splits by axis: column j is grid node (a, b) and
d_ij = d1[i, a] + d2[i, b] (GridAxes), so exp(-lam d_ij) = F_i(a) G_i(b).
Given the tables, every sum over the metric comes from one reduction,
_table_sums: the row sums and node sums of the kernel times d^k, as small
GEMMs over the n_side x n_side grid (the separable kernel of Solomon et
al., Convolutional Wasserstein Distances, 2015), 2 M n_side + n_side^2
exps a sweep in place of M N, about 28k against 640k for qam256 at grid
50.  It takes the scalings shifted by their maximum, and each caller puts
the shift back in log space, so a coupling sum overflows or underflows
where the plain sum would.  The factored path runs only while
lam * (max d1 + max d2) < LSE_SWITCH, which keeps every F G product a
normal double, and only on metrics of at least FACTORED_MIN_ENTRIES
entries.  That crossover is where qpsk, whose M = 4 gains least from the
factoring, starts to win.  Solve time to tol 1e-10 at 0 dB, factored over
block loop, best of 7 to 11 runs on a 2-core Xeon with numpy 2.4 and
OpenBLAS: 1.90 at 4 x 100 (qpsk grid 10), 1.09-1.10 at 4 x 2500 (qpsk grid
50), 1.15 at 4 x 3600, 0.91 at 4 x 4096, 0.71-0.83 at 16 x 900 and
64 x 225, and 0.34 at 16 x 2500 (qam16 grid 50).  The reduction's
consumers are scale_rows, scale_cols, metric_moments, coupling_stats,
mismatch_dual_value's posteriors and the Newton finish's dual Hessian
(_newton.dual_hessian); off the factored path each keeps its block loop.
factored_coupling builds the Newton step's Schur factor Q diag(s) from the
same tables as the one M x N array, with no exp over it.  The dual
objective and gradient keep the block loop, and the Newton oracle
exponentiates the dense coupling, so it stays a cross-check of the
factored path.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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

# Dense exponent blocks (exponent_blocks) hold about this many entries: the
# Newton loop's coupling and line-search cap then need no M x N temporary.
DENSE_BLOCK_ENTRIES = 1 << 15

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

    Column j of the M x N metric is grid node kept[j] = a * n_side + b, kept
    increasing, and d[i, j] = d1[i, a] + d2[i, b] with d1, d2 of shape
    (M, n_side).  So the Gibbs kernel factors, exp(-lam d[i, j]) =
    F[i, a] G[i, b] with F = exp(-lam d1) and G = exp(-lam d2).
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
        """Node values laid out on the n_side x n_side grid, pruned nodes zero;
        a view of ``values`` when no node is pruned."""
        n = self.d1.shape[1]
        if self.kept.size == n * n:
            return values.reshape(n, n)
        out = np.zeros(n * n)
        out[self.kept] = values
        return out.reshape(n, n)

    def nodes(self, grid):
        """Grids over the last two axes, n_side x n_side each, read at the kept
        nodes; a view if none is pruned."""
        flat = grid.reshape(*grid.shape[:-2], -1)
        return flat if self.kept.size == flat.shape[-1] else flat[..., self.kept]


def _blocks(count, width, entries=None):
    """Index ranges of at most entries // width rows (or columns) each,
    entries being BLOCK_ENTRIES unless given."""
    step = max(1, (entries or BLOCK_ENTRIES) // max(width, 1))
    for lo in range(0, count, step):
        yield lo, min(count, lo + step)


def exponent_blocks(a, b, lam, d, entries=DENSE_BLOCK_ENTRIES):
    """(lo, e) for row blocks of e_ij = (a_i + b_j) - lam * d_ij from row lo,
    each of at most max(N, entries) entries."""
    for lo, hi in _blocks(*d.shape, entries):
        e = np.add.outer(a[lo:hi], b)
        e -= lam * d[lo:hi]
        yield lo, e


def _column_blocks(base, lam, d):
    """(lo, hi, mx, e) for the column blocks of d: e = exp(base_i - lam d_ij
    - mx_j) over columns lo:hi, mx_j the column's largest exponent, so each
    column's largest term is 1."""
    m, n = d.shape
    base = base[:, None]
    for lo, hi in _blocks(n, m):
        e = d[:, lo:hi] * -lam
        e += base
        mx = e.max(axis=0)
        e -= mx
        np.exp(e, out=e)
        yield lo, hi, mx, e


def _scaled_lse(base, lam, d, log_p):
    """log_p_j - log sum_i exp(base_i - lam d_ij) for every column j of d, the
    shifted block loop of both scaling updates: each column's largest term is
    1, so its sum lies between 1 and d's row count.  The row update passes
    d.T, whose column blocks are row blocks of d, each summed along its
    contiguous axis as a row loop would."""
    out = np.empty(d.shape[1])
    for lo, hi, mx, e in _column_blocks(base, lam, d):
        out[lo:hi] = log_p[lo:hi] - (mx + np.log(e.sum(axis=0)))
    return out


def _factored(axes, lam, d):
    """True when the sweep over d at multiplier lam goes through its axis tables."""
    return (axes is not None and d.size >= FACTORED_MIN_ENTRIES
            and lam * axes.span < LSE_SWITCH)


def _matmul(a, b):
    """a @ b in row blocks of at most GEMM_CHUNK multiply-adds each."""
    out = np.empty((a.shape[0], b.shape[1]))
    for lo, hi in _blocks(a.shape[0], a.shape[1] * b.shape[1], GEMM_CHUNK):
        np.matmul(a[lo:hi], b, out=out[lo:hi])
    return out


def vdot(x, y) -> float:
    """sum(x * y) over two arrays of one shape, as a single-threaded einsum
    reduction: OpenBLAS runs dot products of more than 10,000 entries threaded,
    and a threaded reduction that small only waits when another process holds
    a core."""
    return float(np.einsum("i,i->", x.ravel(), y.ravel()))


def _powers(table, powers, k):
    """(k, M, n_side) stack of table * d^p for p < k, powers being GridAxes'
    d1_powers or d2_powers; at k = 1 the table itself, as a view."""
    return table[None] if k == 1 else powers[:k] * table


def _expand(k, term):
    """The sum of term(p, q) over the binomial expansion of (d1 + d2)^k,
    k <= 2: sum over p + q = k of C(k, p) term(p, q), p descending."""
    if k == 0:
        return term(0, 0)
    if k == 1:
        return term(1, 0) + term(0, 1)
    return term(2, 0) + 2.0 * term(1, 1) + term(0, 2)


def _table_sums(phi, psi, lam, axes, rows, cols):
    """Every axis-table sum of the package, for weights phi on the inputs
    and psi on the kept nodes: ([R_0, ...], [C_0, ...]) with R_k (k < rows)
    the row sums sum_j psi_j K_ij d_ij^k and C_k (k < cols) the node sums
    sum_i phi_i K_ij d_ij^k at the kept nodes, K = exp(-lam d) = F G.  psi is
    read only for rows and phi only for cols, and both counts are at most 3.
    Callers pass scalings shifted by their maximum, so each weight lies in
    [0, 1], and put the shift back in log space.

    With d = d1 + d2, the sum of K d^k splits over p + q = k into binomially
    weighted sums of F d1^p and G d2^q.  The rows take one stacked GEMM
    [F d1^p] @ Psi, Psi the grid of psi, then per row one small product with
    [G d2^q]; the node sum of each (p, q) is one GEMM (phi F d1^p)^T @ (G d2^q).
    Under the LSE_SWITCH guard, with weights of maximum 1, every R_0 lies
    in [exp(-LSE_SWITCH), N] and every C_0 in [exp(-LSE_SWITCH), M]."""
    f, g = np.exp(-lam * axes.d1), np.exp(-lam * axes.d2)
    m, n = f.shape
    row_sums = node_sums = []
    if rows:
        a = _matmul(_powers(f, axes.d1_powers, rows).reshape(-1, n), axes.grid(psi))
        # einsum, not a batched np.matmul, whose rounding moves the factored
        # Newton step on qam64 at grid 50 and 0 dB 5e-9 off the dense one,
        # past the 1e-9 of test_factored_newton_step_matches_dense
        t = np.einsum("pia,qia->pqi", a.reshape(rows, m, n), _powers(g, axes.d2_powers, rows))
        row_sums = [_expand(k, lambda p, q: t[p, q]) for k in range(rows)]
    if cols:
        x = _powers(f * phi[:, None], axes.d1_powers, cols)
        y = _powers(g, axes.d2_powers, cols)
        node_sums = [axes.nodes(_expand(k, lambda p, q: _matmul(x[p].T, y[q])))
                     for k in range(cols)]
    return row_sums, node_sums


def _coupling_sums(lphi, lpsi, lam, axes, rows, cols):
    """The coupling's own sums, sum_j q_ij d_ij^k (k < rows) and
    sum_i q_ij d_ij^k (k < cols): _table_sums of the shifted scalings, each
    row's and node's scaling put back in log space, so every sum overflows
    or underflows where the plain sum would (+inf here even where the block
    loop's 0 * inf at an exact zero of d makes it NaN)."""
    lphi_max, lpsi_max = lphi.max(), lpsi.max()
    row_sums, node_sums = _table_sums(np.exp(lphi - lphi_max), np.exp(lpsi - lpsi_max),
                                      lam, axes, rows, cols)
    with np.errstate(divide="ignore"):
        return (np.exp(lphi + lpsi_max + np.log(row_sums)),
                [np.exp(lpsi + lphi_max + np.log(s)) for s in node_sums])


def scale_rows(lpsi, lam, d, log_px, axes=None):
    """Row scaling update: lphi_i = log_px_i - log sum_j exp(lpsi_j - lam*d_ij).

    With ``axes`` (the GridAxes of d) the sums are _table_sums' zeroth row
    sums over psi = exp(lpsi - max lpsi).  Under the LSE_SWITCH guard each
    lies in [exp(-LSE_SWITCH), N], so the result is finite; outside it the
    call goes to scale_rows_lse.
    """
    if _factored(axes, lam, d):
        shift = lpsi.max()
        (s,), _ = _table_sums(None, np.exp(lpsi - shift), lam, axes, 1, 0)
        return log_px - (shift + np.log(s))
    return scale_rows_lse(lpsi, lam, d, log_px)


def scale_rows_lse(lpsi, lam, d, log_px):
    """scale_rows as the shifted (max-subtracted) block loop: _scaled_lse over
    the columns of d.T, so a row's sum lies in [1, N].  perfbench traces this
    name and scale_cols_lse's, so neither calls the other."""
    return _scaled_lse(lpsi, lam, d.T, log_px)


def scale_cols(lphi, lam, d, log_py, axes=None):
    """Column scaling update, scale_rows' counterpart over the inputs.

    With ``axes`` the sums are _table_sums' zeroth node sums over
    phi = exp(lphi - max lphi); outside the guard the call goes to
    scale_cols_lse.
    """
    if _factored(axes, lam, d):
        shift = lphi.max()
        _, (s,) = _table_sums(np.exp(lphi - shift), None, lam, axes, 0, 1)
        return log_py - (shift + np.log(s))
    return scale_cols_lse(lphi, lam, d, log_py)


def scale_cols_lse(lphi, lam, d, log_py):
    """scale_cols as the shifted block loop: _scaled_lse over the columns of
    d, so a column's sum lies in [1, M]."""
    return _scaled_lse(lphi, lam, d, log_py)


def _moment_sweep(lphi, lpsi, lam, d, row_marg=None, col_marg=None):
    """(sum_ij d q, sum_ij d^2 q) of the coupling, each block exponentiated and
    weighted in place; fills row_marg and adds into col_marg when given."""
    s1 = s2 = 0.0
    for lo, q in exponent_blocks(lphi, lpsi, lam, d, BLOCK_ENTRIES):
        hi = lo + q.shape[0]
        np.exp(q, out=q)
        if row_marg is not None:
            row_marg[lo:hi] = q.sum(axis=1)
            col_marg += q.sum(axis=0)
        q *= d[lo:hi]
        s1 += float(q.sum())
        q *= d[lo:hi]
        s2 += float(q.sum())
    return s1, s2


def factored_coupling(lphi, lpsi, lam, axes, s):
    """The coupling with its columns scaled by s, q_ij s_j, as a new M x N
    array built from the axis tables with no exp over it: (R_i F_ia) G_ib
    at the kept nodes, R_i = exp(lphi_i + max lpsi), times
    exp(lpsi_j - max lpsi) s_j.  Each partial product lies between q_ij and
    R_i, and R_i <= exp(lam d_ij) q_ij for the column j of max lpsi, so
    under the kernels' guard nothing overflows where the coupling's sums are
    finite.  The result is the only M x N array made: on a full grid it is
    the broadcast product itself, and on a pruned one the kept nodes'
    columns of R F gathered, times G's in row blocks of
    DENSE_BLOCK_ENTRIES."""
    f, g = np.exp(-lam * axes.d1), np.exp(-lam * axes.d2)
    shift = lpsi.max()
    f *= np.exp(lphi + shift)[:, None]
    m, n = f.shape
    if axes.kept.size == n * n:
        q = np.einsum("ia,ib->iab", f, g).reshape(m, -1)
    else:
        a, b = np.divmod(axes.kept, n)
        q = np.take(f, a, axis=1)
        for lo, hi in _blocks(m, b.size, DENSE_BLOCK_ENTRIES):
            q[lo:hi] *= np.take(g[lo:hi], b, axis=1)
    q *= np.exp(lpsi - shift) * s
    return q


def coupling_stats(lphi, lpsi, lam, d, axes=None):
    """One sweep over the coupling: the sums that only a sweep can give.

    Returns (row_marg, col_marg, metric_mass, metric_moment2) with
    metric_mass = sum_ij d_ij q_ij and metric_moment2 = sum_ij d_ij^2 q_ij
    (the multiplier root solve's Newton slope, so its last candidate sweep is
    also the evaluation sweep).  problem.evaluate derives the rest.  With
    ``axes`` (the GridAxes of d) the sums are _table_sums' row sums of d^0,
    d^1, d^2 and its zeroth node sums, rescaled by _coupling_sums.
    """
    if _factored(axes, lam, d):
        (row, u, w), (col,) = _coupling_sums(lphi, lpsi, lam, axes, 3, 1)
        return row, col, float(u.sum()), float(w.sum())
    row_marg, col_marg = np.empty(d.shape[0]), np.zeros(d.shape[1])
    return (row_marg, col_marg, *_moment_sweep(lphi, lpsi, lam, d, row_marg, col_marg))


def metric_moments(lphi, lpsi, lam, d, axes=None):
    """First two metric moments of the coupling taken at multiplier ``lam``.

    Returns (sum_ij d q, sum_ij d^2 q); the multiplier root solve's first
    evaluation, at its warm-start hint.  ``axes`` as for coupling_stats.
    """
    if _factored(axes, lam, d):
        (_, u, w), _ = _coupling_sums(lphi, lpsi, lam, axes, 3, 0)
        return float(u.sum()), float(w.sum())
    return _moment_sweep(lphi, lpsi, lam, d)


class JointSums(NamedTuple):
    """The sums of the joint weights w_ij = p_x[i] w[i][j] that
    mismatch_dual_value reads: over the outputs, over the inputs, and of w d."""

    rows: np.ndarray
    cols: np.ndarray
    wd: float


def joint_sums(p_x, w, d) -> JointSums:
    """JointSums of p_x[:, None] * w over the metric d: three passes over the
    joint, taken once for any number of mismatch_dual_value calls."""
    joint = p_x[:, None] * w
    return JointSums(joint.sum(axis=1), joint.sum(axis=0), vdot(joint, d))


def mismatch_dual_value(sums, a, log_px, zeta, d, axes=None):
    """Mismatched-decoding dual objective and its first two zeta-derivatives.

    sums is the JointSums of the joint weights w_ij = p_x[i] w[i][j] and d
    the M x N metric as stored.  Returns (value, first, second) in nats:

        value  = sum_ij w_ij * [ (a_i - zeta*d_ij) - log sum_k exp(log_px_k + a_k - zeta*d_kj) ]
        first  = sum_j W_j E_post[d] - sum_ij w_ij d_ij
        second = -sum_j W_j Var_post[d]

    with W_j = sum_i w_ij and the posterior at output j the softmax over
    inputs k of log_px_k + a_k - zeta*d_kj.  With ``axes`` (the GridAxes of
    d), under the scaling kernels' guard, the posteriors come from the node
    sums of d^0, d^1, d^2 that _table_sums takes over exp(base - max base),
    base = log_px + a, with no psi: 2 M n_side exps in place of M N, and no
    pass over the M x N arrays.  Otherwise one exp pass over column blocks
    (_column_blocks, as in _scaled_lse) gives all three, the variance
    taken about the posterior mean, so it stays accurate when the posterior
    concentrates at large zeta.
    """
    value = vdot(a, sums.rows) - zeta * sums.wd
    first, second = -sums.wd, 0.0
    base = log_px + a
    if _factored(axes, zeta, d):
        shift = base.max()
        _, (mass, dm, d2m) = _table_sums(np.exp(base - shift), None, zeta, axes, 0, 3)
        mean = dm / mass
        return (value - vdot(sums.cols, shift + np.log(mass)),
                first + vdot(sums.cols, mean), -vdot(sums.cols, d2m / mass - mean * mean))
    for lo, hi, mx, e in _column_blocks(base, zeta, d):
        dc = d[:, lo:hi]
        mass = e.sum(axis=0)
        dev = dc * e
        mean = dev.sum(axis=0) / mass
        np.subtract(dc, mean, out=dev)
        np.square(dev, out=dev)
        dev *= e
        var = dev.sum(axis=0) / mass
        weight = sums.cols[lo:hi]
        value -= vdot(weight, mx + np.log(mass))
        first += vdot(weight, mean)
        second -= vdot(weight, var)
    return value, first, second
