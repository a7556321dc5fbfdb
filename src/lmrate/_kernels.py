"""Streaming reductions over the factored coupling q_ij = exp(lphi_i + lpsi_j - lam*d_ij).

Every hot loop of the solver lives here.  The kernels are vectorized numpy
taking the M x N metric as stored and working on blocks of it, so the
coupling is never materialized whole and memory stays bounded for large
grids.  Both scaling updates run one shifted (max-subtracted) log-sum-exp
loop, the column update over column blocks (_column_blocks) and the row
update over C-ordered row blocks (_row_blocks), so each column's or row's
maximum and sum finish in one pass.  The classical dual and
scale_cols_mass take the same column blocks, and the projected
iteration's one pass, projected_sweep, the same row blocks; the coupling
sweeps take row blocks too (exponent_blocks), and their sums over the
inputs accumulate across them.

All kernels take log-scale factors.  Entries whose exponent falls below
the double underflow threshold contribute exactly zero to every sum, as
exp() underflows to 0.0.  A coupling sweep returns only what no identity
gives, the marginals and two metric moments; sum q log q is derived from
them, so 0*log(0) = 0 holds through the marginals without a per-entry product.

A channel-built metric whose decoder points take U distinct values on the
first axis and V on the second, with U V <= M (every built-in square
alphabet under a diagonal h_hat), splits over its levels: column j is grid
node (a, b), input i has levels u_i and v_i, and
d_ij = t1[u_i, a] + t2[v_i, b] (GridAxes), so exp(-lam d_ij) =
F(u_i, a) G(v_i, b) reads only the U + V level rows.  discretize attaches
these level tables to no other instance (a rotated h_hat, a custom
alphabet), which keeps the block loop throughout.  Given the
tables, every sum over the metric comes from one reduction, _table_sums,
over the exps of _level_tables: the row sums and node sums of the kernel
times d^k, as small GEMMs over the U x V grid of levels and the
n_side x n_side output grid (the separable kernel of Solomon et al.,
Convolutional Wasserstein Distances, 2015, carried one factor further).
A sweep takes (U + V) n_side exps for the tables and M + N for the
scalings in place of M N: for qam256 at grid 50, 1.6k + 2.8k against 640k.
It takes the scalings shifted by their maximum, and each caller puts
the shift back in log space, so a coupling sum overflows or underflows
where the plain sum would.  The factored path (_factored) runs only on
metrics with level tables of at least FACTORED_MIN_ENTRIES entries, and
only while lam * (max t1 + max t2) < LSE_SWITCH, which keeps every F G
product a normal double.  The size crossover is where qpsk, whose M = 4
gains least from the factoring, comes near to winning.  Solve time to tol
1e-10 at 0 dB, factored over block loop, best of 21 interleaved runs on a
2-core AMD EPYC with numpy 2.4 and OpenBLAS, three runs: 1.85-1.89 at
4 x 100 (qpsk grid 10), 1.21-1.23 at 4 x 2500 (qpsk grid 50), 1.09-1.12
at 4 x 3600, 1.07-1.12 at 4 x 4096, 1.05-1.06 at 16 x 900, 1.01-1.02 at
64 x 225, and 0.60-0.61 at 16 x 2500 (qam16 grid 50).  The reduction's consumers are
scale_rows, scale_cols, projected_sweep, metric_moments,
coupling_stats and the Newton finish's dual Hessian
(_newton.dual_hessian); off the factored path each keeps its block loop.
The classical dual (mismatch_dual_value) takes none of these sums and has
two paths.  When the levels form a full product (GridAxes.product) and
its weights log p_x + a are equal across inputs, as in the GMI under a
uniform prior, each node's posterior is a product of one posterior per
axis, taken from the same U + V level rows at any tilt, with no guard
(_axis_posteriors); every other call takes the block loop.
The Newton step's products with the coupling (the Gram matrix of its Schur
complement, Q y and Q^T x) go through the same tables: LevelCoupling
takes them from the level rows, whose exps it shares with the Hessian's
sums, with no M x N array.  The dual objective and gradient keep the
block loop, and the Newton oracle exponentiates the dense coupling, so it
stays a cross-check of the factored path.
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
# have level tables: below it the factored sweep's fixed per-call cost loses
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

# LevelCoupling's Gram entries are rho_i rho_k K_ik.  While every rho_i is
# below 2^256 their product cannot overflow, and an entry of K that
# underflows stands for a Gram entry below 2^-510.  The benchmark cells'
# Newton steps keep rho below 1; at lam near the LSE_SWITCH guard at 0 dB
# it reaches 2^473, and the step takes Q from the dense coupling instead
# (_newton.dual_hessian).
LEVEL_RHO_CAP = 2.0 ** 256


@dataclass(frozen=True)
class GridAxes:
    """Level tables of a metric that splits over a square output grid.

    Column j of the M x N metric is grid node kept[j] = a * n_side + b, kept
    increasing.  Input i has level u[i] on the first axis and v[i] on the
    second, and d[i, j] = t1[u[i], a] + t2[v[i], b] with t1 of shape
    (U, n_side) and t2 of shape (V, n_side), U V <= M.  So the Gibbs kernel
    factors, exp(-lam d[i, j]) = F[u[i], a] G[v[i], b] with F = exp(-lam t1)
    and G = exp(-lam t2).  For a channel-built metric the levels are the
    distinct coordinates of the decoder points h_hat x_i, and t1[u, a] is
    the squared offset of grid coordinate a from the u-th first one.
    """

    t1: np.ndarray
    t2: np.ndarray
    u: np.ndarray
    v: np.ndarray
    kept: np.ndarray

    @cached_property
    def level(self) -> np.ndarray:
        """Each input's flat level index u V + v into the U x V grid of levels."""
        return self.u * self.t2.shape[0] + self.v

    @cached_property
    def product(self) -> bool:
        """True when the levels form a full product: every (u, v) pair of
        levels is exactly one input's, so M = U V."""
        return bool(self.u.size == self.t1.shape[0] * self.t2.shape[0]
                    and np.bincount(self.level).max() == 1)

    @cached_property
    def level_gram_index(self) -> np.ndarray:
        """(M, M) flat index into LevelCoupling's (U^2, V^2) matrix K of the
        entry K[u_i u_k, v_i v_k] that Gram entry (i, k) reads."""
        u, v = self.u, self.v
        nu, nv = self.t1.shape[0], self.t2.shape[0]
        return (u[:, None] * nu + u) * (nv * nv) + (v[:, None] * nv + v)

    @cached_property
    def span(self) -> float:
        """max t1 + max t2, a bound on the metric's largest entry."""
        return float(self.t1.max() + self.t2.max())

    @cached_property
    def level_powers(self):
        """(nu, powers): powers the (3, U + V, n_side) stack of d^k
        (k = 0, 1, 2) at the rows of t1, then at the rows of t2, and nu = U."""
        t = np.concatenate([self.t1, self.t2])
        return self.t1.shape[0], np.stack([np.ones_like(t), t, t * t])

    def grid(self, values):
        """Node values laid out on the n_side x n_side grid, pruned nodes zero;
        a view of ``values`` when no node is pruned."""
        n = self.t1.shape[1]
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


def _column_blocks(base, lam, d, entries=None):
    """(lo, hi, mx, e) for the column blocks of d, of at most ``entries``
    entries as for _blocks: e = exp(base_i - lam d_ij - mx_j) over columns
    lo:hi, mx_j the column's largest exponent, so each column's largest term
    is 1."""
    m, n = d.shape
    base = base[:, None]
    for lo, hi in _blocks(n, m, entries):
        e = d[:, lo:hi] * -lam
        e += base
        mx = e.max(axis=0)
        e -= mx
        np.exp(e, out=e)
        yield lo, hi, mx, e


def _row_blocks(base, lam, d, entries=None):
    """_column_blocks over the rows of d: (lo, hi, mx, e) with
    e = exp(base_j - lam d_ij - mx_i) over rows lo:hi, C-ordered, mx_i the
    row's largest exponent."""
    for lo, hi in _blocks(*d.shape, entries):
        e = d[lo:hi] * -lam
        e += base
        mx = e.max(axis=1)
        e -= mx[:, None]
        np.exp(e, out=e)
        yield lo, hi, mx, e


def _factored(axes, lam, d):
    """True when the sweep over d at multiplier lam goes through its level
    tables: past the size crossover and under the guard."""
    return axes is not None and d.size >= FACTORED_MIN_ENTRIES and lam * axes.span < LSE_SWITCH


def _matmul(a, b):
    """a @ b in row blocks of at most GEMM_CHUNK multiply-adds each."""
    out = np.empty((a.shape[0], b.shape[1]))
    for lo, hi in _blocks(a.shape[0], a.shape[1] * b.shape[1], GEMM_CHUNK):
        np.matmul(a[lo:hi], b, out=out[lo:hi])
    return out


def vdot(x, y) -> float:
    """sum(x * y) over two arrays of one shape, as BLAS dot products over
    chunks of at most 8192 entries, so a vector that short is one np.dot
    call.  OpenBLAS runs a dot product of more than 10,000 entries threaded,
    and a threaded reduction that small only waits when another process
    holds a core; 8192 is the largest power of two below that.  np.dot costs
    about 0.9 us a call at 4 to 100 entries against 2 us for np.einsum, and
    chunked it is also quicker on long vectors (13 against 16 us at 40,000
    entries, 2-core Xeon)."""
    x, y = x.ravel(), y.ravel()
    total = 0.0
    while x.size > 8192:
        total += np.dot(x[:8192], y[:8192])
        x, y = x[8192:], y[8192:]
    return float(total + np.dot(x, y))


def _level_tables(axes, lam):
    """(f, g): the kernel's level tables exp(-lam t1) and exp(-lam t2),
    U x n_side and V x n_side, so that K_ij = f[u_i, a] g[v_i, b] at node
    j = (a, b), u_i and v_i input i's levels: (U + V) n_side exps."""
    nu, powers = axes.level_powers
    t = powers[1] * -lam
    np.exp(t, out=t)
    return t[:nu], t[nu:]


def _powers(table, powers, k):
    """(k, rows, n_side) stack of table * d^p for p < k, powers being rows
    of axes.level_powers; at k = 1 the table itself, as a view."""
    return table[None] if k == 1 else powers[:k] * table


def _expand(k, term):
    """The sum of term(p, q) over the binomial expansion of (t1 + t2)^k,
    k <= 2: sum over p + q = k of C(k, p) term(p, q), p descending."""
    if k == 0:
        return term(0, 0)
    if k == 1:
        return term(1, 0) + term(0, 1)
    return term(2, 0) + 2.0 * term(1, 1) + term(0, 2)


def _table_sums(phi, psi, tables, axes, rows, cols):
    """Every axis-table sum of the package, for weights phi on the inputs
    and psi on the kept nodes: ([R_0, ...], [C_0, ...]) with R_k (k < rows)
    the row sums sum_j psi_j K_ij d_ij^k and C_k (k < cols) the node sums
    sum_i phi_i K_ij d_ij^k at the kept nodes, K = exp(-lam d) given by
    tables = _level_tables(axes, lam).  psi is read only for rows and phi
    only for cols, and both counts are at most 3.  Callers pass scalings
    shifted by their maximum, so each weight lies in [0, 1], and put the
    shift back in log space.

    With d = t1 + t2, the sum of K d^k splits over p + q = k into binomially
    weighted sums of the level tables F_p = f t1^p and G_q = g t2^q.  The
    row sums are (F_p Psi) G_q^T, Psi the grid of psi, a U x V matrix read
    at each input's (u_i, v_i); the node sums are (F_p^T Phi) G_q, Phi the
    U x V grid of the inputs' weights phi_i summed by level.  Under the
    LSE_SWITCH guard,
    with weights of maximum 1, every R_0 lies in [exp(-LSE_SWITCH), N] and
    every C_0 in [exp(-LSE_SWITCH), M]."""
    f, g = tables
    nu, powers = axes.level_powers
    p1, p2 = powers[:, :nu], powers[:, nu:]
    nv, n = g.shape
    row_sums = node_sums = []
    if rows:
        a = _matmul(_powers(f, p1, rows).reshape(-1, n), axes.grid(psi))
        t = _matmul(a, _powers(g, p2, rows).reshape(-1, n).T).reshape(rows, nu, rows, nv)
        t = t.transpose(0, 2, 1, 3)[:, :, axes.u, axes.v]
        row_sums = [_expand(k, lambda p, q: t[p, q]) for k in range(rows)]
    if cols:
        y = _powers(g, p2, cols)
        grid = np.bincount(axes.level, phi, nu * nv).reshape(nu, nv)
        x = _powers(f, p1, cols).transpose(0, 2, 1).reshape(-1, nu)
        x = _matmul(x, grid).reshape(cols, n, nv)
        node_sums = [axes.nodes(_expand(k, lambda p, q: _matmul(x[p], y[q])))
                     for k in range(cols)]
    return row_sums, node_sums


def _shifted(log_scale):
    """(exp(log_scale - shift), shift), shift the largest entry: the weights
    _table_sums takes, each in [0, 1]."""
    shift = log_scale.max()
    return np.exp(log_scale - shift), shift


def _restored(log_scale, shift, sums):
    """exp(log_scale + shift + log sums), sums being table sums or a stack
    of them: the coupling's own sums, each row's (or node's) scaling put
    back in log space, so a sum overflows or underflows where the plain sum
    would (+inf here even where the block loop's 0 * inf at an exact zero
    of d makes it NaN).  Node sums are N long, and each is restored on its
    own: stacking them costs a copy of every one."""
    with np.errstate(divide="ignore"):
        return np.exp(log_scale + shift + np.log(sums))


def _coupling_sums(lphi, lpsi, tables, axes, rows, cols):
    """The coupling's own sums, sum_j q_ij d_ij^k (k < rows) and
    sum_i q_ij d_ij^k (k < cols), rows positive and cols possibly 0 (no
    node sums): _table_sums of the shifted scalings, _restored."""
    phi, lphi_max = _shifted(lphi)
    psi, lpsi_max = _shifted(lpsi)
    row_sums, node_sums = _table_sums(phi, psi, tables, axes, rows, cols)
    return (_restored(lphi, lpsi_max, row_sums),
            [_restored(lpsi, lphi_max, s) for s in node_sums])


def scale_rows(lpsi, lam, d, log_px, axes=None):
    """Row scaling update: lphi_i = log_px_i - log sum_j exp(lpsi_j - lam*d_ij).

    With ``axes`` (the GridAxes of d) the sums are _table_sums' zeroth row
    sums over psi = exp(lpsi - max lpsi).  Under the LSE_SWITCH guard each
    lies in [exp(-LSE_SWITCH), N], so the result is finite; outside it the
    call goes to scale_rows_lse.
    """
    if _factored(axes, lam, d):
        psi, shift = _shifted(lpsi)
        (s,), _ = _table_sums(None, psi, _level_tables(axes, lam), axes, 1, 0)
        return log_px - (shift + np.log(s))
    return scale_rows_lse(lpsi, lam, d, log_px)


def scale_rows_lse(lpsi, lam, d, log_px):
    """scale_rows as the shifted (max-subtracted) block loop over the row
    blocks of d (_row_blocks), so a row's sum lies in [1, N].  perfbench
    traces this name and scale_cols_lse's, so neither calls the other."""
    out = np.empty(d.shape[0])
    for lo, hi, mx, e in _row_blocks(lpsi, lam, d):
        out[lo:hi] = log_px[lo:hi] - (mx + np.log(e.sum(axis=1)))
    return out


def scale_cols(lphi, lam, d, log_py, axes=None):
    """Column scaling update, scale_rows' counterpart over the inputs.

    With ``axes`` the sums are _table_sums' zeroth node sums over
    phi = exp(lphi - max lphi); outside the guard the call goes to
    scale_cols_lse.
    """
    if _factored(axes, lam, d):
        phi, shift = _shifted(lphi)
        _, (s,) = _table_sums(phi, None, _level_tables(axes, lam), axes, 0, 1)
        return log_py - (shift + np.log(s))
    return scale_cols_lse(lphi, lam, d, log_py)


def scale_cols_lse(lphi, lam, d, log_py):
    """scale_cols as the shifted block loop over the column blocks of d
    (_column_blocks), so a column's sum lies in [1, M]."""
    out = np.empty(d.shape[1])
    for lo, hi, mx, e in _column_blocks(lphi, lam, d):
        out[lo:hi] = log_py[lo:hi] - (mx + np.log(e.sum(axis=0)))
    return out


def scale_cols_mass(lphi, lam, d, log_py, p_y):
    """scale_cols_lse, and the metric mass of the coupling it leaves: (lpsi,
    sum_ij d_ij q_ij) with q at (lphi, lpsi, lam).  That coupling's columns
    sum to p_y, so its mass is sum_j p_y_j (sum_i d_ij e_ij) / (sum_i e_ij),
    e being the column-scaled kernel that the update sums anyway: each block
    is weighted by d once its sums are taken.  projected_sweep's column
    update where its row-shifted entries could underflow."""
    lpsi, mass = np.empty(d.shape[1]), 0.0
    for lo, hi, mx, e in _column_blocks(lphi, lam, d):
        s = e.sum(axis=0)
        lpsi[lo:hi] = log_py[lo:hi] - (mx + np.log(s))
        e *= d[:, lo:hi]
        mass += vdot(p_y[lo:hi], e.sum(axis=0) / s)
    return lpsi, mass


def projected_sweep(lphi, lpsi, lam, d, d_range, log_px, log_py, p_y, axes=None):
    """One pass over the coupling at (lphi, lpsi, lam), shifted by row, that
    makes a projected iteration: (stats, (lphi', lpsi', mass')).  stats is
    the coupling's (row_marg, col_marg, metric_mass), coupling_stats' first
    three, for its evaluation; lphi' = log_px - log_s is the next row
    update, log_s_i = log sum_j exp(lpsi_j - lam d_ij); and (lpsi', mass')
    is scale_cols_mass(lphi', lam, d, log_py, p_y), the column update after
    it with the metric mass that the multiplier step reads.

    All three come from one exp, E_ij = exp(lpsi_j - lam d_ij - mx_i), mx_i
    the row's largest exponent.  Its row sums s_i give log_s = mx + log s.
    Its column sums and d-weighted column sums, weighted by the rows'
    scalings exp(lphi_i + mx_i), give the stats; weighted by
    exp(lphi'_i + mx_i) = p_x_i / s_i, they give the column update,
    lpsi'_j = log_py_j + lpsi_j - log sum_i w'_i E_ij, and mass' =
    sum_j p_y_j (sum_i w'_i d_ij E_ij) / (sum_i w'_i E_ij): one (2, rows)
    product with each block.  Those column sums read row-shifted entries,
    each at least exp(-(span(lpsi) + lam d_range)), d_range being
    max d - min d, so the pass takes them only while that exponent stays
    below LSE_SWITCH; past it the column update is scale_cols_mass's
    column-shifted loop, a second pass.  Blocks hold GEMM_CHUNK / 2 entries,
    so no product exceeds GEMM_CHUNK.  With ``axes`` one _level_tables exp
    serves _table_sums' row sums of d^0, d^1, its node sums over
    phi = exp(lphi - max lphi) and its node sums of d^0, d^1 over
    exp(lphi' - max lphi'), each restored in log space, so that path needs
    no guard of its own."""
    if _factored(axes, lam, d):
        tables = _level_tables(axes, lam)
        phi, lphi_max = _shifted(lphi)
        psi, lpsi_max = _shifted(lpsi)
        (s, sd), (c,) = _table_sums(phi, psi, tables, axes, 2, 1)
        log_s = lpsi_max + np.log(s)
        u, col = _restored(lphi, lpsi_max, sd), _restored(lpsi, lphi_max, c)
        stats = np.exp(lphi + log_s), col, float(u.sum())
        lphi = log_px - log_s
        phi, shift = _shifted(lphi)
        _, (c, cd) = _table_sums(phi, None, tables, axes, 0, 2)
        return stats, (lphi, log_py - (shift + np.log(c)), vdot(p_y, cd / c))
    log_s, row, w = np.empty(d.shape[0]), np.empty(d.shape[0]), np.empty((2, d.shape[0]))
    sums = dsums = 0.0
    for lo, hi, mx, e in _row_blocks(lpsi, lam, d, GEMM_CHUNK // 2):
        s = e.sum(axis=1)
        ls = np.log(s)
        wb = w[:, lo:hi]
        np.add(lphi[lo:hi], mx, out=wb[0])
        np.subtract(log_px[lo:hi], ls, out=wb[1])
        np.exp(wb, out=wb)
        np.add(mx, ls, out=log_s[lo:hi])
        np.multiply(wb[0], s, out=row[lo:hi])
        sums = sums + wb @ e
        e *= d[lo:hi]
        dsums = dsums + wb @ e
    stats = row, sums[0], float(dsums[0].sum())
    lphi = log_px - log_s
    if lpsi.max() - lpsi.min() + lam * d_range < LSE_SWITCH:
        return stats, (lphi, log_py + lpsi - np.log(sums[1]), vdot(p_y, dsums[1] / sums[1]))
    return stats, (lphi, *scale_cols_mass(lphi, lam, d, log_py, p_y))


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


class ScaledCoupling(NamedTuple):
    """Q diag(s) held as an M x N array, with the products the Newton step
    takes of it: gram() = Q diag(s)^2 Q^T, dot(y) = Q diag(s) y and
    tdot(x) = x^T Q diag(s), x of shape (..., M)."""

    a: np.ndarray

    def gram(self):
        return self.a @ self.a.T

    def dot(self, y):
        return self.a @ y

    def tdot(self, x):
        return x @ self.a


class LevelCoupling:
    """ScaledCoupling's products on an instance with GridAxes, with no
    M x N array.  With F and G the level tables of _level_tables(axes, lam),
    the exps that the Hessian's sums at the same point have read, input i's
    row of Q diag(s) is rho_i F[u_i, a] G[v_i, b] psi_j s_j at node
    j = (a, b), where psi = exp(lpsi - max lpsi) and rho = exp(lphi +
    max lpsi), the factors of _table_sums.  So with W the grid of
    psi^2 s^2, pruned nodes zero, the Gram matrix is rho_i rho_k K[u_i, u_k, v_i, v_k],
    K = (F (x) F)(W (G (x) G)^T): U^2 V^2 n_side + V^2 n_side^2 multiply-adds
    in place of M^2 N, 3.9M against 82M for qam256 at grid 50.  dot and tdot
    are two small products over the grid each, the inputs' weights summed
    by level for tdot through one bincount.  Each table row is scaled by a
    power of two near its maximum and rho by the inverse: exact, so the
    scaling adds no rounding to the products (dividing each row by its
    maximum instead let the Newton step drift further from the dense one,
    up to 0.66 of test_factored_newton_step_matches_dense's bound on qam16
    over small changes of theta, against 0.47).
    _newton.dual_hessian takes it only while rho stays below
    LEVEL_RHO_CAP."""

    def __init__(self, lphi, lpsi, tables, axes, s):
        f, g = tables
        k1, k2 = np.frexp(f.max(axis=1))[1], np.frexp(g.max(axis=1))[1]
        self.f, self.g = np.ldexp(f, -k1[:, None]), np.ldexp(g, -k2[:, None])
        shift = lpsi.max()
        self.rho = np.ldexp(np.exp(lphi + shift), k1[axes.u] + k2[axes.v])
        self.psi, self.s = np.exp(lpsi - shift), s
        self.weight = self.psi * s
        self.axes = axes

    def gram(self):
        f, g = self.f, self.g
        n = f.shape[1]
        ff = (f[:, None] * f[None]).reshape(-1, n)
        gg = (g[:, None] * g[None]).reshape(-1, n)
        w = self.axes.grid(self.psi * self.psi * (self.s * self.s))
        out = _matmul(ff, _matmul(w, gg.T)).take(self.axes.level_gram_index)
        out *= self.rho[:, None]
        out *= self.rho
        return out

    def dot(self, y):
        t = self.f @ self.axes.grid(self.weight * y) @ self.g.T
        return self.rho * t.take(self.axes.level)

    def tdot(self, x):
        nu, nv = self.f.shape[0], self.g.shape[0]
        level = self.axes.level
        k = x.size // level.size
        idx = level if k == 1 else (np.arange(k)[:, None] * (nu * nv) + level).ravel()
        t = np.bincount(idx, (x * self.rho).ravel(), k * nu * nv)
        t = t.reshape(*x.shape[:-1], nu, nv)
        return self.axes.nodes(self.f.T @ t @ self.g) * self.weight


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
        (row, u, w), (col,) = _coupling_sums(lphi, lpsi, _level_tables(axes, lam), axes, 3, 1)
        return row, col, float(u.sum()), float(w.sum())
    row_marg, col_marg = np.empty(d.shape[0]), np.zeros(d.shape[1])
    return (row_marg, col_marg, *_moment_sweep(lphi, lpsi, lam, d, row_marg, col_marg))


def metric_moments(lphi, lpsi, lam, d, axes=None):
    """First two metric moments of the coupling taken at multiplier ``lam``.

    Returns (sum_ij d q, sum_ij d^2 q); the multiplier root solve's first
    evaluation, at its warm-start hint.  ``axes`` as for coupling_stats:
    with them the sums are _coupling_sums' row sums of d^1 and d^2, with
    no node sums.
    """
    if _factored(axes, lam, d):
        (_, u, w), _ = _coupling_sums(lphi, lpsi, _level_tables(axes, lam), axes, 3, 0)
        return float(u.sum()), float(w.sum())
    return _moment_sweep(lphi, lpsi, lam, d)


class JointSums(NamedTuple):
    """The sums of the joint weights w_ij = p_x[i] w[i][j] that
    mismatch_dual_value reads: over the outputs, over the inputs, and of w d;
    then, on a metric of at least FACTORED_MIN_ENTRIES entries whose levels
    form a full product (GridAxes.product), the node sums ``cols`` summed
    over the second grid axis and over the first, one weight per grid
    coordinate on each axis, else None.  Below that size the GMI keeps the
    block loop, as every other kernel does."""

    rows: np.ndarray
    cols: np.ndarray
    wd: float
    axis_cols: tuple | None


def joint_sums(p_x, w, d, axes=None) -> JointSums:
    """JointSums of p_x[:, None] * w over the metric d, ``axes`` its GridAxes
    or None: three passes over the joint, taken once for any number of
    mismatch_dual_value calls."""
    joint = p_x[:, None] * w
    cols = joint.sum(axis=0)
    axis_cols = None
    if axes is not None and d.size >= FACTORED_MIN_ENTRIES and axes.product:
        grid = axes.grid(cols)
        axis_cols = grid.sum(axis=1), grid.sum(axis=0)
    return JointSums(joint.sum(axis=1), cols, vdot(joint, d), axis_cols)


def _posterior_terms(value, first, second, base, zeta, d, cols):
    """mismatch_dual_value's block loop over the columns j of d, weighted by
    cols: (value, first, second) less sum_j cols_j log Z_j, plus
    sum_j cols_j mean_j and less sum_j cols_j var_j, with Z_j, mean_j and
    var_j the normalizer, mean and variance of d_kj under the posterior
    softmax_k(base_k - zeta d_kj).  One exp pass over column blocks
    (_column_blocks); the variance is taken about the posterior mean, so it
    stays accurate when the posterior concentrates at large zeta."""
    for lo, hi, mx, e in _column_blocks(base, zeta, d):
        dc = d[:, lo:hi]
        mass = e.sum(axis=0)
        dev = dc * e
        mean = dev.sum(axis=0) / mass
        np.subtract(dc, mean, out=dev)
        np.square(dev, out=dev)
        dev *= e
        var = dev.sum(axis=0) / mass
        weight = cols[lo:hi]
        value -= vdot(weight, mx + np.log(mass))
        first += vdot(weight, mean)
        second -= vdot(weight, var)
    return value, first, second


def _axis_posteriors(terms, base, zeta, axis_cols, axes):
    """mismatch_dual_value's terms where the levels form a full product and
    every base_k is equal.  The posterior at node (a, b) is then the product
    of one posterior over the U first-axis levels, softmax of -zeta t1[u, a],
    and one over the V second-axis levels: its log-normalizer, mean and
    variance are sums of the two axes', each taken by _posterior_terms on the
    axis's level rows of axes.level_powers and weighted by axis_cols.  The
    first axis carries the base, so each log Z_j = base + log Z1_a + log Z2_b.
    Each axis is shifted by its own column maximum, so the terms need no
    LSE_SWITCH guard: (U + V) n_side exps in place of M N."""
    nu, powers = axes.level_powers
    d_levels = powers[1]
    terms = _posterior_terms(*terms, base[:nu], zeta, d_levels[:nu], axis_cols[0])
    return _posterior_terms(*terms, np.zeros(d_levels.shape[0] - nu), zeta, d_levels[nu:],
                            axis_cols[1])


def mismatch_dual_value(sums, a, log_px, zeta, d, axes=None):
    """Mismatched-decoding dual objective and its first two zeta-derivatives.

    sums is the JointSums of the joint weights w_ij = p_x[i] w[i][j] and d
    the M x N metric as stored.  Returns (value, first, second) in nats:

        value  = sum_ij w_ij * [ (a_i - zeta*d_ij) - log sum_k exp(log_px_k + a_k - zeta*d_kj) ]
        first  = sum_j W_j E_post[d] - sum_ij w_ij d_ij
        second = -sum_j W_j Var_post[d]

    with W_j = sum_i w_ij and the posterior at output j the softmax over
    inputs k of base_k - zeta*d_kj, base = log_px + a.  Two paths:
    - with ``axes`` (the GridAxes of d), when sums.axis_cols is set (a
      metric past the size crossover whose levels form a full product) and
      base is equal across inputs, as in the GMI under a uniform prior, the
      posteriors come axis by axis (_axis_posteriors), at any zeta;
    - every other call takes one exp pass over the column blocks of d
      (_posterior_terms), on the factored path too: non-zero shifts, such
      as a solution's, and a non-uniform prior take it.
    """
    value = vdot(a, sums.rows) - zeta * sums.wd
    base = log_px + a
    if axes is not None and sums.axis_cols is not None and base.min() == base.max():
        return _axis_posteriors((value, -sums.wd, 0.0), base, zeta, sums.axis_cols, axes)
    return _posterior_terms(value, -sums.wd, 0.0, base, zeta, d, sums.cols)
