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
"""

import numpy as np

# Read by perfbench/run.py's environment block; there is no numba family.
USING_NUMBA = False

# Block budget: at most this many matrix entries are expanded into
# temporaries at a time.
BLOCK_ENTRIES = 1 << 22


def _blocks(count, width):
    """Index ranges of at most BLOCK_ENTRIES // width rows (or columns) each."""
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    for lo in range(0, count, step):
        yield lo, min(count, lo + step)


def scale_rows(lpsi, lam, d, log_px):
    """Row scaling update: lphi_i = log_px_i - log sum_j exp(lpsi_j - lam*d_ij).

    Returns (lphi, ok); ok is False when any row denominator underflowed
    to zero or overflowed, in which case the LSE variant must be used.
    """
    m, n = d.shape
    out = np.empty(m)
    with np.errstate(over="ignore", divide="ignore"):
        for lo, hi in _blocks(m, n):
            s = np.exp(lpsi[None, :] - lam * d[lo:hi]).sum(axis=1)
            out[lo:hi] = log_px[lo:hi] - np.log(s)
    return out, bool(np.isfinite(out).all())


def scale_rows_lse(lpsi, lam, d, log_px):
    """Shifted (log-sum-exp) variant of scale_rows; immune to underflow."""
    m, n = d.shape
    out = np.empty(m)
    for lo, hi in _blocks(m, n):
        e = lpsi[None, :] - lam * d[lo:hi]
        mx = e.max(axis=1)
        s = np.exp(e - mx[:, None]).sum(axis=1)
        out[lo:hi] = log_px[lo:hi] - (mx + np.log(s))
    return out


def scale_cols(lphi, lam, d, log_py):
    m, n = d.shape
    s = np.zeros(n)
    with np.errstate(over="ignore"):
        for lo, hi in _blocks(m, n):
            s += np.exp(lphi[lo:hi, None] - lam * d[lo:hi]).sum(axis=0)
    with np.errstate(divide="ignore"):
        out = log_py - np.log(s)
    return out, bool(np.isfinite(out).all())


def scale_cols_lse(lphi, lam, d, log_py):
    """Shifted (log-sum-exp) variant of scale_cols, one pass over column blocks."""
    m, n = d.shape
    out = np.empty(n)
    for lo, hi in _blocks(n, m):
        e = lphi[:, None] - lam * d[:, lo:hi]
        mx = e.max(axis=0)
        s = np.exp(e - mx).sum(axis=0)
        out[lo:hi] = log_py[lo:hi] - (mx + np.log(s))
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


def coupling_stats(lphi, lpsi, lam, d):
    """One sweep over the coupling: the sums that only a sweep can give.

    Returns (row_marg, col_marg, metric_mass, metric_moment2) with
    metric_mass = sum_ij d_ij q_ij and metric_moment2 = sum_ij d_ij^2 q_ij
    (the multiplier root solve's Newton slope, so its last candidate sweep is
    also the evaluation sweep).  problem.evaluate derives the rest.
    """
    row_marg, col_marg = np.empty(d.shape[0]), np.zeros(d.shape[1])
    return (row_marg, col_marg, *_moment_sweep(lphi, lpsi, lam, d, row_marg, col_marg))


def metric_moments(lphi, lpsi, lam, d):
    """First two metric moments of the coupling taken at multiplier ``lam``.

    Returns (sum_ij d q, sum_ij d^2 q); the multiplier root solve's first
    evaluation, at its warm-start hint.
    """
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
