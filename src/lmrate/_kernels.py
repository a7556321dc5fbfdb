"""Streaming reductions over the factored coupling q_ij = exp(lphi_i + lpsi_j - lam*d_ij).

Every hot loop of the solver lives here.  The kernels are vectorized numpy
taking the M x N metric as stored and working on blocks of it, so the
coupling is never materialized whole and memory stays bounded for large
grids.  A shifted (max-subtracted) reduction over the inputs takes column
blocks, so each column's maximum and sum finish in one pass; every other
kernel takes row blocks, and its sums over the inputs accumulate across them.

All kernels take log-scale factors.  Entries whose exponent falls below
the double underflow threshold contribute exactly zero to every sum,
which realizes the 0*log(0) = 0 convention without branches: exp()
underflows to 0.0 and 0.0 * finite = 0.0.
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


def coupling_stats(lphi, lpsi, lam, d):
    """One sweep over the coupling.

    Returns (row_marg, col_marg, mass, metric_mass, neg_entropy, metric_moment2)
    where metric_mass = sum_ij d_ij q_ij, neg_entropy = sum_ij q_ij log q_ij
    and metric_moment2 = sum_ij d_ij^2 q_ij (the multiplier root solve's
    Newton slope, so its last candidate sweep is also the evaluation sweep).
    """
    m, n = d.shape
    row_marg = np.empty(m)
    col_marg = np.zeros(n)
    mass = 0.0
    metric_mass = 0.0
    neg_entropy = 0.0
    metric_moment2 = 0.0
    for lo, hi in _blocks(m, n):
        e = lphi[lo:hi, None] + lpsi[None, :] - lam * d[lo:hi]
        q = np.exp(e)
        dq = d[lo:hi] * q
        row_marg[lo:hi] = q.sum(axis=1)
        col_marg += q.sum(axis=0)
        mass += float(q.sum())
        metric_mass += float(dq.sum())
        neg_entropy += float((q * e).sum())
        metric_moment2 += float(np.multiply(d[lo:hi], dq, out=dq).sum())
    return row_marg, col_marg, mass, metric_mass, neg_entropy, metric_moment2


def max_exponent(lphi, lpsi, lam, d):
    """max_ij (lphi_i + lpsi_j - lam*d_ij): the log of the largest coupling entry."""
    return max(float((lphi[lo:hi, None] + lpsi[None, :] - lam * d[lo:hi]).max())
               for lo, hi in _blocks(*d.shape))


def metric_moments(lphi, lpsi, lam, d):
    """First two metric moments of the coupling taken at multiplier ``lam``.

    Returns (sum_ij d q, sum_ij d^2 q); the multiplier root solve's first
    evaluation, at its warm-start hint.
    """
    s1 = 0.0
    s2 = 0.0
    m, n = d.shape
    for lo, hi in _blocks(m, n):
        q = np.exp(lphi[lo:hi, None] + lpsi[None, :] - lam * d[lo:hi])
        dq = d[lo:hi] * q
        s1 += float(dq.sum())
        s2 += float((d[lo:hi] * dq).sum())
    return s1, s2


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
