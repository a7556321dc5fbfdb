"""Kernel reductions checked against dense evaluation, plus stability checks."""

import math

import numpy as np

import lmrate._kernels as K


def _random_inputs(rng, m=6, n=13):
    d = rng.uniform(0.0, 4.0, (m, n))
    lphi = rng.normal(0.0, 1.0, m)
    lpsi = rng.normal(0.0, 1.0, n)
    log_px = np.log(rng.dirichlet(np.ones(m)))
    log_py = np.log(rng.dirichlet(np.ones(n)))
    return d, lphi, lpsi, log_px, log_py


def test_scale_rows_flags_underflow(rng):
    d, _, lpsi, log_px, _ = _random_inputs(rng)
    d += 1.0  # keep every metric entry strictly positive
    _, ok = K.scale_rows(lpsi, 1e6, d, log_px)
    assert not ok
    out = K.scale_rows_lse(lpsi, 1e6, d, log_px)
    assert np.isfinite(out).all()


def test_lse_matches_plain_when_safe(rng):
    d, lphi, lpsi, log_px, log_py = _random_inputs(rng)
    lam = 0.7
    plain, ok = K.scale_rows(lpsi, lam, d, log_px)
    assert ok
    np.testing.assert_allclose(K.scale_rows_lse(lpsi, lam, d, log_px), plain,
                               rtol=1e-13)
    plain, ok = K.scale_cols(lphi, lam, d, log_py)
    assert ok
    np.testing.assert_allclose(K.scale_cols_lse(lphi, lam, d, log_py), plain,
                               rtol=1e-13)


def test_coupling_stats_against_dense(rng):
    d, lphi, lpsi, log_px, log_py = _random_inputs(rng)
    lam = 1.1
    e = lphi[:, None] + lpsi[None, :] - lam * d
    q = np.exp(e)
    row, col, mass, metric_mass, neg_entropy, moment2 = K.coupling_stats(
        lphi, lpsi, lam, d)
    np.testing.assert_allclose(row, q.sum(axis=1), rtol=1e-12)
    np.testing.assert_allclose(col, q.sum(axis=0), rtol=1e-12)
    assert abs(mass - q.sum()) <= 1e-12 * q.sum()
    assert abs(metric_mass - (d * q).sum()) <= 1e-12 * max(1.0, (d * q).sum())
    assert abs(neg_entropy - (q * e).sum()) <= 1e-10
    assert abs(moment2 - (d * d * q).sum()) <= 1e-12 * max(1.0, (d * d * q).sum())


def test_max_exponent_against_dense(rng, monkeypatch):
    d, lphi, lpsi, _, _ = _random_inputs(rng)
    lphi[2] = 900.0   # an entry far past the exp overflow threshold
    expected = float((lphi[:, None] + lpsi[None, :] - 1.1 * d).max())
    assert K.max_exponent(lphi, lpsi, 1.1, d) == expected
    monkeypatch.setattr(K, "BLOCK_ENTRIES", 2 * d.shape[1])   # three row blocks
    assert K.max_exponent(lphi, lpsi, 1.1, d) == expected


def test_column_blocks_match_one_block(rng, monkeypatch):
    # the shifted kernels reduce over the inputs in column blocks; splitting
    # the columns must not change a column's reduction
    d, lphi, _, log_px, log_py = _random_inputs(rng)
    m, n = d.shape
    a = rng.normal(0.0, 0.5, m)
    joint = np.exp(log_px)[:, None] * rng.dirichlet(np.ones(n), m)
    lse = K.scale_cols_lse(lphi, 0.9, d, log_py)
    dual = K.mismatch_dual_value(joint, a, log_px, 0.8, d)
    monkeypatch.setattr(K, "BLOCK_ENTRIES", 5 * m)   # column blocks of 5, 5 and 3
    assert len(list(K._blocks(n, m))) == 3
    np.testing.assert_array_equal(K.scale_cols_lse(lphi, 0.9, d, log_py), lse)
    np.testing.assert_allclose(K.mismatch_dual_value(joint, a, log_px, 0.8, d), dual,
                               rtol=1e-13, atol=0.0)


def test_underflowed_entries_contribute_zero():
    # exponent below the double underflow threshold: exact zero contribution
    lphi = np.array([0.0])
    lpsi = np.array([0.0, -800.0])
    d = np.array([[0.0, 0.0]])
    row, col, mass, metric_mass, neg_entropy, _ = K.coupling_stats(lphi, lpsi, 0.0, d)
    assert col[1] == 0.0
    assert mass == 1.0
    assert math.isfinite(neg_entropy)


def test_mismatch_dual_value_against_dense(rng):
    d, _, _, log_px, _ = _random_inputs(rng, 5, 8)
    m, n = d.shape
    a = rng.normal(0.0, 0.5, m)
    zeta = 0.8
    w = rng.dirichlet(np.ones(n), m)
    p_x = np.exp(log_px)
    scores = log_px[None, :] + a[None, :] - zeta * d.T[:, :]
    lse = np.log(np.exp(scores).sum(axis=1))
    joint_t = (p_x[:, None] * w).T
    expected = float((joint_t * ((a[None, :] - zeta * d.T) - lse[:, None])).sum())
    # derivatives in zeta: posterior mean and variance of d at each output
    post = np.exp(scores - lse[:, None])
    mean = (post * d.T).sum(axis=1)
    var = (post * (d.T - mean[:, None]) ** 2).sum(axis=1)
    weight = joint_t.sum(axis=1)
    expected_first = float(weight @ mean - (joint_t * d.T).sum())
    expected_second = float(-(weight @ var))

    def kernel(z):
        return K.mismatch_dual_value(p_x[:, None] * w, a, log_px, z, d)

    value, first, second = kernel(zeta)
    assert abs(value - expected) <= 1e-11 * max(1.0, abs(expected))
    assert abs(first - expected_first) <= 1e-11 * max(1.0, abs(expected_first))
    assert abs(second - expected_second) <= 1e-11 * max(1.0, abs(expected_second))
    h = 1e-4
    lower, upper = kernel(zeta - h), kernel(zeta + h)
    assert abs((upper[0] - lower[0]) / (2 * h) - first) <= 1e-8
    assert abs((upper[1] - lower[1]) / (2 * h) - second) <= 1e-8
    assert abs((upper[0] - 2 * value + lower[0]) / h**2 - second) <= 1e-6
