"""Kernel reductions checked against dense evaluation, plus stability checks."""

import math
import tracemalloc

import numpy as np
import pytest

import lmrate._kernels as K
from lmrate import (Coupling, ScarlettDualPoint, SolverConfig, build_channel, discretize,
                    gmi, scarlett_dual_value, solve)
from lmrate.constellation import Constellation, build_constellation
from lmrate._newton import dual_hessian, from_coupling
from conftest import make_problem, rotation


def _random_inputs(rng, m=6, n=13):
    d = rng.uniform(0.0, 4.0, (m, n))
    lphi = rng.normal(0.0, 1.0, m)
    lpsi = rng.normal(0.0, 1.0, n)
    log_px = np.log(rng.dirichlet(np.ones(m)))
    log_py = np.log(rng.dirichlet(np.ones(n)))
    return d, lphi, lpsi, log_px, log_py


def _dense_scalings(lphi, lpsi, lam, d, log_px, log_py):
    """Row and column updates by a dense shifted log-sum-exp over the whole
    metric, summed in long double."""
    def update(log_p, e, axis):
        e = e.astype(np.longdouble)
        mx = e.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(e - mx).sum(axis=axis)) + mx.squeeze(axis)
        return (log_p - lse).astype(np.float64)

    return (update(log_px, lpsi[None, :] - lam * d, 1),
            update(log_py, lphi[:, None] - lam * d, 0))


def _assert_close(got, want, rtol, err_msg=""):
    # relative to the largest magnitude, so entries near zero do not
    # turn rounding into a failure
    assert np.all(np.isfinite(got)), err_msg
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want)), err_msg


def test_scale_rows_finite_where_plain_sums_underflow(rng):
    # every term exp(lpsi_j - lam*d_ij) underflows at lam = 1e6, so a plain
    # sum would be zero; the shifted loop stays finite and exact
    d, lphi, lpsi, log_px, log_py = _random_inputs(rng)
    d += 1.0  # keep every metric entry strictly positive
    assert np.all(np.exp(lpsi[None, :] - 1e6 * d) == 0.0)
    rows, cols = _dense_scalings(lphi, lpsi, 1e6, d, log_px, log_py)
    _assert_close(K.scale_rows(lpsi, 1e6, d, log_px), rows, 1e-13)
    _assert_close(K.scale_cols(lphi, 1e6, d, log_py), cols, 1e-13)


def test_scaling_matches_dense_lse(rng):
    d, lphi, lpsi, log_px, log_py = _random_inputs(rng)
    lam = 0.7
    rows, cols = _dense_scalings(lphi, lpsi, lam, d, log_px, log_py)
    np.testing.assert_allclose(K.scale_rows(lpsi, lam, d, log_px), rows, rtol=1e-13)
    np.testing.assert_allclose(K.scale_cols(lphi, lam, d, log_py), cols, rtol=1e-13)


def test_coupling_stats_against_dense(rng):
    d, lphi, lpsi, log_px, log_py = _random_inputs(rng)
    lam = 1.1
    e = lphi[:, None] + lpsi[None, :] - lam * d
    q = np.exp(e)
    # mass and sum q log q are derived from these four (test_problem.py
    # checks them against dense q)
    row, col, metric_mass, moment2 = K.coupling_stats(lphi, lpsi, lam, d)
    np.testing.assert_allclose(row, q.sum(axis=1), rtol=1e-12)
    np.testing.assert_allclose(col, q.sum(axis=0), rtol=1e-12)
    assert abs(metric_mass - (d * q).sum()) <= 1e-12 * max(1.0, (d * q).sum())
    assert abs(moment2 - (d * d * q).sum()) <= 1e-12 * max(1.0, (d * d * q).sum())
    s1, s2 = K.metric_moments(lphi, lpsi, lam, d)
    assert (s1, s2) == (metric_mass, moment2)


def test_row_blocks_match_one_block(rng, monkeypatch):
    # the coupling sweeps accumulate over row blocks: a row's marginal
    # finishes in its block, while the column marginal and the moments are
    # sums over the inputs carried across blocks
    d, lphi, lpsi, _, _ = _random_inputs(rng)
    m, n = d.shape
    stats = K.coupling_stats(lphi, lpsi, 1.1, d)
    moments = K.metric_moments(lphi, lpsi, 1.1, d)
    monkeypatch.setattr(K, "BLOCK_ENTRIES", 2 * n)   # row blocks of 2, 2 and 2
    assert len(list(K._blocks(m, n))) == 3
    split = K.coupling_stats(lphi, lpsi, 1.1, d)
    np.testing.assert_array_equal(split[0], stats[0])
    np.testing.assert_allclose(split[1], stats[1], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(split[2:], stats[2:], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(K.metric_moments(lphi, lpsi, 1.1, d), moments,
                               rtol=1e-13, atol=0.0)


def test_sweep_temporaries_bounded(rng):
    # each coupling sweep exponentiates and weights its block in place: at
    # most one metric-sized temporary beside the block itself
    m, n = 64, 1000
    d = rng.uniform(0.0, 4.0, (m, n))
    lphi = rng.normal(0.0, 1.0, m)
    lpsi = rng.normal(0.0, 1.0, n)
    assert len(list(K._blocks(m, n))) == 1
    for kernel in (K.coupling_stats, K.metric_moments):
        tracemalloc.start()
        try:
            kernel(lphi, lpsi, 0.9, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * d.nbytes, (kernel.__name__, peak / d.nbytes)


def test_column_blocks_match_one_block(rng, monkeypatch):
    # the shifted kernels reduce over the inputs in column blocks; splitting
    # the columns must not change a column's reduction
    d, lphi, _, log_px, log_py = _random_inputs(rng)
    m, n = d.shape
    a = rng.normal(0.0, 0.5, m)
    sums = K.joint_sums(np.exp(log_px), rng.dirichlet(np.ones(n), m), d)
    lse = K.scale_cols_lse(lphi, 0.9, d, log_py)
    dual = K.mismatch_dual_value(sums, a, log_px, 0.8, d)
    monkeypatch.setattr(K, "BLOCK_ENTRIES", 5 * m)   # column blocks of 5, 5 and 3
    assert len(list(K._blocks(n, m))) == 3
    np.testing.assert_array_equal(K.scale_cols_lse(lphi, 0.9, d, log_py), lse)
    np.testing.assert_allclose(K.mismatch_dual_value(sums, a, log_px, 0.8, d), dual,
                               rtol=1e-13, atol=0.0)


def test_underflowed_entries_contribute_zero():
    # exponent below the double underflow threshold: exact zero contribution
    lphi = np.array([0.0])
    lpsi = np.array([0.0, -800.0])
    d = np.array([[0.0, 0.0]])
    _, col, mass, _, neg_entropy = Coupling(lphi, lpsi, 0.0, d).stats()
    assert col[1] == 0.0
    assert mass == 1.0
    assert neg_entropy == 0.0


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
        return K.mismatch_dual_value(K.joint_sums(p_x, w, d), a, log_px, z, d)

    value, first, second = kernel(zeta)
    assert abs(value - expected) <= 1e-11 * max(1.0, abs(expected))
    assert abs(first - expected_first) <= 1e-11 * max(1.0, abs(expected_first))
    assert abs(second - expected_second) <= 1e-11 * max(1.0, abs(expected_second))
    h = 1e-4
    lower, upper = kernel(zeta - h), kernel(zeta + h)
    assert abs((upper[0] - lower[0]) / (2 * h) - first) <= 1e-8
    assert abs((upper[1] - lower[1]) / (2 * h) - second) <= 1e-8
    assert abs((upper[0] - 2 * value + lower[0]) / h**2 - second) <= 1e-6


def _kernel_calls(p, lphi, lpsi, lam):
    """Each axis-table kernel as a function of the tables (None: block loop),
    its results as a tuple.  The classical dual takes lam as its tilt and the
    shifts a = lphi - log p_x of a scaled coupling."""
    log_px, log_py = np.log(p.p_x), np.log(p.p_y)
    sums = K.joint_sums(p.p_x, p.w, p.d)
    return {
        "scale_rows": lambda axes: (K.scale_rows(lpsi, lam, p.d, log_px, axes),),
        "scale_cols": lambda axes: (K.scale_cols(lphi, lam, p.d, log_py, axes),),
        "coupling_stats": lambda axes: K.coupling_stats(lphi, lpsi, lam, p.d, axes),
        "metric_moments": lambda axes: K.metric_moments(lphi, lpsi, lam, p.d, axes),
        "mismatch_dual_value": lambda axes: K.mismatch_dual_value(
            sums, lphi - log_px, log_px, lam, p.d, axes),
        "projected_sweep": lambda axes: _projected(p, lphi, lpsi, lam, axes),
    }


def _projected(p, lphi, lpsi, lam, axes):
    """projected_sweep's results as one flat tuple: the evaluation's three
    sums, then the next row update, column update and metric mass."""
    stats, step = K.projected_sweep(lphi, lpsi, lam, p.d, p.d_max - p.d_min,
                                    np.log(p.p_x), np.log(p.p_y), p.p_y, axes)
    return (*stats, *step)


def _scalings(rng, p):
    return (np.log(p.p_x) + rng.normal(0.0, 1.0, p.m),
            np.log(p.p_y) + rng.normal(0.0, 1.0, p.n))


@pytest.mark.parametrize("snr_db", [0.0, 10.0])
def test_factored_kernels_match_block_loop(rng, monkeypatch, snr_db):
    # channel-built qam16 at grid 50; at 10 dB pruning leaves 1020 of the
    # 2500 nodes, so the grid sums see zero-filled nodes.  The table sums go
    # through the inputs' 4 levels on each axis.  The crossover is lowered
    # so that every instance takes the factored path.
    p = make_problem("qam16", snr_db=snr_db, n_side=50)[3]
    assert p.n == (2500 if snr_db == 0.0 else 1020)
    assert p.axes is not None
    monkeypatch.setattr(K, "FACTORED_MIN_ENTRIES", 0)
    lphi, lpsi = _scalings(rng, p)
    # the classical dual's first derivative is a difference of two sums of
    # about sum w d and vanishes at the maximizer: its rounding scales with
    # that sum, not with itself
    atol = {("mismatch_dual_value", 1): 1e-12 * K.joint_sums(p.p_x, p.w, p.d).wd}
    for lam in (0.0, 1.0, (1.0 - 1e-12) * K.LSE_SWITCH / p.axes.span):
        assert K._factored(p.axes, lam, p.d)
        for name, kernel in _kernel_calls(p, lphi, lpsi, lam).items():
            for k, (got, want) in enumerate(zip(kernel(p.axes), kernel(None))):
                if (name, k) in atol:
                    assert abs(got - want) <= atol[name, k], f"{name}[{k}] at lam={lam}"
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0,
                                               err_msg=f"{name}[{k}] at lam={lam}")


def _axis_posterior_calls(monkeypatch):
    """A list that grows by one at each call of _kernels._axis_posteriors."""
    calls = []
    branch = K._axis_posteriors

    def counted(*args):
        calls.append(args)
        return branch(*args)

    monkeypatch.setattr(K, "_axis_posteriors", counted)
    return calls


_AXIS_CELLS = [(scheme, n_side, snr_db, None)
               for scheme, n_side in (("qpsk", 200), ("qam16", 50), ("qam64", 50), ("qam256", 50))
               for snr_db in (0.0, 10.0)] + [("qpsk", 50, 20.0, None),
                                             ("qam16", 50, 0.0, np.diag([1.0, 0.8]))]


@pytest.mark.parametrize("scheme, n_side, snr_db, h_hat", _AXIS_CELLS,
                         ids=lambda v: "diag" if isinstance(v, np.ndarray) else None)
def test_axis_posteriors_match_block_loop(monkeypatch, scheme, n_side, snr_db, h_hat):
    # every built-in alphabet's levels form a full product under a
    # diagonal decoder, so at a = 0 under its uniform prior the classical
    # dual takes the per-axis posteriors, at any tilt: from 0 through the
    # GMI's s* to past the tables' guard, and on qpsk at 20 dB, whose
    # posteriors concentrate (its s* lies past the guard, and its variance
    # there is about 1e-16).  Under diag(1, 0.8) the two axes' levels and
    # node weights differ, so an axis weighted by the other's weights
    # shows.  The crossover is lowered so that every cell, qam16 at 10 dB
    # (16 x 1020) and qpsk at grid 50 included, takes the branch
    p = make_problem(scheme, snr_db=snr_db, n_side=n_side, h_hat=h_hat)[3]
    monkeypatch.setattr(K, "FACTORED_MIN_ENTRIES", 0)
    sums, log_px, a = p.joint, np.log(p.p_x), np.zeros(p.m)
    assert p.axes.product and sums.axis_cols is not None
    guard = K.LSE_SWITCH / p.axes.span
    calls = _axis_posterior_calls(monkeypatch)
    for lam in (0.0, 1.0, gmi(p).s_star, 2.0 * guard):
        calls.clear()
        got = K.mismatch_dual_value(sums, a, log_px, lam, p.d, p.axes)
        want = K.mismatch_dual_value(sums, a, log_px, lam, p.d, None)
        assert len(calls) == 1
        # at lam = 0 the value is 0 in exact arithmetic, a difference of
        # sums of about log M; the slope vanishes at s* and rounds like sum w d
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12,
                                   atol=1e-12 * math.log(p.m) if lam == 0.0 else 0.0,
                                   err_msg=f"value at lam={lam}")
        assert abs(got[1] - want[1]) <= 1e-12 * sums.wd, f"first at lam={lam}"
        np.testing.assert_allclose(got[2], want[2], rtol=1e-12, atol=0.0,
                                   err_msg=f"second at lam={lam}")


def test_axis_posteriors_only_on_equal_weights_over_a_product(rng, monkeypatch):
    # the per-axis branch needs a full product of levels, equal weights
    # log p_x + a and a metric past the crossover: qam16 at grid 50 and
    # 0 dB takes it at a = 0, and not with non-zero shifts, under a
    # non-uniform prior, under a rotated decoder (no levels), under a
    # singular one (4 x 1 levels for 16 inputs, no product), or at qpsk's
    # 4 x 2500
    p = make_problem("qam16", n_side=50)[3]
    calls = _axis_posterior_calls(monkeypatch)
    scarlett_dual_value(ScarlettDualPoint(zeta=1.0, a=np.zeros(p.m)), p)
    assert len(calls) == 1
    calls.clear()
    scarlett_dual_value(ScarlettDualPoint(zeta=1.0, a=rng.normal(0.0, 0.1, p.m)), p)
    cons = build_constellation("qam16")
    probs = np.exp(-0.3 * (cons.points ** 2).sum(axis=1))
    probs /= probs.sum()
    points = cons.points / math.sqrt(probs @ (cons.points ** 2).sum(axis=1))
    chan = build_channel(1.0, 0.9, np.pi / 18, 0.0)
    skewed = discretize(chan, Constellation(points, probs), 50)[1]
    assert skewed.axes.product and skewed.n == 2500
    gmi(skewed)
    rotated = make_problem("qam16", n_side=50, h_hat=rotation(np.pi / 18))[3]
    assert rotated.axes is None and rotated.joint.axis_cols is None
    gmi(rotated)
    singular = make_problem("qam16", n_side=50, h_hat=np.diag([1.0, 0.0]))[3]
    assert singular.axes is not None and not singular.axes.product
    gmi(singular)
    small = make_problem("qpsk", n_side=50)[3]
    assert small.axes.product and small.d.size < K.FACTORED_MIN_ENTRIES
    assert small.joint.axis_cols is None
    gmi(small)
    assert calls == []


def test_level_tables_replace_the_input_tables(rng):
    # qam64 at grid 50 takes 8 levels on each axis: every table sum
    # exponentiates the 8 + 8 level rows, never a 64 x 50 table of the
    # inputs, and a dual Hessian's one table exp also serves its
    # LevelCoupling, which builds the Newton step's products with Q
    p = make_problem("qam64", n_side=50)[3]
    n_side = p.axes.t1.shape[1]
    assert K._factored(p.axes, 1.0, p.d)
    lphi, lpsi = _scalings(rng, p)
    shapes = []
    exp = np.exp

    def spy(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return exp(x, *args, **kwargs)

    calls = list(_kernel_calls(p, lphi, lpsi, 1.0).values())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "exp", spy)
        for kernel in calls:
            kernel(p.axes)
        tables = [shape for shape in shapes if shape[-1:] == (n_side,)]
        assert len(tables) == len(calls) and set(tables) == {(16, n_side)}
        shapes.clear()
        h = dual_hessian(from_coupling(Coupling(lphi, lpsi, 1.0, p.d)), p, p.axes)
        q = h.q_scaled(np.ones(p.n))
        q.gram()
    assert isinstance(q, K.LevelCoupling)
    assert [shape for shape in shapes if shape[-1:] == (n_side,)] == [(16, n_side)]


def test_factored_path_guard_and_crossover(rng, monkeypatch):
    # at or past lam * (max t1 + max t2) = LSE_SWITCH and below the size
    # crossover the tables are ignored: the results are the block loop's.
    # Inputs whose decoder points form no product of levels (qam16 at grid
    # 50 and 0 dB under a rotated h_hat) get no tables at all
    p = make_problem("qam16", snr_db=10.0, n_side=50)[3]
    assert make_problem("qam16", n_side=50, h_hat=rotation(np.pi / 18))[3].axes is None
    guard = K.LSE_SWITCH / p.axes.span
    if guard * p.axes.span < K.LSE_SWITCH:
        guard = np.nextafter(guard, np.inf)
    for min_entries, lam in [(0, guard), (0, 2.0 * guard), (p.d.size + 1, 1.0)]:
        monkeypatch.setattr(K, "FACTORED_MIN_ENTRIES", min_entries)
        assert not K._factored(p.axes, lam, p.d)
        for name, kernel in _kernel_calls(p, *_scalings(rng, p), lam).items():
            for got, want in zip(kernel(p.axes), kernel(None)):
                np.testing.assert_array_equal(got, want, err_msg=f"{name} at lam={lam}")


def test_factored_sums_overflow_and_underflow_like_plain_sums(rng, monkeypatch):
    # the factored sums are assembled from their logs: scalings shifted so
    # far that a plain scaling sum overflows or underflows give finite,
    # matching updates on both paths, coupling entries that all overflow
    # give infinite sums on both, and scalings far off the gauge balance
    # (each factor alone overflows) give finite ones
    p = make_problem("qam16", n_side=50)[3]
    monkeypatch.setattr(K, "FACTORED_MIN_ENTRIES", 0)
    lphi, lpsi = _scalings(rng, p)
    for shift in (800.0, -800.0):
        calls = _kernel_calls(p, lphi + shift, lpsi + shift, 1.0)
        for name in ("scale_rows", "scale_cols"):
            (got,), (want,) = calls[name](p.axes), calls[name](None)
            assert np.all(np.isfinite(got)) and np.all(np.isfinite(want)), (name, shift)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0,
                                       err_msg=f"{name} at shift {shift}")
    calls = _kernel_calls(p, lphi + 1000.0, lpsi + 1000.0, 0.0)
    with np.errstate(over="ignore"):
        for name in ("coupling_stats", "metric_moments"):
            for got, want in zip(calls[name](p.axes), calls[name](None)):
                assert np.all(np.isposinf(got)) and np.all(np.isposinf(want)), name
    calls = _kernel_calls(p, lphi + 720.0, lpsi - 720.0, 1.0)
    for name in ("coupling_stats", "metric_moments"):
        for got, want in zip(calls[name](p.axes), calls[name](None)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=name)


def test_scalings_finite_by_construction(rng, monkeypatch):
    # no scaling update may rely on inf or NaN: with every floating-point
    # exception but underflow raised, both paths give finite updates that
    # match the dense reference, from lam = 0 through the factored guard to
    # lam = 1e6, where every unshifted term underflows
    p = make_problem("qam16", n_side=50)[3]
    monkeypatch.setattr(K, "FACTORED_MIN_ENTRIES", 0)
    lphi, lpsi = _scalings(rng, p)
    log_px, log_py = np.log(p.p_x), np.log(p.p_y)
    guard = K.LSE_SWITCH / p.axes.span
    lams = (0.0, 1.0, (1.0 - 1e-12) * guard, 2.0 * guard, 1e6)
    assert [K._factored(p.axes, lam, p.d) for lam in lams] == [True] * 3 + [False] * 2
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for shift in (0.0, 800.0, -800.0):
            for lam in lams:
                rows, cols = _dense_scalings(lphi + shift, lpsi + shift, lam, p.d,
                                             log_px, log_py)
                for axes in (p.axes, None):
                    msg = f"shift {shift}, lam {lam}, axes {axes is not None}"
                    _assert_close(K.scale_rows(lpsi + shift, lam, p.d, log_px, axes),
                                  rows, 1e-12, "rows: " + msg)
                    _assert_close(K.scale_cols(lphi + shift, lam, p.d, log_py, axes),
                                  cols, 1e-12, "cols: " + msg)


@pytest.mark.parametrize("snr_db", [0.0, 10.0])
def test_grid_layout_copies_only_pruned_grids(rng, snr_db):
    # every node kept (0 dB): the grid and the node gather are views of
    # their input; pruned (10 dB, 1020 of 2500 nodes): a zero-filled scatter
    # and a gather at the kept nodes
    axes = make_problem("qam16", snr_db=snr_db, n_side=50)[3].axes
    full = axes.kept.size == 2500
    assert full == (snr_db == 0.0)
    values = rng.normal(0.0, 1.0, axes.kept.size)
    grid = rng.normal(0.0, 1.0, (50, 50))
    scattered = np.zeros(2500)
    scattered[axes.kept] = values
    np.testing.assert_array_equal(axes.grid(values), scattered.reshape(50, 50))
    np.testing.assert_array_equal(axes.nodes(grid), grid.ravel()[axes.kept])
    assert np.shares_memory(axes.grid(values), values) == full
    assert np.shares_memory(axes.nodes(grid), grid) == full


@pytest.mark.parametrize("shape", [(1,), (100,), (8191,), (8192,), (8193,), (40000,),
                                   (16, 2500), (3, 7)])
def test_vdot_matches_exact_sum(rng, shape):
    # within the worst-case bound of a recursive sum, against the correctly
    # rounded sum of the products
    x, y = rng.standard_normal(shape), rng.standard_normal(shape)
    products = (x * y).ravel()
    n = products.size
    bound = 2.0 * n * np.finfo(float).eps * float(np.abs(products).sum())
    assert abs(K.vdot(x, y) - math.fsum(products)) <= bound


def test_vdot_calls_blas_in_short_chunks(rng, monkeypatch):
    # OpenBLAS runs a dot product of more than 10,000 entries threaded, so
    # vdot hands it chunks of at most 8192, and a vector that short whole
    sizes = []

    def spy(x, y, *args):
        sizes.append(x.size)
        return dot(x, y, *args)

    dot = np.dot
    monkeypatch.setattr(np, "dot", spy)
    for n in (1, 100, 8192, 8193, 40000):
        sizes.clear()
        K.vdot(rng.standard_normal(n), rng.standard_normal(n))
        assert max(sizes) <= 8192 and sum(sizes) == n and len(sizes) == -(-n // 8192), n


def test_vdot_solves_make_no_einsum_call(qpsk_n10, monkeypatch):
    # the block-loop solves reduce through vdot alone, which np.einsum no
    # longer serves
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", spy)
    for strategy in ("root", "project"):
        report = solve(qpsk_n10, SolverConfig(lambda_strategy=strategy, max_iters=30))
        assert report.iterations > 0, strategy
    assert calls == []
