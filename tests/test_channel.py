import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lmrate import (
    ChannelSpec,
    DegenerateGridError,
    DiscreteProblem,
    UnsupportedConfigurationError,
    analytic_threshold,
    build_channel,
    build_constellation,
    discretize,
    quadratic_form_positive,
)
from lmrate._kernels import EXP_FLOOR, GridAxes
from lmrate.channel import _axis_squares, _grid_sum, _symmetric_axis
from conftest import make_problem, rotation


def test_build_channel_identity_and_snr():
    chan = build_channel(1.0, 1.0, 0.0, 0.0)
    np.testing.assert_array_equal(chan.h, np.eye(2))
    assert chan.sigma2 == 0.5
    assert chan.matched_decoder()

    chan10 = build_channel(1.0, 1.0, 0.0, 10.0)
    assert abs(chan10.sigma2 - 0.05) <= 1e-17


def test_distortion_matrix_layout():
    theta = math.pi / 18
    chan = build_channel(1.0, 0.9, theta, 0.0)
    h = chan.h
    assert h[0, 0] == math.cos(theta)
    assert h[0, 1] == math.sin(theta)
    assert h[1, 0] == -0.9 * math.sin(theta)
    assert h[1, 1] == 0.9 * math.cos(theta)


@pytest.mark.parametrize("snr_db", [-4000.0, 4000.0, math.nan])
def test_build_channel_needs_a_finite_positive_noise_variance(snr_db):
    # -4000 dB overflows sigma2 and 4000 dB underflows it to 0.0
    with pytest.raises(UnsupportedConfigurationError, match="snr_db"):
        build_channel(1.0, 0.9, 0.0, snr_db)


@pytest.mark.parametrize("eta, sigma2", [(0.9, 5e-311), (1e200, 0.5), (1.7e308, 0.5)])
def test_discretize_range_check_precedes_overflow(eta, sigma2):
    # a density exponent past the doubles (subnormal noise variance), squared
    # offsets past them, and images past them: each raises before numpy
    # can overflow
    chan = ChannelSpec(eta1=1.0, eta2=eta, theta=0.1, sigma2=sigma2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(UnsupportedConfigurationError, match="overflow a double"):
            discretize(chan, build_constellation("qam16"), 6)


def test_channel_spec_rejects_bad_params():
    with pytest.raises(ValueError):
        ChannelSpec(eta1=0.0, eta2=1.0, theta=0.0, sigma2=0.5)
    with pytest.raises(ValueError):
        ChannelSpec(eta1=1.0, eta2=1.0, theta=0.0, sigma2=-1.0)
    with pytest.raises(ValueError):
        ChannelSpec(eta1=1.0, eta2=1.0, theta=0.0, sigma2=0.5,
                    h_hat=np.eye(3))
    with pytest.raises(ValueError):
        ChannelSpec(1.0, 0.9, math.nan, 0.5)
    with pytest.raises(ValueError):
        build_channel(1.0, 0.9, math.inf, 0.0)


def test_quadratic_form_positivity():
    assert quadratic_form_positive(build_channel(1.0, 0.9, math.pi / 18, 0.0))
    assert quadratic_form_positive(build_channel(1.0, 1.0, 0.0, 0.0))
    # rotation by pi/2 makes the symmetric part indefinite
    assert not quadratic_form_positive(build_channel(1.0, 0.9, math.pi / 2, 0.0))


def test_two_node_grid_geometry():
    cons = build_constellation("qpsk")
    chan = build_channel(1.0, 1.0, 0.0, 0.0)
    grid, prob = discretize(chan, cons, n_side=2)
    assert grid.delta == 16.0
    assert grid.n_side == 2
    expected = {(-8.0, -8.0), (-8.0, 8.0), (8.0, -8.0), (8.0, 8.0)}
    assert {tuple(p) for p in grid.points} == expected
    assert prob.m == 4 and prob.n == 4


def _assert_symmetric(cons, prob):
    # negating an input maps it through negation_index, negating a kept node
    # reverses the node order: the metric is symmetric bit for bit, the
    # sums taken from it to rounding
    neg_x, neg_y = cons.negation_index(), np.arange(prob.n - 1, -1, -1)
    assert np.array_equal(prob.d[np.ix_(neg_x, neg_y)], prob.d)
    np.testing.assert_allclose(prob.w[np.ix_(neg_x, neg_y)], prob.w, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(prob.p_y[neg_y], prob.p_y, rtol=1e-13, atol=0.0)


def test_discrete_problem_is_normalized_and_symmetric():
    cons, _, grid, prob = make_problem(n_side=10)
    np.testing.assert_allclose(prob.w.sum(axis=1), 1.0, rtol=0, atol=1e-13)
    assert abs(prob.p_y.sum() - 1.0) <= 1e-12
    assert prob.p_y.min() > 0.0
    assert prob.validate() == []
    _assert_symmetric(cons, prob)


def test_axis_tables_rebuild_the_metric():
    # qam16 at 10 dB prunes 1480 of the 2500 nodes; the metric is the
    # pointwise ||y_j - h_hat x_i||^2 and the sum of its level tables read
    # at each input's levels, bit for bit
    cons, chan, grid, prob = make_problem("qam16", snr_db=10.0, n_side=50)
    diff = grid.points[None, :, :] - (cons.points @ chan.h_hat.T)[:, None, :]
    assert np.array_equal((diff * diff).sum(axis=2), prob.d)
    axes = prob.axes
    assert axes.kept.size == prob.n == 1020
    a, b = np.divmod(axes.kept, grid.n_side)
    assert np.array_equal(axes.t1[axes.u][:, a] + axes.t2[axes.v][:, b], prob.d)
    np.testing.assert_array_equal(axes.level, axes.u * 4 + axes.v)
    assert prob.validate() == []
    assert prob.with_threshold(prob.t).axes is axes
    assert DiscreteProblem.from_json(prob.to_json()).axes is None
    # the first axis's tables and levels given as the second's and the
    # second's as the first's
    swapped = DiscreteProblem(prob.d, prob.p_x, prob.p_y, prob.w, prob.t,
                              axes=GridAxes(axes.t2, axes.t1, axes.v, axes.u, axes.kept))
    assert swapped.validate() == ["level tables do not reproduce the metric"]


def test_input_levels_reproduce_the_axis_tables():
    # under the identity decoder qam16's decoder points take 4 values on
    # each axis, a full product of levels; a rotated decoder gives 16 on
    # each, 16 * 16 > 16 inputs, and no level tables; diag(1, 0) maps every
    # point onto the first axis: 4 levels there, 1 on the second, and no
    # full product
    prob = make_problem("qam16", snr_db=10.0, n_side=50)[3]
    assert (prob.axes.t1.shape[0], prob.axes.t2.shape[0]) == (4, 4) and prob.axes.product
    assert prob.validate() == []
    angle = np.pi / 18
    rotated = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    assert make_problem("qam16", n_side=20, h_hat=rotated)[3].axes is None
    flat = make_problem("qam16", n_side=20, h_hat=np.diag([1.0, 0.0]))[3]
    assert (flat.axes.t1.shape[0], flat.axes.t2.shape[0]) == (4, 1)
    assert not flat.axes.product
    assert flat.validate() == []


def test_symmetric_axis_matches_its_loop():
    # the axis is one array expression; this loop, node by node, is its
    # definition, and the two agree bit for bit
    for n_side in range(2, 40):
        for half_width in (8.0, 3.3, 0.7):
            ref = np.zeros(n_side)
            for k in range(n_side // 2):
                v = -half_width + k * (2.0 * half_width / (n_side - 1))
                ref[k], ref[n_side - 1 - k] = v, -v
            assert _symmetric_axis(n_side, half_width).tobytes() == ref.tobytes()


def test_grid_sum_is_the_broadcast_sum(rng):
    # the batched product [t1, 1] @ [1, t2] rounds each sum once, as the
    # broadcast sum does, whatever BLAS kernel runs it
    for m, n in [(1, 2), (4, 50), (16, 50), (3, 7), (64, 200)]:
        t1 = rng.uniform(0.0, 1.0, (m, n)) * 10.0 ** rng.uniform(-3, 5, (m, 1))
        t2 = rng.uniform(0.0, 1.0, (m, n)) * 10.0 ** rng.uniform(-3, 5, (m, 1))
        assert np.array_equal(_grid_sum(t1, t2), (t1[:, :, None] + t2[:, None, :]).reshape(m, -1))


def test_odd_grid_has_exact_center():
    _, _, grid, _ = make_problem(n_side=3)
    assert (0.0, 0.0) in {tuple(p) for p in grid.points}
    axis = np.unique(grid.points[:, 0])
    np.testing.assert_array_equal(axis, [-8.0, 0.0, 8.0])


@pytest.mark.parametrize("n_side,tol", [(50, 1e-8), (100, 5e-9), (200, 2.5e-9)])
def test_threshold_matches_analytic_value(n_side, tol):
    # tolerance schedule halves with each grid doubling; the quadrature is
    # far better than the schedule on these smooth integrands
    cons = build_constellation("qpsk")
    chan = build_channel(1.0, 0.9, math.pi / 18, 0.0)
    _, prob = discretize(chan, cons, n_side=n_side)
    t_ref = analytic_threshold(chan, cons)
    assert abs(prob.t - t_ref) <= tol


def test_analytic_threshold_identity_channel():
    cons = build_constellation("qpsk")
    chan = build_channel(1.0, 1.0, 0.0, 0.0)
    assert abs(analytic_threshold(chan, cons) - 2.0 * chan.sigma2) <= 1e-16


def test_analytic_threshold_direct_sum():
    cons = build_constellation("qpsk")
    chan = build_channel(1.0, 0.8, math.pi / 12, 5.0)
    acc = 2.0 * chan.sigma2
    for p, x in zip(cons.probs, cons.points):
        shift = chan.h @ x - x
        acc += p * float(shift @ shift)
    assert abs(analytic_threshold(chan, cons) - acc) <= 1e-15


def test_analytic_threshold_requires_matched_decoder():
    cons = build_constellation("qpsk")
    chan = build_channel(1.0, 0.9, 0.0, 0.0, h_hat=[[0.9, 0.0], [0.0, 0.9]])
    assert not chan.matched_decoder()
    with pytest.raises(UnsupportedConfigurationError):
        analytic_threshold(chan, cons)


def test_threshold_vanishes_at_high_snr():
    cons = build_constellation("qpsk")
    chan = build_channel(1.0, 1.0, 0.0, 100.0)
    assert analytic_threshold(chan, cons) <= 1e-9


def test_pruning_keeps_problem_valid():
    cons, _, grid, prob = make_problem(snr_db=15.0, n_side=15)
    assert grid.pruned.size > 0
    assert prob.n < grid.n_side**2
    assert prob.n == grid.points.shape[0]
    assert prob.p_y.min() > 0.0
    _assert_symmetric(cons, prob)
    assert prob.validate() == []


def test_all_nodes_below_floor_raises():
    cons = build_constellation("qpsk")
    chan = build_channel(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(DegenerateGridError):
        discretize(chan, cons, n_side=10, prob_floor=1.0)


def test_tiny_grid_rejected():
    cons = build_constellation("qpsk")
    chan = build_channel(1.0, 1.0, 0.0, 0.0)
    # a grid has a whole number of nodes a side, at least two; a numpy
    # integer is a whole number too
    for n_side in (1, 10.5, 10.0):
        with pytest.raises(ValueError, match="n_side must be an integer of at least 2"):
            discretize(chan, cons, n_side=n_side)
    assert discretize(chan, cons, n_side=np.int64(6))[0].n_side == 6
    # a zero width stacks every node on the origin, a negative one mirrors
    # the axis, and neither NaN nor inf spans a grid
    for half_width in (0.0, -8.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="half_width"):
            discretize(chan, cons, n_side=10, half_width=half_width)


def test_zero_prior_entry_rejected():
    # a zero prior entry would reach log(0) in the solver, the Newton oracle
    # and the GMI; discretize refuses it first, in validate_constellation's words
    from lmrate import Constellation, validate_constellation

    zero = Constellation([[1.0, 0.0], [-1.0, 0.0]], [1.0, 0.0])
    chan = build_channel(1.0, 1.0, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as err:
            discretize(chan, zero, 6)
    assert str(err.value) in validate_constellation(zero)


def test_asymmetric_constellation_accepted_by_default():
    from lmrate import Constellation

    base = build_constellation("qpsk")
    lopsided = Constellation(points=base.points,
                             probs=np.array([0.4, 0.1, 0.4, 0.1]))
    assert not lopsided.is_centrally_symmetric()
    chan = build_channel(1.0, 1.0, 0.0, 0.0)
    _, prob = discretize(chan, lopsided, 6)
    assert prob.validate() == []


def test_with_threshold_marks_inconsistency():
    _, _, _, prob = make_problem(n_side=6)
    inflated = prob.with_threshold(prob.d.max() + 1.0)
    assert inflated.t == prob.d.max() + 1.0
    assert [f.name for f in dataclasses.fields(inflated)] == ["d", "p_x", "p_y", "w", "t", "axes"]
    assert inflated.axes is prob.axes and inflated.d is prob.d
    issues = inflated.validate()
    assert any("t =" in v and "differs" in v for v in issues)
    # everything except the threshold tie stays intact
    assert all("t =" in v for v in issues)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_non_finite_threshold_rejected(t):
    # no coupling meets or misses a non-finite metric budget, and the root
    # solve would take log(s1 / t) of it; every way to set t is refused
    _, _, _, prob = make_problem(n_side=6)
    dumped = json.dumps(dict(json.loads(prob.to_json()), t=t))
    for build in (lambda: prob.with_threshold(t), lambda: dataclasses.replace(prob, t=t),
                  lambda: DiscreteProblem.from_json(dumped)):
        with pytest.raises(ValueError, match="threshold t must be finite"):
            build()


def test_problem_json_round_trip():
    _, _, _, prob = make_problem(n_side=6)
    back = DiscreteProblem.from_json(prob.to_json())
    assert np.array_equal(back.d, prob.d)
    assert np.array_equal(back.w, prob.w)
    assert np.array_equal(back.p_x, prob.p_x)
    assert np.array_equal(back.p_y, prob.p_y)
    assert back.t == prob.t
    assert set(json.loads(prob.to_json())) == {"d", "p_x", "p_y", "w", "t"}
    # dumps written before the symmetry flag and the negation maps went
    # still load
    payload = dict(json.loads(prob.to_json()), rootfind_safe=True,
                   neg_x=list(range(prob.m - 1, -1, -1)),
                   neg_y=list(range(prob.n - 1, -1, -1)))
    old = DiscreteProblem.from_json(json.dumps(payload))
    assert np.array_equal(old.d, prob.d) and old.t == prob.t
    assert old.validate() == []


def _read_problem(**fields):
    """validate() of a 2 x 2 problem read back through from_json, its fields
    edited by ``fields``; p_y and t are derived unless given.  A constructor
    error comes back as the one violation."""
    data = {"d": [[0.0, 1.0], [1.0, 0.0]], "p_x": [0.5, 0.5],
            "w": [[0.75, 0.25], [0.25, 0.75]], **fields}
    p_x, w, d = (np.array(data[k]) for k in ("p_x", "w", "d"))
    if "p_y" not in data:
        data["p_y"] = (p_x @ w).tolist()
    if "t" not in data:
        data["t"] = float(np.sum(p_x[:, None] * w * d))
    try:
        return DiscreteProblem.from_json(json.dumps(data)).validate()
    except ValueError as err:
        return [str(err)]


def _discretize_below_zero():
    discretize(build_channel(1.0, 1.0, 0.0, 0.0), build_constellation("qpsk"), 10,
               prob_floor=-1.0)


@pytest.mark.parametrize("read,message", [
    (lambda: _read_problem(w=[[1.0], [1.0]], p_y=[1.0], t=0.0),
     "d and w must have the same shape"),
    (lambda: _read_problem(p_x=[1.0], p_y=[0.5, 0.5], t=0.0),
     "marginal lengths must match the metric shape"),
    (lambda: _read_problem(d=[[0.0, 1.0], [1.0, -1.0]]), "metric has negative entries"),
    (lambda: _read_problem(w=[[0.75, 0.5], [0.25, 0.75]]),
     "w rows deviate from stochasticity by 2.500e-01 (> 1e-12)"),
    (lambda: _read_problem(w=[[1.0, 0.0], [1.0, 0.0]]),
     "p_y has non-positive entries (pruning incomplete)"),
    (lambda: _read_problem(p_x=[1.0, 0.0]), "p_x has non-positive entries"),
    (lambda: _read_problem(p_y=[0.6, 0.4]),
     "p_y deviates from the marginalization of p_x @ w by 1.000e-01"),
    (_discretize_below_zero, "prob_floor must be nonnegative"),
], ids=["w-shape", "p_x-length", "negative-d", "w-rows", "p_y-zero", "p_x-zero",
        "p_y-marginal", "prob_floor"])
def test_bad_problem_data_reported(read, message):
    # problems read from a file are outside input: each defect is named, and
    # each edit here makes exactly one
    try:
        issues = read()
    except ValueError as err:
        issues = [str(err)]
    assert issues == [message]


def _plain_grid_sum(coords, centers):
    """||y_j - centers_i||^2 over the grid nodes as a broadcast sum."""
    t1, t2 = _axis_squares(coords, centers)
    return (t1[:, :, None] + t2[:, None, :]).reshape(len(centers), -1)


def _plain_discretize(chan, cons, n_side, prob_floor=1e-100, half_width=8.0):
    """(d, p_y, w, t) of discretize's instance by the plain pipeline: np.exp
    of every exponent, out-of-place normalization, the kept columns copied
    C-ordered, and t as np.sum of the triple product."""
    coords = _symmetric_axis(n_side, half_width)
    dens = np.exp(-_plain_grid_sum(coords, cons.points @ chan.h.T) / (2.0 * chan.sigma2))
    d = _plain_grid_sum(coords, cons.points @ chan.h_hat.T)
    w = dens / dens.sum(axis=1)[:, None]
    p_y = cons.probs @ w
    keep = p_y >= prob_floor
    if not keep.all():
        w = np.ascontiguousarray(w[:, keep])
        d = np.ascontiguousarray(d[:, keep])
        w = w / w.sum(axis=1)[:, None]
        p_y = cons.probs @ w
    return d, p_y, w, float(np.sum(cons.probs[:, None] * w * d))


# (scheme, n_side, snr_db, eta) at theta pi/18 whose density has a row that
# peaks between exp(-745) and exp(-700): zeroing every entry below exp(-700)
# would leave that row empty and raise DegenerateGridError
_NEAR_FLOOR = [("qpsk", 20, 36.0, 1.0), ("qpsk", 50, 50.0, 1.0), ("qam64", 10, 28.0, 0.8),
               ("qam64", 20, 34.0, 1.0), ("qam64", 50, 42.0, 0.8)]
_BITWISE_CELLS = ([(scheme, 50, snr_db, 0.9, None) for scheme in ("qpsk", "qam16")
                   for snr_db in (0.0, 10.0, 20.0)]
                  + [("qam16", 50, 10.0, 0.9, rotation(math.pi / 18))]
                  + [cell + (None,) for cell in _NEAR_FLOOR])


@pytest.mark.parametrize("scheme, n_side, snr_db, eta, h_hat", _BITWISE_CELLS)
def test_discretize_keeps_the_plain_pipelines_bits(scheme, n_side, snr_db, eta, h_hat):
    # d, p_y and t bit for bit; w too, except that entries below 1e-300 may
    # be exact zeros, and none is subnormal.  Both arrays are C-ordered: an
    # F-ordered w makes p_x @ w round differently
    cons = build_constellation(scheme)
    chan = build_channel(1.0, eta, math.pi / 18, snr_db, h_hat=h_hat)
    d, p_y, w, t = _plain_discretize(chan, cons, n_side)
    prob = discretize(chan, cons, n_side)[1]
    assert np.array_equal(prob.d, d) and np.array_equal(prob.p_y, p_y) and prob.t == t
    assert prob.validate() == []
    small = w < 1e-300
    assert np.array_equal(prob.w[~small], w[~small])
    assert np.all((prob.w[small] == 0.0) | (prob.w[small] == w[small]))
    assert not np.any((prob.w > 0.0) & (prob.w < np.finfo(float).tiny))
    assert prob.w.flags.c_contiguous and prob.d.flags.c_contiguous


@pytest.mark.parametrize("scheme, n_side, snr_db, eta", _NEAR_FLOOR)
def test_instances_near_the_exp_floor_still_build(scheme, n_side, snr_db, eta):
    cons = build_constellation(scheme)
    chan = build_channel(1.0, eta, math.pi / 18, snr_db)
    e = -_plain_grid_sum(_symmetric_axis(n_side, 8.0), cons.points @ chan.h.T)
    e /= 2.0 * chan.sigma2
    assert np.any(np.where(e < EXP_FLOOR, 0.0, np.exp(e)).sum(axis=1) == 0.0)
    assert discretize(chan, cons, n_side)[1].t == _plain_discretize(chan, cons, n_side)[3]


@pytest.mark.parametrize("snr_db", [0.0, 10.0])
def test_discretize_peak_memory(snr_db):
    # qam256 at grid 100: at most three M x n_side^2 arrays alive at once,
    # in place of four; at 10 dB the grid is pruned
    cons = build_constellation("qam256")
    chan = build_channel(1.0, 0.9, math.pi / 18, snr_db)
    tracemalloc.start()
    try:
        grid, prob = discretize(chan, cons, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (grid.pruned.size > 0) == (snr_db > 0.0)
    full = 8 * cons.size * 100 * 100
    assert peak <= 3.1 * full, peak / full
