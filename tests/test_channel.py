import math

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
from conftest import make_problem


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


def test_discrete_problem_is_normalized_and_symmetric():
    _, _, grid, prob = make_problem(n_side=10)
    np.testing.assert_allclose(prob.w.sum(axis=1), 1.0, rtol=0, atol=1e-13)
    assert abs(prob.p_y.sum() - 1.0) <= 1e-12
    assert prob.p_y.min() > 0.0
    assert prob.validate() == []
    # symmetry holds exactly, not to rounding
    assert np.array_equal(prob.d[np.ix_(prob.neg_x, prob.neg_y)], prob.d)
    assert np.array_equal(prob.w[np.ix_(prob.neg_x, prob.neg_y)], prob.w)
    assert np.array_equal(prob.p_y[prob.neg_y], prob.p_y)
    assert prob.rootfind_safe


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
    _, _, grid, prob = make_problem(snr_db=15.0, n_side=15)
    assert grid.pruned.size > 0
    assert prob.n < grid.n_side**2
    assert prob.n == grid.points.shape[0]
    assert prob.p_y.min() > 0.0
    np.testing.assert_array_equal(prob.neg_y, np.arange(prob.n - 1, -1, -1))
    assert prob.validate() == []


def test_all_nodes_below_floor_raises():
    cons = build_constellation("qpsk")
    chan = build_channel(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(DegenerateGridError):
        discretize(chan, cons, n_side=10, prob_floor=1.0)


def test_tiny_grid_rejected():
    cons = build_constellation("qpsk")
    chan = build_channel(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        discretize(chan, cons, n_side=1)


def test_asymmetric_constellation_needs_opt_in():
    from lmrate import Constellation

    base = build_constellation("qpsk")
    lopsided = Constellation(points=base.points,
                             probs=np.array([0.4, 0.1, 0.4, 0.1]))
    chan = build_channel(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(UnsupportedConfigurationError):
        discretize(chan, lopsided, n_side=6)
    _, prob = discretize(chan, lopsided, n_side=6, allow_asymmetric=True)
    assert prob.neg_x is None and prob.neg_y is None
    assert not prob.rootfind_safe


def test_mismatched_decoder_disables_rootfind_default():
    _, _, _, prob = make_problem(h_hat=[[1.0, 0.0], [0.0, 0.8]], n_side=6)
    assert not prob.rootfind_safe
    assert prob.validate() == []


def test_with_threshold_marks_inconsistency():
    _, _, _, prob = make_problem(n_side=6)
    inflated = prob.with_threshold(prob.d.max() + 1.0)
    assert inflated.t == prob.d.max() + 1.0
    issues = inflated.validate()
    assert any("t =" in v and "differs" in v for v in issues)
    # everything except the threshold tie stays intact
    assert all("t =" in v for v in issues)


def test_problem_json_round_trip():
    _, _, _, prob = make_problem(n_side=6)
    back = DiscreteProblem.from_json(prob.to_json())
    assert np.array_equal(back.d, prob.d)
    assert np.array_equal(back.w, prob.w)
    assert np.array_equal(back.p_x, prob.p_x)
    assert np.array_equal(back.p_y, prob.p_y)
    assert back.t == prob.t
    assert np.array_equal(back.neg_x, prob.neg_x)
    assert np.array_equal(back.neg_y, prob.neg_y)
    assert back.rootfind_safe == prob.rootfind_safe
