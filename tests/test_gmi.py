import dataclasses
import math

import numpy as np
import pytest

import lmrate._kernels as K
from lmrate import BracketError, ScarlettDualPoint, _newton, gmi, scarlett_dual_value
from lmrate.channel import DiscreteProblem
from conftest import make_problem, random_problem


def _matched_metric_problem(rng, m=4, n=6):
    """Metric d = -log w makes the decoder posterior-matched, where the
    tilt value at s = 1 collapses to the mutual information exactly."""
    w = rng.uniform(0.2, 1.0, (m, n))
    w /= w.sum(axis=1, keepdims=True)
    p_x = np.full(m, 1.0 / m)
    p_y = p_x @ w
    d = -np.log(w)
    t = float(np.sum(p_x[:, None] * w * d))
    return DiscreteProblem(d=d, p_x=p_x, p_y=p_y, w=w, t=t)


def _mutual_information(p):
    marg = p.p_x @ p.w
    return float(np.sum(p.p_x[:, None] * p.w
                        * np.log(p.w / marg[None, :])))


def test_matched_metric_attains_mutual_information(rng):
    p = _matched_metric_problem(rng)
    result = gmi(p)
    assert abs(result.value_nats - _mutual_information(p)) <= 1e-9
    # the location is rounding-limited near the flat top, unlike the value
    assert abs(result.s_star - 1.0) <= 1e-6
    assert result.evaluations > 0


def test_metric_against_the_channel_gives_zero(rng):
    # d = log w (shifted to be nonnegative) ranks the likeliest input last,
    # so gmi'(0) < 0 and the maximum is gmi(0) = 0, attained at s = 0
    p = _matched_metric_problem(rng)
    d = -p.d + p.d.max()
    reversed_metric = DiscreteProblem(d=d, p_x=p.p_x, p_y=p.p_y, w=p.w,
                                      t=float(np.sum(p.p_x[:, None] * p.w * d)))
    result = gmi(reversed_metric)
    assert result.value_nats == 0.0
    assert result.s_star == 0.0


def test_value_is_nonnegative(rng, qpsk_n6):
    assert gmi(qpsk_n6).value_nats >= -1e-10
    for _ in range(3):
        assert gmi(random_problem(rng, 4, 6)).value_nats >= -1e-10


def test_tilt_function_is_concave_along_scan(rng, qpsk_n6):
    # chord test on the scalar tilt function at random triples
    p = qpsk_n6
    shifts = np.zeros(p.m)

    def f(s):
        return scarlett_dual_value(ScarlettDualPoint(zeta=s, a=shifts), p)

    for _ in range(100):
        s1, s2 = np.sort(rng.uniform(0.0, 6.0, 2))
        u = rng.uniform(0.0, 1.0)
        mid = u * s1 + (1.0 - u) * s2
        assert f(mid) >= u * f(s1) + (1.0 - u) * f(s2) - 1e-10


def test_metric_scaling_shifts_tilt_only(qpsk_n6):
    # the start 1/E[d] and every Newton step scale with the metric, and no
    # cap binds below 1e6, so the search takes the same evaluations at every
    # scale; at c = 1e-4 the tilt (8764) lies past the 3200 that a cap of 50
    # doubled six times used to reach
    base = gmi(qpsk_n6)
    for c in (3.0, 1e-3, 1e-4):
        scaled = DiscreteProblem(d=c * qpsk_n6.d, p_x=qpsk_n6.p_x, p_y=qpsk_n6.p_y,
                                 w=qpsk_n6.w, t=c * qpsk_n6.t)
        out = gmi(scaled)
        assert abs(out.value_nats - base.value_nats) <= 1e-8
        assert abs(out.s_star - base.s_star / c) <= 1e-6 * max(1.0, base.s_star / c)
        assert out.evaluations == base.evaluations


def test_pinned_maximizer_raises(qpsk_n6, monkeypatch):
    # a maximizer past the search cap raises rather than undershoot the GMI
    base = gmi(qpsk_n6)
    monkeypatch.setattr(_newton, "SCALAR_CAP", base.s_star / 5000.0)
    with pytest.raises(BracketError, match="search cap"):
        gmi(qpsk_n6)


def test_flat_metric_resolves_at_once(rng):
    # a metric constant along each column (d_ij = c_j) gives every posterior
    # zero variance and gmi a zero slope at every tilt: the GMI is 0, and the
    # first evaluation says so, where the search used to bisect towards
    # s = 0 for 200 evaluations or double its cap into a BracketError
    one = DiscreteProblem(d=np.array([[1e-4]]), p_x=np.ones(1), p_y=np.ones(1),
                          w=np.ones((1, 1)), t=1e-300)
    result = gmi(one)
    assert (result.value_nats, result.evaluations) == (0.0, 1)
    # under a non-uniform prior the posterior variance comes out as rounding
    # of either sign, which used to send the search walking
    priors = [np.full(4, 0.25)] + [rng.uniform(0.1, 1.0, 4) for _ in range(100)]
    for p_x in priors:
        p_x = p_x / p_x.sum()
        w = rng.uniform(0.1, 1.0, (4, 6))
        w /= w.sum(axis=1, keepdims=True)
        d = np.tile(rng.uniform(0.0, 3.0, 6), (4, 1))
        flat = DiscreteProblem(d=d, p_x=p_x, p_y=p_x @ w, w=w,
                               t=float(np.sum(p_x[:, None] * w * d)))
        result = gmi(flat)
        assert abs(result.value_nats) <= 1e-15
        assert result.evaluations == 1


def test_maximizer_beyond_initial_cap_is_followed():
    # qam16 at 30 dB: the tilt maximizer lies past 50, once the search's
    # starting cap, so a search that stops at 50 undershoots the GMI by
    # 8e-5 nats
    p = make_problem("qam16", snr_db=30.0, n_side=50)[3]
    result = gmi(p)
    shifts = np.zeros(p.m)
    for s in (50.0, 100.0, 200.0, 400.0):
        value = scarlett_dual_value(ScarlettDualPoint(zeta=s, a=shifts), p)
        assert result.value_nats >= value - 1e-13
    assert result.s_star > 50.0


def test_factored_tilt_matches_block_loop(monkeypatch):
    # qam16 at grid 50 and 0 dB keeps every node and lies above the
    # crossover, and its levels form a full product under a uniform prior,
    # so each evaluation takes the per-axis posteriors; the block loop,
    # without the axes, takes the same search
    p = make_problem("qam16", n_side=50)[3]
    factored = 0
    posterior = K._axis_posteriors

    def counted(*args):
        nonlocal factored
        factored += 1
        return posterior(*args)

    monkeypatch.setattr(K, "_axis_posteriors", counted)
    got = gmi(p)
    assert p.n == 2500 and factored == got.evaluations
    want = gmi(dataclasses.replace(p, axes=None))
    assert factored == got.evaluations
    assert abs(got.value_nats - want.value_nats) <= 1e-13
    assert abs(got.s_star - want.s_star) <= 1e-12 * want.s_star
    assert got.evaluations == want.evaluations


def test_evaluation_budget(qpsk_n10, monkeypatch):
    # gmi reaches the kernel through the lmrate._kernels module attribute,
    # so counting there sees every evaluation; Newton on the tilt resolves
    # a 0 dB instance in a handful of them
    calls = 0
    kernel = K.mismatch_dual_value

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(K, "mismatch_dual_value", counted)
    result = gmi(qpsk_n10)
    assert 0 < calls <= 12
    assert result.evaluations == calls


def test_gmi_never_exceeds_full_rate(qpsk_n6):
    from lmrate import SolverConfig, solve

    report = solve(qpsk_n6, SolverConfig(tol=1e-12, max_iters=3000))
    assert report.converged
    assert gmi(qpsk_n6).value_nats <= report.lm_rate_nats + 1e-8
