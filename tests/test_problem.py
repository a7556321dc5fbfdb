import math

import numpy as np
import pytest

from lmrate import (
    Coupling,
    EvaluationError,
    SolverConfig,
    UnsupportedConfigurationError,
    constraint_gap,
    lm_rate,
    primal_entropy,
    product_coupling,
    shannon_entropy,
    solve,
)
from lmrate import problem
from lmrate.channel import DiscreteProblem
from conftest import random_problem


def _point_mass_problem():
    d = np.array([[0.0]])
    return DiscreteProblem(d=d, p_x=np.array([1.0]), p_y=np.array([1.0]),
                           w=np.array([[1.0]]), t=1.0)


def test_single_point_coupling_has_zero_rate():
    p = _point_mass_problem()
    q = Coupling(np.zeros(1), np.zeros(1), 0.0, p.d)
    assert q.dense()[0, 0] == 1.0
    assert primal_entropy(q) == 0.0
    assert lm_rate(q, p) == 0.0


def test_uniform_product_entropy():
    d = np.zeros((2, 2))
    p = DiscreteProblem(d=d, p_x=np.full(2, 0.5), p_y=np.full(2, 0.5),
                        w=np.full((2, 2), 0.5), t=1.0)
    q = product_coupling(p)
    # sum q log q over the uniform 2x2 coupling
    assert abs(primal_entropy(q) - math.log(0.25)) <= 1e-15
    assert abs(lm_rate(q, p)) <= 1e-15
    row, col = q.marginals()
    np.testing.assert_allclose(row, p.p_x, rtol=0, atol=1e-16)
    np.testing.assert_allclose(col, p.p_y, rtol=0, atol=1e-16)


def test_product_coupling_rate_is_zero(rng):
    p = random_problem(rng, 4, 6)
    q = product_coupling(p)
    assert abs(lm_rate(q, p, feasibility_tol=1e-12)) <= 1e-13


def test_feasibility_gate_raises(rng):
    p = random_problem(rng, 4, 6)
    q = Coupling(np.log(p.p_x) + 0.3, np.log(p.p_y), 0.0, p.d)
    with pytest.raises(EvaluationError, match="infeasible"):
        lm_rate(q, p, feasibility_tol=1e-6)
    # without the gate the evaluation itself still goes through
    assert np.isfinite(lm_rate(q, p))


def test_shannon_entropy_values():
    assert abs(shannon_entropy(np.full(8, 0.125)) - math.log(8.0)) <= 1e-15
    assert shannon_entropy(np.array([1.0])) == 0.0
    with pytest.raises(EvaluationError):
        shannon_entropy(np.array([0.5, 0.5, 0.0]))
    with pytest.raises(EvaluationError):
        shannon_entropy(np.array([1.5, -0.5]))


def test_dense_cap_enforced(rng, monkeypatch):
    # dense() reads the cap when called, as solve's hand-off test does
    p = random_problem(rng, 4, 6)
    q = product_coupling(p)
    monkeypatch.setattr(problem, "DENSE_CAP", 10)
    with pytest.raises(UnsupportedConfigurationError):
        q.dense()
    monkeypatch.setattr(problem, "DENSE_CAP", 24)
    assert q.dense().shape == (4, 6)


def test_coupling_rejects_bad_inputs(rng):
    p = random_problem(rng, 2, 2)
    with pytest.raises(EvaluationError):
        Coupling(np.array([np.inf, 0.0]), np.zeros(2), 0.0, p.d)
    with pytest.raises(ValueError):
        Coupling(np.zeros(2), np.zeros(2), -0.5, p.d)
    with pytest.raises(ValueError):
        Coupling(np.zeros(3), np.zeros(2), 0.0, p.d)
    with pytest.raises(EvaluationError):
        Coupling.from_scaling(np.array([1.0, -1.0]), np.ones(2), 0.0, p.d)


def test_from_scaling_matches_logs(rng):
    p = random_problem(rng, 4, 4)
    phi = rng.uniform(0.5, 2.0, 4)
    psi = rng.uniform(0.5, 2.0, 4)
    q = Coupling.from_scaling(phi, psi, 0.7, p.d)
    np.testing.assert_allclose(q.phi, phi, rtol=1e-15)
    np.testing.assert_allclose(q.psi, psi, rtol=1e-15)
    dense = q.dense()
    np.testing.assert_allclose(
        dense, phi[:, None] * psi[None, :] * np.exp(-0.7 * p.d), rtol=1e-13)


def test_stats_against_dense_oracle(rng):
    p = random_problem(rng, 6, 8)
    q = Coupling(np.log(p.p_x) - 0.2, np.log(p.p_y) + 0.1, 0.9, p.d)
    dense = q.dense()
    row, col, mass, metric_mass, neg_entropy = q.stats()
    np.testing.assert_allclose(row, dense.sum(axis=1), rtol=1e-13)
    np.testing.assert_allclose(col, dense.sum(axis=0), rtol=1e-13)
    assert abs(mass - dense.sum()) <= 1e-13
    assert abs(metric_mass - (dense * p.d).sum()) <= 1e-13
    assert abs(neg_entropy - (dense * np.log(dense)).sum()) <= 1e-12
    assert abs(constraint_gap(q, p) - (p.t - (dense * p.d).sum())) <= 1e-13


def test_stats_far_off_gauge_balance(rng):
    # the entropy comes from <row, log_phi> + <col, log_psi> - lam sum d q;
    # a large gauge shift makes the two inner products cancel to the answer
    p = random_problem(rng, 6, 8)
    q = Coupling(np.log(p.p_x) + 300.0, np.log(p.p_y) - 300.0, 0.9, p.d)
    dense = q.dense()
    _, _, mass, _, neg_entropy = q.stats()
    assert abs(mass - dense.sum()) <= 1e-13
    assert abs(neg_entropy - (dense * np.log(dense)).sum()) <= 1e-10


def test_solved_rates_are_nonnegative(rng):
    # the rate is a KL divergence at feasible couplings, so once the
    # solver hits its marginal tolerance the value cannot dip below
    # rounding noise
    for trial in range(5):
        p = random_problem(rng, 4, 6)
        report = solve(p, SolverConfig(max_iters=2000, tol=1e-11))
        assert report.converged
        assert report.lm_rate_nats >= -1e-10
        assert lm_rate(report.solution, p, feasibility_tol=1e-8) == pytest.approx(
            report.lm_rate_nats, abs=1e-12)


@pytest.mark.parametrize("shape", [(16, 2500), (4, 40000)])
def test_dense_blocks_match_one_expression(rng, shape):
    # dense() exponentiates row blocks into the result: 16 x 2500 takes two
    # blocks, the last one short, and 4 x 40000 one row a block; the entries
    # are those of the one-expression formula, bit for bit
    m, n = shape
    d = rng.uniform(0.0, 3.0, shape)
    q = Coupling(rng.normal(size=m), rng.normal(size=n), 0.7, d)
    expected = np.exp(q.log_phi[:, None] + q.log_psi[None, :] - q.lam * d)
    assert np.array_equal(q.dense(), expected)


@pytest.mark.parametrize("measure", [lambda q, p: primal_entropy(q), lm_rate, constraint_gap],
                         ids=["primal_entropy", "lm_rate", "constraint_gap"])
def test_overflowing_coupling_is_refused(rng, measure):
    # row scalings of e^800 overflow every sum over the coupling: each
    # measure refuses the point instead of returning inf or NaN
    p = random_problem(rng, 4, 6)
    q = Coupling(np.full(4, 800.0), np.log(p.p_y), 1.0, p.d)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError, match="^coupling evaluation overflowed$"):
            measure(q, p)
