import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from lmrate import (
    DualPoint,
    EvaluationError,
    InconsistentOracleError,
    ScarlettDualPoint,
    SolverConfig,
    NumericalFailureError,
    certificate,
    dual_gradient,
    dual_hessian,
    dual_objective,
    gauge_normalize,
    newton_oracle,
    reference_dual_value,
    scaling_null_space,
    scarlett_dual_value,
    scarlett_point_from_coupling,
    solve,
)
from lmrate import _kernels, dual
from lmrate.channel import DiscreteProblem
from lmrate.dual import coupling_from_dual, from_coupling, gauge_vector
from conftest import make_problem, random_problem


def _random_point(rng, p, lam=None):
    lam = rng.uniform(0.2, 2.0) if lam is None else lam
    return DualPoint(alpha=rng.normal(0.0, 0.4, p.m),
                     beta=rng.normal(0.0, 0.4, p.n), lam=float(lam))


def _kkt_2x2_problem():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = np.array([[0.6, 0.4], [0.4, 0.6]])
    return DiscreteProblem(d=d, p_x=np.full(2, 0.5), p_y=np.full(2, 0.5),
                           w=w, t=0.4)


# --------------------------------------------------------------------------
# objective / derivatives
# --------------------------------------------------------------------------


def test_gradient_matches_central_differences(rng, qpsk_4x9):
    p = qpsk_4x9
    h = 1e-6

    def value_at(vec, dp):
        a = dp.alpha + vec[:p.m]
        b = dp.beta + vec[p.m:p.m + p.n]
        return dual_objective(DualPoint(a, b, dp.lam + vec[-1]), p)

    for _ in range(5):
        dp = _random_point(rng, p)
        ga, gb, gl = dual_gradient(dp, p)
        exact = np.concatenate([ga, gb, [gl]])
        fd = np.empty_like(exact)
        for k in range(exact.size):
            e = np.zeros(exact.size)
            e[k] = h
            fd[k] = (value_at(e, dp) - value_at(-e, dp)) / (2.0 * h)
        np.testing.assert_allclose(fd, exact, rtol=1e-6, atol=1e-8)


def test_hessian_equals_weighted_square_form(rng, qpsk_4x9):
    p = qpsk_4x9
    dp = _random_point(rng, p)
    h = dual_hessian(dp, p).dense()
    q = coupling_from_dual(dp, p.d).dense()
    for _ in range(10):
        v = rng.normal(0.0, 1.0, p.m + p.n + 1)
        quad = float(v @ h @ v)
        a, b, c = v[:p.m], v[p.m:p.m + p.n], v[-1]
        oracle = float((q * (a[:, None] + b[None, :] + c * p.d) ** 2).sum())
        assert quad == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_hessian_directional_fd(rng, qpsk_4x9):
    p = qpsk_4x9
    dp = _random_point(rng, p)
    h_mat = dual_hessian(dp, p).dense()
    step = 1e-6
    v = rng.normal(0.0, 1.0, p.m + p.n + 1)
    v /= np.linalg.norm(v)

    def grad_at(shift):
        a = dp.alpha + shift * v[:p.m]
        b = dp.beta + shift * v[p.m:p.m + p.n]
        lam = dp.lam + shift * v[-1]
        ga, gb, gl = dual_gradient(DualPoint(a, b, lam), p)
        return np.concatenate([ga, gb, [gl]])

    fd = (grad_at(step) - grad_at(-step)) / (2.0 * step)
    np.testing.assert_allclose(fd, h_mat @ v, rtol=1e-5, atol=1e-8)


def test_hessian_annihilates_gauge_and_is_psd(rng, qpsk_4x9):
    p = qpsk_4x9
    dp = _random_point(rng, p)
    h = dual_hessian(dp, p).dense()
    np.testing.assert_allclose(h, h.T, rtol=0, atol=0)
    k = gauge_vector(p.m, p.n)
    assert float(np.abs(h @ k).max()) <= 1e-12
    assert float(np.linalg.eigvalsh(h).min()) >= -1e-12


@pytest.mark.parametrize("name", ["qpsk_4x9", "qpsk_n10"])
def test_newton_step_solves_damped_system(request, rng, name):
    # the Schur-complement step against the dense damped system it stands for
    p = request.getfixturevalue(name)
    for _ in range(5):
        dp = _random_point(rng, p)
        h = dual_hessian(dp, p)
        ga, gb, gl = dual_gradient(dp, p)
        grad = np.concatenate([ga, gb, [gl]])
        step = dual._newton_step(h, grad)
        dense = h.dense()
        delta = 1e-12 * np.trace(dense) / dense.shape[0]
        resid = dense @ step + delta * step + grad
        assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(grad)


def test_objective_is_gauge_invariant(rng, qpsk_4x9):
    p = qpsk_4x9
    dp = _random_point(rng, p)
    g0 = dual_objective(dp, p)
    shifted = DualPoint(dp.alpha + 3.7, dp.beta - 3.7, dp.lam)
    # marginals sum to one on both sides, so the shift cancels exactly
    assert abs(dual_objective(shifted, p) - g0) <= 1e-12
    grad0 = dual_gradient(dp, p)
    grad1 = dual_gradient(shifted, p)
    for a, b in zip(grad0, grad1):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_objective_overflow_raises(qpsk_4x9):
    # the point is refused before any exp, so overflow never happens
    dp = DualPoint(np.full(qpsk_4x9.m, -800.0), np.zeros(qpsk_4x9.n), 0.0)
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(EvaluationError):
            dual_objective(dp, qpsk_4x9)
        with pytest.raises(EvaluationError):
            dual_gradient(dp, qpsk_4x9)


def test_dual_point_rejects_negative_multiplier():
    with pytest.raises(ValueError):
        DualPoint(np.zeros(2), np.zeros(2), -1.0)
    with pytest.raises(ValueError):
        DualPoint(np.zeros(2), np.zeros(2), math.inf)
    with pytest.raises(ValueError):
        DualPoint(np.zeros(2), np.zeros(2), math.nan)


def test_coupling_dual_bijection(rng, qpsk_4x9):
    p = qpsk_4x9
    dp = _random_point(rng, p)
    q = coupling_from_dual(dp, p.d)
    back = from_coupling(q)
    # the half-shifts cancel up to one rounding step each way
    np.testing.assert_allclose(back.alpha, dp.alpha, rtol=0, atol=1e-15)
    np.testing.assert_allclose(back.beta, dp.beta, rtol=0, atol=1e-15)
    assert back.lam == dp.lam


def test_gauge_normalize_properties(rng, qpsk_4x9):
    p = qpsk_4x9
    dp = _random_point(rng, p)
    norm = gauge_normalize(dp)
    assert abs(norm.alpha.sum() - norm.beta.sum()) <= 1e-12
    again = gauge_normalize(norm)
    np.testing.assert_allclose(again.alpha, norm.alpha, rtol=0, atol=1e-14)
    assert abs(dual_objective(norm, p) - dual_objective(dp, p)) <= 1e-12
    # normalizing a shifted copy lands on the same representative
    shifted = DualPoint(dp.alpha + 5.0, dp.beta - 5.0, dp.lam)
    renorm = gauge_normalize(shifted)
    np.testing.assert_allclose(renorm.alpha, norm.alpha, rtol=0, atol=1e-12)
    np.testing.assert_allclose(renorm.beta, norm.beta, rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# Newton oracle
# --------------------------------------------------------------------------


def test_newton_matches_exact_2x2_solution():
    # the feasible couplings are q = [[a, .5-a], [.5-a, a]]; the metric
    # budget forces a >= 0.3 and the entropy sum is increasing there, so
    # the optimum sits on the boundary a = 0.3 exactly
    p = _kkt_2x2_problem()
    report = newton_oracle(p)
    expected = 2.0 * (0.3 * math.log(0.3) + 0.2 * math.log(0.2)) + 2.0 * math.log(2.0)
    assert report.converged
    assert report.strategy == "newton"
    assert abs(report.lm_rate_nats - expected) <= 1e-9
    assert abs(report.lambda_final - math.log(1.5)) <= 1e-6
    assert report.tau is None
    assert report.lambda_init == 0.0


def test_newton_matches_grid_scan_2x2():
    p = _kkt_2x2_problem()

    def objective(a):
        q = np.array([[a, 0.5 - a], [0.5 - a, a]])
        return float((q * np.log(q)).sum()) + 2.0 * math.log(2.0)

    values = np.array([objective(a) for a in np.linspace(0.3, 0.4999, 7001)])
    oracle = float(values.min())
    report = newton_oracle(p)
    assert report.lm_rate_nats <= oracle + 1e-9
    assert abs(report.lm_rate_nats - objective(0.3)) <= 1e-9


def test_newton_agrees_with_scaling_solver(qpsk_n10):
    scaling = solve(qpsk_n10, SolverConfig(tol=1e-12, max_iters=2000))
    newton = newton_oracle(qpsk_n10, tol=1e-10)
    assert scaling.converged and newton.converged
    assert abs(scaling.lm_rate_nats - newton.lm_rate_nats) <= 1e-9
    assert abs(scaling.lambda_final - newton.lambda_final) <= 1e-6
    assert abs(scaling.dual_objective - newton.dual_objective) <= 1e-9
    # strong duality: the optimal entropy sum equals minus the dual optimum
    h_x = -float(np.dot(qpsk_n10.p_x, np.log(qpsk_n10.p_x)))
    h_y = -float(np.dot(qpsk_n10.p_y, np.log(qpsk_n10.p_y)))
    assert abs((newton.lm_rate_nats - h_x - h_y) + newton.dual_objective) <= 1e-9


def test_newton_inactive_constraint(qpsk_n6):
    inflated = qpsk_n6.with_threshold(float(qpsk_n6.d.max()) + 1.0)
    report = newton_oracle(inflated, tol=1e-12)
    # the product coupling is the closed-form answer: no Newton step is taken
    assert report.converged
    assert report.iterations == 0
    assert report.lambda_final == 0.0
    assert abs(report.lm_rate_nats) <= 1e-9


def test_newton_multiplier_unique_across_starts(rng, qpsk_n6):
    # needs an instance whose constraint binds with slack structure: on
    # nearly rank-one instances (tiny grids) the multiplier is genuinely
    # flat and this check would be meaningless
    p = qpsk_n6
    finals = []
    rates = []
    # a start at lam = 0 restarts the multiplier at 1.0
    starts = [_random_point(rng, p, lam=0.0)]
    starts += [_random_point(rng, p, lam=float(rng.uniform(0.0, 3.0))) for _ in range(10)]
    for start in starts:
        report = newton_oracle(p, start=start)
        assert report.converged
        finals.append(report.lambda_final)
        rates.append(report.lm_rate_nats)
    assert max(finals) - min(finals) <= 1e-9
    assert max(rates) - min(rates) <= 1e-9


def test_newton_line_search_never_overflows(monkeypatch, qpsk_n10):
    # the first full Newton steps from the product point land where exp
    # overflows; the line search must reject such trial points by the
    # sweep's own overflow signal, with no overflow escaping it
    exponents = []

    def spy(lphi, lpsi, lam, d):
        exponents.append(float((lphi[:, None] + lpsi[None, :] - lam * d).max()))
        return coupling_stats(lphi, lpsi, lam, d)

    coupling_stats = _kernels.coupling_stats
    monkeypatch.setattr(_kernels, "coupling_stats", spy)
    with np.errstate(over="raise", invalid="raise"):
        report = newton_oracle(qpsk_n10, tol=1e-12)
    assert report.converged
    assert max(exponents) > 710.0


def test_newton_oracle_beyond_old_cap():
    # 4 x 2501 outputs: 2505 unknowns, above the old dense-Hessian limit
    p = make_problem(n_side=50)[3]
    assert p.m + p.n + 1 > 2048
    report = newton_oracle(p, tol=1e-10)
    assert report.converged
    scaled = solve(p, SolverConfig(max_iters=2000, tol=1e-10))
    assert scaled.converged
    assert abs(report.lm_rate_nats - scaled.lm_rate_nats) <= 1e-9


def test_newton_trace_descends(qpsk_n6):
    # the constraint binds here, so every step keeps the multiplier positive
    # and the one Newton phase descends from its first row to its last
    report = newton_oracle(qpsk_n6)
    assert report.converged and report.lambda_final > 0.0
    assert report.iterations == len(report.residual_trace) >= 1
    assert all(r.lam > 0.0 for r in report.residual_trace)
    values = [r.dual_objective for r in report.residual_trace]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_reference_value_source(qpsk_4x9):
    _, src = reference_dual_value(qpsk_4x9)
    assert "newton" in src


def test_reference_value_needs_converged_oracle(monkeypatch, qpsk_n10):
    oracle = dual.newton_oracle
    monkeypatch.setattr(dual, "newton_oracle",
                        lambda p, **kw: oracle(p, **dict(kw, max_iters=1)))
    with pytest.raises(NumericalFailureError, match="max_iters"):
        reference_dual_value(qpsk_n10)


# --------------------------------------------------------------------------
# classical mismatched-decoding dual
# --------------------------------------------------------------------------


def test_scarlett_zero_point_value(qpsk_4x9):
    sp = ScarlettDualPoint(zeta=0.0, a=np.zeros(qpsk_4x9.m))
    assert abs(scarlett_dual_value(sp, qpsk_4x9)) <= 1e-14


def test_scarlett_rejects_negative_tilt():
    with pytest.raises(ValueError):
        ScarlettDualPoint(zeta=-0.1, a=np.zeros(2))


def test_scarlett_weak_duality_random_points(rng, qpsk_4x9):
    p = qpsk_4x9
    lm_star = solve(p, SolverConfig(tol=1e-12, max_iters=3000)).lm_rate_nats
    for _ in range(50):
        sp = ScarlettDualPoint(zeta=float(rng.uniform(0.0, 3.0)),
                               a=rng.normal(0.0, 1.0, p.m))
        assert scarlett_dual_value(sp, p) <= lm_star + 1e-8


def test_scarlett_mapped_optimum_attains_rate(qpsk_n10):
    p = qpsk_n10
    report = solve(p, SolverConfig(tol=1e-12, max_iters=3000))
    assert report.converged
    sp = scarlett_point_from_coupling(report.solution, p)
    assert abs(sp.zeta - report.lambda_final) == 0.0
    value = scarlett_dual_value(sp, p)
    assert abs(value - report.lm_rate_nats) <= 1e-8


# --------------------------------------------------------------------------
# scaling-kernel null space
# --------------------------------------------------------------------------


def test_null_space_generic_metric(rng):
    for _ in range(5):
        p = random_problem(rng, 4, 6)
        out = scaling_null_space(p.d)
        assert out["null_dim"] == 1
        assert not out["degenerate"]
        basis = out["null_basis"][:, 0]
        k = gauge_vector(4, 6)
        # basis and gauge direction are collinear
        assert abs(abs(float(basis @ k)) - 1.0) <= 1e-10


def test_null_space_grid_metric(qpsk_4x9):
    out = scaling_null_space(qpsk_4x9.d)
    assert out["null_dim"] == 1 and not out["degenerate"]
    assert out["rank"] == qpsk_4x9.m + qpsk_4x9.n


def test_null_space_memory_is_bounded():
    # qam16 on a 20 x 20 grid: the constraint matrix is 6400 x 417, and a
    # full SVD would also build a 6400 x 6400 left factor (about 330 MiB)
    p = make_problem("qam16", n_side=20)[3]
    assert p.d.shape == (16, 400)
    tracemalloc.start()
    try:
        out = scaling_null_space(p.d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    assert out["rank"] == 416 and out["null_dim"] == 1
    assert not out["degenerate"]


def test_null_space_degenerate_metrics():
    const = scaling_null_space(np.full((3, 5), 2.0))
    assert const["degenerate"]
    assert const["null_dim"] == 2
    # additively separable metric d_ij = r_i + s_j is degenerate too
    r = np.array([0.0, 1.0, 2.0])
    s = np.array([0.0, 0.5, 1.0, 1.5])
    sep = scaling_null_space(r[:, None] + s[None, :])
    assert sep["degenerate"]
    assert sep["null_dim"] == 2


# --------------------------------------------------------------------------
# convergence certificate
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def project_run_with_reference(qpsk_n10):
    p = qpsk_n10
    report = solve(p, SolverConfig(max_iters=300, lambda_strategy="project"))
    g_star, src = reference_dual_value(p)
    return p, report, g_star, src


def test_certificate_bound_holds(project_run_with_reference):
    p, report, g_star, src = project_run_with_reference
    cert = certificate(report, p, g_star, src)
    assert cert.bound_satisfied
    assert cert.worst_margin >= 0.0
    assert cert.e0 > 0.0
    assert cert.g_star == g_star
    assert cert.g_star_source == src


def test_certificate_constants_consistent(project_run_with_reference):
    p, report, g_star, src = project_run_with_reference
    cert = certificate(report, p, g_star, src)
    assert cert.m_d == float(p.d.max())
    assert cert.l_lambda == pytest.approx(
        cert.m_d**2 * math.exp(cert.delta * cert.m_d), rel=1e-12)
    lams = [report.lambda_init] + [r.lam for r in report.residual_trace]
    assert cert.m_lambda == pytest.approx(max(lams) / 2.0, rel=1e-12)
    assert cert.delta == pytest.approx(
        max(abs(b - a) for a, b in zip(lams, lams[1:])), rel=1e-12)
    assert cert.s0 >= cert.m0
    assert 0.0 <= cert.c_d <= 1.0
    assert cert.c_d == pytest.approx(
        math.exp(-2.0 * cert.m_d * cert.m_lambda), rel=1e-12)
    blob = cert.to_json_dict()
    assert blob["bound_satisfied"] is True
    assert blob["s0"] == cert.s0


def test_certificate_rejects_bad_reference(project_run_with_reference):
    p, report, _, _ = project_run_with_reference
    with pytest.raises(InconsistentOracleError):
        certificate(report, p, report.dual_objective + 1.0, "made_up")


def test_certificate_requires_projected_trace(project_run_with_reference):
    p, report, g_star, src = project_run_with_reference
    root_like = dataclasses.replace(report, tau=None)
    with pytest.raises(ValueError):
        certificate(root_like, p, g_star, src)
    empty = dataclasses.replace(report, residual_trace=[])
    with pytest.raises(ValueError):
        certificate(empty, p, g_star, src)


def test_certificate_rejects_root_trace_with_explicit_tau(project_run_with_reference):
    # an explicit tau is a projected step size; a root-find run never takes one
    p, _, g_star, src = project_run_with_reference
    root = solve(p, SolverConfig(max_iters=50, lambda_strategy="root", tau=0.5))
    assert root.tau is None
    with pytest.raises(ValueError):
        certificate(root, p, g_star, src)
