"""Release gate: ten end-to-end checks over the whole stack.

Each test is one criterion and ends with a single summary line, so
``pytest -v -s tests/test_acceptance.py`` reads as a checklist.  The
checks cross-validate the scaling solver against the damped-Newton
oracle, pin the convergence and runtime budgets, and exercise the
certificate, the scalar dual form, and the kernel rank structure.
"""

import time

import numpy as np
import pytest

from conftest import make_problem

from lmrate.channel import quadratic_form_positive
from lmrate.dual import (
    DualPoint,
    certificate,
    dual_gradient,
    dual_objective,
    from_coupling,
    gauge_vector,
    newton_oracle,
    scaling_null_space,
    scarlett_dual_value,
    scarlett_point_from_coupling,
)
from lmrate.gmi import gmi
from lmrate.problem import Coupling, lm_rate
from lmrate.sinkhorn import (
    LambdaStrategy,
    SolverConfig,
    multiplier_excess,
    residuals,
    sinkhorn_step,
    solve,
    update_lambda_rootfind,
)

LN2 = float(np.log(2.0))

# the four reference cells: both schemes at the two tabulated grid sizes
REFERENCE_CELLS = [("qpsk", 10), ("qpsk", 15), ("qam16", 10), ("qam16", 15)]


@pytest.fixture(scope="module")
def reference_runs():
    """Tight solves plus oracle runs on the reference cells, shared below."""
    runs = {}
    for scheme, n_side in REFERENCE_CELLS:
        prob = make_problem(scheme=scheme, n_side=n_side)[3]
        start = time.perf_counter()
        report = solve(prob, SolverConfig(max_iters=2000, tol=1e-12))
        elapsed = time.perf_counter() - start
        oracle = newton_oracle(prob, tol=1e-12)
        runs[(scheme, n_side)] = (prob, report, elapsed, oracle)
    return runs


def _scaling_rate(prob, tol, max_iters=2000):
    """Rate of the alternating-scaling path alone, driven through the public
    step API (which never hands off to Newton) until every residual is at
    most tol."""
    q = Coupling(np.zeros(prob.m), np.zeros(prob.n), 1.0, prob.d)
    for _ in range(max_iters):
        q = update_lambda_rootfind(sinkhorn_step(q, prob), prob)
        if max(residuals(q, prob)) <= tol:
            return lm_rate(q, prob)
    pytest.fail(f"scaling path short of tol {tol} after {max_iters} iterations")


def test_criterion_01_oracle_agreement(reference_runs):
    worst = worst_solve = 0.0
    for (scheme, n_side), (prob, report, elapsed, oracle) in reference_runs.items():
        assert report.converged, (scheme, n_side, report.status)
        assert oracle.converged, (scheme, n_side, oracle.status)
        # solve() hands these cells to Newton, so the scaling path is
        # checked on its own as well
        diff_bits = abs(_scaling_rate(prob, 1e-12) - oracle.lm_rate_nats) / LN2
        assert diff_bits <= 1e-5, (scheme, n_side, diff_bits)
        solve_bits = abs(report.lm_rate_nats - oracle.lm_rate_nats) / LN2
        assert solve_bits <= 1e-5, (scheme, n_side, solve_bits)
        assert elapsed <= 10.0, (scheme, n_side, elapsed)
        worst = max(worst, diff_bits)
        worst_solve = max(worst_solve, solve_bits)
    print(f"\nCRITERION 1 PASS: scaling vs Newton oracle within {worst:.2e} bits "
          f"(solve within {worst_solve:.2e}) on {len(reference_runs)} reference "
          f"cells, each solve under 10 s")


def test_criterion_02_residual_budget_large_grid():
    prob = make_problem(n_side=50)[3]
    start = time.perf_counter()
    report = solve(prob, SolverConfig(max_iters=200, tol=1e-10))
    elapsed = time.perf_counter() - start
    assert report.converged
    last = report.residual_trace[-1]
    peak = max(last.r_phi, last.r_psi, last.r_lambda)
    assert peak <= 1e-10
    assert report.iterations <= 200
    assert elapsed <= 5.0
    print(f"\nCRITERION 2 PASS: N={prob.n} residuals {peak:.2e} after "
          f"{report.iterations} iterations in {elapsed:.2f} s")


def test_criterion_03_inactive_constraint(qpsk_n10):
    # threshold above the largest metric value forces the product coupling
    relaxed = qpsk_n10.with_threshold(float(qpsk_n10.d.max()) + 1.0)
    report = solve(relaxed, SolverConfig(max_iters=500, tol=1e-10))
    assert report.converged
    assert report.lambda_final == 0.0
    assert abs(report.lm_rate_nats) <= 1e-9
    print(f"\nCRITERION 3 PASS: slack threshold gives rate "
          f"{report.lm_rate_nats:.2e} nats with multiplier 0")


def test_criterion_04_gmi_ordering_and_trends():
    rates = {}
    polished = 0
    start = time.perf_counter()
    for scheme in ("qpsk", "qam16"):
        for eta in (0.8, 0.9):
            for denom in (12, 18):
                for snr in (-5.0, 0.0, 5.0, 10.0, 15.0):
                    prob = make_problem(scheme=scheme, eta=eta,
                                        theta=np.pi / denom, snr_db=snr,
                                        n_side=50)[3]
                    report = solve(prob, SolverConfig(max_iters=2000, tol=1e-10))
                    # every cell is within problem.DENSE_CAP, so the Newton
                    # hand-off finishes it; none needs the oracle
                    assert report.converged, (scheme, eta, denom, snr, report.status)
                    lm = report.lm_rate_nats
                    polished += report.newton_steps > 0
                    bound = gmi(prob).value_nats
                    assert bound <= lm + 1e-8, (scheme, eta, denom, snr, bound, lm)
                    rates[(scheme, eta, denom, snr)] = lm
    for (scheme, eta, denom, snr), lm in rates.items():
        if eta == 0.8:
            assert lm <= rates[(scheme, 0.9, denom, snr)] + 1e-6
        if denom == 12:
            assert lm <= rates[(scheme, eta, 18, snr)] + 1e-6
    elapsed = time.perf_counter() - start
    print(f"\nCRITERION 4 PASS: GMI <= LM on all {len(rates)} cells "
          f"({polished} finished by Newton steps), attenuation and rotation "
          f"trends hold, {elapsed:.1f} s")


def test_criterion_05_strong_duality(reference_runs):
    worst = 0.0
    checked = 0
    for prob, report, _, _ in reference_runs.values():
        gap = abs(report.solution.stats()[4]
                  + dual_objective(from_coupling(report.solution), prob))
        assert gap <= 1e-8
        worst = max(worst, gap)
        checked += 1
    prob = make_problem(n_side=50)[3]
    report = solve(prob, SolverConfig(max_iters=2000, tol=1e-12))
    assert report.converged
    gap = abs(report.solution.stats()[4]
              + dual_objective(from_coupling(report.solution), prob))
    assert gap <= 1e-8
    worst = max(worst, gap)
    checked += 1
    print(f"\nCRITERION 5 PASS: |primal + dual| <= {worst:.2e} "
          f"on {checked} converged instances")


def test_criterion_06_projection_certificate(qpsk_n10):
    # default step size on purpose: a slow projected run is exactly the
    # regime the a-posteriori bound is meant to cover
    report = solve(qpsk_n10, SolverConfig(max_iters=300, tol=1e-10,
                                          lambda_strategy=LambdaStrategy.PROJECT))
    oracle = newton_oracle(qpsk_n10, tol=1e-12)
    cert = certificate(report, qpsk_n10, oracle.dual_objective,
                       "newton_oracle(tol=1e-12)")
    assert cert.bound_satisfied
    assert cert.worst_margin >= 0.0
    assert cert.e0 > 0.0
    print(f"\nCRITERION 6 PASS: decay bound holds at all {report.iterations} "
          f"recorded iterations, worst margin {cert.worst_margin:.2f}")


def test_criterion_07_scalar_dual_equivalence(reference_runs):
    worst = 0.0
    for (scheme, n_side), (prob, report, _, _) in reference_runs.items():
        point = scarlett_point_from_coupling(report.solution, prob)
        value = scarlett_dual_value(point, prob)
        diff = abs(value - report.lm_rate_nats)
        assert diff <= 1e-8, (scheme, n_side, diff)
        worst = max(worst, diff)
    print(f"\nCRITERION 7 PASS: scalar dual value matches the rate within "
          f"{worst:.2e} nats on {len(reference_runs)} cells")


def test_criterion_08_kernel_null_space(rng):
    sizes = [2, 4, 6]
    for _ in range(50):
        m = int(rng.choice(sizes))
        n = int(rng.choice(sizes))
        raw = rng.uniform(0.5, 3.0, size=(m, n))
        d = 0.5 * (raw + raw[::-1, ::-1])  # centrally symmetric metric
        out = scaling_null_space(d)
        assert out["null_dim"] == 1
        assert not out["degenerate"]
        basis = out["null_basis"][:, 0]
        gauge = gauge_vector(m, n)
        assert np.linalg.norm(basis - (basis @ gauge) * gauge) <= 1e-10
    flat = scaling_null_space(np.ones((4, 6)))
    assert flat["degenerate"]
    assert flat["null_dim"] == 2
    print("\nCRITERION 8 PASS: gauge line is the whole null space on 50 random "
          "symmetric metrics; constant metric flagged degenerate")


def test_criterion_09_positive_excess_and_strategy_match():
    for scheme, n_side in (("qpsk", 10), ("qam16", 15)):
        cons, chan, _, prob = make_problem(scheme=scheme, n_side=n_side)
        assert quadratic_form_positive(chan)
        assert chan.matched_decoder() and cons.is_centrally_symmetric()
        # hand-rolled loop so the excess at multiplier zero is visible
        state = Coupling(np.zeros(prob.m), np.zeros(prob.n), 1.0, prob.d)
        for it in range(1, 501):
            state = sinkhorn_step(state, prob)
            excess0 = multiplier_excess(state.log_phi, state.log_psi, 0.0, prob.d, prob.t)
            assert excess0 > 0.0, (scheme, it, excess0)
            state = update_lambda_rootfind(state, prob)
            if max(residuals(state, prob)) <= 1e-10:
                break
        else:
            pytest.fail(f"{scheme}: manual loop did not converge")
        root = solve(prob, SolverConfig(max_iters=2000, tol=1e-10,
                                        lambda_strategy=LambdaStrategy.ROOT))
        proj = solve(prob, SolverConfig(max_iters=20000, tol=1e-10,
                                        lambda_strategy=LambdaStrategy.PROJECT,
                                        tau=1.0))
        assert root.converged and proj.converged
        assert abs(root.lm_rate_nats - proj.lm_rate_nats) <= 1e-8
    print("\nCRITERION 9 PASS: excess at multiplier 0 stays positive through "
          "convergence; root-find and projection agree within 1e-8")


def test_criterion_10_gradient_finite_differences(rng, qpsk_4x9):
    prob = qpsk_4x9
    m, n = prob.m, prob.n
    step = 1e-6
    worst = 0.0

    def value(vec):
        dp = DualPoint(alpha=vec[:m], beta=vec[m:m + n], lam=float(vec[-1]))
        return dual_objective(dp, prob)

    for _ in range(20):
        vec = np.concatenate([rng.normal(0.0, 0.4, size=m + n),
                              [rng.uniform(0.2, 2.0)]])
        ga, gb, gl = dual_gradient(DualPoint(alpha=vec[:m], beta=vec[m:m + n],
                                             lam=float(vec[-1])), prob)
        grad = np.concatenate([ga, gb, [gl]])
        fd = np.empty_like(grad)
        for k in range(vec.size):
            hi = vec.copy()
            lo = vec.copy()
            hi[k] += step
            lo[k] -= step
            fd[k] = (value(hi) - value(lo)) / (2.0 * step)
        rel = np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad))
        assert rel <= 1e-5
        worst = max(worst, rel)
    print(f"\nCRITERION 10 PASS: gradient matches central differences, worst "
          f"relative error {worst:.2e} over 20 points")
