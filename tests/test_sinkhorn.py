import dataclasses
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import lmrate._kernels as K
from lmrate import _newton, problem, sinkhorn
from lmrate import (
    BracketError,
    Constellation,
    Coupling,
    EvaluationError,
    LambdaStrategy,
    NumericalFailureError,
    SolveStatus,
    SolverConfig,
    build_channel,
    discretize,
    lm_rate,
    multiplier_excess,
    residuals,
    sinkhorn_step,
    solve,
    solve_multiplier_root,
    update_lambda_projection,
    update_lambda_rootfind,
)
from lmrate.channel import DiscreteProblem
from lmrate.dual import newton_oracle
from conftest import make_problem, random_problem, rotation


def _uniform_2x2(d_value=1.0, t=1.0):
    d = np.full((2, 2), d_value)
    return DiscreteProblem(d=d, p_x=np.full(2, 0.5), p_y=np.full(2, 0.5),
                           w=np.full((2, 2), 0.5), t=t)


def _kkt_2x2():
    """Instance whose scaling fixed point is known in closed form.

    d swaps the two letters, t = 0.4 makes the constraint active, and the
    optimal coupling has 0.3 on the diagonal and 0.2 off it, reached by
    phi = psi = sqrt(0.3) at multiplier log(1.5).
    """
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = np.array([[0.6, 0.4], [0.4, 0.6]])
    p = DiscreteProblem(d=d, p_x=np.full(2, 0.5), p_y=np.full(2, 0.5), w=w, t=0.4)
    log_s = np.full(2, 0.5 * math.log(0.3))
    return p, Coupling(log_s, log_s, math.log(1.5), d)


def test_step_closed_form_constant_metric():
    c = 0.7
    lam = 1.3
    p = _uniform_2x2(d_value=c)
    out = sinkhorn_step(Coupling(np.zeros(2), np.zeros(2), lam, p.d), p)
    np.testing.assert_allclose(out.log_phi, lam * c - math.log(4.0), rtol=0, atol=1e-14)
    np.testing.assert_allclose(out.log_psi, 0.0, rtol=0, atol=1e-14)
    assert out.lam == lam
    # already a fixed point: marginals match after a single pass
    r_phi, r_psi, _ = residuals(out, p)
    assert max(r_phi, r_psi) <= 1e-14
    again = sinkhorn_step(out, p)
    np.testing.assert_allclose(again.log_phi, out.log_phi, rtol=0, atol=1e-14)
    np.testing.assert_allclose(again.log_psi, out.log_psi, rtol=0, atol=1e-14)


def test_residuals_at_known_fixed_point():
    p, state = _kkt_2x2()
    r = residuals(state, p)
    assert max(np.abs(r)) <= 1e-12
    # the step does not move the state (up to rounding)
    out = sinkhorn_step(state, p)
    np.testing.assert_allclose(out.log_phi, state.log_phi, rtol=0, atol=1e-14)
    np.testing.assert_allclose(out.log_psi, state.log_psi, rtol=0, atol=1e-14)


def test_projection_update_cases():
    p, state = _kkt_2x2()
    # excess is zero at the fixed point: any tau leaves lam alone
    out = update_lambda_projection(state, p, tau=0.5)
    assert abs(out.lam - state.lam) <= 1e-12

    # strictly slack constraint at lam = 0 stays pinned at zero
    slack = p.with_threshold(5.0)
    out = update_lambda_projection(dataclasses.replace(state, lam=0.0), slack, tau=0.5)
    assert out.lam == 0.0

    # slack constraint at positive lam moves the multiplier down
    out = update_lambda_projection(dataclasses.replace(state, lam=1.0), slack, tau=0.5)
    assert out.lam < 1.0


def test_projection_matches_manual_formula(rng):
    p = random_problem(rng, 4, 6)
    state = Coupling(np.log(rng.uniform(0.5, 1.5, 4)), np.log(rng.uniform(0.5, 1.5, 6)),
                     0.8, p.d)
    excess = multiplier_excess(state.log_phi, state.log_psi, state.lam, p.d, p.t)
    out = update_lambda_projection(state, p, tau=0.25)
    assert abs(out.lam - max(0.0, 0.8 + 0.25 * excess)) <= 1e-15


def test_root_solve_scalar_instance():
    # q(lam) = exp(-lam), so excess(lam) = exp(-lam) - t vanishes at -log t
    d = np.array([[1.0]])
    root = solve_multiplier_root(np.zeros(1), np.zeros(1), d, math.exp(-1.0))
    assert abs(root - 1.0) <= 1e-12
    # inactive side: excess(0) <= 0 returns the boundary
    assert solve_multiplier_root(np.zeros(1), np.zeros(1), d, 2.0) == 0.0


def _excess_dense(lphi, lpsi, lam, d, t):
    q = np.exp(lphi[:, None] + lpsi[None, :] - lam * d)
    return float((d * q).sum()) - t


def _root_bisect(lphi, lpsi, d, t):
    if _excess_dense(lphi, lpsi, 0.0, d, t) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while _excess_dense(lphi, lpsi, hi, d, t) > 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _excess_dense(lphi, lpsi, mid, d, t) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_root_solve_matches_bisection_oracle(qpsk_n10):
    p = qpsk_n10
    state = Coupling(np.zeros(p.m), np.zeros(p.n), 1.0, p.d)
    for _ in range(3):
        state = sinkhorn_step(state, p)
    lphi, lpsi = state.log_phi, state.log_psi
    assert _excess_dense(lphi, lpsi, 0.0, p.d, p.t) > 0.0
    root = solve_multiplier_root(lphi, lpsi, p.d, p.t)
    oracle = _root_bisect(lphi, lpsi, p.d, p.t)
    assert abs(root - oracle) <= 1e-9
    stepped = update_lambda_rootfind(state, p)
    assert abs(stepped.lam - root) <= 1e-12
    assert abs(multiplier_excess(lphi, lpsi, stepped.lam, p.d, p.t)) <= 1e-13 * p.t


def test_root_solve_unbracketable_raises(monkeypatch):
    # t < 0 can never be hit by a nonnegative metric mass, from any hint,
    # and the solve says so before it makes a single sweep
    calls = Counter()
    for name in ("coupling_stats", "metric_moments"):
        def counted(*args, _name=name, _kernel=getattr(K, name)):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(K, name, counted)
    d = np.array([[1.0]])
    for hint in (0.0, 1.0, 1e3):
        with pytest.raises(NumericalFailureError, match="no multiplier bracket"):
            solve_multiplier_root(np.zeros(1), np.zeros(1), d, -1.0, lam_hint=hint)
    assert sum(calls.values()) == 0


def test_root_beyond_cap_is_a_numerical_failure():
    # q(lam) = exp(-1e-4 lam) and t = 1e-300 put the root near 6.8e6, past
    # the search cap
    d = np.array([[1e-4]])
    with pytest.raises(NumericalFailureError, match=r"1e\+06"):
        solve_multiplier_root(np.zeros(1), np.zeros(1), d, 1e-300)
    # a solve that meets such a root reports it as a failure.  A second input
    # at metric 0 makes that threshold feasible (t_min = 0), and the root at
    # the first iteration's scalings lies near 6.8e6 again
    p = DiscreteProblem(d=np.array([[0.0], [1e-4]]), p_x=np.full(2, 0.5), p_y=np.ones(1),
                        w=np.ones((2, 1)), t=1e-300)
    report = solve(p, SolverConfig(lambda_strategy="root"))
    assert report.status is SolveStatus.NUMERICAL_FAILURE
    assert report.failed_iteration == 1
    assert "1e+06" in report.failure_reason
    # one output carries no information: the GMI that starts the run is 0
    assert (report.gmi.value_nats, report.gmi.s_star) == (0.0, 0.0)


@pytest.mark.parametrize("strategy", ["root", "project"])
def test_infeasible_threshold_stops_before_any_iteration(strategy):
    # every coupling with output marginal p_y has sum d q >= t_min =
    # sum_j p_y_j min_i d_ij, 1.59 on qpsk at grid 6.  Below it, solve and the
    # Newton oracle stop before any iteration, at the product coupling, and
    # name the threshold and the bound: no overflow in the Newton step at
    # t = 1e-300, and no 200 oracle steps at t <= 0
    base = make_problem(n_side=6)[3]
    bound = base.t_min
    assert bound == pytest.approx(1.59, abs=0.01)
    assert bound == K.vdot(base.p_y, base.d.min(axis=0)) < base.t
    for t in (1e-300, 0.0, -1.0, bound / 2):
        p = base.with_threshold(t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = (solve(p, SolverConfig(lambda_strategy=strategy)), newton_oracle(p))
        for report in reports:
            assert report.status is SolveStatus.NUMERICAL_FAILURE, t
            assert (report.iterations, report.failed_iteration, report.newton_steps) == (0, 0, 0)
            assert f"t = {t!r}" in report.failure_reason and repr(bound) in report.failure_reason
            assert report.lambda_final == 0.0 and abs(report.lm_rate_nats) <= 1e-15
        assert reports[0].gmi is None and reports[0].root_evals == 0
    # a threshold within tol of the bound is left to the solvers
    edge = base.with_threshold(bound - 1e-11)
    for report in (solve(edge), newton_oracle(edge)):
        assert report.iterations > 0, report.failure_reason


def test_root_solve_nan_moments_raise():
    # exp(800 - lam) overflows at the default hint lam = 1, and the zero
    # diagonal of d turns 0 * inf into NaN moments; that is a numerical
    # failure, not a missing bracket
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    big = np.full(2, 400.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailureError, match=r"non-finite metric moments.*lam=1\.0"):
            solve_multiplier_root(big, big, d, 0.5)


def _rooted_state(p):
    state = Coupling(np.zeros(p.m), np.zeros(p.n), 1.0, p.d)
    for _ in range(3):
        state = sinkhorn_step(state, p)
    return state.log_phi, state.log_psi


def test_root_solve_warm_start_hints(qpsk_n10):
    # hints left of, at, and right of the root, and far right, all reach
    # the bisection oracle's root
    p = qpsk_n10
    lphi, lpsi = _rooted_state(p)
    oracle = _root_bisect(lphi, lpsi, p.d, p.t)
    for hint in (0.0, 0.1 * oracle, oracle, 10.0 * oracle, 1e3):
        root = solve_multiplier_root(lphi, lpsi, p.d, p.t, lam_hint=hint)
        assert abs(root - oracle) <= 1e-9, hint
        assert abs(multiplier_excess(lphi, lpsi, root, p.d, p.t)) <= 1e-13 * p.t


def test_root_solve_hint_with_underflowed_moments(qpsk_n10):
    # at this hint every coupling entry underflows, so there is no Newton
    # slope; the solve bisects back towards zero and still converges
    p = qpsk_n10
    lphi, lpsi = _rooted_state(p)
    hint = 1e5
    assert K.metric_moments(lphi, lpsi, hint, p.d) == (0.0, 0.0)
    root = solve_multiplier_root(lphi, lpsi, p.d, p.t, lam_hint=hint)
    assert abs(root - _root_bisect(lphi, lpsi, p.d, p.t)) <= 1e-9


def test_root_solve_recovers_from_overflow_at_hint():
    # q(lam) = exp(800 - lam) overflows at the default hint lam = 1; the
    # solve steps right until the moments are finite.  Root: 800 + log 2
    big = np.full(1, 400.0)
    with np.errstate(over="ignore", invalid="ignore"):
        root = solve_multiplier_root(big, big, np.array([[1.0]]), 0.5)
    assert abs(root - (800.0 + math.log(2.0))) <= 1e-9


def test_sweep_budget_per_iteration(qpsk_n10, monkeypatch):
    # the solver reaches every kernel through the lmrate._kernels module
    # attributes, so counting there sees every sweep it makes; a call made
    # inside a counted kernel (scale_rows handing off to scale_rows_lse) is
    # part of that sweep.  The warm root solve plus the reuse of its last
    # sweep keeps an iteration within six sweeps (a cold bracket-and-bisect
    # solve makes about eleven).  The run makes one scaling iteration and
    # hands off; the Newton finish sweeps through none of these kernels
    calls = Counter()
    depth = [0]
    for name in ("scale_rows", "scale_rows_lse", "scale_cols", "scale_cols_lse",
                 "coupling_stats", "metric_moments"):
        def counted(*args, _name=name, _kernel=getattr(K, name)):
            calls[_name] += depth[0] == 0
            depth[0] += 1
            try:
                return _kernel(*args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(K, name, counted)
    report = solve(qpsk_n10)
    assert report.converged
    scaling = report.iterations - report.newton_steps
    assert scaling == 1
    assert calls["metric_moments"] > 0 and calls["coupling_stats"] > 0
    assert sum(calls.values()) <= 6 * scaling
    assert scaling <= report.root_evals
    assert report.root_evals <= calls["metric_moments"] + calls["coupling_stats"]


def test_factored_solve_matches_dense_twin_and_oracle(monkeypatch):
    # qam16 at grid 50 (16 x 2500) is above the crossover, so its solve
    # sweeps through the axis tables; its JSON twin carries no tables and
    # runs the block loop on the same numbers
    p = make_problem("qam16", n_side=50)[3]
    twin = DiscreteProblem.from_json(p.to_json())
    assert p.axes is not None and twin.axes is None
    factored = []
    sweep = K._table_sums

    def counted(*args, **kwargs):
        factored.append(args[2])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(K, "_table_sums", counted)
    cfg = SolverConfig(max_iters=2000, tol=1e-10)
    report = solve(p, cfg)
    assert report.converged and factored
    factored.clear()
    dense = solve(twin, cfg)
    assert not factored
    assert ((report.status, report.iterations, report.root_evals)
            == (dense.status, dense.iterations, dense.root_evals))
    assert abs(report.lm_rate_nats - dense.lm_rate_nats) <= 1e-12
    oracle = newton_oracle(p)
    assert oracle.converged
    assert abs(report.lm_rate_nats - oracle.lm_rate_nats) <= 1e-9


def test_projected_solve_makes_no_root_evaluations(qpsk_n10):
    report = solve(qpsk_n10, SolverConfig(max_iters=5, lambda_strategy="project"))
    assert report.root_evals == 0


@pytest.fixture(scope="module")
def projected_cells():
    """(name, problem, config): qpsk at grid 10 runs the block loop, qam16 at
    grid 50 the axis tables, and a threshold past max d projects the
    multiplier to 0."""
    qpsk, qam16 = make_problem()[3], make_problem("qam16", n_side=50)[3]
    return [("block", qpsk, SolverConfig(lambda_strategy="project", tau=1.0)),
            ("tables", qam16, SolverConfig(lambda_strategy="project", tau=1.0)),
            ("slack", qpsk.with_threshold(2.0 * qpsk.d_max),
             SolverConfig(lambda_strategy="project", max_iters=200))]


def _step_api_trace(p, cfg):
    """The paper's iteration through the public step API, one sweep each for
    the rows, the columns, the multiplier step and the trace row:
    (trace, converged)."""
    lam = cfg.lambda_init if cfg.lambda_init is not None else 1.0
    state = Coupling(np.zeros(p.m), np.zeros(p.n), lam, p.d)
    tau = cfg.tau if cfg.tau is not None else 1.0 / p.d_max ** 2
    trace = []
    for it in range(1, cfg.max_iters + 1):
        state = update_lambda_projection(sinkhorn_step(state, p), p, tau)
        trace.append(problem.evaluate(state.log_phi, state.log_psi, state.lam, p, it))
        if max(residuals(state, p)) <= cfg.tol:
            return trace, True
    return trace, False


def _assert_trace_matches(report, trace, name):
    for ours, theirs in zip(report.residual_trace, trace):
        for field, value in vars(theirs).items():
            assert abs(getattr(ours, field) - value) <= 1e-13 * max(1.0, abs(value)), (
                name, ours.iter, field)


def test_projected_solve_matches_step_api_loop(projected_cells):
    # solve runs the iteration in one pass, whose exp gives the evaluation,
    # the next row update and the column update after it with its excess;
    # the step API keeps one sweep per step, so the two agree to rounding
    for name, p, cfg in projected_cells:
        report = solve(p, cfg)
        trace, converged = _step_api_trace(p, cfg)
        assert report.converged == converged and report.converged, name
        assert report.iterations == len(trace), name
        _assert_trace_matches(report, trace, name)
        assert K._factored(p.axes, report.lambda_final, p.d) == (name == "tables"), name
        assert (report.lambda_final == 0.0) == (name == "slack"), name


def _count_passes(monkeypatch):
    """A Counter of the passes over the coupling, each of which starts one of
    these four loops: the axis tables' exp, a column-block loop or one of
    the two row-block loops."""
    passes = Counter()
    for name in ("_column_blocks", "_level_tables", "exponent_blocks", "_row_blocks"):
        def counted(*args, _name=name, _loop=getattr(K, name), **kwargs):
            passes[_name] += 1
            return _loop(*args, **kwargs)
        monkeypatch.setattr(K, name, counted)
    return passes


def test_projected_iteration_makes_one_pass(projected_cells, monkeypatch):
    # a projected run makes one pass at its start, which is also the
    # start's evaluation, then one per iteration: the evaluation, whose
    # row sums give the next row update and whose column sums, reweighted
    # by it, give the column update after it and its excess
    passes = _count_passes(monkeypatch)
    for name, p, cfg in projected_cells[:2]:
        passes.clear()
        report = solve(p, cfg)
        assert sum(passes.values()) == report.iterations + 1, (name, passes)
        assert (passes["_level_tables"] > 0) == (name == "tables"), (name, passes)


def test_projected_run_past_the_row_shift_guard(qpsk_n10, monkeypatch):
    # from lam = 20, lam (max d - min d) is about 3000: row-shifted entries
    # could underflow, so the column update takes scale_cols_mass's
    # column-shifted pass until the multiplier falls under the guard, and
    # from there the one fused pass; both stay with the step API's trace
    # to rounding, with no overflow or underflow warning
    p = qpsk_n10
    cfg = SolverConfig(lambda_strategy="project", tau=1.0, lambda_init=20.0, max_iters=50)
    fallbacks = []
    fallback = K.scale_cols_mass

    def counted(*args):
        fallbacks.append(args[1])
        return fallback(*args)

    passes = _count_passes(monkeypatch)
    monkeypatch.setattr(K, "scale_cols_mass", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = solve(p, cfg)
        assert sum(passes.values()) == report.iterations + 1 + len(fallbacks)
        trace, converged = _step_api_trace(p, cfg)
    assert report.converged == converged and report.iterations == len(trace)
    _assert_trace_matches(report, trace, "past the guard")
    # the passes at the run's first multipliers fall back, the later ones
    # do not
    lams = [report.lambda_init] + [row.lam for row in report.residual_trace]
    assert 0 < len(fallbacks) < len(lams) and fallbacks == lams[:len(fallbacks)]


def test_solve_qpsk_root_default(qpsk_n10):
    report = solve(qpsk_n10)
    assert report.converged
    assert report.status is SolveStatus.CONVERGED
    assert report.strategy == "root"
    assert report.iterations <= 100
    assert len(report.residual_trace) == report.iterations
    last = report.residual_trace[-1]
    assert max(last.r_phi, last.r_psi, last.r_lambda) <= 1e-10
    assert report.lm_rate_nats > 0.0
    assert report.lambda_final > 0.0
    # reported rate agrees with an independent evaluation of the solution
    check = lm_rate(report.solution, qpsk_n10, feasibility_tol=1e-8)
    assert abs(check - report.lm_rate_nats) <= 1e-11


def test_solve_trace_is_monotone_in_dual(qpsk_n10):
    # every block update (rows, cols, multiplier) descends the same convex
    # objective, so the recorded dual values never increase
    report = solve(qpsk_n10, SolverConfig(max_iters=60, tol=1e-10))
    values = [report.dual_objective_init] + [
        row.dual_objective for row in report.residual_trace]
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-12)


def test_project_with_explicit_stepsize_matches_root(qpsk_n10):
    root = solve(qpsk_n10)
    proj = solve(qpsk_n10, SolverConfig(max_iters=2000, tol=1e-10,
                                        lambda_strategy="project", tau=1.0))
    assert proj.converged
    assert proj.strategy == "project"
    assert proj.tau == 1.0
    assert abs(proj.lm_rate_nats - root.lm_rate_nats) <= 1e-8
    assert abs(proj.lambda_final - root.lambda_final) <= 1e-6


def test_project_default_stepsize_descends_slowly(qpsk_n10):
    # default tau = 1/max(d)^2 is a safe but tiny step on a wide metric:
    # the dual still descends monotonically even though convergence is far
    report = solve(qpsk_n10, SolverConfig(max_iters=50, lambda_strategy="project"))
    assert report.status is SolveStatus.MAX_ITERS
    assert report.iterations == 50
    assert report.tau == pytest.approx(1.0 / qpsk_n10.d.max() ** 2)
    values = [report.dual_objective_init] + [
        row.dual_objective for row in report.residual_trace]
    assert np.all(np.diff(values) <= 1e-12)


def test_inactive_constraint_gives_zero_rate(qpsk_n10):
    inflated = qpsk_n10.with_threshold(float(qpsk_n10.d.max()) + 1.0)
    report = solve(inflated)
    assert report.converged
    assert report.lambda_final == 0.0
    assert abs(report.lm_rate_nats) <= 1e-9
    assert report.residual_trace[-1].r_lambda == 0.0


def test_gauge_scaling_leaves_coupling_invariant(qpsk_n6):
    p = qpsk_n6
    state = Coupling(np.zeros(p.m), np.zeros(p.n), 1.0, p.d)
    for _ in range(4):
        state = sinkhorn_step(state, p)
    shift = math.log(37.0)
    scaled = Coupling(state.log_phi + shift, state.log_psi - shift, state.lam, p.d)
    r_base = residuals(state, p)
    r_scaled = residuals(scaled, p)
    np.testing.assert_allclose(r_scaled, r_base, rtol=0, atol=1e-12)
    e_base = multiplier_excess(state.log_phi, state.log_psi, state.lam, p.d, p.t)
    e_scaled = multiplier_excess(scaled.log_phi, scaled.log_psi, scaled.lam, p.d, p.t)
    assert abs(e_base - e_scaled) <= 1e-12


def test_random_instances_converge_and_stay_feasible(rng):
    for trial in range(4):
        p = random_problem(rng, 4, 8)
        report = solve(p, SolverConfig(max_iters=3000, tol=1e-11))
        assert report.converged, f"trial {trial} did not converge"
        q = report.solution
        row, col, _, metric_mass, _ = q.stats()
        assert float(np.abs(row - p.p_x).sum()) <= 1e-10
        assert float(np.abs(col - p.p_y).sum()) <= 1e-10
        # constraint satisfied up to the residual tolerance
        assert metric_mass <= p.t + 1e-9


def test_numerical_failure_reported_without_lse(qpsk_n10):
    # at multipliers this large the excess moves by more than the root
    # tolerance between adjacent floats, and the solver says so instead
    # of silently returning a bad multiplier
    logged = solve(qpsk_n10, SolverConfig(max_iters=20, lambda_init=1e5))
    assert logged.status is SolveStatus.NUMERICAL_FAILURE
    assert not logged.converged
    assert "stalled" in logged.failure_reason


def test_non_finite_evaluation_ends_solve(monkeypatch, qpsk_n10):
    # the first iteration's evaluation, the only one before the hand-off,
    # comes back NaN: the run stops there with no row, and reports the
    # values at its start
    evaluate = sinkhorn.evaluate

    def broken(*args):
        row = evaluate(*args)
        return dataclasses.replace(row, dual_objective=math.nan) if row.iter == 1 else row

    monkeypatch.setattr(sinkhorn, "evaluate", broken)
    report = solve(qpsk_n10, SolverConfig(lambda_init=1.0))
    assert report.status is SolveStatus.NUMERICAL_FAILURE
    assert report.failure_reason == "coupling evaluation became non-finite"
    assert (report.failed_iteration, report.iterations, report.newton_steps) == (1, 0, 0)
    assert math.isfinite(report.dual_objective)


def test_lse_path_recovers_from_extreme_start(qpsk_n10):
    # lambda_init * max(d) is ~7600, far past the plain-exponential range,
    # so the first iterations run on the shifted reductions; the run still
    # lands on the same optimum as the default start
    base = solve(qpsk_n10)
    high = solve(qpsk_n10, SolverConfig(max_iters=500, lambda_init=50.0))
    assert high.converged
    assert abs(high.lm_rate_nats - base.lm_rate_nats) <= 1e-9
    assert abs(high.lambda_final - base.lambda_final) <= 1e-7


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=2.5)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=True)
    assert SolverConfig(max_iters=np.int64(5)).max_iters == 5
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=math.inf)
    with pytest.raises(ValueError):
        SolverConfig(tau=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(tau=math.inf)
    with pytest.raises(ValueError):
        SolverConfig(lambda_init=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(lambda_init=math.inf)
    assert SolverConfig().lambda_init is None
    with pytest.raises(ValueError):
        SolverConfig(lambda_strategy="bogus")
    assert SolverConfig(lambda_strategy="root").lambda_strategy is LambdaStrategy.ROOT


@pytest.mark.parametrize("log_phi,lam,error", [
    (lambda m: np.full(m, -math.inf), 0.0, EvaluationError),
    (lambda m: np.full(m, math.nan), 0.0, EvaluationError),
    (lambda m: np.zeros(m + 1), 0.0, ValueError),
    (np.zeros, -1.0, ValueError),
    (np.zeros, math.nan, ValueError),
], ids=["phi-zero", "phi-nan", "phi-length", "lam-negative", "lam-nan"])
def test_state_requires_positive_scalings(qpsk_n6, log_phi, lam, error):
    # the step API's iterate refuses a zero or undefined scaling, a scaling
    # of the wrong length and a negative or undefined multiplier when it is
    # built, so no step sees one
    with pytest.raises(error):
        Coupling(log_phi(qpsk_n6.m), np.zeros(qpsk_n6.n), lam, qpsk_n6.d)


# ---------------------------------------------------------------------------
# Newton hand-off of root runs
# ---------------------------------------------------------------------------

# eta 0.9, grid 50: the scaling iteration stalls at these SNRs (it contracts
# at 0.95-0.998 an iteration from about iteration 30), but not at qam16 10 dB
STALLED = [("qpsk", 10.0), ("qpsk", 15.0), ("qpsk", 20.0), ("qam16", 15.0), ("qam16", 20.0)]


@pytest.fixture(scope="module")
def high_snr_runs():
    runs = {}
    for scheme, snr in STALLED + [("qam16", 10.0)]:
        p = make_problem(scheme, eta=0.9, snr_db=snr, n_side=50)[3]
        runs[(scheme, snr)] = (p, solve(p, SolverConfig(lambda_init=1.0)))
    return runs


def test_stalled_cells_hand_off_and_converge(high_snr_runs):
    # every cell is below the cap on inputs, so each hands off early,
    # stalling or not
    for cell, (p, report) in high_snr_runs.items():
        assert report.converged, (cell, report.status, report.failure_reason)
        assert report.newton_steps > 0, cell
        assert report.lm_rate_nats <= math.log(p.m), cell
        # the Newton phase reports plain floats, as the scaling loop does
        assert type(report.lm_rate_nats) is float and type(report.lambda_final) is float
        assert all(type(row.lam) is float for row in report.residual_trace), cell
        # at 20 dB the optimal multiplier grows without bound as tol shrinks;
        # the oracle's points with residuals near 1e-10 sit about 1e-9 below
        # the limit, but the Newton phase also stops on lam * r_lambda
        oracle = newton_oracle(p, tol=1e-12)
        assert oracle.converged, cell
        assert abs(report.lm_rate_nats - oracle.lm_rate_nats) <= 1e-9, cell
        check = lm_rate(report.solution, p, feasibility_tol=1e-9)
        assert abs(check - report.lm_rate_nats) <= 1e-11, cell


def test_hand_off_trace_rows_and_dual_descent(high_snr_runs):
    # below the cap on inputs a root run hands off after its first iteration
    for cell, (_, report) in high_snr_runs.items():
        assert report.converged and report.newton_steps > 0, cell
        trace = report.residual_trace
        # one row per scaling iteration, then one per Newton step
        assert [row.iter for row in trace] == list(range(1, report.iterations + 1))
        assert report.iterations - report.newton_steps == 1, cell
        last = trace[-1]
        assert max(last.r_phi, last.r_psi, last.r_lambda) <= 1e-10
        values = [report.dual_objective_init] + [row.dual_objective for row in trace]
        assert np.all(np.diff(values) <= 1e-12), cell


def test_hand_off_status_reads_the_newton_stop_rule(monkeypatch, qpsk_n10):
    # a hand-off run that spends max_iters without meeting the finish's own
    # test (the residuals and the primal-dual gap) ends at max_iters, even
    # where its last row's residuals are below tol
    monkeypatch.setattr(sinkhorn, "_newton_done", lambda *args: False)
    report = solve(qpsk_n10, SolverConfig(max_iters=20))
    assert (report.iterations, report.newton_steps) == (20, 19)
    last = report.residual_trace[-1]
    assert max(last.r_phi, last.r_psi, last.r_lambda) <= 1e-10
    assert report.status is SolveStatus.MAX_ITERS
    assert report.failure_reason is None


def _square_problem(k, n_side):
    """A k x k square alphabet of unit power, uniform prior, at 0 dB."""
    axis = np.arange(1.0 - k, k, 2.0)
    points = np.array([(a, b) for a in axis for b in axis])
    points /= math.sqrt((points * points).sum(axis=1).mean())
    cons = Constellation(points=points, probs=np.full(k * k, 1.0 / (k * k)))
    return discretize(build_channel(1.0, 0.9, np.pi / 18, 0.0), cons, n_side)[1]


@pytest.fixture
def above_cap():
    # 484 inputs, the smallest square alphabet above the cap, at grid 10
    return _square_problem(22, 10)


def test_early_hand_off_follows_the_cost_cap(above_cap):
    # 400 inputs, at the cap itself, hand off after iteration 1;
    # test_low_snr_cell_makes_no_newton_steps solves the cell above it
    below = _square_problem(20, 10)
    assert below.m == sinkhorn.NEWTON_MAX_INPUTS < above_cap.m
    early = solve(below)
    assert early.converged and early.newton_steps > 0
    assert early.iterations - early.newton_steps == 1


@pytest.mark.parametrize("h_hat", [None, rotation(np.pi / 18)], ids=["levels", "rotated"])
def test_hand_off_on_the_axis_tables_matches_oracle(monkeypatch, h_hat):
    # qam16 at grid 50 and 0 dB: every Newton step of the finish reads the
    # axis tables, and the rate lands within 1e-11 nats of the dense
    # oracle's.  Under the identity decoder the inputs take 4 levels on each
    # axis, and no step builds an M x N array; under a rotated one they take
    # 16 on each, U V > M, and every step builds factored_coupling's array
    p = make_problem("qam16", n_side=50, h_hat=h_hat)[3]
    levels = h_hat is None
    assert (p.axes.levels is not None) is levels
    built, peaks = [], []

    def spy(*args):
        built.append(args[2])
        return factored(*args)

    def traced(*args):
        tracemalloc.start()
        try:
            return step(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    factored, step = K.factored_coupling, _newton._newton_step
    monkeypatch.setattr(K, "factored_coupling", spy)
    monkeypatch.setattr(_newton, "_newton_step", traced)
    report = solve(p, SolverConfig(lambda_init=1.0))
    assert report.converged and report.newton_steps > 0
    assert len(peaks) == report.newton_steps
    if levels:
        assert built == [] and max(peaks) < p.m * p.n * 8
    else:
        assert len(built) == report.newton_steps
        assert all(K._factored(p.axes, lam, p.d) for lam in built)
    oracle = newton_oracle(p, tol=1e-12)
    assert oracle.converged
    assert abs(report.lm_rate_nats - oracle.lm_rate_nats) <= 1e-11


def _zero_multiplier_cells():
    """(cell, instance, config) at theta = pi/2, eta 0.9, where the channel's
    symmetric part is indefinite: the product coupling meets the metric
    constraint exactly, so the optimal multiplier is 0 and excess(0) is
    rounding noise of either sign, about 1e-16 t.  Matched decoder for qpsk,
    qam16 and qam64 at grids 30 and 50, h_hat = diag(1, 0.8) for qpsk and
    qam16 at grid 30 with max_iters 2000, each from -5 to 20 dB; then a
    random instance whose product coupling meets its constraint with slack."""
    snrs = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    for scheme in ("qpsk", "qam16", "qam64"):
        for n_side in (30, 50):
            for snr in snrs:
                yield (scheme, n_side, snr), make_problem(
                    scheme, theta=np.pi / 2, snr_db=snr, n_side=n_side)[3], SolverConfig()
    for scheme in ("qpsk", "qam16"):
        for snr in snrs:
            yield (scheme, "h_hat", snr), make_problem(
                scheme, theta=np.pi / 2, snr_db=snr, n_side=30,
                h_hat=[[1.0, 0.0], [0.0, 0.8]])[3], SolverConfig(max_iters=2000)
    yield ("random",), random_problem(np.random.default_rng(20250819), 4, 6), SolverConfig(
        lambda_strategy="root")


def test_zero_multiplier_runs_start_at_the_product_coupling():
    # a root run tests lam = 0 once, before its loop, and starts these cells
    # at the product coupling, the optimum.  Handed to the Newton finish,
    # whose line search keeps lam > 0, a run cannot reach it and stops at
    # max_iters; and the oracle's lam = 0 test allows rounding noise of
    # either sign, since a test on the sign alone runs 200 Newton steps here
    cells = list(_zero_multiplier_cells())
    assert len(cells) == 49
    for cell, p, cfg in cells:
        report = solve(p, cfg)
        assert report.converged, (cell, report.status, report.failure_reason)
        assert (report.iterations, report.newton_steps) == (1, 0), cell
        assert report.lm_rate_nats >= -1e-12, (cell, report.lm_rate_nats)
        # the report starts its multiplier path and its dual values at the
        # product coupling, as the oracle's report does
        lams = [report.lambda_init] + [row.lam for row in report.residual_trace]
        assert lams == [0.0, report.lambda_final], cell
        oracle = newton_oracle(p, tol=1e-12)
        assert oracle.converged and oracle.iterations == 0, cell
        assert oracle.lm_rate_nats == 0.0, cell
        assert oracle.dual_objective_init == p.h_x + p.h_y, cell
        assert abs(report.dual_objective_init - oracle.dual_objective_init) <= 1e-12, cell
        assert abs(report.lm_rate_nats - oracle.lm_rate_nats) <= 1e-9, cell
        assert report.gmi is None, cell
    # the random instance's product coupling meets its constraint with slack
    # 8.6e-3, not to rounding
    p = cells[-1][1]
    assert -multiplier_excess(np.log(p.p_x), np.log(p.p_y), 0.0, p.d, p.t) > 8e-3


def test_default_start_is_the_gmi_tilt():
    # the 24 cells of the README scan plus 20 dB (qpsk and qam16, eta 0.8 and
    # 0.9, -5 to 20 dB, grid 50, theta pi/18): each root run starts at the
    # GMI's optimal tilt, a first guess at the multiplier, and keeps that
    # GMI.  Together they take 166 trace rows (301 from lam = 1; the qpsk
    # 20 dB cells converge in one), and the worst rate lands 8.7e-11 nats
    # from the oracle's
    rows = 0
    for scheme in ("qpsk", "qam16"):
        for eta in (0.8, 0.9):
            for snr in (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0):
                cell = (scheme, eta, snr)
                p = make_problem(scheme, eta=eta, snr_db=snr, n_side=50)[3]
                report = solve(p)
                assert report.converged, (cell, report.status, report.failure_reason)
                assert report.gmi is not None, cell
                assert report.lambda_init == report.gmi.s_star, cell
                oracle = newton_oracle(p, tol=1e-12)
                assert oracle.converged, cell
                assert abs(report.lm_rate_nats - oracle.lm_rate_nats) <= 1e-10, cell
                rows += report.iterations
    assert rows <= 200


def test_start_without_the_gmi(monkeypatch, qpsk_n10):
    # an explicit start and a projected run compute no GMI; a GMI that
    # fails leaves a root run at lam = 1
    calls = []

    def spy(p):
        calls.append(p)
        return tilt(p)

    tilt = sinkhorn.gmi
    monkeypatch.setattr(sinkhorn, "gmi", spy)
    for cfg, lam in ((SolverConfig(lambda_init=2.5), 2.5),
                     (SolverConfig(lambda_strategy="project", max_iters=5), 1.0)):
        report = solve(qpsk_n10, cfg)
        assert (report.lambda_init, report.gmi) == (lam, None)
    assert calls == []

    def broken(p):
        raise BracketError("test")

    monkeypatch.setattr(sinkhorn, "gmi", broken)
    report = solve(qpsk_n10)
    assert report.converged
    assert (report.lambda_init, report.gmi) == (1.0, None)
    pinned = solve(qpsk_n10, SolverConfig(lambda_init=1.0))
    assert report.residual_trace == pinned.residual_trace


def _no_certificate_cells():
    """Instances without the symmetry certificate, eta 0.9: qpsk and qam16
    under the mismatched decoder h_hat = diag(1, 0.8), a lopsided 4-point
    constellation, and qpsk at theta = pi/2, whose channel's symmetric part
    is indefinite, so that its optimal multiplier is 0 and its root runs
    start at the product coupling (see
    test_zero_multiplier_runs_start_at_the_product_coupling); at grid 10 and
    0 dB, then at grid 30 from -5 to 20 dB."""
    points = np.array([[1.0, 0.2], [-0.5, 0.9], [-0.3, -1.1], [0.8, -0.4]])
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    points /= math.sqrt(probs @ (points * points).sum(axis=1))
    lopsided = Constellation(points=points, probs=probs)
    grids = [(10, 0.0)] + [(30, snr) for snr in (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0)]
    for n_side, snr in grids:
        for scheme in ("qpsk", "qam16"):
            yield (scheme, "h_hat", n_side, snr), make_problem(
                scheme, snr_db=snr, n_side=n_side, h_hat=[[1.0, 0.0], [0.0, 0.8]])[3]
        chan = build_channel(1.0, 0.9, np.pi / 18, snr)
        yield ("lopsided", n_side, snr), discretize(chan, lopsided, n_side)[1]
        yield ("qpsk", "pi/2", n_side, snr), make_problem(theta=np.pi / 2, snr_db=snr,
                                                          n_side=n_side)[3]


def test_default_converges_without_symmetry_certificate():
    # the multiplier root is unique on each all the same.  The Newton phase
    # stops once lam * r_lambda is at most tol as well, so a handed-off rate
    # is within about tol of the oracle's even where lam reaches 32 (qpsk
    # under h_hat at 20 dB)
    cells = dict(_no_certificate_cells())
    assert len(cells) == 28
    for cell, p in cells.items():
        assert p.validate() == [], cell
        report = solve(p, SolverConfig(max_iters=2000))
        assert report.converged, (cell, report.status, report.failure_reason)
        oracle = newton_oracle(p, tol=1e-12)
        assert oracle.converged, cell
        assert abs(report.lm_rate_nats - oracle.lm_rate_nats) <= 1e-9, cell


def test_low_snr_cell_makes_no_newton_steps(above_cap):
    # above the cap a run never hands off, and at 0 dB this cell converges
    # by scaling alone
    report = solve(above_cap)
    assert report.converged
    assert report.newton_steps == 0


def test_runs_that_cannot_hand_off_stop_on_the_gap(above_cap):
    # a root run above the cap stops as the Newton finish does, on the
    # residuals and the primal-dual gap: the residual test alone passes at
    # row 43, 5.3e-10 nats above the optimum, and the gap test stops it at
    # row 47.  The reference is the oracle at tol 1e-13: at 1e-12 its stop,
    # which reads the gradient alone, leaves its own rate 7.9e-12 below its
    # dual bound on this cell, and one more step brings the two within
    # 3.1e-13
    p = above_cap
    report = solve(p)
    assert report.converged and report.newton_steps == 0
    trace = report.residual_trace
    first = next(row.iter for row in trace if sinkhorn._peak(row) <= 1e-10)
    assert first < report.iterations
    assert all(not sinkhorn._newton_done(row, 1e-10, p) for row in trace[:-1])
    oracle = newton_oracle(p, tol=1e-13)
    assert oracle.converged
    assert abs(oracle.lm_rate_nats - (p.h_x + p.h_y - oracle.dual_objective)) <= 1e-12
    assert abs(report.lm_rate_nats - oracle.lm_rate_nats) <= 1e-10


def test_projected_run_never_hands_off():
    p = make_problem("qpsk", snr_db=20.0, n_side=50)[3]
    report = solve(p, SolverConfig(max_iters=60, lambda_strategy="project"))
    assert report.status is SolveStatus.MAX_ITERS
    assert report.iterations == 60
    assert report.newton_steps == 0


def test_no_hand_off_above_dense_cap(monkeypatch):
    p = make_problem("qpsk", snr_db=20.0, n_side=50)[3]
    monkeypatch.setattr(problem, "DENSE_CAP", p.d.size - 1)
    report = solve(p, SolverConfig(max_iters=60, lambda_init=1.0))
    assert report.status is SolveStatus.MAX_ITERS
    assert report.iterations == 60
    assert report.newton_steps == 0


def test_newton_failure_ends_solve(monkeypatch):
    def broken(h, grad):
        raise NumericalFailureError("Newton system could not be solved: test")

    monkeypatch.setattr(_newton, "_newton_step", broken)
    p = make_problem("qpsk", snr_db=20.0, n_side=50)[3]
    report = solve(p, SolverConfig(lambda_init=1.0))
    assert report.status is SolveStatus.NUMERICAL_FAILURE
    assert report.failure_reason.startswith("Newton phase: ")
    assert report.newton_steps == 0
    assert report.failed_iteration == report.iterations + 1
