import dataclasses
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from lmrate import (
    Coupling,
    DualPoint,
    EvaluationError,
    InconsistentOracleError,
    ScarlettDualPoint,
    SolveStatus,
    SolverConfig,
    certificate,
    dual_gradient,
    dual_hessian,
    dual_objective,
    newton_oracle,
    scaling_null_space,
    scarlett_dual_value,
    scarlett_point_from_coupling,
    sinkhorn_step,
    solve,
    update_lambda_rootfind,
)
from lmrate import _kernels, _newton, dual
from lmrate.channel import DiscreteProblem
from lmrate._newton import coupling_from_dual, from_coupling, gauge_vector
from lmrate.problem import balance_gauge, product_coupling
from conftest import make_problem, random_problem, rotation, square_problem


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
        step = _newton._newton_step(h, grad)
        dense = h.dense()
        # the damping is the NEWTON_DAMPING share of the marginal diagonal's mean
        delta = _newton.NEWTON_DAMPING * (h.r.sum() + h.c.sum()) / (p.m + p.n)
        resid = dense @ step + delta * step + grad
        assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(grad)


def _third_iterate(p):
    """The third iterate of a root run from lam = 1, by the step API."""
    q = Coupling(np.zeros(p.m), np.zeros(p.n), 1.0, p.d)
    for _ in range(3):
        q = update_lambda_rootfind(sinkhorn_step(q, p), p)
    return q


def _scaled_point(p, start, lam):
    """A gauge-balanced dual point whose scalings fit lam: the iterate
    ``start`` rescaled three times at lam."""
    q = Coupling(start.log_phi, start.log_psi, lam, p.d)
    for _ in range(3):
        q = sinkhorn_step(q, p)
    return from_coupling(Coupling(*balance_gauge(q.log_phi, q.log_psi), lam, p.d))


def _factored_points():
    """(cell, problem, dual point) at grid 50 for qam16 and qam64 at 0 and
    10 dB, from the third scaling iterate: at its multiplier where that lies
    inside the kernels' guard, and at (1 - 1e-12) times the guard."""
    for scheme in ("qam16", "qam64"):
        for snr_db in (0.0, 10.0):
            p = make_problem(scheme, snr_db=snr_db, n_side=50)[3]
            guard = _kernels.LSE_SWITCH / p.axes.span
            start = _third_iterate(p)
            for lam in (start.lam, (1.0 - 1e-12) * guard):
                if lam < guard:
                    yield (scheme, snr_db, lam), p, _scaled_point(p, start, lam)


@pytest.fixture(scope="module")
def factored_points():
    return list(_factored_points())


def test_factored_hessian_matches_dense(rng, monkeypatch, factored_points):
    # qam16 at 10 dB keeps 1020 of 2500 nodes, below the size crossover:
    # lowered so that it takes the tables too, zero-filled nodes and all
    monkeypatch.setattr(_kernels, "FACTORED_MIN_ENTRIES", 0)
    assert len(factored_points) == 6
    for cell, p, dp in factored_points:
        assert _kernels._factored(p.axes, dp.lam, p.d), cell
        factored, dense = dual_hessian(dp, p, p.axes), dual_hessian(dp, p)
        for name in ("r", "c", "u", "v", "w"):
            np.testing.assert_allclose(getattr(factored, name), getattr(dense, name),
                                       rtol=1e-12, atol=0.0, err_msg=f"{name} at {cell}")
        # every product the step takes of Q diag(s), the explicit Q diag(s)
        # being the products with the unit vectors.  These square alphabets
        # take the level tables but at the guard at 0 dB, where rho reaches
        # 2^473 and 2^436, past LEVEL_RHO_CAP, and Q is the dense coupling's
        s, y = rng.uniform(0.5, 2.0, p.n), rng.uniform(0.5, 2.0, p.n)
        built, ref = factored.q_scaled(s), dense.q_scaled(s)
        level = cell[1] == 10.0 or dp.lam < 0.5 * _kernels.LSE_SWITCH / p.axes.span
        assert isinstance(built, _kernels.LevelCoupling) is level, cell
        for name, got, want in (("Q diag(s)", built.tdot(np.eye(p.m)), ref.a),
                                ("gram", built.gram(), ref.gram()),
                                ("dot", built.dot(y), ref.dot(y))):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0,
                                       err_msg=f"{name} at {cell}")


def test_factored_newton_step_matches_dense(monkeypatch, factored_points):
    # the whole step, in the energy norm ||x||_A = sqrt(x^T A x) of the damped
    # system A = H + delta I.  A is ill-conditioned along nodes of tiny output
    # mass, where two steps whose Hessians differ by rounding differ by 1e-5
    # to 4e-3 relative in the 2-norm; in the A-norm the factored step is
    # within 4.4e-10 of the dense one at the third iterate's multipliers.  At
    # (1 - 1e-12) times the guard, lam d reaches 700 and the coupling's
    # entries carry 1e-13 relative rounding: there the two differ by up to
    # 1.3e-7 (at 0 dB), and a perturbation of that size of the dense coupling
    # alone moves the dense step by 1.4e-8 to 1.5e-7.  The multiplier
    # component and the predicted decrease, which the line search reads,
    # agree to 1e-10.
    monkeypatch.setattr(_kernels, "FACTORED_MIN_ENTRIES", 0)
    for cell, p, dp in factored_points:
        grad, _, dense = _newton._sweep(dp, p)
        factored = dual_hessian(dp, p, p.axes)
        step, ref = _newton._newton_step(factored, grad), _newton._newton_step(dense, grad)
        h = dense.dense()
        h += _newton.NEWTON_DAMPING * (dense.r.sum() + dense.c.sum()) / (p.m + p.n) * np.eye(
            h.shape[0])
        err = step - ref
        rtol = 1e-6 if dp.lam > 0.5 * _kernels.LSE_SWITCH / p.axes.span else 1e-9
        assert math.sqrt(err @ h @ err) <= rtol * math.sqrt(ref @ h @ ref), cell
        assert abs(step[-1] - ref[-1]) <= 1e-10 * abs(ref[-1]), cell
        slope, ref_slope = _kernels.vdot(grad, step), _kernels.vdot(grad, ref)
        assert abs(slope - ref_slope) <= 1e-10 * abs(ref_slope), cell


def test_factored_newton_step_stays_below_one_coupling_array(factored_points):
    # qam64 at grid 50 and 10 dB keeps 1064 of 2500 nodes: the step takes its
    # products with the coupling through the level tables, so it holds grids,
    # tables and M x M arrays, and no M x N array
    cell, p, dp = next(point for point in factored_points if point[0][:2] == ("qam64", 10.0))
    assert p.n < p.axes.t1.shape[1] ** 2 and _kernels._factored(p.axes, dp.lam, p.d)
    grad, _, h = _newton._sweep(dp, p, axes=p.axes)
    tracemalloc.start()
    try:
        _newton._newton_step(h, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.m * p.n * 8, (cell, peak / (p.m * p.n * 8))


def _damped_product(h, x):
    """(H + delta I) x from the Hessian's blocks and its products with Q,
    delta being the Newton step's damping."""
    m = h.r.size
    delta = _newton.NEWTON_DAMPING * (h.r.sum() + h.c.sum()) / (m + h.c.size)
    q = h.q_scaled(np.ones(h.c.size))
    xa, xb, xl = x[:m], x[m:-1], x[-1]
    return delta * x + np.concatenate([
        h.r * xa + q.dot(xb) + h.u * xl,
        q.tdot(xa) + h.c * xb + h.v * xl,
        [_kernels.vdot(h.u, xa) + _kernels.vdot(h.v, xb) + h.w * xl]])


@pytest.fixture(scope="module")
def large_points():
    """(cell, problem, dual point) at the third scaling iterate's multiplier:
    qam256 at grid 50 and 0 dB (the level tables) and 10 dB (past the
    kernels' guard, the dense coupling), and 576 points at grid 40 and 10 dB
    under a pi/18 rotated h_hat, whose step reads an M x N array."""
    points = []
    for cell, p in ((("qam256", 0.0), make_problem("qam256", n_side=50)[3]),
                    (("qam256", 10.0), make_problem("qam256", snr_db=10.0, n_side=50)[3]),
                    (("576", "rotated"), square_problem(24, 40, 10.0, rotation(np.pi / 18)))):
        start = _third_iterate(p)
        points.append((cell, p, _scaled_point(p, start, start.lam)))
    return points


def test_pcg_newton_step_matches_direct(monkeypatch, large_points):
    # the Schur system by deflated conjugate gradients against the direct
    # solve of the same Hessian: within 1e-7 in the energy norm of the damped
    # system (CG stops at relative residual 1e-10), and the multiplier
    # component and predicted decrease, which the line search reads, to 1e-10
    for cell, p, dp in large_points:
        grad, _, h = _newton._sweep(dp, p, axes=p.axes)
        steps = []
        for pcg in (True, False):
            monkeypatch.setattr(_newton, "_pcg_wins", lambda *args, pcg=pcg: pcg)
            steps.append(_newton._newton_step(h, grad))
        step, ref = steps
        err = step - ref
        assert math.sqrt(err @ _damped_product(h, err)) <= 1e-7 * math.sqrt(
            ref @ _damped_product(h, ref)), cell
        assert abs(step[-1] - ref[-1]) <= 1e-10 * abs(ref[-1]), cell
        slope, ref_slope = _kernels.vdot(grad, step), _kernels.vdot(grad, ref)
        assert abs(slope - ref_slope) <= 1e-10 * abs(ref_slope), cell


def test_pcg_newton_step_holds_no_square_array(large_points):
    # qam256 at grid 50 and 0 dB: the rule sends the step's Schur system to
    # conjugate gradients on the level tables, which hold grids, tables and
    # vectors, and no M x M array (nor any M x N one)
    cell, p, dp = large_points[0]
    grad, _, h = _newton._sweep(dp, p, axes=p.axes)
    g = h.q_scaled(np.ones(p.n))
    assert isinstance(g, _kernels.LevelCoupling) and _newton._pcg_wins(g, p.m, p.n), cell
    tracemalloc.start()
    try:
        _newton._newton_step(h, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.m * p.m * 8, (cell, peak / (p.m * p.m * 8))


def test_array_rule_follows_the_measured_crossover(large_points):
    # an M x N array goes to conjugate gradients where they won at 10 dB:
    # 256 x 1092, 576 x 696 and 1024 x 700 won, 256 x 2158 and 256 x 4440
    # lost.  Unforced, the rotated 576-point cell's step, on an array, takes
    # CG and lands within the bounds of test_pcg_newton_step_matches_direct
    array = _kernels.ScaledCoupling(np.zeros((1, 1)))
    for m, n, wins in ((256, 1092, True), (576, 696, True), (1024, 700, True),
                       (256, 2158, False), (256, 4440, False)):
        assert _newton._pcg_wins(array, m, n) is wins, (m, n)
    cell, p, dp = large_points[2]
    grad, _, h = _newton._sweep(dp, p, axes=p.axes)
    g = h.q_scaled(np.ones(p.n))
    assert isinstance(g, _kernels.ScaledCoupling) and _newton._pcg_wins(g, p.m, p.n), cell
    pcg = _newton._schur_pcg
    calls = []

    def spy(*args):
        calls.append(args[3].size)
        return pcg(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_newton, "_schur_pcg", spy)
        step = _newton._newton_step(h, grad)
    assert calls == [p.m], cell
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_newton, "_pcg_wins", lambda *args: False)
        ref = _newton._newton_step(h, grad)
    err = step - ref
    assert math.sqrt(err @ _damped_product(h, err)) <= 1e-7 * math.sqrt(
        ref @ _damped_product(h, ref)), cell
    assert abs(step[-1] - ref[-1]) <= 1e-10 * abs(ref[-1]), cell


def test_pcg_that_does_not_converge_falls_back_to_direct(monkeypatch, large_points):
    # at relative residual 0 CG cannot stop on its test: after m + 1
    # iterations (or a search direction along which P S is not positive)
    # the step is the direct solve's, bit for bit, and no CG iterate
    cell, p, dp = large_points[0]
    grad, _, h = _newton._sweep(dp, p, axes=p.axes)
    ref = _newton._newton_step(h, grad)
    direct = _newton._schur_direct
    calls = []

    def spy(*args):
        calls.append(args[3].size)
        return direct(*args)

    monkeypatch.setattr(_newton, "_schur_direct", spy)
    monkeypatch.setattr(_newton, "_pcg_wins", lambda *args: False)
    want = _newton._newton_step(h, grad)
    monkeypatch.setattr(_newton, "_pcg_wins", lambda *args: True)
    monkeypatch.setattr(_newton, "PCG_RTOL", 0.0)
    got = _newton._newton_step(h, grad)
    assert calls == [p.m, p.m], cell
    np.testing.assert_array_equal(got, want, err_msg=str(cell))
    assert not np.array_equal(got, ref), cell


def _full_pass_trial(dp, step, d):
    """_first_trial's length from the largest rise over every entry of d."""
    t_step = min(1.0, 0.95 * dp.lam / -step[-1]) if step[-1] < 0.0 else 1.0
    m = dp.alpha.size
    top = float((np.add.outer(-step[:m], -step[m:-1]) - step[-1] * d).max())
    cap = _newton.STEP_EXP_CAP
    return cap / top if top * t_step > cap else t_step


def test_first_trial_table_bound_matches_full_pass(monkeypatch, factored_points):
    # the table bound, and the metric's range off the tables, only decide
    # whether the pass over d is made: the trial length is the full pass's
    # whether or not the cap binds
    monkeypatch.setattr(_kernels, "FACTORED_MIN_ENTRIES", 0)
    binds = free = 0
    for cell, p, dp in factored_points:
        step = _newton._newton_step(dual_hessian(dp, p), _newton._sweep(dp, p)[0])
        for scale in (1e-3, 1.0, 30.0, -30.0):
            full = _full_pass_trial(dp, scale * step, p.d)
            assert _newton._first_trial(dp, scale * step, p) == full, (cell, scale)
            assert _newton._first_trial(dp, scale * step, p, p.axes) == full, (cell, scale)
            lam_cap = 0.95 * dp.lam / -(scale * step[-1]) if scale * step[-1] < 0.0 else 1.0
            binds += full < min(1.0, lam_cap)
            free += full == min(1.0, lam_cap)
    assert binds > 0 and free > 0


def test_first_trial_range_bound_matches_full_pass(rng, monkeypatch, qpsk_n10):
    # off the tables the rise is bounded by the metric's range, so the pass
    # over d is made only where that bound could bind; on random steps at
    # every scale, with the metric shifted far from zero, the length is the
    # full pass's, bit for bit, and both outcomes occur
    passes = Counter()
    blocks = _kernels.exponent_blocks

    def counted(*args, **kwargs):
        passes["d"] += 1
        return blocks(*args, **kwargs)

    monkeypatch.setattr(_kernels, "exponent_blocks", counted)
    binds = skipped = 0
    for p in (qpsk_n10, random_problem(rng, 6, 8),
              dataclasses.replace(qpsk_n10, d=qpsk_n10.d + 2000.0, t=qpsk_n10.t + 2000.0)):
        for _ in range(200):
            dp = _random_point(rng, p)
            step = rng.normal(0.0, 1.0, p.m + p.n + 1) * 10.0 ** rng.uniform(-3.0, 2.0)
            full = _full_pass_trial(dp, step, p.d)
            before = passes["d"]
            assert _newton._first_trial(dp, step, p) == full
            skipped += passes["d"] == before
            binds += full < (min(1.0, 0.95 * dp.lam / -step[-1]) if step[-1] < 0.0 else 1.0)
    assert binds > 50 and skipped > 50 and passes["d"] >= binds


def test_newton_oracle_never_builds_the_factored_hessian(monkeypatch):
    # the oracle is the cross-check of the factored Newton finish, so it keeps
    # the dense coupling even where the solver's finish reads the tables
    p = make_problem("qam16", n_side=50)[3]
    calls = Counter()

    def spy(*args):
        calls[args[-2:]] += 1
        return sweep(*args)

    # the Hessian's sums are the only ones taken with two node sums
    hessian = (3, 2)
    sweep = _kernels._table_sums
    monkeypatch.setattr(_kernels, "_table_sums", spy)
    report = newton_oracle(p, tol=1e-12)
    assert report.converged and report.iterations > 0
    # no table sum at all: the lam = 0 test reads dual_gradient's own sweep
    assert not calls
    assert solve(p).newton_steps > 0
    assert calls[hessian] > 0


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


def test_balance_gauge_properties(rng, qpsk_4x9):
    p = qpsk_4x9
    dp = _random_point(rng, p)
    q = coupling_from_dual(dp, p.d)
    lphi, lpsi = balance_gauge(q.log_phi, q.log_psi)
    norm = from_coupling(Coupling(lphi, lpsi, dp.lam, p.d))
    assert abs(norm.alpha.sum() - norm.beta.sum()) <= 1e-12
    again = balance_gauge(lphi, lpsi)
    np.testing.assert_allclose(again[0], lphi, rtol=0, atol=1e-14)
    assert abs(dual_objective(norm, p) - dual_objective(dp, p)) <= 1e-12
    # balancing a shifted copy lands on the same representative
    shifted = balance_gauge(q.log_phi + 5.0, q.log_psi - 5.0)
    np.testing.assert_allclose(shifted[0], lphi, rtol=0, atol=1e-12)
    np.testing.assert_allclose(shifted[1], lpsi, rtol=0, atol=1e-12)


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
    k_hat = gauge_vector(p.m, p.n)

    def done(grad, _row):
        # newton_oracle's stopping rule at its default tol
        return float(np.abs(_newton._project(grad, k_hat)).max()) <= 1e-10

    # the oracle's Newton loop from random starts; one at lam = 0 restarts
    # the multiplier at 1.0, as the oracle does from the product point
    starts = [_random_point(rng, p, lam=0.0)]
    starts += [_random_point(rng, p, lam=float(rng.uniform(0.0, 3.0))) for _ in range(10)]
    for start in starts:
        dp = DualPoint(start.alpha, start.beta, start.lam or 1.0)
        dp, row, converged, failure = _newton.descend(dp, p, 200, done, [])
        assert converged and failure is None
        finals.append(dp.lam)
        rates.append(row.lm_rate_nats)
    assert max(finals) - min(finals) <= 1e-9
    assert max(rates) - min(rates) <= 1e-9


def test_newton_line_search_never_overflows(monkeypatch, qpsk_n10):
    # from the product point at lam = 1, far from the optimum, full Newton
    # steps land where exp overflows.  Uncapped, the line search must reject
    # such trial points by the sweep's own overflow signal, with no overflow
    # escaping it; with the first trial capped (STEP_EXP_CAP) no trial gets
    # there, in fewer sweeps.  From the oracle's own start, the centred
    # metric at 1 / E[d], no trial gets there even uncapped
    p = qpsk_n10
    zero = from_coupling(product_coupling(p))
    far = DualPoint(zero.alpha, zero.beta, 1.0)
    k_hat = gauge_vector(p.m, p.n)

    def done(grad, _row):
        return float(np.abs(_newton._project(grad, k_hat)).max()) <= 1e-12

    exponents = []

    def spy(dp, p, axes=None):
        exponents.append(float((-dp.alpha[:, None] - dp.beta[None, :] - dp.lam * p.d).max())
                         - 1.0)
        return hessian(dp, p, axes)

    hessian = _newton.dual_hessian
    monkeypatch.setattr(_newton, "dual_hessian", spy)
    with monkeypatch.context() as uncapped:
        uncapped.setattr(_newton, "STEP_EXP_CAP", math.inf)
        with np.errstate(over="raise", invalid="raise"):
            _, row, converged, failure = _newton.descend(far, p, dual.ORACLE_MAX_STEPS, done, [])
            assert converged and failure is None
            assert max(exponents) > 710.0
            sweeps = len(exponents)
            exponents.clear()
            report = newton_oracle(p, tol=1e-12)
    assert report.converged
    assert max(exponents) < 700.0
    exponents.clear()
    with np.errstate(over="raise", invalid="raise"):
        _, capped, converged, failure = _newton.descend(far, p, dual.ORACLE_MAX_STEPS, done, [])
    assert converged and failure is None
    assert max(exponents) < 700.0
    assert len(exponents) < sweeps
    assert abs(capped.lm_rate_nats - row.lm_rate_nats) <= 1e-12
    assert abs(report.lm_rate_nats - row.lm_rate_nats) <= 1e-12


@pytest.mark.parametrize("shift, scale", [(0.0, 1.0), (50.0, 1.0), (700.0, 1.0),
                                          (2000.0, 1.0), (3000.0, 1.0), (0.0, 1e-3),
                                          (0.0, 100.0), (0.0, 1e4)])
def test_newton_loops_ignore_metric_offset_and_scale(qpsk_n10, shift, scale):
    # the rate is unchanged under d -> scale * (d + shift), t -> scale * (t + shift),
    # and so is the work of the oracle (on the column-centred metric, from a
    # start that scales with it) and of solve's Newton finish (damped by the
    # marginal blocks alone): each ends on its own stop rule in a few steps,
    # with no RuntimeWarning
    p = qpsk_n10
    ref = newton_oracle(p, tol=1e-12).lm_rate_nats
    moved = DiscreteProblem(d=scale * (p.d + shift), p_x=p.p_x, p_y=p.p_y, w=p.w,
                            t=scale * (p.t + shift))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        oracle = newton_oracle(moved, tol=1e-12)
        report = solve(moved)
    assert oracle.converged and oracle.iterations <= 10, (oracle.status, oracle.iterations)
    assert report.converged and report.iterations <= 10, (report.status, report.iterations)
    assert abs(oracle.lm_rate_nats - ref) <= 1e-9
    assert abs(report.lm_rate_nats - ref) <= 1e-9


@pytest.mark.parametrize("shift", [50.0, 700.0, 2000.0, 3000.0])
def test_solve_rows_ignore_metric_offset(qpsk_n10, shift):
    # r_lambda is the excess of d - d_min against t - d_min, which an offset
    # leaves unchanged; the raw excess |sum d q - t| carries the coupling's
    # mass error times the offset, near 1e-10 at a shift of 2000, and there
    # the row on which solve stopped was down to rounding (from 5000 up the
    # root solve on the raw metric stalls, which this does not cover)
    p = qpsk_n10
    ref = newton_oracle(p, tol=1e-12).lm_rate_nats
    moved = DiscreteProblem(d=p.d + shift, p_x=p.p_x, p_y=p.p_y, w=p.w, t=p.t + shift)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        base = solve(p)
        report = solve(moved)
    assert base.converged and report.converged, (base.status, report.status)
    assert report.iterations == base.iterations
    assert abs(report.lm_rate_nats - ref) <= 1e-9


def test_newton_oracle_beyond_old_cap():
    # 4 x 2501 outputs: 2505 unknowns, above the old dense-Hessian limit
    p = make_problem(n_side=50)[3]
    assert p.m + p.n + 1 > 2048
    report = newton_oracle(p, tol=1e-10)
    assert report.converged
    scaled = solve(p, SolverConfig(max_iters=2000, tol=1e-10))
    assert scaled.converged
    assert abs(report.lm_rate_nats - scaled.lm_rate_nats) <= 1e-9


@pytest.mark.parametrize("n_side", [15, 20])
def test_newton_oracle_stops_on_the_gap(n_side):
    # qam16 at 0 dB: the projected gradient reaches 1e-12 a step before the
    # rate does, 2.0e-11 (grid 15) and 5.0e-12 nats (grid 20) below its
    # weak-duality bound; the oracle takes that step too
    p = make_problem("qam16", n_side=n_side)[3]
    report = newton_oracle(p, tol=1e-12)
    assert report.converged and report.iterations == 7
    row = report.residual_trace[-1]
    assert abs(row.lm_rate_nats - (p.h_x + p.h_y - row.dual_objective)) <= 1e-12


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
    # the certificate's reference optimum: a Newton oracle run to tol 1e-12
    report = newton_oracle(qpsk_4x9, tol=1e-12)
    assert report.converged and report.strategy == "newton"


def test_reference_value_needs_converged_oracle(monkeypatch, qpsk_n10):
    # an oracle run out of steps says so, and its value is no reference
    monkeypatch.setattr(dual, "ORACLE_MAX_STEPS", 1)
    report = newton_oracle(qpsk_n10, tol=1e-12)
    assert report.status is SolveStatus.MAX_ITERS


def test_newton_oracle_reports_numerical_failure(monkeypatch, qpsk_n10):
    # the first Newton system cannot be solved: the oracle stops there with a
    # report, at the start point, instead of raising
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    report = newton_oracle(qpsk_n10)
    assert report.status is SolveStatus.NUMERICAL_FAILURE
    assert report.failure_reason.startswith("Newton system could not be solved: ")
    # the start: 1 / E[d] of the column-centred metric under p_x (x) p_y
    centred = qpsk_n10.d - qpsk_n10.d.min(axis=0)
    start = 1.0 / float(qpsk_n10.p_x @ centred @ qpsk_n10.p_y)
    assert (report.failed_iteration, report.iterations) == (1, 0)
    assert report.lambda_final == start


# --------------------------------------------------------------------------
# classical mismatched-decoding dual
# --------------------------------------------------------------------------


def test_scarlett_zero_point_value(qpsk_4x9):
    sp = ScarlettDualPoint(zeta=0.0, a=np.zeros(qpsk_4x9.m))
    assert abs(scarlett_dual_value(sp, qpsk_4x9)) <= 1e-14


def test_scarlett_rejects_negative_tilt():
    with pytest.raises(ValueError):
        ScarlettDualPoint(zeta=-0.1, a=np.zeros(2))


@pytest.mark.parametrize("zeta", [math.inf, math.nan])
def test_scarlett_rejects_non_finite_tilt(zeta):
    with pytest.raises(ValueError, match="zeta"):
        ScarlettDualPoint(zeta=zeta, a=np.zeros(2))


def test_scarlett_rejects_bad_shifts(qpsk_n10):
    for a in (np.zeros((4, 1)), np.array([0.0, math.nan, 0.0, 0.0]),
              np.array([-math.inf, 0.0, 0.0, 0.0])):
        with pytest.raises(ValueError, match="finite 1-D"):
            ScarlettDualPoint(zeta=1.0, a=a)
    # one shift for four inputs would broadcast
    with pytest.raises(ValueError, match="4 inputs"):
        scarlett_dual_value(ScarlettDualPoint(zeta=1.0, a=np.zeros(1)), qpsk_n10)


def test_scarlett_factored_matches_block_loop():
    # qam16 at grid 50 lies above the crossover, so the classical dual at
    # the solver's optimum goes through the axis tables
    p = make_problem("qam16", n_side=50)[3]
    report = solve(p, SolverConfig(tol=1e-10, max_iters=2000))
    sp = scarlett_point_from_coupling(report.solution, p)
    assert _kernels._factored(p.axes, sp.zeta, p.d)
    block = scarlett_dual_value(sp, dataclasses.replace(p, axes=None))
    assert abs(scarlett_dual_value(sp, p) - block) <= 1e-13
    assert abs(block - report.lm_rate_nats) <= 1e-8


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
    # the gauge is the only flat direction of any metric that is not
    # additively separable, centrally symmetric or not
    metrics = [random_problem(rng, 4, 6).d for _ in range(5)]
    metrics.append(rng.uniform(0.5, 3.0, (3, 7)))
    for d in metrics:
        out = scaling_null_space(d)
        assert out["null_dim"] == 1
        assert not out["degenerate"]
        basis = out["null_basis"][:, 0]
        k = gauge_vector(*d.shape)
        # basis and gauge direction are collinear
        assert abs(abs(float(basis @ k)) - 1.0) <= 1e-10
    separable = rng.uniform(0.5, 3.0, (3, 1)) + rng.uniform(0.5, 3.0, (1, 7))
    out = scaling_null_space(separable)
    assert out["null_dim"] == 2 and out["degenerate"]


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
    oracle = newton_oracle(p, tol=1e-12)
    assert oracle.converged
    return p, report, oracle.dual_objective, "newton_oracle(tol=1e-12)"


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
