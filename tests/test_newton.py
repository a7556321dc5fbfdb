import math

import numpy as np
import pytest

from lmrate import BracketError, NumericalFailureError, _newton
from lmrate._newton import SCALAR_MAX_EVALS, DualPoint, bracketed_newton, descend
from lmrate.dual import from_coupling
from lmrate.problem import product_coupling


def _recorded(f):
    """f with every point it is evaluated at appended to .points."""
    def wrapped(x):
        wrapped.points.append(x)
        return f(x)
    wrapped.points = []
    return wrapped


def _exp_minus(c):
    # exp(-x) - c, decreasing and convex, with its zero at -log c
    def f(x):
        value = math.exp(-x) - c
        return value, 1.0 - c * math.exp(x), abs(value) <= 1e-15
    return f


@pytest.fixture
def cap(monkeypatch):
    """Set the scalar search's cap for one test."""
    return lambda value: monkeypatch.setattr(_newton, "SCALAR_CAP", value)


@pytest.mark.parametrize("hint", [0.1, 0.9, 1.1, 5.0])
def test_exp_zero_from_either_side(cap, hint):
    cap(10.0)
    x, evals, resolved = bracketed_newton(_exp_minus(math.exp(-1.0)), hint)
    assert resolved
    assert abs(x - 1.0) <= 1e-14
    assert evals <= 8


def test_zero_at_the_origin(cap):
    # exp(-x) - 2 is negative on [0, inf): the step from 1 is clipped to 0,
    # where the search stops with the zero at the boundary
    cap(10.0)
    f = _recorded(_exp_minus(2.0))
    assert bracketed_newton(f, 1.0) == (0.0, 2, True)
    assert f.points == [1.0, 0.0]


def test_nan_step_bisects_to_the_zero(cap):
    # no Newton step at all: the search goes to the cap, then bisects
    cap(4.0)

    def f(x):
        value = 1.0 / 3.0 - x
        return value, math.nan, abs(value) <= 1e-12

    rec = _recorded(f)
    x, evals, resolved = bracketed_newton(rec, 0.0)
    assert resolved
    assert abs(x - 1.0 / 3.0) <= 1e-12
    assert rec.points[:4] == [0.0, 4.0, 2.0, 1.0]
    # each bisection halves the bracket: about log2(4 / 1e-12) of them
    assert evals <= 45


def test_positive_at_the_cap_raises(cap):
    # a value still positive at the cap raises at once: the search neither
    # grows the cap nor evaluates past it
    f = _recorded(lambda x: (1.0, math.nan, False))
    with pytest.raises(BracketError, match=r"beyond the search cap 1e\+06$"):
        bracketed_newton(f, 0.5)
    assert f.points == [0.5, 1e6]
    # a zero past the cap is a numerical failure
    cap(1.0)
    with pytest.raises(NumericalFailureError, match="beyond the search cap 1$"):
        bracketed_newton(lambda x: (1.0, math.nan, False), 0.5)


def test_evaluation_budget(cap):
    # steps too short to reach the zero at 1 use up the budget
    cap(10.0)
    f = _recorded(lambda x: (1.0 - x, 1e-3, False))
    with pytest.raises(NumericalFailureError, match="unresolved"):
        bracketed_newton(f, 0.0)
    assert len(f.points) == SCALAR_MAX_EVALS


def test_narrow_bracket_is_unresolved(cap):
    # done never holds: bisection ends on two adjacent floats around 1/3
    cap(4.0)
    x, _, resolved = bracketed_newton(lambda x: (1.0 / 3.0 - x, math.nan, False), 0.0)
    assert not resolved
    assert abs(x - 1.0 / 3.0) <= 1e-16


# ---------------------------------------------------------------------------
# descend's failure paths, each forced by a patched helper
# ---------------------------------------------------------------------------


def _descend(p, steps):
    """descend from the Newton oracle's start (the product point at lam = 1)
    with a stopping test that never holds: (point, row, done, failure, trace)."""
    zero = from_coupling(product_coupling(p))
    trace = []
    out = descend(DualPoint(zero.alpha, zero.beta, 1.0), p, steps, lambda g, r: False, trace)
    return (*out, trace)


@pytest.mark.parametrize("broken,reason", [
    ("raise", "Newton system could not be solved: "),
    ("nan", "Newton step is not finite"),
])
def test_unsolvable_newton_system_ends_descent(monkeypatch, qpsk_n10, broken, reason):
    def solve(a, b):
        if broken == "raise":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full_like(b, math.nan)

    monkeypatch.setattr(np.linalg, "solve", solve)
    _, row, done, failure, trace = _descend(qpsk_n10, 5)
    assert isinstance(failure, NumericalFailureError)
    assert str(failure).startswith(reason)
    assert (failure.iteration, row.iter, done, trace) == (1, 0, False, [])


def test_line_search_failure_ends_descent(monkeypatch, qpsk_n10):
    # a first trial below the search's floor leaves no trial to accept
    monkeypatch.setattr(_newton, "_first_trial", lambda *args: 1e-21)
    _, row, done, failure, trace = _descend(qpsk_n10, 5)
    assert str(failure) == "Newton line search failed to decrease"
    assert (failure.iteration, row.iter, done, trace) == (1, 0, False, [])


def test_ascent_step_falls_back_to_the_gradient(monkeypatch, qpsk_n10):
    # a "Newton step" along +grad is no descent direction: every step takes
    # the negative projected gradient instead, and the dual value falls
    steps = []

    def ascent(h, grad):
        steps.append(grad)
        return grad.copy()

    monkeypatch.setattr(_newton, "_newton_step", ascent)
    zero = from_coupling(product_coupling(qpsk_n10))
    start = _newton._sweep(DualPoint(zero.alpha, zero.beta, 1.0), qpsk_n10)[1]
    _, row, done, failure, trace = _descend(qpsk_n10, 6)
    assert failure is None and not done
    assert len(steps) == len(trace) == 6
    values = [start.dual_objective] + [r.dual_objective for r in trace]
    assert all(b < a for a, b in zip(values, values[1:])), values
