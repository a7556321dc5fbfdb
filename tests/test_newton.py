import math

import pytest

from lmrate import BracketError, NumericalFailureError
from lmrate._newton import SCALAR_MAX_EVALS, bracketed_newton


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


@pytest.mark.parametrize("hint", [0.1, 0.9, 1.1, 5.0])
def test_exp_zero_from_either_side(hint):
    x, evals, resolved = bracketed_newton(_exp_minus(math.exp(-1.0)), hint, 10.0)
    assert resolved
    assert abs(x - 1.0) <= 1e-14
    assert evals <= 8


def test_zero_at_the_origin():
    # exp(-x) - 2 is negative on [0, inf): the step from 1 is clipped to 0,
    # where the search stops with the zero at the boundary
    f = _recorded(_exp_minus(2.0))
    assert bracketed_newton(f, 1.0, 10.0) == (0.0, 2, True)
    assert f.points == [1.0, 0.0]


def test_nan_step_bisects_to_the_zero():
    # no Newton step at all: the search goes to the cap, then bisects
    def f(x):
        value = 1.0 / 3.0 - x
        return value, math.nan, abs(value) <= 1e-12

    rec = _recorded(f)
    x, evals, resolved = bracketed_newton(rec, 0.0, 4.0)
    assert resolved
    assert abs(x - 1.0 / 3.0) <= 1e-12
    assert rec.points[:4] == [0.0, 4.0, 2.0, 1.0]
    # each bisection halves the bracket: about log2(4 / 1e-12) of them
    assert evals <= 45


def test_positive_everywhere_raises_after_max_growth_doublings():
    f = _recorded(lambda x: (1.0, math.nan, False))
    with pytest.raises(BracketError, match="beyond 8 after 3"):
        bracketed_newton(f, 0.5, 1.0, max_growth=3)
    assert f.points == [0.5, 1.0, 2.0, 4.0, 8.0]
    # a zero past a cap that may not grow is a numerical failure
    with pytest.raises(NumericalFailureError, match="beyond 1 after 0"):
        bracketed_newton(lambda x: (1.0, math.nan, False), 0.5, 1.0)


def test_evaluation_budget():
    # steps too short to reach the zero at 1 use up the budget
    f = _recorded(lambda x: (1.0 - x, 1e-3, False))
    with pytest.raises(NumericalFailureError, match="unresolved"):
        bracketed_newton(f, 0.0, 10.0)
    assert len(f.points) == SCALAR_MAX_EVALS


def test_narrow_bracket_is_unresolved():
    # done never holds: bisection ends on two adjacent floats around 1/3
    x, _, resolved = bracketed_newton(lambda x: (1.0 / 3.0 - x, math.nan, False), 0.0, 4.0)
    assert not resolved
    assert abs(x - 1.0 / 3.0) <= 1e-16
