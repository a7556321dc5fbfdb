"""Generalized mutual information baseline.

Restricting the per-input shifts of the mismatched-decoding dual to zero
leaves a concave scalar function of the tilt s,

    gmi(s) = sum_ij p_x_i w_ij log( exp(-s*d_ij) / sum_k p_x_k exp(-s*d_kj) ),

whose maximum is the GMI.  It never exceeds the full rate, with equality
exactly when the shifts are redundant, so it doubles as a cheap sanity
bound on the solver output.

The classical-dual kernel returns gmi(s) with its first two derivatives,
the posterior mean and variance of the metric, so one pass gives a
Newton step.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channel import DiscreteProblem
from .errors import BracketError, NumericalFailureError

# Newton stops once its predicted gain first^2/|second| is below this
# fraction of max(|value|, 1): a few rounding errors, all the value resolves.
_GAIN_RTOL = 4.0 * np.finfo(float).eps
_MAX_EVALS = 200


@dataclass
class GmiResult:
    value_nats: float
    s_star: float
    evaluations: int


def gmi(p: DiscreteProblem, s_max: float = 50.0, max_growth: int = 6) -> GmiResult:
    """Maximize the tilt by safeguarded Newton on gmi'(s).

    Newton starts at s = 1/E[d] and keeps a bracket of evaluated tilts
    with gmi' > 0 and gmi' <= 0; a step that leaves the bracket bisects it
    instead.  Steps are clipped to a cap, starting at s_max: when gmi' is
    still positive at the cap, the cap doubles, up to max_growth times,
    and BracketError is raised if it is still positive at the last one,
    since the returned value would then undershoot the true GMI.  Newton
    stops when its predicted gain first^2/|second| falls below what the
    value can resolve, not on a width in s: on a flat top (the value
    saturating at log M at high SNR) the maximizer is not identifiable,
    but the value is.  ``evaluations`` counts kernel calls.
    """
    if not s_max > 0.0:
        raise ValueError("s_max must be positive")
    joint, log_px = p.p_x[:, None] * p.w, np.log(p.p_x)
    shifts = np.zeros(p.m)
    lo, hi = -math.inf, math.inf     # evaluated tilts with gmi' > 0 / gmi' <= 0
    cap = float(s_max)
    growth = 0
    # 1 / E[d] under the joint: the matched tilt of a Gaussian metric, and a
    # start that scales with the metric
    mean_metric = _kernels.vdot(joint, p.d)
    x = min(1.0 / mean_metric, cap) if mean_metric > 0.0 else cap
    for evaluations in range(1, _MAX_EVALS + 1):
        value, first, second = _kernels.mismatch_dual_value(joint, shifts, log_px, x, p.d)
        if first > 0.0:
            lo = x
        else:
            hi = x
        resolved = second < 0.0 and first * first <= -second * _GAIN_RTOL * max(abs(value), 1.0)
        if resolved or hi == 0.0:    # hi == 0: the maximizer is s = 0
            break
        if lo == cap:
            if growth == max_growth:
                raise BracketError(
                    f"tilt maximizer still beyond {cap:g} after {max_growth} doublings")
            growth += 1
            cap *= 2.0
        x_new = x - first / second if second < 0.0 else math.nan
        if not lo < x_new < hi:
            x_new = 0.5 * (max(lo, 0.0) + hi) if hi < math.inf else cap
        x_new = min(max(x_new, 0.0), cap)
        if not lo < x_new < hi:      # bracket too narrow to split
            break
        x = x_new
    else:
        raise NumericalFailureError(f"tilt search unresolved after {_MAX_EVALS} evaluations")
    return GmiResult(value_nats=value, s_star=x, evaluations=evaluations)
