"""Generalized mutual information baseline.

Restricting the per-input shifts of the mismatched-decoding dual to zero
leaves a concave scalar function of the tilt s,

    gmi(s) = sum_ij p_x_i w_ij log( exp(-s*d_ij) / sum_k p_x_k exp(-s*d_kj) ),

whose maximum is the GMI.  It never exceeds the full rate, with equality
exactly when the shifts are redundant, so it doubles as a cheap sanity
bound on the solver output.

The classical-dual kernel returns gmi(s) with its first two derivatives,
the posterior mean and variance of the metric, so one pass gives a
Newton step.  On a channel-built grid whose inputs' levels form a full
product, under a uniform prior, that pass takes the posteriors axis by
axis (_kernels._axis_posteriors), at any tilt.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, _newton
from .channel import DiscreteProblem

# Newton stops once its predicted gain first^2/|second| is below this
# fraction of max(|value|, 1): a few rounding errors, all the value resolves.
_GAIN_RTOL = 4.0 * np.finfo(float).eps


@dataclass
class GmiResult:
    value_nats: float
    s_star: float
    evaluations: int


def gmi(p: DiscreteProblem) -> GmiResult:
    """Maximize the tilt by ``_newton.bracketed_newton`` on gmi'(s) from
    s = 1/E[d], step -gmi'/gmi'' where gmi'' < 0, over [0, SCALAR_CAP], the
    LM multiplier's range (the tilt is that multiplier with the per-input
    shifts at zero); BracketError while gmi' > 0 at the cap, since the value
    would undershoot the GMI.  Stops when the predicted gain
    first^2/|second| falls below what the value can resolve, not on a
    width in s: on a flat top (the value saturating at log M at high SNR)
    the maximizer is not identifiable, but the value is.  A metric constant
    along each column (gmi' = gmi'' = 0 up to rounding) resolves at its
    first evaluation.  ``evaluations`` counts kernel calls.  The kernel
    reads the instance's cached JointSums (``p.joint``), whose per-axis
    node weights are summed once per instance, not once per evaluation.
    """
    sums, log_px = p.joint, np.log(p.p_x)
    shifts = np.zeros(p.m)
    value = math.nan

    def slope(s):
        nonlocal value
        value, first, second = _kernels.mismatch_dual_value(sums, shifts, log_px, s, p.d, p.axes)
        # a metric constant along each column (d_ij = c_j) makes gmi flat: a
        # slope that is rounding of sums.wd, and a variance of either sign
        resolved = (second < 0.0 and first * first <= -second * _GAIN_RTOL * max(abs(value), 1.0)
                    or abs(first) <= _GAIN_RTOL * sums.wd)
        return first, -first / second if second < 0.0 else math.nan, resolved

    # 1 / E[d] under the joint: the matched tilt of a Gaussian metric, and a
    # start that scales with the metric
    cap = _newton.SCALAR_CAP
    x = min(1.0 / sums.wd, cap) if sums.wd > 0.0 else cap
    s_star, evaluations, _ = _newton.bracketed_newton(slope, float(x))
    return GmiResult(value_nats=value, s_star=s_star, evaluations=evaluations)
