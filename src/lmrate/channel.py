"""Two-dimensional Gaussian channel with linear distortion, and its discretization.

The channel is Y = H X + Z with H = diag(eta1, eta2) @ R(theta) (R a
rotation) and Z isotropic Gaussian noise of per-component variance
sigma2.  The decoder scores candidates with the quadratic metric
d(x, y) = ||y - h_hat x||^2; h_hat defaults to the identity (a decoder
that ignores the distortion).

Discretization evaluates the transition density on a uniform square grid
over [-half_width, half_width]^2 and renormalizes each row, giving a
finite-alphabet problem whose couplings are directly comparable with the
analytic threshold.  The grid's coordinates are exactly centrally
symmetric, so the metric and the density of a centrally symmetric
constellation are too, bit for bit; the row and column sums taken from them
are equal across negation pairs only to rounding, and no solver relies on
more.  Channel and grid values whose squares or density exponents would
overflow a double are refused before any arithmetic on them.
"""

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from numbers import Integral

import numpy as np

from ._kernels import GridAxes, JointSums, joint_sums, vdot
from .errors import DegenerateGridError, UnsupportedConfigurationError
from .problem import shannon_entropy

_IDENTITY = np.eye(2)


@dataclass(frozen=True)
class ChannelSpec:
    """Channel parameters.  eta1/eta2 are the axis gains, theta the rotation
    angle in radians, sigma2 the per-component noise variance."""

    eta1: float
    eta2: float
    theta: float
    sigma2: float
    h_hat: np.ndarray = field(default_factory=lambda: _IDENTITY.copy())

    def __post_init__(self):
        object.__setattr__(self, "h_hat", np.ascontiguousarray(self.h_hat, dtype=np.float64))
        if self.h_hat.shape != (2, 2):
            raise ValueError("h_hat must be a 2x2 matrix")
        for name in ("eta1", "eta2", "sigma2"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")

    @property
    def h(self) -> np.ndarray:
        """Distortion matrix diag(eta1, eta2) @ [[cos, sin], [-sin, cos]]."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[self.eta1 * c, self.eta1 * s], [-self.eta2 * s, self.eta2 * c]])

    def matched_decoder(self) -> bool:
        return bool(np.array_equal(self.h_hat, _IDENTITY))


def build_channel(eta1: float, eta2: float, theta: float, snr_db: float,
                  h_hat=None) -> ChannelSpec:
    """Assemble a ChannelSpec from the SNR convention snr = 1 / (2*sigma2).

    sigma2 = 10**(-snr_db/10) / 2, so snr_db = 0 gives sigma2 = 1/2.  Raises
    UnsupportedConfigurationError when that is no positive finite double.
    """
    try:
        sigma2 = 10.0 ** (-snr_db / 10.0) / 2.0
    except OverflowError:
        sigma2 = math.inf
    if not 0.0 < sigma2 < math.inf:
        raise UnsupportedConfigurationError(
            f"snr_db = {snr_db!r} gives noise variance {sigma2!r}, not a positive finite double")
    kwargs = {} if h_hat is None else {"h_hat": np.asarray(h_hat, dtype=np.float64)}
    return ChannelSpec(eta1=eta1, eta2=eta2, theta=theta, sigma2=sigma2, **kwargs)


@dataclass(frozen=True)
class OutputGrid:
    """Uniform square grid of channel-output nodes (after optional pruning).

    points: (N, 2) node coordinates.
    delta: node spacing 2*half_width / (n_side - 1).
    pruned: original node indexes removed by the probability floor.
    """

    points: np.ndarray
    delta: float
    half_width: float
    n_side: int
    pruned: np.ndarray


@dataclass
class DiscreteProblem:
    """Finite-alphabet instance consumed by the solvers.

    d: (M, N) decoding metric, d[i][j] = ||y_j - h_hat x_i||^2 for
       channel-built instances; any nonnegative matrix for custom ones.
    p_x: input prior (M,).
    p_y: output marginal (N,), strictly positive.
    w: row-stochastic transition matrix (M, N).
    t: capacity-constraint threshold, finite; sum_ij p_x[i] w[i][j] d[i][j]
       for channel-built instances.
    axes: the metric's level tables (GridAxes) for channel-built instances
       whose decoder points form a product of levels, which the kernels
       factor through; None otherwise.  Not serialized.
    """

    d: np.ndarray
    p_x: np.ndarray
    p_y: np.ndarray
    w: np.ndarray
    t: float
    axes: GridAxes | None = None

    def __post_init__(self):
        self.d = np.ascontiguousarray(self.d, dtype=np.float64)
        self.p_x = np.ascontiguousarray(self.p_x, dtype=np.float64)
        self.p_y = np.ascontiguousarray(self.p_y, dtype=np.float64)
        self.w = np.ascontiguousarray(self.w, dtype=np.float64)
        if self.d.shape != self.w.shape:
            raise ValueError("d and w must have the same shape")
        if self.p_x.shape != (self.d.shape[0],) or self.p_y.shape != (self.d.shape[1],):
            raise ValueError("marginal lengths must match the metric shape")
        if not math.isfinite(self.t):
            raise ValueError(f"threshold t must be finite, got {self.t!r}")

    @property
    def m(self) -> int:
        return self.d.shape[0]

    @property
    def n(self) -> int:
        return self.d.shape[1]

    # per-instance constants of the solver loops, computed once
    @cached_property
    def d_max(self) -> float:
        return float(self.d.max()) if self.d.size else 0.0

    @cached_property
    def d_min(self) -> float:
        return float(self.d.min()) if self.d.size else 0.0

    @cached_property
    def t_min(self) -> float:
        """sum_j p_y_j min_i d_ij: no coupling whose columns sum to p_y has a
        smaller metric mass sum d q, so a threshold below it is infeasible."""
        return vdot(self.p_y, self.d.min(axis=0)) if self.d.size else 0.0

    @cached_property
    def h_x(self) -> float:
        return shannon_entropy(self.p_x)

    @cached_property
    def h_y(self) -> float:
        return shannon_entropy(self.p_y)

    @cached_property
    def joint(self) -> JointSums:
        """The JointSums of p_x[:, None] * w over d, for the classical dual."""
        return joint_sums(self.p_x, self.w, self.d, self.axes)

    def with_threshold(self, t: float) -> "DiscreteProblem":
        """Copy with an overridden constraint threshold.

        The copy intentionally drops the t-consistency tie to (p_x, w, d);
        it exists for constraint-slackness experiments (e.g. inflating t
        above max(d) to force the zero-multiplier optimum).
        """
        return replace(self, t=float(t))

    def validate(self) -> list:
        """Contract check mirroring validate_constellation: returns violations."""
        issues = []
        if np.any(self.d < 0):
            issues.append("metric has negative entries")
        row_sums = self.w.sum(axis=1)
        worst = float(np.abs(row_sums - 1.0).max()) if row_sums.size else 0.0
        if worst > 1e-12:
            issues.append(f"w rows deviate from stochasticity by {worst:.3e} (> 1e-12)")
        if np.any(self.p_y <= 0):
            issues.append("p_y has non-positive entries (pruning incomplete)")
        if np.any(self.p_x <= 0):
            issues.append("p_x has non-positive entries")
        marg = self.p_x @ self.w
        gap = float(np.abs(marg - self.p_y).max())
        if gap > 1e-12:
            issues.append(f"p_y deviates from the marginalization of p_x @ w by {gap:.3e}")
        t_ref = float(np.sum(self.p_x[:, None] * self.w * self.d))
        if t_ref != self.t:
            issues.append(f"t = {self.t!r} differs from the recomputed value {t_ref!r}")
        axes = self.axes
        if axes is not None:
            a, b = np.divmod(axes.kept, axes.t1.shape[1])
            if not np.array_equal(axes.t1[axes.u[:, None], a] + axes.t2[axes.v[:, None], b],
                                  self.d):
                issues.append("level tables do not reproduce the metric")
        return issues

    def to_json(self) -> str:
        payload = {
            "d": self.d.tolist(),
            "p_x": self.p_x.tolist(),
            "p_y": self.p_y.tolist(),
            "w": self.w.tolist(),
            "t": self.t,
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "DiscreteProblem":
        """Inverse of to_json; other keys, such as the negation maps and
        the symmetry flag that older dumps carry, are ignored."""
        data = json.loads(text)
        return cls(np.asarray(data["d"]), np.asarray(data["p_x"]), np.asarray(data["p_y"]),
                   np.asarray(data["w"]), float(data["t"]))


def _symmetric_axis(n_side: int, half_width: float) -> np.ndarray:
    """Uniform coordinates on [-hw, hw] with coords[n-1-k] == -coords[k] exactly."""
    half = -half_width + np.arange(n_side // 2) * (2.0 * half_width / (n_side - 1))
    return np.concatenate([half, [0.0] * (n_side % 2), -half[::-1]])


def _axis_squares(coords, centers):
    """Per-axis squared offsets (coords[a] - centers[i, 0])^2 and
    (coords[b] - centers[i, 1])^2, each (M, n_side)."""
    u = coords[None, :] - centers[:, :1]
    v = coords[None, :] - centers[:, 1:]
    return u * u, v * v


def _grid_sum(t1, t2):
    """The (M, n_side^2) table t1[i, a] + t2[i, b] at node a * n_side + b."""
    return (t1[:, :, None] + t2[:, None, :]).reshape(t1.shape[0], -1)


def quadratic_form_positive(channel: ChannelSpec) -> bool:
    """True when x . (H x) > 0 for all x != 0 (symmetric part of H is PD),
    the paper's condition for a positive optimal multiplier; no solver
    path depends on it."""
    h = channel.h
    sym = 0.5 * (h + h.T)
    return bool(np.linalg.eigvalsh(sym).min() > 0.0)


def discretize(channel: ChannelSpec, c, n_side: int, prob_floor: float = 1e-100,
               half_width: float = 8.0):
    """Discretize the channel output onto an n_side x n_side grid.

    Rows of the transition matrix are the Gaussian density evaluated at the
    nodes and renormalized to sum to one.  Nodes whose output marginal
    falls below prob_floor are pruned and the remaining tables
    renormalized.  The problem carries the metric's level tables (GridAxes)
    when the decoder points take U distinct first and V distinct second
    coordinates with U V <= M, and axes None otherwise.

    Args:
        channel: ChannelSpec.
        c: Constellation, its prior strictly positive.
        n_side: nodes per axis, an integer >= 2.
        prob_floor: pruning threshold on the output marginal, >= 0.
        half_width: grid extent, positive and finite.

    Returns:
        (OutputGrid, DiscreteProblem)

    Raises:
        UnsupportedConfigurationError when an offset of a node from an image,
        its square or a density exponent would overflow a double.
        DegenerateGridError when a row's density underflows or every node
        is pruned.
    """
    if not (isinstance(n_side, Integral) and n_side >= 2):
        raise ValueError(f"n_side must be an integer of at least 2, got {n_side!r}")
    if not (prob_floor >= 0.0):
        raise ValueError("prob_floor must be nonnegative")
    if not (half_width > 0.0 and math.isfinite(half_width)):
        raise ValueError(f"half_width must be positive and finite, got {half_width!r}")
    if np.any(c.probs <= 0.0):
        bad = int(np.argmin(c.probs))
        raise ValueError(
            f"probability {float(c.probs[bad])!r} at index {bad} is not strictly positive")
    # |(H x)_k| <= max|H_kl| * ||x||_1, and so for h_hat: every offset below
    # is at most ``reach``, every metric entry 2 reach^2 and every density
    # exponent reach^2 / sigma2, which must all be finite doubles
    gain = float(max(np.abs(channel.h).max(), np.abs(channel.h_hat).max()))
    reach = float(half_width) + float(np.abs(c.points).sum(axis=1).max()) * gain
    if not reach * reach * max(2.0, 1.0 / float(channel.sigma2)) < math.inf:
        raise UnsupportedConfigurationError(
            f"the grid and the channel's images reach {reach!r}: their squares over the "
            f"noise variance {channel.sigma2!r} overflow a double")

    coords = _symmetric_axis(n_side, float(half_width))
    delta = 2.0 * float(half_width) / (n_side - 1)
    n_full = n_side * n_side
    points = np.column_stack([np.repeat(coords, n_side), np.tile(coords, n_side)])

    x = c.points
    images = x @ channel.h.T          # H x_i for the transition density
    scores = x @ channel.h_hat.T      # h_hat x_i for the decoding metric

    dens = np.exp(-_grid_sum(*_axis_squares(coords, images)) / (2.0 * channel.sigma2))
    d1, d2 = _axis_squares(coords, scores)
    d = _grid_sum(d1, d2)

    row_mass = dens.sum(axis=1)
    if np.any(row_mass <= 0.0):
        raise DegenerateGridError(
            "transition density underflows on an entire grid row; "
            "refine the grid or lower the SNR")
    w = dens / row_mass[:, None]
    p_y = c.probs @ w

    keep = p_y >= prob_floor
    if not keep.any():
        raise DegenerateGridError(
            f"all {n_full} grid nodes fall below prob_floor={prob_floor!r}")
    pruned = np.nonzero(~keep)[0]
    _, rows1, u = np.unique(scores[:, 0], return_index=True, return_inverse=True)
    _, rows2, v = np.unique(scores[:, 1], return_index=True, return_inverse=True)
    axes = None
    if rows1.size * rows2.size <= c.size:
        axes = GridAxes(d1[rows1], d2[rows2], u, v, np.nonzero(keep)[0])
    if pruned.size:
        w = np.ascontiguousarray(w[:, keep])
        d = np.ascontiguousarray(d[:, keep])
        points = points[keep]
        w = w / w.sum(axis=1)[:, None]
        p_y = c.probs @ w

    t = float(np.sum(c.probs[:, None] * w * d))
    grid = OutputGrid(points=points, delta=delta, half_width=float(half_width),
                      n_side=n_side, pruned=pruned)
    problem = DiscreteProblem(d=d, p_x=c.probs.copy(), p_y=p_y, w=w, t=t, axes=axes)
    return grid, problem


def analytic_threshold(channel: ChannelSpec, c) -> float:
    """Closed-form constraint threshold for the matched decoder.

    E||Y - X||^2 = E||Z||^2 + sum_i p_i ||H x_i - x_i||^2 with
    E||Z||^2 = 2*sigma2.  Only valid when h_hat is the identity.
    """
    if not channel.matched_decoder():
        raise UnsupportedConfigurationError(
            "analytic threshold requires the matched decoder (h_hat = identity)")
    shift = c.points @ channel.h.T - c.points
    return 2.0 * channel.sigma2 + float(np.dot(c.probs, (shift * shift).sum(axis=1)))
