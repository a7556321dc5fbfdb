"""Channel input constellations on the real plane.

Complex symbols are handled as points in R^2.  The built-in schemes are
the square QAM families drawn from the odd-integer lattice and divided by
the exact normalizer that gives unit mean power, so E||X||^2 == 1 holds to
machine precision and the point set is closed under negation bit-for-bit.
"""

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Scheme(str, Enum):
    QPSK = "qpsk"
    QAM16 = "qam16"
    QAM64 = "qam64"
    QAM256 = "qam256"


# per-axis amplitude levels k and the exact power normalizer sqrt(2*(4k^2-1)/3)
_SIDE_LEVELS = {
    Scheme.QPSK: 1,
    Scheme.QAM16: 2,
    Scheme.QAM64: 4,
    Scheme.QAM256: 8,
}


@dataclass(frozen=True)
class Constellation:
    """A finite input alphabet: M points in R^2 with a prior.

    points: (M, 2) float array.
    probs: (M,) float array, positive, summing to one.
    label: scheme name ("qpsk", ..., or "custom").
    """

    points: np.ndarray
    probs: np.ndarray
    label: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "points", np.ascontiguousarray(self.points, dtype=np.float64))
        object.__setattr__(self, "probs", np.ascontiguousarray(self.probs, dtype=np.float64))
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must have shape (M, 2)")
        if self.probs.shape != (self.points.shape[0],):
            raise ValueError("probs length must match the number of points")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def power(self) -> float:
        return float(np.dot(self.probs, (self.points**2).sum(axis=1)))

    def negation_index(self):
        """Index map i -> j with points[j] == -points[i] exactly, or None.

        Exact (bitwise) matching, which is_centrally_symmetric reads; no
        solver needs the pairs.
        """
        lookup = {}
        for i, pt in enumerate(self.points):
            lookup[(float(pt[0]), float(pt[1]))] = i
        neg = np.empty(self.size, dtype=np.int64)
        for i, pt in enumerate(self.points):
            j = lookup.get((float(-pt[0]), float(-pt[1])))
            if j is None:
                return None
            neg[i] = j
        return neg

    def is_centrally_symmetric(self) -> bool:
        neg = self.negation_index()
        if neg is None:
            return False
        return bool(np.all(self.probs[neg] == self.probs))

    def to_json(self) -> str:
        return json.dumps({"points": self.points.tolist(), "probs": self.probs.tolist()})

    @classmethod
    def from_json(cls, text: str, label: str = "custom") -> "Constellation":
        data = json.loads(text)
        return cls(np.asarray(data["points"], dtype=np.float64),
                   np.asarray(data["probs"], dtype=np.float64), label=label)


def build_constellation(scheme) -> Constellation:
    """Build one of the unit-power square constellations.

    Args:
        scheme: a Scheme member or its string value ("qpsk", "qam16",
            "qam64", "qam256"); case-insensitive.

    Returns:
        Constellation with uniform prior, points sorted lexicographically,
        so the negation of the i-th point is the (M-1-i)-th point.
    """
    if isinstance(scheme, str):
        scheme = Scheme(scheme.strip().lower())
    k = _SIDE_LEVELS[scheme]
    norm = math.sqrt(2 * (4 * k * k - 1) / 3)
    axis = np.arange(-(2 * k - 1), 2 * k, 2, dtype=np.float64)
    pts = [(a / norm, b / norm) for a in axis for b in axis]
    pts.sort()
    points = np.array(pts, dtype=np.float64)
    m = points.shape[0]
    probs = np.full(m, 1.0 / m)
    return Constellation(points, probs, label=scheme.value)


def validate_constellation(c: Constellation) -> list:
    """Check the constellation contract; reports violations, never raises.

    The contract is a prior on distinct finite points with unit mean power;
    an alphabet need not be closed under negation.

    Returns:
        List of human-readable violation descriptors; empty when valid.
    """
    issues = []
    probs = c.probs
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-12:
        issues.append(f"probabilities sum to {total!r}, expected 1 within 1e-12")
    if np.any(probs <= 0.0):
        bad = int(np.argmin(probs))
        issues.append(f"probability {float(probs[bad])!r} at index {bad} is not strictly positive")
    if not np.all(np.isfinite(c.points)):
        issues.append("points contain non-finite coordinates")
    power = c.power()
    if abs(power - 1.0) > 1e-12:
        issues.append(f"mean power E||X||^2 = {power!r}, expected 1 within 1e-12")
    seen = {}
    for i, pt in enumerate(c.points):
        key = (float(pt[0]), float(pt[1]))
        if key in seen:
            issues.append(f"duplicate point at indexes {seen[key]} and {i}: {key}")
        seen[key] = i
    return issues
