import json
import math

import numpy as np
import pytest

from lmrate import Constellation, Scheme, build_constellation, validate_constellation

ALL_SCHEMES = ["qpsk", "qam16", "qam64", "qam256"]


def test_qpsk_points_and_probs():
    c = build_constellation("qpsk")
    assert c.size == 4
    expected = {(s1 / math.sqrt(2.0), s2 / math.sqrt(2.0))
                for s1 in (-1, 1) for s2 in (-1, 1)}
    assert {tuple(p) for p in c.points} == expected
    np.testing.assert_array_equal(c.probs, np.full(4, 0.25))
    assert abs(c.power() - 1.0) <= 1e-12


def test_qam16_coordinate_set():
    c = build_constellation(Scheme.QAM16)
    assert c.size == 16
    allowed = {lv / math.sqrt(10.0) for lv in (-3, -1, 1, 3)}
    assert set(np.unique(c.points)) == allowed
    assert abs(c.power() - 1.0) <= 1e-12


@pytest.mark.parametrize("scheme,size", [("qpsk", 4), ("qam16", 16),
                                         ("qam64", 64), ("qam256", 256)])
def test_all_schemes_normalized_and_valid(scheme, size):
    c = build_constellation(scheme)
    assert c.size == size
    np.testing.assert_array_equal(c.probs, np.full(size, 1.0 / size))
    assert abs(c.power() - 1.0) <= 1e-12
    assert validate_constellation(c) == []


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_negation_closure_is_bitwise(scheme):
    c = build_constellation(scheme)
    neg = c.negation_index()
    assert neg is not None
    # sorted lattice constellations negate by pure index reversal
    np.testing.assert_array_equal(neg, np.arange(c.size - 1, -1, -1))
    assert np.array_equal(c.points[neg], -c.points)
    assert np.array_equal(c.probs[neg], c.probs)
    assert c.is_centrally_symmetric()


def test_asymmetric_probs_are_valid():
    # negated pairs with different probabilities: an asymmetric prior is
    # valid input, and it keeps unit power
    base = build_constellation("qpsk")
    c = Constellation(points=base.points,
                      probs=np.array([0.3, 0.3, 0.2, 0.2]), label="tampered")
    assert not c.is_centrally_symmetric()
    assert validate_constellation(c) == []


def test_scaled_points_flag_power():
    base = build_constellation("qpsk")
    c = Constellation(points=2.0 * base.points, probs=base.probs, label="scaled")
    violations = validate_constellation(c)
    assert len(violations) == 1
    assert "power" in violations[0] and "3.999999999999999" in violations[0]


def test_point_set_without_negation_closure_is_valid():
    base = build_constellation("qpsk")
    # two same-quadrant points: unit power but no negation closure
    lopsided = Constellation(points=base.points[:2],
                             probs=np.array([0.5, 0.5]), label="half")
    assert lopsided.negation_index() is None
    assert validate_constellation(lopsided) == []


def test_duplicate_points_detected():
    pts = np.array([[0.5, 0.5], [0.5, 0.5], [-0.5, -0.5], [-0.5, -0.5]])
    pts = pts * math.sqrt(2.0)  # restore unit power
    c = Constellation(points=pts, probs=np.full(4, 0.25), label="dupes")
    assert any("duplicate" in v for v in validate_constellation(c))


def test_json_round_trip():
    c = build_constellation("qam64")
    blob = c.to_json()
    parsed = json.loads(blob)
    assert set(parsed) == {"points", "probs"}
    back = Constellation.from_json(blob)
    np.testing.assert_array_equal(back.points, c.points)
    np.testing.assert_array_equal(back.probs, c.probs)


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        build_constellation("qam32")


@pytest.mark.parametrize("points,probs,message", [
    ([1.0, 0.0], [1.0], "points must have shape (M, 2)"),
    ([[1.0, 0.0, 0.0]], [1.0], "points must have shape (M, 2)"),
    ([[1.0, 0.0], [-1.0, 0.0]], [1.0], "probs length must match the number of points"),
    # unit power from a prior that sums to 0.625
    ([[2.0, 0.0], [-1.0, 0.0]], [0.125, 0.5],
     "probabilities sum to 0.625, expected 1 within 1e-12"),
    ([[1.0, 0.0], [-1.0, 0.0]], [1.0, 0.0],
     "probability 0.0 at index 1 is not strictly positive"),
    # a NaN power compares as within tolerance: one violation only
    ([[math.nan, 0.0], [-1.0, 0.0]], [0.5, 0.5], "points contain non-finite coordinates"),
], ids=["flat-points", "three-coordinates", "probs-length", "prob-sum", "zero-prob",
        "nan-point"])
def test_bad_constellation_file_reported(points, probs, message):
    # a constellation read from a file is outside input: a bad shape raises,
    # and every other defect is named by validate_constellation
    text = json.dumps({"points": points, "probs": probs})
    try:
        issues = validate_constellation(Constellation.from_json(text))
    except ValueError as err:
        issues = [str(err)]
    assert issues == [message]
