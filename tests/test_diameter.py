"""Instance.diameter against a pairwise row scan kept here as the reference,
which sums each pair's squared differences one dimension at a time, as
Instance.distance does: every value must be equal bit for bit.  A property
test pins the definition itself: the diameter is the largest distance, also
when a square overflows or every square underflows.  Pair counts pin the L2
prune: few kernel pairs where few points can end the farthest pair, every
pair where all of them can."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import netfloc.instance as instance_mod
from netfloc import Instance, InstanceError

from helpers import benchmark_inputs

KINDS = ("euclidean-L2", "euclidean-Linf")
DIMS = (1, 2, 3, 7, 8, 9, 16)


def _row_scan(arr: np.ndarray, squared: bool) -> float:
    """Largest squared L2 (``squared``, summed one dimension at a time) or
    L-infinity distance over all pairs of rows, one numpy row at a time."""
    best = 0.0
    with np.errstate(over="ignore"):
        for row in arr:
            diff = row - arr
            if squared:
                ext = diff[:, 0] ** 2
                for k in range(1, arr.shape[1]):
                    ext = ext + diff[:, k] ** 2
                ext = ext.max()
            else:
                ext = np.abs(diff).max()
            if ext > best:
                best = ext
    return float(best)


def reference_diameter(points, kind) -> float:
    """The diameter by the row scan; inf when the diameter itself
    overflows.  When a squared L2 sum overflows, or every one is below
    2**-960, the farthest pairs' distances are ``math.dist``'s, and the
    diameter is the largest of them."""
    arr = np.asarray(points, dtype=float)
    if kind == "euclidean-Linf":
        return _row_scan(arr, squared=False)
    best = _row_scan(arr, squared=True)
    if 2.0 ** -960 <= best < math.inf:
        return math.sqrt(best)
    return max(math.dist(p, q) for p in points for q in points)


def assert_matches_reference(points, kind) -> None:
    expected = reference_diameter(points, kind)
    inst = Instance(kind, points=points, facilities=[(0, 1)])
    if math.isinf(expected):
        with pytest.raises(InstanceError, match="diameter overflows"):
            inst.diameter
    else:
        assert inst.diameter == expected


def _points(case: str, d: int, rng: np.random.Generator) -> np.ndarray:
    n = 200
    if case == "random":
        return rng.random((n, d)) * 1000
    if case == "duplicates":
        return np.repeat(rng.random((n // 8, d)), 8, axis=0)
    if case == "single":
        return rng.random((1, d))
    if case == "collinear":
        return rng.random((n, 1)) * rng.normal(size=(1, d)) + rng.random(d)
    if case == "mixed-magnitudes":
        return rng.normal(size=(n, d)) * 10.0 ** rng.integers(-150, 150, size=(1, d))
    if case == "antipodal":
        # Every pair x, -x is within rounding of the diameter, so the
        # farthest pair is decided in the last bits of the sums.
        x = rng.normal(size=(n // 2, d))
        x /= np.sqrt((x ** 2).sum(axis=1, keepdims=True))
        return np.concatenate([x, -x])
    if case == "near-1e200":
        return (rng.random((n, d)) - 0.5) * 2e200
    raise ValueError(case)


CASES = ("random", "duplicates", "single", "collinear", "mixed-magnitudes",
         "antipodal", "near-1e200")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("case", CASES)
def test_diameter_equals_row_scan(case, d, kind):
    rng = np.random.default_rng(1000 * d + CASES.index(case))
    assert_matches_reference(_points(case, d, rng).tolist(), kind)


@pytest.mark.parametrize("d", (2, 9))
def test_diameter_equals_row_scan_across_many_blocks(d):
    # 1,500 points span several row blocks, the last one partial.
    rng = np.random.default_rng(d)
    points = np.round(rng.random((1500, d)) * 1000).tolist()
    for kind in KINDS:
        assert_matches_reference(points, kind)


def _sphere(n: int, d: int) -> np.ndarray:
    x = np.random.default_rng(n + d).normal(size=(n, d))
    norm2 = x[:, 0] ** 2
    for k in range(1, d):
        norm2 += x[:, k] ** 2
    return x / np.sqrt(norm2)[:, None]


def _scanned_pairs(monkeypatch, points) -> int:
    """The pairs the L2 diameter hands to ``_squared_sums``, after checking
    the diameter against the row scan."""
    pairs = 0
    squared_sums = instance_mod._squared_sums

    def counting(arr, ps, qs):
        nonlocal pairs
        pairs += np.broadcast(ps, qs).size
        return squared_sums(arr, ps, qs)

    monkeypatch.setattr(instance_mod, "_squared_sums", counting)
    assert_matches_reference(points, "euclidean-L2")
    return pairs


@pytest.mark.parametrize("d", (2, 9))
def test_diameter_of_points_on_a_sphere_scans_every_pair(monkeypatch, d):
    # Every point's bound reaches the floor, so each unordered pair is
    # scanned, over several row blocks, after the bounds and the floor's two
    # rows (3 * n pairs).
    n = 1500
    assert _scanned_pairs(monkeypatch, _sphere(n, d).tolist()) >= 3 * n + n * (n + 1) // 2


def test_diameter_of_uniform_points_scans_few_pairs(monkeypatch):
    n = 1500
    points = (np.random.default_rng(7).random((n, 3)) * 1000).tolist()
    assert _scanned_pairs(monkeypatch, points) < 4 * n


def test_diameter_of_copies_of_one_point_scans_every_pair(monkeypatch):
    # The floor is 0, which every bound reaches; the diameter is 0.
    n = 500
    assert _scanned_pairs(monkeypatch, [[3.5, -2.0, 1e-3]] * n) >= 3 * n + n * (n + 1) // 2


@pytest.mark.parametrize("d", (1, 2, 5))
def test_diameter_of_points_near_1e200_takes_the_fallback(d):
    # Most sums of squares overflow, so the diameter is the largest
    # ``math.dist``, over the points that the fallback's bound keeps.
    points = (np.random.default_rng(d).random((500, d)) - 0.5) * 2e200
    assert_matches_reference(points.tolist(), "euclidean-L2")


@pytest.mark.parametrize("workload", ("churn-l2", "flap-625"))
def test_diameter_of_benchmark_instances_equals_row_scan(workload):
    data = json.loads(benchmark_inputs(workload, 1).instance_text)
    for kind in KINDS:
        assert_matches_reference(data["metric"]["points"], kind)


@pytest.mark.parametrize("workload", ("churn-l2", "flap-625"))
def test_diameter_of_benchmark_instances_scans_few_pairs(monkeypatch, workload):
    # An all-pairs scan would hand the kernel ~n**2 / 2 pairs.
    points = json.loads(benchmark_inputs(workload, 1).instance_text)["metric"]["points"]
    assert _scanned_pairs(monkeypatch, points) < 4 * len(points)


def test_linf_overflow_is_an_input_error():
    inst = Instance("euclidean-Linf", points=[[-1e308, 0], [1e308, 0]],
                    facilities=[(0, 1)])
    with pytest.raises(InstanceError, match="diameter overflows"):
        inst.diameter


_coordinate = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False) | \
    st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda d: st.lists(st.lists(_coordinate, min_size=d, max_size=d),
                       min_size=1, max_size=25)),
       st.sampled_from(KINDS))
def test_diameter_property_equals_row_scan(points, kind):
    assert_matches_reference(points, kind)


# Coordinates 0 or of magnitude in [2**-400, 1e150]: a nonzero squared
# difference is at least 2**-904, and 16 of them stay below 1e302, so no
# L2 sum of squares overflows or lies in (0, 2**-960).
_magnitude = st.just(0.0) | st.floats(2.0 ** -400, 1e150)
_bounded_coordinate = st.tuples(_magnitude, st.booleans()).map(
    lambda t: -t[0] if t[1] else t[0])


# Coordinates of magnitude at most 2**-500: every squared difference
# underflows below 2**-960, so every L2 distance is ``math.dist``'s.
_tiny_coordinate = st.floats(-2.0 ** -500, 2.0 ** -500)


# Coordinates of magnitude in [1e154, 1e307]: two of opposite signs differ by
# more than 1.34e154, whose square overflows, so such a pair's ``distance`` is
# ``math.dist``'s; 16 differences of at most 2e307 keep the diameter itself
# finite.
_huge_coordinate = st.tuples(st.floats(1e154, 1e307), st.booleans()).map(
    lambda t: -t[0] if t[1] else t[0])


def _point_sets(coordinate):
    return st.integers(1, 16).flatmap(
        lambda d: st.lists(st.lists(coordinate, min_size=d, max_size=d),
                           min_size=1, max_size=25))


@settings(max_examples=200, deadline=None)
@given(_point_sets(_bounded_coordinate) | _point_sets(_tiny_coordinate)
       | _point_sets(_huge_coordinate),
       st.sampled_from(("euclidean-L2", "euclidean-Linf", "explicit-matrix")))
def test_diameter_is_the_largest_distance(points, kind):
    ids = range(len(points))
    if kind == "explicit-matrix":
        l2 = Instance("euclidean-L2", points=points, facilities=[(0, 1)])
        inst = Instance(kind, matrix=[[l2.distance(p, q) for q in ids] for p in ids],
                        facilities=[(0, 1)])
    else:
        inst = Instance(kind, points=points, facilities=[(0, 1)])
    assert inst.diameter == max(inst.distance(p, q) for p in ids for q in ids)
