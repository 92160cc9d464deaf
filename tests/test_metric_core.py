import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_instance, reference_cround
from netfloc import (Instance, InstanceError, cround,
                     derive_parameters, largest_power_of_five_at_most)


def test_distance_identity(line5):
    assert line5.distance(0, 0) == 0.0


def test_distance_line5_explicit_coordinates(line5):
    assert line5.distance(0, 3) == 100.0


def test_distance_l2_345_triangle():
    inst = Instance("euclidean-L2", points=[[0, 0], [3, 4]], facilities=[(0, 1)])
    assert inst.distance(0, 1) == 5.0


def test_distance_linf():
    inst = Instance("euclidean-Linf", points=[[0, 0], [3, 4]], facilities=[(0, 1)])
    assert inst.distance(0, 1) == 4.0


def test_distance_invalid_index(line5):
    with pytest.raises(InstanceError):
        line5.distance(0, 99)


def test_matrix_metric_lookup():
    inst = Instance("explicit-matrix", matrix=[[0, 2], [2, 0]], facilities=[(0, 1)])
    assert inst.distance(0, 1) == 2.0
    assert inst.diameter == 2.0


def test_derive_parameters_line5(line5):
    p = derive_parameters(line5, 0)
    assert (p.rho_min, p.rho_max, p.delta) == (1, 3, 3)
    assert line5.diameter == 101.0
    assert {f.opening_cost for f in line5.facilities} == {10.0}


def test_derive_parameters_line5_n25(line5):
    p = derive_parameters(line5, 25)
    assert (p.rho_min, p.delta) == (0, 4)


def test_derive_parameters_unit_boundary():
    inst = Instance("explicit-matrix", matrix=[[0, 1], [1, 0]], facilities=[(0, 1)])
    p = derive_parameters(inst, 0)
    assert (p.rho_min, p.rho_max, p.delta) == (0, 0, 1)


def test_cround_boundaries():
    assert cround(1) == 0
    assert cround(5) == 1
    assert cround(25) == 2
    assert cround(26) == 3
    assert cround(Fraction(2, 5)) == 0
    assert cround(Fraction(1, 5)) == -1
    assert cround(Fraction(1, 5) + Fraction(1, 10**9)) == 0
    with pytest.raises(ValueError):
        cround(0)


# Exponents k whose 5**k lies in the normal float range.
_FLOAT_EXPONENTS = st.integers(-439, 441)


def _near_powers_of_five():
    """Exact powers of five (ints and Fractions), their nearest floats, and
    the floats one ulp on either side of those."""
    exact = _FLOAT_EXPONENTS.map(lambda k: Fraction(5) ** k)
    nearest = exact.map(float)
    ulp = st.tuples(nearest, st.sampled_from([-math.inf, math.inf])).map(
        lambda pair: math.nextafter(*pair))
    ints = st.integers(0, 300).flatmap(
        lambda k: st.sampled_from([5 ** k - 1, 5 ** k, 5 ** k + 1]).filter(bool))
    return st.one_of(exact, nearest, ulp, ints)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(1e-300, 1e308), _near_powers_of_five(),
                 st.fractions(min_value=Fraction(1, 10 ** 30)).filter(bool)))
def test_cround_equals_the_rational_reference(x):
    assert cround(x) == reference_cround(x)


def test_rho_min_monotone_and_unit_steps(line5):
    values = [derive_parameters(line5, n).rho_min for n in (0, 1, 5, 25, 125, 625)]
    assert values == sorted(values, reverse=True)
    # Once n dominates the facility count, each factor-5 step drops the
    # bottom scale by exactly one.
    assert values[2:] == [1, 0, -1, -2]


def test_delta_growth_bound():
    rng = random.Random(11)
    for _ in range(40):
        inst = random_instance(rng, n_facilities=rng.randint(1, 30),
                               n_pool_points=rng.randint(1, 30))
        for n in (0, 7, 100, 3000):
            p = derive_parameters(inst, n)
            costs = [f.opening_cost for f in inst.facilities]
            bound = (math.log(max(inst.diameter, 1), 5)
                     + math.log(max(max(costs) / min(costs), 1), 5)
                     + math.log(max(len(inst.facilities), n, 1), 5) + 4)
            assert p.delta <= bound


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e-300, 1e308), min_size=1, max_size=5),
       st.floats(0, 1e308), st.integers(0, 5 ** 40))
def test_scale_range_is_never_empty(costs, diameter, n):
    inst = Instance("euclidean-L2", points=[[0], [diameter]],
                    facilities=[(0, c) for c in costs])
    p = derive_parameters(inst, n)
    assert p.rho_min <= p.rho_max and p.delta >= 1


def test_matrix_rejects_asymmetry():
    with pytest.raises(InstanceError, match=r"\(0, 1\)"):
        Instance("explicit-matrix", matrix=[[0, 1], [2, 0]], facilities=[(0, 1)])


def test_matrix_rejects_triangle_violation():
    with pytest.raises(InstanceError, match="triangle"):
        Instance("explicit-matrix",
                 matrix=[[0, 1, 3], [1, 0, 1], [3, 1, 0]], facilities=[(0, 1)])


def test_matrix_rejects_nonzero_diagonal():
    with pytest.raises(InstanceError, match="self-distance"):
        Instance("explicit-matrix", matrix=[[1, 1], [1, 0]], facilities=[(0, 1)])


def test_rejects_nonpositive_cost():
    with pytest.raises(InstanceError, match="positive opening cost"):
        Instance("euclidean-L2", points=[[0]], facilities=[(0, 0)])
    with pytest.raises(InstanceError, match="positive opening cost"):
        Instance("euclidean-L2", points=[[0]], facilities=[(0, -3)])


def test_rejects_bad_facility_point():
    with pytest.raises(InstanceError, match="unknown point"):
        Instance("euclidean-L2", points=[[0]], facilities=[(4, 1)])


@pytest.mark.parametrize("kwargs, message", [
    ({"points": [0, float("nan")]}, "bad point coordinates"),
    ({"points": [float("inf"), 0]}, "bad point coordinates"),
    ({"points": [[0], [True]]}, "bad point coordinates"),
    ({"points": [[0], ["1"]]}, "bad point coordinates"),
    ({"points": [0, 1], "facilities": [(0, True)]}, "positive opening cost"),
    ({"points": [0, 1], "facilities": [(1.0, 2)]}, "unknown point"),
    ({"points": [0, 1], "kappa": "two"}, "kappa must be a positive number"),
    ({"matrix": [[0, float("inf")], [float("inf"), 0]]}, r"infinite distance for pair \(0, 1\)"),
    ({"points": 5}, "points must be a list"),
    ({"matrix": [1, 2]}, "matrix row must be a list"),
    ({"matrix": 5}, "matrix must be a list"),
    ({"matrix": [[0, True], [True, 0]]}, r"non-numeric, NaN or infinite distance for pair \(0, 1\)"),
    ({"matrix": [[0, "1"], ["1", 0]]}, r"non-numeric, NaN or infinite distance for pair \(0, 1\)"),
])
def test_rejects_non_numeric_and_non_finite_values(kwargs, message):
    kind = "explicit-matrix" if "matrix" in kwargs else "euclidean-L2"
    kwargs.setdefault("facilities", [(0, 1)])
    with pytest.raises(InstanceError, match=message):
        Instance(kind, **kwargs)


def test_largest_power_of_five():
    assert [largest_power_of_five_at_most(c) for c in (0, 1, 4, 5, 24, 25, 26, 125)] \
        == [0, 1, 1, 5, 5, 25, 25, 125]


def test_matrix_reports_the_first_triangle_violation_of_the_scan():
    # Two violations: (0, 1) fails only via 2 or 3, (2, 3) already via 0.
    # Pivots are scanned first, so (2, 3) via 0 is reported.
    matrix = [[0, 3, 1, 1],
              [3, 0, 1, 1],
              [1, 1, 0, 3],
              [1, 1, 3, 0]]
    with pytest.raises(InstanceError, match=r"^triangle inequality fails for \(2, 3\) via 0$"):
        Instance("explicit-matrix", matrix=matrix, facilities=[(0, 1)])


def test_l2_diameter_beyond_squared_float_range():
    inst = Instance("euclidean-L2", points=[[0], [1e200]], facilities=[(0, 1), (1, 1)])
    assert inst.diameter == 1e200
    assert derive_parameters(inst, 0).rho_max == cround(1e200)
