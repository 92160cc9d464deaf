import gc
import json
import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_instance, reference_cround, reference_is_finite_number, \
    reference_matrix
from netfloc import (Instance, InstanceError, cround,
                     derive_parameters, largest_power_of_five_at_most)
from netfloc import instance as instance_mod
from netfloc.instance import _TRIANGLE_SLACK, _finite_floats


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
    # A string or an object is no list: its characters or keys are no row.
    ({"matrix": ["01", "10"]}, r"^matrix row must be a list, got '01'$"),
    ({"matrix": [[0, 1], {"0": 1, "1": 0}]}, r"^matrix row must be a list, got \{'0': 1, '1': 0\}$"),
    ({"matrix": "0110"}, r"^matrix must be a list, got '0110'$"),
    ({"matrix": {"0": [0]}}, r"^matrix must be a list, got \{'0': \[0\]\}$"),
    ({"points": "01"}, r"^points must be a list, got '01'$"),
    ({"points": {"0": [0], "1": [1]}}, r"^points must be a list, got \{'0': \[0\], '1': \[1\]\}$"),
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


def assert_matrix_validation_equals_reference(matrix):
    """``Instance`` fails on ``matrix`` with the reference scan's message,
    or both accept it and the instance's array and distances are each
    entry's ``float`` bit for bit."""
    try:
        expected = reference_matrix(matrix)
    except InstanceError as exc:
        with pytest.raises(InstanceError) as got:
            Instance("explicit-matrix", matrix=matrix, facilities=[(0, 1)])
        assert str(got.value) == str(exc)
        return
    inst = Instance("explicit-matrix", matrix=matrix, facilities=[(0, 1)])
    n = len(expected)
    assert inst.array.tobytes() == np.array(expected, dtype=float).tobytes()
    hexes = [[float.hex(x) for x in row] for row in expected]
    assert [[float.hex(inst.distance(p, q)) for q in range(n)] for p in range(n)] == hexes
    assert {type(inst.distance(p, q)) for p in range(n) for q in range(n)} == {float}


def _slack_case(outside: bool):
    """(0, 2) against 1 + 1 via 1: at the slack's limit, or one float past it."""
    limit = 2.0 + _TRIANGLE_SLACK * 2.0
    d = math.nextafter(limit, math.inf) if outside else limit
    return [[0, 1, d], [1, 0, 1], [d, 1, 0]]


def _line_case(changes, n=6):
    """``n`` points on a line at 0..n-1, with the symmetric entries in
    ``changes`` ({(p, q): distance}) replaced."""
    matrix = [[abs(p - q) for q in range(n)] for p in range(n)]
    for (p, q), d in changes.items():
        matrix[p][q] = matrix[q][p] = d
    return matrix


HUGE = 10 ** 400
NAN, INF = float("nan"), float("inf")

MATRIX_CORPUS = {
    "bool": [[0, True], [True, 0]],
    "str": [[0, "1"], ["1", 0]],
    "none": [[0, None], [None, 0]],
    "nested-list": [[0, [1]], [[1], 0]],
    "nan": [[0, NAN], [NAN, 0]],
    "inf": [[0, INF], [INF, 0]],
    "minus-inf": [[0, -INF], [-INF, 0]],
    "huge-int": [[0, HUGE], [HUGE, 0]],
    "minus-huge-int": [[0, 1], [-HUGE, 0]],
    "bad-entry-in-a-later-row": [[0, 1, 2], [1, 0, 1], [2, NAN, "x"]],
    "bad-entry-before-ragged-row": [[0, 1], [1], [0, 1, None]],
    "string-row": [[0, 1], "10"],
    "dict-row": [[0, 1], {"0": 1, "1": 0}],
    "negative": [[0, -1], [-1, 0]],
    "negative-below-diagonal": [[0, 1], [-1, 0]],
    "asymmetric": [[0, 5], [4, 0]],
    "asymmetric-negative": [[0, -1], [2, 0]],
    "negative-before-asymmetric": [[0, -1, 2], [-1, 0, 1], [3, 1, 0]],
    "nonzero-diagonal": [[1, 1], [1, 0]],
    "negative-diagonal": [[0, 1], [1, -1]],
    "diagonal-before-asymmetric": [[0, 1, 2], [1, 7, 1], [2, 3, 0]],
    "asymmetric-before-diagonal": [[0, 1, 2], [1, 7, 1], [3, 1, 0]],
    "ragged": [[0, 1], [1]],
    "rows-longer-than-count": [[0, 1, 2], [1, 0, 1]],
    "inside-slack": _slack_case(False),
    "outside-slack": _slack_case(True),
    "two-pivots": [[0, 3, 1, 1], [3, 0, 1, 1], [1, 1, 0, 3], [1, 1, 3, 0]],
    "several-pivots": _line_case({(0, 5): 7, (3, 4): 0.5}),
    "pivot-before-row": _line_case({(3, 4): 0.5, (4, 5): 10}),
    "only-the-last-pivot": [[0 if p == q else 1 if {p, q} in ({0, 5}, {1, 5}) else 3
                             for q in range(6)] for p in range(6)],
    "infinite-sums": [[0, 1e308, 1e308], [1e308, 0, 1.7e308], [1e308, 1.7e308, 0]],
    "signed-zeros": [[0, -0.0, 1], [0.0, -0.0, 1], [1, 1, 0.0]],
    "int-rounding": [[0, 2 ** 53 + 1], [2 ** 53 + 1, 0]],
    "numpy-and-fraction": [[np.float64(0), Fraction(1, 3)], [np.int64(0) + Fraction(1, 3), 0]],
    "line": _line_case({}),
    # 200 points: the min-plus pass's second row block starts at row 163.
    "later-row-block": _line_case({(180, 199): 30}, n=200),
}


@pytest.mark.parametrize("matrix", MATRIX_CORPUS.values(), ids=MATRIX_CORPUS.keys())
def test_matrix_validation_equals_the_reference_scan(matrix):
    assert_matrix_validation_equals_reference(matrix)


def test_matrix_corpus_fails_where_expected():
    # The corpus exercises each message, and the slack's edge on both sides.
    outcomes = {}
    for name, matrix in MATRIX_CORPUS.items():
        try:
            reference_matrix(matrix)
            outcomes[name] = "accepted"
        except InstanceError as exc:
            outcomes[name] = str(exc)
    assert outcomes["inside-slack"] == "accepted"
    assert outcomes["outside-slack"] == "triangle inequality fails for (0, 2) via 1"
    assert outcomes["several-pivots"] == "triangle inequality fails for (0, 5) via 1"
    assert outcomes["pivot-before-row"] == "triangle inequality fails for (4, 5) via 0"
    assert outcomes["only-the-last-pivot"] == "triangle inequality fails for (0, 1) via 5"
    assert 180 >= instance_mod._BLOCK_ELEMENTS // 200
    assert outcomes["later-row-block"] == "triangle inequality fails for (180, 199) via 175"
    assert outcomes["negative-before-asymmetric"] == "negative distance for pair (0, 1)"
    assert outcomes["diagonal-before-asymmetric"] == "nonzero self-distance at point 1"
    assert outcomes["asymmetric-before-diagonal"] == "asymmetric distances for pair (0, 2)"
    assert outcomes["bad-entry-in-a-later-row"].endswith("for pair (2, 1): nan")
    assert outcomes["huge-int"].startswith("non-numeric, NaN or infinite distance for pair (0, 1)")
    for name in ("infinite-sums", "signed-zeros", "int-rounding", "numpy-and-fraction", "line"):
        assert outcomes[name] == "accepted"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=2, max_size=7),
       st.data())
def test_perturbed_l2_matrix_validation_equals_the_reference_scan(points, data):
    matrix = [[math.dist(p, q) for q in points] for p in points]
    n = len(points)
    p, q = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    old = matrix[p][q]
    value = data.draw(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(0, 3).map(lambda f: old * f),
        st.floats(1 - 4e-12, 1 + 4e-12).map(lambda f: old * f),
        st.sampled_from([math.nextafter(old, math.inf), math.nextafter(old, -math.inf),
                         old + 1, old - 1, 0, -0.0, HUGE, True, "1"])))
    matrix[p][q] = value
    if data.draw(st.booleans()):
        matrix[q][p] = value
    assert_matrix_validation_equals_reference(matrix)


NUMERIC_VALUES = {
    "zero": 0, "negative-int": -3, "int": 7, "float": 1.5, "minus-zero": -0.0,
    "int-rounded": 2 ** 53 + 1, "int-1e308": 10 ** 308, "huge-int": HUGE,
    "minus-huge-int": -HUGE, "nan": NAN, "inf": INF, "minus-inf": -INF, "true": True,
    "false": False, "str": "1", "none": None, "list": [1], "dict": {"a": 1},
    "numpy-float": np.float64(2.5), "numpy-nan": np.float64("nan"), "numpy-int": np.int64(7),
    "numpy-bool": np.bool_(True), "fraction": Fraction(1, 3), "huge-fraction": Fraction(HUGE),
    "decimal": Decimal("1.5"), "complex": complex(1, 0),
}


@pytest.mark.parametrize("x", NUMERIC_VALUES.values(), ids=NUMERIC_VALUES.keys())
def test_numeric_fields_accept_exactly_the_finite_real_numbers(x):
    ok = reference_is_finite_number(x)
    for values in ((x,), (1, x, 2.5), [x, 0]):
        floats = _finite_floats(values)
        assert (floats is not None) == ok
        if ok:
            assert [float.hex(v) for v in floats] == [float.hex(float(v)) for v in values]
            assert {type(v) for v in floats} == {float}
    point = lambda: Instance("euclidean-L2", points=[[0, 0], [1, x]], facilities=[(0, 1)])
    cost = lambda: Instance("euclidean-L2", points=[[0]], facilities=[(0, x)])
    kappa = lambda: Instance("euclidean-L2", points=[[0]], facilities=[(0, 1)], kappa=x)
    cases = [(point, ok, "bad point coordinates"), (cost, ok and x > 0, "positive opening cost")]
    if x is not None:  # kappa=None declares no kappa
        cases.append((kappa, ok and x > 0, "kappa must be a positive number"))
    for build, accepted, message in cases:
        if accepted:
            build()
        else:
            with pytest.raises(InstanceError, match=message):
                build()


def test_l2_diameter_beyond_squared_float_range():
    inst = Instance("euclidean-L2", points=[[0], [1e200]], facilities=[(0, 1), (1, 1)])
    assert inst.diameter == 1e200
    assert derive_parameters(inst, 0).rho_max == cround(1e200)


@pytest.mark.parametrize("kind", ("euclidean-L2", "euclidean-Linf", "explicit-matrix"))
def test_instance_caches_fill_once(kind, monkeypatch):
    facilities = [(0, 1), (2, 1)]
    if kind == "explicit-matrix":
        inst = Instance(kind, matrix=[[0, 5, 10], [5, 0, 5], [10, 5, 0]], facilities=facilities)
    else:
        inst = Instance(kind, points=[[0, 0], [3, 4], [6, 8]], facilities=facilities)
    for name in ("array", "facility_distances"):
        table = getattr(inst, name)
        assert getattr(inst, name) is table
        assert not table.flags.writeable
    calls = []
    squared_sums = instance_mod._squared_sums
    monkeypatch.setattr(instance_mod, "_squared_sums",
                        lambda *args: calls.append(args) or squared_sums(*args))
    diameter = 8.0 if kind == "euclidean-Linf" else 10.0
    assert inst.diameter == diameter
    first = len(calls)
    # L2: the reach rows' bounds, two rows for the floor, one block of the
    # points whose bound reaches it.
    assert first == (4 if kind == "euclidean-L2" else 0)
    assert inst.diameter == diameter
    assert len(calls) == first
    if kind != "explicit-matrix":
        # A failed computation caches nothing, so every access raises.
        far = Instance(kind, points=[[-1e308], [1e308]], facilities=[(0, 1)])
        for _ in range(2):
            with pytest.raises(InstanceError, match="diameter overflows"):
                far.diameter
        with pytest.raises(InstanceError, match="diameter overflows"):
            derive_parameters(far, 0)


def test_a_loaded_matrix_is_kept_only_as_its_array():
    # A 200-point matrix loaded from JSON text: once the parsed data is
    # collected, the instance holds its metric as the array's 320 KB of
    # floats, not a second copy of Python floats beside it.
    rng = random.Random(5)
    points = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(200)]
    text = json.dumps({
        "metric": {"kind": "explicit-matrix",
                   "matrix": [[math.dist(p, q) for q in points] for p in points]},
        "facilities": [{"point": i, "cost": rng.randint(1, 500)} for i in range(40)],
    })
    gc.collect()
    tracemalloc.start()
    try:
        inst = Instance.from_dict(json.loads(text))
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.n_points == 200
    assert retained <= 1.5 * inst.array.nbytes
