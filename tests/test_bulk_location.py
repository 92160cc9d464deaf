"""The hierarchy's bulk point location against the scalar ``find_balls``
descent (``helpers.find_area``): every point's area chain must be the scalar
one, under every metric kind, at exact-threshold distances, at ties, at
duplicate points, at coordinates whose squares overflow or underflow, and
where numpy's L2 value and ``math.dist`` fall on opposite sides of a
threshold or of a tie (there ``Instance.distance`` decides).  Instances are
seeded by ``NETFLOC_SEED``."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from helpers import default_seed
from netfloc import Hierarchy, Instance, derive_parameters

SCALES = (0, 5, 125, 3125)


def assert_scalar_chains(instance, scales=SCALES):
    """Every point's chain equals the scalar descent's, at every scale, and
    holds Python ints."""
    for n in scales:
        h = helpers.build(instance, n)
        for p in range(instance.n_points):
            chain = h.area_chain(p)
            assert chain == helpers.scalar_chain(h, p), (n, p)
            assert all(type(idx) is int for idx in chain)


def random_points(rng, n, dims, integer):
    if integer:
        return [[rng.randint(0, 1000) for _ in range(dims)] for _ in range(n)]
    return [[rng.uniform(0, 1000) for _ in range(dims)] for _ in range(n)]


def random_costs(rng, n):
    return [(i, rng.randint(1, 500)) for i in range(n)]


@pytest.mark.parametrize("dims", [1, 2, 3, 8, 9])
@pytest.mark.parametrize("integer", [False, True], ids=["float", "int"])
def test_l2_chains_equal_the_scalar_descent(dims, integer):
    rng = random.Random(f"l2-{dims}-{integer}-{default_seed()}")
    inst = Instance("euclidean-L2", points=random_points(rng, 50, dims, integer),
                    facilities=random_costs(rng, 20))
    assert_scalar_chains(inst)


@pytest.mark.parametrize("integer", [False, True], ids=["float", "int"])
def test_linf_chains_equal_the_scalar_descent(integer):
    rng = random.Random(f"linf-{integer}-{default_seed()}")
    inst = Instance("euclidean-Linf", points=random_points(rng, 50, 3, integer),
                    facilities=random_costs(rng, 20))
    assert_scalar_chains(inst)


def test_matrix_chains_equal_the_scalar_descent():
    rng = random.Random(f"matrix-{default_seed()}")
    pts = random_points(rng, 50, 2, integer=False)
    matrix = [[math.dist(a, b) for b in pts] for a in pts]
    inst = Instance("explicit-matrix", matrix=matrix,
                    facilities=[(p, c) for p, (_, c) in zip(range(0, 50, 3),
                                                            random_costs(rng, 17))])
    assert_scalar_chains(inst)


def test_exact_threshold_distances_on_an_integer_grid():
    # (21, 28) is 35 = C2 * 5**0 from the origin, (105, 140) is C2 * 5**1
    # and (525, 700) is C2 * 5**2; their neighbours sit one unit outside.
    # A point exactly at the threshold is inside the ball.
    pts = [[0, 0], [21, 28], [22, 28], [105, 140], [105, 141], [525, 700],
           [525, 701], [35, 0], [0, -35], [36, 0]]
    inst = Instance("euclidean-L2", points=pts, facilities=[(0, 1)])
    assert_scalar_chains(inst)
    h = helpers.build(inst)
    assert h.params.rho_min == 0
    bottom = {p: h.nodes[h.area_chain(p)[0]].r for p in range(len(pts))}
    assert [bottom[p] for p in (1, 2, 3, 4, 5, 6, 7, 9)] == [0, 1, 1, 2, 2, 3, 0, 1]


def test_equidistant_closest_nodes_tie_break_to_the_lower_facility_id():
    # Facility 0 sits right of facility 1, every client point is on their
    # bisector: both are level-0 nodes at equal distance, and facility 0
    # wins.
    rng = random.Random(f"tie-{default_seed()}")
    pts = [[15.0, 0.0], [-15.0, 0.0]] + [[0.0, rng.uniform(-30, 30)] for _ in range(20)]
    pts += [[0.0, 0.0], [0.0, 25.0]]
    inst = Instance("euclidean-L2", points=pts, facilities=[(0, 1), (1, 1)])
    assert_scalar_chains(inst)
    h = helpers.build(inst)
    assert {h.nodes[i].facility for i in h.by_level[0]} == {0, 1}
    for p in range(2, len(pts)):
        node = h.nodes[h.area_chain(p)[0]]
        assert (node.r, node.facility) == (0, 0)


@pytest.mark.parametrize("kind", ["euclidean-L2", "euclidean-Linf"])
def test_duplicate_points(kind):
    rng = random.Random(f"dup-{kind}-{default_seed()}")
    base = random_points(rng, 12, 2, integer=False)
    pts = base + [list(p) for p in rng.choices(base, k=30)]
    rng.shuffle(pts)
    inst = Instance(kind, points=pts, facilities=random_costs(rng, 12) + [(3, 7), (3, 7)])
    assert_scalar_chains(inst)


@pytest.mark.parametrize("scale", [1e300, 1e-300])
@pytest.mark.parametrize("kind", ["euclidean-L2", "euclidean-Linf"])
def test_huge_and_tiny_coordinates(kind, scale):
    # At 1e300 the squared differences overflow, at 1e-300 they underflow;
    # costs of the same size keep the level count small.
    rng = random.Random(f"extreme-{kind}-{scale}-{default_seed()}")
    pts = [[scale * rng.uniform(0, 50), scale * rng.uniform(0, 50)] for _ in range(30)]
    pts += [list(pts[0]), list(pts[1])]
    costs = [(i, scale * rng.uniform(1, 5)) for i in range(10)]
    inst = Instance(kind, points=pts, facilities=costs)
    assert_scalar_chains(inst, scales=(0, 125))


def _l2_approx(p, q) -> float:
    """numpy's L2 value for a 2-D pair as ``Instance.pair_distances``
    computes it: squared differences summed in dimension order, then sqrt
    (the same IEEE operations on Python floats)."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    return math.sqrt(dx * dx + dy * dy)


def test_threshold_where_numpy_and_math_dist_disagree():
    # A seeded search for a point near the circle of radius 35 = C2 * 5**0
    # around the facility whose math.dist and numpy value fall on opposite
    # sides of 35: the point's bottom level is 0 exactly when the scalar
    # metric's value is at most 35.
    rng = random.Random(f"threshold-{default_seed()}")
    for _ in range(20000):
        angle = rng.uniform(0, math.pi / 2)
        p = (35 * math.cos(angle), 35 * math.sin(angle))
        exact, approx = math.dist(p, (0.0, 0.0)), _l2_approx(p, (0.0, 0.0))
        if (exact <= 35) != (approx <= 35):
            break
    else:
        pytest.fail("no point found where numpy and math.dist straddle 35")
    inst = Instance("euclidean-L2", points=[[0.0, 0.0], list(p)], facilities=[(0, 1)])
    assert_scalar_chains(inst, scales=(0,))
    h = helpers.build(inst)
    assert h.params.rho_min == 0
    assert h.nodes[h.area_chain(1)[0]].r == (0 if inst.distance(1, 0) <= 35 else 1)


def test_closest_node_where_numpy_and_math_dist_order_differently():
    # Facilities at (0, 0) and (30, 0) are both level-0 nodes; a seeded
    # search near their bisector finds a point that numpy's values and
    # math.dist's order differently by (distance, facility id); the scalar
    # metric's order decides.
    rng = random.Random(f"near-tie-{default_seed()}")
    a, b = (0.0, 0.0), (30.0, 0.0)
    for _ in range(20000):
        p = (15 + rng.uniform(-1e-13, 1e-13), rng.uniform(0, 10))
        exact = (math.dist(p, a), 0) < (math.dist(p, b), 1)
        if exact != ((_l2_approx(p, a), 0) < (_l2_approx(p, b), 1)):
            break
    else:
        pytest.fail("no point found where numpy and math.dist order differently")
    inst = Instance("euclidean-L2", points=[list(a), list(b), list(p)],
                    facilities=[(0, 1), (1, 1)])
    assert_scalar_chains(inst, scales=(0,))
    h = helpers.build(inst)
    node = h.nodes[h.area_chain(2)[0]]
    closer_a = (inst.distance(2, 0), 0) < (inst.distance(2, 1), 1)
    assert (node.r, node.facility) == (0, 0 if closer_a else 1)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["explicit-matrix", "euclidean-L2", "euclidean-Linf"]),
       st.sampled_from([1e-300, 1e-150, 2.0 ** -480, 1.0, 1e150, 1e300]),
       st.integers(1, 9).flatmap(lambda dims: st.lists(
           st.lists(st.floats(-1, 1), min_size=dims, max_size=dims),
           min_size=2, max_size=8)),
       st.lists(st.integers(0, 7), max_size=3))
def test_pair_distances_equal_the_scalar_distance(kind, scale, points, copies):
    # At 1e300 the squared differences overflow, at 1e-300 they underflow,
    # near 2**-480 their sums straddle the least sum taken as its sqrt, and
    # copies of earlier points make duplicate pairs.  The matrix kind is the
    # discrete metric on the points.  Every point is a facility, so the
    # facility table is the whole n x n table of distances.
    pts = [[scale * x for x in p] for p in points]
    pts += [list(pts[i % len(pts)]) for i in copies]
    if kind == "explicit-matrix":
        metric = {"matrix": [[0.0 if a == b else scale for b in pts] for a in pts]}
    else:
        metric = {"points": pts}
    n = len(pts)
    inst = Instance(kind, facilities=[(p, 1) for p in range(n)], **metric)
    idx = np.arange(n)
    ps, qs = np.repeat(idx, n), np.tile(idx, n)
    scalar = np.array([inst.distance(p, q) for p, q in zip(ps.tolist(), qs.tolist())])
    assert inst.pair_distances(ps, qs).tobytes() == scalar.tobytes()
    # Index arrays that broadcast give the same values in the broadcast
    # shape: a column of every row, or of every other row, against a row.
    table = scalar.reshape(n, n)
    for rows in (idx, idx[::2]):
        block = inst.pair_distances(rows[:, None], idx)
        assert block.shape == (len(rows), n)
        assert block.tobytes() == table[rows].tobytes()
    assert inst.facility_distances.tobytes() == table.tobytes()


def test_a_churn_sized_l2_instance_needs_few_scalar_distances():
    # The benchmark's churn-l2 instance (400 facilities, 2,400 integer grid
    # points) at the 3,125 scale: the scalar descent makes ~2 * 10**5
    # distance calls to locate every point, an exact facility table 160,000,
    # and the bulk build none: no sum of squares overflows, and the ones
    # below _L2_TINY are those of equal coordinates.
    instance_text = helpers.benchmark_inputs("churn-l2", 1).instance_text
    inst = Instance.from_dict(json.loads(instance_text))
    params = derive_parameters(inst, 3125)
    calls = 0
    original = inst.distance

    def counting(p, q):
        nonlocal calls
        calls += 1
        return original(p, q)

    inst.distance = counting
    try:
        h = Hierarchy(inst, params)
    finally:
        del inst.distance
    assert calls == 0
    for p in range(inst.n_points):
        assert h.area_chain(p) == helpers.scalar_chain(h, p)
