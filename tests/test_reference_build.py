"""The bulk hierarchy build against ``helpers.ReferenceHierarchy``, the build
over the exact scalar distance table with its lists made node by node: every
node slot, derived list, level set and point chain must be identical, types
included, and the debug dump must equal the reference's.  On the benchmark's
instances, on seeded random instances of every metric kind
(seeded by ``NETFLOC_SEED``), and on two searched cases where numpy's L2
value and ``math.dist``'s fall on opposite sides of a threshold or order two
parents differently (there ``Instance.distance`` decides).  Within every
level of the seeded kinds and the extreme-cost draws, the nodes share one
``unit_weight`` object, and on churn-l2 every node slot holding a facility
id holds the hierarchy's one object for that id."""

import json
import math
import random
from collections import Counter

import pytest

import helpers
from helpers import ReferenceHierarchy, build_differences, default_seed
from netfloc import C1, Hierarchy, Instance, derive_parameters


def assert_reference_build(instance, scales):
    for n in scales:
        params = derive_parameters(instance, n)
        assert build_differences(Hierarchy(instance, params),
                                 ReferenceHierarchy(instance, params)) == [], n


@pytest.mark.parametrize("workload, scales", [
    ("churn-l2", (3125,)),
    ("flap-625", (125, 625)),
    ("verify-matrix", (5, 25, 125)),
])
def test_benchmark_instances(workload, scales):
    text = helpers.benchmark_inputs(workload, 1).instance_text
    assert_reference_build(Instance.from_dict(json.loads(text)), scales)


def _floats(rng, n, dims, hi=1000.0):
    return [[rng.uniform(0, hi) for _ in range(dims)] for _ in range(n)]


def _costs(rng, n):
    return [(i, rng.randint(1, 500)) for i in range(n)]


def _l2_floats(rng):
    dims = rng.choice([1, 2, 3, 5])
    return Instance("euclidean-L2", points=_floats(rng, 50, dims),
                    facilities=_costs(rng, 30))


def _l2_clustered(rng):
    # Tight clusters of float points: many distances differ in the last
    # bits only, and many parent choices are near-ties.
    centres = _floats(rng, 5, 2)
    pts = [[c + rng.gauss(0, rng.choice([1e-9, 1e-3, 1.0])) for c in rng.choice(centres)]
           for _ in range(50)]
    return Instance("euclidean-L2", points=pts, facilities=_costs(rng, 35))


def _l2_grid(rng):
    # Multiples of 5 on a 2-D integer grid: distances such as 5 * (21, 28)
    # land exactly on thresholds c * 5**r, and equal costs tie.
    pts = [[5 * rng.randint(0, 60), 5 * rng.randint(0, 60)] for _ in range(45)]
    pts += [[0, 0], [105, 140], [60, 0], [0, 360], [345, 460]]
    return Instance("euclidean-L2", points=pts,
                    facilities=[(i, 10 * rng.randint(1, 3)) for i in range(50)])


def _l2_line_boundaries(rng):
    # As the digest test's ``boundaries``: multiples of 25 on a line, two
    # facilities on one point.
    pts = [[25 * rng.randint(0, 400)] for _ in range(50)]
    facs = [(i, 10 * rng.randint(1, 3)) for i in range(30)] + [(0, 10)]
    return Instance("euclidean-L2", points=pts, facilities=facs)


def _shared_points(rng):
    kind = rng.choice(["euclidean-L2", "euclidean-Linf"])
    pts = _floats(rng, 15, 2)
    facs = [(rng.randrange(15), rng.randint(1, 50)) for _ in range(30)]
    return Instance(kind, points=pts, facilities=facs)


def _linf(rng):
    pts = ([[rng.randint(0, 1000) for _ in range(3)] for _ in range(50)]
           if rng.random() < 0.5 else _floats(rng, 50, 3))
    return Instance("euclidean-Linf", points=pts, facilities=_costs(rng, 30))


def _matrix(rng):
    pts = _floats(rng, 40, 2)
    matrix = [[math.dist(a, b) for b in pts] for a in pts]
    return Instance("explicit-matrix", matrix=matrix,
                    facilities=[(p, rng.randint(1, 500)) for p in range(0, 40, 2)])


def _extreme_coordinates(rng):
    # At 1e300 the squared differences overflow, at 1e-300 they underflow;
    # costs of the same size keep the level count small.
    scale = rng.choice([1e300, 1e-300])
    pts = [[scale * x for x in p] for p in _floats(rng, 30, 2, hi=50.0)]
    return Instance("euclidean-L2", points=pts,
                    facilities=[(i, scale * rng.uniform(1, 5)) for i in range(20)])


KINDS = {
    "l2-floats": _l2_floats,
    "l2-clustered": _l2_clustered,
    "l2-grid": _l2_grid,
    "l2-line-boundaries": _l2_line_boundaries,
    "shared-points": _shared_points,
    "linf": _linf,
    "matrix": _matrix,
    "extreme-coordinates": _extreme_coordinates,
}


@pytest.mark.parametrize("draw", range(6))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_random_instances(kind, draw):
    rng = random.Random(f"{kind}-{draw}-{default_seed()}")
    assert_reference_build(KINDS[kind](rng), scales=(0, 125))


@pytest.mark.parametrize("kind", ["l2-floats", "linf", "matrix"])
def test_dump_follows_the_reference_children(kind):
    # The reference's nodes keep their own children lists, so its inherited
    # dump walks those, while the build's walks the ones derived from
    # parent_ids.  The seeded draws branch, so the order of siblings shows.
    rng = random.Random(f"dump-{kind}-{default_seed()}")
    instance = KINDS[kind](rng)
    params = derive_parameters(instance, 125)
    reference = ReferenceHierarchy(instance, params)
    assert max(len(node.children) for node in reference.nodes) >= 2
    expected = reference.dump().splitlines()
    assert len(expected) == len(reference.nodes)
    lines = Hierarchy(instance, params).dump().splitlines()
    for k, (line, ref_line) in enumerate(zip(lines, expected)):
        assert line == ref_line, k
    assert len(lines) == len(expected)


def extreme_cost_instance(draw):
    # A cost of 1e-300 puts the bottom level near logradius -430 and one of
    # 1e308 the top near 441: ~870 levels, so the instance stays small.
    rng = random.Random(f"extreme-{draw}-{default_seed()}")
    costs = [rng.randint(1, 500) for _ in range(8)]
    costs[rng.randrange(8)] = 1e-300
    costs[rng.randrange(8)] = 1e308
    return Instance("euclidean-L2", points=_floats(rng, 12, 2),
                    facilities=list(enumerate(costs)))


@pytest.mark.parametrize("draw", range(3))
def test_extreme_costs(draw):
    assert_reference_build(extreme_cost_instance(draw), scales=(0,))


def assert_shared_unit_weights(instance, scales):
    """Within every level, each node's ``unit_weight`` is one int object,
    5**(r - rho_min), shared by the level's nodes."""
    for n in scales:
        h = Hierarchy(instance, derive_parameters(instance, n))
        for r, ids in h.by_level.items():
            shared = h.nodes[ids[0]].unit_weight
            assert type(shared) is int and shared == 5 ** (r - h.params.rho_min), (n, r)
            assert all(h.nodes[i].unit_weight is shared for i in ids), (n, r)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_unit_weight_is_one_object_per_level(kind):
    rng = random.Random(f"unit-weight-{kind}-{default_seed()}")
    assert_shared_unit_weights(KINDS[kind](rng), scales=(0, 125))


@pytest.mark.parametrize("draw", range(3))
def test_extreme_cost_unit_weight_is_one_object_per_level(draw):
    assert_shared_unit_weights(extreme_cost_instance(draw), scales=(0,))


def assert_shared_facility_ids(hierarchy) -> int:
    """Every node's ``facility`` and ``designated_facility`` is the one int
    object the hierarchy keeps for that id; the number of ids above 256,
    which CPython does not cache, held by more than one slot."""
    objs: dict[int, int] = {}
    slots = Counter()
    for node in hierarchy.nodes:
        for fid in (node.facility, node.designated_facility):
            assert type(fid) is int
            assert objs.setdefault(fid, fid) is fid, (node.idx, fid)
            slots[fid] += 1
    return sum(fid > 256 and count > 1 for fid, count in slots.items())


@pytest.mark.parametrize("n", [625, 3125])
def test_facility_ids_are_one_object_per_id(n):
    """On churn-l2's 400 facilities, whose ids above 256 CPython does not
    cache (at 3,125 facility 300 alone is 4 nodes' ``facility``)."""
    instance = Instance.from_dict(json.loads(helpers.benchmark_inputs("churn-l2", 1).instance_text))
    assert assert_shared_facility_ids(Hierarchy(instance, derive_parameters(instance, n))) > 0


def _l2_approx(p, q) -> float:
    """numpy's L2 value for a 2-D pair as the facility table computes it:
    squared differences summed in dimension order, then sqrt (the same IEEE
    operations on Python floats)."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    return math.sqrt(dx * dx + dy * dy)


def test_separation_where_numpy_and_math_dist_straddle_a_threshold():
    # A seeded search for a facility near the circle of radius 20 = C1 * 5**0
    # around another whose math.dist and numpy values fall on opposite
    # sides of 20: both stay separate at level 0 exactly when the scalar
    # metric's value is above 20.
    rng = random.Random(f"separation-{default_seed()}")
    origin = (0.0, 0.0)
    for _ in range(20000):
        angle = rng.uniform(0, math.pi / 2)
        p = (C1 * math.cos(angle), C1 * math.sin(angle))
        exact = math.dist(p, origin)
        if (exact <= C1) != (_l2_approx(p, origin) <= C1):
            break
    else:
        pytest.fail("no point found where numpy and math.dist straddle 20")
    inst = Instance("euclidean-L2", points=[list(origin), list(p)],
                    facilities=[(0, 1), (1, 1)])
    assert_reference_build(inst, scales=(0,))
    h = Hierarchy(inst, derive_parameters(inst, 0))
    assert h.params.rho_min == 0
    assert helpers.level_sets(h)[0] == ([0] if inst.distance(1, 0) <= C1 else [0, 1])


def test_parent_where_numpy_and_math_dist_order_differently():
    # Facilities 0 at (0, 0) and 1 at (600, 600) are the level-2 nodes, and
    # facility 2 near their bisector is a level-1 node whose parent is the
    # closer one by (distance, facility id); a seeded search finds a point
    # that numpy's values and math.dist's order differently; the scalar
    # metric's order decides.
    rng = random.Random(f"parent-{default_seed()}")
    a, b = (0.0, 0.0), (600.0, 600.0)
    for _ in range(20000):
        x = rng.uniform(150, 450)
        p = (x, 600 - x + rng.uniform(-1e-13, 1e-13))
        exact = (math.dist(p, a), 0) < (math.dist(p, b), 1)
        if exact != ((_l2_approx(p, a), 0) < (_l2_approx(p, b), 1)):
            break
    else:
        pytest.fail("no point found where numpy and math.dist order differently")
    inst = Instance("euclidean-L2", points=[list(a), list(b), list(p)],
                    facilities=[(0, 1), (1, 1), (2, 1)])
    assert_reference_build(inst, scales=(0,))
    h = Hierarchy(inst, derive_parameters(inst, 0))
    sets = helpers.level_sets(h)
    assert sets[1] == [0, 1, 2] and sets[2] == [0, 1]
    closer_a = (inst.distance(2, 0), 0) < (inst.distance(2, 1), 1)
    assert h.nodes[h.nodes[helpers.node_id(h, 2, 1)].parent].facility == (0 if closer_a else 1)
