import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from helpers import random_instance
from netfloc import (C1, C2, C3, C4, CX, CY, Instance, build_separated_sets,
                     build_tree, derive_parameters, radius)
from netfloc.hierarchy import abundance_threshold, threshold

# The factors c of the thresholds c * 5**r the build tests table entries
# against: separation, near and far lists, and coloring.
TABLE_FACTORS = (C1, CX, CY, C4)


def test_constant_relations():
    assert (C1, C2) == (20, 35)
    assert CX == 2 * C2 + 2 == 72
    assert C3 == CX + C2 == 107
    assert CY == 2 * C3 + C2 == 249
    assert C4 == CY + C2 == 284


def test_separated_sets_single_facility():
    inst = Instance("euclidean-L2", points=[[0], [600]], facilities=[(0, 10)])
    params = derive_parameters(inst, 0)
    sets = build_separated_sets(inst, params)
    assert all(members == [0] for members in sets.values())


def test_separated_sets_line5(line5):
    sets = build_separated_sets(line5, derive_parameters(line5, 0))
    assert sets == {1: [0], 2: [0], 3: [0]}


def test_separated_sets_two_members_at_unit_scale():
    inst = Instance("euclidean-L2", points=[[0], [150]],
                    facilities=[(0, 10), (1, 10)])
    sets = build_separated_sets(inst, derive_parameters(inst, 0))
    assert sets[1] == [0, 1]          # 150 > 20 * 5
    assert sets[2] == [0]             # 150 <= 20 * 25


def test_covering_and_separating_random():
    rng = random.Random(5)
    for _ in range(6):
        inst = random_instance(rng, n_facilities=rng.randint(2, 30),
                               n_pool_points=5)
        h = helpers.build(inst)
        for r, members in helpers.level_sets(h).items():
            thr = radius(C1, r)
            pts = [inst.facilities[m].point for m in members]
            for a in range(len(pts)):
                for b in range(a + 1, len(pts)):
                    assert inst.distance(pts[a], pts[b]) > thr
            for fac in inst.facilities:
                assert min(inst.distance(fac.point, q) for q in pts) <= thr


def test_tree_line5_chain(line5):
    h = helpers.build(line5)
    n1 = helpers.node_id(h, 0, 1)
    n2 = helpers.node_id(h, 0, 2)
    n3 = helpers.node_id(h, 0, 3)
    assert h.nodes[n1].parent == n2 and h.nodes[n2].parent == n3
    assert h.nodes[n3].parent is None and h.root == n3


def test_tree_single_facility_path_length():
    inst = Instance("euclidean-L2", points=[[0], [600]], facilities=[(0, 10)])
    params = derive_parameters(inst, 0)
    h = helpers.build(inst)
    assert len(h.nodes) == params.delta


def test_tree_parent_tie_breaks_to_lower_id():
    inst = Instance("euclidean-L2", points=[[-300], [300], [0]],
                    facilities=[(0, 10), (1, 10), (2, 10)])
    params = derive_parameters(inst, 0)
    sets = build_separated_sets(inst, params)
    assert 2 in sets[1] and sets[2] == [0, 1]
    # Facility 2 is equidistant from the level-2 facilities 0 and 1; its
    # parent position in sets[2] names facility 0.
    parents = build_tree(inst, params, sets)
    assert sets[2][parents[1][sets[1].index(2)]] == 0


def test_find_balls_contains_root_at_own_point(line5):
    h = helpers.build(line5)
    for cstar in (C2, CX, C4):
        assert h.root in h.find_balls(line5.facilities[0].point, cstar)


def test_find_balls_line5_p3(line5):
    h = helpers.build(line5)
    assert sorted(h.find_balls(3, C2)) == list(range(len(h.nodes)))


def test_find_balls_matches_bruteforce_random():
    rng = random.Random(17)
    for _ in range(8):
        inst = random_instance(rng, n_facilities=rng.randint(2, 25),
                               n_pool_points=20)
        h = helpers.build(inst)
        for _ in range(10):
            p = rng.randrange(inst.n_points)
            for cstar in (C2, CX, C4):
                assert sorted(h.find_balls(p, cstar)) == \
                    helpers.brute_balls(inst, h, p, cstar)


def test_find_balls_prunes_far_subtrees():
    inst = Instance("euclidean-L2", points=[[0], [15000]], facilities=[(0, 10)])
    h = helpers.build(inst)
    assert h.params.delta == 5
    calls = 0
    original = inst.distance

    def counting(p, q):
        nonlocal calls
        calls += 1
        return original(p, q)

    inst.distance = counting
    try:
        found = h.find_balls(1, C2)
    finally:
        del inst.distance
    assert sorted(found) == helpers.brute_balls(inst, h, 1, C2)
    assert len(found) == 3
    # One distance test per visited level; the two bottom levels are never
    # reached once their ancestor fails the scaled-ball test.
    assert calls == 4 < h.params.delta + 1


def test_find_balls_rejects_small_factor(line5):
    h = helpers.build(line5)
    with pytest.raises(ValueError):
        h.find_balls(0, 10)


def test_find_area_line5(line5):
    h = helpers.build(line5)
    assert helpers.find_area(h, 3) == helpers.node_id(h, 0, 1)


def test_find_area_own_facility_point(line5):
    h = helpers.build(line5)
    idx = helpers.find_area(h, line5.facilities[0].point)
    node = h.nodes[idx]
    assert node.facility == 0 and node.r == h.params.rho_min
    assert line5.distance(0, line5.facilities[node.facility].point) == 0


def test_find_area_tie_breaks_to_lower_id():
    inst = Instance("euclidean-L2", points=[[-60], [60], [0]],
                    facilities=[(0, 10), (1, 10)])
    h = helpers.build(inst)
    assert {h.nodes[i].facility for i in h.by_level[1]} == {0, 1}
    assert h.nodes[helpers.find_area(h, 2)].facility == 0


def test_find_area_is_the_closest_node_of_the_lowest_ball_level():
    rng = random.Random(37)
    for _ in range(4):
        inst = random_instance(rng, n_facilities=rng.randint(1, 20),
                               n_pool_points=20)
        for n in (0, 125):
            h = helpers.build(inst, n)
            fp = [f.point for f in inst.facilities]
            for p in range(inst.n_points):
                expected = min(helpers.brute_balls(inst, h, p, C2),
                               key=lambda i: (h.nodes[i].r,
                                              inst.distance(p, fp[h.nodes[i].facility]),
                                              h.nodes[i].facility))
                assert helpers.find_area(h, p) == expected


def test_order_is_node_key_order(line5):
    rng = random.Random(41)
    instances = [line5] + [random_instance(rng, n_facilities=rng.randint(1, 30),
                                           n_pool_points=5) for _ in range(6)]
    for inst in instances:
        for n in (0, 25):
            h = helpers.build(inst, n)
            assert h.order == sorted(range(len(h.nodes)), key=lambda i: h.nodes[i].key())


def test_area_chain_line5(line5):
    h = helpers.build(line5)
    assert h.area_chain(3) == tuple(helpers.node_id(h, 0, r) for r in (1, 2, 3))


def test_area_chain_length_property():
    rng = random.Random(23)
    inst = random_instance(rng, n_facilities=6, n_pool_points=25)
    h = helpers.build(inst)
    for p in range(inst.n_points):
        chain = h.area_chain(p)
        assert len(chain) == h.params.rho_max - h.nodes[chain[0]].r + 1
        assert chain[-1] == h.root


def test_area_chain_memo_matches_recomputation():
    rng = random.Random(29)
    inst = random_instance(rng, n_facilities=8, n_pool_points=30)
    h = helpers.build(inst)
    for p in range(inst.n_points):
        chain = h.area_chain(p)
        assert chain == helpers.scalar_chain(h, p)
        assert h.area_chain(p) is chain


def test_coloring_line5_all_zero(line5):
    h = helpers.build(line5)
    assert all(node.color == 0 for node in h.nodes)


def test_coloring_two_close_pairs():
    inst = Instance("euclidean-L2", points=[[0], [150]],
                    facilities=[(0, 10), (1, 10)])
    h = helpers.build(inst)
    colors = sorted(h.nodes[i].color for i in h.by_level[1])
    assert colors == [0, 1]           # 150 <= 284 * 5


def test_coloring_conflict_freedom_random():
    rng = random.Random(31)
    for _ in range(6):
        inst = random_instance(rng, n_facilities=rng.randint(2, 30),
                               n_pool_points=5)
        h = helpers.build(inst)
        for r, ids in h.by_level.items():
            thr = radius(C4, r)
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    na, nb = h.nodes[ids[a]], h.nodes[ids[b]]
                    if inst.distance(inst.facilities[na.facility].point,
                                     inst.facilities[nb.facility].point) <= thr:
                        assert na.color != nb.color


def test_xy_and_designation_line5(line5):
    h = helpers.build(line5)
    n1 = h.nodes[helpers.node_id(h, 0, 1)]
    assert n1.x_areas == [n1.idx]
    assert n1.designated_facility == 0
    assert line5.facilities[n1.designated_facility].opening_cost == 10


def test_designation_prefers_cheaper_facility(line5_cheap_f1):
    h = helpers.build(line5_cheap_f1)
    n1 = h.nodes[helpers.node_id(h, 0, 1)]
    assert n1.designated_facility == 1
    assert line5_cheap_f1.facilities[n1.designated_facility].opening_cost == 9


def test_self_in_x_and_x_subset_y(line5):
    rng = random.Random(41)
    inst = random_instance(rng, n_facilities=12, n_pool_points=20)
    for h in (helpers.build(inst), helpers.build(line5)):
        for node in h.nodes:
            assert node.idx in node.x_areas
            assert set(node.x_areas) <= set(node.y_areas)


def test_neighbors_above_line5(line5):
    h = helpers.build(line5)
    n1 = helpers.node_id(h, 0, 1)
    assert sorted(h.nodes[n1].neighbors_above) == \
        sorted([helpers.node_id(h, 0, 2), helpers.node_id(h, 0, 3)])
    assert h.nodes[h.root].neighbors_above == []


def test_neighbors_above_matches_bruteforce():
    rng = random.Random(43)
    for _ in range(4):
        inst = random_instance(rng, n_facilities=rng.randint(2, 18),
                               n_pool_points=10)
        h = helpers.build(inst)
        for v in h.nodes:
            expected = []
            for u in h.nodes:
                if (u.r, u.color) <= (v.r, v.color):
                    continue
                entry = h.facility_chain_at(v.facility, u.r)
                if entry is not None and entry in u.y_areas:
                    expected.append(u.idx)
            assert sorted(v.neighbors_above) == sorted(expected)


def test_declared_kappa_bounds(line5):
    # The line instance declares kappa=2; the combinatorial bounds that the
    # declared dimension implies must hold with room to spare.
    h = helpers.build(line5)
    kappa = line5.kappa
    for node in h.nodes:
        assert len(node.children) <= 2 ** (4 * kappa)
        assert len(node.x_areas) <= 2 ** (3 * kappa)
        assert len(node.y_areas) <= 2 ** (5 * kappa)
    for r, ids in h.by_level.items():
        assert len({h.nodes[i].color for i in ids}) <= 2 ** (5 * kappa) + 1
    for p in range(line5.n_points):
        assert len(h.find_balls(p, C4)) <= 2 ** (7 * kappa) * h.params.delta


def test_structural_suite_on_small_instances(line5, line5_cheap_f1):
    rng = random.Random(47)
    instances = [line5, line5_cheap_f1]
    instances += [random_instance(rng, n_facilities=rng.randint(2, 15),
                                  n_pool_points=12) for _ in range(3)]
    for inst in instances:
        h = helpers.build(inst)
        assert helpers.structural_problems(inst, h) == []


def test_dump_format(line5):
    h = helpers.build(line5)
    lines = h.dump().splitlines()
    assert lines[0] == "r=3 s=0 j=0 parent=- f*=10 j*=0"
    assert lines[1] == "  r=2 s=0 j=0 parent=0 f*=10 j*=0"
    assert lines[2] == "    r=1 s=0 j=0 parent=0 f*=10 j*=0"
    assert len(lines) == len(h.nodes)


def _near_threshold_points(base, pairs):
    """``base``, then per (c, r, angle, ulps) a point at the distance
    threshold(c, r) moved by ``ulps`` units in the last place, in direction
    ``angle`` from ``base``."""
    points = [list(base)]
    for c, r, angle, ulps in pairs:
        t = threshold(c, r)
        for _ in range(abs(ulps)):
            t = math.nextafter(t, math.copysign(math.inf, ulps))
        points.append([base[0] + t * math.cos(angle), base[1] + t * math.sin(angle)])
    return points


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["euclidean-L2", "euclidean-Linf"]),
       st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
       st.lists(st.tuples(st.sampled_from(TABLE_FACTORS), st.integers(-6, 6),
                          st.floats(0, 2 * math.pi), st.integers(-3, 3)),
                min_size=1, max_size=6),
       st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)), max_size=4))
# Points where numpy's L2 value and math.dist's straddle the threshold,
# found by a seeded search.
@example("euclidean-L2", (0.0, 0.0),
         [(C4, -4, 0.979, 0), (C1, 6, 1.313, 0), (CY, 0, 1.931, 1)], [])
def test_facility_table_decides_every_threshold_as_the_scalar_distance(
        kind, base, near, free):
    # Points within a few ulps of c * 5**r from a base point, where numpy's
    # L2 value and math.dist's may fall on either side, and free points.
    # Every entry is the scalar distance, so every threshold test is too.
    points = _near_threshold_points(base, near) + [list(p) for p in free]
    inst = Instance(kind, points=points, facilities=[(p, 1) for p in range(len(points))])
    table = inst.facility_distances
    for a in range(len(points)):
        for b in range(len(points)):
            assert table[a, b] == inst.distance(a, b), (a, b)


@settings(max_examples=300, deadline=None)
@given(st.floats(5e-324, 1e308), st.integers(-900, 500))
def test_abundance_threshold_is_the_exact_ceiling(cost, r):
    assert abundance_threshold(cost, r) == math.ceil(Fraction(cost) / Fraction(5) ** r)


def test_threshold_rounds_down_to_a_float():
    exact = C1 * 5 ** 24
    assert float(exact) > exact                   # round-to-nearest goes up here
    assert threshold(C1, 24) == math.nextafter(float(exact), 0)
    assert threshold(C1, 3) == 2500.0
    assert threshold(C1, -2) == radius(C1, -2)
    assert threshold(C4, 500) == math.inf


def test_separation_at_a_threshold_float_rounds_above():
    # float(20 * 5**24) is above 20 * 5**24, so the two facilities are
    # strictly farther apart than the level-24 radius and both stay.
    inst = Instance("euclidean-L2", points=[[0], [float(C1 * 5 ** 24)]],
                    facilities=[(0, 1), (1, 1)])
    h = helpers.build(inst)
    sets = helpers.level_sets(h)
    assert sets[24] == [0, 1]
    assert sets[25] == [0]
