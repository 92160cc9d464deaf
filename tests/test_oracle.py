import itertools
import math
import random
import warnings

import pytest

import helpers
from helpers import random_instance
from netfloc import (CX, Engine, HierarchyMismatch, Instance, OracleView,
                     brute_force_opt, compare_states, engine_snapshot, radius)
from netfloc.engine import Annotations, Assignment


def test_recompute_empty_clients(line5):
    h = helpers.build(line5)
    snap = OracleView(line5, h).recompute_state({})
    zero = [0] * len(h.nodes)
    assert snap.annotations == Annotations(
        zero, zero, zero, [-node.abundance_threshold for node in h.nodes],
        zero, zero, zero, zero)
    assert snap.open_facilities == frozenset() and snap.assignments == {}


def test_recompute_one_client(line5):
    h = helpers.build(line5)
    snap = OracleView(line5, h).recompute_state({"c1": 3})
    by_pair = {(h.nodes[i].facility, h.nodes[i].r): helpers.annotation_row(snap.annotations, i)
               for i in range(len(h.nodes))}
    assert [by_pair[(0, r)].is_open for r in (1, 2, 3)] == [False, True, False]
    assert [by_pair[(0, r)].is_enabled for r in (1, 2, 3)] == [False, True, True]
    root_units = helpers.annotation_row(snap.annotations, h.root).cost
    assert root_units * 5 ** h.params.rho_min == 25
    assert snap.open_facilities == frozenset({0})
    assert snap.assignments["c1"].r_area == 2


def test_recompute_without_an_enabled_area_raises(line5):
    # With no node abundant, nothing opens or is enabled, so a client's
    # chain holds no enabled area: the one at its bottom level is not one.
    h = helpers.build(line5)
    view = OracleView(line5, h)
    assert view.recompute_state({"c1": 3}).open_facilities == frozenset({0})
    view._threshold = [10 ** 9] * len(h.nodes)
    with pytest.raises(RuntimeError, match="^no enabled area on a client's chain$"):
        view.recompute_state({"c1": 3, "c2": 0})


def test_recompute_is_order_independent(line5):
    h = helpers.build(line5)
    view = OracleView(line5, h)
    clients = [("a", 3), ("b", 4), ("c", 3), ("d", 1)]
    snaps = [view.recompute_state(dict(perm))
             for perm in itertools.permutations(clients)]
    assert all(compare_states(snaps[0], s) == [] for s in snaps[1:])


def test_compare_states_identity(line5):
    eng = Engine(line5)
    eng.insert_client("c1", 3)
    snap = engine_snapshot(eng)
    assert compare_states(snap, engine_snapshot(eng)) == []


def test_compare_states_names_node_and_field(line5):
    eng = Engine(line5)
    eng.insert_client("c1", 3)
    left = engine_snapshot(eng)
    eng.annotations.slack[1] += 1
    right = engine_snapshot(eng)
    diffs = compare_states(left, right)
    assert len(diffs) == 1
    assert "slack" in diffs[0] and "node (j=0,r=2,s=0)" in diffs[0]


def test_compare_states_rejects_different_hierarchies(line5, line5_cheap_f1):
    a = engine_snapshot(Engine(line5))
    b = engine_snapshot(Engine(line5_cheap_f1))
    with pytest.raises(HierarchyMismatch):
        compare_states(a, b)


def test_compare_states_rejects_equal_but_separate_hierarchies(data_dir):
    # Two loads of one instance build hierarchies of equal contents, but a
    # snapshot names the hierarchy object it was taken over.
    a = engine_snapshot(Engine(Instance.load(data_dir / "line5.json")))
    b = engine_snapshot(Engine(Instance.load(data_dir / "line5.json")))
    assert a.hierarchy is not b.hierarchy
    with pytest.raises(HierarchyMismatch):
        compare_states(a, b)


def test_snapshots_name_their_hierarchy(line5):
    eng = Engine(line5, {"c1": 3, "c2": 4})
    assert engine_snapshot(eng).hierarchy is eng.hierarchy
    view = OracleView(line5, eng.hierarchy)
    assert view.recompute_state(eng.registry).hierarchy is view.hierarchy
    assert compare_states(engine_snapshot(eng), view.recompute_state(eng.registry)) == []


def test_compare_states_reports_open_set_and_assignments(line5):
    eng = Engine(line5)
    eng.insert_client("c1", 3)
    left = engine_snapshot(eng)
    right = engine_snapshot(eng)
    right = type(right)(right.hierarchy, right.annotations,
                        frozenset({1}), dict(right.assignments))
    diffs = compare_states(left, right)
    assert any("open facilities" in d for d in diffs)


def test_assignment_repr_and_diff_line_are_pinned(line5):
    assert repr(Assignment(1, 2, 3, 4)) == (
        "Assignment(r_area=1, area_triplet=2, aux_triplet=3, open_facility=4)")
    eng = Engine(line5, {"c1": 3})
    left = engine_snapshot(eng)
    right = type(left)(left.hierarchy, left.annotations, left.open_facilities,
                       {"c1": Assignment(1, 2, 3, 4)})
    assert compare_states(left, right) == [
        "assignment[c1]: left=Assignment(r_area=2, area_triplet=1, aux_triplet=1, "
        "open_facility=0) right=Assignment(r_area=1, area_triplet=2, "
        "aux_triplet=3, open_facility=4)"]


def test_brute_force_opt_line5(line5):
    one = brute_force_opt(line5, {"c1": 3})
    assert one.cost == 10.0 and one.open_set == frozenset({1})
    assert one.assignment == {"c1": 1}
    three = brute_force_opt(line5, {"c1": 3, "c2": 4, "c3": 3})
    assert three.cost == 11.0 and three.open_set == frozenset({1})


def test_brute_force_opt_when_every_subset_cost_overflows():
    # Points 1e308 apart are a valid instance; two clients there cost more
    # than the float range under every opening set.
    inst = Instance("euclidean-L2", points=[[0], [1e308]], facilities=[(0, 10)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = brute_force_opt(inst, {"a": 1, "b": 1})
    assert result.cost == math.inf and result.open_set == frozenset({0})


def test_brute_force_opt_empty(line5):
    res = brute_force_opt(line5, {})
    assert res.cost == 0.0 and res.open_set == frozenset() and res.assignment == {}


def test_brute_force_opt_refuses_large():
    pts = [[i * 1000] for i in range(21)]
    inst = Instance("euclidean-L2", points=pts,
                    facilities=[(i, 1) for i in range(21)])
    with pytest.raises(ValueError, match="capped at 20"):
        brute_force_opt(inst, {"c": 0})


def test_brute_force_opt_assignment_is_nearest_with_id_ties():
    rng = random.Random(71)
    for _ in range(5):
        inst = random_instance(rng, n_facilities=rng.randint(2, 8),
                               n_pool_points=10)
        clients = {f"c{i}": rng.randrange(inst.n_points) for i in range(9)}
        res = brute_force_opt(inst, clients)
        for cid, point in clients.items():
            dists = [(inst.distance(point, f.point), f.id)
                     for f in inst.facilities if f.id in res.open_set]
            assert min(dists) == (inst.distance(
                point, inst.facilities[res.assignment[cid]].point),
                res.assignment[cid])


def test_brute_force_opt_matches_plain_enumeration():
    rng = random.Random(73)
    for _ in range(4):
        inst = random_instance(rng, n_facilities=rng.randint(1, 6),
                               n_pool_points=8)
        clients = {f"c{i}": rng.randrange(inst.n_points) for i in range(7)}
        res = brute_force_opt(inst, clients)
        k = len(inst.facilities)
        best = None
        for mask in range(1, 1 << k):
            opened = [f for f in inst.facilities if mask >> f.id & 1]
            total = sum(f.opening_cost for f in opened)
            total += sum(min(inst.distance(p, f.point) for f in opened)
                         for p in clients.values())
            if best is None or total < best:
                best = total
        assert res.cost == pytest.approx(best, rel=1e-12)


def test_oracle_matches_engine_after_random_runs():
    rng = random.Random(79)
    inst = random_instance(rng, n_facilities=14, n_pool_points=25)
    eng = Engine(inst)
    view = OracleView(inst, eng.hierarchy)
    live = {}
    for step in range(60):
        if live and rng.random() < 1 / 3:
            cid = rng.choice(sorted(live))
            eng.delete_client(cid)
            live.pop(cid)
        else:
            cid = f"c{step}"
            p = rng.randrange(inst.n_points)
            eng.insert_client(cid, p)
            live[cid] = p
        if view.hierarchy is not eng.hierarchy:
            view = OracleView(inst, eng.hierarchy)
        assert compare_states(engine_snapshot(eng),
                              view.recompute_state(live)) == []


@pytest.mark.parametrize("kind", helpers.CROSSING_KINDS)
def test_recompute_assignments_equal_per_client_reference(kind):
    instance, trace = helpers.crossing_case(kind)
    eng = Engine(instance)
    view = OracleView(instance, eng.hierarchy)
    for event in trace:
        if event.kind == "insert":
            eng.insert_client(event.cid, event.point)
        else:
            eng.delete_client(event.cid)
        if view.hierarchy is not eng.hierarchy:
            view = OracleView(instance, eng.hierarchy)
        state = view.recompute_state(eng.registry)
        assert state.assignments == helpers.reference_oracle_assignments(
            view, state.annotations, eng.registry), event


@pytest.mark.parametrize("kind", ["L2", "Linf", "matrix"])
def test_point_in_x_equals_the_distance_test(kind):
    for seed in (1, 2):
        instance, _ = helpers.crossing_case(kind, seed)
        dist = instance.distance
        for n in (0, 5, 25, 125):
            hierarchy = helpers.build(instance, n)
            nodes = hierarchy.nodes
            fpoint = [instance.facilities[node.facility].point for node in nodes]
            view = OracleView(instance, hierarchy)
            point_chain = helpers.view_point_chain(view)
            for p in range(instance.n_points):
                chain = point_chain[p]
                for idx, node in enumerate(nodes):
                    off = node.r - nodes[chain[0]].r
                    expected = off >= 0 and dist(
                        fpoint[idx], fpoint[chain[off]]) <= radius(CX, node.r)
                    assert helpers.point_in_x(view, p, idx) == expected, (n, p, idx)


@pytest.mark.parametrize("case", ["line5", "L2"])
def test_stacked_clients_match_the_oracle(line5, case):
    rng = random.Random(31)
    if case == "line5":
        instance = line5
    else:
        instance = random_instance(rng, n_facilities=6, n_pool_points=20)
    fac_points = [fac.point for fac in instance.facilities]
    others = [p for p in range(instance.n_points) if p not in fac_points]
    stacks = fac_points[:2] + rng.sample(others, 2)
    eng = Engine(instance)
    view = None
    for step in range(160):
        if step % 4 == 3:
            eng.delete_client(rng.choice(sorted(eng.registry)))
        else:
            eng.insert_client(f"c{step}", rng.choice(stacks))
        if view is None or view.hierarchy is not eng.hierarchy:
            view = OracleView(instance, eng.hierarchy)
        expected = view.recompute_state(eng.registry)
        assert compare_states(engine_snapshot(eng), expected) == [], step
        at_point = {}
        for cid, point in eng.registry.items():
            at_point.setdefault(point, set()).add(expected.assignments[cid])
        assert all(len(found) == 1 for found in at_point.values()), step
