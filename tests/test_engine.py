import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import netfloc.engine as engine_mod
from helpers import random_instance, random_trace
from netfloc import (ASSIGN_RADIUS_FACTOR, DirtyHeap, Engine, Hierarchy, Instance,
                     InstanceError, OracleView, TraceEvent,
                     compare_states, derive_parameters, engine_snapshot, radius)
from test_reference_build import extreme_cost_instance


def node_id(engine, j, r):
    return helpers.node_id(engine.hierarchy, j, r)


def ann(engine, j, r):
    return helpers.annotation_row(engine.annotations, node_id(engine, j, r))


def test_first_insert_opens_middle_level(line5):
    eng = Engine(line5)
    eng.insert_client("c1", 3)
    assert ann(eng, 0, 1).is_open is False and ann(eng, 0, 1).is_enabled is False
    assert ann(eng, 0, 2).is_open is True
    assert ann(eng, 0, 3).is_open is False and ann(eng, 0, 3).is_enabled is True
    assert ann(eng, 0, 3).open_below == 1
    assert eng.cost_query() == 25.0
    assert eng.solution_query() == [0]


def test_update_status_reports_enabled_flips(line5):
    eng = Engine(line5)
    chain = tuple(eng.hierarchy.area_chain(3))
    affected = eng.find_affected_triplets(chain)
    assert sorted(affected) == list(range(len(eng.hierarchy.nodes)))
    flipped = eng.update_status(affected, +1)
    assert dict(flipped) == {node_id(eng, 0, 2): True, node_id(eng, 0, 3): True}
    eng.update_cost(chain, flipped, +1)
    # costs counted in bottom-scale units: 25 real = 5 * 5**rho_min
    assert [ann(eng, 0, r).cost for r in (1, 2, 3)] == [0, 5, 5]


def test_update_status_records_all_work_counters(line5):
    eng = Engine(line5)
    affected = eng.find_affected_triplets(eng.hierarchy.area_chain(3))
    eng.update_status(affected, +1)
    stats = eng.last_update
    assert (stats.affected, stats.heap_pulls, stats.flips) == (len(affected), 2, 1)
    eng.insert_client("c1", 4)
    assert eng.last_update.affected == len(
        eng.find_affected_triplets(eng.hierarchy.area_chain(4)))


def test_last_update_is_a_fresh_stats_object_on_every_read(line5):
    # line5 shifts at 25 live clients; a read copies the counters, so
    # mutating it reaches neither the engine nor the next read.
    eng = Engine(line5, {f"c{i}": 3 for i in range(24)})
    assert eng.last_update == engine_mod.UpdateStats()
    eng.insert_client("up", 3)
    first, second = eng.last_update, eng.last_update
    assert first.rebuilt and first.affected > 0
    assert first == second and first is not second
    first.affected, first.rebuilt = -1, False
    assert eng.last_update == second
    eng.insert_client("steady", 4)
    steady = eng.last_update
    assert not steady.rebuilt and steady.affected == len(
        eng.find_affected_triplets(eng.hierarchy.area_chain(4)))
    eng.delete_client("steady")
    eng.delete_client("up")
    assert eng.last_update.rebuilt and eng.last_update is not eng.last_update


def test_no_status_flips_gives_empty_set(line5):
    eng = Engine(line5)
    for cid, p in (("a", 3), ("b", 4), ("c", 3)):
        eng.insert_client(cid, p)
    chain = tuple(eng.hierarchy.area_chain(3))
    flipped = eng.update_status(eng.find_affected_triplets(chain), +1)
    assert flipped == []
    eng.update_cost(chain, flipped, +1)
    assert eng.cost_query() == 20.0  # four clients paying 5 each


def test_three_clients_move_opening_down(line5):
    eng = Engine(line5)
    for cid, p in (("a", 3), ("b", 4), ("c", 3)):
        eng.insert_client(cid, p)
    assert ann(eng, 0, 1).is_open is True
    assert ann(eng, 0, 2).is_open is False and ann(eng, 0, 2).is_enabled is True
    assert eng.cost_query() == 15.0
    assert [ann(eng, 0, r).cost for r in (1, 2, 3)] == [3, 3, 3]


def test_insert_into_empty_instance_opens_something(line5):
    eng = Engine(line5)
    eng.insert_client("only", 1)
    assert eng.open_nodes and eng.solution_query()


def test_duplicate_insert_rejected_state_unchanged(line5):
    eng = Engine(line5)
    eng.insert_client("c1", 3)
    before = eng.state_hash()
    with pytest.raises(ValueError, match="already live"):
        eng.insert_client("c1", 2)
    assert eng.state_hash() == before


def test_delete_unknown_rejected_state_unchanged(line5):
    eng = Engine(line5)
    eng.insert_client("c1", 3)
    before = eng.state_hash()
    with pytest.raises(ValueError, match="unknown client"):
        eng.delete_client("nope")
    assert eng.state_hash() == before


def test_insert_then_delete_restores_empty_state(line5):
    eng = Engine(line5)
    empty = eng.state_hash()
    eng.insert_client("c1", 3)
    eng.delete_client("c1")
    assert eng.state_hash() == empty
    assert eng.cost_query() == 0.0 and not eng.open_nodes


def test_delete_matches_fresh_build(line5):
    eng = Engine(line5)
    for cid, p in (("c1", 3), ("c2", 4), ("c3", 3)):
        eng.insert_client(cid, p)
    eng.delete_client("c3")
    fresh = Engine.from_clients(line5, {"c1": 3, "c2": 4})
    assert eng.state_hash() == fresh.state_hash()


def test_check_status_branch_table(line5):
    eng = Engine(line5)
    idx = node_id(eng, 0, 2)
    anns = eng.annotations
    # (is_open, slack, open_below) -> proposed open bit, every state:
    # abundant means slack >= 0.
    table = [((False, -1, 0), False), ((False, -1, 1), False),
             ((False, 0, 0), True), ((False, 3, 2), False),
             ((True, -1, 0), False), ((True, -4, 1), False),
             ((True, 0, 0), True), ((True, 0, 2), False)]
    for state, expected in table:
        anns.is_open[idx], anns.slack[idx], anns.open_below[idx] = state
        assert eng._proposed_open(idx) is expected, state


def test_find_affected_equals_membership_scan():
    rng = random.Random(59)
    for _ in range(4):
        inst = random_instance(rng, n_facilities=rng.randint(2, 20),
                               n_pool_points=15)
        eng = Engine(inst)
        view = OracleView(inst, eng.hierarchy)
        for _ in range(6):
            p = rng.randrange(inst.n_points)
            chain = tuple(eng.hierarchy.area_chain(p))
            affected = set(eng.find_affected_triplets(chain))
            expected = {idx for idx in range(len(eng.hierarchy.nodes))
                        if helpers.point_in_x(view, p, idx)}
            assert affected == expected


def test_cost_query_examples(line5):
    eng = Engine(line5)
    assert eng.cost_query() == 0.0
    eng.insert_client("c1", 3)
    assert eng.cost_query() == 25.0
    eng.insert_client("c2", 4)
    eng.insert_client("c3", 3)
    assert eng.cost_query() == 15.0


def assert_cost_query_exact(eng, where=None):
    """Two queries in a row, the first after any write, both answer the
    root's units times 5**rho_min rounded once (inf past the float range),
    computed here without the engine's cached value."""
    units = eng.annotations.cost[eng.hierarchy.root]
    exact = Fraction(units) * Fraction(5) ** eng.hierarchy.params.rho_min
    try:
        expected = float(exact)
    except OverflowError:
        expected = math.inf
    assert eng.cost_query() == eng.cost_query() == expected, where


@settings(max_examples=25, deadline=None)
@given(st.floats(5e-324, 1e300), st.floats(5e-324, 1e300), st.integers(1, 7))
def test_cost_query_is_the_exact_cost_rounded(cost_a, cost_b, n_clients):
    # The root's cost counts units of 5**rho_min; tiny costs put rho_min
    # near -463, where 5.0**rho_min underflows, and the units past 10**308.
    inst = Instance("euclidean-L2", points=[[0, 0], [3, 4]],
                    facilities=[(0, cost_a), (1, cost_b)])
    eng = Engine(inst, {f"c{i}": i % 2 for i in range(n_clients)})
    assert_cost_query_exact(eng)
    for cid in sorted(eng.registry):
        eng.delete_client(cid)
        assert_cost_query_exact(eng, cid)


def _cost_cache_case(case):
    """An instance and its insert/delete trace: a crossing case (line5 and
    one of each metric kind, past 5, 25 and 125 clients), an extreme-cost
    draw climbing past 5 and 25 and back, a bottom logradius below -463, or
    a cost that leaves the float range and comes back."""
    if case in helpers.CROSSING_KINDS:
        return helpers.crossing_case(case)
    if case.startswith("extreme-"):
        instance = extreme_cost_instance(int(case[-1]))
    elif case == "tiny-units":
        instance = Instance("euclidean-L2", points=[[0, 0], [3, 4]],
                            facilities=[(0, 5e-324), (1, 7)])
        assert derive_parameters(instance, 25).rho_min < -463
    else:  # "beyond-float": 1e308 and the largest float, both opened
        instance = Instance("euclidean-L2", points=[[0], [1]],
                            facilities=[(0, 1e308), (1, 1.7976931348623157e308)])
    rng = random.Random(f"cost-cache-{case}")
    inserts = [TraceEvent("insert", f"c{i}", rng.randrange(instance.n_points))
               for i in range(26)]
    return instance, inserts + [TraceEvent("delete", e.cid) for e in inserts]


@pytest.mark.parametrize("case", [*helpers.CROSSING_KINDS, "extreme-0", "extreme-1",
                                  "extreme-2", "tiny-units", "beyond-float"])
def test_cost_query_is_exact_after_every_mutation(case):
    instance, trace = _cost_cache_case(case)
    eng = Engine(instance)
    assert eng.cost_query() == 0.0
    answers = set()
    for event in trace:
        if event.kind == "insert":
            eng.insert_client(event.cid, event.point)
        else:
            eng.delete_client(event.cid)
        assert_cost_query_exact(eng, event)
        answers.add(eng.cost_query())
    if case == "beyond-float":
        assert math.inf in answers and eng.cost_query() == 0.0


def test_solution_query_examples(line5, line5_cheap_f1):
    assert Engine(line5).solution_query() == []
    eng = Engine(line5)
    eng.insert_client("c1", 3)
    assert eng.solution_query() == [0]
    cheap = Engine(line5_cheap_f1)
    cheap.insert_client("c1", 3)
    assert cheap.solution_query() == [1]


def test_assign_client_line5(line5):
    eng = Engine(line5)
    eng.insert_client("c1", 3)
    a = eng.assign_client("c1")
    assert a.r_area == 2
    assert eng.hierarchy.nodes[a.aux_triplet].r == 2
    assert a.open_facility == 0
    eng.insert_client("c2", 4)
    eng.insert_client("c3", 3)
    for cid in ("c1", "c2", "c3"):
        a = eng.assign_client(cid)
        assert a.r_area == 1 and a.open_facility == 0


def test_assign_errors(line5):
    eng = Engine(line5)
    with pytest.raises(ValueError, match="unknown client"):
        eng.assign_client("ghost")


@pytest.mark.parametrize("kind", helpers.CROSSING_KINDS)
def test_assignments_equal_assign_client_after_every_mutation(kind):
    instance, trace = helpers.crossing_case(kind)
    eng = Engine(instance)
    shifts = 0
    for event in trace:
        hierarchy = eng.hierarchy
        if event.kind == "insert":
            eng.insert_client(event.cid, event.point)
        else:
            eng.delete_client(event.cid)
        shifts += eng.hierarchy is not hierarchy
        assert eng.assignments() == {cid: eng.assign_client(cid)
                                     for cid in eng.registry}, event
    assert shifts >= 2


@pytest.mark.parametrize("case", [*helpers.CROSSING_KINDS, "extreme-0", "extreme-1",
                                  "extreme-2", "flap-625"])
def test_kept_assignments_equal_fresh_ones(case):
    """``assignments()`` keeps its maps while (hierarchy, open set) holds, so
    it is called only after every second mutation: a level shift and its
    return under an unchanged open set then reuse the kept entries, as on
    flap-625's 624 <-> 625 cycle, where every call after the first does.
    Each result must equal the per-client ``assign_client`` and a fresh
    engine's ``assignments()`` over the live set."""
    if case == "flap-625":
        instance, prefill, mutations = helpers.benchmark_case(case)
        trace = [TraceEvent(*m) for m in mutations[:40]]
    else:
        instance, trace = _cost_cache_case(case)
        prefill = {}
    eng = Engine(instance, prefill)
    kept, hierarchies = eng._routes, set()
    calls = reuses = reuses_over_a_shift = 0
    for count, event in enumerate(trace, 1):
        if event.kind == "insert":
            eng.insert_client(event.cid, event.point)
        else:
            eng.delete_client(event.cid)
        hierarchies.add(eng.hierarchy)
        if count % 2:
            continue
        got = eng.assignments()
        assert got == {cid: eng.assign_client(cid) for cid in eng.registry}, event
        assert got == Engine.from_clients(instance, eng.registry).assignments(), event
        calls += 1
        if eng._routes is kept:
            reuses += 1
            reuses_over_a_shift += len(hierarchies) > 1
        kept, hierarchies = eng._routes, {eng.hierarchy}
    assert reuses
    if case == "flap-625":
        assert reuses_over_a_shift == calls - 1 > 0


def test_assignment_radius_and_open_area_properties():
    # A client covered by an open triplet's near neighborhood is assigned at
    # exactly that scale, and always lands within the stated radius.
    rng = random.Random(61)
    inst = random_instance(rng, n_facilities=10, n_pool_points=30)
    eng = Engine(inst)
    view = OracleView(inst, eng.hierarchy)
    live = {}
    for ev in random_trace(rng, inst, 80):
        if ev.kind == "insert":
            eng.insert_client(ev.cid, ev.point)
            live[ev.cid] = ev.point
        else:
            eng.delete_client(ev.cid)
            live.pop(ev.cid)
        if view.hierarchy is not eng.hierarchy:
            view = OracleView(inst, eng.hierarchy)
        for cid, p in live.items():
            a = eng.assign_client(cid)
            fac_point = inst.facilities[a.open_facility].point
            assert inst.distance(p, fac_point) <= radius(
                ASSIGN_RADIUS_FACTOR, a.r_area)
            for oidx in eng.open_nodes:
                if helpers.point_in_x(view, p, oidx):
                    assert a.r_area == eng.hierarchy.nodes[oidx].r


def test_level_shift_line5_push_and_pop(line5):
    eng = Engine(line5)
    for i in range(24):
        eng.insert_client(f"c{i}", i % 5)
    assert eng.hierarchy.params.rho_min == 1
    h_before = eng.hierarchy
    eng.insert_client("c24", 4)
    assert eng.hierarchy.params.rho_min == 0 and eng.hierarchy.params.delta == 4
    assert eng.hierarchy is not h_before
    assert [eng.hierarchy.nodes[i].facility
            for i in eng.hierarchy.by_level[0]] == [0, 1]
    fresh = Engine.from_clients(line5, dict(eng.registry.items()))
    assert eng.state_hash() == fresh.state_hash()
    eng.delete_client("c24")
    assert eng.hierarchy.params.rho_min == 1
    assert eng.state_hash() == Engine.from_clients(
        line5, dict(eng.registry.items())).state_hash()


def test_level_shift_derives_parameters_once(line5, monkeypatch):
    eng = Engine(line5)
    for i in range(24):
        eng.insert_client(f"c{i}", i % 5)
    calls = []
    real = engine_mod.derive_parameters

    def counting(instance, n):
        calls.append(n)
        return real(instance, n)

    monkeypatch.setattr(engine_mod, "derive_parameters", counting)
    eng.insert_client("c24", 4)   # 24 -> 25 moves rho_min from 1 to 0
    assert eng.hierarchy.params.rho_min == 0
    assert calls == [25]
    eng.delete_client("c24")
    assert eng.hierarchy.params.rho_min == 1
    assert calls == [25, 5]


def test_n_change_without_scale_shift_keeps_structure(line5):
    eng = Engine(line5)
    for i in range(4):
        eng.insert_client(f"c{i}", i % 5)
    h = eng.hierarchy
    eng.insert_client("c4", 4)   # n: 1 -> 5, divisor still |J|-dominated
    assert eng.n == 5
    assert eng.hierarchy is h


def test_hierarchy_cache_across_power_of_five(monkeypatch):
    # Three facilities and a live count moving 24 <-> 25: the divisor of
    # rho_min goes 5 -> 25, so every crossing changes the bottom level.
    builds = []
    real_init = Hierarchy.__init__

    def counting_init(self, instance, params):
        builds.append((params.rho_min, params.rho_max))
        real_init(self, instance, params)

    monkeypatch.setattr(Hierarchy, "__init__", counting_init)
    rng = random.Random(61)
    inst = random_instance(rng, n_facilities=3, n_pool_points=30)
    eng = Engine(inst)
    engine_builds = len(builds)
    scales = {(eng.hierarchy.params.rho_min, eng.hierarchy.params.rho_max)}
    below = above = None
    serial = 0

    def mutate(op, *args):
        nonlocal engine_builds
        before = len(builds)
        op(*args)
        engine_builds += len(builds) - before
        scales.add((eng.hierarchy.params.rho_min, eng.hierarchy.params.rho_max))
        live = dict(eng.registry.items())
        assert eng.state_hash() == Engine.from_clients(inst, live).state_hash()
        view = OracleView(inst, eng.hierarchy)
        assert compare_states(engine_snapshot(eng), view.recompute_state(live)) == []

    while len(eng.registry) < 24:
        serial += 1
        mutate(eng.insert_client, f"c{serial}", rng.randrange(inst.n_points))
    for _ in range(4):
        level = eng.hierarchy
        assert below is None or level is below
        below = level
        serial += 1
        mutate(eng.insert_client, f"c{serial}", rng.randrange(inst.n_points))
        assert eng.hierarchy is not below
        assert above is None or eng.hierarchy is above
        above = eng.hierarchy
        live = list(eng.registry.items())
        mutate(eng.delete_client, live[rng.randrange(len(live))][0])
    assert eng.hierarchy is below
    # The engine built each scale once, and from_clients built none.
    assert engine_builds == len(builds) == len(scales)


def test_realized_cost(line5):
    eng = Engine(line5)
    assert eng.realized_cost(eng.assignments()) == 0.0
    eng.insert_client("c1", 3)
    assert eng.realized_cost(eng.assignments()) == 110.0  # open F0 at 10 plus distance 100


@pytest.mark.parametrize("kind", ["euclidean-L2", "explicit-matrix"])
def test_realized_cost_equals_the_per_client_sum(kind):
    # Float distances, and most clients stacked on three points, so the total
    # depends on the order of its terms: it must add each client's distance
    # in registry order, as a per-client loop does.
    rng = random.Random(f"realized-{kind}-{helpers.default_seed()}")
    pts = [[rng.uniform(0, 1000), rng.uniform(0, 1000)] for _ in range(30)]
    facilities = [(i, rng.uniform(1, 300)) for i in range(8)]
    if kind == "explicit-matrix":
        inst = Instance(kind, matrix=[[math.dist(a, b) for b in pts] for a in pts],
                        facilities=facilities)
    else:
        inst = Instance(kind, points=pts, facilities=facilities)
    facs = inst.facilities
    hot = rng.sample(range(30), 3)
    eng = Engine(inst)
    for serial in range(300):
        if eng.registry and rng.random() < 1 / 3:
            eng.delete_client(rng.choice(list(eng.registry)))
        else:
            point = rng.choice(hot) if rng.random() < 0.8 else rng.randrange(30)
            eng.insert_client(f"c{serial}", point)
        assignments = eng.assignments()
        expected = sum(facs[f].opening_cost for f in eng.solution_query())
        for cid, point in eng.registry.items():
            expected += inst.distance(point, facs[assignments[cid].open_facility].point)
        assert eng.realized_cost(assignments) == expected


def test_dirty_heap_guards():
    heap = DirtyHeap()
    heap.push((1, 0, 0), 7)
    heap.push((1, 0, 0), 7)          # deduplicated
    assert heap.pop() == 7 and not heap
    with pytest.raises(RuntimeError, match="cleaned twice"):
        heap.push((1, 0, 0), 7)


def test_engine_snapshot_is_detached_from_later_updates(line5):
    # A snapshot copies the engine's annotation lists when it is taken:
    # later updates change the engine's state but not the snapshot, which
    # still equals the oracle's recomputation of the earlier live set.
    eng = Engine(line5, {"c1": 3, "c2": 4})
    live = dict(eng.registry)
    before = engine_snapshot(eng)
    assert before.annotations == eng.annotations
    assert all(ours is not theirs for ours, theirs in zip(before.annotations, eng.annotations))
    eng.insert_client("c3", 3)
    assert eng.hierarchy is before.hierarchy
    assert before.annotations != engine_snapshot(eng).annotations
    view = OracleView(line5, before.hierarchy)
    assert compare_states(before, view.recompute_state(live)) == []


@pytest.mark.parametrize("point, message", [
    (1.5, "must be an integer"),
    (True, "must be an integer"),
    ("1", "must be an integer"),
    (None, "must be an integer"),
    (-1, r"out of range: -1$"),
    (5, r"out of range: 5$"),
])
def test_client_points_are_validated(line5, point, message):
    for build in (Engine, Engine.from_clients):
        with pytest.raises(InstanceError, match=message):
            build(line5, {"c1": 0, "c2": point})
    eng = Engine(line5, {"c1": 0})
    before = eng.state_hash()
    with pytest.raises(InstanceError, match=message):
        eng.insert_client("c2", point)
    assert eng.state_hash() == before and "c2" not in eng.registry


@pytest.mark.parametrize("method, clients", [
    ("update_cost", {"c1": 0}),
    ("adjust_levels", {"c1": 0, "c2": 1, "c3": 2, "c4": 3}),   # the next insert reaches 5
])
def test_failed_update_poisons_the_engine(line5, monkeypatch, method, clients):
    eng = Engine(line5, clients)
    insert, delete = eng.insert_client, eng.delete_client   # bound before the failure
    original = getattr(Engine, method)

    def fail(self, *args):
        raise RuntimeError("triplet 3 cleaned twice in one update")
    monkeypatch.setattr(Engine, method, fail)
    with pytest.raises(RuntimeError, match="cleaned twice"):
        eng.insert_client("new", 4)
    monkeypatch.setattr(Engine, method, original)

    first = r"unusable after a failed update: RuntimeError\('triplet 3 cleaned twice"
    for update in (lambda: eng.insert_client("c9", 1), lambda: eng.delete_client("c1"),
                   lambda: eng.delete_client("nope"), lambda: insert("c8", 2),
                   lambda: delete("c1")):
        with pytest.raises(RuntimeError, match=first):
            update()


def test_input_errors_do_not_poison_the_engine(line5):
    eng = Engine(line5, {"c1": 0})
    with pytest.raises(ValueError, match="already live"):
        eng.insert_client("c1", 2)
    with pytest.raises(ValueError, match="unknown client"):
        eng.delete_client("nope")
    with pytest.raises(InstanceError, match="out of range"):
        eng.insert_client("c2", 9)
    eng.insert_client("c2", 3)
    eng.delete_client("c1")
    assert eng.state_hash() == Engine.from_clients(line5, {"c2": 3}).state_hash()
