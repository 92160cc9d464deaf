"""The engine's update path against the general update path.

``Engine`` skips the dirty heap when no abundance bit flips, settles the
client's chain in one bottom-up pass at the old enabled bits, and, when
enabled bits flip, corrects the flipped nodes' counts in their parents and
re-settles only their root paths; it re-derives the scale only when the live
count leaves [n, 5n).  ``helpers.ReferenceEngine`` runs the general path on
every update (abundance tested before and after each count moves, not by the
engine's slack edge rule; flips first, then the client's counts along the
chain, then one cost pass over the sorted union of the chain and the flips'
root paths); both must agree field for field after every mutation, and the
window must trigger exactly the level shifts the per-mutation check did."""

import functools
import random
from collections import Counter
from pathlib import Path

import pytest

import netfloc.engine as engine_mod
from helpers import ReferenceEngine, benchmark_case, default_seed, random_instance, \
    random_trace
from netfloc import Engine, Instance, derive_parameters
from netfloc.instance import largest_power_of_five_at_most


class RecordingEngine(Engine):
    """Counts the updates that pass enabled-bit flips to ``update_cost``, and
    those with a flip off the client's chain, whose root path joins the chain
    from the side."""

    def __init__(self, instance, clients=()):
        self.enabled_flip_updates = 0
        self.off_chain_flip_updates = 0
        super().__init__(instance, clients)

    def update_cost(self, chain, flipped, delta):
        self.enabled_flip_updates += bool(flipped)
        self.off_chain_flip_updates += any(idx not in chain for idx, _ in flipped)
        super().update_cost(chain, flipped, delta)


def assert_same_state(eng, ref, where):
    assert (eng.hierarchy.params, eng.n) == (ref.hierarchy.params, ref.n), where
    assert eng.annotations == ref.annotations, where
    assert eng.open_nodes == ref.open_nodes, where
    assert eng.last_update == ref.last_update, where
    assert eng.cost_query() == ref.cost_query(), where


def run_side_by_side(instance, prefill, mutations) -> Counter:
    """Apply ``(kind, cid, point)`` mutations to both engines, comparing after
    each; counts the updates, and those with heap pulls, with enabled flips
    and with a rebuild."""
    eng = RecordingEngine(instance, prefill)
    ref = ReferenceEngine(instance, prefill)
    assert_same_state(eng, ref, "construction")
    tally = Counter()
    for step, (kind, cid, point) in enumerate(mutations):
        for engine in (eng, ref):
            if kind == "insert":
                engine.insert_client(cid, point)
            else:
                engine.delete_client(cid)
        assert_same_state(eng, ref, f"mutation {step}: {kind} {cid}")
        tally["updates"] += 1
        tally["pulls"] += eng.last_update.heap_pulls > 0
        tally["rebuilt"] += eng.last_update.rebuilt
    tally["flips"] = eng.enabled_flip_updates
    tally["off_chain_flips"] = eng.off_chain_flip_updates
    return tally


def seeded_case(kind, seed, events=300):
    rng = random.Random(seed)
    if kind == "L2":
        instance = random_instance(rng, n_facilities=6, n_pool_points=30)
    else:
        pts = [(rng.randint(0, 500), rng.randint(0, 500)) for _ in range(30)]
        facilities = [(i, rng.randint(1, 100)) for i in range(6)]
        if kind == "Linf":
            instance = Instance("euclidean-Linf", points=pts, facilities=facilities)
        else:
            matrix = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts] for a in pts]
            instance = Instance("explicit-matrix", matrix=matrix, facilities=facilities)
    return instance, {}, [tuple(e) for e in random_trace(rng, instance, events)]


def test_line5_matches_general_path(line5):
    mutations = [("insert", "c1", 3), ("insert", "c2", 4), ("insert", "c3", 3),
                 ("delete", "c2", None), ("insert", "c4", 0), ("insert", "c5", 1),
                 ("insert", "c6", 2), ("delete", "c1", None), ("delete", "c4", None),
                 ("delete", "c3", None), ("delete", "c5", None), ("delete", "c6", None)]
    tally = run_side_by_side(line5, {}, mutations)
    assert tally["pulls"] and tally["flips"] and tally["flips"] < tally["updates"]


SEEDED_KINDS = ("L2", "Linf", "matrix")
# Three fixed traces per metric kind, and one drawn from NETFLOC_SEED.
SEEDED = [(kind, seed) for kind in SEEDED_KINDS for seed in (1, 2, 3)] + \
    [(kind, 100 + default_seed()) for kind in SEEDED_KINDS]


@functools.cache
def seeded_tally(kind, seed) -> Counter:
    return run_side_by_side(*seeded_case(kind, seed))


@pytest.mark.parametrize("kind, seed", SEEDED)
def test_seeded_instances_match_general_path(kind, seed):
    tally = seeded_tally(kind, seed)
    # Both branches run: updates that pull and flip, and many that do neither.
    assert tally["pulls"] >= 1 and tally["flips"] >= 1
    assert tally["updates"] - tally["pulls"] >= tally["updates"] // 4


def test_seeded_comparisons_cover_flips_off_the_chain():
    """A flip off the client's chain has a root path that joins the chain
    from the side: the comparison must cover updates whose correction pass
    settles nodes the chain pass did not touch."""
    assert sum(seeded_tally(*case)["off_chain_flips"] for case in SEEDED) > 0


def test_churn_matches_general_path():
    instance, prefill, mutations = benchmark_case("churn-l2")
    tally = run_side_by_side(instance, prefill, mutations[:2000])
    assert tally["updates"] == 2000 and tally["rebuilt"] == 0
    assert tally["pulls"] >= 1 and tally["updates"] - tally["pulls"] >= 1900


def test_flap_matches_general_path():
    instance, prefill, mutations = benchmark_case("flap-625")
    tally = run_side_by_side(instance, prefill, mutations[:40])
    assert tally["updates"] == tally["rebuilt"] == 40


# -- the scale window ----------------------------------------------------------

def shift_instances():
    rng = random.Random(61)
    line = Instance.load(Path(__file__).parent / "data" / "line5.json")
    pts = [(rng.randint(0, 300), rng.randint(0, 300)) for _ in range(12)]
    linf = Instance("euclidean-Linf", points=pts,
                    facilities=[(0, 3), (1, 40), (2, 9)])
    return {"line": line, "L2": random_instance(rng, n_facilities=3, n_pool_points=30),
            "Linf": linf}


def count_walk():
    """Live counts 0 -> 1 -> 0, then up to 4 -> 5 -> 4, 24 -> 25 -> 24 and
    124 -> 125 -> 124: +1 is an insert, -1 a delete."""
    steps = [+1, -1]
    count = 0
    for boundary in (5, 25, 125):
        steps += [+1] * (boundary - count) + [-1, +1, -1]
        count = boundary - 1
    return steps


@pytest.mark.parametrize("name", ["line", "L2", "Linf"])
def test_scale_window_shifts_exactly_at_powers_of_five(name, monkeypatch):
    instance = shift_instances()[name]
    calls = {"adjust": 0, "scale": 0}
    real_adjust = Engine.adjust_levels
    real_scale = engine_mod.largest_power_of_five_at_most

    def counting_adjust(self):
        calls["adjust"] += 1
        real_adjust(self)

    def counting_scale(count):
        calls["scale"] += 1
        return real_scale(count)

    monkeypatch.setattr(Engine, "adjust_levels", counting_adjust)
    monkeypatch.setattr(engine_mod, "largest_power_of_five_at_most", counting_scale)
    eng = Engine(instance)
    rng = random.Random(name)
    serial = 0
    rebuilds = 0
    for step, move in enumerate(count_walk()):
        before_n = largest_power_of_five_at_most(len(eng.registry))
        before_anns = eng.annotations
        before_scale = (eng.hierarchy.params.rho_min, eng.hierarchy.params.rho_max)
        calls.update(adjust=0, scale=0)
        if move > 0:
            serial += 1
            eng.insert_client(f"c{serial}", rng.randrange(instance.n_points))
        else:
            eng.delete_client(rng.choice(sorted(eng.registry)))
        count = len(eng.registry)
        n = largest_power_of_five_at_most(count)
        where = f"step {step}: count {count}"
        assert eng.n == n, where
        assert calls["adjust"] == int(n != before_n), where
        assert calls["scale"] == calls["adjust"], where   # no scale derivation in the window
        rebuilt = eng.annotations is not before_anns
        assert eng.last_update.rebuilt == rebuilt, where
        assert rebuilt == (before_scale != (eng.hierarchy.params.rho_min, eng.hierarchy.params.rho_max)), where
        derived = derive_parameters(instance, eng.n)
        assert (eng.hierarchy.params.rho_min, eng.hierarchy.params.rho_max) == \
            (derived.rho_min, derived.rho_max), where
        rebuilds += rebuilt
        assert eng.state_hash() == Engine.from_clients(instance, eng.registry).state_hash(), where
    assert rebuilds >= 2


@pytest.mark.parametrize("name", ["line", "L2", "Linf"])
def test_level_shifts_never_call_the_public_update_cost(name, monkeypatch):
    # A rebuild that went through update_cost would count as an update in
    # traced benchmark runs and run a subclass's update path inside it.
    instance = shift_instances()[name]
    calls = {"update_cost": 0}
    real_update_cost = Engine.update_cost

    def counting_update_cost(self, chain, flipped, delta):
        calls["update_cost"] += 1
        real_update_cost(self, chain, flipped, delta)

    monkeypatch.setattr(Engine, "update_cost", counting_update_cost)
    # The first power of five whose crossing changes the hierarchy.
    boundary = next(b for b in (5, 25, 125) if derive_parameters(instance, b)
                    != derive_parameters(instance, b // 5))
    rng = random.Random(name)
    eng = Engine(instance, {f"p{i}": rng.randrange(instance.n_points)
                            for i in range(boundary - 1)})
    assert calls["update_cost"] == 0
    eng.insert_client("up", rng.randrange(instance.n_points))
    assert eng.last_update.rebuilt and calls["update_cost"] == 1
    eng._rebuild(eng.hierarchy.params)
    assert calls["update_cost"] == 1
    eng.delete_client("up")
    assert eng.last_update.rebuilt and calls["update_cost"] == 2
    eng._rebuild(eng.hierarchy.params)
    assert calls["update_cost"] == 2


def test_poisoned_engine_refuses_updates_inside_the_window(line5, monkeypatch):
    eng = Engine(line5, {f"c{i}": i for i in range(4)})

    def fail(self):
        raise RuntimeError("level shift failed")
    monkeypatch.setattr(Engine, "adjust_levels", fail)
    with pytest.raises(RuntimeError, match="level shift failed"):
        eng.insert_client("c4", 4)                  # 4 -> 5 leaves [1, 5)
    monkeypatch.undo()
    for update in (lambda: eng.delete_client("c4"),   # back inside [1, 5)
                   lambda: eng.delete_client("c0"),
                   lambda: eng.insert_client("c9", 2)):
        with pytest.raises(RuntimeError, match="unusable after a failed update"):
            update()


# -- annotation lists per rebuild -----------------------------------------------

@pytest.mark.parametrize("name", ["line", "L2", "Linf"])
def test_each_level_shift_allocates_one_annotations_of_new_lists(name, monkeypatch):
    """A level shift, a return to a visited scale too, allocates exactly one
    ``Annotations`` whose lists are new (none is the outgoing scale's), a
    steady update allocates none and keeps the lists, and the state matches
    a from-scratch construction after every mutation."""
    instance = shift_instances()[name]
    built = {"annotations": 0}
    real = engine_mod.Annotations

    def counting(*lists):
        built["annotations"] += 1
        return real(*lists)

    monkeypatch.setattr(engine_mod, "Annotations", counting)
    eng = Engine(instance)
    assert built["annotations"] == 1
    visited = {eng.hierarchy.params}
    rng = random.Random(f"refill-{name}")
    serial = 0
    returns = 0
    for step, move in enumerate(count_walk()):
        built["annotations"] = 0
        before = eng.annotations
        if move > 0:
            serial += 1
            eng.insert_client(f"c{serial}", rng.randrange(instance.n_points))
        else:
            eng.delete_client(rng.choice(sorted(eng.registry)))
        where = f"step {step}: count {len(eng.registry)}"
        params = eng.hierarchy.params
        if not eng.last_update.rebuilt:
            assert built["annotations"] == 0, where
            assert eng.annotations is before, where
        else:
            returns += params in visited
            visited.add(params)
            assert built["annotations"] == 1, where
            assert set(map(id, eng.annotations)).isdisjoint(map(id, before)), where
        assert eng.state_hash() == Engine.from_clients(instance, eng.registry).state_hash(), where
    assert returns >= 2


@pytest.mark.parametrize("name", ["line", "L2", "Linf"])
def test_engines_over_one_instance_share_no_annotation(name):
    """Two engines over one instance share its hierarchies but keep their own
    annotation lists: interleaved mutations across the scale boundaries leave
    each engine equal to a from-scratch construction."""
    instance = shift_instances()[name]
    engines = (Engine(instance), Engine(instance))
    rng = random.Random(f"two-engines-{name}")
    serial = 0
    rebuilds = 0
    for step, move in enumerate(count_walk()):
        for eng in engines:
            if move > 0:
                serial += 1
                eng.insert_client(f"c{serial}", rng.randrange(instance.n_points))
            else:
                eng.delete_client(rng.choice(sorted(eng.registry)))
            rebuilds += eng.last_update.rebuilt
            assert eng.state_hash() == \
                Engine.from_clients(instance, eng.registry).state_hash(), step
        owned = [set(map(id, eng.annotations)) for eng in engines]
        assert owned[0].isdisjoint(owned[1]), step
    assert rebuilds >= 4
