"""The engine's counted rebuild against ``helpers.reference_annotations``, the
per-node passes it replaced: every annotation field, types included, and
the open set must be identical.  Checked on the benchmark hierarchies, on
seeded random instances of every metric kind (seeded by ``NETFLOC_SEED``),
on an instance of ~870 levels, with no clients and with 50 clients on one
point.

Also: annotation fields stay plain ``int`` and ``bool`` after a rebuild and
after steady updates (``state_hash`` hashes their ``repr``, and a numpy
scalar's differs), and the hierarchy's client-count arrays are read-only and
agree with its parent links and with the reference build's x lists.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest

import helpers
from helpers import default_seed, random_instance, random_trace, reference_annotations
from netfloc import Annotations, Engine, Instance
from test_reference_build import KINDS, extreme_cost_instance

FIELDS = Annotations._fields


def engine_at(instance, count, rng):
    """An engine with ``count`` clients at seeded random points."""
    return Engine.from_clients(
        instance, {f"p{i}": rng.randrange(instance.n_points) for i in range(count)})


def assert_counted_rebuild(engine):
    anns, open_nodes = reference_annotations(engine.hierarchy, engine.registry)
    for name, got, want in zip(FIELDS, engine.annotations, anns):
        assert len(got) == len(want), name
        for idx, (value, expected) in enumerate(zip(got, want)):
            assert (value, type(value)) == (expected, type(expected)), (idx, name)
    assert engine.open_nodes == open_nodes


def assert_plain_fields(engine):
    for name, values in zip(FIELDS, engine.annotations):
        kind = bool if name in ("is_open", "is_enabled") else int
        for idx, value in enumerate(values):
            assert type(value) is kind, (idx, name)


@pytest.mark.parametrize("workload, counts", [
    ("churn-l2", (3125,)),
    ("flap-625", (125, 625)),
    ("verify-matrix", (5, 25, 125)),
])
def test_benchmark_hierarchies(workload, counts):
    text = helpers.benchmark_inputs(workload, 1).instance_text
    instance = Instance.from_dict(json.loads(text))
    rng = random.Random(f"rebuild-{workload}-{default_seed()}")
    for count in counts:
        engine = engine_at(instance, count, rng)
        assert engine.n == count
        assert_counted_rebuild(engine)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_seeded_instances(kind):
    rng = random.Random(f"rebuild-{kind}-{default_seed()}")
    instance = KINDS[kind](rng)
    for count in (0, 7, 125, 700):
        assert_counted_rebuild(engine_at(instance, count, rng))


def test_extreme_cost_instance():
    instance = extreme_cost_instance(0)
    engine = engine_at(instance, 30, random.Random(f"rebuild-extreme-{default_seed()}"))
    assert len(engine.hierarchy.by_level) > 800
    assert max(engine.annotations.cost).bit_length() > 64
    assert_counted_rebuild(engine)


def test_empty_registry():
    engine = Engine(random_instance(random.Random(f"rebuild-empty-{default_seed()}")))
    assert engine.registry == {}
    assert_counted_rebuild(engine)
    assert all(n_area == 0 and cost == 0 for n_area, cost
               in zip(engine.annotations.n_area, engine.annotations.cost))


def test_clients_stacked_on_one_point():
    instance = random_instance(random.Random(f"rebuild-stacked-{default_seed()}"))
    engine = Engine.from_clients(instance, {f"c{i}": 11 for i in range(50)})
    assert_counted_rebuild(engine)
    assert engine.annotations.n_area[engine.hierarchy.root] == 50


def flap_case():
    instance, prefill, _ = helpers.benchmark_case("flap-625")
    return instance, prefill, 625


def line5_case():
    instance = Instance.load(Path(__file__).parent / "data" / "line5.json")
    return instance, {f"p{i}": 0 for i in range(24)}, 25


@pytest.mark.parametrize("case", [flap_case, line5_case])
def test_each_return_builds_new_lists_for_another_live_set(case):
    """b - 1 -> b -> b - 1 -> b across a power of five b, deleting other
    clients than the one inserted, then every first client replaced by one
    on the last point on the way back to b: each return to a scale builds
    new lists, none held before, for another live set than the one it left
    there, and must match the reference.  The replacement moves the open
    set, so a rebuild that kept a stale open bit fails too."""
    rng = random.Random(f"rebuild-return-{case.__name__}-{default_seed()}")
    instance, prefill, b = case()
    engine = Engine.from_clients(instance, prefill)
    assert engine.n == b // 5 and len(prefill) == b - 1
    held = [engine.annotations]
    scales = {engine.n}
    old = sorted(prefill)
    rng.shuffle(old)

    def check(where):
        assert engine.last_update.rebuilt, where
        lists = set(map(id, engine.annotations))
        assert all(lists.isdisjoint(map(id, anns)) for anns in held), where
        held.append(engine.annotations)
        scales.add(engine.n)
        assert_counted_rebuild(engine)
        return set(engine.open_nodes)

    engine.insert_client("up", rng.randrange(instance.n_points))
    first_open = check("up to b")
    engine.delete_client(old.pop())
    check("down to b - 1")
    engine.insert_client("up2", rng.randrange(instance.n_points))
    check("up to b again")
    while old:
        engine.delete_client(old.pop())
    for i in range(b - len(engine.registry)):
        engine.insert_client(f"new{i}", instance.n_points - 1)
    assert check("up to b with the first clients replaced") != first_open
    assert engine.n == b and len(scales) == 2


def test_fields_stay_plain_ints_and_bools():
    rng = random.Random(f"rebuild-types-{default_seed()}")
    instance = random_instance(rng)
    engine = engine_at(instance, 30, rng)
    assert_plain_fields(engine)
    engine._rebuild(engine.hierarchy.params)
    assert_plain_fields(engine)
    rebuilds = 0
    for event in random_trace(rng, instance, 300):
        if event.kind == "insert":
            engine.insert_client(event.cid, event.point)
        else:
            engine.delete_client(event.cid)
        rebuilds += engine.last_update.rebuilt
    assert rebuilds > 0
    assert_plain_fields(engine)
    assert_counted_rebuild(engine)


@pytest.mark.parametrize("workload", ["churn-l2", "flap-625", "verify-matrix"])
def test_count_arrays_are_read_only_and_match_the_node_lists(workload):
    text = helpers.benchmark_inputs(workload, 1).instance_text
    instance = Instance.from_dict(json.loads(text))
    h = Engine(instance).hierarchy
    arrays = (h.point_area, h.parent_ids, h.x_flat, h.x_starts)
    assert all(not a.flags.writeable and a.dtype == np.int64 for a in arrays)
    with pytest.raises(ValueError):
        h.x_flat[0] = 0
    assert h.point_area.tolist() == [chain[0] for chain in h.point_chains]
    assert h.parent_ids.tolist() == [-1 if node.parent is None else node.parent
                                     for node in h.nodes]
    # Each node's x areas are a slice of the flat arrays, so the arrays are
    # checked against the reference build's own per-node lists.
    ref = helpers.ReferenceHierarchy(instance, h.params).nodes
    lengths = [len(node.x_areas) for node in ref]
    assert min(lengths) >= 1
    assert h.x_flat.tolist() == [m for node in ref for m in node.x_areas]
    assert h.x_starts.tolist() == np.cumsum([0] + lengths).tolist()
