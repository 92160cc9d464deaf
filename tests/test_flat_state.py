"""The engine's flat state: one ``Annotations`` of eight per-field lists,
built fresh by every rebuild.

Every element stays a plain ``bool`` (the bits) or ``int`` (the counts)
after a rebuild on a first visit to a scale, on a revisit and after steady
updates: ``state_hash`` hashes their ``repr``, and numpy's scalars repr as
``np.False_`` or ``np.int64(3)``.  Every rebuild, a revisit too, makes eight
new lists, no list is shared between engines or with the scale left behind,
a steady update keeps the lists, and a snapshot's lists are copies.  On L2, L-infinity and matrix
instances with tiny and with huge costs, seeded by ``NETFLOC_SEED``."""

import random
from collections import Counter

import pytest

from helpers import default_seed
from netfloc import Annotations, Engine, Instance, engine_snapshot
from test_steady_update import count_walk

BITS = ("is_open", "is_enabled")
# Tiny costs give ~430 levels and unit weights far beyond int64; huge ones a
# few levels at logradius ~430.
COSTS = {"tiny": (1e-300, 3e-299, 7e-298), "huge": (1e298, 3e299, 7e300)}


def flat_instance(kind: str, costs: str) -> Instance:
    rng = random.Random(f"flat-{kind}-{costs}-{default_seed()}")
    pts = [(rng.randint(0, 500), rng.randint(0, 500)) for _ in range(12)]
    facilities = list(enumerate(COSTS[costs]))
    if kind == "matrix":
        matrix = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts] for a in pts]
        return Instance("explicit-matrix", matrix=matrix, facilities=facilities)
    metric = "euclidean-L2" if kind == "L2" else "euclidean-Linf"
    return Instance(metric, points=pts, facilities=facilities)


def walk(engine, rng, serial=0):
    """``count_walk``'s inserts and deletes on ``engine``, yielding after
    each update the stage it took: a rebuild on a first visit to a scale, a
    rebuild on a revisit, or a steady update."""
    visited = {engine.hierarchy.params}
    for move in count_walk():
        if move > 0:
            serial += 1
            engine.insert_client(f"c{serial}", rng.randrange(engine.instance.n_points))
        else:
            engine.delete_client(rng.choice(sorted(engine.registry)))
        if not engine.last_update.rebuilt:
            yield "steady"
        else:
            params = engine.hierarchy.params
            yield "revisit" if params in visited else "first visit"
            visited.add(params)


def assert_plain(annotations, where):
    assert type(annotations) is Annotations, where
    for name, values in zip(Annotations._fields, annotations):
        assert type(values) is list, (where, name)
        kind = bool if name in BITS else int
        odd = [(idx, type(v)) for idx, v in enumerate(values) if type(v) is not kind]
        assert not odd, (where, name, odd[:3])


@pytest.mark.parametrize("costs", sorted(COSTS))
@pytest.mark.parametrize("kind", ["L2", "Linf", "matrix"])
def test_every_element_is_a_plain_bool_or_int(kind, costs):
    instance = flat_instance(kind, costs)
    engine = Engine(instance)
    assert_plain(engine.annotations, "construction")
    stages = Counter()
    for step, stage in enumerate(walk(engine, random.Random(f"types-{kind}-{costs}"))):
        stages[stage] += 1
        assert_plain(engine.annotations, (step, stage))
    assert stages["first visit"] >= 1 and stages["revisit"] >= 1 and stages["steady"] >= 100
    if costs == "tiny":
        assert max(engine.annotations.cost).bit_length() > 64
        assert len(engine.hierarchy.by_level) > 400


@pytest.mark.parametrize("kind", ["L2", "Linf", "matrix"])
def test_every_rebuild_gives_new_lists_and_a_steady_update_keeps_them(kind):
    """Every rebuild, a revisit to a scale too, gives the engine eight new
    lists: none is a list that either engine held before, at this scale or
    another, and none is the other engine's.  A steady update keeps them.
    Every ``Annotations`` the engines held stays referenced here, so two of
    their lists share an ``id`` only when they are one list."""
    instance = flat_instance(kind, "tiny")
    engines = (Engine(instance), Engine(instance))
    rng = random.Random(f"owned-{kind}-{default_seed()}")
    held = [eng.annotations for eng in engines]    # every one either engine had
    current = list(held)
    walks = [walk(eng, rng, serial=1000 * k) for k, eng in enumerate(engines)]
    rebuilds = Counter()
    for step, stages in enumerate(zip(*walks)):
        for k, (eng, stage) in enumerate(zip(engines, stages)):
            if stage == "steady":
                assert eng.annotations is current[k], step
                continue
            assert all(eng.annotations is not anns for anns in held), (step, stage)
            rebuilds[k, stage] += 1
            held.append(eng.annotations)
            current[k] = eng.annotations
        every = [values for anns in held for values in anns]
        assert len(set(map(id, every))) == len(every), step
    assert all(rebuilds[k, "first visit"] >= 1 for k in range(2))
    assert rebuilds[0, "revisit"] + rebuilds[1, "revisit"] >= 2


@pytest.mark.parametrize("kind", ["L2", "Linf", "matrix"])
def test_a_snapshot_copies_the_lists(kind):
    instance = flat_instance(kind, "huge")
    rng = random.Random(f"copies-{kind}-{default_seed()}")
    engine = Engine(instance, {f"c{i}": rng.randrange(instance.n_points) for i in range(30)})
    snapshot = engine_snapshot(engine)
    taken = [list(values) for values in snapshot.annotations]
    assert snapshot.annotations == engine.annotations
    assert not any(a is b for a in snapshot.annotations for b in engine.annotations)
    for serial in range(20):
        engine.insert_client(f"n{serial}", rng.randrange(instance.n_points))
    assert not engine.last_update.rebuilt
    assert snapshot.annotations.n_area != engine.annotations.n_area
    assert list(snapshot.annotations) == taken
