"""The engine's flat state: one ``Annotations`` of eight per-field lists per
visited scale.

Every element stays a plain ``bool`` (the bits) or ``int`` (the counts)
after a first-visit rebuild, a revisit refill and steady updates:
``state_hash`` hashes their ``repr``, and numpy's scalars repr as
``np.False_`` or ``np.int64(3)``.  Each visited scale owns its eight lists,
no list is shared between scales or engines, a revisit refills them in
place, and a snapshot's lists are copies.  On L2, L-infinity and matrix
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
    refill on a revisit, or a steady update."""
    for move in count_walk():
        visited = set(engine._annotations)
        if move > 0:
            serial += 1
            engine.insert_client(f"c{serial}", rng.randrange(engine.instance.n_points))
        else:
            engine.delete_client(rng.choice(sorted(engine.registry)))
        if not engine.last_update.rebuilt:
            yield "steady"
        else:
            yield "revisit" if engine.hierarchy.params in visited else "first visit"


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
def test_each_scale_owns_its_lists_and_a_revisit_keeps_them(kind):
    instance = flat_instance(kind, "tiny")
    engines = (Engine(instance), Engine(instance))
    rng = random.Random(f"owned-{kind}-{default_seed()}")
    owned = [{} for _ in engines]          # per engine: Params -> its eight lists
    walks = [walk(eng, rng, serial=1000 * k) for k, eng in enumerate(engines)]
    revisits = 0
    for step, stages in enumerate(zip(*walks)):
        for eng, lists, stage in zip(engines, owned, stages):
            mine = lists.setdefault(eng.hierarchy.params, tuple(eng.annotations))
            # A revisit refills the lists of the scale in place.
            assert all(a is b for a, b in zip(mine, eng.annotations)), (step, stage)
            revisits += stage == "revisit"
        every = [values for lists in owned for anns in lists.values() for values in anns]
        assert len(set(map(id, every))) == len(every), step
    assert revisits >= 2 and all(len(lists) >= 2 for lists in owned)
    for eng, lists in zip(engines, owned):
        assert set(eng._annotations) == set(lists)


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
