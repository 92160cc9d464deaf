"""Level shifts between related scales copy the shared nodes' client counts.

``Hierarchy.shared_offset`` relates a deeper hierarchy to a shallower one of
the same instance: k when the shallower is the deeper without its k bottom
node ids, with equal point chains above them, else None.  A shift between
related scales copies ``n_area`` and ``slack`` of the shared nodes from the
outgoing lists: going down it counts nothing, going up only the ids below k;
an unrelated pair counts every node.

Each shift up and down across every power of five up to 3,125 at which the
derived ``Params`` change, on the seeded ``test_reference_build`` kinds
(seeded by ``NETFLOC_SEED``), the extreme-cost draws and the three benchmark
instances, must leave every list equal to ``helpers.reference_annotations``,
types included, and ``state_hash`` equal to ``Engine.from_clients``'.  The
relation is pinned on the benchmark instances, and a clustered L2 instance
whose deeper level moves a point chain takes the full count.

The relation's check walks only the point chains: every other level-r
decision of the build shares the level by construction.  Over a fixed
census corpus, related and unrelated neighbouring pairs alike, every shared
level must hold the same level set, parents, colors and x/y lists under the
id shift, the relation must hold exactly when no point chain moves, and a
related pair must also share the abundance thresholds and designations.
"""

import json
import random

import numpy as np
import pytest

import helpers
from helpers import default_seed, reference_annotations
from netfloc import Engine, Hierarchy, Instance, derive_parameters
from test_counted_rebuild import assert_counted_rebuild
from test_reference_build import KINDS, extreme_cost_instance

POWERS = tuple(5 ** j for j in range(1, 6))


class CountingEngine(Engine):
    """The engine, recording the id bound of every client count its
    rebuilds ask of ``Hierarchy.counts``."""

    def __init__(self, instance, clients=()):
        self.counted = []
        super().__init__(instance, clients)

    def _rebuild(self, params):
        counts = Hierarchy.counts

        def counting(hierarchy, points, k):
            self.counted.append(k)
            return counts(hierarchy, points, k)

        Hierarchy.counts = counting
        try:
            super()._rebuild(params)
        finally:
            Hierarchy.counts = counts


def benchmark_instance(workload):
    return Instance.from_dict(json.loads(helpers.benchmark_inputs(workload, 1).instance_text))


def shifts(instance):
    """The powers of five b up to 3,125 at which the scale b // 5 and b
    derive different ``Params``."""
    return [b for b in POWERS
            if derive_parameters(instance, b // 5) != derive_parameters(instance, b)]


def expected_counts(deeper, shallower, going_up):
    """The id bounds a shift between the two hierarchies counts."""
    k = deeper.shared_offset(shallower)
    if k is None:
        return [len((deeper if going_up else shallower).nodes)]
    return [k] if going_up else []


def assert_shift(engine, old, where):
    """The shift that just happened counted what the relation allows and
    left the engine equal to the reference and to a fresh engine."""
    assert engine.last_update.rebuilt, where
    new = engine.hierarchy
    going_up = new.params.rho_min < old.params.rho_min
    deeper, shallower = (new, old) if going_up else (old, new)
    assert engine.counted == expected_counts(deeper, shallower, going_up), where
    assert_counted_rebuild(engine)
    assert engine.state_hash() == Engine.from_clients(engine.instance,
                                                      engine.registry).state_hash(), where


def shift_up_and_down(instance, rng) -> int:
    """Cross every shift of ``instance`` up, then down by deleting another
    client than the one inserted; the number of related shifts."""
    related = 0
    for b in shifts(instance):
        engine = CountingEngine(instance, {f"p{i}": rng.randrange(instance.n_points)
                                           for i in range(b - 1)})
        below = engine.hierarchy
        engine.counted.clear()
        engine.insert_client("up", rng.randrange(instance.n_points))
        assert engine.n == b
        assert_shift(engine, below, (b, "up"))
        above = engine.hierarchy
        engine.counted.clear()
        engine.delete_client(f"p{rng.randrange(b - 1)}")
        assert engine.hierarchy is below
        assert_shift(engine, above, (b, "down"))
        related += above.shared_offset(below) is not None
    return related


@pytest.mark.parametrize("draw", range(6))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_seeded_kinds(kind, draw):
    rng = random.Random(f"shared-{kind}-{draw}-{default_seed()}")
    instance = KINDS[kind](rng)
    assert shifts(instance)
    shift_up_and_down(instance, rng)


@pytest.mark.parametrize("draw", range(3))
def test_extreme_costs(draw):
    instance = extreme_cost_instance(draw)
    assert shifts(instance)
    shift_up_and_down(instance, random.Random(f"shared-extreme-{draw}-{default_seed()}"))


@pytest.mark.parametrize("workload", ["churn-l2", "flap-625", "verify-matrix"])
def test_benchmark_instances(workload):
    instance = benchmark_instance(workload)
    rng = random.Random(f"shared-{workload}-{default_seed()}")
    assert shift_up_and_down(instance, rng) == len(shifts(instance))


@pytest.mark.parametrize("workload, shallow, deep, k", [
    ("flap-625", 125, 625, 100),
    ("churn-l2", 625, 3125, 400),
    ("verify-matrix", 25, 125, 40),
])
def test_relation_on_the_benchmark_instances(workload, shallow, deep, k):
    """Each deeper scale is the shallower one plus one bottom level of F
    nodes, so k is the facility count."""
    instance = benchmark_instance(workload)
    assert len(instance.facilities) == k
    shallower = instance.hierarchy(derive_parameters(instance, shallow))
    deeper = instance.hierarchy(derive_parameters(instance, deep))
    assert deeper.params.rho_min == shallower.params.rho_min - 1
    assert deeper.shared_offset(shallower) == k
    assert len(deeper.by_level[deeper.params.rho_min]) == k
    assert shallower.shared_offset(deeper) is None
    assert deeper.shared_offset(deeper) == 0


def test_relation_is_memoised_per_hierarchy():
    instance = benchmark_instance("verify-matrix")
    shallower = instance.hierarchy(derive_parameters(instance, 25))
    deeper = instance.hierarchy(derive_parameters(instance, 125))
    assert deeper.shared_offset(shallower) == 40
    assert deeper._shared_offsets == {shallower: 40}
    other = benchmark_instance("verify-matrix")
    assert deeper.shared_offset(other.hierarchy(shallower.params)) is None


def moved_chain_case():
    """A clustered L2 instance whose deeper level at 3,125 moves the chain
    of one of its 50 points."""
    instance = KINDS["l2-clustered"](random.Random("census-l2-clustered-10"))
    shallower = instance.hierarchy(derive_parameters(instance, 625))
    deeper = instance.hierarchy(derive_parameters(instance, 3125))
    k = len(deeper.nodes) - len(shallower.nodes)
    moved = [p for p in range(instance.n_points)
             if tuple(i - k for i in deeper.point_chains[p] if i >= k)
             != shallower.point_chains[p]]
    return instance, shallower, deeper, k, moved


def test_a_moved_chain_breaks_the_relation():
    instance, shallower, deeper, k, moved = moved_chain_case()
    assert deeper.params.rho_min == shallower.params.rho_min - 1
    # Every level set matches under the offset; only a chain differs.
    deeper_sets = helpers.level_sets(deeper)
    assert all(deeper_sets[r] == ids for r, ids in helpers.level_sets(shallower).items())
    assert len(moved) == 1 and instance.n_points == 50
    assert deeper.shared_offset(shallower) is None
    # A copy would be wrong: with a client on the moved point, the shared
    # nodes' counts differ between the scales.
    live = {"c": moved[0]}
    deep_anns, _ = reference_annotations(deeper, live)
    shallow_anns, _ = reference_annotations(shallower, live)
    assert deep_anns.n_area[k:] != shallow_anns.n_area


def test_unrelated_shift_counts_in_full():
    instance, shallower, deeper, _, (moved,) = moved_chain_case()
    rng = random.Random(f"shared-moved-{default_seed()}")
    engine = CountingEngine(instance, {f"p{i}": moved if i % 7 == 0
                                       else rng.randrange(instance.n_points)
                                       for i in range(3124)})
    assert engine.hierarchy is shallower
    engine.counted.clear()
    engine.insert_client("up", moved)
    assert engine.hierarchy is deeper
    assert engine.counted == [len(deeper.nodes)]
    assert_counted_rebuild(engine)
    engine.counted.clear()
    engine.delete_client("p1")
    assert engine.hierarchy is shallower
    assert engine.counted == [len(shallower.nodes)]
    assert_counted_rebuild(engine)
    assert engine.state_hash() == Engine.from_clients(instance, engine.registry).state_hash()


# -- the shared levels, by construction ------------------------------------------

CENSUS = ([f"{kind}-{draw}" for kind in sorted(KINDS) for draw in range(12)]
          + [f"extreme-{draw}" for draw in range(3)]
          + ["churn-l2", "flap-625", "verify-matrix"])


def census_instance(name):
    """The census corpus: 12 draws of every ``test_reference_build`` kind,
    seeded ``census-<kind>-<draw>``, the three extreme-cost draws and the
    three benchmark instances."""
    kind, _, draw = name.rpartition("-")
    if kind in KINDS:
        return KINDS[kind](random.Random(f"census-{name}"))
    if kind == "extreme":
        return extreme_cost_instance(int(draw))
    return benchmark_instance(name)


def neighbouring_pairs(instance):
    """(shallower, deeper) hierarchies of every two neighbouring distinct
    ``Params`` among the scales 5**0 .. 5**7."""
    params = []
    for j in range(8):
        p = derive_parameters(instance, 5 ** j)
        if p not in params:
            params.append(p)
    return [(instance.hierarchy(a), instance.hierarchy(b)) for a, b in zip(params, params[1:])]


def assert_shared_levels(shallower, deeper):
    """Every level of ``shallower`` is the deeper one's under the id shift k;
    the relation holds exactly when no point chain moves, and then the
    thresholds and designations agree too.  Whether the pair is related."""
    k = len(deeper.nodes) - len(shallower.nodes)
    assert deeper.params.rho_max == shallower.params.rho_max
    assert deeper.params.rho_min < shallower.params.rho_min
    deeper_sets = helpers.level_sets(deeper)
    for r, ids in helpers.level_sets(shallower).items():
        assert deeper_sets[r] == ids, r
    assert k == sum(len(deeper.by_level[r]) for r in range(deeper.params.rho_min,
                                                            shallower.params.rho_min))
    shared = deeper.nodes[k:]
    assert [(n.facility, n.r, n.color) for n in shared] == \
        [(n.facility, n.r, n.color) for n in shallower.nodes]
    assert [[u - k for u in n.y_areas] for n in shared] == [n.y_areas for n in shallower.nodes]
    assert deeper.parent_ids[-1] == shallower.parent_ids[-1] == -1
    assert np.array_equal(deeper.parent_ids[k:-1], shallower.parent_ids[:-1] + k)
    x_start = deeper.x_starts[k]
    assert np.array_equal(deeper.x_starts[k:], shallower.x_starts + x_start)
    assert np.array_equal(deeper.x_flat[x_start:], shallower.x_flat + k)
    moved = [p for p, (deep, shallow) in enumerate(zip(deeper.point_chains,
                                                        shallower.point_chains))
             if tuple(i - k for i in deep if i >= k) != shallow]
    offset = deeper.shared_offset(shallower)
    assert offset == (None if moved else k)
    if offset is not None:
        assert [(n.abundance_threshold, n.designated_facility) for n in shared] == \
            [(n.abundance_threshold, n.designated_facility) for n in shallower.nodes]
    return offset is not None


@pytest.mark.parametrize("name", CENSUS)
def test_census_levels_agree_under_the_shift(name):
    pairs = neighbouring_pairs(census_instance(name))
    assert pairs
    related = [assert_shared_levels(*pair) for pair in pairs]
    # The one census pair whose deeper level moves a chain (moved_chain_case).
    assert related.count(False) == (name == "l2-clustered-10"), related
