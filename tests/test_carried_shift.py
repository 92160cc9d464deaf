"""Level shifts that carry the state across related scales.

A shift between related scales (``Hierarchy.shared_offset``) carries the
outgoing lists when it can: going down when no removed bottom id is open,
going up to a scale no deeper than the engine's ``base`` when no added id is
abundant.  Every other shift, and every first visit below ``base``, takes
the full pass.  The engine keeps ``cost`` and ``y`` in units of 5**base and
shows them in units of 5**rho_min.

Each test predicts the path of every shift from ``helpers.reference_annotations``
of the deeper hierarchy, which the engine never reads, and asserts that the
engine took it, so that neither path passes vacuously.  After every shift
up, down and up again, ``state_hash``, ``open_nodes``, the exact
``cost_query`` float, ``annotations`` (types included) and the lists
``engine_snapshot`` copies must equal ``Engine.from_clients`` and the
reference.  Covered: the seeded
``test_reference_build`` kinds (seeded by ``NETFLOC_SEED``), the extreme-cost
draws, whose costs pass 64 bits, flap-625 and verify-matrix, a first deeper
visit after carries, which moves ``base``, and a carry that raises, which
must poison the engine.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import default_seed, reference_annotations
from netfloc import Engine, engine_snapshot
from test_counted_rebuild import assert_counted_rebuild
from test_rebuild_pass import CASES, case_instance, cheapest_point
from test_shared_levels import shifts


class PathEngine(Engine):
    """The engine, recording the path of every level shift: ``carry`` or
    ``pass``."""

    def __init__(self, instance, clients=()):
        self.paths = []
        super().__init__(instance, clients)

    def _carry(self, *args):
        carried = super()._carry(*args)
        if carried:
            self.paths.append("carry")
        return carried

    def _full_pass(self, *args):
        super()._full_pass(*args)
        self.paths.append("pass")


def expected_path(engine, old, base) -> str:
    """The path of the shift from ``old`` to the engine's hierarchy, taken at
    ``base``, as the reference state of the live set on the deeper
    hierarchy predicts it."""
    new = engine.hierarchy
    going_up = new.params.rho_min < old.params.rho_min
    deeper, shallower = (new, old) if going_up else (old, new)
    k = deeper.shared_offset(shallower)
    if k is None or new.params.rho_min < base:
        return "pass"
    anns, open_nodes = reference_annotations(deeper, engine.registry)
    if going_up:
        return "carry" if max(anns.slack[:k]) < 0 else "pass"
    return "pass" if any(idx < k for idx in open_nodes) else "carry"


def exact_cost(engine) -> float:
    """The reference root cost times 5**rho_min, correctly rounded."""
    anns, _ = reference_annotations(engine.hierarchy, engine.registry)
    value = Fraction(anns.cost[engine.hierarchy.root]) * Fraction(5) ** engine.hierarchy.params.rho_min
    try:
        return float(value)
    except OverflowError:
        return math.inf


def assert_fresh(engine, where):
    fresh = Engine.from_clients(engine.instance, engine.registry)
    assert engine.state_hash() == fresh.state_hash(), where
    assert engine.open_nodes == fresh.open_nodes, where
    assert engine.annotations == fresh.annotations, where
    assert engine_snapshot(engine).annotations == fresh.annotations, where
    assert engine.cost_query() == fresh.cost_query() == exact_cost(engine), where
    assert_counted_rebuild(engine)


def shift(engine, update, where) -> str:
    """Apply ``update`` to ``engine``, which must shift the scale along the
    predicted path and match a fresh engine; the path."""
    old, base, before = engine.hierarchy, engine._base, len(engine.paths)
    update()
    assert engine.last_update.rebuilt, where
    assert len(engine.paths) == before + 1, where
    path = engine.paths[-1]
    assert path == expected_path(engine, old, base), where
    assert_fresh(engine, where)
    return path


def up_down_up(instance, rng, stacked: bool) -> Counter:
    """For every shift b of ``instance``: b - 1 clients, spread over seeded
    points or stacked on the cheapest facility's point, then one insert
    (up), a delete of another client (down) and an insert (up again)."""
    hot = cheapest_point(instance)
    tally = Counter()
    for b in shifts(instance):
        engine = PathEngine(instance, {
            f"p{i}": hot if stacked else rng.randrange(instance.n_points) for i in range(b - 1)})
        point = hot if stacked else rng.randrange(instance.n_points)
        first = shift(engine, lambda: engine.insert_client("up", point), (b, "up"))
        assert first == "pass"   # a first visit below base
        tally["down", shift(engine, lambda: engine.delete_client("p0"), (b, "down"))] += 1
        tally["up", shift(engine, lambda: engine.insert_client("up2", point), (b, "up again"))] += 1
    return tally


@pytest.mark.parametrize("name", CASES)
def test_spread_clients_carry_each_related_shift(name):
    """Spread clients open no bottom node at these shifts (pinned), so
    every related shift carries: down and back up."""
    instance = case_instance(name)
    rng = random.Random(f"carry-{name}-{default_seed()}")
    tally = up_down_up(instance, rng, stacked=False)
    assert sum(tally.values()) == 2 * len(shifts(instance)) > 0
    assert tally["down", "carry"] >= 1 and tally["up", "carry"] >= 1


@pytest.mark.parametrize("name", CASES)
def test_stacked_clients_take_the_full_pass(name):
    """b clients stacked on the cheapest facility's point open a node of the
    added bottom level at every shift (``test_rebuild_pass``), so going back
    up takes the full pass; going down takes it wherever the delete leaves
    that node open, which the prediction decides."""
    instance = case_instance(name)
    tally = up_down_up(instance, random.Random(0), stacked=True)
    n_shifts = len(shifts(instance))
    assert tally["up", "pass"] == n_shifts
    assert tally["down", "pass"] + tally["down", "carry"] == n_shifts


def test_carried_costs_beyond_64_bits():
    """On the extreme-cost draws a state carried down holds costs in units
    of 5**base, beyond 64 bits on at least one draw, and shows them exactly
    divided."""
    bits = []
    for draw in range(3):
        instance = case_instance(f"extreme-{draw}")
        rng = random.Random(f"carry-bits-{draw}-{default_seed()}")
        b = shifts(instance)[0]
        engine = PathEngine(instance, {f"p{i}": i % instance.n_points for i in range(b - 1)})
        shift(engine, lambda: engine.insert_client("up", rng.randrange(instance.n_points)), "up")
        path = shift(engine, lambda: engine.delete_client("p0"), "down")
        assert path == "carry" and engine.hierarchy.params.rho_min > engine._base, draw
        bits.append(max(engine._lists[6]).bit_length())
    assert max(bits) > 64, bits


def test_flap_cycle_carries_every_shift_after_the_first():
    """flap-625's 624 <-> 625 cycle: the first shift up is a first visit
    below base, every later one is carried, and each state matches."""
    instance = case_instance("flap-625")
    rng = random.Random(f"flap-carry-{default_seed()}")
    engine = PathEngine(instance, {f"p{i}": rng.randrange(instance.n_points)
                                   for i in range(624)})
    for cycle in range(6):
        point = rng.randrange(instance.n_points)
        shift(engine, lambda: engine.insert_client(f"f{cycle}", point), (cycle, "up"))
        shift(engine, lambda: engine.delete_client(f"f{cycle}"), (cycle, "down"))
    assert engine.paths == ["pass"] * 2 + ["carry"] * 11


def test_first_deeper_visit_after_carries_moves_base():
    """Carry down and up at one shift, then climb to the next one, a first
    visit below base: the full pass moves base, the shallower scales' costs
    are then shown through a larger ratio, and carrying back down twice
    still matches."""
    instance = case_instance("kind-l2-floats")
    b, b5 = shifts(instance)[:2]
    rng = random.Random(f"deeper-{default_seed()}")
    engine = PathEngine(instance, {f"p{i}": rng.randrange(instance.n_points) for i in range(b - 1)})
    shift(engine, lambda: engine.insert_client("u0", rng.randrange(instance.n_points)), "up")
    first_base = engine._base
    assert shift(engine, lambda: engine.delete_client("u0"), "down") == "carry"
    assert shift(engine, lambda: engine.insert_client("u1", rng.randrange(instance.n_points)),
                 "up again") == "carry"
    for i in range(b5 - 1 - len(engine.registry)):
        engine.insert_client(f"q{i}", rng.randrange(instance.n_points))
        assert not engine.last_update.rebuilt
    assert shift(engine, lambda: engine.insert_client("u2", rng.randrange(instance.n_points)),
                 "first deeper visit") == "pass"
    assert engine._base < first_base == engine.hierarchy.params.rho_min + 1
    assert shift(engine, lambda: engine.delete_client("u2"), "down to b") == "carry"
    while len(engine.registry) >= b:
        engine.delete_client(next(iter(engine.registry)))
        assert_fresh(engine, len(engine.registry))
    assert engine.hierarchy.params.rho_min == engine._base + 2
    assert engine.paths.count("carry") == 4


def test_a_failing_carry_poisons_the_engine(monkeypatch):
    instance = case_instance("flap-625")
    engine = Engine(instance, {f"p{i}": i for i in range(624)})
    engine.insert_client("up", 624)

    def broken(self, *args):
        raise RuntimeError("carry failed")

    monkeypatch.setattr(Engine, "_carry", broken)
    with pytest.raises(RuntimeError, match="carry failed"):
        engine.delete_client("up")
    monkeypatch.undo()
    for update in (lambda: engine.insert_client("again", 3), lambda: engine.delete_client("p0")):
        with pytest.raises(RuntimeError, match="unusable after a failed update"):
            update()
