"""The rebuild's one key-order pass against ``helpers.reference_annotations``
at the seams of a level shift: all eight lists and the open set must be
identical, element types included.

Every shift of the seeded ``test_reference_build`` kinds (seeded by
``NETFLOC_SEED``), the extreme-cost draws and two benchmark instances is
crossed up and back down with the clients stacked on the cheapest
facility's point, alone or with as many spread over every point in turn.  With them
all stacked, the bottom area of that point holds b clients after the shift
up to b, and its designated facility is the cheapest, whose threshold is at
most b (a shift only happens at b above the facility count), so a node of
the added bottom level opens; going back down, the same node is one of the
removed level.  The test asserts that it does, so it cannot pass vacuously.
After construction and every shift, ``annotations`` must show the very
eight lists that the update paths unpack.
With half of the clients spread, every point pays, and the first
extreme-cost draw reaches costs beyond 64 bits.

A disabled node never carries a cost in a real state: a parent lies within
the far radius of its child's open witnesses, so the enabled nodes are
closed under parents, and the states crossed here assert it.  The pass
still passes such a node's ``y`` on, as the reference does, and is checked
on states where a widened ``neighbors_above`` breaks that closure.
"""

import random

import pytest

from helpers import default_seed
from netfloc import Engine
from netfloc.hierarchy import TripletNode
from test_counted_rebuild import assert_counted_rebuild
from test_reference_build import KINDS, extreme_cost_instance
from test_shared_levels import benchmark_instance, shifts


def cheapest_point(instance) -> int:
    """The point of the first facility in (cost, id) order."""
    facilities = instance.facilities
    fid = min(range(len(facilities)), key=lambda i: (facilities[i].opening_cost, i))
    return facilities[fid].point


def carriers(engine) -> int:
    """Disabled nodes that pass a nonzero ``y`` on to a parent."""
    anns, nodes = engine.annotations, engine.hierarchy.nodes
    return sum(not enabled and cost != 0 and node.parent is not None
               for enabled, cost, node in zip(anns.is_enabled, anns.cost, nodes))


def assert_one_set_of_lists(engine) -> None:
    """``annotations`` shows the very eight lists the update paths unpack
    when the engine's cost unit is the scale's, 5**rho_min; below it, those
    lists with ``cost`` and ``y`` exactly divided by 5**(rho_min - base)."""
    lists = engine._lists
    assert len(lists) == 8 and type(lists) is tuple
    ratio = 5 ** (engine.hierarchy.params.rho_min - engine._base)
    if ratio == 1:
        assert all(shown is kept for shown, kept in zip(engine.annotations, lists))
        return
    *kept, costs, y = lists
    assert all(c % ratio == 0 for c in costs + y)
    assert tuple(engine.annotations) == (*kept, [c // ratio for c in costs],
                                         [v // ratio for v in y])


def cross_shifts(instance, stacked_only: bool) -> tuple[int, int]:
    """Cross every shift b of ``instance`` up, with one more client on the
    cheapest point, and back down, deleting a stacked client; each side
    must match the reference.  The number of shifts whose added (and then
    removed) bottom level held an open node, and the largest cost's bit
    length."""
    hot = cheapest_point(instance)
    seams = bits = 0
    for b in shifts(instance):
        engine = Engine(instance, {
            f"p{i}": hot if stacked_only or i % 2 == 0 else i % instance.n_points
            for i in range(b - 1)})
        assert_one_set_of_lists(engine)
        engine.insert_client("up", hot)
        deeper = engine.hierarchy
        assert engine.last_update.rebuilt and engine.n == b
        assert_one_set_of_lists(engine)
        assert_counted_rebuild(engine)
        seams += not engine.open_nodes.isdisjoint(deeper.by_level[deeper.params.rho_min])
        bits = max(bits, max(engine.annotations.cost).bit_length())
        engine.delete_client("p0")
        assert engine.last_update.rebuilt and engine.hierarchy is not deeper
        assert_one_set_of_lists(engine)
        assert_counted_rebuild(engine)
        assert carriers(engine) == 0
    return seams, bits


CASES = ([f"kind-{kind}" for kind in sorted(KINDS)]
         + [f"extreme-{draw}" for draw in range(3)]
         + ["flap-625", "verify-matrix"])


def case_instance(name):
    kind, _, rest = name.partition("-")
    if kind == "kind":
        return KINDS[rest](random.Random(f"seam-{rest}-{default_seed()}"))
    if kind == "extreme":
        return extreme_cost_instance(int(rest))
    return benchmark_instance(name)


@pytest.mark.parametrize("name", CASES)
def test_open_bottom_level_at_every_shift(name):
    instance = case_instance(name)
    n_shifts = len(shifts(instance))
    assert n_shifts
    seams, _ = cross_shifts(instance, stacked_only=True)
    assert seams == n_shifts


@pytest.mark.parametrize("name", CASES)
def test_half_stacked_shifts(name):
    _, bits = cross_shifts(case_instance(name), stacked_only=False)
    if name == "extreme-0":   # its tiny cost is not overwritten (test_counted_rebuild)
        assert bits > 64


@pytest.mark.parametrize("name", ["kind-l2-grid", "kind-l2-line-boundaries"])
def test_disabled_node_passes_its_cost_on(name, monkeypatch):
    """With ``neighbors_above`` of each bottom node widened to every bottom
    node of a larger key, an open bottom node enables far bottom nodes
    whose parents stay disabled and carry their costs; the shift up and
    back down must still equal the reference, which reads the same
    relation."""
    full = TripletNode.neighbors_above.fget

    def widened(node):
        h = node._hierarchy
        out = full(node)
        if node.r == h.params.rho_min:
            key = node.key()
            out += [u for u in h.by_level[node.r] if h.nodes[u].key() > key and u not in out]
        return out

    monkeypatch.setattr(TripletNode, "neighbors_above", property(widened))
    instance = case_instance(name)
    rng = random.Random(f"seam-widened-{name}-{default_seed()}")
    hot = cheapest_point(instance)
    b = shifts(instance)[0]
    engine = Engine(instance, {f"p{i}": hot if i % 2 == 0 else rng.randrange(instance.n_points)
                               for i in range(b - 1)})
    engine.insert_client("up", hot)
    assert engine.last_update.rebuilt
    assert carriers(engine) > 0
    assert_counted_rebuild(engine)
    engine.delete_client("p0")
    assert engine.last_update.rebuilt
    assert_counted_rebuild(engine)
