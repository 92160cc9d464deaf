"""The oracle's bulk view against ``helpers.ReferenceOracleView``, the scalar
view it replaced: point chains and x-member sets (derived from the bulk
view's flat arrays), far-neighborhood facility sets and their reverse index
must be identical, types included, and so must every recomputed state.  On
seeded traces over the instance kinds of ``test_reference_build`` (seeded by
``NETFLOC_SEED``), on matrices whose entries equal a threshold
``radius(c, r)``: exactly, or as the float nearest to a radius above 2**53
that no float represents, and on a point equidistant from two nodes, where
the lower facility id wins."""

import random

import numpy as np
import pytest

import helpers
from helpers import ReferenceOracleView, default_seed
from netfloc import C2, CX, CY, Engine, Instance, OracleView, \
    compare_states, derive_parameters, engine_snapshot, logical_violations, radius
from test_reference_build import KINDS, extreme_cost_instance


def assert_same_static(view, reference):
    # The bulk view keeps point chains and x-members only as flat arrays,
    # from which the helpers derive them.
    static = {"point_chain": helpers.view_point_chain(view),
              "x_members": helpers.view_x_members(view),
              "y_facilities": view.y_facilities,
              "nodes_with_fac_in_y": view.nodes_with_fac_in_y}
    for attr, ours in static.items():
        ref = getattr(reference, attr)
        assert ours == ref, attr
        assert helpers._types(ours) == helpers._types(ref), attr


def _field_types(annotations) -> dict[str, set]:
    """The value types of each field over a snapshot's annotation lists."""
    return {name: set(map(type, values)) for name, values in annotations._asdict().items()}


def assert_same_state(view, reference, clients):
    ours, ref = view.recompute_state(clients), reference.recompute_state(clients)
    assert compare_states(ours, ref) == []
    assert _field_types(ours.annotations) == _field_types(ref.annotations)
    assert helpers._types(ours.assignments) == helpers._types(ref.assignments)


def _instance(kind: str, rng: random.Random) -> Instance:
    if kind == "extreme-costs":
        return extreme_cost_instance(rng.randrange(3))
    return KINDS[kind](rng)


@pytest.mark.parametrize("kind", sorted(KINDS) + ["extreme-costs"])
def test_bulk_view_equals_the_reference_after_every_mutation(kind):
    rng = random.Random(f"bulk-oracle-{kind}-{default_seed()}")
    instance = _instance(kind, rng)
    engine = Engine(instance)
    views = {}
    for event in helpers.random_trace(rng, instance, 60):
        if event.kind == "insert":
            engine.insert_client(event.cid, event.point)
        else:
            engine.delete_client(event.cid)
        pair = views.get(engine.hierarchy)
        if pair is None:
            pair = views[engine.hierarchy] = (OracleView(instance, engine.hierarchy),
                                              ReferenceOracleView(instance, engine.hierarchy))
            assert_same_static(*pair)
        assert_same_state(*pair, engine.registry)
    # The hierarchy of 125 clients has lower levels than the trace reaches.
    hierarchy = instance.hierarchy(derive_parameters(instance, 125))
    pair = OracleView(instance, hierarchy), ReferenceOracleView(instance, hierarchy)
    assert_same_static(*pair)
    assert_same_state(*pair, engine.registry)


def _tie_instance(c: int, r: int, d: float) -> Instance:
    """Two points ``d`` apart as a matrix, with a facility on the first; for
    the near and far factors also one on the second.  A cost of 1e-3 puts
    the bottom level at r = -4."""
    facilities = [(0, 1e-3)] if c == C2 else [(0, 1e-3), (1, 1e-3)]
    return Instance("explicit-matrix", matrix=[[0, d], [d, 0]], facilities=facilities)


# Radii an entry equals exactly: integers at r >= 0, floats at r < 0.
EXACT = [(c, r) for c in (C2, CX, CY) for r in (-2, -1, 0, 1)]
# Radii above 2**53 whose nearest float lies above (the first of each pair)
# or below them.
ROUNDED = [(C2, 21), (C2, 24), (CX, 24), (CX, 22), (CY, 21), (CY, 22)]


@pytest.mark.parametrize("c, r", EXACT + ROUNDED)
def test_entries_equal_to_a_threshold(c, r):
    exact = radius(c, r)
    d = float(exact)
    assert (d == exact) == ((c, r) in EXACT)
    inside = d <= exact          # the exact decision: False where d rounds up
    if (c, r) in ROUNDED:
        assert inside == (ROUNDED.index((c, r)) % 2 == 1)
    instance = _tie_instance(c, r, d)
    hierarchy = instance.hierarchy(derive_parameters(instance, 0))
    view = OracleView(instance, hierarchy)
    reference = ReferenceOracleView(instance, hierarchy)
    assert_same_static(view, reference)
    assert_same_state(view, reference, {"a": 0, "b": 1, "c": 1})
    if c == C2:
        # The second point's area is the first facility's node at the lowest
        # level whose C2 ball holds it.
        assert hierarchy.nodes[helpers.view_point_chain(view)[1][0]].r == \
            (r if inside else r + 1)
        return
    # Both facilities are separated at level r (C1 < CX < CY), so both have a
    # node there; the tie decides whether they are neighbours.
    own, other = helpers.node_id(hierarchy, 0, r), helpers.node_id(hierarchy, 1, r)
    if c == CX:
        assert (other in helpers.view_x_members(view)[own]) == inside
    else:
        assert (1 in view.y_facilities[own]) == inside


def test_a_point_equidistant_from_two_nodes_takes_the_lower_facility_id():
    # Point 2 lies 3 from both facility points, which are 6 apart.  Level -1
    # is the lowest whose C2 radius (7) reaches it, and both facilities have
    # a node there (6 > C1 * 5**-1 = 4).  Facility 0 sits on point 1, so the
    # tie goes by facility id, not by point index.
    instance = Instance("explicit-matrix", matrix=[[0, 6, 3], [6, 0, 3], [3, 3, 0]],
                        facilities=[(1, 1e-3), (0, 1e-3)])
    hierarchy = instance.hierarchy(derive_parameters(instance, 0))
    view = OracleView(instance, hierarchy)
    assert_same_static(view, ReferenceOracleView(instance, hierarchy))
    assert helpers.view_point_chain(view)[2][0] == helpers.node_id(hierarchy, 0, -1)


@pytest.mark.parametrize("kind", ["l2-line-boundaries", "shared-points"])
def test_kept_routes_and_hits_equal_fresh_ones(kind):
    """One view over a seeded trace at one scale, 40 clients moving in turn
    to a few hot points, so the open set changes now and then and the view
    keeps its routes and open-neighborhood hits in between: every
    recomputed state must equal the reference view's, with the assignments
    resolved client by client, and the kept hits of ``logical_violations``
    must equal ``x_hits`` of the live points computed directly.  Both
    memos must have been reused, and replaced."""
    rng = random.Random(f"kept-routes-{kind}-{default_seed()}")
    instance = KINDS[kind](rng)
    engine = Engine.from_clients(
        instance, {f"p{i}": rng.randrange(instance.n_points) for i in range(40)})
    hierarchy = engine.hierarchy
    view, reference = OracleView(instance, hierarchy), ReferenceOracleView(instance, hierarchy)
    open_sets = set()
    route_hits = hit_reuses = 0
    for serial in range(120):
        if serial % 30 == 0:
            hot = rng.randrange(instance.n_points)
        if serial % 2:
            engine.delete_client(next(iter(engine.registry)))
        else:
            engine.insert_client(f"c{serial}", hot)
        assert engine.hierarchy is hierarchy
        open_nodes = sorted(engine.open_nodes)
        open_sets.add(tuple(open_nodes))
        routes, hits = view._routed, view._open_hits
        ours = view.recompute_state(engine.registry)
        assert compare_states(ours, reference.recompute_state(engine.registry)) == []
        assert ours.assignments == helpers.reference_oracle_assignments(
            view, ours.annotations, engine.registry)
        if view._routed is routes:
            route_hits += len(routes[1].keys() & {a.area_triplet for a in ours.assignments.values()})
        snapshot = engine_snapshot(engine)
        assert compare_states(snapshot, ours) == []
        assert logical_violations(view, engine, snapshot) == []
        points = sorted(set(engine.registry.values()))
        assert view._open_hits[0] == open_nodes
        assert [view._open_hits[1][p] for p in points] == \
            view.x_hits(np.array(points), open_nodes).tolist()
        hit_reuses += view._open_hits is hits
    assert len(open_sets) > 1 and route_hits and hit_reuses
