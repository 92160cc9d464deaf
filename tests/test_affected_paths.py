"""The precomputed affected paths and the slack edge rule.

``Hierarchy.path_x_areas`` must hold one entry per bottom area of a point:
the x areas of the nodes on that area's root path, joined bottom-up, with no
id twice.  The engine's affected set for a chain must be the entry of the
chain's bottom area.  Checked on the benchmark hierarchies, on seeded random
instances (seeded by ``NETFLOC_SEED``) and on an instance of ~870 levels.

The engine flips a triplet's abundance only when its ``slack`` lands on 0 (an
insert) or -1 (a delete); a walk of one node's near count up to its
threshold and back down checks that rule against the definition, and the
whole state against the oracle, after every step.
"""

import json
import random

import pytest

import helpers
from helpers import default_seed, random_instance
from netfloc import Engine, Instance, OracleView, compare_states, engine_snapshot
from test_reference_build import KINDS, extreme_cost_instance


def engine_at(instance, count):
    """An engine with ``count`` clients, spread over the points in order."""
    n_points = instance.n_points
    return Engine.from_clients(instance, {f"c{i}": i % n_points for i in range(count)})


def assert_affected_paths(engine):
    h = engine.hierarchy
    nodes = h.nodes
    assert set(h.path_x_areas) == {h.area_chain(p)[0] for p in range(engine.instance.n_points)}
    for idx in h.path_x_areas:
        expected = []
        walk = idx
        while walk is not None:
            expected += nodes[walk].x_areas
            walk = nodes[walk].parent
        path = h.path_x_areas[idx]
        assert type(path) is tuple and path == tuple(expected), idx
        assert len(set(path)) == len(path), idx
    for p in range(engine.instance.n_points):
        chain = h.area_chain(p)
        assert engine.find_affected_triplets(chain) is h.path_x_areas[chain[0]], p


@pytest.mark.parametrize("workload, counts", [
    ("churn-l2", (3125,)),
    ("flap-625", (125, 625)),
    ("verify-matrix", (5, 25, 125)),
])
def test_benchmark_hierarchies(workload, counts):
    text = helpers.benchmark_inputs(workload, 1).instance_text
    instance = Instance.from_dict(json.loads(text))
    for count in counts:
        engine = engine_at(instance, count)
        assert engine.n == count
        assert_affected_paths(engine)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_seeded_instances(kind):
    rng = random.Random(f"paths-{kind}-{default_seed()}")
    instance = KINDS[kind](rng)
    for count in (0, 125):
        assert_affected_paths(engine_at(instance, count))


def test_extreme_cost_instance():
    engine = Engine(extreme_cost_instance(0))
    assert len(engine.hierarchy.by_level) > 800
    assert_affected_paths(engine)


def test_abundance_flips_exactly_on_the_slack_edge():
    rng = random.Random(f"edge-{default_seed()}")
    instance = random_instance(rng, n_facilities=6, n_pool_points=30)
    # 25 clients: the walk below stays inside the scale window [25, 125).
    engine = engine_at(instance, 25)
    view = OracleView(instance, engine.hierarchy)
    nodes = engine.hierarchy.nodes
    # The node furthest below its threshold that a walk of at most 90
    # inserts at one point can bring to it.
    candidates = []
    for p in range(instance.n_points):
        for idx in engine.find_affected_triplets(engine.hierarchy.area_chain(p)):
            if -90 <= engine.annotations.slack[idx] < 0:
                candidates.append((engine.annotations.slack[idx], p, idx))
    slack, point, target = min(candidates)
    assert slack <= -2 and nodes[target].abundance_threshold >= 2

    def step(kind, cid):
        before = list(engine.annotations.slack)
        if kind == "insert":
            engine.insert_client(cid, point)
            edge = 0
        else:
            engine.delete_client(cid)
            edge = -1
        after = list(engine.annotations.slack)
        flipped = {idx for idx, (b, a) in enumerate(zip(before, after))
                   if (b >= 0) != (a >= 0)}
        on_edge = {idx for idx, (b, a) in enumerate(zip(before, after))
                   if a != b and a == edge}
        assert flipped == on_edge
        assert (engine.last_update.heap_pulls > 0) == bool(flipped)
        assert compare_states(engine_snapshot(engine),
                              view.recompute_state(engine.registry)) == []
        return after[target], target in flipped

    walk = [f"w{k}" for k in range(-slack)]
    for k, cid in enumerate(walk, start=1):
        assert step("insert", cid) == (slack + k, k == -slack)
    for k, cid in enumerate(reversed(walk), start=1):
        assert step("delete", cid) == (-k, k == 1)
    assert engine.annotations.slack[target] == slack
