"""Each node's parent and unit weight live in two per-node lists of the
hierarchy, ``parents`` and ``unit_weights``, which the engine's updates and
rebuild read; ``TripletNode`` keeps no slot for them, and its ``parent`` and
``unit_weight`` properties read those lists.

Checked on the hierarchy digest corpus at its four scales, the many-level
``deep`` instance of ``tools/build_sweep.py`` and the three benchmark
instances at the scales of their seed-1 prefills.
"""

import hashlib
import importlib.util
import random
from pathlib import Path

import pytest

import helpers
from netfloc import Hierarchy, derive_parameters
from netfloc.hierarchy import TripletNode
from netfloc.instance import largest_power_of_five_at_most
from test_hierarchy_digest import INSTANCES, SCALES
from test_shared_levels import benchmark_instance

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "build_sweep.py"


def assert_node_lists(h: Hierarchy) -> None:
    """The two lists hold each node's parent id object (None at the root)
    and 5**(r - rho_min), one int object per level, and the node's
    properties return those very objects."""
    assert not {"parent", "unit_weight"} & set(TripletNode.__slots__)
    nodes, parents, weights = h.nodes, h.parents, h.unit_weights
    assert len(parents) == len(weights) == len(nodes)
    assert parents[h.root] is None
    rho_min = h.params.rho_min
    for node, parent, weight, pid in zip(nodes, parents, weights, h.parent_ids.tolist()):
        assert node.parent is parent and node.unit_weight is weight
        if pid < 0:
            assert parent is None
        else:
            assert type(parent) is int and parent == pid and parent is nodes[pid].idx
        assert type(weight) is int and weight == 5 ** (node.r - rho_min)
    for ids in h.by_level.values():
        assert len({id(weights[i]) for i in ids}) == 1


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_digest_corpus_node_lists(name):
    seed = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
    instance = INSTANCES[name](random.Random(seed))
    for n in SCALES:
        assert_node_lists(Hierarchy(instance, derive_parameters(instance, n)))


def test_deep_node_lists():
    spec = importlib.util.spec_from_file_location("build_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    instance = sweep.deep_instance()
    hierarchy = instance.hierarchy(derive_parameters(instance, 0))
    assert hierarchy.params.delta == 872
    assert_node_lists(hierarchy)


@pytest.mark.parametrize("workload", ["churn-l2", "flap-625", "verify-matrix"])
def test_benchmark_node_lists(workload):
    instance = benchmark_instance(workload)
    n = largest_power_of_five_at_most(helpers.benchmark_inputs(workload, 1).prefill)
    assert_node_lists(instance.hierarchy(derive_parameters(instance, n)))
