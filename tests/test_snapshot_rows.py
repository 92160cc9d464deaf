"""Snapshot annotation rows in the verified replay: ``verify_trace`` builds no
``NodeAnnotation`` per mutation, and a corruption of any single annotation
field is named by node and field in the position-based row diff."""

from dataclasses import fields

import pytest

from netfloc import NodeAnnotation, verify_trace
from test_harness import _matrix_benchmark_case

FIELDS = [f.name for f in fields(NodeAnnotation)]


def test_verify_trace_builds_annotations_only_on_first_visits(monkeypatch):
    # The engine allocates one annotation per node on its first visit to a
    # scale; neither the oracle nor the snapshot builds any per mutation.
    instance, trace = _matrix_benchmark_case()
    built = [0]
    real_init = NodeAnnotation.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        real_init(self, *args, **kwargs)

    seen = {"visited": set(), "at_hook": 0}

    def watch(engine, index):
        # Between two hooks lie the previous event's checks and this event.
        new = set(engine._annotations) - seen["visited"]
        allocated = sum(len(instance.hierarchy(p).nodes) for p in new)
        assert built[0] - seen["at_hook"] == allocated, index
        seen["at_hook"] = built[0]
        seen["visited"] |= new

    monkeypatch.setattr(NodeAnnotation, "__init__", counting_init)
    assert verify_trace(instance, trace, corruption=watch)[0] == 0
    assert built[0] == seen["at_hook"]   # the last event's checks built none
    assert len(seen["visited"]) >= 2
    assert built[0] == sum(len(instance.hierarchy(p).nodes) for p in seen["visited"])


@pytest.mark.parametrize("name", FIELDS)
def test_verify_trace_names_each_corrupted_field(name):
    instance, trace = _matrix_benchmark_case()
    at = [i for i, e in enumerate(trace) if e.kind in ("insert", "delete")][300]
    where = []

    def corruption(engine, index):
        if index == at:
            point = next(iter(engine.registry.values()))
            idx = engine.hierarchy.area_chain(point)[0]
            a = engine.annotations[idx]
            value = getattr(a, name)
            setattr(a, name, not value if type(value) is bool else value + 1)
            node = engine.hierarchy.nodes[idx]
            where.append(f"node (j={node.facility},r={node.r},s={node.color}): ")

    code, lines = verify_trace(instance, trace, corruption=corruption)
    assert code == 1
    assert all(line.startswith(f"event {at}: ") for line in lines), lines
    assert any(line.startswith(f"event {at}: {where[0]}{name} left=") for line in lines), lines
