"""Snapshot annotation lists in the verified replay: ``verify_trace``
allocates the engine's annotation lists only on a first visit to a scale,
and a corruption of any single annotation field is named by node and field
in the node-by-node diff."""

import pytest

import netfloc.engine as engine_mod
from netfloc import Annotations, verify_trace
from test_harness import _matrix_benchmark_case

FIELDS = Annotations._fields


def test_verify_trace_builds_annotations_only_on_first_visits(monkeypatch):
    # The engine allocates its eight annotation lists on its first visit to
    # a scale; later updates and revisits refill them, whatever the checks
    # between the events do.
    instance, trace = _matrix_benchmark_case()
    built = [0]

    def counting(*lists):
        built[0] += len(lists)
        return Annotations(*lists)

    seen = {"visited": set(), "at_hook": 0}

    def watch(engine, index):
        # Between two hooks lie the previous event's checks and this event.
        new = set(engine._annotations) - seen["visited"]
        assert built[0] - seen["at_hook"] == len(FIELDS) * len(new), index
        seen["at_hook"] = built[0]
        seen["visited"] |= new

    monkeypatch.setattr(engine_mod, "Annotations", counting)
    assert verify_trace(instance, trace, corruption=watch)[0] == 0
    assert built[0] == seen["at_hook"]   # the last event's checks built none
    assert len(seen["visited"]) >= 2
    assert built[0] == len(FIELDS) * len(seen["visited"])


@pytest.mark.parametrize("name", FIELDS)
def test_verify_trace_names_each_corrupted_field(name):
    instance, trace = _matrix_benchmark_case()
    at = [i for i, e in enumerate(trace) if e.kind in ("insert", "delete")][300]
    where = []

    def corruption(engine, index):
        if index == at:
            point = next(iter(engine.registry.values()))
            idx = engine.hierarchy.area_chain(point)[0]
            values = getattr(engine.annotations, name)
            value = values[idx]
            values[idx] = not value if type(value) is bool else value + 1
            node = engine.hierarchy.nodes[idx]
            where.append(f"node (j={node.facility},r={node.r},s={node.color}): ")

    code, lines = verify_trace(instance, trace, corruption=corruption)
    assert code == 1
    assert all(line.startswith(f"event {at}: ") for line in lines), lines
    assert any(line.startswith(f"event {at}: {where[0]}{name} left=") for line in lines), lines
