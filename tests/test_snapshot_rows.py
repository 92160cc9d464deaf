"""Snapshot annotation lists in the verified replay: ``verify_trace``
allocates one ``Annotations`` per engine rebuild and none for its checks,
and a corruption of any single annotation field is named by node and field
in the node-by-node diff."""

import pytest

import netfloc.engine as engine_mod
from netfloc import Annotations, verify_trace
from test_harness import _matrix_benchmark_case

FIELDS = Annotations._fields


def test_verify_trace_builds_annotations_only_on_rebuilds(monkeypatch):
    # The engine allocates one Annotations per rebuild, its construction
    # and every level shift; steady updates allocate none, and neither do
    # the checks between the events.
    instance, trace = _matrix_benchmark_case()
    built = [0]

    def counting(*lists):
        built[0] += 1
        return Annotations(*lists)

    seen = {"annotations": [], "at_hook": 0}

    def watch(engine, index):
        # Between two hooks lie the previous event's checks and this event.
        held = seen["annotations"]
        rebuilt = not held or engine.annotations is not held[-1]
        assert built[0] - seen["at_hook"] == rebuilt, index
        seen["at_hook"] = built[0]
        if rebuilt:
            held.append(engine.annotations)

    monkeypatch.setattr(engine_mod, "Annotations", counting)
    assert verify_trace(instance, trace, corruption=watch)[0] == 0
    assert built[0] == seen["at_hook"]   # the last event's checks built none
    held = seen["annotations"]
    assert len(held) >= 3 and len({id(values) for anns in held for values in anns}) == 8 * len(held)


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
