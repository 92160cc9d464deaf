"""Exact work counts of the engine's updates on three seeded scenarios.

    python3 tools/update_sweep.py

Each scenario runs in this process over the package in ``src`` and the
seed-1 inputs of ``perfbench/inputs.py``:

- ``churn-l2``: the workload's instance and prefill (``Engine.from_clients``),
  then one pass of its cycle, every insert and delete after the prefill;
- ``flap-625``: the same for flap-625, where every update shifts the scale;
- ``ramp``: a fresh churn-l2 ``Instance`` (no hierarchy built yet) and an
  empty engine, then 16,000 inserts at points drawn by
  ``random.Random("update-sweep-ramp")``, crossing every scale from 0 up.

Each prints one line: ``updates``, the updates made, and ``rebuilt``, those
whose ``last_update.rebuilt`` is set (the scale shifted); ``carried``, the
shifts whose state ``Engine._carry`` carried over, and ``pass_nodes``, the
nodes that full passes (``Engine._full_pass``) visited during the updates,
both counted by wrappers in this tool; for each of ``affected``,
``heap_pulls`` and ``flips`` of ``last_update``, the sum over the updates
and the maximum, with ``@`` the live client count after the first update
that reaches it; and ``builds``, the hierarchies built during the updates
(set-up excluded), counted by a wrapper on ``Instance.hierarchy`` that sees
each hierarchy object it returns for the first time.  The counts are exact
and repeat on every run; timings are left to perfbench.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAMP_INSERTS = 16000
COUNTERS = ("affected", "heap_pulls", "flips")


def load_inputs():
    """perfbench's input generators (standard library only), by path."""
    name = "perfbench_inputs"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module   # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module.GENERATORS


class Shifts:
    """Counts the carried shifts and the nodes of the full passes that an
    ``Engine`` class runs while ``counting`` is set."""

    def __init__(self, engine_cls):
        self.counting = False
        self.carried = self.pass_nodes = 0
        carry, full_pass = engine_cls._carry, engine_cls._full_pass

        def counted_carry(engine, *args):
            done = carry(engine, *args)
            self.carried += self.counting and done
            return done

        def counted_pass(engine, *args):
            full_pass(engine, *args)
            self.pass_nodes += self.counting and len(engine.hierarchy.nodes)

        engine_cls._carry, engine_cls._full_pass = counted_carry, counted_pass


class Builds:
    """Counts the hierarchies that ``Instance.hierarchy`` returns for the
    first time while ``counting`` is set."""

    def __init__(self, instance_cls):
        self.seen: set = set()
        self.counting = False
        self.built = 0
        original = instance_cls.hierarchy

        def hierarchy(instance, params):
            result = original(instance, params)
            if result not in self.seen:
                self.seen.add(result)
                self.built += self.counting
            return result

        instance_cls.hierarchy = hierarchy


def sweep(name: str, engine, mutations, builds: Builds, shifts: Shifts) -> str:
    """Apply ``mutations``, (kind, cid, point) triples, to ``engine`` and
    describe their counters in one line."""
    sums = dict.fromkeys(COUNTERS, 0)
    peaks = {c: (-1, 0) for c in COUNTERS}
    rebuilt = 0
    builds.counting, builds.built = True, 0
    shifts.counting, shifts.carried, shifts.pass_nodes = True, 0, 0
    for kind, cid, point in mutations:
        if kind == "insert":
            engine.insert_client(cid, point)
        else:
            engine.delete_client(cid)
        stats = engine.last_update
        rebuilt += stats.rebuilt
        for c in COUNTERS:
            value = getattr(stats, c)
            sums[c] += value
            if value > peaks[c][0]:
                peaks[c] = (value, len(engine.registry))
    builds.counting = shifts.counting = False
    fields = [f"updates={len(mutations)}", f"rebuilt={rebuilt}",
              f"carried={shifts.carried}", f"pass_nodes={shifts.pass_nodes}"]
    for c in COUNTERS:
        fields.append(f"{c}_sum={sums[c]} {c}_max={peaks[c][0]}@{peaks[c][1]}")
    fields.append(f"builds={builds.built}")
    return f"{name} " + " ".join(fields)


def cycle_case(generators, workload: str):
    """The workload's seed-1 engine after its prefill, and one cycle."""
    from netfloc import Engine, Instance
    from netfloc.harness import parse_trace_text

    inputs = generators[workload](1)
    instance = Instance.from_dict(json.loads(inputs.instance_text))
    events = parse_trace_text(inputs.trace_text)
    engine = Engine.from_clients(instance, {e.cid: e.point for e in events[:inputs.prefill]})
    mutations = [(e.kind, e.cid, e.point) for e in events[inputs.prefill:]
                 if e.kind in ("insert", "delete")]
    return engine, mutations


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from netfloc import Engine, Instance

    generators = load_inputs()
    builds, shifts = Builds(Instance), Shifts(Engine)
    for workload in ("churn-l2", "flap-625"):
        engine, mutations = cycle_case(generators, workload)
        print(sweep(workload, engine, mutations, builds, shifts), flush=True)
    instance = Instance.from_dict(json.loads(generators["churn-l2"](1).instance_text))
    rng = random.Random("update-sweep-ramp")
    mutations = [("insert", f"r{i}", rng.randrange(instance.n_points))
                 for i in range(RAMP_INSERTS)]
    print(sweep("ramp", Engine(instance), mutations, builds, shifts), flush=True)


if __name__ == "__main__":
    main()
