"""Golden ``Engine.state_hash`` digests.

``tests/data/state_hash_golden.json`` holds the digests this module's cases
produce, recorded before the abundance counters became one ``slack`` field;
a change to how the engine stores its state must leave every one of them
unchanged.  The cases:

- line5's trace, after every event;
- churn-l2 (seed 1): the prefill, then every 100th of the first 1,000 cycle
  mutations;
- flap-625 (seed 1): the 624-client prefill, then 625 clients after the first
  insert;
- verify-matrix (seed 1): after every mutation that moves the live count
  across 5, 25 or 125;
- the seeded crossing traces of ``helpers.crossing_case`` for each of the
  ``NETFLOC_SEED`` values 0, 1 and 2: one digest over the state hashes after
  every event, per instance kind.
"""

import hashlib
import json
from pathlib import Path

import pytest

from helpers import CROSSING_KINDS, benchmark_case, crossing_case, default_seed
from netfloc import Engine, Instance, parse_trace

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "state_hash_golden.json").read_text())
SEEDS_RECORDED = (0, 1, 2)


def apply(engine, event) -> None:
    """Apply a trace event or a (kind, cid, point) mutation; queries change
    nothing."""
    kind, cid, point = event
    if kind == "insert":
        engine.insert_client(cid, point)
    elif kind == "delete":
        engine.delete_client(cid)


def line5_digests() -> list[str]:
    engine = Engine(Instance.load(DATA / "line5.json"))
    out = []
    for event in parse_trace(DATA / "line5.trace"):
        apply(engine, event)
        out.append(engine.state_hash())
    return out


def churn_digests() -> list[str]:
    instance, prefill, mutations = benchmark_case("churn-l2")
    engine = Engine.from_clients(instance, prefill)
    out = [engine.state_hash()]
    for k, event in enumerate(mutations[:1000], start=1):
        apply(engine, event)
        if k % 100 == 0:
            out.append(engine.state_hash())
    return out


def flap_digests() -> list[str]:
    instance, prefill, mutations = benchmark_case("flap-625")
    engine = Engine.from_clients(instance, prefill)
    out = [engine.state_hash()]
    apply(engine, mutations[0])
    assert len(engine.registry) == 625
    out.append(engine.state_hash())
    return out


def matrix_digests() -> list[str]:
    instance, _, mutations = benchmark_case("verify-matrix")
    engine = Engine(instance)
    out = []
    for event in mutations:
        before = len(engine.registry)
        apply(engine, event)
        after = len(engine.registry)
        if any(min(before, after) < b <= max(before, after) for b in (5, 25, 125)):
            out.append(engine.state_hash())
    return out


def crossing_digest(kind: str, seed: int) -> str:
    instance, trace = crossing_case(kind, seed)
    engine = Engine(instance)
    h = hashlib.sha256()
    for event in trace:
        apply(engine, event)
        h.update(engine.state_hash().encode())
    return h.hexdigest()


def test_line5_trace_after_every_event():
    assert line5_digests() == GOLDEN["line5"]


def test_churn_prefill_and_every_100th_mutation():
    assert churn_digests() == GOLDEN["churn-l2"]


def test_flap_at_624_and_625_clients():
    digests = flap_digests()
    assert digests == GOLDEN["flap-625"]
    instance, prefill, mutations = benchmark_case("flap-625")
    engine = Engine.from_clients(instance, prefill)
    apply(engine, mutations[0])
    apply(engine, mutations[1])
    assert engine.state_hash() == digests[0]     # back at 624


def test_matrix_after_every_crossing():
    digests = matrix_digests()
    assert len(digests) == 9                     # three crossings of each boundary
    assert digests == GOLDEN["verify-matrix"]


@pytest.mark.parametrize("kind", CROSSING_KINDS)
def test_seeded_crossing_trace(kind):
    seed = default_seed()
    if seed not in SEEDS_RECORDED:
        pytest.skip(f"no golden recorded for NETFLOC_SEED={seed}")
    assert crossing_digest(kind, seed) == GOLDEN[f"crossing-{kind}-seed{seed}"]
