"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line.  The differential fuzz corpus (random instances times random
update traces, cross-checked against the from-scratch evaluation after every
single mutation) is shared across the criteria that consume per-state data.
"""

import random
import time
from dataclasses import dataclass, field

import pytest

import helpers
from helpers import default_seed, random_instance, random_trace
from netfloc import (APPROX_FACTOR, PAYMENT_BOUND_FACTOR, Engine, OracleView,
                     brute_force_opt, compare_states, engine_snapshot,
                     logical_violations, parse_trace, run_trace, verify_trace)
from netfloc.harness import opt_command

EQUIV_INSTANCES = 50
EQUIV_EVENTS = 200
APPROX_INSTANCES = 200
PAYMENT_SLACK = 1e-9


def report(name: str, ok: bool, extra: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{extra}")


@dataclass
class CorpusStats:
    instances: int = 0
    mutations: int = 0
    mismatches: list = field(default_factory=list)
    logical: list = field(default_factory=list)
    payment: list = field(default_factory=list)
    reversibility: list = field(default_factory=list)
    clean_once: list = field(default_factory=list)
    max_payment_ratio: float = 0.0
    level_shifts: int = 0
    elapsed: float = 0.0


@pytest.fixture(scope="session")
def fuzz_corpus() -> CorpusStats:
    rng = random.Random(default_seed() or 987654321)
    stats = CorpusStats()
    started = time.perf_counter()
    for k in range(EQUIV_INSTANCES):
        inst = random_instance(rng, n_facilities=rng.randint(2, 40),
                               n_pool_points=rng.randint(10, 60))
        engine = Engine(inst)
        view = OracleView(inst, engine.hierarchy)
        for i, event in enumerate(random_trace(rng, inst, EQUIV_EVENTS)):
            try:
                if event.kind == "insert":
                    engine.insert_client(event.cid, event.point)
                else:
                    engine.delete_client(event.cid)
            except RuntimeError as exc:
                stats.clean_once.append(f"instance {k} event {i}: {exc}")
                break
            stats.mutations += 1
            if view.hierarchy is not engine.hierarchy:
                view = OracleView(inst, engine.hierarchy)
                stats.level_shifts += 1
            expected = view.recompute_state(dict(engine.registry.items()))
            snapshot = engine_snapshot(engine)
            mism = compare_states(snapshot, expected)
            if mism:
                stats.mismatches.append(f"instance {k} event {i}: {mism[0]}")
            problems = logical_violations(view, engine, snapshot)
            if problems:
                stats.logical.append(f"instance {k} event {i}: {problems[0]}")
            cost = engine.cost_query()
            realized = engine.realized_cost(snapshot.assignments)
            if realized > PAYMENT_BOUND_FACTOR * cost * (1 + PAYMENT_SLACK):
                stats.payment.append(
                    f"instance {k} event {i}: {realized} > "
                    f"{PAYMENT_BOUND_FACTOR * cost}")
            if cost > 0:
                stats.max_payment_ratio = max(stats.max_payment_ratio,
                                              realized / cost)
            if i % 50 == 25:
                before = engine.state_hash()
                probe_point = rng.randrange(inst.n_points)
                engine.insert_client("probe", probe_point)
                engine.delete_client("probe")
                if engine.state_hash() != before:
                    stats.reversibility.append(f"instance {k} event {i}")
    stats.instances = EQUIV_INSTANCES
    stats.elapsed = time.perf_counter() - started
    return stats


def test_oracle_equivalence(fuzz_corpus):
    ok = not fuzz_corpus.mismatches
    report("oracle-equivalence", ok,
           f" ({fuzz_corpus.instances} instances, {fuzz_corpus.mutations} "
           f"mutations, {fuzz_corpus.level_shifts} level shifts, "
           f"{fuzz_corpus.elapsed:.1f}s)")
    assert ok, fuzz_corpus.mismatches[:5]


def test_approximation_bound():
    rng = random.Random(default_seed() or 24601)
    violations = []
    worst_realized = 0.0
    worst_cost = 0.0
    for k in range(APPROX_INSTANCES):
        inst = random_instance(rng, n_facilities=rng.randint(1, 12),
                               n_pool_points=rng.randint(5, 40))
        engine = Engine(inst)
        clients = {}
        for i in range(rng.randint(1, 30)):
            point = rng.randrange(inst.n_points)
            clients[f"c{i}"] = point
            engine.insert_client(f"c{i}", point)
        opt = brute_force_opt(inst, clients)
        realized = engine.realized_cost(engine.assignments())
        cost = engine.cost_query()
        if realized > APPROX_FACTOR * opt.cost:
            violations.append(f"instance {k}: realized {realized} vs opt {opt.cost}")
        if cost > 5 * opt.cost:
            violations.append(f"instance {k}: cost {cost} vs opt {opt.cost}")
        worst_realized = max(worst_realized, realized / opt.cost)
        worst_cost = max(worst_cost, cost / opt.cost)
    ok = not violations
    report("approximation-bound", ok,
           f" (max realized/OPT {worst_realized:.2f} of {APPROX_FACTOR}, "
           f"max cost/OPT {worst_cost:.2f} of 5)")
    assert ok, violations[:5]


def test_payment_inequality(fuzz_corpus):
    ok = not fuzz_corpus.payment
    report("payment-inequality", ok,
           f" (max realized/cost {fuzz_corpus.max_payment_ratio:.2f} "
           f"of {PAYMENT_BOUND_FACTOR})")
    assert ok, fuzz_corpus.payment[:5]


def test_structural_suite(line5, line5_cheap_f1):
    rng = random.Random(default_seed() or 5550123)
    instances = [line5, line5_cheap_f1]
    instances += [random_instance(rng, n_facilities=rng.randint(2, 40),
                                  n_pool_points=rng.randint(10, 50))
                  for _ in range(14)]
    problems = []
    for k, inst in enumerate(instances):
        found = helpers.structural_problems(inst, helpers.build(inst))
        problems += [f"instance {k}: {p}" for p in found]
    ok = not problems
    report("structural-suite", ok, f" ({len(instances)} instances)")
    assert ok, problems[:5]


def test_logical_suite(fuzz_corpus):
    ok = not fuzz_corpus.logical
    report("logical-suite", ok, f" ({fuzz_corpus.mutations} states checked)")
    assert ok, fuzz_corpus.logical[:5]


def test_clean_once_and_reversibility(fuzz_corpus):
    ok = not fuzz_corpus.clean_once and not fuzz_corpus.reversibility
    report("clean-once-and-reversibility", ok)
    assert ok, (fuzz_corpus.clean_once[:3], fuzz_corpus.reversibility[:3])


def test_level_shift(line5):
    rng = random.Random(default_seed() or 777)
    small = random_instance(rng, n_facilities=3, n_pool_points=12)
    failures = []
    for name, inst in (("line5", line5), ("random", small)):
        engine = Engine(inst)
        view = OracleView(inst, engine.hierarchy)
        shifts = 0
        live = {}
        script = [("+", f"g{i}", rng.randrange(inst.n_points)) for i in range(30)]
        script += [("-", f"g{i}", None) for i in reversed(range(30))]
        for step, (op, cid, point) in enumerate(script):
            if op == "+":
                engine.insert_client(cid, point)
                live[cid] = point
            else:
                engine.delete_client(cid)
                live.pop(cid)
            if view.hierarchy is not engine.hierarchy:
                view = OracleView(inst, engine.hierarchy)
                shifts += 1
            fresh = Engine.from_clients(inst, live)
            if engine.state_hash() != fresh.state_hash():
                failures.append(f"{name} step {step}: scratch rebuild differs")
            if compare_states(engine_snapshot(engine),
                              view.recompute_state(live)):
                failures.append(f"{name} step {step}: oracle mismatch")
        if shifts < 2:
            failures.append(f"{name}: only {shifts} shifts exercised")
    ok = not failures
    report("level-shift", ok)
    assert ok, failures[:5]


def test_line5_golden_trace(line5, data_dir):
    trace = parse_trace(data_dir / "line5.trace")
    outputs = run_trace(line5, trace)
    code, _ = verify_trace(line5, trace)
    opt_one = dict(line.split("=") for line in
                   opt_command(line5, trace[:1]).splitlines())
    opt_three = dict(line.split("=") for line in
                     opt_command(line5, trace).splitlines())
    ok = (outputs == ["25", "F0", "15", "F0"] and code == 0
          and opt_one["OPT"] == "10" and opt_one["realized"] == "110"
          and opt_three["OPT"] == "11" and opt_three["realized"] == "311")
    report("line5-golden-trace", ok, f" (outputs {outputs})")
    assert ok


def test_scaling_smoke():
    rng = random.Random(default_seed() or 31415)
    inst = random_instance(rng, n_facilities=20, n_pool_points=300)
    rows = []
    for size in (1_000, 10_000, 100_000):
        engine = Engine(inst)
        pulls = 0
        started = time.perf_counter()
        for i in range(size):
            engine.insert_client(i, rng.randrange(inst.n_points))
            pulls += engine.last_update.heap_pulls
        insert_us = (time.perf_counter() - started) / size * 1e6
        started = time.perf_counter()
        for _ in range(2000):
            engine.cost_query()
        query_ns = (time.perf_counter() - started) / 2000 * 1e9
        rows.append((size, pulls / size, insert_us, query_ns))
    table = "; ".join(
        f"|C|={size}: {pulls:.2f} pulls/update, {us:.0f}us/insert, "
        f"cost_query {ns:.0f}ns" for size, pulls, us, ns in rows)
    report("scaling-smoke", True, f" (informational: {table})")
