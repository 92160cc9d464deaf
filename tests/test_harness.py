import json
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from netfloc import (Engine, Hierarchy, Instance, InstanceError, OracleView, TraceError,
                     TraceEvent, bench_trace, derive_parameters,
                     largest_power_of_five_at_most, opt_command, parse_trace,
                     parse_trace_text, run_trace, verify_trace)
from netfloc.harness import main
from netfloc.instance import echo

from helpers import benchmark_inputs, default_seed, random_instance, random_trace


def test_parse_instance_line5(data_dir):
    inst = Instance.load(data_dir / "line5.json")
    assert inst.n_points == 5 and len(inst.facilities) == 2
    assert inst.kappa == 2


def test_parse_instance_rejects_negative_cost(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "metric": {"kind": "euclidean-L2", "points": [[0]]},
        "facilities": [{"point": 0, "cost": -1}],
    }))
    with pytest.raises(InstanceError, match="positive opening cost"):
        Instance.load(path)


def test_parse_instance_rejects_asymmetric_matrix(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "metric": {"kind": "explicit-matrix", "matrix": [[0, 5], [4, 0]]},
        "facilities": [{"point": 0, "cost": 1}],
    }))
    with pytest.raises(InstanceError, match=r"pair \(0, 1\)"):
        Instance.load(path)


def test_parse_instance_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"metric": }')
    with pytest.raises(InstanceError, match="line 1 column"):
        Instance.load(path)


def test_parse_trace_accepts_p_prefix_and_comments():
    events = parse_trace_text("# hello\n+ c1 P3\n\n? cost\n- c1\n? solution\n")
    assert events == [
        TraceEvent("insert", "c1", 3),
        TraceEvent("cost"),
        TraceEvent("delete", "c1"),
        TraceEvent("solution"),
    ]


def test_parse_trace_rejects_delete_before_insert():
    with pytest.raises(TraceError, match="line 1: delete of non-live"):
        parse_trace_text("- c9\n")


def test_parse_trace_rejects_duplicate_live_insert():
    with pytest.raises(TraceError, match="line 2: client 'c1' already live"):
        parse_trace_text("+ c1 0\n+ c1 1\n")


def test_parse_trace_rejects_garbage():
    with pytest.raises(TraceError, match="line 3: unrecognized"):
        parse_trace_text("+ c1 0\n- c1\n* boom\n")
    with pytest.raises(TraceError, match="bad point index"):
        parse_trace_text("+ c1 Px\n")


def reference_parse(text: str) -> list[tuple]:
    """The line-by-line parser that ``parse_trace_text`` must match: each
    event as a (kind, cid, point) tuple, the same errors with the same
    messages."""
    events, live = [], set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "+" and len(parts) == 3:
            cid = parts[1]
            if cid in live:
                raise TraceError(f"line {line_no}: client {cid!r} already live")
            live.add(cid)
            token = parts[2]
            raw_point = token[1:] if token[:1] in ("P", "p") else token
            try:
                point = int(raw_point)
            except ValueError:
                raise TraceError(f"line {line_no}: bad point index {token!r}") from None
            if point < 0:
                raise TraceError(f"line {line_no}: bad point index {token!r}")
            events.append(("insert", cid, point))
        elif parts[0] == "-" and len(parts) == 2:
            cid = parts[1]
            if cid not in live:
                raise TraceError(f"line {line_no}: delete of non-live client {cid!r}")
            live.remove(cid)
            events.append(("delete", cid, None))
        elif parts[0] == "?" and len(parts) == 2 and parts[1] in ("cost", "solution"):
            events.append((parts[1], None, None))
        else:
            raise TraceError(f"line {line_no}: unrecognized event {line!r}")
    return events


@pytest.mark.parametrize("workload", ("churn-l2", "flap-625", "verify-matrix"))
def test_parse_trace_equals_reference_on_benchmark_traces(workload):
    text = benchmark_inputs(workload, 1).trace_text
    assert [tuple(e) for e in parse_trace_text(text)] == reference_parse(text)


def test_parse_trace_equals_reference_on_line5(data_dir):
    text = (data_dir / "line5.trace").read_text(encoding="utf-8")
    events = parse_trace(data_dir / "line5.trace")
    assert [tuple(e) for e in events] == reference_parse(text)
    assert [e.kind for e in events][:3] == ["insert", "cost", "solution"]


def test_parse_trace_comments_and_blanks_equal_reference():
    text = "#x\n   # y z\n\t\n+ c1 p4\r\n#\n ? cost \n\x0c\n-  c1\n? solution"
    assert [tuple(e) for e in parse_trace_text(text)] == reference_parse(text) == [
        ("insert", "c1", 4), ("cost", None, None), ("delete", "c1", None),
        ("solution", None, None)]


@pytest.mark.parametrize("token", ["1_0", "+1", "P1_0", "\u0661"])
def test_point_index_accepts_only_ascii_digits(token):
    # int() reads each of these (as 10, 1, 10 and 1); a trace does not.
    with pytest.raises(TraceError) as got:
        parse_trace_text(f"+ c1 {token}\n")
    assert str(got.value) == f"line 1: bad point index {token!r}"


@pytest.mark.parametrize("text", [
    "+ c1 0\n+ c1 1\n",
    "- c9\n",
    "+ c1 0\n- c1\n- c1\n",
    "# ok\n\n+ c1 Px\n",
    "+ c1 -3\n",
    "+ c1 P\n",
    "+ c1\n",
    "+ c1 0 7\n",
    "-\n",
    "  * boom  \t\n",
    "*   boom\tnow \n",
    "? costs\n",
    "? cost now\n",
    "?cost\n",
    "+ c1 0\r\n\x0b- c2\n",
    "+ c1 0\n - c2\n",
])
def test_parse_trace_errors_equal_reference(text):
    with pytest.raises(TraceError) as expected:
        reference_parse(text)
    with pytest.raises(TraceError) as got:
        parse_trace_text(text)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("line", [
    "? cost", "?  cost", "? cost ", "\t? solution", "? solution\r", "?\u00a0cost",
    "?\u2003solution", " ?\t\tcost\u00a0",
])
def test_parse_trace_query_spellings_equal_reference(line):
    # Every spelling of a query line, canonical or not, parses to the one
    # shared event of its kind.
    text = f"+ c1 3\r\n{line}\r\n{line}\n? cost\n? solution\n+\u00a0c2\u20034\n"
    events = parse_trace_text(text)
    assert [tuple(e) for e in events] == reference_parse(text)
    queries = [e for e in events if e.kind in ("cost", "solution")]
    shared = {"cost": parse_trace_text("? cost")[0], "solution": parse_trace_text("? solution")[0]}
    assert len(queries) == 4 and all(e is shared[e.kind] for e in queries)


@pytest.mark.parametrize("line", ["?cost", "? COST", "? Cost", "?? cost", "? cost cost"])
def test_parse_trace_rejects_query_misspellings_as_reference_does(line):
    with pytest.raises(TraceError) as expected:
        reference_parse(f"+ c1 3\n{line}\n")
    with pytest.raises(TraceError) as got:
        parse_trace_text(f"+ c1 3\n{line}\n")
    assert str(got.value) == str(expected.value) == f"line 2: unrecognized event {line!r}"


@pytest.mark.parametrize("token", ["7" * 5000, "P" + "7" * 5000], ids=["bare", "prefixed"])
def test_parse_trace_rejects_a_5000_digit_point_index(token):
    # More digits than int() converts: a bad point index, not a ValueError.
    with pytest.raises(TraceError) as got:
        parse_trace_text(f"+ c1 {token}\n")
    assert str(got.value) == f"line 1: bad point index {echo(token)}"


def test_parse_trace_events_equal_the_constructed_ones(data_dir):
    # Events built without the named tuple's constructor are still its
    # instances, equal to constructed ones.
    events = parse_trace(data_dir / "line5.trace")
    assert all(type(e) is TraceEvent for e in events)
    assert events == [TraceEvent(*tuple(e)) for e in events]


def test_trace_events_are_immutable():
    event = parse_trace_text("+ c1 3\n")[0]
    assert event == TraceEvent("insert", "c1", 3)
    assert (event.kind, event.cid, event.point) == ("insert", "c1", 3)
    with pytest.raises(AttributeError):
        event.point = 4
    with pytest.raises(AttributeError):
        TraceEvent("cost").kind = "solution"


def test_run_trace_golden_line5(line5, data_dir):
    trace = parse_trace(data_dir / "line5.trace")
    outputs = run_trace(line5, trace)
    assert outputs == ["25", "F0", "15", "F0"]
    assert verify_trace(line5, trace) == (0, outputs)


def test_run_trace_insert_delete_costs_zero(line5):
    assert run_trace(line5, parse_trace_text("+ c1 3\n- c1\n? cost\n")) == ["0"]


def test_run_trace_solution_output(line5):
    assert run_trace(line5, parse_trace_text("+ c1 3\n? solution\n")) == ["F0"]


def test_run_trace_output_count_matches_queries(line5):
    rng = random.Random(3)
    trace = []
    for ev in random_trace(rng, line5, 30):
        trace.append(ev)
        trace.append(TraceEvent("cost"))
    assert len(run_trace(line5, trace)) == 30


def test_verify_trace_clean(line5, data_dir):
    code, lines = verify_trace(line5, parse_trace(data_dir / "line5.trace"))
    assert code == 0
    assert lines == ["25", "F0", "15", "F0"]


def test_verify_trace_detects_corruption(line5, data_dir):
    def corrupt(engine, index):
        if index == 2:
            engine.annotations.slack[1] += 1

    code, lines = verify_trace(line5, parse_trace(data_dir / "line5.trace"),
                               corruption=corrupt)
    assert code == 1
    assert any("slack" in line and "event" in line for line in lines)


def test_verify_trace_detects_bit_corruption(line5, data_dir):
    def corrupt(engine, index):
        if index == 3:
            engine.annotations.is_enabled[2] = not engine.annotations.is_enabled[2]

    code, lines = verify_trace(line5, parse_trace(data_dir / "line5.trace"),
                               corruption=corrupt)
    assert code == 1 and any("is_enabled" in line for line in lines)


def test_verify_random_trace(line5):
    rng = random.Random(13)
    code, _ = verify_trace(line5, random_trace(rng, line5, 60))
    assert code == 0


def _matrix_benchmark_case():
    inputs = benchmark_inputs("verify-matrix", 1)
    return (Instance.from_dict(json.loads(inputs.instance_text)),
            parse_trace_text(inputs.trace_text))


def test_verify_trace_routes_each_area_once_per_open_set(monkeypatch):
    """The engine routes an area only when it is a live client's lowest
    enabled area, at most once while the (hierarchy, open set) key holds, so
    the seed-1 matrix trace routes fewer areas than it has mutations, where
    routing every such area at every mutation took ~21 per mutation.  The
    assignments themselves are compared with the oracle's at every
    mutation by verify_trace."""
    instance, trace = _matrix_benchmark_case()
    real_route = Engine._route
    per_event = []   # (event, memo key, distinct lowest enabled areas, routings)

    def counting_route(self, area_idx):
        per_event[-1][3][area_idx] += 1
        return real_route(self, area_idx)

    def start_event(engine, index):
        enabled = engine.annotations.is_enabled
        areas = {next(idx for idx in engine.hierarchy.area_chain(point)
                      if enabled[idx])
                 for point in engine.registry.values()}
        key = (engine.hierarchy, frozenset(engine.open_nodes))
        per_event.append((trace[index], key, areas, Counter()))

    monkeypatch.setattr(Engine, "_route", counting_route)
    assert verify_trace(instance, trace, corruption=start_event)[0] == 0
    assert len(per_event) == len(trace)
    mutations = routings = 0
    # Routings per area since the last mutation whose key differed.
    held_key, held = None, Counter()
    for event, key, areas, routed in per_event:
        if event.kind not in ("insert", "delete"):
            assert not routed, event
            continue
        mutations += 1
        routings += routed.total()
        assert routed.keys() <= areas, event
        if key != held_key:
            held_key, held = key, Counter()
        held.update(routed)
        assert max(held.values(), default=0) <= 1, event
    assert 0 < routings < mutations == 600

def _drop_first_clients_open_triplet(engine):
    cid = next(iter(engine.registry))
    engine.open_nodes.discard(engine.assign_client(cid).aux_triplet)


def _disable_first_clients_area(engine):
    enabled = engine.annotations.is_enabled
    point = next(iter(engine.registry.values()))
    area = next(idx for idx in engine.hierarchy.area_chain(point)
                if enabled[idx])
    enabled[area] = False


@pytest.mark.parametrize("corrupt, named", [
    (_drop_first_clients_open_triplet, "assignment"),
    (_disable_first_clients_area, "is_enabled"),
])
def test_verify_trace_sees_corrupted_assignments(corrupt, named):
    instance, trace = _matrix_benchmark_case()
    at = [i for i, e in enumerate(trace) if e.kind in ("insert", "delete")][300]

    def corruption(engine, index):
        if index == at:
            corrupt(engine)

    code, lines = verify_trace(instance, trace, corruption=corruption)
    assert code == 1
    assert all(line.startswith(f"event {at}: ") for line in lines)
    assert any(named in line for line in lines), lines


def _view_counts(monkeypatch, instance, trace):
    """Run verify_trace; return (views built, distinct hierarchies viewed,
    most views alive at once)."""
    built, alive, peak = [], weakref.WeakSet(), [0]
    real_init = OracleView.__init__

    def counting_init(self, instance, hierarchy):
        built.append(hierarchy)
        alive.add(self)
        real_init(self, instance, hierarchy)

    def watch(engine, index):
        peak[0] = max(peak[0], len(alive))

    monkeypatch.setattr(OracleView, "__init__", counting_init)
    assert verify_trace(instance, trace, corruption=watch)[0] == 0
    return len(built), len({id(h) for h in built}), peak[0]


def test_verify_trace_builds_one_view_per_hierarchy(monkeypatch, line5):
    # Three facilities and a live count moving 24 <-> 25: every crossing
    # switches the engine between the same two cached hierarchies.
    rng = random.Random(61)
    inst = random_instance(rng, n_facilities=3, n_pool_points=30)
    trace = [TraceEvent("insert", f"c{i}", rng.randrange(inst.n_points))
             for i in range(24)]
    for i in range(24, 28):
        trace.append(TraceEvent("insert", f"c{i}", rng.randrange(inst.n_points)))
        trace.append(TraceEvent("delete", f"c{i}"))
    assert _view_counts(monkeypatch, inst, trace) == (2, 2, 2)

    # Three climbs from 0 to 130 clients and back revisit the same scales;
    # each is built once, so one view per scale serves all three.
    trace = []
    for start in range(0, 390, 130):
        cids = [f"c{start + i}" for i in range(130)]
        trace += [TraceEvent("insert", cid, i % 5) for i, cid in enumerate(cids)]
        trace += [TraceEvent("delete", cid) for cid in cids]
    visited = {derive_parameters(line5, largest_power_of_five_at_most(k)) for k in range(131)}
    built, distinct, _ = _view_counts(monkeypatch, line5, trace)
    assert built == distinct == len(visited)


def test_every_driver_shares_the_instance_hierarchies(monkeypatch):
    # Three facilities and a trace from 0 to 25 clients: the divisor of
    # rho_min goes 3 -> 5 -> 25, and the bottom level moves at 25.  Engines,
    # replays, verification, repeated benchmarks and the exact optimum all
    # read the instance's hierarchies, and each scale is built exactly once.
    builds = []
    real_init = Hierarchy.__init__

    def counting_init(self, instance, params):
        builds.append(params)
        real_init(self, instance, params)

    monkeypatch.setattr(Hierarchy, "__init__", counting_init)
    rng = random.Random(61)
    inst = random_instance(rng, n_facilities=3, n_pool_points=30)
    trace = [TraceEvent("insert", f"c{i}", rng.randrange(inst.n_points)) for i in range(24)]
    for i in range(24, 27):
        trace += [TraceEvent("insert", f"c{i}", rng.randrange(inst.n_points)),
                  TraceEvent("cost"), TraceEvent("delete", f"c{i}")]
    Engine(inst)
    Engine.from_clients(inst, {e.cid: e.point for e in trace[:24]})
    outputs = run_trace(inst, trace)
    assert verify_trace(inst, trace) == (0, outputs)
    bench_trace(inst, trace, repetitions=3)
    opt_command(inst, trace)
    visited = {derive_parameters(inst, largest_power_of_five_at_most(k)) for k in range(26)}
    assert len(visited) == 2
    assert Counter(builds) == dict.fromkeys(visited, 1)

    # Two engines given the same mutations share every hierarchy.
    a, b = Engine(inst), Engine(inst)
    for event in trace:
        for eng in (a, b):
            if event.kind == "insert":
                eng.insert_client(event.cid, event.point)
            elif event.kind == "delete":
                eng.delete_client(event.cid)
        assert a.hierarchy is b.hierarchy and a.state_hash() == b.state_hash()
    assert len(builds) == 2


def test_bench_csv_shape(line5, data_dir):
    trace = parse_trace(data_dir / "line5.trace")
    lines = bench_trace(line5, trace).splitlines()
    assert lines[0] == "event_index,op,micros,affected,heap_pulls,flips,rebuilt"
    assert len(lines) == len(trace) + 1
    assert lines[1].startswith("0,insert,")


def test_bench_median_column(line5, data_dir):
    trace = parse_trace(data_dir / "line5.trace")
    lines = bench_trace(line5, trace, repetitions=3).splitlines()
    assert lines[0].endswith(",micros_median")
    assert all(line.count(",") == 7 for line in lines[1:])


def test_bench_rebuilt_column_marks_scale_shift_rebuilds(line5):
    # 24 <-> 25 clients moves line5's bottom logradius (10/5 -> 10/25), so
    # the crossing updates rebuild; a query row carries the defaults.
    trace = [TraceEvent("insert", f"c{i}", i % 5) for i in range(25)]
    trace += [TraceEvent("cost"), TraceEvent("delete", "c24"),
              TraceEvent("insert", "c24", 4), TraceEvent("delete", "c0")]
    engine = Engine(line5)
    expected = []
    for event in trace:
        if event.kind == "cost":
            expected.append("False")
            continue
        if event.kind == "insert":
            engine.insert_client(event.cid, event.point)
        else:
            engine.delete_client(event.cid)
        expected.append(str(engine.last_update.rebuilt))
    rows = [line.split(",") for line in bench_trace(line5, trace).splitlines()[1:]]
    assert [row[-1] for row in rows] == expected
    assert expected.count("True") == 4                  # 25 clients twice, 24 twice
    assert rows[25][1:] == ["cost", rows[25][2], "0", "0", "0", "False"]


def test_opt_command_one_client(line5):
    out = opt_command(line5, parse_trace_text("+ c1 3\n"))
    report = dict(line.split("=") for line in out.splitlines())
    assert report["OPT"] == "10"
    assert report["cost_query"] == "25"
    assert report["realized"] == "110"
    assert report["ratio_realized"] == "11"


def test_opt_command_three_clients(line5):
    out = opt_command(line5, parse_trace_text("+ c1 3\n+ c2 4\n+ c3 3\n"))
    report = dict(line.split("=") for line in out.splitlines())
    assert report["OPT"] == "11" and report["realized"] == "311"


def test_opt_command_empty_ratio_convention(line5):
    report = dict(line.split("=")
                  for line in opt_command(line5, []).splitlines())
    assert report["OPT"] == "0" and report["ratio_realized"] == "1"


def test_deterministic_replay(line5):
    rng = random.Random(21)
    trace = random_trace(rng, line5, 40) + [TraceEvent("cost"), TraceEvent("solution")]
    assert run_trace(line5, trace) == run_trace(line5, trace)

    def counters(csv):  # every bench row without its micros column
        return [row[:2] + row[3:] for row in (line.split(",") for line in csv.splitlines())]
    assert counters(bench_trace(line5, trace)) == counters(bench_trace(line5, trace))


def test_generator_determinism():
    a = random_instance(random.Random(99), n_facilities=5, n_pool_points=9)
    b = random_instance(random.Random(99), n_facilities=5, n_pool_points=9)
    assert a.array.tobytes() == b.array.tobytes()
    assert [f.opening_cost for f in a.facilities] == \
        [f.opening_cost for f in b.facilities]
    ta = random_trace(random.Random(4), a, 25)
    tb = random_trace(random.Random(4), b, 25)
    assert ta == tb


def test_default_seed_env(monkeypatch):
    monkeypatch.delenv("NETFLOC_SEED", raising=False)
    assert default_seed() == 0
    monkeypatch.setenv("NETFLOC_SEED", "1234")
    assert default_seed() == 1234


def test_cli_run_and_verify(data_dir, capsys):
    inst = str(data_dir / "line5.json")
    trace = str(data_dir / "line5.trace")
    assert main(["run", inst, trace]) == 0
    assert capsys.readouterr().out.splitlines() == ["25", "F0", "15", "F0"]
    assert main(["run", inst, trace, "--verified"]) == 0
    assert capsys.readouterr().out.splitlines() == ["25", "F0", "15", "F0"]
    assert main(["verify", inst, trace]) == 0
    assert capsys.readouterr().out.splitlines() == ["25", "F0", "15", "F0"]


def test_cli_bench_opt_dump(data_dir, capsys):
    inst = str(data_dir / "line5.json")
    trace = str(data_dir / "line5.trace")
    assert main(["bench", inst, trace, "--reps", "2"]) == 0
    assert capsys.readouterr().out.startswith("event_index,op,")
    assert main(["opt", inst, trace]) == 0
    assert "OPT=11" in capsys.readouterr().out
    assert main(["dump-tree", inst]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "r=3 s=0 j=0 parent=- f*=10 j*=0"


def test_cli_accepts_points_whose_squared_distance_underflows(tmp_path, capsys):
    # The squared distance 1e-600 underflows to 0, but the distance is
    # 1e-300: the diameter, and with it the top level, must cover it.
    inst = tmp_path / "tiny.json"
    inst.write_text(json.dumps({
        "metric": {"kind": "euclidean-L2", "points": [[0.0], [1e-300]]},
        "facilities": [{"point": p, "cost": 5e-324} for p in (0, 1)]}))
    trace = tmp_path / "tiny.trace"
    trace.write_text("+ c1 1\n? cost\n")
    for command in ("run", "verify", "opt", "bench", "dump-tree"):
        argv = [command, str(inst)] + ([] if command == "dump-tree" else [str(trace)])
        assert main(argv) == 0, command   # an uncaught error would raise here
        assert capsys.readouterr().err == "", command


@pytest.mark.parametrize("points, costs, cost", [
    ([[0, 0], [3, 4]], [5e-324, 7], "0.2"),
    ([[0, 0], [1e300, 0]], [1e-300, 1e300], "2.88530581806e+298"),
])
def test_cli_cost_query_on_deep_hierarchies(tmp_path, capsys, points, costs, cost):
    # A cost of 5e-324 or 1e-300 puts the bottom logradius below -430, where
    # the root's cost counts more units than a float holds.
    inst = tmp_path / "deep.json"
    inst.write_text(json.dumps({
        "metric": {"kind": "euclidean-L2", "points": points},
        "facilities": [{"point": p, "cost": c} for p, c in enumerate(costs)]}))
    trace = tmp_path / "deep.trace"
    trace.write_text("+ a 1\n? cost\n")
    for command in (["run"], ["run", "--verified"], ["verify"]):
        assert main(command[:1] + [str(inst), str(trace)] + command[1:]) == 0
        assert capsys.readouterr().out.splitlines() == [cost]
    assert main(["bench", str(inst), str(trace)]) == 0
    assert capsys.readouterr().out.splitlines()[2].startswith("1,cost,")
    assert main(["opt", str(inst), str(trace)]) == 0
    assert f"cost_query={cost}" in capsys.readouterr().out.splitlines()


def test_cli_opt_with_infinite_optimum(tmp_path, capsys):
    # Three clients 1e308 from the only facility: every opening set's cost
    # overflows, so the ratios have no value.
    inst = tmp_path / "far.json"
    inst.write_text('{"metric": {"kind": "euclidean-L2", "points": [[0], [1e308]]},'
                    ' "facilities": [{"point": 0, "cost": 10}]}')
    trace = tmp_path / "far.trace"
    trace.write_text("+ a 1\n+ b 1\n+ c 1\n")
    assert main(["opt", str(inst), str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "OPT=inf"
    assert lines[-2:] == ["ratio_realized=undefined", "ratio_cost=undefined"]
    assert all(line.count("=") == 1 for line in lines)


def test_cli_input_errors(data_dir, tmp_path, capsys):
    inst = str(data_dir / "line5.json")
    assert main(["run", str(tmp_path / "missing.json"), "x"]) == 2
    bad = tmp_path / "bad.trace"
    bad.write_text("- ghost\n")
    assert main(["run", inst, str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_cli_rejects_non_finite_scalar_point(tmp_path, capsys, bad):
    inst = tmp_path / "bad.json"
    inst.write_text('{"metric": {"kind": "euclidean-L2", "points": [%s, 0, 5]},'
                    ' "facilities": [{"point": 0, "cost": 3},'
                    ' {"point": 2, "cost": 3}]}' % bad)
    trace = tmp_path / "t.trace"
    trace.write_text("+ c1 1\n? cost\n")
    assert main(["run", str(inst), str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad point coordinates") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["euclidean-L2", "euclidean-Linf"])
def test_cli_rejects_infinite_diameter(tmp_path, capsys, kind):
    inst = tmp_path / "far.json"
    inst.write_text(json.dumps({
        "metric": {"kind": kind, "points": [[-1e308], [1e308]]},
        "facilities": [{"point": 0, "cost": 3}, {"point": 1, "cost": 3}],
    }))
    trace = tmp_path / "t.trace"
    trace.write_text("+ c1 1\n? cost\n")
    assert main(["run", str(inst), str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: points too far apart") and err.count("\n") == 1


def test_cli_deeply_nested_json_is_input_error(data_dir, tmp_path, capsys):
    inst = tmp_path / "deep.json"
    inst.write_text("[" * 100000)
    assert main(["run", str(inst), str(data_dir / "line5.trace")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {inst}: JSON nested too deeply\n"


def _nested(depth):
    value = 0
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("data", [
    {"metric": {"kind": "euclidean-L2", "points": [_nested(900), [1]]},
     "facilities": [{"point": 0, "cost": 3}]},
    {"metric": {"kind": "explicit-matrix", "matrix": [[0, _nested(900)], [1, 0]]},
     "facilities": [{"point": 0, "cost": 3}]},
    {"metric": {"kind": "euclidean-L2", "points": [[0], [1]]},
     "facilities": [{"point": "7" * 5000, "cost": 3}]},
], ids=["nested-point", "nested-matrix-entry", "long-facility-point"])
def test_cli_echoed_input_values_are_bounded(data_dir, tmp_path, capsys, data):
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps(data))
    assert main(["run", str(inst), str(data_dir / "line5.trace")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200


def test_cli_directory_path_is_input_error(data_dir, tmp_path, capsys):
    inst = str(data_dir / "line5.json")
    trace = str(data_dir / "line5.trace")
    assert main(["run", str(tmp_path), trace]) == 2
    assert main(["run", inst, str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error:") for line in err)


def _cli(data_dir, stdout):
    """Run ``netfloc bench`` on line5 in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen(
        [sys.executable, "-m", "netfloc", "bench", str(data_dir / "line5.json"),
         str(data_dir / "line5.trace"), "--reps", "200"],
        stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_cli_closed_stdout_is_not_an_error(data_dir):
    # The reader goes away before the table is printed, as ``| head -n 1``
    # does once it has its line.
    proc = _cli(data_dir, subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_cli_failed_stdout_write_is_an_error(data_dir):
    with open("/dev/full", "w") as full:
        proc = _cli(data_dir, full)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.decode().startswith("error: [Errno 28]")
