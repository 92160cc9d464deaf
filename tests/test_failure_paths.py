"""Failure paths: each problem line of ``logical_violations`` on a
hand-corrupted engine, each exit-1 return of ``verify_trace``, the engine's
"no enabled area" error, the malformed inputs that ``netfloc`` rejects with
exit 2 and one ``error:`` line, and a cost beyond the float range, which is
no failure."""

import json
from dataclasses import replace

import numpy as np
import pytest

from netfloc import Engine, OracleView, engine_snapshot, harness, logical_violations, \
    parse_trace, verify_trace
from netfloc.harness import main

LINE5_CLIENTS = [("c1", 3), ("c2", 4), ("c3", 3)]


def _line5_engine(line5, clients=LINE5_CLIENTS):
    """line5 with the canonical trace's clients: every node enabled, the
    bottom node (1, 0, 0) open and abundant, the root (3, 0, 0) node 2."""
    engine = Engine(line5)
    for cid, point in clients:
        engine.insert_client(cid, point)
    return engine


def _disable_open_node(engine):
    engine.annotations.is_enabled[0] = False
    engine.annotations.slack[0] = -1


def _disable_abundant_node(engine):
    engine.annotations.is_enabled[1] = False


def _open_whole_chain(engine):
    engine.open_nodes.update(engine.hierarchy.area_chain(3))


def _close_everything(engine):
    engine.open_nodes.clear()


def _disable_root(engine):
    root = engine.hierarchy.root
    engine.annotations.is_enabled[root] = False
    engine.annotations.slack[root] = -1


def _raise_root_cost(engine):
    engine.annotations.cost[engine.hierarchy.root] += 1


@pytest.mark.parametrize("corrupt, expected", [
    (_disable_open_node, ["open but not enabled: node (1, 0, 0)"]),
    (_disable_abundant_node, ["abundant but not enabled: node (2, 0, 0)"]),
    (_open_whole_chain, [f"client {cid!r} in 3 open neighborhoods"
                         for cid in ("c1", "c2", "c3")]),
    (_close_everything, ["live clients but no open triplet"]),
    (_disable_root, ["live clients but root not enabled"]),
    (_raise_root_cost, ["root cost 4 != summed payments 3"]),
])
def test_logical_violations_name_each_corruption(line5, corrupt, expected):
    engine = _line5_engine(line5)
    view = OracleView(line5, engine.hierarchy)
    snapshot = engine_snapshot(engine)
    assert logical_violations(view, engine, snapshot) == []
    corrupt(engine)
    # The corrupted lists, with the assignments taken before the corruption.
    snapshot = replace(snapshot, annotations=engine.annotations)
    assert logical_violations(view, engine, snapshot) == expected


def test_logical_violations_without_clients_need_a_zero_root_cost(line5):
    engine = Engine(line5)
    view = OracleView(line5, engine.hierarchy)
    snapshot = engine_snapshot(engine)
    assert logical_violations(view, engine, snapshot) == []
    engine.annotations.cost[engine.hierarchy.root] = 1
    snapshot = engine_snapshot(engine)
    assert logical_violations(view, engine, snapshot) == ["no clients but nonzero root cost"]


def test_verify_trace_reports_an_update_that_raises(line5, data_dir):
    # Event 2 is a query; the poisoned engine refuses event 3, an insert.
    def corruption(engine, index):
        if index == 2:
            engine._poison(RuntimeError("injected"))

    code, lines = verify_trace(line5, parse_trace(data_dir / "line5.trace"),
                               corruption=corruption)
    assert (code, lines) == (1, ["event 3: engine unusable after a failed update: "
                                 "RuntimeError('injected')"])


def test_verify_trace_reports_a_logical_violation(monkeypatch, line5, data_dir):
    real = harness.logical_violations

    def violated_at_event_4(view, engine, snapshot):
        problems = real(view, engine, snapshot)
        assert problems == []
        return ["injected problem"] if len(engine.registry) == 3 else problems

    monkeypatch.setattr(harness, "logical_violations", violated_at_event_4)
    code, lines = verify_trace(line5, parse_trace(data_dir / "line5.trace"))
    assert (code, lines) == (1, ["event 4: injected problem"])


def test_verify_trace_reports_a_realized_cost_above_the_bound(monkeypatch, line5, data_dir):
    cost = _line5_engine(line5, LINE5_CLIENTS[:1]).cost_query()
    monkeypatch.setattr(Engine, "realized_cost", lambda self, assignments: 1e300)
    code, lines = verify_trace(line5, parse_trace(data_dir / "line5.trace"))
    bound = harness.PAYMENT_BOUND_FACTOR * cost
    assert (code, lines) == (1, [f"event 0: realized cost 1e+300 above {bound}"])


def test_verify_trace_accepts_a_realized_cost_at_the_bound(monkeypatch, line5, data_dir):
    monkeypatch.setattr(Engine, "realized_cost", lambda self, assignments:
                        harness.PAYMENT_BOUND_FACTOR * self.cost_query())
    code, lines = verify_trace(line5, parse_trace(data_dir / "line5.trace"))
    assert (code, lines) == (0, ["25", "F0", "15", "F0"])


def test_verify_trace_reports_a_stale_cost_query(monkeypatch, line5, data_dir):
    # A cost that no write invalidates keeps its first answer, 25, until the
    # oracle's root cost moves away from it at event 3.
    real = Engine.cost_query
    first = {}
    monkeypatch.setattr(Engine, "cost_query",
                        lambda self: first.setdefault(id(self), real(self)))
    code, lines = verify_trace(line5, parse_trace(data_dir / "line5.trace"))
    assert (code, lines) == (1, ["event 3: cost_query 25.0 != oracle root cost 10.0"])


def test_assign_client_without_an_enabled_area(line5):
    engine = _line5_engine(line5)
    for idx in engine.hierarchy.area_chain(3):
        engine.annotations.is_enabled[idx] = False
    with pytest.raises(RuntimeError, match="^no enabled area on the chain of point 3$"):
        engine.assign_client("c1")


# -- input rejections ------------------------------------------------------------

L2 = {"kind": "euclidean-L2", "points": [[0], [1]]}
MATRIX = {"kind": "explicit-matrix", "matrix": [[0, 1], [1, 0]]}
ONE_FACILITY = [{"point": 0, "cost": 3}]


@pytest.mark.parametrize("metric, facilities, message", [
    ({"kind": "explicit-matrix", "points": [[0], [1]]}, ONE_FACILITY,
     "error: explicit-matrix instances take a matrix, not points"),
    ({"kind": "euclidean-L2", "points": [[0], [1, 2]]}, ONE_FACILITY,
     "error: points must share one dimension"),
    ({"kind": "euclidean-Linf", "points": []}, ONE_FACILITY,
     "error: instance needs at least one point"),
    ({"kind": "explicit-matrix", "matrix": []}, ONE_FACILITY,
     "error: instance needs at least one point"),
    (L2, [], "error: instance needs at least one facility"),
    ({"kind": "explicit-matrix", "matrix": [[0, 1], [1]]}, ONE_FACILITY,
     "error: distance matrix must be square"),
    ({"kind": "explicit-matrix", "matrix": [[0, -1], [-1, 0]]}, ONE_FACILITY,
     "error: negative distance for pair (0, 1)"),
    # A JSON integer too large for a float echoes as its first 28 and last
    # 29 digits.
    ({"kind": "euclidean-L2", "points": [[0], [10 ** 400]]}, ONE_FACILITY,
     "error: bad point coordinates [1" + "0" * 27 + "..." + "0" * 29 + "]"),
    (MATRIX, [{"point": 0, "cost": 10 ** 400}],
     "error: facility 0 needs a positive opening cost, got 1" + "0" * 27 + "..."
     + "0" * 29),
    ({"kind": "explicit-matrix", "matrix": [[0, 10 ** 400], [10 ** 400, 0]]}, ONE_FACILITY,
     "error: non-numeric, NaN or infinite distance for pair (0, 1): 1" + "0" * 27 + "..."
     + "0" * 29),
    ({"kind": "explicit-matrix", "matrix": ["01", "10"]}, ONE_FACILITY,
     "error: matrix row must be a list, got '01'"),
], ids=["matrix-given-points", "mixed-dimensions", "no-points", "empty-matrix", "no-facilities",
        "ragged-matrix", "negative-entry", "huge-coordinate", "huge-cost",
        "huge-matrix-entry", "string-matrix-rows"])
def test_cli_rejects_malformed_instances(tmp_path, data_dir, capsys, metric, facilities,
                                         message):
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps({"metric": metric, "facilities": facilities}))
    assert main(["run", str(inst), str(data_dir / "line5.trace")]) == 2
    assert capsys.readouterr().err == message + "\n"


def test_cli_cuts_a_long_echo_at_100_characters(tmp_path, data_dir, capsys):
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps({"metric": {"kind": ["x" * 50] * 5, "points": [[0]]},
                                "facilities": ONE_FACILITY}))
    assert main(["run", str(inst), str(data_dir / "line5.trace")]) == 2
    err = capsys.readouterr().err
    prefix = "error: unknown metric kind "
    assert err.startswith(prefix + "['xxx") and err.count("\n") == 1
    assert len(err) == len(prefix) + 100 + 1 and err.endswith("...\n")


def test_cli_rejects_a_5000_digit_point_index(tmp_path, data_dir, capsys):
    trace = tmp_path / "long.trace"
    trace.write_text("+ c1 " + "7" * 5000 + "\n")
    assert main(["run", str(data_dir / "line5.json"), str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "point index" in err and err.count("\n") == 1
    assert len(err) < 200


def test_cli_rejects_bench_with_no_repetitions(data_dir, capsys):
    assert main(["bench", str(data_dir / "line5.json"), str(data_dir / "line5.trace"),
                 "--reps", "0"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: repetitions must be >= 1\n")


def test_cli_prints_inf_for_a_cost_beyond_the_float_range(tmp_path, capsys):
    # The engine's cost, about 3.5e308, exceeds the largest float: the cost
    # query is inf, not an OverflowError.
    inst = tmp_path / "huge.json"
    inst.write_text(json.dumps({"metric": L2, "facilities": [
        {"point": 0, "cost": 1e308}, {"point": 1, "cost": 1.7976931348623157e308}]}))
    trace = tmp_path / "huge.trace"
    trace.write_text("+ c1 0\n+ c2 1\n? cost\n")
    for command in ("run", "verify"):
        assert main([command, str(inst), str(trace)]) == 0
        assert capsys.readouterr() == ("inf\n", "")
    assert main(["opt", str(inst), str(trace)]) == 0
    captured = capsys.readouterr()
    assert "cost_query=inf" in captured.out.splitlines() and captured.err == ""


def test_point_index_returns_a_python_int_for_a_numpy_integer(line5):
    index = line5.point_index(np.int64(3))
    assert type(index) is int and index == 3
