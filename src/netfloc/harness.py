"""Command-line driver: parse update traces, run the dynamic engine, verify
it against the from-scratch oracle after every mutation (``verify``, alias
``run --verified``), benchmark, and report exact optima for small instances.

Trace format (UTF-8, line based):
    + <cid> <point-index>     insert a client (ASCII digits; "P3" means "3")
    - <cid>                   delete a live client
    ? cost                    print the current cost estimate
    ? solution                print the open facilities, sorted
    # ...                     comment

Each event parses to a ``TraceEvent`` named tuple (kind, client id, point).
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import time
from dataclasses import fields
from typing import NamedTuple

from .engine import Engine, UpdateStats
from .hierarchy import PAYMENT_BOUND_FACTOR
from .instance import Instance, InstanceError, NetflocError, echo
from .oracle import OracleView, brute_force_opt, compare_states, \
    engine_snapshot, logical_violations

PAYMENT_SLACK = 1e-9  # relative slack for float distance sums


class TraceError(NetflocError):
    """Malformed trace file."""


class TraceEvent(NamedTuple):
    kind: str            # "insert" | "delete" | "cost" | "solution"
    cid: str | None = None
    point: int | None = None


# Query events carry no data, so every "? cost" (or "? solution") line parses
# to the same event, keyed here by its canonical spelling.
_QUERY_EVENTS = {f"? {kind}": TraceEvent(kind) for kind in ("cost", "solution")}


def fmt_number(x) -> str:
    x = float(x)
    if x.is_integer() and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.12g}"


def _parse_point(token: str, line_no: int) -> int:
    """A point index: ASCII digits, optionally after "P" or "p"."""
    raw = token[1:] if token[:1] in ("P", "p") else token
    if raw.isascii() and raw.isdigit():
        try:
            return int(raw)
        except ValueError:  # more digits than int() converts
            pass
    raise TraceError(f"line {line_no}: bad point index {echo(token)}")


def parse_trace_text(text: str) -> list[TraceEvent]:
    """Parse a trace, enforcing insert-before-delete client id consistency.
    A canonical query line is looked up whole; any other line is split
    once."""
    events: list[TraceEvent] = []
    live: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        event = _QUERY_EVENTS.get(raw)
        if event is None:
            parts = raw.split()
            if not parts or parts[0][0] == "#":
                continue
            if parts[0] == "+" and len(parts) == 3:
                cid, token = parts[1], parts[2]
                if cid in live:
                    raise TraceError(f"line {line_no}: client {echo(cid)} already live")
                live.add(cid)
                try:
                    point = int(token) if token.isascii() and token.isdigit() \
                        else _parse_point(token, line_no)
                except ValueError:  # more digits than int() converts
                    point = _parse_point(token, line_no)
                event = tuple.__new__(TraceEvent, ("insert", cid, point))
            elif parts[0] == "-" and len(parts) == 2:
                cid = parts[1]
                if cid not in live:
                    raise TraceError(f"line {line_no}: delete of non-live client {echo(cid)}")
                live.remove(cid)
                event = tuple.__new__(TraceEvent, ("delete", cid, None))
            else:
                event = _QUERY_EVENTS.get(" ".join(parts))
                if event is None:
                    raise TraceError(f"line {line_no}: unrecognized event {echo(raw.strip())}")
        events.append(event)
    return events


def parse_trace(path) -> list[TraceEvent]:
    with open(path, encoding="utf-8") as fh:
        return parse_trace_text(fh.read())


def _apply_event(engine: Engine, event: TraceEvent, outputs: list[str]) -> None:
    if event.kind == "insert":
        engine.insert_client(event.cid, event.point)
    elif event.kind == "delete":
        engine.delete_client(event.cid)
    elif event.kind == "cost":
        outputs.append(fmt_number(engine.cost_query()))
    else:
        outputs.append(" ".join(f"F{fid}" for fid in sorted(engine.solution_query())))


def run_trace(instance: Instance, trace) -> list[str]:
    """Replay a trace, returning its query outputs; ``bench`` reports the
    per-update work counters."""
    engine = Engine(instance)
    outputs: list[str] = []
    for event in trace:
        _apply_event(engine, event, outputs)
    return outputs


def _units_as_float(units: int, rho_min: int) -> float:
    """``units`` multiples of 5**rho_min, correctly rounded by one integer
    division; inf beyond the float range."""
    num, den = (units * 5 ** rho_min, 1) if rho_min >= 0 else (units, 5 ** -rho_min)
    try:
        return num / den
    except OverflowError:
        return math.inf


def verify_trace(instance: Instance, trace, corruption=None) -> tuple[int, list[str]]:
    """Verified replay plus the per-state invariant suite.

    Returns (exit status, diagnostic lines); status 0 means every mutation
    matched the oracle and every invariant held.  ``corruption`` is a test
    hook called as corruption(engine, event_index) after each event.
    """
    engine = Engine(instance)
    # One OracleView per hierarchy visited; the instance keeps one per scale.
    views = {}
    outputs: list[str] = []
    for index, event in enumerate(trace):
        try:
            _apply_event(engine, event, outputs)
        except RuntimeError as exc:
            return 1, [f"event {index}: {exc}"]
        if corruption is not None:
            corruption(engine, index)
        if event.kind not in ("insert", "delete"):
            continue
        view = views.get(engine.hierarchy)
        if view is None:
            view = views[engine.hierarchy] = OracleView(instance, engine.hierarchy)
        expected = view.recompute_state(engine.registry)
        try:
            snapshot = engine_snapshot(engine)
        except RuntimeError as exc:  # a live client's assignment does not resolve
            return 1, [f"event {index}: assignment: {exc}"]
        mismatches = compare_states(snapshot, expected)
        if mismatches:
            return 1, [f"event {index}: {m}" for m in mismatches]
        cost = engine.cost_query()
        hierarchy = expected.hierarchy
        root_cost = _units_as_float(expected.annotations.cost[hierarchy.root],
                                    hierarchy.params.rho_min)
        if cost != root_cost:
            return 1, [f"event {index}: cost_query {cost} != oracle root cost {root_cost}"]
        problems = logical_violations(view, engine, snapshot)
        if problems:
            return 1, [f"event {index}: {p}" for p in problems]
        realized = engine.realized_cost(snapshot.assignments)
        bound = PAYMENT_BOUND_FACTOR * cost
        if realized > bound * (1 + PAYMENT_SLACK):
            return 1, [f"event {index}: realized cost {realized} above {bound}"]
    return 0, outputs


def bench_trace(instance: Instance, trace, repetitions: int = 1) -> str:
    """Replay timings as CSV: one row per event with every ``UpdateStats``
    field (a query row carries the defaults); with repetitions > 1 a
    median-microseconds column is appended."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    names = [f.name for f in fields(UpdateStats)]
    idle = UpdateStats()
    timings: list[list[float]] = [[] for _ in trace]
    rows: list[list[str]] = []
    for rep in range(repetitions):
        engine = Engine(instance)
        sink: list[str] = []
        for index, event in enumerate(trace):
            before = time.perf_counter_ns()
            _apply_event(engine, event, sink)
            micros = (time.perf_counter_ns() - before) / 1000.0
            timings[index].append(micros)
            if rep == 0:
                stats = engine.last_update if event.kind in ("insert", "delete") else idle
                rows.append([str(getattr(stats, name)) for name in names])
    header = ",".join(["event_index", "op", "micros", *names])
    if repetitions > 1:
        header += ",micros_median"
    lines = [header]
    for index, (event, counters) in enumerate(zip(trace, rows)):
        line = ",".join([str(index), event.kind, f"{timings[index][0]:.1f}", *counters])
        if repetitions > 1:
            line += f",{statistics.median(timings[index]):.1f}"
        lines.append(line)
    return "\n".join(lines)


def opt_command(instance: Instance, trace) -> str:
    """Apply a trace's mutations, then report the exact optimum next to the
    engine's estimate and the cost of the realized solution."""
    engine = Engine(instance)
    sink: list[str] = []
    for event in trace:
        if event.kind in ("insert", "delete"):
            _apply_event(engine, event, sink)
    opt = brute_force_opt(instance, engine.registry)
    cost = engine.cost_query()
    realized = engine.realized_cost(engine.assignments())
    if math.isinf(opt.cost):
        # Every opening set's cost overflows: no ratio to OPT has a value.
        ratio_realized = ratio_cost = "undefined"
    elif opt.cost > 0:
        ratio_realized = fmt_number(realized / opt.cost)
        ratio_cost = fmt_number(cost / opt.cost)
    else:
        ratio_realized = ratio_cost = fmt_number(1)
    return "\n".join([
        f"OPT={fmt_number(opt.cost)}",
        f"opt_open={' '.join(f'F{f}' for f in sorted(opt.open_set))}",
        f"cost_query={fmt_number(cost)}",
        f"realized={fmt_number(realized)}",
        f"ratio_realized={ratio_realized}",
        f"ratio_cost={ratio_cost}",
    ])


# -- command line ------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="netfloc",
        description="Dynamic facility location engine with O(1) cost queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="replay a trace, printing query outputs")
    p_run.add_argument("instance")
    p_run.add_argument("trace")
    p_run.add_argument("--verified", action="store_true",
                       help="same as the verify command")

    p_verify = sub.add_parser("verify", help="verified replay plus invariant suite")
    p_verify.add_argument("instance")
    p_verify.add_argument("trace")

    p_bench = sub.add_parser("bench", help="per-event timing table (CSV)")
    p_bench.add_argument("instance")
    p_bench.add_argument("trace")
    p_bench.add_argument("--reps", type=int, default=1)

    p_opt = sub.add_parser("opt", help="exact optimum vs the engine's solution")
    p_opt.add_argument("instance")
    p_opt.add_argument("trace")

    p_dump = sub.add_parser("dump-tree", help="print the dependency tree")
    p_dump.add_argument("instance")

    args = parser.parse_args(argv)
    try:
        instance = Instance.load(args.instance)
        if args.command == "dump-tree":
            code, lines = 0, [Engine(instance).hierarchy.dump()]
        else:
            trace = parse_trace(args.trace)
            if args.command == "run" and not args.verified:
                code, lines = 0, run_trace(instance, trace)
            elif args.command in ("run", "verify"):
                code, lines = verify_trace(instance, trace)
            elif args.command == "bench":
                code, lines = 0, [bench_trace(instance, trace, repetitions=args.reps)]
            else:
                code, lines = 0, [opt_command(instance, trace)]
        if lines:
            print("\n".join(lines), file=sys.stdout if code == 0 else sys.stderr)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (``| head``) after the work was done: not
        # an error of this command.  Stdout now points at devnull, so the
        # interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (InstanceError, TraceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
