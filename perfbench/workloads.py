"""The three workloads, driven through netfloc's public API from one thread
with one caller (a closed loop: the next event starts when the previous one
has returned).

Only the generated instance and trace texts reach the program.  Output checks
run in pauses that are excluded from every timed figure.  Every timed figure
is normalised to a reference machine speed (see ``Speed``).
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import resource
import statistics
from array import array
from time import perf_counter, perf_counter_ns

from netfloc import engine as engine_mod, harness, hierarchy, instance as instance_mod, \
    oracle
from netfloc.engine import Engine
from netfloc.harness import fmt_number
from netfloc.instance import Instance
from netfloc.oracle import OracleView, compare_states, engine_snapshot

COST_BATCH = 1000      # back-to-back cost_query calls per checkpoint batch
BLOCK_NS = 500_000_000  # timed replay between two calibrations
# The calibration kernel's time on an undisturbed core of the 2-vCPU Xeon VM
# the benchmark was tuned on, so normalised times read close to wall-clock
# time there.
CAL_REF_NS = 6_000_000

INSERT, DELETE, COST, SOLUTION = range(4)
_CODES = {"insert": INSERT, "delete": DELETE, "cost": COST, "solution": SOLUTION}


def install_tracer(tracer) -> None:
    """Wrap the public functions of every netfloc module for a traced run."""
    inst = instance_mod.Instance
    tracer.wrap_method(inst, "from_dict", "instance.from_dict")
    tracer.wrap_method(inst, "distance", "instance.distance", count_only=True)
    hier = hierarchy.Hierarchy
    tracer.wrap_method(hier, "__init__", "hierarchy.build")
    tracer.wrap_function(hierarchy, "build_separated_sets", "hierarchy.build_separated_sets")
    tracer.wrap_function(hierarchy, "build_tree", "hierarchy.build_tree")
    tracer.wrap_method(hier, "find_balls", "hierarchy.find_balls")
    tracer.wrap_method(hier, "area_chain", "hierarchy.area_chain")
    for attr in ("from_clients", "find_affected_triplets", "update_status",
                 "update_cost", "adjust_levels", "assign_client", "realized_cost"):
        tracer.wrap_method(engine_mod.Engine, attr, f"engine.{attr}")
    tracer.wrap_method(oracle.OracleView, "__init__", "oracle.view_build")
    tracer.wrap_method(oracle.OracleView, "recompute_state", "oracle.recompute_state")
    for fn in ("engine_snapshot", "compare_states", "logical_violations"):
        tracer.wrap_function(oracle, fn, f"oracle.{fn}")
    for fn in ("parse_trace_text", "verify_trace"):
        tracer.wrap_function(harness, fn, f"harness.{fn}")


# -- machine speed -------------------------------------------------------------

def _kernel() -> float:
    """Fixed pure-Python work (dict updates, float math, a heap, a sort)
    that touches no netfloc code."""
    counts, acc, heap = {}, 0.0, []
    for i in range(12000):
        k = (i * 2654435761) % 4093
        counts[k] = counts.get(k, 0) + 1
        acc += math.sqrt(k + 1.0)
        if i & 7 == 0:
            heapq.heappush(heap, (acc % 97.0, k))
    while heap:
        heapq.heappop(heap)
    pairs = [(v, str(k)) for k, v in counts.items()]
    pairs.sort()
    return acc


def calibrate() -> int:
    """Nanoseconds of the fastest of three kernel runs, with the garbage
    collector off so that the program's heap does not enter."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(3):
            t0 = perf_counter_ns()
            _kernel()
            t = perf_counter_ns() - t0
            best = t if best is None else min(best, t)
        return best
    finally:
        if was_enabled:
            gc.enable()


class Speed:
    """Calibrations at the boundaries of timed blocks.

    Other tenants of a shared host change the speed of this process's core
    by up to 2x for tens of seconds at a time, in process CPU time as much
    as in wall-clock time, so neither a whole-run figure nor the best block
    of a run repeats across runs.  The calibration kernel slows with the
    core, so each block's time is multiplied by ``CAL_REF_NS`` over the mean
    of the calibrations on either side of it: the time the block would have
    taken at the reference speed."""

    def __init__(self):
        self.cals: list[int] = []
        self._last = 0

    def begin(self) -> None:
        """Calibrate before the first block of a stretch of timed work."""
        self._last = calibrate()
        self.cals.append(self._last)

    def end_block(self) -> float:
        """Calibrate after a block; returns the block's scale factor."""
        cal = calibrate()
        scale = 2 * CAL_REF_NS / (self._last + cal)
        self._last = cal
        self.cals.append(cal)
        return scale

    def summary(self) -> dict:
        ms = [c / 1e6 for c in self.cals]
        return {"ref_ms": CAL_REF_NS / 1e6, "median_ms": statistics.median(ms),
                "min_ms": min(ms), "max_ms": max(ms), "count": len(ms)} if ms else {}


# -- shared pieces -------------------------------------------------------------

def setup(inputs, build_engine: bool):
    """Parse and validate the instance, parse the trace, and build the engine
    over the prefill.  Returns (seconds, instance, events, engine); the
    seconds are normalised by calibrations just before and after."""
    gc.collect()
    speed = Speed()
    speed.begin()
    t0 = perf_counter_ns()
    instance = Instance.from_dict(json.loads(inputs.instance_text))
    events = harness.parse_trace_text(inputs.trace_text)
    engine = None
    if build_engine:
        prefill = {e.cid: e.point for e in events[:inputs.prefill]}
        engine = Engine.from_clients(instance, prefill)
    raw_ns = perf_counter_ns() - t0
    return raw_ns * speed.end_block() / 1e9, instance, events, engine


def render(kind: int, value) -> str:
    """A query output as ``netfloc run`` prints it."""
    if kind == COST:
        return fmt_number(value)
    return " ".join(f"F{fid}" for fid in sorted(value))


def digest(outputs) -> str:
    return hashlib.sha256("\n".join(outputs).encode()).hexdigest()


class Checker:
    """Output checks: incremental state against from-scratch construction
    and against the oracle.  Every check counts as one attempted
    operation; every miss as one failure."""

    def __init__(self, instance, tracer=None):
        self.instance = instance
        self.tracer = tracer        # paused during checks in a traced run
        self.view = None
        self.attempted = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(message)

    def full(self, engine, where: str) -> None:
        resume = self.tracer is not None and self.tracer.active
        if resume:
            self.tracer.active = False
        try:
            live = dict(engine.registry.items())
            scratch = Engine.from_clients(self.instance, live)
            self.expect(scratch.state_hash() == engine.state_hash(),
                        f"{where}: state_hash differs from Engine.from_clients")
            del scratch
            if self.view is None or self.view.hierarchy is not engine.hierarchy:
                self.view = None
                self.view = OracleView(self.instance, engine.hierarchy)
            diffs = compare_states(engine_snapshot(engine),
                                   self.view.recompute_state(live))
            self.expect(not diffs, f"{where}: oracle mismatch: {diffs[:1]}")
        except Exception as exc:  # a check that crashes is a failed check
            self.expect(False, f"{where}: check raised {exc!r}")
        finally:
            if resume:
                self.tracer.active = True


class Samples:
    """Up to ``capacity`` latencies (ns) in time order, in a buffer filled
    with zeros up front: the memory they take, and so peak_rss_mb, does not
    depend on how many events a run gets through.  Samples beyond the
    capacity are dropped."""

    def __init__(self, capacity: int):
        self.buf = array("q", [0]) * capacity
        self.n = 0

    def add(self, ns: int) -> None:
        if self.n < len(self.buf):
            self.buf[self.n] = ns
            self.n += 1

    def __len__(self) -> int:
        return self.n

    def values(self):
        return self.buf[:self.n]

    def rescale(self, start: int, factor: float) -> None:
        """Multiply the samples from ``start`` on by ``factor``."""
        buf = self.buf
        for i in range(start, self.n):
            buf[i] = round(buf[i] * factor)


class Latencies:
    """Insert and delete latencies, cost_query batches, and per-update work
    counters collected in traced runs."""

    def __init__(self, capacity: int):
        self.insert = Samples(capacity)
        self.delete = Samples(capacity)
        self.cost_batch_ns: list[float] = []
        self.work = [0, 0, 0]      # affected, heap pulls, flips (traced only)
        self.work_updates = 0

    def mark(self) -> tuple[int, int, int]:
        return len(self.insert), len(self.delete), len(self.cost_batch_ns)

    def rescale(self, mark: tuple[int, int, int], factor: float) -> None:
        """Normalise everything recorded since ``mark`` by ``factor``."""
        self.insert.rescale(mark[0], factor)
        self.delete.rescale(mark[1], factor)
        batches = self.cost_batch_ns
        for i in range(mark[2], len(batches)):
            batches[i] *= factor

    def cost_batch(self, cost_query) -> None:
        t0 = perf_counter_ns()
        for _ in range(COST_BATCH):
            cost_query()
        self.cost_batch_ns.append((perf_counter_ns() - t0) / COST_BATCH)

    def note_work(self, stats) -> None:
        self.work[0] += stats.affected
        self.work[1] += stats.heap_pulls
        self.work[2] += stats.flips
        self.work_updates += 1


def percentile(sorted_xs, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_xs:
        return 0.0
    rank = math.ceil(round(q * len(sorted_xs), 9))
    return float(sorted_xs[max(rank, 1) - 1])


def hierarchy_shape(h) -> dict:
    """Exact shape counts of one hierarchy, from its public attributes."""
    nodes = h.nodes
    levels = [{"r": r, "nodes": len(ids),
               "colors": 1 + max(nodes[i].color for i in ids)}
              for r, ids in sorted(h.by_level.items())]

    def sizes(attr):
        xs = [len(getattr(n, attr)) for n in nodes]
        return sum(xs) / len(xs), max(xs)

    chains = [len(h.area_chain(p)) for p in range(h.instance.n_points)]
    out = {"nodes": len(nodes), "levels": len(levels),
           "colors_max": max(lv["colors"] for lv in levels),
           "area_chain_mean": sum(chains) / len(chains), "per_level": levels}
    for attr in ("x_areas", "y_areas", "neighbors_above"):
        out[f"{attr}_mean"], out[f"{attr}_max"] = sizes(attr)
    return out


# -- churn-l2 and flap-625: a self-undoing cycle replayed on one engine ---------

class CycleReplay:
    """Replays the trace's cycle on one engine, resuming where the previous
    call stopped.  After each complete cycle the live set equals the prefill
    again, so the state hash must equal the set-up engine's and the cycle's
    query outputs must equal the first cycle's."""

    def __init__(self, engine, cycle, checker, capacity: int, expect_rebuild: bool,
                 batch_every: int, probe_pos: int | None):
        self.engine = engine
        self.ops = [(_CODES[e.kind], e.cid, e.point) for e in cycle]
        self.checker = checker
        self.expect_rebuild = expect_rebuild
        self.batch_every = batch_every
        self.probe_pos = probe_pos
        self.start_hash = engine.state_hash()
        self.lat = Latencies(capacity)
        self.pos = 0
        self.cycles = 0
        self.outputs: list = []           # (kind, value) of the cycle in progress
        self.first_cycle: list[str] | None = None
        self.cycle_digests: list[str] = []
        self.events = 0
        self.timed_ns = 0           # wall-clock time of the timed events
        self.norm_ns = 0.0          # the same, normalised (see Speed)
        self.speed = Speed()
        self.rebuilds = 0
        self.broken = False

    @property
    def repetitions(self) -> int:
        return self.cycles

    @property
    def replayed(self) -> int:
        return self.events

    @property
    def output_digest(self) -> str:
        """Digest of one full cycle's query outputs (of the partial cycle
        when none completed)."""
        if self.cycle_digests:
            return self.cycle_digests[0]
        return digest([render(k, v) for k, v in self.outputs])

    def _end_cycle(self) -> None:
        rendered = [render(k, v) for k, v in self.outputs]
        self.cycle_digests.append(digest(rendered))
        if self.first_cycle is None:
            self.first_cycle = rendered
        self.checker.expect(self.cycle_digests[-1] == self.cycle_digests[0],
                            f"cycle {self.cycles}: query outputs differ from cycle 0")
        self.checker.expect(self.engine.state_hash() == self.start_hash,
                            f"cycle {self.cycles}: state_hash differs from set-up engine")
        self.cycles += 1
        self.outputs = []

    def run(self, seconds: float, tracer=None) -> None:
        """Replay for ``seconds`` of timed events, in blocks of ``BLOCK_NS``
        with a calibration after each."""
        left = int(seconds * 1e9)
        self.speed.begin()
        while left > 0 and not self.broken:
            mark, before = self.lat.mark(), self.timed_ns
            self._block(min(left, BLOCK_NS), tracer)
            scale = self.speed.end_block()
            self.lat.rescale(mark, scale)
            self.norm_ns += (self.timed_ns - before) * scale
            left -= self.timed_ns - before

    def _block(self, budget_ns: int, tracer) -> None:
        eng = self.engine
        insert, delete = eng.insert_client, eng.delete_client
        cost, solution = eng.cost_query, eng.solution_query
        ops, n_ops, lat, checker = self.ops, len(self.ops), self.lat, self.checker
        add_insert, add_delete = lat.insert.add, lat.delete.add
        expect_rebuild = self.expect_rebuild
        pos, hier, events, paused = self.pos, eng.hierarchy, 0, 0
        out = self.outputs
        begin = t1 = perf_counter_ns()
        deadline = begin + budget_ns
        try:
            while t1 < deadline:
                if pos == n_ops or pos % self.batch_every == 0 or (
                        pos == self.probe_pos and self.cycles == 0):
                    p0 = perf_counter_ns()
                    if pos == n_ops:
                        self.outputs = out
                        self._end_cycle()
                        out, pos = self.outputs, 0
                    if pos % self.batch_every == 0:
                        lat.cost_batch(cost)
                    if pos == self.probe_pos and self.cycles == 0:
                        checker.full(eng, f"cycle 0 position {pos}")
                    p1 = perf_counter_ns()
                    paused += p1 - p0
                    deadline += p1 - p0
                code, cid, point = ops[pos]
                if tracer is not None:
                    tracer.event_index = self.events + events
                if code == INSERT:
                    t0 = perf_counter_ns()
                    insert(cid, point)
                    t1 = perf_counter_ns()
                    add_insert(t1 - t0)
                elif code == DELETE:
                    t0 = perf_counter_ns()
                    delete(cid)
                    t1 = perf_counter_ns()
                    add_delete(t1 - t0)
                elif code == COST:
                    t0 = perf_counter_ns()
                    value = cost()
                    t1 = perf_counter_ns()
                    out.append((COST, value))
                else:
                    t0 = perf_counter_ns()
                    value = solution()
                    t1 = perf_counter_ns()
                    out.append((SOLUTION, value))
                events += 1
                pos += 1
                if code <= DELETE:
                    rebuilt = eng.hierarchy is not hier
                    if rebuilt:
                        self.rebuilds += 1
                        hier = eng.hierarchy
                    if rebuilt != expect_rebuild:
                        checker.expect(False, f"event {self.events + events - 1}: "
                                       f"rebuilt={rebuilt}, expected {expect_rebuild}")
                    if tracer is not None:
                        lat.note_work(eng.last_update)
        except Exception as exc:  # the engine raised: stop, count the event
            checker.expect(False, f"event {self.events + events}: {exc!r}")
            self.broken = True
        end = perf_counter_ns()
        self.outputs = out
        self.pos = pos
        self.events += events
        self.timed_ns += end - begin - paused
        if tracer is not None:
            tracer.event_index = -1

    def finish(self) -> None:
        """Checks at the final state: from-scratch and oracle equality, and
        the partial cycle's outputs against the first cycle's prefix."""
        if self.first_cycle is not None:
            rendered = [render(k, v) for k, v in self.outputs]
            self.checker.expect(rendered == self.first_cycle[:len(rendered)],
                                "final partial cycle: outputs differ from cycle 0")
        self.checker.full(self.engine, "final state")


# -- verify-matrix: verified replays of the whole trace --------------------------

class MatrixReplay:
    """Each round replays the trace once through the engine with per-event
    timing, then once through ``verify_trace`` (the ``netfloc verify``
    path).  Both must print the same query outputs in every round."""

    def __init__(self, instance, events, checker, capacity: int):
        self.instance = instance
        self.events_list = events
        self.ops = [(_CODES[e.kind], e.cid, e.point) for e in events]
        self.checker = checker
        self.lat = Latencies(capacity)
        self.engine = None
        self.first_outputs: list[str] | None = None
        self.events = 0             # events replayed by verify_trace
        self.timed_ns = 0           # wall-clock time inside verify_trace
        self.norm_ns = 0.0          # the same, normalised (see Speed)
        self.speed = Speed()
        self.fast_events = 0
        self.rebuilds = 0
        self.rounds = 0

    @property
    def repetitions(self) -> int:
        return self.rounds

    @property
    def replayed(self) -> int:
        """Events of both replays, plain and verified."""
        return self.events + self.fast_events

    @property
    def output_digest(self) -> str:
        return digest(self.first_outputs or [])

    def _fast_replay(self, tracer):
        eng = Engine(self.instance)
        insert, delete = eng.insert_client, eng.delete_client
        cost, solution = eng.cost_query, eng.solution_query
        lat, hier, outputs = self.lat, eng.hierarchy, []
        add_insert, add_delete = lat.insert.add, lat.delete.add
        for code, cid, point in self.ops:
            if code == INSERT:
                t0 = perf_counter_ns()
                insert(cid, point)
                add_insert(perf_counter_ns() - t0)
            elif code == DELETE:
                t0 = perf_counter_ns()
                delete(cid)
                add_delete(perf_counter_ns() - t0)
            else:
                outputs.append((code, cost() if code == COST else solution()))
                continue
            if eng.hierarchy is not hier:
                self.rebuilds += 1
                hier = eng.hierarchy
            if tracer is not None:
                lat.note_work(eng.last_update)
        self.fast_events += len(self.ops)
        return eng, [render(k, v) for k, v in outputs]

    def run(self, seconds: float, tracer=None) -> None:
        """Whole rounds until ``seconds`` have passed.  The plain replay with
        its cost batch is one timed block and the ``verify_trace`` call
        another, each followed by a calibration."""
        deadline = perf_counter() + seconds
        check = self.checker.expect
        self.speed.begin()
        while perf_counter() < deadline:
            try:
                if tracer is not None:
                    tracer.event_index = self.fast_events + self.events
                mark = self.lat.mark()
                self.engine, fast_outputs = self._fast_replay(tracer)
                self.lat.cost_batch(self.engine.cost_query)
                self.lat.rescale(mark, self.speed.end_block())
                t0 = perf_counter_ns()
                status, lines = harness.verify_trace(self.instance, self.events_list)
                elapsed = perf_counter_ns() - t0
                self.timed_ns += elapsed
                self.norm_ns += elapsed * self.speed.end_block()
                self.events += len(self.events_list)
            except Exception as exc:  # the engine raised: stop, count the round
                check(False, f"round {self.rounds}: {exc!r}")
                break
            if self.first_outputs is None:
                self.first_outputs = fast_outputs
            check(status == 0, f"round {self.rounds}: verify_trace status {status}: "
                  f"{lines[:1]}")
            check(lines == fast_outputs, f"round {self.rounds}: verify_trace outputs "
                  "differ from the plain replay")
            check(fast_outputs == self.first_outputs,
                  f"round {self.rounds}: outputs differ from round 0")
            self.rounds += 1
        if tracer is not None:
            tracer.event_index = -1

    def finish(self) -> None:
        if self.engine is not None:
            self.checker.full(self.engine, "final state")


# -- entry point ---------------------------------------------------------------

# Whether set-up builds an engine over the prefill, and how many set-ups a run
# times (more where set-up is cheap).  ``capacity``: how many insert and
# delete latencies are kept, well above what a 20-second run records.  For the cycle
# workloads: whether every update must rebuild the hierarchy, how many events
# apart the cost_query batches sit, and the first-cycle position of an extra
# full check (flap: after the first insert, at 625 clients; churn skips it, as
# its full check costs seconds and the final one suffices).
WORKLOADS = {
    "churn-l2": {"engine": True, "setups": 8, "capacity": 1 << 20,
                 "expect_rebuild": False, "batch_every": 5000, "probe": None},
    "flap-625": {"engine": True, "setups": 12, "capacity": 1 << 12,
                 "expect_rebuild": True, "batch_every": 3, "probe": 1},
    "verify-matrix": {"engine": False, "setups": 8, "capacity": 1 << 16},
}


def make_replay(workload: str, instance, events, engine, prefill: int, checker):
    spec = WORKLOADS[workload]
    if not spec["engine"]:
        return MatrixReplay(instance, events, checker, spec["capacity"])
    return CycleReplay(engine, events[prefill:], checker, spec["capacity"],
                       spec["expect_rebuild"], spec["batch_every"], spec["probe"])


def shape_of(replay) -> dict:
    return hierarchy_shape(replay.engine.hierarchy) if replay.engine is not None else {}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced(workload: str, inputs, seconds: float, setup_elsewhere) -> dict:
    """Set up, then replay for ``seconds`` in as many slices as set-ups.
    Between slices ``setup_elsewhere()`` times one more set-up in a fresh
    process, so set-up samples spread over the whole run (a slow spell of
    the machine cannot cover them all), each starts from the same
    near-empty heap, and none adds to this process's peak RSS.  The peak is
    read before the final check."""
    spec = WORKLOADS[workload]
    secs, instance, events, engine = setup(inputs, spec["engine"])
    setup_times = [secs]
    checker = Checker(instance)
    replay = make_replay(workload, instance, events, engine, inputs.prefill, checker)
    del engine
    # The cycle workloads report the set-up hierarchy; the matrix workload,
    # which starts empty, the one at the end of its trace.
    shape = shape_of(replay)
    for k in range(spec["setups"] - 1):
        replay.run(seconds / spec["setups"])
        try:
            setup_times.append(setup_elsewhere())
        except Exception as exc:  # a set-up that fails is a failed check
            checker.expect(False, f"set-up {k + 1}: {exc}")
    replay.run(seconds / spec["setups"])
    rss = peak_rss_mb()
    replay.finish()
    return {"setup_times": setup_times, "replay": replay, "checker": checker,
            "shape": shape or shape_of(replay), "peak_rss_mb": rss}


def traced(workload: str, inputs, seconds: float, tracer) -> dict:
    """One traced set-up, then ``seconds / 2`` of traced and ``seconds / 2``
    of untraced replay from the same state; the two event rates give the
    tracing overhead.  Checks run with tracing paused."""
    install_tracer(tracer)
    try:
        tracer.active = True
        secs, instance, events, engine = setup(inputs, WORKLOADS[workload]["engine"])
        tracer.active = False
        setup_spans = tracer.summary()
        setup_distance = tracer.count("instance.distance")
        checker = Checker(instance, tracer)
        replay = make_replay(workload, instance, events, engine, inputs.prefill, checker)
        del engine
        shape = shape_of(replay)
        tracer.active = True
        replay.run(seconds / 2, tracer)
        tracer.active = False
    finally:
        tracer.uninstall()
    traced_part = {"events": replay.events, "ns": replay.norm_ns,
                   "rebuilds": replay.rebuilds,
                   "work": list(replay.lat.work), "updates": replay.lat.work_updates,
                   "distance_calls": tracer.count("instance.distance") - setup_distance}
    replay.run(seconds / 2)
    replay.finish()
    return {"setup_times": [secs], "replay": replay, "checker": checker,
            "shape": shape or shape_of(replay), "setup_spans": setup_spans,
            "setup_distance_calls": setup_distance, "traced": traced_part}


def summarize(lat: Latencies) -> dict:
    """Normalised timings of one run, each over all of the run's samples:
    latency percentiles, and the median cost_query batch.  The p90 and p99
    are details only."""
    out = {"cost_query_ns": (statistics.median(lat.cost_batch_ns)
                             if lat.cost_batch_ns else 0.0)}
    for kind, samples in (("insert", lat.insert), ("delete", lat.delete)):
        xs = sorted(samples.values())
        for q in (50, 90, 99):
            out[f"{kind}_us_p{q}"] = percentile(xs, q / 100) / 1e3
    out["samples"] = {"insert": len(lat.insert), "delete": len(lat.delete),
                      "cost_batches": len(lat.cost_batch_ns)}
    return out
