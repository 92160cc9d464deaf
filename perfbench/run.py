"""Seeded netfloc benchmark.

    python3 perfbench/run.py --workload churn-l2 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from its
``src`` directory, never from an installed copy.  The workload's instance
and trace texts are generated from the seed; the run checks the program's
outputs and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones from
a run traced from outside the package.  The line before it holds the details
(provenance, input and output digests, hierarchy shape, sample counts, check
failures); they are also written to ``perfbench/out/``, together with every
span of a traced run.  ``--setup-only`` times one set-up and prints its
seconds; a ``--trace 0`` run starts it between replay slices to sample set-up
in fresh processes.  Exit status: 0 when every check passed, 1 when one
failed, 2 when the sources or the arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def git_commit() -> str:
    """HEAD's commit id, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in SRC.rglob("*.py")),
        "seed": seed,
    }


def setup_in_child(workload: str, seed: int) -> float:
    """Normalised seconds of one set-up, timed by ``--setup-only`` in a
    fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-200:]}")
    return float(proc.stdout.split()[-1])


def end_to_end(res: dict, summary: dict) -> dict:
    """End-to-end values, all timings normalised (see ``workloads.Speed``).
    ``setup_s`` is the median set-up; ``events_per_s`` is over the whole
    timed replay, and ``events_per_s_wall`` is the same in wall-clock time,
    as a detail."""
    rep = res["replay"]
    metrics = {k: v for k, v in summary.items() if k != "samples"}
    metrics["setup_s"] = statistics.median(res["setup_times"])
    metrics["events_per_s"] = rep.events / (rep.norm_ns / 1e9) if rep.norm_ns else 0.0
    metrics["events_per_s_wall"] = rep.events / (rep.timed_ns / 1e9) if rep.timed_ns else 0.0
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    return metrics


def per_layer(res: dict, spans: dict) -> dict:
    """Per-layer values.  ``<span>.<calls|s|self_s|us_p50>`` names come
    straight from the span summary; the rest are computed here."""
    traced, rep, shape = res["traced"], res["replay"], res["shape"]
    updates = max(traced["updates"], 1)
    untraced_ns = rep.norm_ns - traced["ns"]
    traced_eps = traced["events"] / (traced["ns"] / 1e9) if traced["ns"] else 0.0
    untraced_eps = ((rep.events - traced["events"]) / (untraced_ns / 1e9)
                    if untraced_ns else 0.0)
    values = {
        "instance.distance.calls": res["setup_distance_calls"],
        "instance.distance.per_update": traced["distance_calls"] / updates,
        "engine.affected_per_update": traced["work"][0] / updates,
        "engine.heap_pulls_per_update": traced["work"][1] / updates,
        "engine.flips_per_update": traced["work"][2] / updates,
        "engine.rebuilds": traced["rebuilds"],
        "hierarchy.setup_builds": res["setup_spans"]["hierarchy.build"]["calls"],
        "trace.events_per_s": traced_eps,
        "trace.untraced_events_per_s": untraced_eps,
        "trace.overhead_x": untraced_eps / traced_eps if traced_eps else 0.0,
    }
    for key in ("nodes", "levels", "colors_max", "area_chain_mean", "x_areas_mean",
                "x_areas_max", "y_areas_mean", "y_areas_max", "neighbors_above_mean",
                "neighbors_above_max"):
        values[f"hierarchy.{key}"] = shape[key]
    for name, fields in spans.items():
        for key, value in fields.items():
            values.setdefault(f"{name}.{key}", value)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required")

    if not (SRC / "netfloc" / "__init__.py").is_file():
        print(f"error: no netfloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    import inputs
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    data = inputs.GENERATORS[args.workload](args.seed)
    if args.setup_only:
        print(workloads.setup(data, workloads.WORKLOADS[args.workload]["engine"])[0])
        return 0
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        tracer = Tracer()
        res = workloads.traced(args.workload, data, args.seconds, tracer)
        values = per_layer(res, tracer.summary())
        wanted = spec["per_layer"]
        spans_file = OUT / f"{stem}.spans.csv.gz"
        tracer.write(spans_file)
    else:
        res = workloads.untraced(args.workload, data, args.seconds,
                                 lambda: setup_in_child(args.workload, args.seed))
        wanted = spec["end_to_end"]
        spans_file = None
    rep, checker = res["replay"], res["checker"]
    summary = workloads.summarize(rep.lat)
    if not args.trace:
        values = end_to_end(res, summary)

    attempted = rep.replayed + checker.attempted
    failed = len(checker.problems)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    detail = {
        "workload": args.workload,
        "provenance": provenance(args.seed),
        "input_digest": data.digest,
        "output_digest": rep.output_digest,
        "repetitions": rep.repetitions,
        "setup_times": res["setup_times"],
        "rebuilds": rep.rebuilds,
        "samples": summary["samples"],
        "speed": rep.speed.summary(),
        "op_failure_rate": failed / max(attempted, 1),
        "problems": checker.problems[:20],
        "shape": res["shape"],
        "values": values,
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
