"""Alternated base/change pairs of perfbench runs, written as one JSON file.

    python3 tools/bench_pairs.py --base <ref> [--head HEAD] --out BENCH_<n>.json \\
        [--workloads churn-l2 flap-625 verify-matrix] [--seeds 1] [--pairs 10] [--seconds 20]

Each side is the committed tree of a git ref (``--base`` defaults to
``HEAD~1``, ``--head`` to ``HEAD``), extracted with ``git archive`` into a
scratch directory that is removed at the end, so uncommitted edits never
reach a run and the repository's own checkout and worktree list stay as they
are.  For every workload and seed, each pair runs ``perfbench/run.py
--trace 0`` once per side, each run in a fresh process, and alternates which
side runs first: the base in even pairs, the change in odd ones.  perfbench
itself is run unchanged, from the tree under test.

The output holds the provenance of both sides (commit, Python, numpy,
``nproc``, CPU) and, per workload and seed, every run's end-to-end values,
``correct``, ``failed`` and input and output digests, whether each pair's
digests are equal, and per metric of ``BENCHMARK.json``'s ``end_to_end``
list: both sides' medians and quartiles, the change's wins (ties count for
neither side), whether its median lies within the metric's bound, and
whether it claims a gain (at least ten pairs, nine tenths of them won, and
the medians further apart than the base's interquartile range).  It also
gives the least-squares slope of ``peak_rss_mb`` against thousands of
``events_per_s`` over all runs of a workload: perfbench's per-event lists
make flap's memory grow with its speed.  The tool reports and gates
nothing; perfbench's bounds are the gate.  Exit status: 0 when the file was
written, 1 when a run printed no result line.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def quantile(values: list[float], q: float) -> float:
    """The q-quantile of ``values``, interpolated linearly between the
    sorted values (numpy's default method), so one value is its own
    quantile at every q."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def wins(base: list[float], head: list[float], better: str) -> int:
    """Pairs in which the change reads better than the base; ties count
    for neither side."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (h - b) > 0 for b, h in zip(base, head))


def within_bound(base_median: float, head_median: float, better: str,
                 bound: float) -> bool:
    """Whether the change's median is worse than the base's by no more than
    the fraction ``bound`` of it."""
    if better == "higher":
        return head_median >= base_median * (1 - bound)
    return head_median <= base_median * (1 + bound)


def gain(base: list[float], head: list[float], better: str) -> bool:
    """A claimable gain: at least ten pairs, of which the change wins at
    least nine tenths, and its median better than the base's by more than
    the base's interquartile range."""
    sign = 1 if better == "higher" else -1
    spread = quantile(base, 0.75) - quantile(base, 0.25)
    return (len(base) >= 10 and 10 * wins(base, head, better) >= 9 * len(base)
            and sign * (median(head) - median(base)) > spread)


def slope(xs: list[float], ys: list[float]) -> float | None:
    """Least-squares slope of ys against xs; None when xs do not vary."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per-metric statistics of one workload and seed from its ``runs``,
    one dict per pair with a ``base`` and a ``head`` run (``metrics``: the
    end-to-end values by name), for the ``end_to_end`` list of ``spec``."""
    metrics = {}
    for m in spec["end_to_end"]:
        name, better, bound = m["name"], m["better"], m["bound"]
        base = [pair["base"]["metrics"][name] for pair in runs]
        head = [pair["head"]["metrics"][name] for pair in runs]
        entry = {"unit": m["unit"], "better": better, "bound": bound, "base": base, "head": head}
        for side, values in (("base", base), ("head", head)):
            entry[f"{side}_median"] = median(values)
            entry[f"{side}_q1"] = quantile(values, 0.25)
            entry[f"{side}_q3"] = quantile(values, 0.75)
        entry["change"] = (entry["head_median"] / entry["base_median"] - 1
                           if entry["base_median"] else None)
        entry["wins"] = wins(base, head, better)
        entry["pairs"] = len(runs)
        entry["within_bound"] = within_bound(entry["base_median"], entry["head_median"],
                                             better, bound)
        entry["gain"] = gain(base, head, better)
        metrics[name] = entry
    every = [pair[side] for pair in runs for side in SIDES]
    return {
        "metrics": metrics,
        "digests_equal": [pair["base"]["input_digest"] == pair["head"]["input_digest"]
                          and pair["base"]["output_digest"] == pair["head"]["output_digest"]
                          for pair in runs],
        "rss_mb_per_k_events_per_s": slope(
            [run["metrics"]["events_per_s"] / 1000 for run in every],
            [run["metrics"]["peak_rss_mb"] for run in every]),
    }


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(commit: str, where: Path) -> Path:
    """The committed tree of ``commit``, extracted under ``where``."""
    tree = where / commit
    tree.mkdir(parents=True)
    archive = where / f"{commit}.tar"
    git("archive", "--format=tar", "-o", str(archive), commit)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(tree)], check=True)
    archive.unlink()
    return tree


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` perfbench run in a fresh process, from ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: exit {proc.returncode}, "
                           f"no result: {proc.stderr.strip()[-300:]}")
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "input_digest": detail["input_digest"],
            "output_digest": detail["output_digest"], "provenance": detail["provenance"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--head", default="HEAD")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=["churn-l2", "flap-625", "verify-matrix"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    commits = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: extract(commits[side], scratch / side) for side in SIDES}
        spec = json.loads((trees["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        provenance = {side: {"ref": getattr(args, side), "commit": commits[side]}
                      for side in SIDES}
        results = {}
        for workload in args.workloads:
            for seed in args.seeds:
                runs = []
                for pair in range(args.pairs):
                    order = SIDES if pair % 2 == 0 else SIDES[::-1]
                    runs.append({side: run_once(trees[side], workload, seed, args.seconds)
                                 for side in order})
                    runs[-1]["first"] = order[0]
                    print(f"{workload} seed {seed} pair {pair + 1}/{args.pairs}: "
                          + " ".join(f"{side}={runs[-1][side]['metrics']['events_per_s']:.1f}"
                                     for side in SIDES), file=sys.stderr, flush=True)
                for side in SIDES:
                    prov = runs[0][side]["provenance"]
                    provenance[side].update((k, prov[k]) for k in
                                            ("python", "numpy", "nproc", "cpu", "src_lines"))
                    for pair in runs:
                        del pair[side]["provenance"]
                results[f"{workload}/seed{seed}"] = {
                    "workload": workload, "seed": seed, "runs": runs,
                    **summarize(runs, spec)}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report = {"settings": {"pairs": args.pairs, "seconds": args.seconds, "trace": 0},
              "sides": provenance, "results": results}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for key, res in results.items():
        for name, m in res["metrics"].items():
            change = "n/a" if m["change"] is None else f"{100 * m['change']:+.1f}%"
            print(f"{key} {name}: base {m['base_median']:.6g} [{m['base_q1']:.6g}, "
                  f"{m['base_q3']:.6g}] head {m['head_median']:.6g} [{m['head_q1']:.6g}, "
                  f"{m['head_q3']:.6g}] {change} wins {m['wins']}/{m['pairs']} "
                  f"within_bound={m['within_bound']} gain={m['gain']}")
        print(f"{key} digests_equal={all(res['digests_equal'])} "
              f"rss_mb_per_k_events_per_s={res['rss_mb_per_k_events_per_s']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
