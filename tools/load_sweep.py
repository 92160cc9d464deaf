"""Explicit-matrix instance load time and memory against the number of points.

    python3 tools/load_sweep.py [n ...]        (default: 200 400 1000)

For each point count n, a fresh process loads one seeded instance: n points
drawn uniformly from [0, 1000]^2, their ``math.dist`` matrix as an
``explicit-matrix`` instance, and n // 5 facilities with integer opening
costs in [1, 500].  It prints one line per n: ``loads_s``, the seconds of
``json.loads`` on the instance text; ``load_s``, the seconds of
``Instance.from_dict`` on the parsed data; and, within that load,
``entries_s``, the numeric checks of the matrix rows and the costs,
``axioms_s``, the diagonal, symmetry and sign checks, and ``triangle_s``,
the triangle inequality; then the process's peak RSS after the load, and
``retained_mb``, the MiB that a second load of the text (``json.loads`` and
``Instance.from_dict``, traced by ``tracemalloc`` outside the timed one)
still holds after ``gc.collect()``: the instance, whose metric is its array
of n * n floats.  The three parts are timed by wrapping the functions the
load calls, so they are those calls' wall-clock seconds; the square check
and building the array precede ``axioms_s`` and count only in ``load_s``.
Run from the root of a source checkout: the package is imported from its
``src`` directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def instance_text(n: int) -> str:
    """The seeded explicit-matrix instance of ``n`` points as JSON text."""
    rng = random.Random(f"load-sweep-{n}")
    points = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(n)]
    return json.dumps({
        "metric": {"kind": "explicit-matrix",
                   "matrix": [[math.dist(p, q) for q in points] for p in points]},
        "facilities": [{"point": i, "cost": rng.randint(1, 500)}
                       for i in range(max(1, n // 5))],
    })


def measure(n: int) -> str:
    """Load the instance of ``n`` points in this process and describe the
    load in one line."""
    sys.path.insert(0, str(SRC))
    from netfloc import Instance
    from netfloc import instance as module

    spent = dict.fromkeys(("entries", "validate", "triangle"), 0.0)

    def timed(fn, key):
        def wrapper(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[key] += time.perf_counter() - start
        return wrapper

    module._finite_floats = timed(module._finite_floats, "entries")
    Instance._validate_matrix = timed(Instance._validate_matrix, "validate")
    Instance._check_triangles = staticmethod(timed(Instance._check_triangles, "triangle"))
    text = instance_text(n)
    start = time.perf_counter()
    data = json.loads(text)
    loads_s = time.perf_counter() - start
    start = time.perf_counter()
    instance = Instance.from_dict(data)
    load_s = time.perf_counter() - start
    assert instance.n_points == n
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    line = (f"n={n} loads_s={loads_s:.4f} load_s={load_s:.4f} "
            f"entries_s={spent['entries']:.4f} "
            f"axioms_s={spent['validate'] - spent['triangle']:.4f} "
            f"triangle_s={spent['triangle']:.4f} peak_rss_mb={peak_mb:.0f}")
    del data, instance
    gc.collect()
    tracemalloc.start()
    instance = Instance.from_dict(json.loads(text))
    gc.collect()
    retained_mb = tracemalloc.get_traced_memory()[0] / 2 ** 20
    tracemalloc.stop()
    return f"{line} retained_mb={retained_mb:.2f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("points", nargs="*", type=int, default=[200, 400, 1000])
    parser.add_argument("--one", action="store_true",
                        help="measure a single n in this process")
    args = parser.parse_args(argv)
    if args.one:
        print(measure(args.points[0]))
        return 0
    for n in args.points:
        result = subprocess.run([sys.executable, __file__, "--one", str(n)])
        if result.returncode:
            return result.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
