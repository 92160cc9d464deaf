"""Hierarchy build time and memory against the number of facilities.

    python3 tools/build_sweep.py [F ...]        (default: 400 1600 3200)

For each facility count F, a fresh process builds one seeded instance: F
facility points and 2,000 client points with float coordinates drawn
uniformly from [0, 1000]^2 under L2, integer opening costs in [1, 500], and
the hierarchy of the client-count scale n = 5**6.  It prints one line per F:
the facility table's seconds, the rest of the build's seconds (the first
``Instance.hierarchy`` call, which builds the hierarchy and keeps it), the
node and level counts, ``located_pairs``, the (point, node) pairs the build
hands to ``Instance.pair_distances`` after the table is built (the size of
each call's broadcast index arrays), the process's peak RSS after the build,
``rebuild_s``, the best of 5 ``Engine._rebuild`` calls of an engine with n
live clients spread over the 2,000 client points (each rebuild finds the
hierarchy built and refills the annotation list the engine allocated at
construction, so it times a refill, not an allocation), and the memory of one more build traced by
``tracemalloc``: ``traced_peak_mb``, its peak, and ``traced_retained_mb``,
what the built hierarchy keeps.  Run from the root of a source checkout: the
package is imported from its ``src`` directory.
"""

from __future__ import annotations

import argparse
import gc
import math
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
CLIENT_POINTS = 2000
SCALE = 5 ** 6


def measure(n_facilities: int) -> str:
    """Build the instance of ``n_facilities`` in this process and describe
    the build in one line."""
    sys.path.insert(0, str(SRC))
    from netfloc import Engine, Hierarchy, Instance, derive_parameters

    rng = random.Random(f"build-sweep-{n_facilities}")
    points = [[rng.uniform(0, 1000), rng.uniform(0, 1000)]
              for _ in range(n_facilities + CLIENT_POINTS)]
    instance = Instance("euclidean-L2", points=points,
                        facilities=[(i, rng.randint(1, 500)) for i in range(n_facilities)])
    params = derive_parameters(instance, SCALE)
    start = time.perf_counter()
    instance.facility_distances
    table_s = time.perf_counter() - start
    pairs = 0
    bulk = instance.pair_distances

    def counting(ps, qs):
        nonlocal pairs
        pairs += np.broadcast(ps, qs).size
        return bulk(ps, qs)

    instance.pair_distances = counting
    start = time.perf_counter()
    hierarchy = instance.hierarchy(params)
    build_s = time.perf_counter() - start
    located = pairs
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # SCALE live clients, spread over the client points, keep the engine at
    # the built hierarchy's scale, so its rebuilds find that hierarchy.
    engine = Engine(instance, {i: n_facilities + i % CLIENT_POINTS for i in range(SCALE)})
    assert engine.hierarchy is hierarchy
    rebuild_s = math.inf
    for _ in range(5):
        start = time.perf_counter()
        engine._rebuild(params)
        rebuild_s = min(rebuild_s, time.perf_counter() - start)
    # The table is cached by now, so the traced build holds the hierarchy
    # only; a full collection first empties the interpreter's free lists,
    # whose reuse would otherwise hide allocations from the trace.
    gc.collect()
    tracemalloc.start()
    traced = Hierarchy(instance, params)  # alive while its memory is read
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return (f"F={n_facilities} table_s={table_s:.3f} build_s={build_s:.3f} "
            f"nodes={len(hierarchy.nodes)} levels={params.delta} "
            f"located_pairs={located} peak_rss_mb={peak_mb:.0f} rebuild_s={rebuild_s:.4f} "
            f"traced_peak_mb={peak / 2**20:.1f} traced_retained_mb={retained / 2**20:.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("facilities", nargs="*", type=int, default=[400, 1600, 3200])
    parser.add_argument("--one", action="store_true",
                        help="measure a single F in this process")
    args = parser.parse_args(argv)
    if args.one:
        print(measure(args.facilities[0]))
        return 0
    for n in args.facilities:
        result = subprocess.run([sys.executable, __file__, "--one", str(n)])
        if result.returncode:
            return result.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
