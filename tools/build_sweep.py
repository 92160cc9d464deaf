"""Hierarchy build time and memory against the number of facilities.

    python3 tools/build_sweep.py [F ...]        (default: 400 1600 3200)

For each facility count F, a fresh process builds one seeded instance: F
facility points and 2,000 client points with float coordinates drawn
uniformly from [0, 1000]^2 under L2, integer opening costs in [1, 500], and
the hierarchy of the client-count scale n = 5**6.  It prints one line per F:
``diameter_s``, the seconds of the first ``Instance.diameter`` (the kernel
over each point's reach, the floor's two rows and the pairs of the points
whose bound reaches the floor, over the points' array built at load, before
``derive_parameters`` reads the cached value), ``diameter_pairs``, the pairs
that diameter hands to the kernel ``_squared_sums`` (the size of each call's
broadcast index arrays), the facility table's seconds, the rest of the
build's seconds (the first ``Instance.hierarchy`` call, which builds the
hierarchy and keeps it), the node and level counts, ``located_pairs``, the
(point, node) pairs the build hands to ``Instance.pair_distances`` after the
table is built (counted the same way), the process's peak RSS after the
build, ``rebuild_s``, the best of 5 ``Engine._rebuild`` calls of an engine
with n live clients spread over the 2,000 client points (each rebuild finds
the hierarchy built, counts the clients of every node and builds one fresh
``Annotations``, so it times the count and the new lists, not a hierarchy
build), ``gc_ms``, the
milliseconds of one full ``gc.collect()`` while the built hierarchy and the
engine are alive (every GC-tracked object the hierarchy keeps is traversed),
and the memory of one more build traced by ``tracemalloc``:
``traced_peak_mb``, its peak, and ``traced_retained_mb``, what the built
hierarchy keeps, and ``view_s``, the seconds of one ``OracleView`` over the
hierarchy (its bulk scans of all points and of every level's facility
pairs), timed after the traced build so that neither the peak RSS nor the
traced figures include it.  Last, after every figure above, the process
builds the hierarchy of the scale 5**7 and prints ``shared_offset``, its
``Hierarchy.shared_offset`` relation to the 5**6 hierarchy (the number of
node ids it adds below the shared levels, or None), and ``shift_s``, the
best of 5 round trips of the engine's ``_rebuild`` down to 5**6 and back up
to 5**7 (both hierarchies built before the first; each rebuild builds one
fresh ``Annotations``, and a related pair copies the shared nodes' counts).

Two last lines follow.  ``deep`` describes the build of a seeded many-level
instance: 12 uniform points under L2 and 8 facilities with integer costs in
[1, 500] but for one of 1e-300 and one of 1e308, at the scale n = 0, about
870 levels of few nodes each.  It gives ``levels``, ``nodes``, ``build_s``
(the first ``Instance.hierarchy`` call, after the facility table) and
``traced_retained_mb``, what a second, traced build keeps.  Then
``diameter_s`` and ``diameter_pairs`` of 20,000 such uniform points alone.
Run from the root of a source checkout: the package is imported from its
``src`` directory.
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
DEEPER_SCALE = 5 ** 7
DIAMETER_POINTS = 20000
DEEP_FACILITIES = 8


def first_diameter(instance) -> tuple[float, int]:
    """The seconds of ``instance``'s first diameter and the pairs it hands
    to ``_squared_sums``."""
    from netfloc import instance as instance_mod

    pairs = 0
    kernel = instance_mod._squared_sums

    def counting(arr, ps, qs):
        nonlocal pairs
        pairs += np.broadcast(ps, qs).size
        return kernel(arr, ps, qs)

    instance_mod._squared_sums = counting
    try:
        start = time.perf_counter()
        instance.diameter
        return time.perf_counter() - start, pairs
    finally:
        instance_mod._squared_sums = kernel


def measure_diameter(n_points: int) -> str:
    """Time the diameter of ``n_points`` uniform points in one line."""
    sys.path.insert(0, str(SRC))
    from netfloc import Instance

    rng = random.Random(f"build-sweep-diameter-{n_points}")
    points = [[rng.uniform(0, 1000), rng.uniform(0, 1000)] for _ in range(n_points)]
    diameter_s, pairs = first_diameter(Instance("euclidean-L2", points=points,
                                                facilities=[(0, 1)]))
    return f"points={n_points} diameter_s={diameter_s:.4f} diameter_pairs={pairs}"


def deep_instance():
    """The seeded many-level instance, ~870 levels at the scale n = 0."""
    sys.path.insert(0, str(SRC))
    from netfloc import Instance

    rng = random.Random("build-sweep-deep")
    points = [[rng.uniform(0, 1000), rng.uniform(0, 1000)] for _ in range(12)]
    costs = [rng.randint(1, 500) for _ in range(DEEP_FACILITIES)]
    costs[1], costs[5] = 1e-300, 1e308
    return Instance("euclidean-L2", points=points, facilities=list(enumerate(costs)))


def measure_deep() -> str:
    """Describe the build of the seeded many-level instance in one line."""
    instance = deep_instance()
    from netfloc import Hierarchy, derive_parameters

    params = derive_parameters(instance, 0)
    instance.facility_distances
    start = time.perf_counter()
    hierarchy = instance.hierarchy(params)
    build_s = time.perf_counter() - start
    gc.collect()
    tracemalloc.start()
    traced = Hierarchy(instance, params)  # alive while its memory is read
    retained, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return (f"deep levels={params.delta} nodes={len(hierarchy.nodes)} build_s={build_s:.3f} "
            f"traced_retained_mb={retained / 2**20:.1f}")


def measure(n_facilities: int) -> str:
    """Build the instance of ``n_facilities`` in this process and describe
    the build in one line."""
    sys.path.insert(0, str(SRC))
    from netfloc import Engine, Hierarchy, Instance, OracleView, derive_parameters

    rng = random.Random(f"build-sweep-{n_facilities}")
    points = [[rng.uniform(0, 1000), rng.uniform(0, 1000)]
              for _ in range(n_facilities + CLIENT_POINTS)]
    instance = Instance("euclidean-L2", points=points,
                        facilities=[(i, rng.randint(1, 500)) for i in range(n_facilities)])
    diameter_s, diameter_pairs = first_diameter(instance)
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
    start = time.perf_counter()
    gc.collect()
    gc_ms = (time.perf_counter() - start) * 1e3
    tracemalloc.start()
    traced = Hierarchy(instance, params)  # alive while its memory is read
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    start = time.perf_counter()
    OracleView(instance, hierarchy)
    view_s = time.perf_counter() - start
    deeper_params = derive_parameters(instance, DEEPER_SCALE)
    shared_offset = instance.hierarchy(deeper_params).shared_offset(hierarchy)
    engine._rebuild(deeper_params)
    shift_s = math.inf
    for _ in range(5):
        start = time.perf_counter()
        engine._rebuild(params)
        engine._rebuild(deeper_params)
        shift_s = min(shift_s, time.perf_counter() - start)
    return (f"F={n_facilities} diameter_s={diameter_s:.4f} diameter_pairs={diameter_pairs} "
            f"table_s={table_s:.3f} "
            f"build_s={build_s:.3f} nodes={len(hierarchy.nodes)} levels={params.delta} "
            f"located_pairs={located} peak_rss_mb={peak_mb:.0f} rebuild_s={rebuild_s:.4f} "
            f"gc_ms={gc_ms:.1f} "
            f"traced_peak_mb={peak / 2**20:.1f} traced_retained_mb={retained / 2**20:.1f} "
            f"view_s={view_s:.3f} shared_offset={shared_offset} shift_s={shift_s:.4f}")


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
    print(measure_deep())
    print(measure_diameter(DIAMETER_POINTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
