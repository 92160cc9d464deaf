"""Seeded input generation for the benchmark workloads.

Each workload becomes an instance JSON text and a trace text; those two
strings are all the program under test receives.  The same (workload, seed)
pair always yields byte-identical texts, and ``Inputs.digest`` lets runs show
that they shared inputs.

The instance is part of a workload's definition, like a fixed data set: it is
drawn from a generator seeded by the workload name alone, so its hierarchy,
and every shape count read from it, is the same in every run.  The seed
drives the client trace: where clients land and which ones leave.

The churn and flap traces are built as a prefill followed by one *cycle* whose
mutations undo themselves: after a full cycle the live client set equals the
prefill again, so the benchmark can replay the cycle for as long as a run
lasts while the trace text stays small.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

GRID = 1000
COST_RANGE = (3, 500)

# The sizes that define each workload.
CHURN_FACILITIES, CHURN_POOL = 400, 2000
CHURN_PREFILL = 5000          # clients built by Engine.from_clients
CHURN_HALF_CYCLE = 20000      # updates before they are undone in reverse
FLAP_FACILITIES, FLAP_POOL = 100, 1000
FLAP_PREFILL = 624            # one insert reaches 625 = 5**4
FLAP_PAIRS = 20               # insert/delete pairs in one cycle
MATRIX_POINTS, MATRIX_FACILITIES = 200, 40
MATRIX_MUTATIONS = 600


@dataclass(frozen=True)
class Inputs:
    instance_text: str
    trace_text: str
    prefill: int          # leading insert events that seed Engine.from_clients

    @property
    def digest(self) -> str:
        h = hashlib.sha256(self.instance_text.encode())
        h.update(b"\0")
        h.update(self.trace_text.encode())
        return h.hexdigest()


def _grid_points(rng: random.Random, n_distinct: int, n_free: int) -> list:
    """``n_distinct`` distinct integer grid points, then ``n_free`` more
    that may repeat."""
    points, seen = [], set()
    while len(points) < n_distinct:
        p = (rng.randint(0, GRID), rng.randint(0, GRID))
        if p not in seen:
            seen.add(p)
            points.append(p)
    points += [(rng.randint(0, GRID), rng.randint(0, GRID)) for _ in range(n_free)]
    return points


def _facilities(rng: random.Random, n: int) -> list:
    """Uniform integer costs with the cheapest pinned to the range's low
    end, which fixes the bottom logradius and so the number of levels (10
    for churn-l2 once 3,125 clients are live)."""
    costs = [COST_RANGE[0]] + [rng.randint(*COST_RANGE) for _ in range(n - 1)]
    return [{"point": i, "cost": c} for i, c in enumerate(costs)]


def _l2_instance(rng: random.Random, n_facilities: int, n_pool: int) -> str:
    points = _grid_points(rng, n_facilities, n_pool)
    return json.dumps({
        "metric": {"kind": "euclidean-L2", "points": [list(p) for p in points]},
        "facilities": _facilities(rng, n_facilities),
    })


def _matrix_instance(rng: random.Random, n_points: int, n_facilities: int) -> str:
    points = _grid_points(rng, n_points, 0)
    matrix = [[math.dist(p, q) for q in points] for p in points]
    return json.dumps({
        "metric": {"kind": "explicit-matrix", "matrix": matrix},
        "facilities": _facilities(rng, n_facilities),
    })


def _render(mutations, cost_every: int, solution_every: int) -> list[str]:
    """Trace lines for (op, cid, point) mutations, with a ``? cost`` after
    every ``cost_every``-th mutation and a ``? solution`` after every
    ``solution_every``-th."""
    lines = []
    for k, (op, cid, point) in enumerate(mutations, start=1):
        lines.append(f"+ {cid} {point}" if op == "+" else f"- {cid}")
        if k % cost_every == 0:
            lines.append("? cost")
        if k % solution_every == 0:
            lines.append("? solution")
    return lines


def churn(seed: int) -> Inputs:
    """Steady churn: alternate inserts at random points with deletes of
    random live clients, then the same mutations undone in reverse order.
    The live count stays at ``CHURN_PREFILL`` or one more."""
    instance_text = _l2_instance(random.Random("churn-l2"), CHURN_FACILITIES, CHURN_POOL)
    rng = random.Random(f"churn-l2/{seed}")
    n_points = CHURN_FACILITIES + CHURN_POOL
    live = [(f"c{i}", rng.randrange(n_points)) for i in range(CHURN_PREFILL)]
    lines = [f"+ {cid} {p}" for cid, p in live]
    forward = []
    for step in range(CHURN_HALF_CYCLE):
        if step % 2 == 0:
            cid, p = f"c{CHURN_PREFILL + step}", rng.randrange(n_points)
            live.append((cid, p))
            forward.append(("+", cid, p))
        else:
            k = rng.randrange(len(live))
            live[k], live[-1] = live[-1], live[k]
            cid, p = live.pop()
            forward.append(("-", cid, p))
    undo = [("-" if op == "+" else "+", cid, p) for op, cid, p in reversed(forward)]
    lines += _render(forward + undo, cost_every=1, solution_every=50)
    return Inputs(instance_text, "\n".join(lines) + "\n", CHURN_PREFILL)


def flap(seed: int) -> Inputs:
    """Power-of-five flap: from ``FLAP_PREFILL`` = 624 clients, insert one
    client and delete it again, so every update crosses 625."""
    instance_text = _l2_instance(random.Random("flap-625"), FLAP_FACILITIES, FLAP_POOL)
    rng = random.Random(f"flap-625/{seed}")
    n_points = FLAP_FACILITIES + FLAP_POOL
    lines = [f"+ c{i} {rng.randrange(n_points)}" for i in range(FLAP_PREFILL)]
    for k in range(FLAP_PAIRS):
        lines += [f"+ f{k} {rng.randrange(n_points)}", f"- f{k}", "? cost"]
    return Inputs(instance_text, "\n".join(lines) + "\n", FLAP_PREFILL)


def matrix_trace(seed: int) -> Inputs:
    """Explicit-matrix instance from random L2 points, and a 2:1 trace from
    no clients: two inserts at random points, then a delete of a random live
    client, over and over.  The fixed insert/delete pattern makes the live
    count, and with it the power-of-five crossings (5, 25, 125) and the
    rebuilds they cause, the same for every seed."""
    instance_text = _matrix_instance(random.Random("verify-matrix"), MATRIX_POINTS,
                                     MATRIX_FACILITIES)
    rng = random.Random(f"verify-matrix/{seed}")
    live, out = [], []
    for serial in range(MATRIX_MUTATIONS):
        if serial % 3 == 2:
            k = rng.randrange(len(live))
            live[k], live[-1] = live[-1], live[k]
            out.append(("-", live.pop(), None))
        else:
            cid = f"c{serial}"
            live.append(cid)
            out.append(("+", cid, rng.randrange(MATRIX_POINTS)))
    lines = _render(out, cost_every=10, solution_every=50)
    return Inputs(instance_text, "\n".join(lines) + "\n", 0)


GENERATORS = {"churn-l2": churn, "flap-625": flap, "verify-matrix": matrix_trace}
