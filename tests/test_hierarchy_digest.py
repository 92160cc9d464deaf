"""Bit-identity pin of the hierarchy build.

Each seeded instance below is built at the client-count scales 0, 5, 125 and
3125, and every node field, every level set and the area chain of every point
is hashed.  The expected digests were recorded with the original per-pair
scalar build, so any build that changes one threshold decision, one tie-break
or one list order fails here.
"""

import hashlib
import math
import random
from collections import namedtuple

import pytest

from helpers import level_sets, random_instance
from netfloc import Hierarchy, Instance, derive_parameters

SCALES = (0, 5, 125, 3125)

# The digests were recorded when Params also held the diameter, the cost
# range and the scale n; this stand-in repeats that repr.
RecordedParams = namedtuple("Params", "w f_max f_min n rho_min rho_max delta")

# The node fields as they were recorded: ``neighbors_above`` is now derived on
# read, and ``designated_cost`` is the designated facility's opening cost.
RECORDED_FIELDS = (
    "idx", "facility", "r", "color", "parent", "children",
    "x_areas", "y_areas", "neighbors_above",
    "designated_facility", "designated_cost",
    "abundance_threshold", "unit_weight",
)


def _points(rng, n, dims, integer, hi=1000):
    if integer:
        return [[rng.randint(0, hi) for _ in range(dims)] for _ in range(n)]
    return [[rng.uniform(0, hi) for _ in range(dims)] for _ in range(n)]


def _costs(rng, n, lo=1, hi=500):
    return [rng.randint(lo, hi) for _ in range(n)]


def _euclid(kind, rng, n_fac, n_pool, dims, integer, hi=1000):
    pts = _points(rng, n_fac + n_pool, dims, integer, hi)
    return Instance(kind, points=pts,
                    facilities=list(zip(range(n_fac), _costs(rng, n_fac))))


def _matrix(rng):
    pts = _points(rng, 40, 2, integer=False)
    matrix = [[math.dist(a, b) for b in pts] for a in pts]
    return Instance("explicit-matrix", matrix=matrix,
                    facilities=list(zip(range(0, 40, 2), _costs(rng, 20))))


def _fractional(rng):
    pts = _points(rng, 45, 2, integer=False, hi=4)
    costs = [rng.uniform(0.01, 2.0) for _ in range(25)]
    return Instance("euclidean-L2", points=pts, facilities=list(zip(range(25), costs)))


def _huge_cost(rng):
    pts = _points(rng, 10, 2, integer=True)
    costs = _costs(rng, 6)
    costs[3] = 1e308
    return Instance("euclidean-L2", points=pts, facilities=list(zip(range(6), costs)))


def _boundaries(rng):
    # Multiples of 25 on a line: many pair distances land exactly on
    # c*5**r thresholds, two facilities share a point, and equal costs
    # exercise every id tie-break.
    pts = [[25 * rng.randint(0, 400)] for _ in range(50)]
    facs = [(i, 10 * rng.randint(1, 3)) for i in range(30)]
    facs.append((0, 10))
    return Instance("euclidean-L2", points=pts, facilities=facs)


INSTANCES = {
    "l2-int-1d": lambda rng: _euclid("euclidean-L2", rng, 30, 20, 1, True),
    "l2-int-2d": lambda rng: random_instance(rng, n_facilities=40, n_pool_points=20),
    "l2-int-3d": lambda rng: _euclid("euclidean-L2", rng, 35, 15, 3, True),
    "l2-float-1d": lambda rng: _euclid("euclidean-L2", rng, 30, 20, 1, False),
    "l2-float-2d": lambda rng: _euclid("euclidean-L2", rng, 40, 20, 2, False),
    "l2-float-3d": lambda rng: _euclid("euclidean-L2", rng, 40, 10, 3, False),
    "linf-int-2d": lambda rng: _euclid("euclidean-Linf", rng, 40, 20, 2, True),
    "linf-float-3d": lambda rng: _euclid("euclidean-Linf", rng, 35, 15, 3, False),
    "matrix": _matrix,
    "fractional-costs": _fractional,
    "huge-cost": _huge_cost,
    "boundaries": _boundaries,
}

EXPECTED = {
    "boundaries": "8e6846ef48a54872316c90f17b13e58b5d0b1b4e526a88b9808a3bcf655ddf83",
    "fractional-costs": "06a2ea3c9290d385d95e0f2aa9a9c9c09ff9fe3f9cc7196259903a0ec740de8b",
    "huge-cost": "9817e635ebdbd220dd3042a9d4ded8ef615ccbbff7e26bac39678f4529be49f6",
    "l2-float-1d": "90a9e764010ab21810505fc676da827e429da6796e62176875a9612a45576d27",
    "l2-float-2d": "cc59dae0ea0b1c3df458835a61cd6bee954940bd5e67afa13d90199899aa1840",
    "l2-float-3d": "c09cc1cc734f3d62b91c1af41098bbcf6efff9c993ccbf81035e1fed688c622c",
    "l2-int-1d": "aea677862b42cfc883f41d90a32d95543eaaf829dee1c4271990980dcf7b3c1d",
    "l2-int-2d": "66f352082d6b4dd00b249d2cbcf63542c72ff5354c0721d9e9a188a070428c0a",
    "l2-int-3d": "f79f395b7162bb282262b448f972ef3cc64658d0d2cb7a8bccc81f1b2528ce4c",
    "linf-float-3d": "ae34ed3d92cf2d7a0b7272eb2ddcf1395527b5337e0e0270e953cbd65e7fc781",
    "linf-int-2d": "36ad58884038812efdbfbd895a9d30028b2fff0aa9ce365d975228f70a9f6eb2",
    "matrix": "74036ed6f36d0d3656f863c0915dd2a560387f1dfe9c8646fa19711cf560f6e5",
}


def hierarchy_digest(instance: Instance) -> str:
    h = hashlib.sha256()
    costs = [f.opening_cost for f in instance.facilities]
    for n in SCALES:
        hier = Hierarchy(instance, derive_parameters(instance, n))
        p = hier.params
        recorded = RecordedParams(instance.diameter, max(costs), min(costs), n,
                                  p.rho_min, p.rho_max, p.delta)
        h.update(repr((recorded, hier.root, sorted(level_sets(hier).items()),
                       sorted((r, list(ids)) for r, ids in hier.by_level.items()))).encode())
        for node in hier.nodes:
            fields = tuple(
                instance.facilities[node.designated_facility].opening_cost
                if name == "designated_cost" else getattr(node, name)
                for name in RECORDED_FIELDS)
            h.update(repr(fields).encode())
        for p in range(instance.n_points):
            h.update(repr(hier.area_chain(p)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_hierarchy_digest(name):
    seed = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
    instance = INSTANCES[name](random.Random(seed))
    assert hierarchy_digest(instance) == EXPECTED[name]
