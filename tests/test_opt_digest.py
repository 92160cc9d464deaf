"""Bit-identity pin of the exact brute-force optimum.

Eight seeded instances per facility count k = 1..12 (up to 40 clients, L2
and L-infinity, integer and float points and costs, small grids for tied
opening sets), the instance whose every opening set overflows, and one
k = 16 instance with 62 clients are solved, and each result's cost, open set
and assignment is hashed.  The expected digests were recorded with the
enumeration that kept a table of every mask's distance vector, and that
recomputed each mask from its columns where the table would have exceeded
4,000,000 entries (the k = 16 instance), so any enumeration that changes one
cost, one tie-break or one assignment fails here.  k = 8 was re-recorded when
an L2 distance became the sqrt of its sum of squares instead of
``math.dist``: one optimum cost moved from 5771.691872896093 to
5771.691872896092, with the same open set and assignment.
"""

import hashlib
import random

import pytest

from netfloc import Instance, brute_force_opt

PER_K = 8


def _instance(rng: random.Random, k: int, variant: int) -> tuple[Instance, dict]:
    kind = ("euclidean-L2", "euclidean-Linf")[variant % 2]
    integer = variant % 4 < 2
    grid = 20 if variant % 3 == 0 else 1000
    n_pool = rng.randint(1, 15)
    dims = rng.randint(1, 3)
    if integer:
        pts = [[rng.randint(0, grid) for _ in range(dims)] for _ in range(k + n_pool)]
        costs = [rng.randint(1, grid // 2) for _ in range(k)]
    else:
        pts = [[rng.uniform(0, grid) for _ in range(dims)] for _ in range(k + n_pool)]
        costs = [rng.uniform(0.5, grid / 2) for _ in range(k)]
    inst = Instance(kind, points=pts, facilities=list(zip(range(k), costs)))
    clients = {f"c{i}": rng.randrange(inst.n_points) for i in range(rng.randint(1, 40))}
    return inst, clients


def _cases(name: str):
    if name == "overflow":
        inst = Instance("euclidean-L2", points=[[0], [1e308]], facilities=[(0, 10)])
        return [(inst, {"a": 1, "b": 1, "c": 1})]
    if name == "k16":
        rng = random.Random(16)
        pts = [[rng.randint(0, 1000), rng.randint(0, 1000)] for _ in range(40)]
        facs = [(i, rng.randint(1, 500)) for i in range(16)]
        inst = Instance("euclidean-L2", points=pts, facilities=facs)
        return [(inst, {f"c{i}": rng.randrange(40) for i in range(62)})]
    k = int(name[1:])
    rng = random.Random(1000 + k)
    return [_instance(rng, k, variant) for variant in range(PER_K)]


def opt_digest(name: str) -> str:
    h = hashlib.sha256()
    for inst, clients in _cases(name):
        res = brute_force_opt(inst, clients)
        h.update(repr((res.cost, sorted(res.open_set),
                       sorted(res.assignment.items()))).encode())
    return h.hexdigest()


EXPECTED = {
    "k1": "3ecdeee3e849895ee40ed49c3757a199008498cb9741f65cfe7fb89663704a35",
    "k2": "d85de1729f3125a76a1c4a9d8683457c1cda171a6f28bcb0b9a52821006b60d6",
    "k3": "46407adcfd36deb36bf822371d29ae0c3e31e5d31b5e5c69f34aa5e40fba9721",
    "k4": "7488b36cc2daf5cd7cb9976b7634d71842bbbebde85840a126a09edc3c5fbad1",
    "k5": "3b80ffc729ed46e9b9f890a8253974de474c9c727aae261cb272e61fcfd39f41",
    "k6": "574142ea09cfddef3fce6ec8a1060cfbe29df9d10f80445cae2ebc2c79ff09e4",
    "k7": "5bf6958754025f3d8be0925364823e003d454b1d1b83dc8799747acf9f224357",
    "k8": "a2d2f851bd6115dd93af1273e588a77f3e9084cd7cc26790fd32b6d77977f42a",
    "k9": "933e6ba1e49bdf066fd39d867c83d7ba2a62847cad25f263117c8cc39016165f",
    "k10": "8f718564d7e2fcff134ccf309bc4a31a3688c7a21071bbccb996ab3f08934b6e",
    "k11": "eb4b14ea52ca55712509336766b7461a11365a9a5b6e4ea750d3febd30a0047d",
    "k12": "c83323074a916c00bccdbbad787c40ed885a75da96482ebd27e0d80a18945c30",
    "overflow": "4c185899d78912e106d8e73814bbd99c84cafc0e57284133e6bf252733a5c056",
    "k16": "aa6bba93e74ba4630dc48bcfcbb32eedb148fae38c0b54f3935d3dbdc3180284",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_brute_force_digest(name):
    assert opt_digest(name) == EXPECTED[name]
