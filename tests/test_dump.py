"""``Hierarchy.dump`` against ``helpers.reference_dump``, the rendering that
reads each node's ``children`` (one scan of ``parent_ids`` per node): the
dump groups the children once and must be byte-identical.  On the
``test_hierarchy_digest`` corpus at its four scales and on the seeded
instance of 872 levels that ``tools/build_sweep.py`` builds, whose deepest
line is indented 871 times."""

import hashlib
import random

import pytest

from helpers import reference_dump
from netfloc import Hierarchy, Instance, derive_parameters
from test_hierarchy_digest import INSTANCES, SCALES


def dump_lines(hierarchy) -> list[str]:
    """The dump's lines, checked against the reference's; a mismatch names
    the first differing line (a diff of two dumps of ~4,000 lines would
    take minutes)."""
    got, want = hierarchy.dump().split("\n"), reference_dump(hierarchy).split("\n")
    first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                 min(len(got), len(want)))
    assert len(got) == len(want) == first, (first, got[first:first + 1], want[first:first + 1])
    return got


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_digest_corpus(name):
    seed = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
    instance = INSTANCES[name](random.Random(seed))
    for n in SCALES:
        hierarchy = Hierarchy(instance, derive_parameters(instance, n))
        dump_lines(hierarchy)


def test_many_level_instance():
    # tools/build_sweep.py's ``deep`` instance.
    rng = random.Random("build-sweep-deep")
    points = [[rng.uniform(0, 1000), rng.uniform(0, 1000)] for _ in range(12)]
    costs = [rng.randint(1, 500) for _ in range(8)]
    costs[1], costs[5] = 1e-300, 1e308
    instance = Instance("euclidean-L2", points=points, facilities=list(enumerate(costs)))
    hierarchy = instance.hierarchy(derive_parameters(instance, 0))
    assert (hierarchy.params.delta, len(hierarchy.nodes)) == (872, 3897)
    lines = dump_lines(hierarchy)
    assert len(lines) == 3897
    assert max(len(line) - len(line.lstrip()) for line in lines) == 2 * 871
