"""Brute-force reference routines shared by the structural tests: everything
here scans all pairs directly instead of using the tree traversals.  Also the
seeded fuzz generators (random instances and traces, seeded by
``NETFLOC_SEED`` where a test asks for ``default_seed``), the benchmark's
seeded input generator and its seed-1 cases, for tests that run on its
inputs, the engine's general update path kept as a reference for its
steady-update shortcuts, its per-node annotation passes kept as a reference
for its counted rebuild, the oracle's per-client assignment loop kept as a
reference for its per-area one, the scalar oracle view kept as the reference
for its bulk scans and flat-array recomputation (``ReferenceOracleView``),
the bulk view's near-neighborhood membership test (``point_in_x``),
seeded traces that cross the scales 5, 25 and 125, and
the scalar references for ``cround`` and for the hierarchy's bulk point
location (``find_area``), the reference hierarchy build over the exact
scalar distance table (``ReferenceHierarchy``), the debug dump rendered with
each node's own ``children`` (``reference_dump``), and the entry-by-entry,
pivot-by-pivot explicit-matrix validation kept as the reference for the
instance's bulk checks (``reference_matrix``)."""

import importlib.util
import json
import math
import numbers
import os
import random
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np

from netfloc import C1, C2, C3, C4, CX, CY, DirtyHeap, Engine, Hierarchy, Instance, \
    InstanceError, TraceEvent, derive_parameters, parse_trace_text, radius
from netfloc.engine import Annotations, Assignment, UpdateStats
from netfloc.hierarchy import TripletNode, threshold
from netfloc.instance import _TRIANGLE_SLACK, _as_list, echo, largest_power_of_five_at_most
from netfloc.oracle import StateSnapshot


def reference_cround(x) -> int:
    """Least integer r with 5**r >= x, for x > 0, by stepping an exact
    rational power of five up or down one factor at a time: the reference
    for ``cround``."""
    q = Fraction(x)
    if q <= 0:
        raise ValueError("cround requires a positive argument")
    r = 0
    p = Fraction(1)
    if p >= q:
        while p / 5 >= q:
            p /= 5
            r -= 1
    else:
        while p < q:
            p *= 5
            r += 1
    return r


def default_seed() -> int:
    return int(os.environ.get("NETFLOC_SEED", "0"))


def random_instance(rng: random.Random, n_facilities: int = 8,
                    n_pool_points: int = 40) -> Instance:
    """Uniform random instance: points on the integer grid [0, 1000]^2 under
    L2, facility locations distinct, opening costs uniform integers in
    [1, 500]."""
    fac_points: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(fac_points) < n_facilities:
        p = (rng.randint(0, 1000), rng.randint(0, 1000))
        if p not in seen:
            seen.add(p)
            fac_points.append(p)
    pool = [(rng.randint(0, 1000), rng.randint(0, 1000)) for _ in range(n_pool_points)]
    facilities = [(i, rng.randint(1, 500)) for i in range(n_facilities)]
    return Instance("euclidean-L2", points=fac_points + pool, facilities=facilities)


def random_trace(rng: random.Random, instance: Instance,
                 n_events: int) -> list[TraceEvent]:
    """Insert/delete stream at a 2:1 ratio; deletions pick a uniformly
    random live client."""
    events: list[TraceEvent] = []
    live: list[str] = []
    serial = 0
    for _ in range(n_events):
        if live and rng.random() < 1 / 3:
            pick = rng.randrange(len(live))
            cid = live[pick]
            live[pick] = live[-1]
            live.pop()
            events.append(TraceEvent("delete", cid))
        else:
            serial += 1
            cid = f"c{serial}"
            live.append(cid)
            events.append(TraceEvent("insert", cid, rng.randrange(instance.n_points)))
    return events


@cache
def benchmark_inputs(workload: str, seed: int):
    """The instance and trace texts of one benchmark workload and seed, from
    ``perfbench/inputs.py`` (standard library only)."""
    name = "perfbench_inputs"
    module = sys.modules.get(name)
    if module is None:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module   # dataclasses resolve their module by name
        spec.loader.exec_module(module)
    return module.GENERATORS[workload](seed)


def benchmark_case(workload: str):
    """A benchmark workload's instance, its seed-1 prefill (client id ->
    point) and its (kind, cid, point) mutations after the prefill."""
    inputs = benchmark_inputs(workload, 1)
    instance = Instance.from_dict(json.loads(inputs.instance_text))
    events = parse_trace_text(inputs.trace_text)
    prefill = {e.cid: e.point for e in events[:inputs.prefill]}
    mutations = [tuple(e) for e in events[inputs.prefill:]
                 if e.kind in ("insert", "delete")]
    return instance, prefill, mutations


class ReferenceEngine(Engine):
    """The engine with its general update path on every update: a dirty heap
    per update, abundance compared before and after (not the engine's slack
    edge rule), the client's counts and the cost recursion in two passes over
    the sorted union of touched root paths, and the scale re-derived after
    every mutation.  Every level shift takes the engine's full pass with
    base == rho_min (no carry), so ``annotations`` is always the engine's own
    lists, in units of 5**rho_min, and the hierarchy's unit weights are the
    engine's."""

    def _rebuild(self, params) -> None:
        self._base = None  # as at construction: base moves to rho_min
        super()._rebuild(params)

    def _apply(self, chain, delta: int) -> None:
        affected = self.find_affected_triplets(chain)
        flipped = self.update_status(affected, delta)
        self.update_cost(chain, flipped, delta)
        n = largest_power_of_five_at_most(len(self.registry))
        if n != self.n:
            self.n = n
            self.adjust_levels()

    def update_status(self, affected, delta: int) -> list[tuple[int, bool]]:
        anns = self.annotations
        nodes = self.hierarchy.nodes
        heap = DirtyHeap()
        for idx in affected:
            abundant = anns.slack[idx] >= 0
            anns.slack[idx] += delta
            if (anns.slack[idx] >= 0) != abundant:
                heap.push(nodes[idx].key(), idx)
        pulls = 0
        flips = 0
        while heap:
            idx = heap.pop()
            pulls += 1
            proposal = self._proposed_open(idx)
            if proposal != anns.is_open[idx]:
                flips += 1
                anns.is_open[idx] = proposal
                if proposal:
                    self.open_nodes.add(idx)
                    step = 1
                else:
                    self.open_nodes.discard(idx)
                    step = -1
                for up in nodes[idx].neighbors_above:
                    anns.open_below[up] += step
                    heap.push(nodes[up].key(), up)
        flipped: list[tuple[int, bool]] = []
        for idx in heap.cleaned:
            enabled = anns.open_below[idx] >= 1 or anns.is_open[idx]
            if enabled != anns.is_enabled[idx]:
                flipped.append((idx, enabled))
        self.last_update = UpdateStats(len(affected), pulls, flips)
        return flipped

    def update_cost(self, chain, flipped, delta: int) -> None:
        anns = self.annotations
        nodes = self.hierarchy.nodes
        self._cost = None  # cost_query's kept float, stale once costs move
        for idx, enabled in flipped:
            parent = nodes[idx].parent
            if parent is not None:
                anns.n_enabled_below[parent] += anns.n_area[idx] * (enabled - anns.is_enabled[idx])
            anns.is_enabled[idx] = enabled
        for idx in chain:
            anns.n_area[idx] += delta
            parent = nodes[idx].parent
            if parent is not None and anns.is_enabled[idx]:
                anns.n_enabled_below[parent] += delta
        affected_paths = set(chain)
        for idx, _ in flipped:
            walk = idx
            while walk is not None and walk not in affected_paths:
                affected_paths.add(walk)
                walk = nodes[walk].parent
        for idx in sorted(affected_paths):
            node = nodes[idx]
            cost = anns.y[idx]
            if anns.is_enabled[idx]:
                cost += (anns.n_area[idx] - anns.n_enabled_below[idx]) * node.unit_weight
            if cost != anns.cost[idx]:
                if node.parent is not None:
                    anns.y[node.parent] += cost - anns.cost[idx]
                anns.cost[idx] = cost


def reference_annotations(hierarchy, registry) -> tuple[Annotations, set]:
    """The annotations and open set of ``hierarchy`` for the live clients
    ``registry`` (client id -> point), built node by node: chain walks for
    the area counts, a sum over each x list for ``slack``, the ordered open
    pass, and one ascending pass over every node for the enabled bits,
    counts and costs."""
    nodes = hierarchy.nodes
    count = len(nodes)
    anns = Annotations([False] * count, [False] * count, *([0] * count for _ in range(6)))
    open_nodes = set()
    chains = hierarchy.point_chains
    for point, k in Counter(registry.values()).items():
        for idx in chains[point]:
            anns.n_area[idx] += k
    for idx, node in enumerate(nodes):
        anns.slack[idx] = (sum(anns.n_area[m] for m in node.x_areas)
                           - node.abundance_threshold)
    for idx in hierarchy.order:
        if anns.slack[idx] >= 0 and anns.open_below[idx] == 0:
            anns.is_open[idx] = True
            open_nodes.add(idx)
            for up in nodes[idx].neighbors_above:
                anns.open_below[up] += 1
    for idx, node in enumerate(nodes):
        enabled = anns.is_enabled[idx] = anns.is_open[idx] or anns.open_below[idx] >= 1
        anns.cost[idx] = anns.y[idx]
        if enabled:
            anns.cost[idx] += (anns.n_area[idx] - anns.n_enabled_below[idx]) * node.unit_weight
        if node.parent is not None:
            anns.y[node.parent] += anns.cost[idx]
            if enabled:
                anns.n_enabled_below[node.parent] += anns.n_area[idx]
    return anns, open_nodes


CROSSING_KINDS = ("line5", "L2", "Linf", "matrix")


def crossing_case(kind: str, seed: int = 1):
    """An instance of ``kind`` (line5, or seeded L2, L-inf or explicit
    matrix) and a seeded insert/delete trace whose live count climbs past 5,
    25 and 125."""
    rng = random.Random(f"{kind}-{seed}")
    if kind == "line5":
        instance = Instance.load(Path(__file__).parent / "data" / "line5.json")
    elif kind == "L2":
        instance = random_instance(rng, n_facilities=8, n_pool_points=40)
    else:
        pts = [(rng.randint(0, 500), rng.randint(0, 500)) for _ in range(40)]
        facilities = [(i, rng.randint(1, 100)) for i in range(8)]
        if kind == "Linf":
            instance = Instance("euclidean-Linf", points=pts, facilities=facilities)
        else:
            matrix = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts] for a in pts]
            instance = Instance("explicit-matrix", matrix=matrix, facilities=facilities)
    trace = random_trace(rng, instance, 480)
    live = peak = 0
    for event in trace:
        live += 1 if event.kind == "insert" else -1
        peak = max(peak, live)
    assert peak >= 125, f"{kind} trace peaks at {peak} clients"
    return instance, trace


def reference_oracle_assignments(view, annotations, clients) -> dict:
    """Each client's assignment under the oracle's ``annotations`` (a
    snapshot's per-field lists), resolved client by client: its lowest
    enabled area on the view's chain, then a scan of every open triplet in
    key order for the smallest key at or below the area whose facility lies
    in the area's far neighborhood."""
    nodes = view.hierarchy.nodes
    order = sorted(range(len(nodes)), key=lambda i: nodes[i].key())
    open_list = [idx for idx in order if annotations.is_open[idx]]
    point_chain = view_point_chain(view)
    assignments = {}
    for cid, point in dict(clients).items():
        area_idx = next(idx for idx in point_chain[point]
                        if annotations.is_enabled[idx])
        area = nodes[area_idx]
        area_key = (area.r, area.color)
        best = None
        best_key = None
        for oidx in open_list:
            onode = nodes[oidx]
            key = (onode.r, onode.color, onode.facility)
            if key[:2] > area_key:
                continue
            if onode.facility not in view.y_facilities[area_idx]:
                continue
            if best is None or key < best_key:
                best, best_key = oidx, key
        assignments[cid] = Assignment(
            area.r, area_idx, best, nodes[best].designated_facility)
    return assignments


AnnotationRow = namedtuple("AnnotationRow", Annotations._fields)


def annotation_row(annotations, idx: int) -> AnnotationRow:
    """One node's annotation fields, read by name from the per-field lists
    of an ``Annotations`` (the engine's or a snapshot's)."""
    return AnnotationRow._make(values[idx] for values in annotations)


def view_point_chain(view) -> list[tuple[int, ...]]:
    """Each point's chain on an ``OracleView``, bottom area first: the
    entries of its ``_chains`` row, level by level, that are not the pad
    id."""
    return [tuple(idx for idx in row if idx < view._count) for row in view._chains.tolist()]


def view_x_members(view) -> list[frozenset[int]]:
    """Each node's x-members on an ``OracleView``: its segment of
    ``_x_ids``."""
    bounds = view._x_bounds
    return [frozenset(view._x_ids[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]


def point_in_x(view, p: int, idx: int) -> bool:
    """Whether a point's level-r area lies in the near neighborhood of a
    node, on an ``OracleView``: the point's chain entry at that level is one
    of the node's x-members, its segment of ``_x_ids``."""
    members = view._x_ids[view._x_bounds[idx]:view._x_bounds[idx + 1]]
    return int(view._chains[p, view._level[idx]]) in members.tolist()


class ReferenceOracleView:
    """The scalar oracle view, the reference for ``OracleView``'s bulk scans
    and flat-array recomputation: every scan is a loop of
    ``Instance.distance`` calls, and a recomputation walks each distinct
    point's chain.

    Definition-level evaluator bound to one instance and hierarchy.

    The constructor performs all static brute-force precomputation (point
    chains, per-level near neighborhoods, facility membership in far
    neighborhoods) so that repeated state recomputations stay cheap.
    """

    def __init__(self, instance: Instance, hierarchy: Hierarchy):
        self.instance = instance
        self.hierarchy = hierarchy
        nodes = hierarchy.nodes
        dist = instance.distance
        fpoint = [instance.facilities[n.facility].point for n in nodes]
        self._fpoint = fpoint

        self.point_chain: list[tuple[int, ...]] = [
            self._scan_chain(p) for p in range(instance.n_points)
        ]

        # Same-level node ids within the near-neighborhood radius, by a plain
        # pairwise scan.
        self.x_members: list[frozenset[int]] = []
        for idx, node in enumerate(nodes):
            thr = radius(CX, node.r)
            self.x_members.append(frozenset(
                other
                for other in hierarchy.by_level[node.r]
                if dist(fpoint[idx], fpoint[other]) <= thr
            ))

        # Facilities whose point falls in each node's far neighborhood, and
        # the reverse index used when resolving open bits.
        self.y_facilities: list[frozenset[int]] = []
        self.nodes_with_fac_in_y: dict[int, list[int]] = {
            f.id: [] for f in instance.facilities}
        for idx, node in enumerate(nodes):
            thr = radius(CY, node.r)
            inside = []
            for fac in instance.facilities:
                chain = self.point_chain[fac.point]
                entry = self._chain_entry(chain, node.r)
                if entry is not None and dist(fpoint[idx], fpoint[entry]) <= thr:
                    inside.append(fac.id)
                    self.nodes_with_fac_in_y[fac.id].append(idx)
            self.y_facilities.append(frozenset(inside))

        # Smallest client count satisfying the abundance inequality, from the
        # exact rational form of the designated cost at each scale.
        self._threshold = [
            math.ceil(Fraction(instance.facilities[node.designated_facility].opening_cost)
                      / Fraction(5) ** node.r)
            for node in nodes
        ]
        self._order = sorted(range(len(nodes)), key=lambda i: nodes[i].key())

    def _scan_chain(self, p: int) -> tuple[int, ...]:
        """Bottom area of a point by linear scan over all pairs, then the
        parent path to the root."""
        hierarchy = self.hierarchy
        nodes = hierarchy.nodes
        dist = self.instance.distance
        params = hierarchy.params
        bottom = None
        for r in range(params.rho_min, params.rho_max + 1):
            thr = radius(C2, r)
            best = None
            for idx in hierarchy.by_level[r]:
                d = dist(p, self._fpoint[idx])
                if d <= thr:
                    key = (d, nodes[idx].facility)
                    if best is None or key < best[0]:
                        best = (key, idx)
            if best is not None:
                bottom = best[1]
                break
        chain = [bottom]
        while nodes[chain[-1]].parent is not None:
            chain.append(nodes[chain[-1]].parent)
        return tuple(chain)

    def _chain_entry(self, chain: tuple[int, ...], r: int):
        off = r - self.hierarchy.nodes[chain[0]].r
        return chain[off] if off >= 0 else None

    def point_in_x(self, p: int, idx: int) -> bool:
        """Whether a point's level-r area lies in the near neighborhood of a
        node: the point's chain entry at that level is one of the node's
        x-members."""
        entry = self._chain_entry(self.point_chain[p], self.hierarchy.nodes[idx].r)
        return entry is not None and entry in self.x_members[idx]

    def recompute_state(self, clients) -> StateSnapshot:
        """Evaluate every annotation, the open facility set, and all client
        assignments directly from the definitions."""
        hierarchy = self.hierarchy
        nodes = hierarchy.nodes
        count = len(nodes)
        clients = dict(clients)
        # Clients on one point share its chain, so each distinct point is
        # walked once with its client count as the weight.
        weights = Counter(clients.values())
        n_area = [0] * count
        for point, k in weights.items():
            for idx in self.point_chain[point]:
                n_area[idx] += k

        slack = [sum(map(n_area.__getitem__, members)) - t
                 for members, t in zip(self.x_members, self._threshold)]

        open_bits = [False] * count
        open_below = [0] * count
        for idx in self._order:
            if slack[idx] >= 0 and open_below[idx] == 0:
                open_bits[idx] = True
                key = nodes[idx].key()[:2]
                for other in self.nodes_with_fac_in_y[nodes[idx].facility]:
                    if nodes[other].key()[:2] > key:
                        open_below[other] += 1
        enabled = [o or b >= 1 for o, b in zip(open_bits, open_below)]

        # A point pays at its lowest enabled area.  The nodes above it on the
        # chain count the point's clients as enabled below, and the area and
        # every enabled node above it carry the payment; disabled nodes cost 0.
        n_enabled_below = [0] * count
        cost = [0] * count
        area_at = {}
        for point, k in weights.items():
            area = None
            for idx in self.point_chain[point]:
                if area is not None:
                    n_enabled_below[idx] += k
                    if enabled[idx]:
                        cost[idx] += paid
                elif enabled[idx]:
                    area = idx
                    paid = k * nodes[idx].unit_weight
                    cost[idx] += paid
            area_at[point] = area
        y = [0] * count
        for idx, node in enumerate(nodes):
            if node.parent is not None:
                y[node.parent] += cost[idx]

        # open_list ascends in key, so an area's first reachable entry is the
        # smallest-key one; an assignment depends only on the area.
        open_list = [idx for idx in self._order if open_bits[idx]]
        routed = {}
        for area_idx in set(area_at.values()):
            area = nodes[area_idx]
            area_key = (area.r, area.color)
            inside = self.y_facilities[area_idx]
            best = next(oidx for oidx in open_list
                        if nodes[oidx].key()[:2] <= area_key
                        and nodes[oidx].facility in inside)
            routed[area_idx] = Assignment(
                area.r, area_idx, best, nodes[best].designated_facility)
        assignments = {cid: routed[area_at[point]] for cid, point in clients.items()}

        annotations = Annotations(open_bits, enabled, n_area, slack,
                                  open_below, n_enabled_below, cost, y)
        open_facs = frozenset(nodes[idx].designated_facility for idx in open_list)
        return StateSnapshot(hierarchy, annotations, open_facs, assignments)


def build(instance, n=0) -> Hierarchy:
    return Hierarchy(instance, derive_parameters(instance, n))


def reference_dump(hierarchy) -> str:
    """``Hierarchy.dump`` rendered node by node, each node's ``children``
    read from the node (a scan of ``parent_ids`` per read): depth first
    from the root, children in ascending id order."""
    nodes = hierarchy.nodes
    facs = hierarchy.instance.facilities
    lines = []
    stack = [(hierarchy.root, 0)]
    while stack:
        idx, depth = stack.pop()
        node = nodes[idx]
        parent = "-" if node.parent is None else str(nodes[node.parent].facility)
        cost = facs[node.designated_facility].opening_cost
        cost_s = str(int(cost)) if float(cost).is_integer() else repr(cost)
        lines.append("  " * depth + f"r={node.r} s={node.color} j={node.facility} "
                     f"parent={parent} f*={cost_s} j*={node.designated_facility}")
        stack += [(child, depth + 1) for child in reversed(node.children)]
    return "\n".join(lines)


def level_sets(hierarchy) -> dict[int, list[int]]:
    """Each level's facility ids, in node id order, read from ``by_level``
    and the nodes' ``facility``."""
    nodes = hierarchy.nodes
    return {r: [nodes[i].facility for i in ids] for r, ids in hierarchy.by_level.items()}


def node_id(hierarchy, facility: int, r: int) -> int:
    """The id of the node (facility, r): ids ascend level by level, in the
    level set's (facility id) order."""
    return hierarchy.by_level[r][level_sets(hierarchy)[r].index(facility)]


def find_area(hierarchy, p):
    """Node id of the smallest-logradius area containing p, by the scalar
    ``find_balls`` descent: the closest node, by (distance, facility id),
    of the bottom level of ``find_balls(p, C2)``.  The reference for the
    hierarchy's bulk location."""
    dist = hierarchy.instance.distance
    fp = [f.point for f in hierarchy.instance.facilities]
    nodes = hierarchy.nodes
    balls = hierarchy.find_balls(p, C2)
    bottom = nodes[balls[-1]].r
    return min((i for i in balls if nodes[i].r == bottom),
               key=lambda i: (dist(p, fp[nodes[i].facility]), nodes[i].facility))


def scalar_chain(hierarchy, p) -> tuple:
    """p's area chain from ``find_area``: its bottom area's parent path."""
    ids = [find_area(hierarchy, p)]
    while (parent := hierarchy.nodes[ids[-1]].parent) is not None:
        ids.append(parent)
    return tuple(ids)


def brute_balls(instance, hierarchy, p, cstar):
    """All node ids whose scaled ball contains p, by a full scan."""
    dist = instance.distance
    fp = [f.point for f in instance.facilities]
    return sorted(
        node.idx
        for node in hierarchy.nodes
        if dist(p, fp[node.facility]) <= radius(cstar, node.r)
    )


def chain_entry(hierarchy, p, r):
    """The level-r node on p's area chain, or None below the chain bottom."""
    chain = hierarchy.area_chain(p)
    bottom = hierarchy.nodes[chain[0]].r
    off = r - bottom
    return chain[off] if off >= 0 else None


def structural_problems(instance, hierarchy) -> list[str]:
    """Static-decomposition checks over all declared points and levels."""
    problems: list[str] = []
    dist = instance.distance
    fp = [f.point for f in instance.facilities]
    params = hierarchy.params
    nodes = hierarchy.nodes

    # Separation within each level, and coverage of every facility.
    for r, members in level_sets(hierarchy).items():
        thr = radius(C1, r)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if dist(fp[members[a]], fp[members[b]]) <= thr:
                    problems.append(f"level {r}: members {members[a]},{members[b]} too close")
        for fac in instance.facilities:
            if min(dist(fp[fac.id], fp[m]) for m in members) > thr:
                problems.append(f"level {r}: facility {fac.id} uncovered")

    chains = {p: hierarchy.area_chain(p) for p in range(instance.n_points)}

    # Chains are parent paths (laminarity), and a point has a level-r area
    # exactly when some level-r ball of radius C2*5**r contains it.
    for p, chain in chains.items():
        for lower, upper in zip(chain, chain[1:]):
            if nodes[lower].parent != upper:
                problems.append(f"point {p}: chain break at node {lower}")
        bottom = nodes[chain[0]].r
        for r in range(params.rho_min, params.rho_max + 1):
            covered = any(
                dist(p, fp[nodes[i].facility]) <= radius(C2, r)
                for i in hierarchy.by_level[r])
            if covered != (r >= bottom):
                problems.append(f"point {p}: level {r} ball cover != area presence")

    def entry(p, r):
        chain = chains[p]
        off = r - nodes[chain[0]].r
        return chain[off] if off >= 0 else None

    # Unit balls around any facility land inside one near neighborhood.
    for fac in instance.facilities:
        for r in range(params.rho_min, params.rho_max + 1):
            host = min(hierarchy.by_level[r],
                       key=lambda i: (dist(fp[fac.id], fp[nodes[i].facility]),
                                      nodes[i].facility))
            thr_x = radius(CX, r)
            for p in range(instance.n_points):
                if dist(p, fp[fac.id]) > radius(1, r):
                    continue
                e = entry(p, r)
                if e is None or dist(fp[nodes[host].facility],
                                     fp[nodes[e].facility]) > thr_x:
                    problems.append(
                        f"facility {fac.id} level {r}: ball point {p} escapes")

    # Near/far neighborhoods stay inside their stated radii.
    for p in range(instance.n_points):
        chain = chains[p]
        for node_idx in chain:
            node = nodes[node_idx]
            for other_idx in hierarchy.by_level[node.r]:
                other = nodes[other_idx]
                if node_idx in other.x_areas and \
                        dist(p, fp[other.facility]) > radius(C3, node.r):
                    problems.append(f"x radius exceeded at node {other_idx}, point {p}")
                if node_idx in other.y_areas and \
                        dist(p, fp[other.facility]) > radius(C4, node.r):
                    problems.append(f"y radius exceeded at node {other_idx}, point {p}")

    # Distinct colors within the conflict radius.
    for r, ids in hierarchy.by_level.items():
        thr = radius(C4, r)
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                na, nb = nodes[ids[a]], nodes[ids[b]]
                if dist(fp[na.facility], fp[nb.facility]) <= thr and na.color == nb.color:
                    problems.append(f"level {r}: color clash {na.facility},{nb.facility}")

    # Designated facilities sit close and are genuinely the cheapest inside
    # the near neighborhood.
    facs = instance.facilities
    for node in nodes:
        if dist(fp[node.facility], fp[node.designated_facility]) > radius(C3, node.r):
            problems.append(f"designated facility too far at node {node.idx}")
        members = set(node.x_areas)
        eligible = [f for f in facs if entry(f.point, node.r) in members]
        best = min(eligible, key=lambda f: (f.opening_cost, f.id))
        if best.id != node.designated_facility:
            problems.append(f"wrong designation at node {node.idx}")
        if facs[node.designated_facility].opening_cost > facs[node.facility].opening_cost:
            problems.append(f"designated cost above own cost at node {node.idx}")

    return problems


def exact_facility_table(instance) -> np.ndarray:
    """F x F table of scalar ``Instance.distance`` values between facility
    points, by facility id."""
    fps = [f.point for f in instance.facilities]
    return np.array([[instance.distance(p, q) for q in fps] for p in fps])


class ReferenceNode(TripletNode):
    """A node that keeps its own ``parent``, ``unit_weight``, ``children``
    and ``x_areas``, which shadow those ``TripletNode`` reads from its
    hierarchy."""

    __slots__ = ("parent", "unit_weight", "children", "x_areas")

    def __init__(self, idx, facility, r, unit_weight):
        super().__init__(idx, facility, r)
        self.parent = None
        self.unit_weight = unit_weight
        self.children = []
        self.x_areas = []


class ReferenceHierarchy(Hierarchy):
    """The hierarchy build over the exact scalar distance table, with lists
    built node by node: the reference for the bulk build.

    Separated sets and parents are mask and argmin passes over the exact
    table; children lists are appended per parent link; colors, x/y lists
    and designations are per-node ``flatnonzero`` passes; abundance
    thresholds are ``Fraction`` ceilings; and the ``neighbors_above`` lists,
    kept in the reference's own list of that name (node id -> list), compare
    each candidate pair's keys at every level.  The nodes are
    ``ReferenceNode``s, which store the lists the built nodes derive.  Point
    chains come from ``Hierarchy._locate`` (checked against the scalar
    descent by test_bulk_location.py), over ``parent_ids`` taken from the
    reference's own parent links.
    """

    def __init__(self, instance, params):
        self.instance = instance
        self.params = params
        table = exact_facility_table(instance)
        self.level_sets = self._separated_sets(table)
        self.nodes = []
        self.by_level = {}
        node_of = {}
        self._fac_point = [f.point for f in instance.facilities]
        for r in range(params.rho_min, params.rho_max + 1):
            ids = []
            for j in self.level_sets[r]:
                idx = len(self.nodes)
                node = ReferenceNode(idx, j, r, 5 ** (r - params.rho_min))
                self.nodes.append(node)
                node_of[(j, r)] = idx
                ids.append(idx)
            self.by_level[r] = ids
        for (j, r), (pj, pr) in self._tree(table).items():
            idx = node_of[(j, r)]
            pidx = node_of[(pj, pr)]
            self.nodes[idx].parent = pidx
            self.nodes[pidx].children.append(idx)
        self.parent_ids = np.array([-1 if node.parent is None else node.parent
                                    for node in self.nodes], dtype=np.int64)
        self.root = self.by_level[params.rho_max][0]
        paths = [()] * len(self.nodes)
        for node in reversed(self.nodes):
            up = () if node.parent is None else paths[node.parent]
            paths[node.idx] = (node.idx,) + up
        fac = np.array([node.facility for node in self.nodes], dtype=np.int64)
        self.point_chains = [paths[a] for a in self._locate(fac).tolist()]
        self._levels(table)
        self.order = sorted(range(len(self.nodes)), key=lambda i: self.nodes[i].key())

    def _separated_sets(self, table):
        sets = {}
        for r in range(self.params.rho_min, self.params.rho_max + 1):
            thr = threshold(C1, r)
            covered = np.zeros(len(table), dtype=bool)
            chosen = []
            for fid in range(len(table)):
                if not covered[fid]:
                    chosen.append(fid)
                    covered |= table[:, fid] <= thr
            sets[r] = chosen
        return sets

    def _tree(self, table):
        parents = {}
        sets = self.level_sets
        for r in range(self.params.rho_min, self.params.rho_max):
            uppers = np.array(sets[r + 1])
            best = uppers[table[np.ix_(sets[r], uppers)].argmin(axis=1)]
            for j, u in zip(sets[r], best.tolist()):
                parents[(j, r)] = (u, r + 1)
        return parents

    def _levels(self, table):
        nodes, params = self.nodes, self.params
        facs = self.instance.facilities
        n_fac, n_nodes = len(facs), len(nodes)
        costs = np.array([f.opening_cost for f in facs])
        by_cost = np.lexsort((np.arange(n_fac), costs))
        entries = np.full((n_fac, params.delta), -1, dtype=np.int64)
        for fid, f in enumerate(facs):
            chain = self.point_chains[f.point]
            entries[fid, nodes[chain[0]].r - params.rho_min:] = chain
        node_ids = np.full(entries.shape, -1, dtype=np.int64)
        keys = np.full(entries.shape, params.delta * n_fac, dtype=np.int64)
        for node in nodes:
            node_ids[node.facility, node.r - params.rho_min] = node.idx
        id_objs = np.array([node.idx for node in nodes], dtype=object)
        pairs = []
        for r, ids in self.by_level.items():
            off = r - params.rho_min
            start = ids[0]
            members = self.level_sets[r]
            block = table[np.ix_(members, members)]
            clash = block <= threshold(C4, r)
            colors = []
            for pos, idx in enumerate(ids):
                taken = {colors[k] for k in np.flatnonzero(clash[pos, :pos]).tolist()}
                color = 0
                while color in taken:
                    color += 1
                colors.append(color)
                nodes[idx].color = color
            keys[members, off] = up_keys = off * n_fac + np.array(colors)
            near = block <= threshold(CX, r)
            far = block <= threshold(CY, r)
            for pos, idx in enumerate(ids):
                nodes[idx].x_areas = id_objs[start + np.flatnonzero(near[pos])].tolist()
                nodes[idx].y_areas = id_objs[start + np.flatnonzero(far[pos])].tolist()
            order = by_cost[entries[by_cost, off] >= 0]
            hits = near[:, entries[order, off] - start]
            for idx, fid in zip(ids, order[hits.argmax(axis=1)].tolist()):
                node = nodes[idx]
                node.designated_facility = fid
                node.abundance_threshold = math.ceil(
                    Fraction(facs[fid].opening_cost) / Fraction(5) ** r)
            reached = np.flatnonzero(entries[:, off] >= 0)
            ups, fids = np.nonzero(far[:, entries[reached, off] - start])
            fids = reached[fids]
            rows, offs = np.nonzero(keys[fids] < up_keys[ups][:, None])
            pairs.append(node_ids[fids[rows], offs] * n_nodes + start + ups[rows])
        pairs = np.concatenate(pairs)
        pairs.sort()
        bounds = np.searchsorted(pairs, np.arange(n_nodes + 1) * n_nodes).tolist()
        above = id_objs[pairs % n_nodes].tolist()
        self.neighbors_above = [above[a:b] for a, b in zip(bounds, bounds[1:])]


def _types(value):
    """The type of ``value`` and of the keys, items and values in it, so
    that equal values with a numpy int or a float where a Python int
    belongs compare unequal."""
    if isinstance(value, dict):
        return dict, frozenset(map(_types, value)), frozenset(map(_types, value.values()))
    if isinstance(value, (list, tuple)):
        inner = frozenset(map(type, value))
        if inner & {dict, list, tuple}:
            inner = frozenset(map(_types, value))
        return type(value), inner
    return type(value)


def build_differences(hierarchy, reference) -> list[str]:
    """Every node slot, ``parent`` and ``unit_weight`` read from the
    hierarchy's lists, derived ``children``, ``x_areas`` and
    ``neighbors_above`` list, level's id list, derived level set, parent
    id, point chain and ordering in which ``hierarchy`` differs from
    ``reference``, types and order included: each derived list against the
    reference's own.  The slots that refer back to the hierarchy
    (``_chain``, ``_hierarchy``) are skipped; the point chains and the
    derived lists cover them."""

    def same(a, b):
        return a == b and _types(a) == _types(b)

    problems = [attr for attr in ("root", "order", "point_chains")
                if not same(getattr(hierarchy, attr), getattr(reference, attr))]
    if not same({r: list(ids) for r, ids in hierarchy.by_level.items()}, reference.by_level):
        problems.append("by_level")
    if not same(level_sets(hierarchy), reference.level_sets):
        problems.append("level_sets")
    if not same(hierarchy.parent_ids.tolist(), reference.parent_ids.tolist()):
        problems.append("parent_ids")
    if len(hierarchy.nodes) != len(reference.nodes):
        return problems + ["node count"]
    fields = [slot for slot in TripletNode.__slots__ if slot not in ("_chain", "_hierarchy")]
    fields += ["parent", "unit_weight", "children", "x_areas"]
    for node, ref in zip(hierarchy.nodes, reference.nodes):
        for field in fields:
            if not same(getattr(node, field), getattr(ref, field)):
                problems.append(f"node {ref.idx} ({ref.facility}, {ref.r}): {field}")
        if not same(node.neighbors_above, reference.neighbors_above[ref.idx]):
            problems.append(f"node {ref.idx} ({ref.facility}, {ref.r}): neighbors_above")
    return problems


def reference_is_finite_number(x) -> bool:
    """True for a finite real number, by one ``numbers.Real`` check per
    value: the reference for the instance's bulk numeric checks."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def reference_matrix(matrix) -> list[tuple]:
    """An explicit matrix's rows as float tuples, checked entry by entry and
    then against the metric axioms one pivot row at a time, each failure
    raised as the ``InstanceError`` an ``Instance`` raises for it: the first
    bad entry in row-major order; then by row p the self-distance before
    asymmetry and sign of the pairs (p, q), q > p; then the triangle
    inequality by pivot x, with the relative slack of the instance."""
    rows = [_as_list(row, "matrix row") for row in _as_list(matrix, "matrix")]
    for p, row in enumerate(rows):
        for q, x in enumerate(row):
            if not reference_is_finite_number(x):
                raise InstanceError(f"non-numeric, NaN or infinite distance "
                                    f"for pair ({p}, {q}): {echo(x)}")
    m = [tuple(float(x) for x in row) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise InstanceError("distance matrix must be square")
    arr = np.array(m, dtype=float).reshape(n, n)
    for p in range(n):
        if arr[p, p] != 0:
            raise InstanceError(f"nonzero self-distance at point {p}")
        row = arr[p, p + 1:]
        bad = (row != arr[p + 1:, p]) | (row < 0)
        if bad.any():
            q = p + 1 + int(bad.argmax())
            if arr[p, q] != arr[q, p]:
                raise InstanceError(f"asymmetric distances for pair ({p}, {q})")
            raise InstanceError(f"negative distance for pair ({p}, {q})")
    with np.errstate(over="ignore"):  # an infinite sum never fails the test
        for x in range(n):
            via = arr[:, x, None] + arr[x]     # via[p, q] = m[p][x] + m[x][q]
            bad = arr > via + _TRIANGLE_SLACK * via
            if bad.any():
                p, q = divmod(int(bad.argmax()), n)
                raise InstanceError(f"triangle inequality fails for ({p}, {q}) via {x}")
    return m
