"""Independent, slow, obviously-correct recomputation of the full dynamic
state, plus an exact exhaustive optimum for small instances.

The evaluator deliberately avoids the engine's incremental machinery and the
hierarchy's precomputed neighborhood lists: point areas come from a linear
scan over all (facility, logradius) pairs, neighborhoods from brute-force
pairwise distance tests, and status bits from one ordered pass over the
definitions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .engine import Assignment, Engine, NodeAnnotation
from .hierarchy import C2, CX, CY, Hierarchy, radius
from .instance import Instance, NetflocError


class HierarchyMismatch(NetflocError):
    """Snapshots built over different hierarchies cannot be compared."""


@dataclass
class StateSnapshot:
    """Full dynamic state over one hierarchy: one annotation per triplet, the
    open facility set, and one assignment per live client."""

    hierarchy: Hierarchy
    annotations: list[NodeAnnotation]
    open_facilities: frozenset
    assignments: dict


def engine_snapshot(engine: Engine) -> StateSnapshot:
    """Capture the engine's current state in snapshot form."""
    return StateSnapshot(
        hierarchy=engine.hierarchy,
        annotations=[a.clone() for a in engine.annotations],
        open_facilities=frozenset(engine.solution_query()),
        assignments=engine.assignments(),
    )


class OracleView:
    """Definition-level evaluator bound to one instance and hierarchy.

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
            math.ceil(Fraction(node.designated_cost) / Fraction(5) ** node.r)
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

        annotations = list(map(NodeAnnotation, open_bits, enabled, n_area, slack,
                               open_below, n_enabled_below, cost, y))
        open_facs = frozenset(nodes[idx].designated_facility for idx in open_list)
        return StateSnapshot(hierarchy, annotations, open_facs, assignments)


def compare_states(left: StateSnapshot, right: StateSnapshot) -> list[str]:
    """Field-by-field diff of two snapshots of one hierarchy; empty list
    means identical."""
    if left.hierarchy is not right.hierarchy:
        raise HierarchyMismatch("snapshots cover different hierarchies")
    if (left.annotations == right.annotations
            and left.open_facilities == right.open_facilities
            and left.assignments == right.assignments):
        return []
    diffs: list[str] = []
    for pos, (la, ra) in enumerate(zip(left.annotations, right.annotations)):
        if la == ra:
            continue
        node = left.hierarchy.nodes[pos]
        for field in fields(NodeAnnotation):
            lv, rv = getattr(la, field.name), getattr(ra, field.name)
            if lv != rv:
                diffs.append(f"node (j={node.facility},r={node.r},s={node.color}): "
                             f"{field.name} left={lv} right={rv}")
    if left.open_facilities != right.open_facilities:
        diffs.append(
            f"open facilities: left={sorted(left.open_facilities)} "
            f"right={sorted(right.open_facilities)}")
    if left.assignments != right.assignments:
        keys = set(left.assignments) | set(right.assignments)
        for cid in sorted(keys, key=str):
            lv = left.assignments.get(cid)
            rv = right.assignments.get(cid)
            if lv != rv:
                diffs.append(f"assignment[{cid}]: left={lv} right={rv}")
    return diffs


@dataclass(frozen=True)
class OptResult:
    """Exact optimum: total cost, the open facility set, and the
    nearest-open-facility assignment."""

    cost: float
    open_set: frozenset
    assignment: dict


def brute_force_opt(instance: Instance, clients) -> OptResult:
    """Exact optimum by enumerating every non-empty facility subset.

    Refuses instances with more than 20 facilities; with no clients the
    optimum is the empty opening set at cost zero.
    """
    k = len(instance.facilities)
    if k > 20:
        raise ValueError(f"brute force capped at 20 facilities, got {k}")
    clients = dict(clients)
    if not clients:
        return OptResult(0.0, frozenset(), {})
    cids = list(clients)
    dmat = np.array([
        [instance.distance(clients[cid], fac.point) for fac in instance.facilities]
        for cid in cids
    ])
    fcost = np.array([fac.opening_cost for fac in instance.facilities])

    best_cost = math.inf
    best_mask = 0
    # A mask is ``rest`` (the mask minus its lowest bit j) plus facility j.
    # Slot b holds the distance vector and opening cost of the last mask
    # whose lowest bit is b; no mask between rest and mask has rest's lowest
    # bit, so rest is still in its slot and k slots replace a per-mask table.
    vecs: list = [None] * k
    open_cost = [0.0] * k
    # A subset whose cost overflows to inf is never the optimum.
    with np.errstate(over="ignore"):
        for mask in range(1, 1 << k):
            low = mask & -mask
            j = low.bit_length() - 1
            rest = mask ^ low
            if rest:
                b = (rest & -rest).bit_length() - 1
                vec = np.minimum(vecs[b], dmat[:, j])
                fsum = float(open_cost[b] + fcost[j])
            else:
                vec = dmat[:, j]
                fsum = float(fcost[j])
            vecs[j] = vec
            open_cost[j] = fsum
            total = fsum + float(vec.sum())
            if total < best_cost or best_mask == 0:
                best_cost = total
                best_mask = mask
    cols = [b for b in range(k) if best_mask >> b & 1]
    sub = dmat[:, cols]
    picks = sub.argmin(axis=1)
    assignment = {cid: cols[int(picks[i])] for i, cid in enumerate(cids)}
    return OptResult(best_cost, frozenset(cols), assignment)


def logical_violations(view: OracleView, engine: Engine, assignments) -> list[str]:
    """Engine-state sanity conditions that must hold after every update:
    open implies enabled, abundant implies enabled, no client sits in two
    open near neighborhoods, a non-empty client set keeps at least one
    triplet open and the root enabled, and the root cost equals the summed
    client payments under ``assignments``, the engine's ``assignments()``."""
    problems: list[str] = []
    nodes = engine.hierarchy.nodes
    anns = engine.annotations
    for idx, a in enumerate(anns):
        if a.is_open and not a.is_enabled:
            problems.append(f"open but not enabled: node {nodes[idx].key()}")
        if a.slack >= 0 and not a.is_enabled:
            problems.append(f"abundant but not enabled: node {nodes[idx].key()}")
    live = list(engine.registry.items())
    open_nodes = sorted(engine.open_nodes)
    # Open near neighborhoods holding each distinct client point.
    hits_at: dict[int, int] = {}
    for cid, point in live:
        hits = hits_at.get(point)
        if hits is None:
            hits = hits_at[point] = sum(view.point_in_x(point, idx)
                                        for idx in open_nodes)
        if hits > 1:
            problems.append(f"client {cid!r} in {hits} open neighborhoods")
    if live:
        if not open_nodes:
            problems.append("live clients but no open triplet")
        if not anns[engine.hierarchy.root].is_enabled:
            problems.append("live clients but root not enabled")
        total = sum(nodes[assignments[cid].area_triplet].unit_weight
                    for cid, _ in live)
        if total != anns[engine.hierarchy.root].cost:
            problems.append(
                f"root cost {anns[engine.hierarchy.root].cost} != "
                f"summed payments {total}")
    elif anns[engine.hierarchy.root].cost != 0:
        problems.append("no clients but nonzero root cost")
    return problems
