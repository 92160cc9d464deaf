"""The live data structure: an annotated dependency tree maintained under
client insertions and deletions, with constant-time cost queries.

Costs are kept internally as integers counting multiples of 5**rho_min, so
incremental updates and from-scratch recomputations agree bit for bit even
when the bottom scale is fractional.

A steady update does only the work that can change state.  Its affected
triplets are one tuple per bottom area, precomputed by the hierarchy, and
each keeps ``slack`` = n_x - abundance_threshold, so an abundance flip is
``slack`` landing on 0 (insert) or -1 (delete).  The dirty heap is created on
the first flip, so an update that flips none skips it; the cost recursion
settles the client's chain in one bottom-up pass and, only when enabled bits
flip, corrects the flipped nodes' root paths with a second pass of the same
loop; and the scale is re-derived only when the live count leaves the window
[n, 5n) of its current power of five.

The state is flat: eight lists (one per field) indexed by node id, kept as
a plain tuple that the update paths unpack, and shown as ``annotations``, an
``Annotations`` of the same list objects, which only the rebuild assigns.
The per-node facts an update reads, each node's parent and unit weight, are
the hierarchy's ``parents`` and ``unit_weights`` lists.  So an update reads
no per-node object but the keys of the nodes it pushes on its heap and the
``neighbors_above`` of those it flips, and one that flips no slack edge reads
none.  Each update records its counters as a plain tuple, and
``last_update`` builds the ``UpdateStats`` when read, so an update allocates
none.  A
level shift builds one fresh set of lists and keeps no state of the scale
it leaves: ``Hierarchy.counts`` gives the live points' n_area and slack as
plain ints; every other field starts as a new list of ``False`` or ``0``;
then one Python pass over the nodes in (logradius, color, facility) order
sets every bit and cost.  A node's open bit reads only smaller keys and its
children sit one level lower, so the pass finds each node's ``open_below``,
``n_enabled_below`` and ``y`` final, sets its bits and cost, and adds into
its parent's.  A node that is not abundant, counts no open node below it
and holds no cost is skipped after three list reads.

A shift between two related scales counts only the levels it adds.  When
``Hierarchy.shared_offset`` finds the deeper hierarchy to be the shallower
one plus k bottom node ids, with equal point chains above them, the shared
nodes' n_area and slack are copied by slice from the outgoing scale's lists:
all of them going down, and all but the ids below k, which alone are
counted, going up.  The copy is exact: those counts read only the shared
levels and chains, and the outgoing lists already hold the mutation that
triggered the shift.  Construction, a rebuild of the current hierarchy and an
unrelated pair count every node.

A cost query with no write since the previous one reads one attribute: the
float of the root's cost, computed by the first query after a write and kept
until the next.  Every writer of the ``cost`` list (``_settle``, the only
one during updates, and the rebuild) drops it, so an update pays
one attribute store and never the division.  Concurrent first queries may
compute it twice, with equal results, as the ``Instance`` caches may.

``assignments()`` keeps its maps across calls under the key (hierarchy, open
set), taken on each call.  It is exact: on one hierarchy the enabled bits,
which count open nodes only, and ``_route``, which reads only ``open_nodes``
and static lists, are functions of the open set.  Concurrent calls may fill
the maps twice, with equal values.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

from .instance import Instance, Params, derive_parameters, \
    largest_power_of_five_at_most


class Annotations(NamedTuple):
    """Dynamic state of one hierarchy's triplets, one list per field indexed
    by node id: status bits, client counters, cost values.

    ``slack`` is n_x - abundance_threshold: abundant means ``slack >= 0``.
    ``cost`` and ``y`` are in units of 5**rho_min; ``y`` is the sum of the
    children's costs and ``cost`` adds the payments resolved at this node.
    Every element is a plain ``bool`` (the bits) or ``int`` (the counts).
    """

    is_open: list[bool]
    is_enabled: list[bool]
    n_area: list[int]
    slack: list[int]
    open_below: list[int]
    n_enabled_below: list[int]
    cost: list[int]
    y: list[int]


class Assignment(NamedTuple):
    """Where a client's payment lands: its lowest enabled area, the open
    triplet it is routed through, and the facility it is served by."""

    r_area: int
    area_triplet: int
    aux_triplet: int
    open_facility: int


@dataclass
class UpdateStats:
    """Per-update work counters (affected triplets, heap pulls, status
    flips), and whether the update's scale shift rebuilt the annotations."""

    affected: int = 0
    heap_pulls: int = 0
    flips: int = 0
    rebuilt: bool = False


class DirtyHeap:
    """Min-heap of triplets keyed (logradius, color, facility id).

    Membership is deduplicated and every triplet may be pulled at most once
    per update; a second pull attempt is an internal error.
    """

    __slots__ = ("_heap", "_member", "cleaned")

    def __init__(self):
        self._heap: list[tuple[int, int, int, int]] = []
        self._member: set[int] = set()
        self.cleaned: dict[int, None] = {}

    def push(self, key: tuple[int, int, int], idx: int) -> None:
        if idx in self.cleaned:
            raise RuntimeError(f"triplet {idx} cleaned twice in one update")
        if idx in self._member:
            return
        self._member.add(idx)
        heappush(self._heap, key + (idx,))

    def pop(self) -> int:
        idx = heappop(self._heap)[3]
        self._member.discard(idx)
        self.cleaned[idx] = None
        return idx

    def __bool__(self) -> bool:
        return bool(self._heap)


class Engine:
    """Dynamic facility location engine over one instance.

    Single mutating actor: updates must be serialized, queries may run
    concurrently with each other but not with an update.  No internal
    locking.  An exception escaping an update once the annotations may have
    changed leaves the engine refusing every later update with a
    ``RuntimeError`` that names the first failure; input errors raised
    before any change (an unknown or duplicate id, a bad point) do not.
    """

    def __init__(self, instance: Instance, clients=()):
        self.instance = instance
        # live client id -> point index
        self.registry: dict = {cid: instance.point_index(point)
                               for cid, point in dict(clients).items()}
        self._set_scale(largest_power_of_five_at_most(len(self.registry)))
        self._stats = (0, 0, 0, False)  # last_update's fields
        self.hierarchy = self.annotations = None
        self._routes = (None, {}, {})  # assignments()'s key and maps
        self._rebuild(derive_parameters(instance, self.n))

    @property
    def last_update(self) -> UpdateStats:
        """The last update's counters, as a new ``UpdateStats`` on each
        read; assigning one records its fields."""
        return UpdateStats(*self._stats)

    @last_update.setter
    def last_update(self, stats: UpdateStats) -> None:
        self._stats = (stats.affected, stats.heap_pulls, stats.flips, stats.rebuilt)

    @classmethod
    def from_clients(cls, instance: Instance, clients) -> "Engine":
        """From-scratch construction for a given live client set (the state
        any update sequence reaching this set must match)."""
        return cls(instance, clients)

    # -- queries -------------------------------------------------------------

    def cost_query(self) -> float:
        """Total payment of the current solution (root cost), O(1); inf
        when it exceeds the float range.  The float is computed by the first
        query after a write, as the exact integer division, and kept until
        the next write; concurrent first queries may compute it twice, with
        equal results."""
        cost = self._cost
        if cost is None:
            units = self.annotations.cost[self.hierarchy.root]
            try:
                cost = units * self._unit_num / self._unit_den
            except OverflowError:
                cost = math.inf
            self._cost = cost
        return cost

    def solution_query(self) -> list[int]:
        """Designated facilities of the currently open triplets, sorted;
        linear in the number of open triplets."""
        nodes = self.hierarchy.nodes
        return sorted({nodes[i].designated_facility for i in self.open_nodes})

    def assign_client(self, cid) -> Assignment:
        """Resolve a live client to its lowest enabled area and open facility."""
        if cid not in self.registry:
            raise ValueError(f"unknown client id: {cid!r}")
        return self._route(self._lowest_enabled(
            self.registry[cid], self.hierarchy.point_chains, self.annotations.is_enabled))

    def assignments(self) -> dict:
        """Every live client's ``assign_client`` result, in one pass over the
        registry: an assignment depends only on the client's lowest enabled
        area, which depends only on its bottom area, so each distinct bottom
        area is resolved once and each distinct lowest enabled area is
        routed once, per key (hierarchy, open set) of the kept maps."""
        chains, enabled = self.hierarchy.point_chains, self.annotations.is_enabled
        key = (self.hierarchy, frozenset(self.open_nodes))
        memo = self._routes
        if memo[0] != key:
            memo = self._routes = (key, {}, {})
        _, at_bottom, routed = memo
        out = {}
        for cid, point in self.registry.items():
            bottom = chains[point][0]
            assignment = at_bottom.get(bottom)
            if assignment is None:
                area_idx = self._lowest_enabled(point, chains, enabled)
                assignment = routed.get(area_idx)
                if assignment is None:
                    assignment = routed[area_idx] = self._route(area_idx)
                at_bottom[bottom] = assignment
            out[cid] = assignment
        return out

    @staticmethod
    def _lowest_enabled(point: int, chains, enabled) -> int:
        """The first enabled area on the chain ``chains[point]``."""
        for idx in chains[point]:
            if enabled[idx]:
                return idx
        raise RuntimeError(f"no enabled area on the chain of point {point}")

    def _route(self, area_idx: int) -> Assignment:
        """The assignment of a client whose lowest enabled area is
        ``area_idx``: the smallest-key open triplet at or below the area's
        (logradius, color) whose facility lies in the area's far
        neighborhood."""
        nodes = self.hierarchy.nodes
        area = nodes[area_idx]
        area_key = (area.r, area.color)
        best = None
        best_key = None
        for oidx in self.open_nodes:
            onode = nodes[oidx]
            if (onode.r, onode.color) > area_key:
                continue
            entry = self.hierarchy.facility_chain_at(onode.facility, area.r)
            if entry is None or entry not in area.y_areas:
                continue
            key = (onode.r, onode.color, onode.facility)
            if best is None or key < best_key:
                best, best_key = oidx, key
        if best is None:
            raise RuntimeError("no open triplet reachable from area "
                               f"(j={area.facility},r={area.r},s={area.color})")
        return tuple.__new__(Assignment, (area.r, area_idx, best,
                                          nodes[best].designated_facility))

    def realized_cost(self, assignments) -> float:
        """Opening costs of the open facilities plus client-to-facility
        distances under ``assignments``, the result of ``assignments()``
        for the current state.  The distances are one bulk
        ``Instance.pair_distances`` call, ``distance``'s values bit for bit,
        added one client at a time in registry order."""
        facs = self.instance.facilities
        total = sum(facs[f].opening_cost for f in self.solution_query())
        registry = self.registry
        points = np.fromiter(registry.values(), np.int64, len(registry))
        served = np.fromiter((facs[assignments[cid].open_facility].point for cid in registry),
                             np.int64, len(registry))
        for d in self.instance.pair_distances(points, served).tolist():
            total += d
        return total

    def state_hash(self) -> str:
        """Digest of the full dynamic state (structure, annotations, clients)."""
        h = hashlib.sha256()
        p = self.hierarchy.params
        nodes = self.hierarchy.nodes
        h.update(repr((p.rho_min, p.rho_max, self.n)).encode())
        for node, is_open, is_enabled, n_area, slack, open_below, n_enabled_below, \
                cost, y in zip(nodes, *self.annotations):
            h.update(repr((node.facility, node.r, node.color, is_open, is_enabled,
                           slack >= 0, n_area, slack + node.abundance_threshold,
                           open_below, n_enabled_below, cost, y)).encode())
        # Open triplets per designated facility.
        designations = Counter(nodes[i].designated_facility for i in self.open_nodes)
        h.update(repr(sorted(designations.items())).encode())
        h.update(repr(sorted((str(c), pt) for c, pt in self.registry.items())).encode())
        return h.hexdigest()

    # -- updates ---------------------------------------------------------------

    def insert_client(self, cid, point: int) -> None:
        point = self.instance.point_index(point)
        if cid in self.registry:
            raise ValueError(f"client id already live: {cid!r}")
        chain = self.hierarchy.area_chain(point)
        self.registry[cid] = point
        self._apply(chain, +1)

    def delete_client(self, cid) -> None:
        if cid not in self.registry:
            raise ValueError(f"unknown client id: {cid!r}")
        chain = self.hierarchy.area_chain(self.registry.pop(cid))
        self._apply(chain, -1)

    def _apply(self, chain, delta: int) -> None:
        try:
            affected = self.find_affected_triplets(chain)
            flipped = self.update_status(affected, delta)
            self.update_cost(chain, flipped, delta)
            if not self.n <= len(self.registry) < self._n_next:
                self._set_scale(largest_power_of_five_at_most(len(self.registry)))
                self.adjust_levels()
        except BaseException as exc:
            self._poison(exc)
            raise

    def _poison(self, exc: BaseException) -> None:
        """Refuse every later update: the failed one may have left the
        annotations half applied.  Instance attributes shadow the methods, so
        a healthy engine pays no check; replacing ``_apply`` also stops update
        methods bound before the failure."""
        message = f"engine unusable after a failed update: {exc!r}"

        def refuse(*_args):
            raise RuntimeError(message)
        self.insert_client = self.delete_client = self._apply = refuse

    def find_affected_triplets(self, chain) -> tuple[int, ...]:
        """Triplets whose near neighborhood contains the client's point: the
        same-level x-members of every node on the client's area chain, each
        once, precomputed per bottom area."""
        return self.hierarchy.path_x_areas[chain[0]]

    def _proposed_open(self, idx: int) -> bool:
        anns = self.annotations
        return anns.slack[idx] >= 0 and anns.open_below[idx] == 0

    def update_status(self, affected, delta: int) -> list[tuple[int, bool]]:
        """Adjust near-neighborhood counters, propagate open/closed flips
        through the dirty heap, and report enabled-bit changes.

        Each triplet is in ``affected`` once and ``delta`` is +1 or -1, so a
        flip is ``slack`` landing on 0 or -1; the heap is made on the first."""
        is_open, is_enabled, _, slack, open_below, _, _, _ = self._lists
        nodes = self.hierarchy.nodes
        edge = 0 if delta > 0 else -1
        heap = None
        for idx in affected:
            slack[idx] = s = slack[idx] + delta
            if s == edge:
                if heap is None:
                    heap = DirtyHeap()
                heap.push(nodes[idx].key(), idx)
        if heap is None:
            self._stats = (len(affected), 0, 0, False)
            return []
        pulls = 0
        flips = 0
        while heap:
            idx = heap.pop()
            pulls += 1
            proposal = self._proposed_open(idx)
            if proposal != is_open[idx]:
                flips += 1
                is_open[idx] = proposal
                if proposal:
                    self.open_nodes.add(idx)
                    step = 1
                else:
                    self.open_nodes.discard(idx)
                    step = -1
                for up in nodes[idx].neighbors_above:
                    open_below[up] += step
                    heap.push(nodes[up].key(), up)
        flipped: list[tuple[int, bool]] = []
        for idx in heap.cleaned:
            enabled = open_below[idx] >= 1 or is_open[idx]
            if enabled != is_enabled[idx]:
                flipped.append((idx, enabled))
        self._stats = (len(affected), pulls, flips, False)
        return flipped

    def _settle(self, order, delta: int) -> None:
        """Add ``delta`` clients to ``n_area`` and recompute ``cost`` at every
        node of ``order``, pushing the changes into the parent's
        ``n_enabled_below`` and ``y``.  ``order`` must list node ids in
        ascending order: ids ascend with logradius, so each node's children
        in ``order`` are settled before it."""
        _, is_enabled, n_area, _, _, n_enabled_below, costs, y = self._lists
        hierarchy = self.hierarchy
        parents, unit_weights = hierarchy.parents, hierarchy.unit_weights
        self._cost = None
        for idx in order:
            n_area[idx] = n = n_area[idx] + delta
            cost = y[idx]
            enabled = is_enabled[idx]
            if enabled:
                cost += (n - n_enabled_below[idx]) * unit_weights[idx]
            parent = parents[idx]
            if parent is not None:
                if enabled:
                    n_enabled_below[parent] += delta
                y[parent] += cost - costs[idx]
            costs[idx] = cost

    def update_cost(self, chain, flipped, delta: int) -> None:
        """Re-establish counters and the cost recursion along the client's
        chain and every root path touched by an enabled-bit flip.

        The chain, a parent path in ascending id order, is settled first at
        the old enabled bits; ``_settle_flips`` then applies the flips."""
        self._settle(chain, delta)
        if flipped:
            self._settle_flips(flipped)

    def _settle_flips(self, flipped) -> None:
        """Apply a steady update's ``(idx, enabled)`` enabled-bit flips to
        settled counts (a rebuild sets the bits in its own pass).

        Each flip moves its node's count into or out of its parent's
        ``n_enabled_below`` and sets the bit; every node whose cost the flips
        change lies on a flip's root path, so one settle pass over their
        sorted union (delta 0) finishes the recursion."""
        _, is_enabled, n_area, _, _, n_enabled_below, _, _ = self._lists
        parents = self.hierarchy.parents
        paths: set[int] = set()
        for idx, enabled in flipped:
            parent = parents[idx]
            if parent is not None:
                n_enabled_below[parent] += n_area[idx] * (enabled - is_enabled[idx])
            is_enabled[idx] = enabled
            while idx is not None and idx not in paths:
                paths.add(idx)
                idx = parents[idx]
        self._settle(sorted(paths), 0)

    # -- level maintenance ------------------------------------------------------

    def _set_scale(self, n: int) -> None:
        """Set the scale n and the window [n, 5n) of live counts that keep
        it ([0, 1) for n = 0)."""
        self.n = n
        self._n_next = 5 * n or 1

    def adjust_levels(self) -> None:
        """React to a shift of the client-count scale: switch hierarchies and
        rebuild all dynamic state when the bottom logradius moves, marking
        ``last_update.rebuilt``; else keep the structure untouched."""
        params = derive_parameters(self.instance, self.n)
        if params != self.hierarchy.params:
            self._rebuild(params)
            self._stats = self._stats[:3] + (True,)

    def _rebuild(self, params: Params) -> None:
        """Switch to the instance's hierarchy of ``params`` (built on its
        first use, then shared by every engine over the instance) and build
        one fresh ``Annotations`` for the current live client set.

        A shift between two scales whose hierarchies are related
        (``Hierarchy.shared_offset``) copies the shared nodes' ``n_area``
        and ``slack`` from the outgoing lists by slice, all of them going
        down, and counts (``Hierarchy.counts``) only ids below k going up;
        ``_apply`` has already applied the triggering mutation to the
        outgoing lists.  Construction, a rebuild of the current hierarchy
        and an unrelated pair count every node.

        Then one pass in ``hierarchy.order`` sets every bit and cost, each
        node's ``open_below``, ``n_enabled_below`` and ``y`` being final when
        the pass reaches it; it reads the hierarchy's ``parents`` and
        ``unit_weights`` lists, and ``nodes[idx]`` only for an open node's
        ``neighbors_above``.  Every field is a plain int or bool
        (thresholds and unit weights may exceed int64).  The pass calls no
        public update method, so a rebuild is never counted as an update.
        """
        old, old_anns = self.hierarchy, self.annotations
        self.hierarchy = hierarchy = self.instance.hierarchy(params)
        rho_min = params.rho_min
        # cost_query divides integers, which rounds correctly and stays
        # finite whenever the cost is: a float 5.0**rho_min underflows to 0
        # below rho_min = -463, and converting units first can overflow.
        self._unit_num, self._unit_den = ((5 ** rho_min, 1) if rho_min >= 0
                                          else (1, 5 ** -rho_min))
        nodes = hierarchy.nodes
        size = len(nodes)
        # Levels the new scale adds below the outgoing one (< 0 going down).
        added = 0 if old is None else old.params.rho_min - rho_min
        if added < 0 and (k := old.shared_offset(hierarchy)) is not None:
            n_area, slack = old_anns.n_area[k:], old_anns.slack[k:]
        elif added > 0 and (k := hierarchy.shared_offset(old)) is not None:
            n_area, slack = hierarchy.counts(self.registry.values(), k)
            n_area += old_anns.n_area
            slack += old_anns.slack
        else:
            n_area, slack = hierarchy.counts(self.registry.values(), size)
        self._lists = lists = ([False] * size, [False] * size, n_area, slack,
                               [0] * size, [0] * size, [0] * size, [0] * size)
        self.annotations = Annotations(*lists)
        is_open, is_enabled, _, _, open_below, n_enabled_below, costs, y = lists
        parents, unit_weights = hierarchy.parents, hierarchy.unit_weights
        self._cost = None
        self.open_nodes = open_nodes = set()
        for idx in hierarchy.order:
            if not open_below[idx]:
                if slack[idx] < 0:
                    if cost := y[idx]:
                        costs[idx] = cost
                        if (parent := parents[idx]) is not None:
                            y[parent] += cost
                    continue
                is_open[idx] = True
                open_nodes.add(idx)
                for up in nodes[idx].neighbors_above:
                    open_below[up] += 1
            is_enabled[idx] = True
            costs[idx] = cost = y[idx] + (n_area[idx] - n_enabled_below[idx]) * unit_weights[idx]
            if (parent := parents[idx]) is not None:
                n_enabled_below[parent] += n_area[idx]
                y[parent] += cost
