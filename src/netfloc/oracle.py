"""Independent recomputation of the full dynamic state from the
definitions, plus an exact exhaustive optimum for small instances.

The evaluator deliberately avoids the engine's incremental machinery and the
hierarchy's precomputed lists: it reads only the tree's nodes and the
metric.  Its static data comes from bulk scans, decisions exact and the
oracle's own: point areas from a level-by-level scan of all points against
each level's nodes, closest first by (distance, facility id), and near and
far neighborhoods from one block of node-to-node distances per level.  The
distances are ``Instance.pair_distances`` values, ``distance``'s bit for
bit, each compared with the exact ``radius`` (``_within``); abundance
thresholds are ``Fraction`` ceilings.  A recomputation counts clients in
numpy over the view's flat arrays and resolves status bits in one ordered
pass over the definitions.  A snapshot holds the annotations as the
engine shows them, an ``Annotations`` of eight per-field lists with costs
in units of 5**rho_min: the oracle returns its own lists,
``engine_snapshot`` copies the engine's, and
``compare_states`` compares the eight list pairs, walking node by node to
name node and field only on a mismatch.

A view keeps two results per open set, both exact functions of it and its
static data: ``recompute_state``'s route of each area, keyed by the open ids
in key order, and the near-neighborhood hits of every point that
``logical_violations`` reads, keyed by the engine's sorted open ids.
Concurrent calls may compute them twice, with equal values.

The distance kernel itself is shared: the build also reads
``pair_distances``, so a fault in it would reach both sides alike and
``verify`` would not see it.  Only the tests check that kernel against the
scalar ``Instance.distance``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import Annotations, Assignment, Engine
from .hierarchy import C2, CX, CY, Hierarchy, radius
from .instance import Instance, NetflocError


# Entries per block of a bulk scan (128 KiB of float distances).
SCAN_BLOCK = 2 ** 14


def _within(d: np.ndarray, rad) -> np.ndarray:
    """``d <= rad``, decided exactly, for float distances ``d`` and a
    ``radius`` value: an int (at r >= 0, possibly beyond the float range) or
    a float.  numpy compares with ``float(rad)``; a float strictly between
    ``float(rad)`` and ``rad`` would be nearer to ``rad``, so only the
    entries equal to ``float(rad)`` can be misjudged, and they are decided
    again in Python, where a float compares with an int exactly.  A radius
    beyond the float range exceeds every finite distance."""
    try:
        f = float(rad)
    except OverflowError:
        f = math.inf
    inside = d <= f
    if not f <= rad:
        inside &= d != f
    return inside


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Row slices of an n_rows x n_cols scan, each of at most SCAN_BLOCK
    entries or one row."""
    step = max(1, SCAN_BLOCK // max(1, n_cols))
    return [slice(s, s + step) for s in range(0, n_rows, step)]


class HierarchyMismatch(NetflocError):
    """Snapshots built over different hierarchies cannot be compared."""


@dataclass
class StateSnapshot:
    """Full dynamic state over one hierarchy: the annotations (eight
    per-field lists indexed by node id), the open facility set, and one
    assignment per live client."""

    hierarchy: Hierarchy
    annotations: Annotations
    open_facilities: frozenset
    assignments: dict


def engine_snapshot(engine: Engine) -> StateSnapshot:
    """Capture the engine's current state in snapshot form.  The lists are
    copied now (``Engine.annotation_copies``, in units of 5**rho_min), so
    later updates do not reach the snapshot."""
    return StateSnapshot(engine.hierarchy, Annotations._make(engine.annotation_copies()),
                         frozenset(engine.solution_query()),
                         engine.assignments())


class OracleView:
    """Definition-level evaluator bound to one instance and hierarchy.

    The constructor performs all static precomputation, in bulk scans over
    ``Instance.pair_distances`` (point chains, per-level near and far
    neighborhoods, facility membership in far neighborhoods), so that
    repeated state recomputations stay cheap.  It reads each node's
    logradius, color, facility, parent and designation through
    ``TripletNode``, names none of the hierarchy's lists, and derives each
    node's unit weight, 5**(r - rho_min), from r.  Its flat arrays:

    - ``_chains``: one row per point, one column per level, the point's
      chain entry at that level or the pad id ``len(nodes)`` below its
      bottom area;
    - ``_x_ids``: every node's x-members, node by node, the members of node
      i from ``_x_bounds[i]`` to ``_x_bounds[i + 1]`` (each segment's start
      also in the array ``_x_heads``, for ``reduceat``).
    """

    def __init__(self, instance: Instance, hierarchy: Hierarchy):
        self.instance = instance
        self.hierarchy = hierarchy
        nodes = hierarchy.nodes
        count = len(nodes)
        rho_min = hierarchy.params.rho_min
        level = np.array([n.r for n in nodes], dtype=np.int64) - rho_min
        color = np.array([n.color for n in nodes], dtype=np.int64)
        fac = np.array([n.facility for n in nodes], dtype=np.int64)
        fpoint = np.array([instance.facilities[n.facility].point for n in nodes],
                          dtype=np.int64)
        n_levels = hierarchy.params.delta
        # Node ids by level, each level in ascending facility id.
        leveled = np.lexsort((fac, level))
        cuts = np.searchsorted(level[leveled], np.arange(n_levels + 1)).tolist()
        levels = [leveled[a:b] for a, b in zip(cuts, cuts[1:])]

        # Bottom area of every point: level by level from the bottom, the
        # closest node by (distance, facility id) within C2 * 5**r, for the
        # points that no lower level reached.
        bottom = np.full(instance.n_points, -1, dtype=np.int64)
        pending = np.arange(instance.n_points)
        for j, ids in enumerate(levels):
            thr = radius(C2, rho_min + j)
            for rows in _row_blocks(len(pending), len(ids)):
                pts = pending[rows]
                d = instance.pair_distances(pts[:, None], fpoint[ids])
                inside = _within(d, thr)
                found = inside.any(axis=1)
                nearest = d.min(axis=1, where=inside, initial=math.inf, keepdims=True)
                # The first closest column has the lowest facility id.
                closest = ((d == nearest) & inside).argmax(axis=1)
                bottom[pts[found]] = ids[closest[found]]
            pending = pending[bottom[pending] < 0]
        if len(pending):
            raise AssertionError(f"point {pending[0]} outside every C2 ball")

        # The parent path of each bottom area, entered by level.
        parent = np.array([count if n.parent is None else n.parent for n in nodes],
                          dtype=np.int64)
        chains = np.full((instance.n_points, n_levels), count, dtype=np.int64)
        rows, cur = np.arange(instance.n_points), bottom
        while len(rows):
            chains[rows, level[cur]] = cur
            cur = parent[cur]
            rows, cur = rows[cur < count], cur[cur < count]
        self._chains = chains

        # Same-level node ids within the near-neighborhood radius, and the
        # facilities whose level-r chain entry lies within the far radius,
        # from one block of node-to-node distances per level.
        fac_points = np.array([f.point for f in instance.facilities], dtype=np.int64)
        x_pairs, y_pairs = [], []
        col_of = np.full(count + 1, -1, dtype=np.int64)
        for j, ids in enumerate(levels):
            r = rho_min + j
            col_of[ids] = np.arange(len(ids))
            entry_col = col_of[chains[fac_points, j]]
            col_of[ids] = -1
            reached = np.flatnonzero(entry_col >= 0)
            entry_col = entry_col[reached]
            for rows in _row_blocks(len(ids), len(ids)):
                d = instance.pair_distances(fpoint[ids[rows], None], fpoint[ids])
                row, col = np.nonzero(_within(d, radius(CX, r)))
                x_pairs.append((ids[rows][row], ids[col]))
                row, col = np.nonzero(_within(d, radius(CY, r))[:, entry_col])
                y_pairs.append((ids[rows][row], reached[col]))
        owner, member = map(np.concatenate, zip(*x_pairs))
        by_owner = np.argsort(owner, kind="stable")
        self._x_ids = member[by_owner]
        bounds = np.searchsorted(owner[by_owner], np.arange(count + 1))
        self._x_bounds = bounds.tolist()
        self._x_heads = bounds[:-1]

        owner, inside = map(np.concatenate, zip(*y_pairs))
        n_fac = len(instance.facilities)
        by_owner = np.lexsort((inside, owner))
        facs = inside[by_owner].tolist()
        bounds = np.searchsorted(owner[by_owner], np.arange(count + 1)).tolist()
        # Equal sets are one object: the upper levels' far neighborhoods
        # mostly hold every facility.
        kept: dict[frozenset[int], frozenset[int]] = {}
        self.y_facilities: list[frozenset[int]] = [
            kept.setdefault(s, s)
            for s in (frozenset(facs[a:b]) for a, b in zip(bounds, bounds[1:]))]
        by_fac = np.lexsort((owner, inside))
        fbounds = np.searchsorted(inside[by_fac], np.arange(n_fac + 1)).tolist()
        ids = list(range(count))    # one int object per node id
        holders = [ids[i] for i in owner[by_fac].tolist()]
        self.nodes_with_fac_in_y: dict[int, list[int]] = {
            f: holders[a:b] for f, (a, b) in enumerate(zip(fbounds, fbounds[1:]))}

        # Nodes compared by (logradius, color) as one integer rank.
        self._rank = (level * (int(color.max()) + 1) + color).tolist()
        self._fac = fac.tolist()

        # Smallest client count satisfying the abundance inequality, from the
        # exact rational form of the designated cost at each scale.
        self._threshold = [
            math.ceil(Fraction(instance.facilities[node.designated_facility].opening_cost)
                      / Fraction(5) ** node.r)
            for node in nodes
        ]
        self._order = np.lexsort((fac, color, level)).tolist()
        self._level = level.tolist()
        # Each node's payment per client, 5**(r - rho_min), by definition:
        # one int object per level.
        weights = [5 ** j for j in range(n_levels)]
        self._weight = [weights[j] for j in self._level]
        self._parent = [n.parent for n in nodes]
        self._count = count
        # recompute_state's routes and logical_violations' hits, per open set.
        self._routed, self._open_hits = (None, {}), (None, None)

    def x_hits(self, points: np.ndarray, idxs) -> np.ndarray:
        """For each of ``points``, the number of nodes among ``idxs`` whose
        near neighborhood holds the point's chain entry at the node's level:
        one membership vector per node, read at the points' chain entries."""
        entries = self._chains[points]
        hits = np.zeros(len(points), dtype=np.int64)
        member = np.zeros(self._count + 1, dtype=bool)
        bounds = self._x_bounds
        for idx in idxs:
            ids = self._x_ids[bounds[idx]:bounds[idx + 1]]
            member[ids] = True
            hits += member[entries[:, self._level[idx]]]
            member[ids] = False
        return hits

    def recompute_state(self, clients) -> StateSnapshot:
        """Evaluate every annotation, the open facility set, and all client
        assignments directly from the definitions; routes are kept per open set."""
        nodes = self.hierarchy.nodes
        count = self._count
        clients = dict(clients)
        points = np.fromiter(clients.values(), np.int64, len(clients))
        entries = self._chains[points]
        # Each client counts in every area of its chain (the pad id last).
        n_area = np.bincount(entries.ravel(), minlength=count + 1)[:count]
        # Each x-member list holds its own node, so no segment is empty.
        n_x = np.add.reduceat(n_area[self._x_ids], self._x_heads)
        slack = [n - t for n, t in zip(n_x.tolist(), self._threshold)]

        # Open bits in ascending (logradius, color, facility) order: a node's
        # bit depends only on smaller keys, so one ordered pass reaches the
        # fixed point.  An open node counts in the open_below of every
        # larger-key node whose far neighborhood holds its facility, and
        # enabled means open or counted in (open_below >= 1).
        rank, fac = self._rank, self._fac
        open_bits, enabled = [False] * count, [False] * count
        open_below = [0] * count
        open_list = []
        for idx in self._order:
            if slack[idx] >= 0 and not open_below[idx]:
                open_bits[idx] = enabled[idx] = True
                open_list.append(idx)
                key = rank[idx]
                for other in self.nodes_with_fac_in_y[fac[idx]]:
                    if rank[other] > key:
                        open_below[other] += 1
                        enabled[other] = True

        # A client pays at its lowest enabled area.  The nodes above that area
        # count the area's clients as enabled below, and the area and every
        # enabled node above it carry the payment; disabled nodes cost 0.
        # A chain with no enabled entry yields its first entry, not enabled.
        flags = enabled + [False]
        lowest = np.fromiter(flags, bool, count + 1)[entries].argmax(axis=1)
        area_of = entries[np.arange(len(points)), lowest].tolist()
        areas = Counter(area_of)
        if not all(map(flags.__getitem__, areas)):
            raise RuntimeError("no enabled area on a client's chain")
        parent, weight = self._parent, self._weight
        n_enabled_below = [0] * count
        cost = [0] * count
        paying = set(areas)
        for area, k in areas.items():
            paid = k * weight[area]
            cost[area] += paid
            up = parent[area]
            while up is not None:
                n_enabled_below[up] += k
                if enabled[up]:
                    cost[up] += paid
                    paying.add(up)
                up = parent[up]
        y = [0] * count
        for idx in paying:
            if parent[idx] is not None:
                y[parent[idx]] += cost[idx]

        # open_list ascends in key, so an area's first reachable entry is the
        # smallest-key one; an assignment depends only on the area and open_list.
        memo = self._routed
        if memo[0] != open_list:
            memo = self._routed = (open_list, {})
        routed = memo[1]
        for area_idx in areas:
            if area_idx in routed:
                continue
            key, inside = rank[area_idx], self.y_facilities[area_idx]
            for best in open_list:
                if rank[best] <= key and fac[best] in inside:
                    break
            else:
                raise RuntimeError(f"no open triplet reachable from node {area_idx}")
            routed[area_idx] = tuple.__new__(Assignment, (
                nodes[area_idx].r, area_idx, best, nodes[best].designated_facility))
        assignments = dict(zip(clients, map(routed.__getitem__, area_of)))

        annotations = Annotations(open_bits, enabled, n_area.tolist(), slack,
                                  open_below, n_enabled_below, cost, y)
        open_facs = frozenset(nodes[idx].designated_facility for idx in open_list)
        return StateSnapshot(self.hierarchy, annotations, open_facs, assignments)


def compare_states(left: StateSnapshot, right: StateSnapshot) -> list[str]:
    """Field-by-field diff of two snapshots of one hierarchy; empty list
    means identical.  The eight list pairs are compared whole first; only a
    mismatch walks them node by node, naming each differing field."""
    if left.hierarchy is not right.hierarchy:
        raise HierarchyMismatch("snapshots cover different hierarchies")
    if (left.annotations == right.annotations
            and left.open_facilities == right.open_facilities
            and left.assignments == right.assignments):
        return []
    diffs: list[str] = []
    for pos, (la, ra) in enumerate(zip(zip(*left.annotations), zip(*right.annotations))):
        if la == ra:
            continue
        node = left.hierarchy.nodes[pos]
        for name, lv, rv in zip(Annotations._fields, la, ra):
            if lv != rv:
                diffs.append(f"node (j={node.facility},r={node.r},s={node.color}): "
                             f"{name} left={lv} right={rv}")
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


def logical_violations(view: OracleView, engine: Engine, snapshot: StateSnapshot) -> list[str]:
    """Engine-state sanity conditions that must hold after every update:
    open implies enabled, abundant implies enabled, no client sits in two
    open near neighborhoods, a non-empty client set keeps at least one
    triplet open and the root enabled, and the root cost equals the summed
    client payments.  The bits, the root cost and the assignments are read
    from ``snapshot``, the engine's state as ``engine_snapshot`` took it; the
    open triplets and the live clients from the engine."""
    problems: list[str] = []
    nodes = engine.hierarchy.nodes
    anns, assignments = snapshot.annotations, snapshot.assignments
    for idx, (is_open, enabled, slack) in enumerate(zip(*anns[:2], anns.slack)):
        if is_open and not enabled:
            problems.append(f"open but not enabled: node {nodes[idx].key()}")
        if slack >= 0 and not enabled:
            problems.append(f"abundant but not enabled: node {nodes[idx].key()}")
    registry = engine.registry
    open_nodes = sorted(engine.open_nodes)
    if open_nodes:
        # Open near neighborhoods holding each point, kept per open set.
        memo = view._open_hits
        if memo[0] != open_nodes:
            memo = view._open_hits = (open_nodes, view.x_hits(
                np.arange(view.instance.n_points), open_nodes).tolist())
        hits = memo[1]
        for cid, point in registry.items():
            if hits[point] > 1:
                problems.append(f"client {cid!r} in {hits[point]} open neighborhoods")
    root = engine.hierarchy.root
    if registry:
        if not open_nodes:
            problems.append("live clients but no open triplet")
        if not anns.is_enabled[root]:
            problems.append("live clients but root not enabled")
        weight = view._weight
        total = sum(weight[assignments[cid].area_triplet] for cid in registry)
        if total != anns.cost[root]:
            problems.append(f"root cost {anns.cost[root]} != summed payments {total}")
    elif anns.cost[root] != 0:
        problems.append("no clients but nonzero root cost")
    return problems
