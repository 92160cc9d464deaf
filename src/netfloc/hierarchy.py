"""Static net hierarchy: per-scale separated facility sets, the dependency
tree over (facility, logradius) pairs, laminar areas, x/y neighborhood lists,
coloring, and designated facilities.

The build reads the instance's facility distance table
(``Instance.facility_distances``), whose entries are ``Instance.distance``
bit for bit.  Each threshold ``c * 5**r`` is compared as ``threshold``, the
largest float not above it, so every test equals the exact test of the
scalar distance against the exact threshold.  Separated sets are mask passes
over the table; a parent is a row minimum, the lowest facility id on ties.
Per level, one ``flatnonzero`` of the block within C4*5**r yields the
coloring, x and y lists and designations, and abundance thresholds are
integer ceilings.

Node ids ascend level by level, each level in facility order, so a level is
the ``range`` ``by_level[r]``; the level sets live only in the build.  Each
fact is stored once but the parent relation, which is kept twice.  The numpy
arrays ``parent_ids``, ``point_area`` and the flat x lists
``x_flat``/``x_starts`` are read only here (by ``counts``, ``shared_offset``,
``find_balls`` and the derived node lists).  For the engine, two per-node
lists serve every update and rebuild: ``parents``, the parent relation
again as id objects (a numpy read per node would cost more than the step it
serves), and ``unit_weights``, which the engine reads, or scales to its own
cost unit once per hierarchy; then come the point chains, ``path_x_areas``
(every update) and ``order`` (its full pass).  The other per-node facts
live in ``TripletNode``, whose ``parent`` and ``unit_weight`` read the two
lists.  Every node id kept is the node's own ``idx`` object, and every
facility id one int object per id.  ``counts`` gives the engine a live set's
client counts, so no other module knows this id layout.

The build also locates every point of the instance, facility and client
points alike: a point's bottom area is the closest node, by (distance,
facility id), of the lowest level of its C2 ball.  One descent per block of
points walks the tree level by level over numpy arrays of (point, candidate
node) pairs, with the exact distances of ``Instance.pair_distances``.  Each
bottom area's root path is one tuple, shared by the chains of its points.
Everything here is immutable once built, and ``Instance.hierarchy`` builds
each ``Params``' hierarchy once and keeps it for the instance's lifetime.

Neighbouring scales usually share every level: ``shared_offset`` relates a
deeper hierarchy to a shallower one of the same instance when no point's
chain above the deeper one's extra bottom levels moves.  Every level-r
decision of the build but the designations reads only r, as in a net-tree,
so the shared levels agree by construction; the designations read the
facility points' chains, which the chain walk covers.  Then the client
counts of the shared nodes are equal at both scales, and the engine copies
them across a shift.  The chain walk runs once per pair with numpy over the
static arrays and is memoised on the deeper hierarchy.
"""

from __future__ import annotations

import math

import numpy as np

from .instance import Instance, Params

# Scale factors: radius c * 5**r tests at logradius r.
C1 = 20
C2 = 35
CX = 2 * C2 + 2    # 72
C3 = CX + C2       # 107
CY = 2 * C3 + C2   # 249
C4 = CY + C2       # 284

# Ball lookups are only sound for scale factors >= (5/4)*C1.
MIN_BALL_FACTOR = 25

# A client assigned at scale r is served within ASSIGN_RADIUS_FACTOR * 5**r;
# adding the opening-cost share bounds total cost by PAYMENT_BOUND_FACTOR
# times the summed payments, and the payments by 5x the true optimum.
ASSIGN_RADIUS_FACTOR = C2 + C3 + C4            # 426
PAYMENT_BOUND_FACTOR = ASSIGN_RADIUS_FACTOR + 1  # 427
APPROX_FACTOR = 5 * PAYMENT_BOUND_FACTOR       # 2135

# Points per block of the bulk location; churn-l2's blocks hold up to ~13,000
# (point, candidate) pairs per level, so the pair arrays stay near 1 MB.
LOCATE_BLOCK = 256


def radius(c: int, r: int):
    """Threshold c * 5**r; integral (exact) whenever r >= 0."""
    return c * 5 ** r if r >= 0 else c * 5.0 ** r


def threshold(c: int, r: int) -> float:
    """``radius(c, r)`` as the largest float not above it (inf beyond the
    float range), so that for a float distance d, ``d <= threshold(c, r)``
    decides ``d <= radius(c, r)`` exactly."""
    t = radius(c, r)
    if isinstance(t, float):
        return t
    try:
        f = float(t)
    except OverflowError:
        return math.inf
    return f if f <= t else math.nextafter(f, -math.inf)


def _split_rows(values: list, rows: np.ndarray, n_rows: int) -> list[list]:
    """``values`` cut into one list per row 0 .. n_rows - 1, given each
    value's row in ascending order."""
    cuts = np.searchsorted(rows, np.arange(n_rows + 1)).tolist()
    return [values[a:b] for a, b in zip(cuts, cuts[1:])]


class TripletNode:
    """One (facility, logradius, color) node of the dependency tree.

    Stored: ``idx``, ``facility``, ``r``, ``color``; ``y_areas``, the far
    neighborhood's same-level ids (routing); and ``designated_facility``
    (like ``facility``, the hierarchy's one int object for that id) and its
    exact ``abundance_threshold``.  Read from the hierarchy's per-node lists
    through ``_hierarchy``: ``parent``, the parent's ``idx`` object, and
    ``unit_weight``, 5**(r - rho_min), one int object shared by the level's
    nodes.  Derived on each read, as new lists of plain ints: ``children``
    from ``parent_ids``, ``x_areas`` (the near neighborhood) from the flat x
    lists, ``neighbors_above`` from the y lists and ``_chain``.
    """

    __slots__ = (
        "idx", "facility", "r", "color", "y_areas", "designated_facility",
        "abundance_threshold", "_chain", "_hierarchy",
    )

    def __init__(self, idx: int, facility: int, r: int):
        self.idx = idx
        self.facility = facility
        self.r = r

    def key(self) -> tuple[int, int, int]:
        return (self.r, self.color, self.facility)

    @property
    def parent(self) -> int | None:
        """The parent's id, None at the root: ``Hierarchy.parents``."""
        return self._hierarchy.parents[self.idx]

    @property
    def unit_weight(self) -> int:
        """5**(r - rho_min): ``Hierarchy.unit_weights``."""
        return self._hierarchy.unit_weights[self.idx]

    @property
    def children(self) -> list[int]:
        """The ids whose parent is this node, ascending."""
        return np.flatnonzero(self._hierarchy.parent_ids == self.idx).tolist()

    @property
    def x_areas(self) -> list[int]:
        """This node's segment of the flat x lists."""
        h, i = self._hierarchy, self.idx
        return h.x_flat[h.x_starts[i]:h.x_starts[i + 1]].tolist()

    @property
    def neighbors_above(self) -> list[int]:
        """The nodes u with key(self) < key(u) whose far neighborhood holds
        this node's facility, as a new list on each read.  At level r those
        are the y areas of the facility's level-r chain entry e (the far
        relation is symmetric), so the list is e's y areas of a higher color
        than this node, then the y lists of e's ancestors: the rest of the
        chain."""
        nodes, chain = self._hierarchy.nodes, self._chain
        off = self.r - nodes[chain[0]].r
        color = self.color
        out = [u for u in nodes[chain[off]].y_areas if nodes[u].color > color]
        for p in chain[off + 1:]:
            out += nodes[p].y_areas
        return out


def abundance_threshold(cost: float, r: int) -> int:
    """ceil(cost / 5**r) exactly: with cost = a/b (``as_integer_ratio``), a
    ceiling division of integers."""
    a, b = cost.as_integer_ratio()
    return -(-a // (b * 5 ** r)) if r >= 0 else -(-(a * 5 ** -r) // b)


def build_separated_sets(instance: Instance, params: Params) -> dict[int, list[int]]:
    """Greedy maximal separated facility subset per logradius, in id order.

    Any two chosen facilities at level r are strictly more than C1*5**r
    apart, and every facility is within that radius of a chosen one.
    """
    table = instance.facility_distances
    sets: dict[int, list[int]] = {}
    for r in range(params.rho_min, params.rho_max + 1):
        thr = threshold(C1, r)
        covered = np.zeros(len(table), dtype=bool)
        chosen: list[int] = []
        for fid in range(len(table)):
            if not covered[fid]:
                chosen.append(fid)
                covered |= table[fid] <= thr  # a row: the table is symmetric
        sets[r] = chosen
    return sets


def build_tree(instance: Instance, params: Params,
               sets: dict[int, list[int]]) -> dict[int, np.ndarray]:
    """Parent positions: for each level r below the top, the position in
    ``sets[r + 1]`` of each level-r facility's parent, the closest
    level-(r+1) facility, ties broken by ascending facility id.

    A facility of both levels is its own parent, since the other level-(r+1)
    facilities are more than C1*5**(r+1) > 0 away; level sets ascend by
    facility id, so it finds itself by ``searchsorted``.  At the lower levels
    that is most facilities, whose rows the block below leaves out.
    """
    table = instance.facility_distances
    parents: dict[int, np.ndarray] = {}
    for r in range(params.rho_min, params.rho_max):
        uppers, lowers = np.array(sets[r + 1]), np.array(sets[r])
        pos = np.searchsorted(uppers, lowers)
        moved = uppers[np.minimum(pos, len(uppers) - 1)] != lowers
        # argmin keeps the first of equal distances: the lowest upper id.
        pos[moved] = table[np.ix_(lowers[moved], uppers)].argmin(axis=1)
        parents[r] = pos
    return parents


class Hierarchy:
    """The full static decomposition for one parameter setting."""

    def __init__(self, instance: Instance, params: Params):
        self.instance, self.params = instance, params
        sets = build_separated_sets(instance, params)
        if len(sets[params.rho_max]) != 1:
            raise AssertionError("top level must hold a single facility")

        # One int object per facility id, for ``facility`` and designations.
        fac_objs = np.array(range(len(instance.facilities)), dtype=object)
        # Node ids ascend level by level, in each level set's facility order.
        self.nodes: list[TripletNode] = []
        # Each node's 5**(r - rho_min), one int object per level.
        self.unit_weights: list[int] = []
        self.by_level: dict[int, range] = {}
        for r in range(params.rho_min, params.rho_max + 1):
            start = len(self.nodes)
            ids = self.by_level[r] = range(start, start + len(sets[r]))
            self.nodes += [TripletNode(idx, j, r)
                           for idx, j in zip(ids, fac_objs[sets[r]].tolist())]
            self.unit_weights += [5 ** (r - params.rho_min)] * len(ids)
        # One int object per node id, shared by every id the hierarchy keeps
        # (root, parents, chains, y lists, ``order``, ``path_x_areas``).
        id_objs = np.array([node.idx for node in self.nodes], dtype=object)
        tree = build_tree(instance, params, sets)
        self.parent_ids = np.concatenate([pos + self.by_level[r + 1].start
                                          for r, pos in tree.items()] + [[-1]])
        # Each node's parent id, None at the root.
        self.parents: list[int | None] = id_objs[self.parent_ids[:-1]].tolist() + [None]
        self.root = id_objs[-1]
        self._fac_point: list[int] = [f.point for f in instance.facilities]
        fac = np.concatenate([sets[r] for r in self.by_level])

        # Point -> bottom area and area chain, the root path of that area:
        # one tuple per distinct bottom area, shared by all its points.
        self.point_area = self._locate(fac)
        areas = id_objs[self.point_area].tolist()
        paths = {}
        for a in set(areas):
            path = [a]
            while (p := self.parents[path[-1]]) is not None:
                path.append(p)
            paths[a] = tuple(path)
        self.point_chains = [paths[a] for a in areas]
        for node in self.nodes:
            node._chain = self.point_chains[self._fac_point[node.facility]]
            node._hierarchy = self
        colors = self._build_levels(sets, id_objs, fac_objs)
        for a in (self.point_area, self.parent_ids, self.x_flat, self.x_starts):
            a.flags.writeable = False
        # Node ids in (logradius, color, facility) order, the order in which
        # open bits resolve.
        level = np.repeat(np.arange(len(sets)), [len(ids) for ids in self.by_level.values()])
        self.order = id_objs[np.lexsort((fac, colors, level))].tolist()
        self._shared_offsets: dict[Hierarchy, int | None] = {}

    # -- relations between scales --------------------------------------------

    def shared_offset(self, other: Hierarchy) -> int | None:
        """k when ``other``, a hierarchy of the same instance, is this one
        without its k bottom node ids, else None (memoised per ``other``).

        With the same ``rho_max`` and ``other``'s bottom level at or above
        this one's, every level of ``other`` is a level here.  Its level
        set, parents, colors and x/y lists read only the facility table and
        r, so they are equal here, and ids ascend level by level in facility
        order: node i of ``other`` is node i + k here.  Only a point's bottom
        area can differ, since a deeper level can move it, so the check is
        that every point's chain in ``other`` equals its chain here above
        the k added nodes.  The designations, and so the abundance
        thresholds, read the level-r x lists and the facility points' level-r
        chain entries, which that check covers.  Then the client counts of the shared
        nodes (``n_area``, and n_x for ``slack``) are equal in both for any
        live set."""
        memo = self._shared_offsets
        if other not in memo:
            memo[other] = self._find_shared_offset(other)
        return memo[other]

    def _find_shared_offset(self, other: Hierarchy) -> int | None:
        k = len(self.nodes) - len(other.nodes)
        if (other.instance is not self.instance or k < 0
                or other.params.rho_max != self.params.rho_max
                or other.params.rho_min < self.params.rho_min):
            return None
        # Each point's first chain entry at or above id k; the shared parents
        # agree, so equal entries mean equal chains from there up.
        entry = self.point_area.copy()
        low = entry < k
        while low.any():
            entry[low] = self.parent_ids[entry[low]]
            low = entry < k
        return k if np.array_equal(entry, other.point_area + k) else None

    # -- client counts -----------------------------------------------------

    def counts(self, points, k: int) -> tuple[list[int], list[int]]:
        """``n_area`` and ``slack`` of the node ids below k, the first id of
        a level or the node count, for one client on each of ``points``, a
        sized iterable of point indices, as lists of plain ints.

        Each point counts in its bottom area, and each level whose parents
        lie below k adds its counts into them (ids ascend with logradius).
        Near counts are one ``reduceat`` over the x lists of the ids below
        k: each holds same-level ids and its own node, so no segment is
        empty."""
        by_level, params = self.by_level, self.params
        areas = self.point_area[np.fromiter(points, np.int64, len(points))]
        counts = np.bincount(areas[areas < k], minlength=k)
        for r in range(params.rho_min, params.rho_max):
            level, up = by_level[r], by_level[r + 1].start
            if up >= k:
                break
            np.add.at(counts, self.parent_ids[level.start:up], counts[level.start:up])
        starts = self.x_starts
        near = np.add.reduceat(counts[self.x_flat[:starts[k]]], starts[:k])
        return counts.tolist(), [n_x - node.abundance_threshold
                                 for n_x, node in zip(near.tolist(), self.nodes)]

    # -- point lookups ----------------------------------------------------

    def find_balls(self, p: int, cstar: int) -> list[int]:
        """All node ids (j, r) with dist(p, j) <= cstar * 5**r.

        Top-down traversal expanding only the children of surviving nodes;
        the separated-set structure guarantees no qualifying node is missed.
        The children are grouped once per call.
        """
        if cstar < MIN_BALL_FACTOR:
            raise ValueError(f"ball scale factor must be >= {MIN_BALL_FACTOR}")
        dist = self.instance.distance
        fp = self._fac_point
        nodes = self.nodes
        params = self.params
        # Child ids grouped by parent, as in ``_locate``: node i's children
        # are kids[cuts[i]:cuts[i + 1]].
        kids = np.argsort(self.parent_ids, kind="stable")[1:]
        cuts = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.parent_ids[kids], minlength=len(nodes)), out=cuts[1:])
        out: list[int] = []
        frontier = [self.root] if dist(p, fp[nodes[self.root].facility]) <= radius(
            cstar, params.rho_max) else []
        r = params.rho_max
        while frontier:
            out.extend(frontier)
            if r == params.rho_min:
                break
            thr = radius(cstar, r - 1)
            frontier = [
                c
                for idx in frontier
                for c in kids[cuts[idx]:cuts[idx + 1]].tolist()
                if dist(p, fp[nodes[c].facility]) <= thr
            ]
            r -= 1
        return out

    def area_chain(self, p: int) -> tuple[int, ...]:
        """Node ids from the bottom-most area containing p up to the root;
        points with one bottom area share one tuple."""
        return self.point_chains[p]

    def facility_chain_at(self, fid: int, r: int) -> int | None:
        """The level-r entry of a facility's area chain, if the chain reaches
        down to level r."""
        chain = self.point_chains[self._fac_point[fid]]
        off = r - self.nodes[chain[0]].r
        return chain[off] if off >= 0 else None

    # -- build stages ------------------------------------------------------

    def _locate(self, node_fac: np.ndarray) -> np.ndarray:
        """Bottom area node id of every point, given each node's facility:
        the closest node, by (distance, facility id), of the lowest level
        the point's C2 ball reaches.  The root's ball holds every point,
        since every distance is at most the diameter, at most 5**rho_max.

        Each block of points descends from the root; the candidates at level
        r are the children of the point's level-(r+1) survivors, and a
        candidate survives when its distance is at most ``threshold(C2, r)``.
        Pair arrays stay grouped by point in ascending order throughout.
        """
        inst, nodes, params = self.instance, self.nodes, self.params
        node_point = np.array(self._fac_point, dtype=np.int64)[node_fac]
        # Child ids grouped by parent: ``parent_ids`` sorted, less the root.
        kids = np.argsort(self.parent_ids, kind="stable")[1:]
        n_kids = np.bincount(self.parent_ids[kids], minlength=len(nodes))
        first_kid = np.cumsum(n_kids) - n_kids
        area = np.empty(inst.n_points, dtype=np.int64)

        def closest(pt, nd, d) -> None:
            """Set ``area`` of every point among the pairs to its closest
            node, by (distance, facility id)."""
            order = np.lexsort((node_fac[nd], d, pt))
            pt, nd = pt[order], nd[order]
            heads = np.r_[True, pt[1:] != pt[:-1]]
            area[pt[heads]] = nd[heads]

        for start in range(0, inst.n_points, LOCATE_BLOCK):
            pt = np.arange(start, min(start + LOCATE_BLOCK, inst.n_points))
            nd = np.full(len(pt), self.root, dtype=np.int64)
            prev = None
            for r in range(params.rho_max, params.rho_min - 1, -1):
                d = inst.pair_distances(pt, node_point[nd])
                keep = d <= threshold(C2, r)
                pt, nd, d = pt[keep], nd[keep], d[keep]
                if prev is None:
                    if len(pt) != len(keep):
                        raise AssertionError("point outside the root's C2 ball")
                else:
                    # Points with no level-r survivor have their area at r + 1.
                    reached = np.zeros(LOCATE_BLOCK, dtype=bool)
                    reached[pt - start] = True
                    done = ~reached[prev[0] - start]
                    if done.any():
                        closest(*(a[done] for a in prev))
                if not len(pt):
                    break
                prev = (pt, nd, d)
                if r > params.rho_min:
                    count = n_kids[nd]
                    pt = np.repeat(pt, count)
                    offs = np.arange(len(pt)) - np.repeat(np.cumsum(count) - count, count)
                    nd = kids[np.repeat(first_kid[nd], count) + offs]
            else:
                closest(*prev)
        return area

    def _build_levels(self, sets: dict[int, list[int]], id_objs: np.ndarray,
                      fac_objs: np.ndarray) -> list[int]:
        """Colors (returned in id order), y lists, the flat x lists (node i's
        is ``x_flat[x_starts[i]:x_starts[i + 1]]``), designations, ``path_x_areas``.

        Each level, from the bottom, reads the positions of its block of
        distances within C4*5**r, in row-major order; the near (CX) and far
        (CY) positions are subsets of them, since CX < CY < C4.
        """
        nodes, params = self.nodes, self.params
        facs = self.instance.facilities
        table = self.instance.facility_distances
        n_fac = len(facs)
        costs = np.array([f.opening_cost for f in facs])
        # Each facility's rank in (cost, id) order: the designation order.
        by_cost = np.lexsort((np.arange(n_fac), costs))
        rank = np.empty(n_fac, dtype=np.int64)
        rank[by_cost] = np.arange(n_fac)
        # Facility x level table of chain entries.
        entries = np.full((n_fac, params.delta), -1, dtype=np.int64)
        for fid, f in enumerate(facs):
            chain = self.point_chains[f.point]
            entries[fid, nodes[chain[0]].r - params.rho_min:] = chain

        colors: list[int] = []
        # Every x list as one flat id array, with each node's id per entry.
        x_flat, x_owner = [], []

        for r, ids in self.by_level.items():
            off = r - params.rho_min
            start, k = ids.start, len(ids)
            members = sets[r]
            block = table if k == n_fac else table[np.ix_(members, members)]
            pos = np.flatnonzero(block <= threshold(C4, r))
            dist = block.reshape(-1)[pos]
            row, col = np.divmod(pos, k)
            del block, pos

            level = nodes[start:start + k]

            # Greedy coloring: same-level nodes within C4*5**r get distinct
            # colors; lower facility ids are colored first.
            lower = col < row
            for node, clashes in zip(level, _split_rows(col[lower].tolist(), row[lower], k)):
                taken = {colors[start + c] for c in clashes}
                color = 0
                while color in taken:
                    color += 1
                colors.append(color)
                node.color = color

            near = dist <= threshold(CX, r)
            far = dist <= threshold(CY, r)
            x_flat.append(start + col[near])
            x_owner.append(start + row[near])
            y_lists = _split_rows(id_objs[start + col[far]].tolist(), row[far], k)
            for node, y_areas in zip(level, y_lists):
                node.y_areas = y_areas

            # Designation: the first facility in (cost, id) order whose
            # level-r chain entry is one of the node's x areas.  ``own``
            # holds each node's least rank among the facilities whose entry
            # it is; a node takes the least ``own`` over its x areas (every
            # row holds its own diagonal, so none is empty).
            own = np.full(k, n_fac, dtype=np.int64)
            reached = entries[:, off] >= 0
            np.minimum.at(own, entries[reached, off] - start, rank[reached])
            first = np.minimum.reduceat(own[col[near]],
                                        np.searchsorted(row[near], np.arange(k)))
            if (first == n_fac).any():
                raise AssertionError("area lost its own facility")
            for node, fid in zip(level, fac_objs[by_cost[first]].tolist()):
                node.designated_facility = fid
                # Smallest client count in the near neighborhood that pays
                # the designated cost at this scale, as an exact integer.
                node.abundance_threshold = abundance_threshold(facs[fid].opening_cost, r)

        self.x_flat = np.concatenate(x_flat)
        self.x_starts = np.searchsorted(np.concatenate(x_owner), np.arange(len(nodes) + 1))
        # Each bottom area's affected triplets, the x areas along its root
        # path: a tuple of a list, as tuple() of a generator fragments the heap.
        xs, cut = id_objs[self.x_flat].tolist(), self.x_starts.tolist()
        self.path_x_areas = {c[0]: tuple([m for i in c for m in xs[cut[i]:cut[i + 1]]])
                             for c in set(self.point_chains)}
        return colors

    # -- debug output -------------------------------------------------------

    def dump(self) -> str:
        """Indented one-line-per-node rendering of the dependency tree, depth
        first from the root, each node's children in ascending id order."""
        nodes = self.nodes
        facs = self.instance.facilities
        kids = np.argsort(self.parent_ids, kind="stable")[1:]  # as in ``_locate``
        children = _split_rows(kids.tolist(), self.parent_ids[kids], len(nodes))
        lines: list[str] = []
        stack = [(self.root, 0)]
        while stack:
            idx, depth = stack.pop()
            node = nodes[idx]
            parent = "-" if node.parent is None else str(nodes[node.parent].facility)
            cost = facs[node.designated_facility].opening_cost
            cost_s = str(int(cost)) if float(cost).is_integer() else repr(cost)
            lines.append(
                "  " * depth
                + f"r={node.r} s={node.color} j={node.facility} "
                + f"parent={parent} f*={cost_s} j*={node.designated_facility}"
            )
            stack += [(child, depth + 1) for child in reversed(children[idx])]
        return "\n".join(lines)
