"""Static net hierarchy: per-scale separated facility sets, the dependency
tree over (facility, logradius) pairs, laminar areas, x/y neighborhood lists,
coloring, and designated facilities.

Everything here is immutable once built, so a point's area chain is
computed once per hierarchy and memoised.  The engine keeps the hierarchies
of its last few scales and reuses one when its (rho_min, rho_max) comes back.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .instance import Instance, Params

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


def radius(c: int, r: int):
    """Threshold c * 5**r; integral (exact) whenever r >= 0."""
    return c * 5 ** r if r >= 0 else c * 5.0 ** r


class TripletNode:
    """One (facility, logradius, color) node of the dependency tree.

    ``x_areas``/``y_areas`` list the same-level node ids whose areas compose
    this node's near/far neighborhood; ``neighbors_above`` lists the
    lexicographically larger triplets whose far neighborhood contains this
    node's facility.
    """

    __slots__ = (
        "idx", "facility", "r", "color", "parent", "children",
        "x_areas", "y_areas", "neighbors_above",
        "designated_facility", "designated_cost",
        "abundance_threshold", "unit_weight",
    )

    def __init__(self, idx: int, facility: int, r: int):
        self.idx = idx
        self.facility = facility
        self.r = r
        self.color = 0
        self.parent: int | None = None
        self.children: list[int] = []
        self.x_areas: list[int] = []
        self.y_areas: list[int] = []
        self.neighbors_above: list[int] = []
        self.designated_facility = -1
        self.designated_cost = 0.0
        self.abundance_threshold = 1
        self.unit_weight = 1

    def key(self) -> tuple[int, int, int]:
        return (self.r, self.color, self.facility)


def build_separated_sets(instance: Instance, params: Params) -> dict[int, list[int]]:
    """Greedy maximal separated facility subset per logradius, in id order.

    Any two chosen facilities at level r are strictly more than C1*5**r
    apart, and every facility is within that radius of a chosen one.
    """
    dist = instance.distance
    facs = instance.facilities
    sets: dict[int, list[int]] = {}
    for r in range(params.rho_min, params.rho_max + 1):
        thr = radius(C1, r)
        chosen: list[int] = []
        for fac in facs:
            p = fac.point
            if all(dist(p, facs[c].point) > thr for c in chosen):
                chosen.append(fac.id)
        sets[r] = chosen
    return sets


def build_tree(instance: Instance, params: Params,
               sets: dict[int, list[int]]) -> dict[tuple[int, int], tuple[int, int]]:
    """Parent map: each (facility, r) pair points at the closest level-(r+1)
    facility, ties broken by ascending facility id."""
    dist = instance.distance
    fp = instance.facility_point
    parents: dict[tuple[int, int], tuple[int, int]] = {}
    for r in range(params.rho_min, params.rho_max):
        uppers = sets[r + 1]
        for j in sets[r]:
            p = fp(j)
            best = min(uppers, key=lambda u: (dist(p, fp(u)), u))
            parents[(j, r)] = (best, r + 1)
    return parents


class Hierarchy:
    """The full static decomposition for one parameter setting."""

    def __init__(self, instance: Instance, params: Params):
        self.instance = instance
        self.params = params
        self.level_sets = build_separated_sets(instance, params)
        if len(self.level_sets[params.rho_max]) != 1:
            raise AssertionError("top level must hold a single facility")

        self.nodes: list[TripletNode] = []
        self.by_level: dict[int, list[int]] = {}
        self.node_of: dict[tuple[int, int], int] = {}
        self._fac_point: list[int] = [f.point for f in instance.facilities]
        for r in range(params.rho_min, params.rho_max + 1):
            ids = []
            for j in self.level_sets[r]:
                idx = len(self.nodes)
                node = TripletNode(idx, j, r)
                node.unit_weight = 5 ** (r - params.rho_min)
                self.nodes.append(node)
                self.node_of[(j, r)] = idx
                ids.append(idx)
            self.by_level[r] = ids

        parents = build_tree(instance, params, self.level_sets)
        for (j, r), (pj, pr) in parents.items():
            idx = self.node_of[(j, r)]
            pidx = self.node_of[(pj, pr)]
            self.nodes[idx].parent = pidx
            self.nodes[pidx].children.append(idx)
        for node in self.nodes:
            node.children.sort(key=lambda i: self.nodes[i].facility)
        self.root = self.by_level[params.rho_max][0]

        # Point -> area chain, filled on first use.  The facility points are
        # filled here, since designations need them.
        self._chains: dict[int, tuple[int, ...]] = {}
        for f in instance.facilities:
            self.area_chain(f.point)

        self._color_pairs()
        self._build_xy_and_designations()

    # -- point lookups ----------------------------------------------------

    def find_balls(self, p: int, cstar: int) -> list[int]:
        """All node ids (j, r) with dist(p, j) <= cstar * 5**r.

        Top-down traversal expanding only the children of surviving nodes;
        the separated-set structure guarantees no qualifying node is missed.
        """
        if cstar < MIN_BALL_FACTOR:
            raise ValueError(f"ball scale factor must be >= {MIN_BALL_FACTOR}")
        dist = self.instance.distance
        fp = self._fac_point
        nodes = self.nodes
        params = self.params
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
                for c in nodes[idx].children
                if dist(p, fp[nodes[c].facility]) <= thr
            ]
            r -= 1
        return out

    def find_area(self, p: int) -> int:
        """Node id of the smallest-logradius area containing p.

        Minimal level first, then minimal distance, then minimal facility id.
        """
        dist = self.instance.distance
        fp = self._fac_point
        nodes = self.nodes
        params = self.params
        frontier = [self.root]
        r = params.rho_max
        while r > params.rho_min:
            thr = radius(C2, r - 1)
            nxt = [
                c
                for idx in frontier
                for c in nodes[idx].children
                if dist(p, fp[nodes[c].facility]) <= thr
            ]
            if not nxt:
                break
            frontier = nxt
            r -= 1
        return min(frontier, key=lambda i: (dist(p, fp[nodes[i].facility]),
                                            nodes[i].facility))

    def area_chain(self, p: int) -> tuple[int, ...]:
        """Node ids from the bottom-most area containing p up to the root.

        Memoised per point; every call for p returns the same tuple.
        """
        chain = self._chains.get(p)
        if chain is None:
            nodes = self.nodes
            ids = [self.find_area(p)]
            while (parent := nodes[ids[-1]].parent) is not None:
                ids.append(parent)
            chain = self._chains[p] = tuple(ids)
        return chain

    def facility_chain_at(self, fid: int, r: int) -> int | None:
        """The level-r entry of a facility's area chain, if the chain reaches
        down to level r."""
        chain = self._chains[self._fac_point[fid]]
        off = r - self.nodes[chain[0]].r
        return chain[off] if off >= 0 else None

    # -- build stages ------------------------------------------------------

    def _color_pairs(self) -> None:
        """Greedy per-level coloring: same-level nodes within C4*5**r get
        distinct colors; lower facility ids are colored first."""
        nodes = self.nodes
        fp = self._fac_point
        for r, ids in self.by_level.items():
            for idx in ids:
                node = nodes[idx]
                taken = set()
                for cand in self.find_balls(fp[node.facility], C4):
                    other = nodes[cand]
                    if other.r == r and other.facility < node.facility:
                        taken.add(other.color)
                color = 0
                while color in taken:
                    color += 1
                node.color = color

    def _build_xy_and_designations(self) -> None:
        nodes = self.nodes
        fp = self._fac_point
        dist = self.instance.distance

        for node in nodes:
            x_areas, y_areas = [], []
            for cand in self.find_balls(fp[node.facility], CY):
                other = nodes[cand]
                if other.r != node.r:
                    continue
                y_areas.append(cand)
                if dist(fp[node.facility], fp[other.facility]) <= radius(CX, node.r):
                    x_areas.append(cand)
            node.x_areas = sorted(x_areas)
            node.y_areas = sorted(y_areas)

        # Facilities bucketed by the area chain entry holding their point.
        bucket: dict[int, list[int]] = {}
        for fac in self.instance.facilities:
            for idx in self._chains[fac.point]:
                bucket.setdefault(idx, []).append(fac.id)

        facs = self.instance.facilities
        for node in nodes:
            best_cost = math.inf
            best_id = -1
            for area in node.x_areas:
                for fid in bucket.get(area, ()):
                    cost = facs[fid].opening_cost
                    if cost < best_cost or (cost == best_cost and fid < best_id):
                        best_cost, best_id = cost, fid
            if best_id < 0:
                raise AssertionError("area lost its own facility")
            node.designated_facility = best_id
            node.designated_cost = best_cost
            # Smallest client count in the near neighborhood that pays the
            # designated cost at this scale, as an exact integer.
            node.abundance_threshold = math.ceil(
                Fraction(best_cost) / Fraction(5) ** node.r)

        for upper in nodes:
            ukey = (upper.r, upper.color)
            seen: set[int] = set()
            for area in upper.y_areas:
                for fid in bucket.get(area, ()):
                    if fid in seen:
                        continue
                    seen.add(fid)
                    for r in range(self.params.rho_min, upper.r + 1):
                        vidx = self.node_of.get((fid, r))
                        if vidx is None:
                            continue
                        v = nodes[vidx]
                        if (v.r, v.color) < ukey:
                            v.neighbors_above.append(upper.idx)
        for node in nodes:
            node.neighbors_above.sort()

    # -- debug output -------------------------------------------------------

    def dump(self) -> str:
        """Indented one-line-per-node rendering of the dependency tree."""
        nodes = self.nodes
        lines: list[str] = []

        def render(idx: int, depth: int) -> None:
            node = nodes[idx]
            parent = "-" if node.parent is None else str(nodes[node.parent].facility)
            cost = node.designated_cost
            cost_s = str(int(cost)) if float(cost).is_integer() else repr(cost)
            lines.append(
                "  " * depth
                + f"r={node.r} s={node.color} j={node.facility} "
                + f"parent={parent} f*={cost_s} j*={node.designated_facility}"
            )
            for child in node.children:
                render(child, depth + 1)

        render(self.root, 0)
        return "\n".join(lines)
