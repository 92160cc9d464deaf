"""Brute-force reference routines shared by the structural tests: everything
here scans all pairs directly instead of using the tree traversals.  Also the
benchmark's seeded input generator, for tests that run on its inputs, and the
engine's general update path kept as a reference for its steady-update
shortcuts."""

import importlib.util
import sys
from functools import cache
from pathlib import Path

from netfloc import C1, C2, C3, C4, CX, DirtyHeap, Engine, Hierarchy, derive_parameters, radius
from netfloc.engine import UpdateStats
from netfloc.instance import largest_power_of_five_at_most


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


class ReferenceEngine(Engine):
    """The engine with its general update path on every update: a dirty heap
    per update, the client's counts and the cost recursion in two passes over
    the sorted union of touched root paths, and the scale re-derived after
    every mutation."""

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
            a = anns[idx]
            a.n_x += delta
            abundant = a.n_x >= nodes[idx].abundance_threshold
            if abundant != a.is_abundant:
                a.is_abundant = abundant
                heap.push(nodes[idx].key(), idx)
        pulls = 0
        flips = 0
        while heap:
            idx = heap.pop()
            pulls += 1
            proposal = self._proposed_open(idx)
            a = anns[idx]
            if proposal != a.is_open:
                flips += 1
                a.is_open = proposal
                if proposal:
                    self.open_nodes.add(idx)
                    step = 1
                else:
                    self.open_nodes.discard(idx)
                    step = -1
                for up in nodes[idx].neighbors_above:
                    anns[up].open_below += step
                    heap.push(nodes[up].key(), up)
        flipped: list[tuple[int, bool]] = []
        for idx in heap.cleaned:
            a = anns[idx]
            enabled = a.open_below >= 1 or a.is_open
            if enabled != a.is_enabled:
                flipped.append((idx, enabled))
        self.last_update = UpdateStats(len(affected), pulls, flips)
        return flipped

    def update_cost(self, chain, flipped, delta: int) -> None:
        anns = self.annotations
        nodes = self.hierarchy.nodes
        for idx, enabled in flipped:
            a = anns[idx]
            parent = nodes[idx].parent
            if parent is not None:
                anns[parent].n_enabled_below += a.n_area * (enabled - a.is_enabled)
            a.is_enabled = enabled
        for idx in chain:
            a = anns[idx]
            a.n_area += delta
            parent = nodes[idx].parent
            if parent is not None and a.is_enabled:
                anns[parent].n_enabled_below += delta
        affected_paths = set(chain)
        for idx, _ in flipped:
            walk = idx
            while walk is not None and walk not in affected_paths:
                affected_paths.add(walk)
                walk = nodes[walk].parent
        for idx in sorted(affected_paths):
            node = nodes[idx]
            a = anns[idx]
            cost = a.y
            if a.is_enabled:
                cost += (a.n_area - a.n_enabled_below) * node.unit_weight
            if cost != a.cost:
                if node.parent is not None:
                    anns[node.parent].y += cost - a.cost
                a.cost = cost


def build(instance, n=0) -> Hierarchy:
    return Hierarchy(instance, derive_parameters(instance, n))


def brute_balls(instance, hierarchy, p, cstar):
    """All node ids whose scaled ball contains p, by a full scan."""
    dist = instance.distance
    fp = instance.facility_point
    return sorted(
        node.idx
        for node in hierarchy.nodes
        if dist(p, fp(node.facility)) <= radius(cstar, node.r)
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
    fp = instance.facility_point
    params = hierarchy.params
    nodes = hierarchy.nodes

    # Separation within each level, and coverage of every facility.
    for r, members in hierarchy.level_sets.items():
        thr = radius(C1, r)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if dist(fp(members[a]), fp(members[b])) <= thr:
                    problems.append(f"level {r}: members {members[a]},{members[b]} too close")
        for fac in instance.facilities:
            if min(dist(fp(fac.id), fp(m)) for m in members) > thr:
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
                dist(p, fp(nodes[i].facility)) <= radius(C2, r)
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
                       key=lambda i: (dist(fp(fac.id), fp(nodes[i].facility)),
                                      nodes[i].facility))
            thr_x = radius(CX, r)
            for p in range(instance.n_points):
                if dist(p, fp(fac.id)) > radius(1, r):
                    continue
                e = entry(p, r)
                if e is None or dist(fp(nodes[host].facility),
                                     fp(nodes[e].facility)) > thr_x:
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
                        dist(p, fp(other.facility)) > radius(C3, node.r):
                    problems.append(f"x radius exceeded at node {other_idx}, point {p}")
                if node_idx in other.y_areas and \
                        dist(p, fp(other.facility)) > radius(C4, node.r):
                    problems.append(f"y radius exceeded at node {other_idx}, point {p}")

    # Distinct colors within the conflict radius.
    for r, ids in hierarchy.by_level.items():
        thr = radius(C4, r)
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                na, nb = nodes[ids[a]], nodes[ids[b]]
                if dist(fp(na.facility), fp(nb.facility)) <= thr and na.color == nb.color:
                    problems.append(f"level {r}: color clash {na.facility},{nb.facility}")

    # Designated facilities sit close and are genuinely the cheapest inside
    # the near neighborhood.
    facs = instance.facilities
    for node in nodes:
        if dist(fp(node.facility), fp(node.designated_facility)) > radius(C3, node.r):
            problems.append(f"designated facility too far at node {node.idx}")
        members = set(node.x_areas)
        eligible = [f for f in facs if entry(f.point, node.r) in members]
        best = min(eligible, key=lambda f: (f.opening_cost, f.id))
        if (best.opening_cost, best.id) != (node.designated_cost,
                                            node.designated_facility):
            problems.append(f"wrong designation at node {node.idx}")
        if node.designated_cost > facs[node.facility].opening_cost:
            problems.append(f"designated cost above own cost at node {node.idx}")

    return problems
