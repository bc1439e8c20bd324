"""Instance generators with known ground truth, plus random instances.

Each generator reduces a well-studied source problem to a resiliency
instance and records the expected answer by brute-forcing the source
problem directly. The source brute-forcers live here and share nothing
with the resiliency oracle, so a generated expectation and an oracle
verdict are two independent computations of the same fact.

Families:

* hitting-set: d=1, t=delta+1, s=k. Blockers correspond to hitting
  sets, so the instance is UNSAT exactly when a hitting set of size
  at most k exists.
* 3dm: d=k, s=0, t=4. Team sets correspond to k pairwise disjoint
  hyperedges.
* domatic: d=k, s=0, t unbounded. Teams are disjoint dominating sets
  of the graph.
* set-cover: d=1, s=0, t=k. A team is a cover of the universe by at
  most k sets.
* random: independent coin flips, no known answer.

Determinism: samplers take an integer seed, use random.Random, and
draw exclusively via .random(), so identical seeds give identical
instances on any platform or Python version.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Any, Sequence

from .policy import INF, SAT, UNSAT, BudgetError, Instance

EXPECTED_UNKNOWN = "unknown"


@dataclass(frozen=True)
class GeneratedInstance:
    instance: Instance
    expected: str
    provenance: dict[str, Any]
    seed: int | None = None

    def provenance_block(self) -> dict[str, Any]:
        """Provenance dict for an instance file, expected answer included."""
        block = dict(self.provenance)
        block["expected"] = self.expected
        if self.seed is not None:
            block["seed"] = self.seed
        return block


# ---------------------------------------------------------------------------
# Source-problem brute force. Independent of the resiliency oracle on
# purpose: agreement between the two is a meaningful check.


def hitting_set_exists(num_elements: int, sets: Sequence[Sequence[int]], k: int) -> bool:
    """Is there C with |C| <= k meeting every given set? Elements are 0-based."""
    masks = [sum(1 << v for v in group) for group in sets]
    for size in range(min(k, num_elements) + 1):
        for combo in combinations(range(num_elements), size):
            chosen = sum(1 << v for v in combo)
            if all(m & chosen for m in masks):
                return True
    return False


def disjoint_triples_exist(edges: Sequence[tuple[int, int, int]], k: int) -> bool:
    """Are there k hyperedges pairwise distinct in every coordinate?"""
    for combo in combinations(range(len(edges)), k):
        ok = True
        for a, b in combinations(combo, 2):
            if any(edges[a][axis] == edges[b][axis] for axis in range(3)):
                ok = False
                break
        if ok:
            return True
    return False


def disjoint_dominating_sets_exist(closed: Sequence[int], k: int) -> bool:
    """Do k pairwise disjoint dominating sets exist? closed[v] is the
    closed-neighborhood mask of vertex v."""
    n = len(closed)
    full = (1 << n) - 1
    # Color 0 leaves a vertex out of every set.
    for colors in product(range(k + 1), repeat=n):
        covered = [0] * (k + 1)
        for v, c in enumerate(colors):
            if c:
                covered[c] |= closed[v]
        if all(covered[c] == full for c in range(1, k + 1)):
            return True
    return False


def set_cover_exists(universe_size: int, sets: Sequence[int], k: int) -> bool:
    """Can at most k of the given sets (as masks) cover the universe?"""
    full = (1 << universe_size) - 1
    for size in range(min(k, len(sets)) + 1):
        for combo in combinations(range(len(sets)), size):
            union = 0
            for i in combo:
                union |= sets[i]
            if union == full:
                return True
    return False


# ---------------------------------------------------------------------------
# Reductions.


def _unique_labels(labels: Sequence[str], what: str) -> None:
    if len(set(labels)) != len(labels):
        raise ValueError(f"{what} labels collide; pick distinct names")


def from_hitting_set(
    elements: Sequence[str],
    sets: Sequence[Sequence[str]],
    k: int,
    *,
    max_resources: int = 4096,
) -> GeneratedInstance:
    """Reduce a delta-uniform hitting-set question to a resiliency check.

    One user per element and one per set. Every set gets a private run
    of per-position resources only its members can reach; one gap
    resource per (delta-1)-subset of element users keeps teams from
    using fewer than delta element users; a shared anchor resource is
    reachable only by set users. With t = delta+1 the only teams are
    "the members of one set, plus that set's user", so removing users
    to kill every team is exactly hitting every set: the instance is
    UNSAT iff a hitting set of size <= k exists.
    """
    elements = [str(e) for e in elements]
    _unique_labels(elements, "element")
    if not sets:
        raise ValueError("need at least one set")
    delta = len(sets[0])
    if delta < 2:
        raise ValueError("sets must have at least two elements")
    if k < 0:
        raise ValueError("k must be nonnegative")
    elem_idx = {e: i for i, e in enumerate(elements)}
    sets_idx: list[tuple[int, ...]] = []
    for j, group in enumerate(sets):
        members = [str(v) for v in group]
        if len(members) != delta:
            raise ValueError(f"set {j} has {len(members)} elements, expected {delta}")
        if len(set(members)) != delta:
            raise ValueError(f"set {j} repeats an element")
        try:
            sets_idx.append(tuple(elem_idx[v] for v in members))
        except KeyError as missing:
            raise ValueError(f"set {j} names unknown element {missing}") from None

    n, m = len(elements), len(sets)
    num_gaps = comb(n, delta - 1)
    total = delta * m + num_gaps + 1
    if total > max_resources:
        raise BudgetError(f"construction needs {total} resources, cap is {max_resources}")

    res_labels: list[str] = []
    for j in range(m):
        for x in range(delta):
            res_labels.append(f"pos:{j + 1}:{x + 1}")
    gap_groups = list(combinations(range(n), delta - 1))
    for group in gap_groups:
        res_labels.append("gap:" + "+".join(elements[i] for i in group))
    res_labels.append("anchor")
    _unique_labels(res_labels, "resource")
    gap_base = delta * m
    anchor_bit = 1 << (total - 1)

    access: list[int] = []
    user_labels: list[str] = []
    for i in range(n):
        mask = 0
        for j, group in enumerate(sets_idx):
            for x, v in enumerate(group):
                if v == i:
                    mask |= 1 << (j * delta + x)
        for g, group in enumerate(gap_groups):
            if i not in group:
                mask |= 1 << (gap_base + g)
        access.append(mask)
        user_labels.append(f"u:{elements[i]}")
    all_pos = (1 << (delta * m)) - 1
    for j in range(m):
        own = ((1 << delta) - 1) << (j * delta)
        access.append(anchor_bit | (all_pos & ~own))
        user_labels.append(f"set:{j + 1}")

    instance = Instance(
        access=tuple(access),
        num_resources=total,
        target=(1 << total) - 1,
        s=k,
        d=1,
        t=delta + 1,
        user_labels=tuple(user_labels),
        resource_labels=tuple(res_labels),
    )
    expected = UNSAT if hitting_set_exists(n, sets_idx, k) else SAT
    provenance = {
        "family": "hitting-set",
        "elements": list(elements),
        "sets": [list(map(str, group)) for group in sets],
        "k": k,
        "delta": delta,
    }
    return GeneratedInstance(instance, expected, provenance)


def from_3dm(
    x_elements: Sequence[str],
    y_elements: Sequence[str],
    z_elements: Sequence[str],
    edges: Sequence[tuple[str, str, str]],
    k: int,
) -> GeneratedInstance:
    """Reduce three-dimensional matching to a resiliency check.

    Per hyperedge, three private resources mark its X, Y, and Z slots;
    one axis resource per coordinate forces every team to include a
    user from each axis; a star resource forces one edge user. With
    t=4 a team must be the three endpoint users of some hyperedge plus
    that edge's user, so d=k teams exist iff k pairwise disjoint
    hyperedges do.
    """
    xs, ys, zs = [list(map(str, g)) for g in (x_elements, y_elements, z_elements)]
    for axis in (xs, ys, zs):
        _unique_labels(axis, "axis element")
    if not (len(xs) == len(ys) == len(zs)):
        raise ValueError("axes must have equal sizes")
    if k < 1:
        raise ValueError("k must be at least 1")
    x_idx = {v: i for i, v in enumerate(xs)}
    y_idx = {v: i for i, v in enumerate(ys)}
    z_idx = {v: i for i, v in enumerate(zs)}
    edges_idx: list[tuple[int, int, int]] = []
    for j, (a, b, c) in enumerate(edges):
        try:
            triple = (x_idx[str(a)], y_idx[str(b)], z_idx[str(c)])
        except KeyError as missing:
            raise ValueError(f"edge {j} names unknown element {missing}") from None
        if triple in edges_idx:
            raise ValueError(f"edge {j} duplicates an earlier hyperedge")
        edges_idx.append(triple)

    n, m = len(xs), len(edges_idx)
    # Resource layout: per-edge X slots, Y slots, Z slots, then the
    # three axis resources and the star.
    res_labels = (
        [f"rX:{j + 1}" for j in range(m)]
        + [f"rY:{j + 1}" for j in range(m)]
        + [f"rZ:{j + 1}" for j in range(m)]
        + ["axisX", "axisY", "axisZ", "star"]
    )
    total = 3 * m + 4
    axis_x, axis_y, axis_z, star = (1 << (3 * m + i) for i in range(4))

    access: list[int] = []
    user_labels: list[str] = []
    for axis, names, idx_of, base, axis_bit in (
        ("x", xs, 0, 0, axis_x),
        ("y", ys, 1, m, axis_y),
        ("z", zs, 2, 2 * m, axis_z),
    ):
        for i, name in enumerate(names):
            mask = axis_bit
            for j, triple in enumerate(edges_idx):
                if triple[idx_of] == i:
                    mask |= 1 << (base + j)
            access.append(mask)
            user_labels.append(f"{axis}:{name}")
    slot_all = (1 << (3 * m)) - 1
    for j in range(m):
        own = (1 << j) | (1 << (m + j)) | (1 << (2 * m + j))
        access.append(star | (slot_all & ~own))
        user_labels.append(f"edge:{j + 1}")

    instance = Instance(
        access=tuple(access),
        num_resources=total,
        target=(1 << total) - 1,
        s=0,
        d=k,
        t=4,
        user_labels=tuple(user_labels),
        resource_labels=tuple(res_labels),
    )
    expected = SAT if disjoint_triples_exist(edges_idx, k) else UNSAT
    provenance = {
        "family": "3dm",
        "x": xs,
        "y": ys,
        "z": zs,
        "edges": [[xs[a], ys[b], zs[c]] for a, b, c in edges_idx],
        "k": k,
    }
    return GeneratedInstance(instance, expected, provenance)


def from_domatic(
    vertices: Sequence[str], edges: Sequence[tuple[str, str]], k: int
) -> GeneratedInstance:
    """Ask for k disjoint dominating sets of a graph as a resiliency check.

    Users and resources are both the vertices; a user reaches its
    closed neighborhood. A team covering every vertex's resource is a
    dominating set, so d=k teams with unbounded size exist iff the
    graph has k pairwise disjoint dominating sets.
    """
    names = [str(v) for v in vertices]
    _unique_labels(names, "vertex")
    if k < 1:
        raise ValueError("k must be at least 1")
    idx = {v: i for i, v in enumerate(names)}
    n = len(names)
    closed = [1 << i for i in range(n)]
    for j, (a, b) in enumerate(edges):
        a, b = str(a), str(b)
        if a not in idx or b not in idx:
            raise ValueError(f"edge {j} names an unknown vertex")
        if a == b:
            raise ValueError(f"edge {j} is a self-loop")
        closed[idx[a]] |= 1 << idx[b]
        closed[idx[b]] |= 1 << idx[a]

    instance = Instance(
        access=tuple(closed),
        num_resources=n,
        target=(1 << n) - 1,
        s=0,
        d=k,
        t=INF,
        user_labels=tuple(names),
        resource_labels=tuple(names),
    )
    expected = SAT if disjoint_dominating_sets_exist(closed, k) else UNSAT
    provenance = {
        "family": "domatic",
        "vertices": names,
        "edges": [[str(a), str(b)] for a, b in edges],
        "k": k,
    }
    return GeneratedInstance(instance, expected, provenance)


def from_set_cover(
    universe: Sequence[str], sets: Sequence[Sequence[str]], k: int
) -> GeneratedInstance:
    """Ask whether k of the given sets cover the universe.

    One user per set, reaching exactly its members; a single team of
    at most t=k users covering the whole universe is a set cover.
    """
    ground = [str(e) for e in universe]
    _unique_labels(ground, "universe element")
    if k < 1:
        raise ValueError("k must be at least 1")
    idx = {e: i for i, e in enumerate(ground)}
    masks: list[int] = []
    for j, group in enumerate(sets):
        members = [str(e) for e in group]
        if len(set(members)) != len(members):
            raise ValueError(f"set {j} repeats an element")
        mask = 0
        for e in members:
            if e not in idx:
                raise ValueError(f"set {j} names unknown element {e!r}")
            mask |= 1 << idx[e]
        masks.append(mask)

    instance = Instance(
        access=tuple(masks),
        num_resources=len(ground),
        target=(1 << len(ground)) - 1,
        s=0,
        d=1,
        t=k,
        user_labels=tuple(f"set:{j + 1}" for j in range(len(masks))),
        resource_labels=tuple(ground),
    )
    expected = SAT if set_cover_exists(len(ground), masks, k) else UNSAT
    provenance = {
        "family": "set-cover",
        "universe": ground,
        "sets": [list(map(str, group)) for group in sets],
        "k": k,
    }
    return GeneratedInstance(instance, expected, provenance)


def random_masks(rng: random.Random, n: int, m: int, density: float) -> list[int]:
    """n access masks over m resources, each bit set by one rng.random()
    draw below density, drawn user by user and resource by resource."""
    masks = []
    for _ in range(n):
        mask = 0
        for r in range(m):
            if rng.random() < density:
                mask |= 1 << r
        masks.append(mask)
    return masks


def random_instance(
    seed: int,
    n: int,
    m: int,
    density: float,
    s: int = 0,
    d: int = 1,
    t: int | float = INF,
) -> GeneratedInstance:
    """Independent coin-flip relation; every resource is a target."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if n < 0 or m < 0:
        raise ValueError("sizes must be nonnegative")
    access = random_masks(random.Random(seed), n, m, density)
    instance = Instance(
        access=tuple(access), num_resources=m, target=(1 << m) - 1, s=s, d=d, t=t
    )
    provenance = {
        "family": "random",
        "n": n,
        "m": m,
        "density": density,
        "s": s,
        "d": d,
        "t": "inf" if t == INF else int(t),
    }
    return GeneratedInstance(instance, EXPECTED_UNKNOWN, provenance, seed=seed)


# ---------------------------------------------------------------------------
# Seeded source samplers. Used by the CLI and the test harness to draw
# source problems; all randomness flows through Random.random() so the
# stream is stable across Python versions.


def _pick_index(rng: random.Random, size: int) -> int:
    return int(rng.random() * size)


def _sample_distinct(rng: random.Random, items: Sequence[str], count: int) -> list[str]:
    pool = list(items)
    out = []
    for _ in range(count):
        out.append(pool.pop(_pick_index(rng, len(pool))))
    return out


def sample_hitting_set(
    seed: int, num_elements: int, num_sets: int, delta: int
) -> tuple[list[str], list[tuple[str, ...]]]:
    if delta < 2 or num_elements < delta or num_sets < 1:
        raise ValueError("need delta >= 2, at least delta elements, and one set")
    rng = random.Random(seed)
    elements = [f"v{i + 1}" for i in range(num_elements)]
    sets = [tuple(_sample_distinct(rng, elements, delta)) for _ in range(num_sets)]
    return elements, sets


def sample_3dm(
    seed: int, n: int, m: int
) -> tuple[list[str], list[str], list[str], list[tuple[str, str, str]]]:
    if n < 1 or not 0 <= m <= n**3:
        raise ValueError("need n >= 1 and 0 <= m <= n^3")
    rng = random.Random(seed)
    xs = [f"x{i + 1}" for i in range(n)]
    ys = [f"y{i + 1}" for i in range(n)]
    zs = [f"z{i + 1}" for i in range(n)]
    seen: set[tuple[int, int, int]] = set()
    edges: list[tuple[str, str, str]] = []
    while len(edges) < m:
        triple = tuple(_pick_index(rng, n) for _ in range(3))
        if triple in seen:
            continue
        seen.add(triple)
        edges.append((xs[triple[0]], ys[triple[1]], zs[triple[2]]))
    return xs, ys, zs, edges


def sample_graph(
    seed: int, n: int, edge_probability: float
) -> tuple[list[str], list[tuple[str, str]]]:
    if n < 1 or not 0.0 <= edge_probability <= 1.0:
        raise ValueError("need n >= 1 and a probability in [0, 1]")
    rng = random.Random(seed)
    vertices = [f"v{i + 1}" for i in range(n)]
    edges = [
        (vertices[i], vertices[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_probability
    ]
    return vertices, edges


def sample_set_cover(
    seed: int, universe_size: int, num_sets: int, density: float
) -> tuple[list[str], list[tuple[str, ...]]]:
    if universe_size < 1 or num_sets < 1 or not 0.0 <= density <= 1.0:
        raise ValueError("need a nonempty universe, one set, and a density in [0, 1]")
    rng = random.Random(seed)
    universe = [f"e{i + 1}" for i in range(universe_size)]
    sets = [
        tuple(e for e in universe if rng.random() < density) for _ in range(num_sets)
    ]
    return universe, sets
