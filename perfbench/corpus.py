"""Seeded instance corpora for the two solve workloads.

A corpus is a list of strata (``Shape``). Each stratum names a
generator family, how many instances of it the corpus holds, the
parameter ranges drawn per instance and the one-line reason it is
there. The instances themselves come from the fixed ``BASE_SEED``, as
the fixed seeded corpora of the roadmap do; the workload seed then
renumbers every instance's resources at random (run.py also draws the
request order from it). Each seed so gives an isomorphic copy of the
same corpus: answers, routes and known failures stay put, while the
class-mask orders of the ilp and reduced searches change. Fresh random
instances per seed, or shuffled users, vary a request's solve time by
3 to 20 times from seed to seed and would drown any change under test.
A stratum whose times still move that much with the resource order
keeps its base order (``renumbered=False``).

Instances are written as the JSON files ``rescheck generate`` would
write, provenance (and so the expected answer) included. The program
under test only ever sees these files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from rescheck import generators as gen
from rescheck.policy import INF, Instance
from rescheck.serialize import emit_instance


@dataclass(frozen=True)
class Shape:
    name: str
    family: str  # random | hitting-set | 3dm | domatic | set-cover
    count: int
    params: dict
    why: str
    known_failure: str = ""  # "timeout" or "budget_error" where today's code gives no verdict
    renumbered: bool = True  # False: the same resource order under every seed


def _draw(rng: random.Random, spec):
    """A parameter value: a constant, a choice from a list, or a value
    from an inclusive (lo, hi) range, integer or float by lo's type."""
    if isinstance(spec, list):
        return spec[int(rng.random() * len(spec))]
    if isinstance(spec, tuple):
        lo, hi = spec
        if isinstance(lo, float):
            return lo + (hi - lo) * rng.random()
        return lo + int(rng.random() * (hi - lo + 1))
    return spec


S0_SHAPES = (
    Shape("domatic", "domatic", 24,
          {"vertices": (6, 8), "edge_prob": (0.35, 0.65), "k": [2, 2, 3]},
          "disjoint dominating sets, t unbounded, known answer; dp route"),
    Shape("set-cover-dp", "set-cover", 24,
          {"universe": (10, 16), "num_sets": (14, 28), "density": (0.15, 0.3), "k": (2, 4)},
          "single bounded team, known answer; dp route with d = 1"),
    Shape("set-cover-oracle", "set-cover", 8,
          {"universe": (26, 30), "num_sets": (12, 16), "density": (0.2, 0.3), "k": (3, 4)},
          "|P| > 24 with at most 20 users: s = 0 oracle route"),
    Shape("3dm-dp", "3dm", 12,
          {"size": (2, 3), "edges": (3, 6), "k": 1},
          "3dm with k = 1, known answer; dp route"),
    Shape("3dm-oracle", "3dm", 8,
          {"size": (2, 3), "edges": (3, 5), "k": 2},
          "3dm with k = 2 and at most 20 users: oracle route, known answer"),
    Shape("3dm-over-guard", "3dm", 3,
          {"size": 4, "edges": (9, 10), "k": 2},
          "3dm with more than 20 users: BudgetError today, kept as a known failure",
          known_failure="budget_error"),
    Shape("random-fastpath", "random",  16,
          {"n": (300, 500), "m": (6, 10), "density": (0.2, 0.35), "s": 0, "d": 1, "t": "inf"},
          "d = 1, t unbounded: coverage-count fastpath"),
    Shape("random-d1-dp", "random", 12,
          {"n": (300, 500), "m": (9, 10), "density": (0.2, 0.3), "s": 0, "d": 1, "t": [3, 4]},
          "d = 1 with bounded t and p up to 10: dp over 2^p states"),
    Shape("random-dp", "random", 40,
          {"n": (300, 500), "m": (6, 7), "density": (0.3, 0.4), "s": 0, "d": 2, "t": 3},
          "large random s = 0, d*p <= 24: one big dp call, sets the p90"),
    Shape("random-ilp", "random", 16,
          {"n": (100, 300), "m": 5, "density": (0.3, 0.4), "s": 0, "d": (5, 6), "t": 2},
          "large random s = 0, d*p > 24: ilp route"),
)

RESILIENCE_SHAPES = (
    Shape("random-small", "random", 36,
          {"n": (12, 20), "m": (4, 5), "density": (0.3, 0.5), "s": (1, 2), "d": 2, "t": [2, 3]},
          "n <= 20 so the oracle is the reference; many UNSAT blockers to verify"),
    Shape("random-mid", "random", 20,
          {"n": (40, 60), "m": 5, "density": (0.35, 0.45), "s": 1, "d": 2, "t": 3},
          "mid-size branch+dp, s = 1: a few dozen inner dp calls"),
    Shape("random-wide", "random", 12,
          {"n": (80, 120), "m": 4, "density": (0.35, 0.45), "s": 2, "d": 2, "t": "inf"},
          "s = 2 branch+dp, t unbounded"),
    Shape("random-500", "random", 4,
          {"n": 500, "m": 4, "density": (0.3, 0.4), "s": 2, "d": 2, "t": 3},
          "n = 500: restrict and inner dp on large sub-instances"),
    Shape("branch-beats-reduced", "random", 4,
          {"n": (90, 110), "m": 6, "density": (0.3, 0.4), "s": 1, "d": 2, "t": 3},
          "p = 6 stand-in for the n=100, p=8 scale row, which is past the limit: branch beats reduced"),
    Shape("reduced-beats-branch", "random", 3,
          {"n": (400, 500), "m": 4, "density": (0.25, 0.35), "s": 3, "d": 2, "t": "inf"},
          "decided stand-in for the n=1000, p=6, d=3 row: auto takes branch although reduced is far faster"),
    Shape("router-reduced-ilp", "random", 6,
          {"n": (30, 40), "m": 7, "density": (0.35, 0.45), "s": 1, "d": 4, "t": 2},
          "d*p > 24: auto routes to reduced+ilp, the other side of the threshold; base resource "
          "order, as the ilp search's time moves up to 5 times with it (17-126 ms for one instance)",
          renumbered=False),
    Shape("hitting-set-dp", "hitting-set", 40,
          {"elements": (5, 6), "num_sets": (4, 6), "set_size": 2, "k": (1, 2)},
          "hitting-set reduction, known answer, |P| <= 24: branch+dp"),
    Shape("hitting-set-oracle", "hitting-set", 4,
          {"elements": (7, 8), "num_sets": (9, 10), "set_size": 2, "k": (1, 2)},
          "hitting-set with |P| > 24 and at most 20 users: oracle route"),
    Shape("hitting-set-over-guard", "hitting-set", 3,
          {"elements": 12, "num_sets": (9, 10), "set_size": 2, "k": 2},
          "hitting-set above the oracle guard: BudgetError today, kept as a known failure",
          known_failure="budget_error"),
    Shape("random-1000", "random", 16,
          {"n": (800, 1200), "m": 4, "density": (0.3, 0.4), "s": 2, "d": 2, "t": 3},
          "n ~ 1000, s = 2: restrict and dp on large sub-instances, a dense band around the p90"),
    Shape("d3-decided", "random", 1,
          {"seed": 3, "n": 30, "m": 4, "density": 0.4, "s": 1, "d": 3, "t": 3},
          "d = 3 that gets a verdict (d*p = 12): branch+dp looking for three disjoint teams"),
    Shape("p8-decided", "random", 1,
          {"seed": 2, "n": 24, "m": 8, "density": 0.4, "s": 1, "d": 2, "t": 3},
          "random p = 8 that gets a verdict (d*p = 16, branch+dp); the p = 8 scale row times out"),
    Shape("scale-n2000-p5", "random", 1,
          {"seed": 1, "n": 2000, "m": 5, "density": 0.35, "s": 3, "d": 2, "t": "inf"},
          "roadmap scale row n=2000, p=5, s=3, t unbounded: auto takes branch (~0.3 s), reduced needs ~0.002 s"),
    Shape("scale-n100-p8", "random", 1,
          {"seed": 1, "n": 100, "m": 8, "density": 0.35, "s": 2, "d": 2, "t": 3},
          "roadmap scale row n=100, p=8, d=2: branch beats reduced but needs ~3 s, so a known timeout",
          known_failure="timeout"),
    Shape("d3p6-200", "random", 1,
          {"seed": 1, "n": 200, "m": 6, "density": 0.35, "s": 2, "d": 3, "t": 3},
          "roadmap scale row n=200, p=6, d=3: runs past 45 s today, kept as a known timeout",
          known_failure="timeout"),
    Shape("d3p6-1000", "random", 1,
          {"seed": 1, "n": 1000, "m": 6, "density": 0.35, "s": 2, "d": 3, "t": 3},
          "roadmap scale row n=1000, p=6, d=3: auto (branch) runs past 45 s, reduced 2.4 s; a known timeout",
          known_failure="timeout"),
)

CORPORA = {"solve-s0": S0_SHAPES, "solve-resilience": RESILIENCE_SHAPES}
BASE_SEED = 1


def _generate(shape: Shape, rng: random.Random) -> gen.GeneratedInstance:
    p = {key: _draw(rng, spec) for key, spec in shape.params.items()}
    seed = int(rng.random() * 2**31)
    seed = p.get("seed", seed)
    if shape.family == "random":
        t = INF if p["t"] == "inf" else p["t"]
        return gen.random_instance(
            seed, p["n"], p["m"], round(p["density"], 3), s=p["s"], d=p["d"], t=t
        )
    if shape.family == "hitting-set":
        elements, sets = gen.sample_hitting_set(
            seed, p["elements"], p["num_sets"], p["set_size"]
        )
        result = gen.from_hitting_set(elements, sets, p["k"])
    elif shape.family == "3dm":
        xs, ys, zs, edges = gen.sample_3dm(seed, p["size"], p["edges"])
        result = gen.from_3dm(xs, ys, zs, edges, p["k"])
    elif shape.family == "domatic":
        vertices, edges = gen.sample_graph(seed, p["vertices"], round(p["edge_prob"], 3))
        result = gen.from_domatic(vertices, edges, p["k"])
    elif shape.family == "set-cover":
        universe, sets = gen.sample_set_cover(
            seed, p["universe"], p["num_sets"], round(p["density"], 3)
        )
        result = gen.from_set_cover(universe, sets, p["k"])
    else:
        raise ValueError(f"unknown family {shape.family!r}")
    return gen.GeneratedInstance(result.instance, result.expected, result.provenance, seed)


def renumber(inst: Instance, rng: random.Random) -> Instance:
    """An isomorphic copy with the resources in a random order, each
    keeping its label, so provenance and expected answers still hold.
    Users keep their order: the dp and oracle searches walk users in
    index order, so a user shuffle would change how far they search
    before the first witness, by up to an order of magnitude."""
    resources = list(range(inst.num_resources))
    rng.shuffle(resources)
    position = {old: new for new, old in enumerate(resources)}

    def remap(mask: int) -> int:
        return sum(1 << position[r] for r in range(inst.num_resources) if mask >> r & 1)

    return Instance(
        access=tuple(remap(mask) for mask in inst.access),
        num_resources=inst.num_resources,
        target=remap(inst.target),
        s=inst.s,
        d=inst.d,
        t=inst.t,
        user_labels=inst.user_labels,
        resource_labels=tuple(inst.resource_labels[r] for r in resources),
    )


def write_corpus(workload: str, seed: int, out: Path) -> list[tuple[Path, Shape, str]]:
    """Generate the workload's corpus into ``out``.

    Returns (file, stratum, expected answer) per instance, in file-name
    order; the expected answer is "unknown" for random instances.
    """
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    index = 0
    order = random.Random(seed)
    for number, shape in enumerate(CORPORA[workload]):
        rng = random.Random(BASE_SEED * 1_000_003 + number)
        for _ in range(shape.count):
            made = _generate(shape, rng)
            inst = renumber(made.instance, order) if shape.renumbered else made.instance
            path = out / f"{index:03d}-{shape.name}.json"
            path.write_text(
                emit_instance(inst, provenance=made.provenance_block()), encoding="utf-8"
            )
            entries.append((path, shape, made.expected))
            index += 1
    return entries
