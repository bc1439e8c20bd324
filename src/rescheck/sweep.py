"""Cross-validation sweep: every solver against the oracle.

The exhaustive grid walks all access relations up to a size cap and
every policy over them; the randomized grid adds seeded coin-flip
instances at slightly larger sizes. For each cell the oracle fixes the
expected answer, then each solver that applies to the cell must agree.
Alongside answers the sweep re-checks every emitted witness, the
search-size guarantees of the dp and branching solvers, and the class
inequality that minimal blockers must satisfy (a minimal blocker that
touches a neighborhood class leaves fewer than d of its users behind,
otherwise a spare user could be kept instead).

One oracle pass per (relation, d, t) serves all removal budgets: the
oracle's blocker has minimum cardinality, so the instance at budget s
is UNSAT exactly when that cardinality is at most s. The same pass also
answers every non-oracle blocker check, through its memo of s=0
verdicts by survivor set; the oracle's own blocker is checked without
that memo, independently of the pass that found it.

Every solver runs under SweepConfig.limits. The first disagreement
ends the sweep: the report holds it alone, and its counts stop there.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar, Iterator, NoReturn

from .blockers import STRATEGIES, outside_domain
from .generators import _pick_index, random_masks
from .oracle import solve_rcp_bruteforce
from .policy import (
    DEFAULT_LIMITS,
    SAT,
    UNSAT,
    BlockerSet,
    Instance,
    Limits,
    TeamSet,
    Verdict,
    class_partition,
    verify_witness,
)


@dataclass(frozen=True)
class SweepConfig:
    """The sweep's grid. Every field but random_max_n and random_max_p
    is a `rescheck sweep` flag (max_n is --max-n) with the field's
    default, and its metadata["help"], if any, is the flag's help text."""

    max_n: int = 5
    max_p: int = 3
    max_s: int = 2
    max_d: int = 2
    max_t: int = 3  # finite team sizes 1..max_t; the unbounded case is always included
    seeds: int = field(
        default=1000, metadata={"help": "random instances after the grid (0: none)"}
    )
    random_max_n: int = 10
    random_max_p: int = 4
    # Not a field: every sweep runs its solvers under the default
    # budgets. perfbench/run.py records it with each sweep workload run.
    limits: ClassVar[Limits] = DEFAULT_LIMITS

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class Disagreement:
    kind: str  # answer | witness | node-bound | minimal-blocker
    algorithm: str
    baseline: str
    expected: str
    got: str
    instance: Instance


@dataclass
class SweepReport:
    relations: int = 0
    families: int = 0
    cells: int = 0
    solver_runs: int = 0
    runs_by_algorithm: dict[str, int] = field(default_factory=dict)
    witnesses_checked: int = 0
    blockers_checked: int = 0
    disagreements: list[Disagreement] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.disagreements


def _blocker_class_gap(inst: Instance, blocker: BlockerSet) -> str | None:
    """Return a complaint when a minimal blocker leaves d or more users
    in a class it touches, None when the inequality holds everywhere."""
    removed = blocker.users
    for mask, members in class_partition(inst).items():
        touched = [u for u in members if u in removed]
        if touched and len(members) - len(touched) >= inst.d:
            return (
                f"blocker touches class {mask:#b} but leaves "
                f"{len(members) - len(touched)} users, d={inst.d}"
            )
    return None


class _Stop(Exception):
    """Raised by _Runner.flag: the first disagreement ends the sweep."""


class _Runner:
    def __init__(self, report: SweepReport):
        self.report = report

    def flag(self, **kwargs) -> NoReturn:
        self.report.disagreements.append(Disagreement(**kwargs))
        raise _Stop

    def check_witness(
        self,
        inst: Instance,
        verdict: Verdict,
        name: str,
        s0_memo: dict[int, Verdict] | None = None,
    ) -> None:
        if verdict.witness is None:
            return
        self.report.witnesses_checked += 1
        if not verify_witness(inst, verdict, s0_memo=s0_memo):
            got = "teams" if isinstance(verdict.witness, TeamSet) else "blocker"
            self.flag(
                kind="witness",
                algorithm=name,
                baseline="verify_witness",
                expected="valid witness",
                got=f"invalid {got}",
                instance=inst,
            )

    def check_bounds(self, inst: Instance, verdict: Verdict, name: str) -> None:
        d, p, t, n, s = inst.d, inst.num_resources, int(inst.t), inst.n, inst.s
        if name == "branch":
            cap = sum((d * t) ** i for i in range(s + 1))
        elif name == "dp":
            cap = n * 2 ** (d * p) * (t + 1) ** d
        else:
            return
        if verdict.stats.nodes > cap:
            self.flag(
                kind="node-bound",
                algorithm=name,
                baseline="analysis",
                expected=f"nodes <= {cap}",
                got=str(verdict.stats.nodes),
                instance=inst,
            )

    def run_cell(self, inst: Instance, expected: str, memo: dict[int, Verdict]) -> None:
        self.report.cells += 1
        for name in STRATEGIES:
            if name == "oracle" or outside_domain(inst, name) is not None:
                continue
            verdict = STRATEGIES[name](inst, SweepConfig.limits)
            self.report.solver_runs += 1
            self.report.runs_by_algorithm[name] = (
                self.report.runs_by_algorithm.get(name, 0) + 1
            )
            if verdict.answer != expected:
                self.flag(
                    kind="answer",
                    algorithm=name,
                    baseline="oracle",
                    expected=expected,
                    got=verdict.answer,
                    instance=inst,
                )
            self.check_witness(inst, verdict, name, memo)
            self.check_bounds(inst, verdict, name)

    def run_family(self, base: Instance) -> None:
        """One relation with fixed d and t, all removal budgets 0..s."""
        self.report.families += 1
        memo: dict[int, Verdict] = {}
        overall = solve_rcp_bruteforce(base, s0_memo=memo)
        if overall.sat:
            blocker_size = base.s + 1
            blocker = None
        else:
            assert isinstance(overall.witness, BlockerSet)
            blocker = overall.witness
            blocker_size = len(blocker.users)

        if blocker is not None:
            # Minimum cardinality implies inclusion-minimality.
            self.report.blockers_checked += 1
            complaint = _blocker_class_gap(base, blocker)
            if complaint is not None:
                self.flag(
                    kind="minimal-blocker",
                    algorithm="oracle",
                    baseline="class-inequality",
                    expected="|class \\ S| < d for touched classes",
                    got=complaint,
                    instance=base,
                )

        for s in range(base.s + 1):
            inst = replace(base, s=s)
            expected = UNSAT if blocker_size <= s else SAT
            # The oracle's own witnesses go through the same check, without
            # the memo that produced them.
            if expected == UNSAT and s == blocker_size:
                self.check_witness(inst, Verdict(UNSAT, blocker, overall.stats), "oracle")
            if expected == SAT and s == 0:
                self.check_witness(inst, memo[(1 << base.n) - 1], "oracle")
            self.run_cell(inst, expected, memo)


def _team_sizes(config: SweepConfig, p: int) -> list[int]:
    sizes = {min(t, p) for t in range(1, config.max_t + 1)}
    sizes.add(p)  # the unbounded case, normalized
    return sorted(sizes)


def _relations(config: SweepConfig, progress) -> Iterator[list[Instance]]:
    """Each relation of both grids, as the families run on it."""
    for n in range(1, config.max_n + 1):
        for p in range(1, config.max_p + 1):
            if progress is not None:
                progress(f"exhaustive n={n} p={p}: {2 ** (n * p)} relations")
            full = (1 << p) - 1
            for bits in range(2 ** (n * p)):
                access = tuple((bits >> (u * p)) & full for u in range(n))
                yield [
                    Instance(access, p, full, s=config.max_s, d=d, t=t)
                    for d in range(1, config.max_d + 1)
                    for t in _team_sizes(config, p)
                ]

    for seed in range(config.seeds):
        if progress is not None and seed % 200 == 0:
            progress(f"random instances: {seed}/{config.seeds}")
        yield [_random_cell(config, seed)]


def run_sweep(config: SweepConfig = SweepConfig(), *, progress=None) -> SweepReport:
    """Run both grids up to the first disagreement, which the report
    then holds as a bug witness."""
    report = SweepReport()
    runner = _Runner(report)
    start = time.perf_counter()
    try:
        for families in _relations(config, progress):
            report.relations += 1
            for base in families:
                runner.run_family(base)
    except _Stop:
        pass
    report.seconds = time.perf_counter() - start
    return report


def _random_cell(config: SweepConfig, seed: int) -> Instance:
    rng = random.Random(seed)
    n = 1 + _pick_index(rng, config.random_max_n)
    p = 1 + _pick_index(rng, config.random_max_p)
    density = 0.15 + 0.7 * rng.random()
    access = random_masks(rng, n, p, density)
    d = 1 + _pick_index(rng, config.max_d)
    choice = _pick_index(rng, config.max_t + 1)
    t = p if choice == config.max_t else min(choice + 1, p)
    return Instance(
        access=tuple(access),
        num_resources=p,
        target=(1 << p) - 1,
        s=config.max_s,
        d=d,
        t=t,
    )
