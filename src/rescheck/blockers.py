"""Solvers for the general query with a removal budget s > 0.

branch_solve searches over candidate removals guided by found team
sets; reduced_solve shrinks the user set to class representatives first
and enumerates how many representatives to delete per class;
fastpath_d1_tinf answers the single-team unbounded-size case by
counting coverage. solve() picks a route automatically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from . import oracle, teams
from .policy import (
    DEFAULT_LIMITS,
    SAT,
    UNSAT,
    BlockerSet,
    BudgetError,
    ClassPartition,
    Instance,
    Limits,
    PreconditionError,
    SolveStats,
    TeamSet,
    Verdict,
    class_partition,
    require_normalized,
    restrict,
)

S0Solver = Callable[[Instance], Verdict]


def _pick_s0(inst: Instance, limits: Limits) -> tuple[str, S0Solver]:
    if inst.d * inst.num_resources <= limits.dp_bits:
        return "dp", lambda sub: teams.dp_solve(sub, limits=limits)
    if (1 << inst.num_resources) <= limits.max_classes:
        return "ilp", lambda sub: teams.ilp_solve(sub, limits=limits)
    return "oracle-s0", lambda sub: oracle.solve_s0_bruteforce(
        sub, user_limit=limits.oracle_users
    )


def _mapped_teams(witness: TeamSet, kept: list[int]) -> TeamSet:
    # Sub-instance indices back to the caller's numbering.
    return TeamSet(tuple(frozenset(kept[i] for i in team) for team in witness.teams))


def branch_solve(
    inst: Instance,
    s0_solver: S0Solver | None = None,
    *,
    limits: Limits = DEFAULT_LIMITS,
    dedup: bool = True,
) -> Verdict:
    """Branching search for a blocker of size at most s.

    At every node, solve the zero-removal query on the surviving users.
    No team set means the removals so far are a blocker: UNSAT. If team
    sets survive every removal branch up to depth s, no blocker fits
    the budget on this path. Any blocker must hit the team set just
    found, so branching on its at most d*t members is exhaustive; that
    caps the tree at sum over i<=s of (d*t)^i nodes. Each removal set
    is explored once: the subtree outcome depends only on the set (its
    size fixes the remaining budget), so revisits along another
    branching order are answered from a cache.

    The zero-removal answer depends only on how many survivors each
    neighborhood class keeps, capped at d, so the inner solver sees only
    the first min(|class|, d) survivors of every occupied class, in
    ascending index, and its teams are mapped back to the caller's
    numbering. The dp and ilp inner solvers never pick a user outside
    that set, so their teams, and with them the branching order, are
    the ones they would find on all survivors. Nodes with no budget
    left read only the inner answer, which is cached by that capped
    count vector across the whole search.
    """
    require_normalized(inst)
    start = time.perf_counter()
    inner_name = "custom"
    if s0_solver is None:
        inner_name, s0_solver = _pick_s0(inst, limits)
    stats = SolveStats(algorithm=f"branch+{inner_name}")
    n, d = inst.n, inst.d
    # At most s removals, so the first d survivors of a class are among
    # its first d + s members; class 0 users appear in no useful team.
    seen: dict[int, int] = {}
    candidates: list[tuple[int, int]] = []
    for u, mask in enumerate(inst.access):
        listed = seen.get(mask, 0)
        if mask and listed < d + inst.s:
            seen[mask] = listed + 1
            candidates.append((u, mask))
    root_teams: list[TeamSet | None] = [None]
    outcomes: dict[int, Verdict | None] = {}
    answers: dict[tuple[int, ...], bool] = {}

    def node(removed_mask: int, budget: int) -> Verdict | None:
        # None means: no blocker extends this removal set within budget.
        stats.nodes += 1
        if dedup and removed_mask in outcomes:
            return outcomes[removed_mask]
        kept: list[int] = []
        taken = dict.fromkeys(seen, 0)
        for u, mask in candidates:
            if taken[mask] < d and not removed_mask >> u & 1:
                taken[mask] += 1
                kept.append(u)
        counts = tuple(taken.values())
        witness = None
        if budget == 0 and counts in answers:
            sat = answers[counts]
        else:
            sub = s0_solver(restrict(inst, kept))
            sat, witness = sub.sat, sub.witness
            answers[counts] = sat
        if not removed_mask and sat and isinstance(witness, TeamSet):
            root_teams[0] = _mapped_teams(witness, kept)
        result: Verdict | None
        if not sat:
            blocker = frozenset(u for u in range(n) if removed_mask >> u & 1)
            result = Verdict(UNSAT, BlockerSet(blocker), stats)
        elif budget == 0:
            result = None
        else:
            if not isinstance(witness, TeamSet):
                raise RuntimeError("inner s=0 solver returned SAT without teams")
            touched = sorted({kept[i] for team in witness.teams for i in team})
            result = None
            for u in touched:
                result = node(removed_mask | (1 << u), budget - 1)
                if result is not None:
                    break
        if dedup:
            outcomes[removed_mask] = result
        return result

    found = node(0, inst.s)
    if found is not None:
        found.stats.seconds = time.perf_counter() - start
        return found
    witness = root_teams[0] if inst.s == 0 else None
    stats.seconds = time.perf_counter() - start
    return Verdict(SAT, witness, stats)


@dataclass(frozen=True)
class ClassDeletionVector:
    """How many representative users to delete from each class."""

    counts: dict[int, int]
    d: int


def deletion_cost(
    partition: ClassPartition, vector: ClassDeletionVector, class_mask: int
) -> int:
    """Users charged against the removal budget for this class.

    Deleting k > 0 representatives only blocks the original instance if
    the class's spare, non-representative users go too, so those are
    charged along with the k. An untouched class costs nothing.
    """
    k = vector.counts.get(class_mask, 0)
    if k == 0:
        return 0
    total = len(partition.members(class_mask))
    reps = min(total, vector.d)
    return k + total - reps


def reduced_solve(
    inst: Instance,
    s0_solver: S0Solver | None = None,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> Verdict:
    """Blocker search over class representatives only.

    Keeping min(|class|, d) lowest-index users per occupied class
    preserves the answer: teams never need more than d users of one
    class, and a minimal blocker prunes to representatives once its
    per-class cost is accounted by deletion_cost. Enumerate per-class
    deletion counts in class bitmask order, skip vectors whose total
    cost exceeds s, and test the surviving representatives with an s=0
    solver. The first blocking vector, expanded back to original users,
    is the witness.
    """
    require_normalized(inst)
    if (1 << inst.num_resources) > limits.max_classes:
        raise BudgetError(
            f"reduced_solve budget: 2^|P| = {1 << inst.num_resources} classes "
            f"exceeds {limits.max_classes}"
        )
    start = time.perf_counter()
    inner_name = "custom"
    if s0_solver is None:
        inner_name, s0_solver = _pick_s0(inst, limits)
    stats = SolveStats(algorithm=f"reduced+{inner_name}")
    partition = class_partition(inst)
    d, s = inst.d, inst.s

    # Class 0 users appear in no useful team and no minimal blocker.
    occupied = [mask for mask in partition.classes if mask]
    reps: dict[int, tuple[int, ...]] = {
        mask: partition.members(mask)[: min(len(partition.members(mask)), d)]
        for mask in occupied
    }
    reduced_users = sorted(u for members in reps.values() for u in members)
    stats.extras["reduced_users"] = len(reduced_users)

    counts: dict[int, int] = {}

    def expand(vector: ClassDeletionVector) -> BlockerSet:
        removed: set[int] = set()
        for mask, k in vector.counts.items():
            if k == 0:
                continue
            removed.update(reps[mask][:k])
            removed.update(partition.members(mask)[d:])
        return BlockerSet(frozenset(removed))

    def try_vector() -> Verdict | None:
        stats.nodes += 1
        vector = ClassDeletionVector(dict(counts), d)
        removed = {u for mask, k in counts.items() for u in reps[mask][:k]}
        kept = [u for u in reduced_users if u not in removed]
        sub = s0_solver(restrict(inst, kept))
        if sub.sat:
            if inst.s == 0 and isinstance(sub.witness, TeamSet):
                return Verdict(SAT, _mapped_teams(sub.witness, kept), stats)
            return Verdict(SAT, None, stats)
        return Verdict(UNSAT, expand(vector), stats)

    def enumerate_vectors(idx: int, cost: int) -> Verdict | None:
        if idx == len(occupied):
            verdict = try_vector()
            return verdict if not verdict.sat else None
        mask = occupied[idx]
        total = len(partition.members(mask))
        spare = total - len(reps[mask])
        top = min(s, d, len(reps[mask]))
        for k in range(top + 1):
            extra = 0 if k == 0 else k + spare
            if cost + extra > s:
                break  # larger k only costs more
            counts[mask] = k
            result = enumerate_vectors(idx + 1, cost + extra)
            if result is not None:
                return result
        counts.pop(mask, None)
        return None

    found = enumerate_vectors(0, 0)
    if found is not None:
        found.stats.seconds = time.perf_counter() - start
        return found
    # No deletion vector blocks, so the policy is resilient; recover the
    # s=0 witness case for uniformity with the other solvers.
    if inst.s == 0:
        counts.clear()
        verdict = try_vector()
        verdict.stats.seconds = time.perf_counter() - start
        return verdict
    stats.seconds = time.perf_counter() - start
    return Verdict(SAT, None, stats)


def fastpath_d1_tinf(inst: Instance) -> Verdict:
    """Single team, unbounded size: count who covers each resource.

    One team drawn from the survivors exists iff every target resource
    keeps at least one authorized user, so the adversary wins iff some
    resource is covered by at most s users. Check coverage counts; on
    failure the authorized set of a least-covered resource is the
    blocker, and it is inclusion-minimal because any blocking subset of
    it would pin a resource with even lower coverage.
    """
    require_normalized(inst)
    if inst.d != 1:
        raise PreconditionError("fastpath requires d=1")
    if inst.num_resources and inst.t < inst.num_resources:
        raise PreconditionError("fastpath requires t >= |P| after normalization")
    start = time.perf_counter()
    stats = SolveStats(algorithm="fastpath")
    p = inst.num_resources
    stats.nodes = p
    worst_r = -1
    worst_cov = None
    for r in range(p):
        cov = sum(1 for mask in inst.access if mask >> r & 1)
        if worst_cov is None or cov < worst_cov:
            worst_cov = cov
            worst_r = r
    if worst_cov is not None and worst_cov <= inst.s:
        blocker = frozenset(u for u, mask in enumerate(inst.access) if mask >> worst_r & 1)
        stats.seconds = time.perf_counter() - start
        return Verdict(UNSAT, BlockerSet(blocker), stats)
    witness = None
    if inst.s == 0:
        team = set()
        for r in range(p):
            for u, mask in enumerate(inst.access):
                if mask >> r & 1:
                    team.add(u)
                    break
        witness = TeamSet((frozenset(team),))
    stats.seconds = time.perf_counter() - start
    return Verdict(SAT, witness, stats)


def _solve_oracle(inst: Instance, limits: Limits) -> Verdict:
    return oracle.solve_rcp_bruteforce(inst, user_limit=limits.oracle_users)


def _solve_dp(inst: Instance, limits: Limits) -> Verdict:
    return teams.dp_solve(inst, limits=limits)


def _solve_ilp(inst: Instance, limits: Limits) -> Verdict:
    return teams.ilp_solve(inst, limits=limits)


def _solve_setcover(inst: Instance, limits: Limits) -> Verdict:
    return teams.setcover_d1(inst, limits=limits)


def _solve_branch(inst: Instance, limits: Limits) -> Verdict:
    return branch_solve(inst, limits=limits)


def _solve_reduced(inst: Instance, limits: Limits) -> Verdict:
    return reduced_solve(inst, limits=limits)


def _solve_fastpath(inst: Instance, limits: Limits) -> Verdict:
    return fastpath_d1_tinf(inst)


STRATEGIES: dict[str, Callable[[Instance, Limits], Verdict]] = {
    "oracle": _solve_oracle,
    "dp": _solve_dp,
    "ilp": _solve_ilp,
    "setcover": _solve_setcover,
    "branch": _solve_branch,
    "reduced": _solve_reduced,
    "fastpath": _solve_fastpath,
}


def solve(
    inst: Instance, strategy: str = "auto", *, limits: Limits = DEFAULT_LIMITS
) -> Verdict:
    """Dispatch to a solver; "auto" picks by parameter shape.

    auto prefers the coverage fast path (d=1, unbounded t), then the
    branching search with a DP inner solver while d*|P| fits the bit
    budget, then the class-reduced search, and falls back to the
    guarded oracle. The verdict's stats name the route taken.
    """
    require_normalized(inst)
    if strategy != "auto":
        try:
            runner = STRATEGIES[strategy]
        except KeyError:
            raise ValueError(f"unknown strategy {strategy!r}") from None
        return runner(inst, limits)
    p = inst.num_resources
    if inst.d == 1 and (p == 0 or inst.t >= p):
        return fastpath_d1_tinf(inst)
    if inst.s == 0:
        if inst.d * p <= limits.dp_bits:
            return teams.dp_solve(inst, limits=limits)
        if (1 << p) <= limits.max_classes:
            return teams.ilp_solve(inst, limits=limits)
        return oracle.solve_rcp_bruteforce(inst, user_limit=limits.oracle_users)
    if inst.d * p <= limits.dp_bits:
        return branch_solve(inst, limits=limits)
    if (1 << p) <= limits.max_classes:
        return reduced_solve(inst, limits=limits)
    return oracle.solve_rcp_bruteforce(inst, user_limit=limits.oracle_users)


__all__ = [
    "ClassDeletionVector",
    "STRATEGIES",
    "branch_solve",
    "deletion_cost",
    "fastpath_d1_tinf",
    "reduced_solve",
    "solve",
]
