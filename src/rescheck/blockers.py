"""Solvers for the general query with a removal budget s > 0, and routing.

Both searches try removal sets and put the zero-removal question to an
inner s=0 solver through one step, _solve_survivors. Whether that
question is SAT depends only on how many survivors each neighborhood
class keeps, capped at d, so the inner solver sees only the first
min(|class|, d) survivors of every occupied class and its teams are
mapped back to the caller's numbering. The inner solver is always the
one the budget ladder picks. branch_solve picks removals from the team
sets it finds; reduced_solve enumerates how many representatives to
delete per class, one recursion level per deletion, so its depth stays
within s + 1 however many classes there are. fastpath_d1_tinf answers
the single-team unbounded-size case by counting coverage.

The route is decided here and nowhere else. outside_domain says which
names in STRATEGIES answer an instance exactly, and solve() refuses the
others; _rung is the budget ladder (dp while d*|P| fits dp_bits, else
class counting while 2^|P| fits max_classes, else the oracle) that
"auto" and the searches' choice of inner solver both read. On the
oracle rung, auto runs the oracle itself only when all n users fit its
guard, and branch_solve otherwise, even at s=0, where it makes one
inner call; that search's inner solver is the guarded oracle while its
representatives fit oracle_users, else the pivot search.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from . import oracle, teams
from .policy import (
    DEFAULT_LIMITS,
    SAT,
    UNSAT,
    BlockerSet,
    BudgetError,
    Instance,
    Limits,
    PreconditionError,
    SolveStats,
    TeamSet,
    Verdict,
    require_normalized,
    restrict,
)

S0Solver = Callable[[Instance], Verdict]
# Users that may survive as a class representative, each with its class
# mask, in ascending index; and the occupied classes.
Listing = tuple[list[tuple[int, int]], tuple[int, ...]]


def outside_domain(inst: Instance, name: str) -> str | None:
    """Why strategy name does not answer inst exactly, None when it does.

    oracle, branch and reduced answer every instance. dp and ilp look
    for teams only, so they answer s=0 alone. fastpath counts coverage,
    which decides the query only for a single team of unbounded size:
    d=1 and, after normalization, t >= |P|.
    """
    if name in ("dp", "ilp") and inst.s:
        return f"algorithm {name!r} answers only s=0 instances; this one has s={inst.s}"
    if name == "fastpath" and not (inst.d == 1 and inst.t >= inst.num_resources):
        return "fastpath requires d=1 and t >= |P| after normalization"
    return None


def _rung(inst: Instance, limits: Limits) -> str:
    # The budget ladder: "dp", "ilp" (class counting) or "oracle".
    if inst.d * inst.num_resources <= limits.dp_bits:
        return "dp"
    if (1 << inst.num_resources) <= limits.max_classes:
        return "ilp"
    return "oracle"


def _pick_s0(inst: Instance, limits: Limits, listing: Listing) -> tuple[str, S0Solver]:
    rung = _rung(inst, limits)
    if rung == "oracle":
        # Inner calls see at most min(|class|, d) users per occupied
        # class, the root call exactly that many. Past oracle_users the
        # root call would raise on the oracle's guard; the pivot search
        # has none.
        listed = Counter(mask for _, mask in listing[0])
        if sum(min(count, inst.d) for count in listed.values()) > limits.oracle_users:
            return "pivot", teams.pivot_solve
        return "oracle-s0", lambda sub: oracle.solve_s0_bruteforce(
            sub, user_limit=limits.oracle_users
        )
    # dp_solve and ilp_solve ignore s, so they serve the survivors as is.
    solver = STRATEGIES[rung]
    return rung, lambda sub: solver(sub, limits)


def _candidates(inst: Instance) -> Listing:
    # At most s removals, so the first d survivors of a class are among
    # its first d + s members; class 0 users appear in no useful team.
    listed: dict[int, int] = {}
    candidates: list[tuple[int, int]] = []
    for u, mask in enumerate(inst.access):
        count = listed.get(mask, 0)
        if mask and count < inst.d + inst.s:
            listed[mask] = count + 1
            candidates.append((u, mask))
    return candidates, tuple(listed)


def _solve_survivors(
    inst: Instance,
    inner: S0Solver,
    listing: Listing,
    removed_mask: int,
    answers: dict[tuple[int, ...], bool] | None = None,
    need_teams: bool = True,
) -> tuple[bool, TeamSet | None]:
    """The zero-removal query on the users left after removed_mask.

    The inner solver gets the first min(|class|, d) survivors of every
    occupied class, in ascending index, drawn from the _candidates
    listing. The dp and ilp inner solvers never pick a user outside that
    set, so their teams are the ones they would find on all survivors.
    Returns the answer and the inner solver's teams in the caller's
    numbering, None when it gave none. answers, when given, maps capped
    per-class survivor counts to answers already found; a vector found
    there is answered without an inner call, and without teams, unless
    need_teams.
    """
    candidates, classes = listing
    d = inst.d
    taken = dict.fromkeys(classes, 0)
    kept: list[int] = []
    for u, mask in candidates:
        if taken[mask] < d and not removed_mask >> u & 1:
            taken[mask] += 1
            kept.append(u)
    counts = tuple(taken.values())
    if answers is not None and not need_teams and counts in answers:
        return answers[counts], None
    sub = inner(restrict(inst, kept))
    if answers is not None:
        answers[counts] = sub.sat
    if not sub.sat or not isinstance(sub.witness, TeamSet):
        return sub.sat, None
    mapped = TeamSet(tuple(frozenset(kept[i] for i in team) for team in sub.witness.teams))
    return True, mapped


def _blocker(removed_mask: int, n: int) -> BlockerSet:
    return BlockerSet(frozenset(u for u in range(n) if removed_mask >> u & 1))


def branch_solve(inst: Instance, *, limits: Limits = DEFAULT_LIMITS) -> Verdict:
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

    The inner solver's teams, and with them the branching order, are
    the ones it would find on all survivors (see _solve_survivors).
    Nodes with no budget left read only the inner answer, which is
    cached by the capped per-class survivor counts across the whole
    search.
    """
    require_normalized(inst)
    listing = _candidates(inst)
    inner_name, inner = _pick_s0(inst, limits, listing)
    stats = SolveStats(algorithm=f"branch+{inner_name}")
    root_teams: list[TeamSet | None] = [None]
    outcomes: dict[int, Verdict | None] = {}
    answers: dict[tuple[int, ...], bool] = {}

    def node(removed_mask: int, budget: int) -> Verdict | None:
        # None means: no blocker extends this removal set within budget.
        stats.nodes += 1
        if removed_mask in outcomes:
            return outcomes[removed_mask]
        sat, found = _solve_survivors(
            inst, inner, listing, removed_mask, answers, need_teams=budget > 0
        )
        if not removed_mask:
            root_teams[0] = found
        result: Verdict | None = None
        if not sat:
            result = Verdict(UNSAT, _blocker(removed_mask, inst.n), stats)
        elif budget > 0:
            if found is None:
                raise RuntimeError("inner s=0 solver returned SAT without teams")
            for u in sorted(set().union(*found.teams)):
                result = node(removed_mask | (1 << u), budget - 1)
                if result is not None:
                    break
        outcomes[removed_mask] = result
        return result

    found = node(0, inst.s)
    if found is not None:
        return found
    witness = root_teams[0] if inst.s == 0 else None
    return Verdict(SAT, witness, stats)


def reduced_solve(inst: Instance, *, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Blocker search over per-class deletion counts.

    Keeping min(|class|, d) lowest-index users per occupied class, its
    representatives, preserves the answer: teams never need more than d
    users of one class. A minimal blocker that touches a class leaves
    fewer than d of its users, so it can be taken to delete the first k
    representatives together with every spare, non-representative user
    of that class, and all of those are charged against the budget.
    Enumerate per-class deletion counts in class bitmask order, skip
    vectors whose total cost exceeds s, and put the zero-removal query
    to the survivors. The removal set of the first vector that blocks is
    the witness.
    """
    require_normalized(inst)
    if (1 << inst.num_resources) > limits.max_classes:
        raise BudgetError(
            f"reduced_solve budget: 2^|P| = {1 << inst.num_resources} classes "
            f"exceeds {limits.max_classes}"
        )
    listing = _candidates(inst)
    inner_name, inner = _pick_s0(inst, limits, listing)
    stats = SolveStats(algorithm=f"reduced+{inner_name}")
    d, s = inst.d, inst.s
    members: dict[int, list[int]] = {}
    for u, mask in listing[0]:
        members.setdefault(mask, []).append(u)

    # Per class that a deletion can touch within the budget, in class
    # bitmask order: its representatives, the mask of its spare users
    # and their number. The listing holds a class's first d + s members;
    # a class that fills them costs at least s + 1 to touch.
    classes: list[tuple[list[int], int, int]] = []
    for mask in sorted(members):
        listed = members[mask]
        if len(listed) < d + s:
            spare_mask = 0
            for u in listed[d:]:
                spare_mask |= 1 << u
            classes.append((listed[:d], spare_mask, max(len(listed) - d, 0)))
    stats.extras["reduced_users"] = sum(min(len(m), d) for m in members.values())
    first_teams: list[TeamSet | None] = [None]

    def search(start: int, cost: int, removed_mask: int) -> Verdict | None:
        # Deletion vectors in lexicographic order of their per-class
        # counts, one call per deletion: the vector that deletes nothing
        # beyond removed_mask, then those whose first further deletion
        # is in the last class, and so on back to class start.
        stats.nodes += 1
        sat, found = _solve_survivors(inst, inner, listing, removed_mask)
        if not sat:
            return Verdict(UNSAT, _blocker(removed_mask, inst.n), stats)
        if not removed_mask:
            first_teams[0] = found
        for idx in range(len(classes) - 1, start - 1, -1):
            reps, drop, spare = classes[idx]
            for k in range(1, len(reps) + 1):
                if cost + k + spare > s:
                    break  # larger k only costs more
                drop |= 1 << reps[k - 1]
                result = search(idx + 1, cost + k + spare, removed_mask | drop)
                if result is not None:
                    return result
        return None

    found = search(0, 0, 0)
    if found is not None:
        return found
    witness = first_teams[0] if s == 0 else None
    return Verdict(SAT, witness, stats)


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
    reason = outside_domain(inst, "fastpath")
    if reason is not None:
        raise PreconditionError(reason)
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
    return Verdict(SAT, witness, stats)


STRATEGIES: dict[str, Callable[[Instance, Limits], Verdict]] = {
    "oracle": lambda inst, limits: oracle.solve_rcp_bruteforce(
        inst, user_limit=limits.oracle_users
    ),
    "dp": lambda inst, limits: teams.dp_solve(inst, limits=limits),
    "ilp": lambda inst, limits: teams.ilp_solve(inst, limits=limits),
    "branch": lambda inst, limits: branch_solve(inst, limits=limits),
    "reduced": lambda inst, limits: reduced_solve(inst, limits=limits),
    "fastpath": lambda inst, limits: fastpath_d1_tinf(inst),
}


def _auto(inst: Instance, limits: Limits) -> str:
    if outside_domain(inst, "fastpath") is None:
        return "fastpath"
    rung = _rung(inst, limits)
    if rung == "oracle":
        return "oracle" if inst.n <= limits.oracle_users else "branch"
    if inst.s == 0:
        return rung
    return "branch" if rung == "dp" else "reduced"


def solve(
    inst: Instance, strategy: str = "auto", *, limits: Limits = DEFAULT_LIMITS
) -> Verdict:
    """Dispatch to a solver; "auto" picks by parameter shape.

    auto prefers the coverage fast path (d=1, unbounded t), then walks
    the budget ladder: with s=0 its rungs are dp and ilp, with s>0 the
    branching search (dp inner solver) and the class-reduced search (ilp
    inner solver); past them it takes the guarded oracle when n fits
    oracle_users and the branching search otherwise, whose inner solver
    is the oracle or the pivot search. The verdict's
    stats name the route taken. A named strategy outside the instance's
    domain (see outside_domain) raises PreconditionError.
    """
    require_normalized(inst)
    if strategy == "auto":
        strategy = _auto(inst, limits)
    try:
        runner = STRATEGIES[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}") from None
    reason = outside_domain(inst, strategy)
    if reason is not None:
        raise PreconditionError(reason)
    return runner(inst, limits)


__all__ = [
    "STRATEGIES",
    "branch_solve",
    "fastpath_d1_tinf",
    "outside_domain",
    "reduced_solve",
    "solve",
]
