"""Solvers for the general query with a removal budget s > 0, and routing.

Both searches try removal sets and put the zero-removal question to an
inner s=0 core through one step, _solve_survivors. Whether that
question is SAT depends only on how many survivors each neighborhood
class keeps, capped at d, so the core sees only the first
min(|class|, d) survivors of every occupied class, and its teams are in
the caller's numbering. Both searches read the classes from one table,
_candidates, cut from class_partition. Before any core call, a supply
screen sums the capped counts per resource: d disjoint covering teams
need d distinct survivors who reach each resource, so a resource with
fewer is UNSAT outright. The core is the one the budget ladder picks,
and it runs on bare data at every node, with no sub-instance: the dp
search or the pivot search on the kept users' masks, or the
configuration search over one configuration list per search with the
counts as capacities. Only the nodes that need teams (branch's root
and its nodes with budget left, and reduced's root at s=0) ask it for
them. branch_solve picks removals from the team sets it finds;
reduced_solve enumerates how many representatives to delete per class,
one recursion level per deletion, so its depth stays within s + 1
however many classes there are. fastpath_d1_tinf answers the
single-team unbounded-size case by counting coverage.

The route is decided here and nowhere else. outside_domain says which
names in STRATEGIES answer an instance exactly, and solve() refuses the
others; _rung is the budget ladder (dp while d*|P| fits dp_bits, else
class counting while 2^|P| fits max_classes, else the pivot search) that
"auto" and the searches' choice of inner core both read. On the pivot
rung, auto runs branch_solve at every s, whose search size does not
depend on |P|; at s=0 that search makes one inner call.
"""

from __future__ import annotations

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
    class_partition,
    require_normalized,
    restrict,  # unused here; perfbench/tracing.py binds blockers.restrict
)

# An s=0 core: (kept users ascending, per-class counts, need_teams) to
# the answer and, when asked for and SAT, teams in the caller's numbering.
S0Core = Callable[[list[int], tuple[int, ...], bool], tuple[bool, TeamSet | None]]


def outside_domain(inst: Instance, name: str) -> str | None:
    """Why strategy name does not answer inst exactly, None when it does.

    A strategy inside its domain may still raise BudgetError past its
    Limits: the oracle past oracle_users users, reduced past max_classes
    classes. dp and ilp look for teams only, so they answer s=0 alone.
    fastpath counts coverage, which decides the query only for a single
    team of unbounded size: d=1 and, after normalization, t >= |P|.
    """
    if name in ("dp", "ilp") and inst.s:
        return f"algorithm {name!r} answers only s=0 instances; this one has s={inst.s}"
    if name == "fastpath" and not (inst.d == 1 and inst.t >= inst.num_resources):
        return "fastpath requires d=1 and t >= |P| after normalization"
    return None


def _rung(inst: Instance, limits: Limits) -> str:
    # The budget ladder: "dp", "ilp" (class counting) or "pivot".
    if inst.d * inst.num_resources <= limits.dp_bits:
        return "dp"
    if (1 << inst.num_resources) <= limits.max_classes:
        return "ilp"
    return "pivot"


def _pick_s0(
    inst: Instance, limits: Limits, classes: dict[int, tuple[int, ...]]
) -> tuple[str, S0Core]:
    # The rung's name and its core on bare data.
    rung = _rung(inst, limits)
    access, p, d, t = inst.access, inst.num_resources, inst.d, int(inst.t)
    if rung != "ilp":
        search = teams.dp_search if rung == "dp" else teams.pivot_search

        def core(kept: list[int], counts: tuple[int, ...], need_teams: bool):
            sat, found, _ = search([access[u] for u in kept], p, d, t, replay=need_teams)
            if found is None:
                return sat, None
            return sat, TeamSet(tuple(frozenset(kept[i] for i in team) for team in found))

        return rung, core
    configs: list[tuple[int, ...]] | None = None

    def core(kept: list[int], counts: tuple[int, ...], need_teams: bool):
        nonlocal configs
        # The configurations depend only on the occupied classes and t,
        # so one list, made when first needed, serves the whole search;
        # the counts are the capacities, zero for emptied classes, whose
        # configurations the search passes through with multiplicity 0.
        if configs is None:
            configs = teams.enumerate_configurations(inst, limits=limits)
        vector = teams.ilp_feasible(configs, dict(zip(classes, counts)), d)[0]
        if vector is None or not need_teams:
            return vector is not None, None
        # Each class's kept users, ascending; access masks are class
        # masks on a normalized instance.
        pools: dict[int, list[int]] = {}
        for u in kept:
            pools.setdefault(access[u], []).append(u)
        return True, teams.reconstruct_teams(pools, vector)

    return rung, core


def _candidates(inst: Instance) -> dict[int, tuple[int, ...]]:
    # The users that may survive as representatives, by class in mask
    # order. At most s removals, so the first d survivors of a class are
    # among its first d + s members; class 0 users appear in no useful team.
    keep = inst.d + inst.s
    return {mask: users[:keep] for mask, users in class_partition(inst).items() if mask}


def _survivors(
    classes: dict[int, tuple[int, ...]], removed_mask: int, d: int
) -> tuple[list[int], tuple[int, ...]]:
    # The first min(|class|, d) survivors of every class, class by class,
    # and how many each class keeps, in mask order.
    kept: list[int] = []
    taken: list[int] = []
    for users in classes.values():
        count = 0
        for u in users:
            if not removed_mask >> u & 1:
                kept.append(u)
                count += 1
                if count == d:
                    break
        taken.append(count)
    return kept, tuple(taken)


def _starved(
    classes: dict[int, tuple[int, ...]], counts: tuple[int, ...], full: int, d: int
) -> bool:
    # Some resource is reached by fewer than d kept survivors, so d
    # disjoint covering teams cannot exist. A class keeping fewer than d
    # keeps all its survivors, so the capped counts decide this exactly.
    # reach[k] is the set of resources reached by more than k of the
    # classes seen so far; a class of count users with this mask lifts
    # its resources count levels, top level first so each reads the old
    # level below.
    reach = [0] * d
    for mask, count in zip(classes, counts):
        for k in range(d - 1, -1, -1):
            reach[k] |= mask if k < count else mask & reach[k - count]
    return reach[-1] != full


def _solve_survivors(
    inst: Instance,
    core: S0Core,
    classes: dict[int, tuple[int, ...]],
    removed_mask: int,
    answers: dict[tuple[int, ...], bool] | None = None,
    need_teams: bool = True,
) -> tuple[bool, TeamSet | None]:
    """The zero-removal query on the users left after removed_mask.

    Only the first min(|class|, d) survivors of every occupied class
    are kept, drawn from the _candidates classes; the answer depends
    only on these per-class counts. Every team reaches every resource,
    so d teams need d distinct survivors who reach each one: counts
    short of that supply for some resource are UNSAT without an inner
    call. Otherwise the rung's core runs on the kept users in ascending
    index, asked for teams only when need_teams; no solver picks a user
    outside that set, so its teams are the ones it would find on all
    survivors. Returns the answer and the core's teams in the caller's
    numbering, None when it gave none. answers, when given, maps count
    vectors, in mask order, to answers already found; a vector found
    there is answered without an inner call, and without teams, unless
    need_teams.
    """
    kept, counts = _survivors(classes, removed_mask, inst.d)
    if answers is not None and not need_teams and counts in answers:
        return answers[counts], None
    if _starved(classes, counts, inst.target, inst.d):
        sat, found = False, None
    else:
        kept.sort()
        sat, found = core(kept, counts, need_teams)
    if answers is not None:
        answers[counts] = sat
    return sat, found


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

    The core's teams, and with them the branching order, are the ones
    it would find on all survivors (see _solve_survivors). Nodes with
    no budget left, the root apart, ask the core only for the answer,
    cached by the capped per-class survivor counts across the whole
    search.
    """
    require_normalized(inst)
    classes = _candidates(inst)
    inner_name, core = _pick_s0(inst, limits, classes)
    stats = SolveStats(algorithm=f"branch+{inner_name}")
    root_teams: list[TeamSet | None] = [None]
    outcomes: dict[int, Verdict | None] = {}
    answers: dict[tuple[int, ...], bool] = {}

    def node(removed_mask: int, budget: int) -> Verdict | None:
        # None means: no blocker extends this removal set within budget.
        stats.nodes += 1
        if removed_mask in outcomes:
            return outcomes[removed_mask]
        # Teams to branch on, or at the root the s = 0 witness.
        need_teams = budget > 0 or not removed_mask
        sat, found = _solve_survivors(inst, core, classes, removed_mask, answers, need_teams)
        if not removed_mask:
            root_teams[0] = found
        result: Verdict | None = None
        if not sat:
            result = Verdict(UNSAT, _blocker(removed_mask, inst.n), stats)
        elif budget > 0:
            if found is None:
                raise RuntimeError("inner s=0 core returned SAT without teams")
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
    to the survivors; at s > 0 no vector needs teams, so the rung's core
    is asked only for the answer. The removal set of the first vector
    that blocks is the witness.
    """
    require_normalized(inst)
    if (1 << inst.num_resources) > limits.max_classes:
        raise BudgetError(
            f"reduced_solve budget: 2^|P| = {1 << inst.num_resources} classes "
            f"exceeds {limits.max_classes}"
        )
    classes = _candidates(inst)
    inner_name, core = _pick_s0(inst, limits, classes)
    stats = SolveStats(algorithm=f"reduced+{inner_name}")
    d, s = inst.d, inst.s

    # Per class that a deletion can touch within the budget, in class
    # bitmask order: its representatives, the mask of its spare users
    # and their number. _candidates keeps a class's first d + s members;
    # a class that fills them costs at least s + 1 to touch.
    touchable: list[tuple[tuple[int, ...], int, int]] = []
    for users in classes.values():
        if len(users) < d + s:
            spares = users[d:]
            touchable.append((users[:d], sum(1 << u for u in spares), len(spares)))
    stats.extras["reduced_users"] = sum(min(len(users), d) for users in classes.values())
    first_teams: list[TeamSet | None] = [None]

    def search(start: int, cost: int, removed_mask: int) -> Verdict | None:
        # Deletion vectors in lexicographic order of their per-class
        # counts, one call per deletion: the vector that deletes nothing
        # beyond removed_mask, then those whose first further deletion
        # is in the last class, and so on back to class start.
        stats.nodes += 1
        sat, found = _solve_survivors(inst, core, classes, removed_mask, need_teams=not s)
        if not sat:
            return Verdict(UNSAT, _blocker(removed_mask, inst.n), stats)
        if not removed_mask:
            first_teams[0] = found
        for idx in range(len(touchable) - 1, start - 1, -1):
            reps, drop, spare = touchable[idx]
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
    if rung == "pivot":
        return "branch"
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
    inner solver); past them it takes the branching search over the
    pivot search at every s. The verdict's stats name the route taken. A
    named strategy outside the instance's domain (see outside_domain)
    raises PreconditionError.
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
