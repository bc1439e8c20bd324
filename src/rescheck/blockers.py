"""Solvers for the general query with a removal budget s > 0, and routing.

Both searches are one depth-first search over removal sets, _search,
each with its own child rule: branch_solve branches on the members of
the team set each node finds, handed over as the bitmask the search
keeps for its store, reduced_solve enumerates how many representatives
to delete per class. Every node puts the zero-removal question to the
one s=0 entry point, teams.s0_core of the rung the budget ladder picks:
core(removed_mask), a function of the removal set alone, which returns
(teams | None, nodes), None exactly on UNSAT, its teams in the caller's
numbering. The core screens supply, keeps the first min(|class|, d)
survivors of every occupied class and runs the rung's search on their
masks; the dp and ilp routes are the same core's answer at the empty
removal set, core(0), which is this search's root node. Both searches,
auto's count and the core read the classes from one table,
Instance.classes. Nodes that need no teams are first screened against
the team sets the search has already found (_stored_covers).

On the dp and ilp rungs both searches build the core pivot-first: each
call tries the pivot search capped at teams.PIVOT_FIRST_NODES states
and falls back to the rung's search on that cap, and --stats extras
count both outcomes (pivot_answered, pivot_fallbacks) and the core
calls' nodes (core_nodes). The dp and ilp routes build it without the
attempt. fastpath_d1_tinf answers the single-team unbounded-size case by
counting coverage.

The route is decided here and nowhere else. outside_domain says which
names in STRATEGIES answer an instance exactly, and solve() refuses the
others; _rung is the budget ladder (dp while d*|P| fits dp_bits, else
class counting while 2^|P| fits max_classes, else the pivot search)
that picks the searches' inner core. auto (_auto) names one of
STRATEGIES, which solve() runs as it runs a named one: branch_solve at
s=0, where that search is one node, the supply screen and then one
core call, and past max_classes at every s. At s > 0 within
max_classes it counts the deletion vectors reduced_solve would visit,
from the _touchable table, and weighs them against branch_solve's node
bound and core calls.
"""

from __future__ import annotations

from typing import Callable

from . import oracle, teams
from .policy import (
    DEFAULT_LIMITS,
    SAT,
    UNSAT,
    BlockerSet,
    Instance,
    Limits,
    PreconditionError,
    SolveStats,
    TeamSet,
    Verdict,
    require_normalized,
    restrict,  # unused here; perfbench/tracing.py binds blockers.restrict
)

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


def _touchable(inst: Instance) -> list[tuple[tuple[int, ...], int, int]]:
    # Per class that a deletion can touch within the budget, in class
    # bitmask order: its representatives, the mask of its spare users
    # and their number. Deleting k representatives costs k plus every
    # spare, so a class of d + s or more users costs at least s + 1 to
    # touch.
    d, s = inst.d, inst.s
    table = []
    for users in inst.classes.values():
        if len(users) < d + s:
            spares = users[d:]
            table.append((users[:d], sum(1 << u for u in spares), len(spares)))
    return table


def _swap_covers(inst: Instance, found: TeamSet, taken: int, u: int) -> bool:
    # found's teams avoid every removal but u, who sits in one of them;
    # taken holds the removals and every member of found. u's team
    # without u misses the resources only u reached; a class reaching
    # all of them, with a user not taken, gives the swap that restores
    # d disjoint covering teams of at most t users. A False says nothing
    # about the answer.
    access = inst.access
    lost = inst.target
    for team in found.teams:
        if u in team:
            for w in team:
                if w != u:
                    lost &= ~access[w]
            break
    if not lost:
        return True
    for mask, users in inst.classes.items():
        if mask & lost == lost:
            for v in users:
                if not taken >> v & 1:
                    return True
    return False


def _stored_covers(
    inst: Instance, store: list[tuple[int, TeamSet]], removed_mask: int
) -> bool:
    # store holds (members mask, teams) for every team set the core has
    # returned. True when one of them, newest first, avoids removed_mask,
    # or meets it in one user whom a swap replaces; a False says nothing
    # about the answer.
    for members, found in reversed(store):
        hit = members & removed_mask
        if not hit:
            return True
        if not hit & (hit - 1) and _swap_covers(
            inst, found, members | removed_mask, hit.bit_length() - 1
        ):
            return True
    return False


def _search(
    inst: Instance,
    limits: Limits,
    route: str,
    expand: Callable,
    root: object,
    explored: set[int] | None = None,
) -> Verdict:
    """The depth-first removal search under branch_solve and reduced_solve.

    A node is (removed_mask, needs_teams, state): its removal set as a
    bitmask of users, whether its child rule reads its team set, and
    what else the rule reads, which is root at the root. The root needs
    teams. expand(removed_mask, state, members) lists a node's children
    in visiting order; members is the bitmask of the users in the node's
    team set, the one the store keeps, and 0 when the screen answered
    the node. The search runs on an explicit stack in the order a
    recursion would take, so its depth is not bounded by the recursion
    limit. The first node whose survivors hold no team set, where the
    core answers None, is a blocker: UNSAT with that removal set.
    Otherwise SAT, with the root's teams as the witness at s=0. explored,
    when given, holds the removal sets visited so far; a revisit counts
    as a node and ends there.

    Every node that needs teams asks the core, core(removed_mask), so
    the witness and the branching orders are the core's. The search
    stores every team set the core returns, with its members as a
    bitmask. d disjoint covering teams of at most t users that avoid a
    removal set prove it no blocker, so _stored_covers answers a node
    that needs no teams SAT with no core call when a stored set avoids
    its removals, or meets them in one user whom a swap replaces
    (_swap_covers). The screen answers SAT only where the core would, so
    node counts and blockers are as without it.

    The core is built pivot-first (teams.s0_core) and counts its
    attempts into the stats extras, and core_nodes there sums the node
    counts of every core call.
    """
    rung = _rung(inst, limits)
    stats = SolveStats(algorithm=f"{route}+{rung}")
    core = teams.s0_core(inst, rung, limits, pivot_counts=stats.extras)
    stats.extras["core_nodes"] = 0
    store: list[tuple[int, TeamSet]] = []
    stack = [(0, True, root)]
    while stack:
        removed_mask, needs_teams, state = stack.pop()
        stats.nodes += 1
        if explored is not None:
            if removed_mask in explored:
                continue
            explored.add(removed_mask)
        members = 0
        if needs_teams or not _stored_covers(inst, store, removed_mask):
            found, core_nodes = core(removed_mask)
            stats.extras["core_nodes"] += core_nodes
            if found is None:
                blocker = frozenset(u for u in range(inst.n) if removed_mask >> u & 1)
                return Verdict(UNSAT, BlockerSet(blocker), stats)
            for team in found.teams:
                for w in team:
                    members |= 1 << w
            store.append((members, found))
        stack.extend(reversed(expand(removed_mask, state, members)))
    witness = store[0][1] if inst.s == 0 else None
    return Verdict(SAT, witness, stats)


def branch_solve(inst: Instance, *, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Branching search for a blocker of size at most s, on _search.

    The child rule: a node with budget left has one child per member of
    its team set, the set bits of its members mask in ascending order,
    each with one less budget, and a child needs teams while it still
    has budget. Any blocker must hit the team set just found, so
    branching on its at most d*t members is exhaustive; that caps the
    tree at sum over i<=s of (d*t)^i nodes.
    The parent's teams are always in the store and meet a leaf's
    removals only in the user removed last, so a swap for that member is
    always tried. Each removal set is explored once: the subtree outcome
    depends only on the set (its size fixes the remaining budget), and a
    set that held a blocker ends the search, so a revisit along another
    branching order finds none. Survivors and swaps are read off
    inst.classes.
    """
    require_normalized(inst)

    def branches(removed_mask: int, budget: int, members: int) -> list:
        children = []
        if budget:
            while members:
                low = members & -members
                children.append((removed_mask | low, budget > 1, budget - 1))
                members ^= low
        return children

    return _search(inst, limits, "branch", branches, inst.s, explored=set())


def reduced_solve(inst: Instance, *, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Blocker search over per-class deletion counts, on _search.

    Keeping min(|class|, d) lowest-index users per occupied class, its
    representatives, preserves the answer: teams never need more than d
    users of one class. A minimal blocker that touches a class leaves
    fewer than d of its users, so it can be taken to delete the first k
    representatives together with every spare, non-representative user
    of that class, and all of those are charged against the budget.

    The child rule visits the deletion vectors of total cost at most s
    in lexicographic order of their per-class counts, over inst.classes
    in bitmask order (_touchable): a node's children add k = 1, 2, ...
    deletions in one class after the last class it touches, the last
    class first, and no node but the root needs teams. The removal set
    of the first vector that blocks is the witness.
    """
    require_normalized(inst)
    teams.require_class_budget(inst, limits, "reduced_solve")
    touchable = _touchable(inst)
    s = inst.s

    def deletions(removed_mask: int, state: tuple[int, int], members: int) -> list:
        start, cost = state
        children = []
        for idx in range(len(touchable) - 1, start - 1, -1):
            reps, drop, spare = touchable[idx]
            for k in range(1, len(reps) + 1):
                if cost + k + spare > s:
                    break  # larger k only costs more
                drop |= 1 << reps[k - 1]
                children.append((removed_mask | drop, False, (idx + 1, cost + k + spare)))
        return children

    verdict = _search(inst, limits, "reduced", deletions, (0, 0))
    verdict.stats.extras["reduced_users"] = sum(
        min(len(users), inst.d) for users in inst.classes.values()
    )
    return verdict


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


# _auto prices one core call at min(B, _CORE_NODES) screened nodes, B
# being branch's node bound: B grows with s, while a core call's cost
# does not. At s <= 2 with d*t <= 9, B is at most 91, so the cap leaves
# those instances priced at B.
_CORE_NODES = 100


def _vector_count(inst: Instance, cap: int) -> int:
    # The number of deletion vectors reduced_solve visits, its node count
    # when it answers SAT, or some number above cap. A _touchable class
    # offers k = 1..len(reps) deletions at a cost of k plus its spare
    # users, and a vector costs at most s in total. ways[c] counts the
    # vectors of cost c over the classes seen so far, each class read
    # against the old counts below c, top cost first. No vector costs
    # more than n.
    s = min(inst.s, max(inst.n, 1))
    ways = [1] + [0] * s
    total = 1
    for reps, _, spare in _touchable(inst):
        most = len(reps)
        for c in range(s, spare, -1):
            more = sum(ways[max(c - spare - most, 0) : c - spare])
            ways[c] += more
            total += more
        if total > cap:
            break
    return total


def _auto(inst: Instance, limits: Limits) -> str:
    """The strategy "auto" runs on inst, a name solve() dispatches as
    it does a named one.

    The fast path where it applies; else branch at s=0, where its one
    node is the supply screen and at most one core call. At s > 0,
    reduced visits the _vector_count vectors V and calls the core about
    once, while branch visits at most B = sum over i <= s of (d*t)^i
    nodes and calls the core at up to I = sum over i < s of (d*t)^i of
    them. One core call costs about as much as min(B, _CORE_NODES)
    screened nodes, so reduced is taken when
    V <= B + (I - 1) * min(B, _CORE_NODES), which is V <= B*I while
    B <= _CORE_NODES (at s = 1, I = 1: the search with fewer nodes).
    branch is taken otherwise, or when 2^|P| is past max_classes, where
    reduced refuses the instance; that includes the pivot rung. The
    count reads inst.classes, the table the search then reuses.
    """
    if outside_domain(inst, "fastpath") is None:
        return "fastpath"
    if inst.s == 0 or (1 << inst.num_resources) > limits.max_classes:
        return "branch"
    r = inst.d * inst.t
    s = min(inst.s, max(inst.n, 1))  # no branch path removes more than n users
    inner = s if r == 1 else (r**s - 1) // (r - 1)
    nodes = r * inner + 1
    cap = nodes + (inner - 1) * min(nodes, _CORE_NODES)
    return "reduced" if _vector_count(inst, cap) <= cap else "branch"


def solve(
    inst: Instance, strategy: str = "auto", *, limits: Limits = DEFAULT_LIMITS
) -> Verdict:
    """Dispatch to a solver in STRATEGIES; "auto" picks one by
    parameter shape (see _auto) and runs it as the named one.

    auto prefers the coverage fast path (d=1, unbounded t); else it runs
    the branching search at s=0 and past max_classes, and at s > 0
    within max_classes the branching or the class-reduced search,
    picked per instance by their counted and bounded search sizes. The
    searches' core is the budget ladder rung's, pivot-first. The
    verdict's stats name the route taken. A named strategy outside the
    instance's domain (see outside_domain) raises PreconditionError.
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
