"""Brute-force reference solvers.

These are the trusted, definition-shaped searches every other solver is
cross-checked against. They enumerate; they do not reduce. A user-count
guard, Limits.oracle_users by default, keeps accidental huge inputs
from hanging a test run; callers who know better can lift it with
user_limit=None.

The removal search asks the s=0 question of many survivor sets. Each
is searched on the survivors' access masks (solve_s0_bruteforce's kept
argument), not on a restricted instance. One shortcut answers some of
them: removing users never creates a team set, so a team set found by
an earlier search stays a team set among any survivors that include
all of its members. A survivor set that such a stored set fits in is
answered SAT without a search. Only SAT is answered this way; every
UNSAT, and with it every blocker, comes from a full search of exactly
that survivor set.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from .policy import (
    DEFAULT_LIMITS,
    SAT,
    UNSAT,
    BlockerSet,
    BudgetError,
    Instance,
    SolveStats,
    TeamSet,
    Verdict,
    require_normalized,
    restrict,  # unused here; perfbench/tracing.py binds oracle.restrict
)


def _check_size(n: int, user_limit: int | None) -> None:
    if user_limit is not None and n > user_limit:
        raise BudgetError(
            f"oracle guard: {n} users exceeds limit {user_limit}; "
            "pass user_limit=None to override"
        )


def solve_s0_bruteforce(
    inst: Instance,
    *,
    user_limit: int | None = DEFAULT_LIMITS.oracle_users,
    kept: int = -1,
) -> Verdict:
    """Exhaustive search for d disjoint covering teams (s is ignored).

    Users are assigned one at a time, in index order, to one of the d
    teams or to none. A team only accepts a user while below the size
    cap and only when the user covers something the team still needs;
    dropping a useless member never invalidates a team, so this loses
    no solutions. A state with a full team that still misses a resource
    is dead on entry. Dead states, keyed by the multiset of per-team
    (remaining demand, size) pairs, are memoized so identical futures
    are not re-searched. On success the teams are reported sorted by
    smallest member index. The search keeps one frame per user on an
    explicit stack, so Python's recursion limit does not bound n.

    kept, a bitmask of users, every user by default (-1 has every bit
    set), searches only those users: the search of restrict(inst, kept
    users), on their access masks, with the teams reported in inst's
    numbering.
    """
    require_normalized(inst)
    users = [u for u in range(inst.n) if kept >> u & 1]
    access = [inst.access[u] for u in users]
    n, d, t = len(access), inst.d, int(inst.t)
    _check_size(n, user_limit)
    stats = SolveStats(algorithm="oracle-s0")
    full = inst.target

    # suffix_union[i] = resources still reachable using users i..n-1
    suffix_union = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | access[i]

    members: list[list[int]] = [[] for _ in range(d)]
    failed: set[tuple] = set()

    def visit(i: int, states: tuple[tuple[int, int], ...]) -> bool | list:
        # The node's answer when it is known on entry, else its frame:
        # its failed-memo key, its index, the branches left to try in
        # reverse order, and the team that the branch being tried puts
        # user i in (None for the branch that skips it).
        stats.nodes += 1
        pending = [demand for demand, _ in states if demand]
        if not pending:
            return True
        if i == n or n - i < len(pending):
            return False
        if any(demand and size >= t for demand, size in states):
            return False  # a full team still misses a resource
        union_needed = 0
        for demand in pending:
            union_needed |= demand
        if union_needed & ~suffix_union[i]:
            return False
        key = (i, tuple(sorted(states)))
        if key in failed:
            return False
        nbr = access[i]
        branches: list[tuple[int | None, tuple[tuple[int, int], ...]]] = [(None, states)]
        tried: set[tuple[int, int]] = set()
        for j in range(d):
            demand, size = states[j]
            if size >= t or not demand & nbr:
                continue
            if (demand, size) in tried:
                continue  # team in an identical state, symmetric branch
            tried.add((demand, size))
            branches.insert(1, (j, states[:j] + ((demand & ~nbr, size + 1),) + states[j + 1 :]))
        return [key, i, branches, None]

    # Depth-first on an explicit stack, one frame per user index: user i
    # joins each team it helps, in team order, and then joins none.
    frames: list[list] = []
    result = visit(0, tuple((full, 0) for _ in range(d)))
    while result is not True:
        if result is False:
            if not frames:
                break
            frame = frames[-1]
            if frame[3] is not None:
                members[frame[3]].pop()
        else:
            frame = result
            frames.append(frame)
        key, i, branches, _ = frame
        if not branches:
            failed.add(key)
            frames.pop()
            result = False
            continue
        j, child = branches.pop()
        frame[3] = j
        if j is not None:
            members[j].append(i)
        result = visit(i + 1, child)
    sat = result is True
    if not sat:
        return Verdict(UNSAT, BlockerSet(frozenset()), stats)
    teams = sorted(
        (frozenset(users[i] for i in m) for m in members), key=lambda team: tuple(sorted(team))
    )
    return Verdict(SAT, TeamSet(tuple(teams)), stats)


def _survivors_verdict(
    inst: Instance, removed: Iterable[int], memo: dict[int, Verdict]
) -> Verdict:
    # The s=0 verdict on the users left after removing removed, memoized
    # under the bitmask of those users. A miss is answered by a team set
    # stored in the memo when one fits among the survivors, else searched.
    kept_mask = (1 << inst.n) - 1
    for u in removed:
        kept_mask &= ~(1 << u)
    cached = memo.get(kept_mask)
    if cached is None:
        cached = memo[kept_mask] = _stored_teams(memo, kept_mask) or solve_s0_bruteforce(
            inst, user_limit=None, kept=kept_mask
        )
    return cached


def _stored_teams(memo: dict[int, Verdict], kept_mask: int) -> Verdict | None:
    # The newest SAT verdict in the memo whose teams use only kept users.
    # An entry answered this way shares the stored verdict, stats included.
    for verdict in reversed(memo.values()):
        if verdict.sat and all(
            kept_mask >> u & 1 for team in verdict.witness.teams for u in team
        ):
            return verdict
    return None


def solve_rcp_bruteforce(
    inst: Instance,
    *,
    user_limit: int | None = DEFAULT_LIMITS.oracle_users,
    s0_memo: dict[int, Verdict] | None = None,
) -> Verdict:
    """Decide res(P, s, d, t) by trying every removal set.

    Candidate removals are enumerated in increasing cardinality and
    lexicographically within each cardinality, so an UNSAT verdict
    always carries a minimum-cardinality blocker. s0_memo, keyed by the
    bitmask of surviving users, lets sweeps share sub-results across
    repeated calls; it never changes answers. A stored team set may
    answer a later survivor set (see the module docstring), so with a
    memo that earlier calls filled, an s=0 team witness may be one they
    found.
    """
    require_normalized(inst)
    _check_size(inst.n, user_limit)
    stats = SolveStats(algorithm="oracle")
    n = inst.n
    memo = s0_memo if s0_memo is not None else {}

    base = _survivors_verdict(inst, (), memo)
    stats.nodes += 1
    if not base.sat:
        return Verdict(UNSAT, BlockerSet(frozenset()), stats)
    for k in range(1, min(inst.s, n) + 1):
        for removed in combinations(range(n), k):
            stats.nodes += 1
            if not _survivors_verdict(inst, removed, memo).sat:
                return Verdict(UNSAT, BlockerSet(frozenset(removed)), stats)
    witness = base.witness if inst.s == 0 else None
    return Verdict(SAT, witness, stats)
