"""Solvers for the zero-removal case: find d disjoint covering teams.

Three exact routes with different parameter sweet spots:

* dp_solve: dynamic programming over (user prefix, per-team remaining
  demand and size), exponential only in d*|P|.
* ilp_solve: enumerate team configurations (sets of neighborhood
  classes) and search for a feasible multiplicity vector, exponential
  only in |P|.
* pivot_solve: branch on the users who reach a team's lowest missing
  resource, at most n^(d*t) leaves whatever |P| is; each call stops
  at PIVOT_MAX_NODES states.

Each is a thin wrapper over a search on bare data that the blocker
searches call directly: dp_search and pivot_search on access masks,
ilp_feasible on a configuration list and class capacities, with
reconstruct_teams drawing its teams from per-class pools of users.

All treat s as 0; an UNSAT verdict carries the empty blocker set,
which is exactly the definition of the s=0 query failing.
"""

from __future__ import annotations

import sys
from typing import Iterator, Sequence

from .policy import (
    DEFAULT_LIMITS,
    SAT,
    UNSAT,
    BlockerSet,
    BudgetError,
    Instance,
    Limits,
    SolveStats,
    TeamSet,
    Verdict,
    class_partition,
    require_normalized,
)


def _trivial_sat(stats: SolveStats, d: int) -> Verdict:
    # Empty target: d empty teams cover it vacuously.
    return Verdict(SAT, TeamSet(tuple(frozenset() for _ in range(d))), stats)


def _unsat(stats: SolveStats) -> Verdict:
    return Verdict(UNSAT, BlockerSet(frozenset()), stats)


def dp_search(
    access: Sequence[int], p: int, d: int, t: int, *, replay: bool = False
) -> tuple[bool, list[set[int]] | None, int]:
    """dp_solve's search on bare data: are there d disjoint teams of at
    most t users, drawn from the users with these access masks, that each
    reach all p resources?

    Returns the answer, the teams as sets of indices into access when
    replay is asked for and the answer is SAT (else None), and the
    number of memoized states.

    State: for each of the d teams, the resources it still misses plus
    how many members it has so far; user i either joins one team that it
    helps and that has room, or is skipped. The size counter is what
    makes finite t honest. States are packed into a single integer and
    memoized sparsely under the prefix length and the state with its
    team fields sorted, since teams are interchangeable; only states
    reachable from the root query are ever visited, which keeps the
    visited count within n * 2^(d*p) * (t+1)^d.

    A state is dead, and answered False without searching below it,
    when a team that still misses a resource is full, or when some
    resource is missed by more teams than there are users among the
    first i that reach it: a user joins at most one team, so those teams
    need distinct such users. Both tests reduce to the fewest leading
    users a state needs, computed once per state. The replay walks the
    unsorted states and only follows those whose value is True, so
    neither the sorted key nor the prune changes the teams. The caches
    are cleared on return; the recursive closure would otherwise keep
    them alive until the cyclic garbage collector runs.
    """
    n = len(access)
    full = (1 << p) - 1
    cap_bits = t.bit_length()
    size_mask = (1 << cap_bits) - 1
    width = p + cap_bits
    # The root state: every team misses all of P and has no member. Its
    # set bits are the demand bits of every state.
    initial = 0
    for j in range(d):
        initial |= full << (j * width)

    # reached[k][r]: how many leading users it takes for k+1 of them to
    # reach resource r, n+1 when fewer do.
    reached = [[n + 1] * p for _ in range(d)]
    count = [0] * p
    unfilled = d * p
    for i, nbr in enumerate(access, 1):
        for r in range(p):
            if nbr >> r & 1 and count[r] < d:
                reached[count[r]][r] = i
                count[r] += 1
                unfilled -= 1
        if not unfilled:
            break

    memo: dict[int, bool] = {}
    shapes: dict[int, tuple[int, int]] = {}
    index_bits = n.bit_length()
    field_mask = (1 << width) - 1

    def moves(i: int, state: int):
        # Children of (i, state) that place user i-1 into a team.
        nbr = access[i - 1]
        for j in range(d):
            shift = j * width
            demand = state >> shift & full
            if not demand & nbr:
                continue
            size = state >> (shift + p) & size_mask
            if size >= t:
                continue
            yield j, state - (demand << shift) + ((demand & ~nbr) << shift) + (
                1 << (shift + p)
            )

    def shape(state: int) -> tuple[int, int]:
        # The state with its team fields sorted, which poses the same
        # question because teams are interchangeable, and the fewest
        # leading users that can still serve it, n+1 when none can.
        canonical = least = 0
        need = [0] * p  # teams still missing each resource
        for field in sorted([state >> (j * width) & field_mask for j in range(d)]):
            canonical = canonical << width | field
            demand = field & full
            if not demand:
                continue
            if field >> p >= t:
                least = n + 1
            for r in range(p):
                if demand >> r & 1:
                    need[r] += 1
                    least = max(least, reached[need[r] - 1][r])
        return canonical, least

    def value(i: int, state: int) -> bool:
        if state & initial == 0:
            return True
        if i == 0:
            return False
        known = shapes.get(state)
        if known is None:
            known = shapes[state] = shape(state)
        canonical, least = known
        key = canonical << index_bits | i
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = False
        if i >= least:
            result = value(i - 1, state)
            if not result:
                for _, child in moves(i, state):
                    if value(i - 1, child):
                        result = True
                        break
        memo[key] = result
        return result

    old_limit = sys.getrecursionlimit()
    if n + 100 > old_limit:
        sys.setrecursionlimit(n + 200)
    try:
        sat = value(n, initial)
        if not sat or not replay:
            return sat, None, len(memo)

        # Replay the memo to pull out one concrete team assignment.
        teams: list[set[int]] = [set() for _ in range(d)]
        i, state = n, initial
        while state & initial:
            if value(i - 1, state):
                i -= 1
                continue
            for j, child in moves(i, state):
                if value(i - 1, child):
                    teams[j].add(i - 1)
                    state = child
                    i -= 1
                    break
            else:  # pragma: no cover - would mean the memo is inconsistent
                raise RuntimeError("dp witness replay failed")
        return True, teams, len(memo)
    finally:
        sys.setrecursionlimit(old_limit)
        memo.clear()
        shapes.clear()


def dp_solve(inst: Instance, *, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Team existence via DP over user prefixes and residual demands.

    dp_search answers the question and replays its memo for one team
    assignment, which becomes the witness. The demand bit budget d*|P|
    is checked up front.
    """
    require_normalized(inst)
    stats = SolveStats(algorithm="dp")
    p, d = inst.num_resources, inst.d
    if d * p > limits.dp_bits:
        raise BudgetError(
            f"dp budget: d*|P| = {d * p} exceeds {limits.dp_bits} bits; "
            "use ilp or raise --dp-bits"
        )
    if p == 0:
        return _trivial_sat(stats, d)
    stats.extras["dp_bits"] = d * p
    sat, teams, stats.nodes = dp_search(inst.access, p, d, int(inst.t), replay=True)
    if not sat:
        return _unsat(stats)
    return Verdict(SAT, TeamSet(tuple(frozenset(team) for team in teams)), stats)


def enumerate_configurations(
    inst: Instance, *, limits: Limits = DEFAULT_LIMITS
) -> list[tuple[int, ...]]:
    """All team shapes: sets of at most t distinct occupied neighborhood
    classes whose union covers the target.

    A configuration is an ascending tuple of class bitmasks. Listed by
    part count, then lexicographically. The number of candidate
    families examined is budgeted.
    """
    require_normalized(inst)
    if (1 << inst.num_resources) > limits.max_classes:
        raise BudgetError(
            f"configuration budget: 2^|P| = {1 << inst.num_resources} classes "
            f"exceeds {limits.max_classes}"
        )
    masks = [m for m in class_partition(inst) if m]
    full = inst.target
    t = int(inst.t)
    suffix = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    configs: list[tuple[int, ...]] = []
    examined = 0

    def extend(start: int, chosen: list[int], union: int) -> None:
        nonlocal examined
        for i in range(start, len(masks)):
            if union | suffix[i] != full:
                break  # no completion possible from here on
            examined += 1
            if examined > limits.max_configs:
                raise BudgetError(
                    f"configuration budget: more than {limits.max_configs} "
                    "candidate configurations"
                )
            chosen.append(masks[i])
            new_union = union | masks[i]
            if new_union == full:
                configs.append(tuple(chosen))
            if len(chosen) < t:
                extend(i + 1, chosen, new_union)
            chosen.pop()

    if full == 0:
        return []
    extend(0, [], 0)
    configs.sort(key=lambda c: (len(c), c))
    return configs


def ilp_feasible(
    configs: list[tuple[int, ...]],
    capacities: dict[int, int],
    d: int,
) -> tuple[dict[tuple[int, ...], int] | None, int]:
    """First multiplicity vector filling d teams within class capacities.

    Depth-first over the configuration list, multiplicities tried in
    ascending order, so the result is deterministic. Returns the
    nonzero counts, None when no assignment works, and the number of
    search nodes.

    The search runs on an explicit stack, one level per configuration:
    counts[idx] is the multiplicity on trial at level idx and tops[idx]
    its largest value. Moving a level from x to x + 1 takes one more
    user from each of its classes, and exhausting a level gives its x
    back, so every node sees the capacities a recursive search would.
    """
    remaining = dict(capacities)
    last = len(configs)
    counts = [0] * last
    tops = [0] * last
    nodes = 0
    idx, need = 0, d
    while True:
        nodes += 1
        if need == 0:
            vec = {configs[i]: counts[i] for i in range(last) if counts[i]}
            return vec, nodes
        if idx < last:
            # Descend with multiplicity 0; the need is unchanged.
            parts = configs[idx]
            top = need if parts else 0
            for m in parts:
                cap = remaining.get(m, 0)
                if cap < top:
                    top = cap
            tops[idx] = top
            idx += 1
            continue
        # Dead end: back up to the deepest level with a larger x left.
        while True:
            idx -= 1
            if idx < 0:
                return None, nodes
            x = counts[idx]
            if x < tops[idx]:
                for m in configs[idx]:
                    remaining[m] -= 1
                counts[idx] = x + 1
                need -= 1
                idx += 1
                break
            for m in configs[idx]:
                remaining[m] += x
            need += x
            counts[idx] = 0


def reconstruct_teams(
    pools: dict[int, Sequence[int]], vector: dict[tuple[int, ...], int]
) -> TeamSet:
    """Materialize teams from a feasible configuration vector.

    pools maps each class bitmask to its users in ascending index. Each
    team takes the lowest-index not-yet-used user of every class named
    by its configuration. Capacity feasibility guarantees the pools
    never run dry; running dry anyway means the vector did not come
    from ilp_feasible with these pools' sizes as capacities and is an
    internal error.
    """
    pools = {mask: list(users) for mask, users in pools.items()}
    teams = []
    for parts, count in vector.items():
        for _ in range(count):
            team = []
            for mask in parts:
                pool = pools.get(mask)
                if not pool:
                    raise RuntimeError(f"class {mask:#b} exhausted during reconstruction")
                team.append(pool.pop(0))
            teams.append(frozenset(team))
    return TeamSet(tuple(teams))


def ilp_solve(inst: Instance, *, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Configuration-counting solver, fixed-parameter in |P|.

    Whether d disjoint teams exist depends only on how many users each
    neighborhood class holds, never on which users they are. Enumerate
    the possible team shapes, then search for per-shape multiplicities
    that sum to d without overdrawing any class.
    """
    require_normalized(inst)
    stats = SolveStats(algorithm="ilp")
    if inst.num_resources == 0:
        return _trivial_sat(stats, inst.d)
    configs = enumerate_configurations(inst, limits=limits)
    classes = class_partition(inst)
    capacities = {mask: len(users) for mask, users in classes.items() if mask}
    vector, nodes = ilp_feasible(configs, capacities, inst.d)
    stats.nodes = nodes
    stats.extras["configurations"] = len(configs)
    if vector is None:
        return _unsat(stats)
    witness = reconstruct_teams(classes, vector)
    return Verdict(SAT, witness, stats)


# States one pivot_search call may enter before it raises BudgetError.
# Capped searches on a 2-vCPU x86 host took 1.4-2.1 us and 100-135 bytes
# (the failed-state memo) per state, so a call stays within about 1 s and
# 70 MB. The cap is per call: branch_solve may make sum over i <= s of
# (d*t)^i of them.
PIVOT_MAX_NODES = 500_000


def pivot_search(
    access: Sequence[int], p: int, d: int, t: int, *, replay: bool = False
) -> tuple[bool, list[set[int]] | None, int]:
    """pivot_solve's search on bare data: are there d disjoint teams of
    at most t users, drawn from the users with these access masks, that
    each reach all p >= 1 resources?

    Returns the answer, the teams as sets of indices into access when
    replay is asked for and the answer is SAT (else None), and the
    number of states entered.

    Teams are filled one at a time. The first unfinished team takes its
    lowest missing resource r, and the search branches over the unused
    users who reach r, in ascending index. Every step adds one member,
    so a path is at most d*t picks long and the tree has at most n^(d*t)
    leaves, however large p is. The search is complete: a solution team
    always holds an unused user who reaches its lowest missing resource
    and is not yet picked, so some branch stays inside it.

    A state is (team index, its missing resources, its size, the mask
    of users taken); what lies below a state depends on nothing else,
    so states that fail are memoized. The stack holds one frame per
    pick, with no Python recursion, and every state entered counts
    against PIVOT_MAX_NODES. Teams come back in the order they were
    filled.
    """
    full = (1 << p) - 1
    reach = [[u for u, mask in enumerate(access) if mask >> r & 1] for r in range(p)]
    limit = PIVOT_MAX_NODES
    nodes = 0
    failed: set[tuple[int, int, int, int]] = set()
    frames: list[tuple[tuple[int, int, int, int], Iterator[int]]] = []
    picks: list[int] = []  # picks[k]: the user taken at frames[k]
    state = (0, full, 0, 0)
    while True:
        nodes += 1
        if nodes > limit:
            raise BudgetError(f"node budget: pivot search exceeds {limit} nodes")
        if state[2] < t and state not in failed:
            demand = state[1]
            frames.append((state, iter(reach[(demand & -demand).bit_length() - 1])))
        # Take the next unused candidate of the deepest open frame.
        while frames:
            (j, demand, size, used), options = frames[-1]
            for u in options:
                if not used >> u & 1:
                    break
            else:
                failed.add(frames.pop()[0])
                continue
            break
        else:
            return False, None, nodes
        del picks[len(frames) - 1 :]
        picks.append(u)
        used |= 1 << u
        rest = demand & ~access[u]
        if rest:
            state = (j, rest, size + 1, used)
        elif j + 1 < d:
            state = (j + 1, full, 0, used)
        else:
            break
    if not replay:
        return True, None, nodes
    teams: list[set[int]] = [set() for _ in range(d)]
    for (frame_state, _), u in zip(frames, picks):
        teams[frame_state[0]].add(u)
    return True, teams, nodes


def pivot_solve(inst: Instance) -> Verdict:
    """Team search that branches on the lowest uncovered resource.

    pivot_search answers the question and keeps its picks for one team
    assignment, which becomes the witness.
    """
    require_normalized(inst)
    stats = SolveStats(algorithm="pivot")
    p, d = inst.num_resources, inst.d
    if p == 0:
        return _trivial_sat(stats, d)
    sat, teams, stats.nodes = pivot_search(inst.access, p, d, int(inst.t), replay=True)
    if not sat:
        return _unsat(stats)
    return Verdict(SAT, TeamSet(tuple(frozenset(team) for team in teams)), stats)
