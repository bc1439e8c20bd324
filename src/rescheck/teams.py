"""Solvers for the zero-removal case: find d disjoint covering teams.

Three exact searches on bare data, with different parameter sweet spots:

* dp_search: dynamic programming over (user prefix, per-team remaining
  demand and size), exponential only in d*|P|.
* ilp_feasible over enumerate_configurations: team configurations (sets
  of neighborhood classes) and a feasible multiplicity vector within
  class capacities, exponential only in |P|; reconstruct_teams draws
  its teams from per-class pools.
* pivot_search: branch on the users who reach a team's lowest missing
  resource, at most n^(d*t) leaves whatever |P| is; each call stops at
  PIVOT_MAX_NODES states.

Each search answers on bare access masks with (teams | None, nodes):
its teams as sets of positions among the masks, None exactly on UNSAT.
s0_core wraps the budget ladder rung's search as the one s=0 entry
point, a function of a removal set alone: core(removed_mask) screens
supply, keeps the first min(|class|, d) survivors of each class, answers
p = 0 with d empty teams, and otherwise runs the search on the kept
users, its teams remapped to the caller's numbering.

The blocker searches call it at every node, built pivot-first: a dp or
ilp core tries each call with pivot_search capped at PIVOT_FIRST_NODES
states first, and only on that cap falls back to the rung's own search.
A finished pivot search is exact, and a cap hit never reads as UNSAT.
Their --stats extras count the calls the attempt answered
(pivot_answered) and the ones that fell back (pivot_fallbacks).
solve_s0, behind the dp and ilp routes, answers with the same core at
the empty removal set, core(0), the blocker searches' root node, with
no pivot attempt: those routes are the pure s=0 references for
dp_search and ilp_feasible.

All treat s as 0; an UNSAT verdict carries the empty blocker set,
which is exactly the definition of the s=0 query failing.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

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
    require_normalized,
)


def dp_search(
    access: Sequence[int], p: int, d: int, t: int
) -> tuple[list[set[int]] | None, int]:
    """Are there d disjoint teams of at most t users, drawn from the
    users with these access masks, that each reach all p resources?

    Returns (teams | None, states): the teams as sets of indices into
    access, None exactly on UNSAT, and the number of memoized states.

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
    users a state needs, its floor, computed once per state from level
    masks: level k holds the resources missed by more than k teams, so
    a resource at level k needs k+1 distinct reachers, and the floor is
    the largest, over the levels, of the most leading users any
    resource of the level needs for that. Each level reads this from a
    table keyed by resource mask, filled as states turn masks up.

    The search runs on an explicit stack of open states, each trying
    "skip its user" first and then the teams that can take the user, in
    team order, so its depth, up to n, never meets the recursion limit.
    The first state with no demand left ends the search. Every state
    answered before it is False, so a replay of the memo from the root,
    taking at each state the first of those children whose answer is
    True, would walk exactly the open states: each records the team its
    user joins in its current child, and the teams are read off the
    stack. The open states count as memoized, True.
    """
    n = len(access)
    full = (1 << p) - 1
    cap_bits = t.bit_length()
    size_mask = (1 << cap_bits) - 1
    width = p + cap_bits
    field_mask = (1 << width) - 1
    shifts = range((d - 1) * width, -1, -width)  # team fields, last team first
    # The root state: every team misses all of P and has no member. Its
    # set bits are the demand bits of every state.
    initial = 0
    for shift in shifts:
        initial |= full << shift

    # floors[k][mask], for a mask of resources each reached by more than
    # k users: how many leading users it takes for k+1 of them to reach
    # every resource of mask. levels[k] holds the resources reached by
    # more than k of the users seen so far; a user's resources climb the
    # levels they already hold and settle on the first one they do not,
    # which fills the one-resource masks. Other masks are filled as
    # states turn them up.
    floors: list[dict[int, int]] = [{} for _ in range(d)]
    levels = [0] * d
    for i, nbr in enumerate(access, 1):
        lift = nbr & full
        for k, table in enumerate(floors):
            held = levels[k]
            new = lift & ~held
            levels[k] = held | new
            while new:
                low = new & -new
                table[low] = i
                new ^= low
            lift &= held
            if not lift:
                break
        if d and levels[-1] == full:
            break
    uppers = range(d - 1, 0, -1)
    index_bits = n.bit_length()

    def shape(state: int) -> tuple[int, int]:
        # The state with its team fields sorted, which poses the same
        # question because teams are interchangeable, shifted clear of
        # the prefix length, and its floor: the fewest leading users
        # that can still serve it, n+1 when none can.
        canonical = least = 0
        missed = [0] * d  # missed[k]: resources missed by more than k teams
        for field in sorted([state >> shift & field_mask for shift in shifts]):
            canonical = canonical << width | field
            demand = field & full
            if demand:
                if field >> p >= t:
                    least = n + 1
                for k in uppers:
                    missed[k] |= demand & missed[k - 1]
                missed[0] |= demand
        for table, held, mask in zip(floors, levels, missed):
            if not mask:
                break
            floor = table.get(mask)
            if floor is None:
                if mask & ~held:
                    floor = n + 1  # too few users reach some resource
                else:
                    floor, rest = 0, mask
                    while rest:
                        low = rest & -rest
                        floor = max(floor, table[low])
                        rest ^= low
                table[mask] = floor
            if floor > least:
                least = floor
        return canonical << index_bits, least

    def placements(i: int, state: int) -> list[tuple[int, int]]:
        # The children of (i, state) that place user i-1 into a team, as
        # (team, child) with the first team last, to be popped in order.
        nbr = access[i - 1]
        found = []
        j = d
        for shift in shifts:
            j -= 1
            helps = state >> shift & nbr & full
            if helps and state >> (shift + p) & size_mask < t:
                found.append((j, state - (helps << shift) + (1 << (shift + p))))
        return found

    failed: set[int] = set()  # memo keys of the states answered False
    shapes: dict[int, tuple[int, int]] = {}
    # Open states as [i, state, memo key, placements left, team]: the
    # placements start once skipping user i-1 has failed, and team is
    # the one user i-1 joins in the current child, -1 while skipping.
    stack: list[list] = []
    i, state = n, initial
    while state & initial:
        if i:
            known = shapes.get(state)
            if known is None:
                known = shapes[state] = shape(state)
            canonical, least = known
            key = canonical | i
            if key not in failed:
                if i >= least:
                    stack.append([i, state, key, None, -1])
                    i -= 1
                    continue
                failed.add(key)
        # (i, state) is False; back up to the deepest open state with a
        # child left to try.
        while stack:
            top = stack[-1]
            left = top[3]
            if left is None:
                left = top[3] = placements(top[0], top[1])
            if left:
                top[4], state = left.pop()
                i = top[0] - 1
                break
            failed.add(top[2])
            stack.pop()
        else:
            return None, len(failed)
    teams: list[set[int]] = [set() for _ in range(d)]
    for frame in stack:
        if frame[4] >= 0:
            teams[frame[4]].add(frame[0] - 1)
    return teams, len(failed) + len(stack)


def require_class_budget(inst: Instance, limits: Limits, budget: str) -> None:
    """Raise BudgetError, naming the caller's budget, when inst's 2^|P|
    neighborhood classes exceed limits.max_classes."""
    if (1 << inst.num_resources) > limits.max_classes:
        raise BudgetError(
            f"{budget} budget: 2^|P| = {1 << inst.num_resources} classes "
            f"exceeds {limits.max_classes}"
        )


def enumerate_configurations(
    inst: Instance, *, limits: Limits = DEFAULT_LIMITS
) -> list[tuple[int, ...]]:
    """All team shapes: sets of at most t distinct occupied neighborhood
    classes whose union covers the target.

    A configuration is an ascending tuple of class bitmasks, drawn from
    inst.classes. Listed by part count, then lexicographically. The
    number of candidate families examined is budgeted.
    """
    require_normalized(inst)
    require_class_budget(inst, limits, "configuration")
    masks = list(inst.classes)
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
    A class that capacities leave out has capacity 0.
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
            if x:
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


# States one pivot_search call may enter before it raises BudgetError.
# Capped searches on a 2-vCPU x86 host took 1.4-2.1 us and 100-135 bytes
# (the failed-state memo) per state, so a call stays within about 1 s and
# 70 MB. The cap is per call: branch_solve may make sum over i <= s of
# (d*t)^i of them.
PIVOT_MAX_NODES = 500_000

# States the pivot attempt of a pivot-first core (s0_core) may enter
# before its call falls back to the rung's own search. All attempts on
# perfbench's seed-1 and seed-101 solve-resilience corpora finished
# within it (637 under auto, 1,288 under branch, 326 under reduced); an
# attempt that reaches it costs about 2 ms.
PIVOT_FIRST_NODES = 1_000


def pivot_search(
    access: Sequence[int], p: int, d: int, t: int, limit: int | None = None
) -> tuple[list[set[int]] | None, int]:
    """Are there d disjoint teams of at most t users, drawn from the
    users with these access masks, that each reach all p >= 1 resources?

    Returns (teams | None, nodes): the teams as sets of indices into
    access, None exactly on UNSAT, and the number of states entered.

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
    against limit, PIVOT_MAX_NODES by default. Teams come back in the
    order they were filled. Each resource's list of reachers is built
    when a state first branches on it.
    """
    full = (1 << p) - 1
    reach: list[list[int] | None] = [None] * p
    if limit is None:
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
            r = (demand & -demand).bit_length() - 1
            users = reach[r]
            if users is None:
                users = reach[r] = [u for u, mask in enumerate(access) if mask >> r & 1]
            frames.append((state, iter(users)))
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
            return None, nodes
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
    teams: list[set[int]] = [set() for _ in range(d)]
    for (frame_state, _), u in zip(frames, picks):
        teams[frame_state[0]].add(u)
    return teams, nodes


def s0_core(
    inst: Instance,
    rung: str,
    limits: Limits,
    extras: dict[str, int] | None = None,
    pivot_counts: dict[str, int] | None = None,
) -> Callable[[int], tuple[TeamSet | None, int]]:
    """The s=0 core of a budget ladder rung: "dp", "ilp" or "pivot".

    core(removed_mask) answers the s=0 query on the users left after
    removed_mask, a bitmask of users, as (teams | None, nodes): the teams
    in inst's numbering, None exactly on UNSAT, and the search's node
    count. The answer depends only on how many survivors each
    neighborhood class keeps, capped at d, so one pass over inst.classes
    keeps the first min(|class|, d) survivors of each. Every team
    reaches every resource, so d teams need d distinct survivors who
    reach each one: a resource with fewer kept reachers is UNSAT with no
    search and 0 nodes. A class keeping fewer than d keeps all its
    survivors, so the kept users decide this exactly. Otherwise the rung's search runs on the kept
    users' masks in ascending index; no search picks a user outside that
    set, so its teams are the ones it would find on all survivors. ilp
    pools the positions by class mask, takes the pool sizes as the
    capacities and draws each team from the lowest positions of its
    classes; its one configuration list, made on the first call that
    runs it, serves every later one. With no target resource, d empty
    teams answer every call, before any budget is read.

    pivot_counts, when given, builds the core pivot-first, as the
    blocker searches do: on the dp and ilp rungs, every search first
    runs pivot_search capped at PIVOT_FIRST_NODES states. An attempt
    that finishes is exact and answers the call; one that hits the cap
    says nothing, and the rung's own search answers instead. The nodes
    are those of the search that answered, and pivot_counts gets how
    many calls the attempt answered (pivot_answered) and how many fell
    back (pivot_fallbacks).

    A dp rung past dp_bits, or an ilp rung past max_classes, raises
    BudgetError. extras, when given, get the rung's size: dp_bits, or
    the number of configurations.
    """
    access, p, d, t = inst.access, inst.num_resources, inst.d, int(inst.t)
    if not p:
        # Empty target: d empty teams cover it vacuously.
        empty = TeamSet(tuple(frozenset() for _ in range(d)))
        return lambda removed_mask: (empty, 0)
    if rung == "dp":
        if d * p > limits.dp_bits:
            raise BudgetError(
                f"dp budget: d*|P| = {d * p} exceeds {limits.dp_bits} bits; "
                "use ilp or raise --dp-bits"
            )
        if extras is not None:
            extras["dp_bits"] = d * p
    elif rung == "ilp":
        require_class_budget(inst, limits, "configuration")
    configs: list[tuple[int, ...]] | None = None

    def count_classes(masks: list[int], p: int, d: int, t: int):
        nonlocal configs
        if configs is None:
            configs = enumerate_configurations(inst, limits=limits)
            if extras is not None:
                extras["configurations"] = len(configs)
        # Each class's positions, ascending; access masks are class masks
        # on a normalized instance.
        pools: dict[int, list[int]] = {}
        for i, mask in enumerate(masks):
            pools.setdefault(mask, []).append(i)
        vector, nodes = ilp_feasible(configs, {m: len(g) for m, g in pools.items()}, d)
        return (None if vector is None else reconstruct_teams(pools, vector).teams), nodes

    search = {"dp": dp_search, "ilp": count_classes, "pivot": pivot_search}[rung]
    if pivot_counts is not None and rung != "pivot":
        search = _pivot_attempt(search, pivot_counts)
    classes, target = inst.classes, inst.target

    def core(removed_mask: int) -> tuple[TeamSet | None, int]:
        kept: list[int] = []
        # reach[k] is the set of resources reached by more than k kept
        # users of the classes seen so far; a class keeping count users
        # lifts its resources count levels, top level first so each
        # reads the old level below.
        reach = [0] * d
        for mask, users in classes.items():
            count = 0
            for u in users:
                if not removed_mask >> u & 1:
                    kept.append(u)
                    count += 1
                    if count == d:
                        break
            for k in range(d - 1, -1, -1):
                reach[k] |= mask if k < count else mask & reach[k - count]
        if reach[-1] != target:
            return None, 0
        kept.sort()
        found, nodes = search([access[u] for u in kept], p, d, t)
        if found is None:
            return None, nodes
        return TeamSet(tuple(frozenset(kept[i] for i in team) for team in found)), nodes

    return core


def _pivot_attempt(fallback: Callable, counts: dict[str, int]) -> Callable:
    # fallback's search behind a pivot attempt capped at
    # PIVOT_FIRST_NODES states; a cap hit falls back, never reads UNSAT.
    counts["pivot_answered"] = 0
    counts["pivot_fallbacks"] = 0

    def search(masks: list[int], p: int, d: int, t: int):
        try:
            found = pivot_search(masks, p, d, t, PIVOT_FIRST_NODES)
        except BudgetError:
            counts["pivot_fallbacks"] += 1
            return fallback(masks, p, d, t)
        counts["pivot_answered"] += 1
        return found

    return search


def solve_s0(inst: Instance, rung: str, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """The s=0 verdict of a rung's core on every user, core(0), with no
    pivot attempt. The verdict's stats carry the core's node count and,
    under extras, its rung's size.
    """
    require_normalized(inst)
    stats = SolveStats(algorithm=rung)
    found, stats.nodes = s0_core(inst, rung, limits, stats.extras)(0)
    if found is None:
        return Verdict(UNSAT, BlockerSet(frozenset()), stats)
    return Verdict(SAT, found, stats)


def dp_solve(inst: Instance, *, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Team existence via DP over user prefixes and residual demands;
    the demand bit budget d*|P| is checked up front."""
    return solve_s0(inst, "dp", limits)


def ilp_solve(inst: Instance, *, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Configuration-counting solver, fixed-parameter in |P|.

    Whether d disjoint teams exist depends only on how many users each
    neighborhood class holds, never on which users they are. Enumerate
    the possible team shapes, then search for per-shape multiplicities
    that sum to d without overdrawing any class.
    """
    return solve_s0(inst, "ilp", limits)
