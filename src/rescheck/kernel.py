"""Kernelization for the zero-removal, unbounded-team-size case.

Two reductions shrink an instance without changing its answer:

* Rule 1 deletes users with no access to any target resource; they can
  never contribute to a team.
* Rule 2 finds resources X and users Y such that Y's access stays
  inside X and a matching hands every resource of X exactly d private
  users from Y. Those d users can always stand in for whatever X
  coverage a team set needs, so X and Y can be deleted wholesale.

Rule 2 applies whenever |U| >= d * |P|, so the loop ends with fewer
than d * |P| users. Every deletion is logged in a trace; replaying the
trace reproduces the kernel, and a team set found on the kernel can be
lifted back to the original instance by reading the trace backwards.

Both rules delete through policy.project, the projection normalize
uses, so t is re-clamped to the shrunken target after every step.
Finite t is refused: deleting X can break teams that relied on size
slack, only the unbounded regime (t >= |P|, i.e. t normalized to |P|)
is safe here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .policy import (
    Instance,
    PreconditionError,
    TeamSet,
    project,
    require_normalized,
)


@dataclass(frozen=True)
class ExpansionWitness:
    """Resources x, users y, and the matching pairs (resource, user)
    that give every resource of x exactly d private users of y."""

    x: frozenset[int]
    y: frozenset[int]
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class KernelStep:
    """One applied reduction, recorded by label so it can be replayed
    on the original instance regardless of index shifts."""

    rule: int
    users: tuple[str, ...]
    resources: tuple[str, ...] = ()
    expansion: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class KernelTrace:
    steps: tuple[KernelStep, ...]
    trivially_sat: bool = False


def rule1_strip(inst: Instance) -> tuple[Instance, KernelTrace]:
    """Drop users with no access to any target resource."""
    require_normalized(inst)
    dead = {u for u, mask in enumerate(inst.access) if not mask & inst.target}
    if not dead:
        return inst, KernelTrace(())
    step = KernelStep(rule=1, users=tuple(inst.user_labels[u] for u in sorted(dead)))
    return project(inst, dead, ()), KernelTrace((step,))


def find_d_expansion(inst: Instance, d: int) -> ExpansionWitness | None:
    """Locate resources X and users Y for Rule 2, or None when the user
    count is below d * |P| and the guarantee lapses.

    Flow formulation: each resource may take up to d users, each user
    serves at most one resource, edges follow the access relation. On a
    candidate resource set, users are admitted only if their whole
    access lies inside the candidate. After a maximum matching, any
    resource short of d users, and everything reachable from one by
    alternating paths, cannot be in X; dropping that reachable region
    and rematching reaches a fixed point where every remaining resource
    is saturated by users confined to the remainder. The counting
    argument guarantees the fixed point is nonempty while the user
    supply held at entry.
    """
    require_normalized(inst)
    n, p = inst.n, inst.num_resources
    for u, mask in enumerate(inst.access):
        if not mask:
            raise PreconditionError("find_d_expansion requires Rule 1 applied first")
    if n < d * p:
        return None

    alive = (1 << p) - 1
    while alive:
        users_in = [u for u in range(n) if inst.access[u] and not inst.access[u] & ~alive]
        adj: dict[int, list[int]] = {r: [] for r in range(p) if alive >> r & 1}
        for u in users_in:
            mask = inst.access[u]
            for r in adj:
                if mask >> r & 1:
                    adj[r].append(u)
        match: dict[int, int] = {}
        load: dict[int, int] = {r: 0 for r in adj}
        # An augmenting path nets exactly one unit at its root; every
        # intermediate resource loses and regains a user.
        for r in sorted(adj):
            while load[r] < d and _augment(adj, match, r):
                load[r] += 1

        unsaturated = [r for r in adj if load[r] < d]
        if not unsaturated:
            pairs = tuple(sorted((r, u) for u, r in match.items()))
            witness = ExpansionWitness(frozenset(adj), frozenset(match), pairs)
            _validate_expansion(inst, witness, d)
            return witness

        # Alternating-path reachability from the unsaturated resources.
        reach_r = set(unsaturated)
        reach_u: set[int] = set()
        frontier = list(unsaturated)
        while frontier:
            r = frontier.pop()
            for u in adj[r]:
                if u in reach_u or match.get(u) == r:
                    continue
                reach_u.add(u)
                owner = match.get(u)
                if owner is not None and owner not in reach_r:
                    reach_r.add(owner)
                    frontier.append(owner)
        new_alive = alive
        for r in reach_r:
            new_alive &= ~(1 << r)
        if new_alive == alive:  # pragma: no cover - reach_r always includes unsaturated
            return None
        alive = new_alive
    return None


def _augment(adj: dict[int, list[int]], match: dict[int, int], root: int) -> bool:
    # Depth-first search for an augmenting path from resource root, which
    # match (user -> resource) then takes: the path's free user goes to
    # the last resource, and every matched user on it to the resource
    # before its owner. Users are tried in adj order and each at most
    # once per search. The stack holds (resource, its untried users, the
    # user whose owner it is), so path length is not bounded by the
    # recursion limit.
    visited: set[int] = set()
    stack = [(root, iter(adj[root]), -1)]
    while stack:
        r, users, _ = stack[-1]
        for u in users:
            if u in visited:
                continue
            visited.add(u)
            owner = match.get(u)
            if owner is None:
                match[u] = r
                for i in range(len(stack) - 1, 0, -1):
                    match[stack[i][2]] = stack[i - 1][0]
                return True
            stack.append((owner, iter(adj[owner]), u))
            break
        else:
            stack.pop()
    return False


def _validate_expansion(inst: Instance, w: ExpansionWitness, d: int) -> None:
    if not w.x or not w.y:
        raise ValueError("expansion witness must name resources and users")
    per_resource: dict[int, list[int]] = {r: [] for r in w.x}
    seen_users: set[int] = set()
    for r, u in w.pairs:
        if r not in per_resource:
            raise ValueError(f"expansion pair names resource {r} outside X")
        if u not in w.y:
            raise ValueError(f"expansion pair names user {u} outside Y")
        if u in seen_users:
            raise ValueError(f"user {u} matched to two resources")
        if not inst.access[u] >> r & 1:
            raise ValueError(f"expansion pair ({r}, {u}) is not an authorization")
        seen_users.add(u)
        per_resource[r].append(u)
    for r, users in per_resource.items():
        if len(users) != d:
            raise ValueError(f"resource {r} has {len(users)} matched users, needs {d}")
    x_mask = 0
    for r in w.x:
        x_mask |= 1 << r
    for u in w.y:
        if inst.access[u] & ~x_mask:
            raise ValueError(f"user {u} reaches outside X, deleting it is unsound")


def rule2_apply(inst: Instance, witness: ExpansionWitness) -> tuple[Instance, KernelTrace]:
    """Delete the witness's resources and users; rejects bad witnesses."""
    require_normalized(inst)
    _validate_expansion(inst, witness, inst.d)
    step = KernelStep(
        rule=2,
        users=tuple(inst.user_labels[u] for u in sorted(witness.y)),
        resources=tuple(inst.resource_labels[r] for r in sorted(witness.x)),
        expansion=tuple(
            (inst.resource_labels[r], inst.user_labels[u]) for r, u in witness.pairs
        ),
    )
    return project(inst, set(witness.y), set(witness.x)), KernelTrace((step,))


def kernelize(inst: Instance) -> tuple[Instance, KernelTrace]:
    """Shrink to fewer than d * |P| users; answer preserved.

    Requires a normalized instance with s=0 and unbounded team size
    (t = |P| after normalization). If the target empties along the way
    every remaining user is stripped and the kernel is trivially SAT,
    which the trace records.
    """
    require_normalized(inst)
    if inst.s != 0:
        raise PreconditionError("kernelize requires s=0")
    if inst.t < inst.num_resources:
        raise PreconditionError(
            "kernelize requires unbounded team size (t >= |P|); "
            "finite t does not admit this reduction"
        )
    steps: list[KernelStep] = []
    current, trace = rule1_strip(inst)
    steps.extend(trace.steps)
    while current.num_resources and current.n >= current.d * current.num_resources:
        witness = find_d_expansion(current, current.d)
        if witness is None:  # pragma: no cover - supply is checked by the loop guard
            raise RuntimeError("expansion extraction failed despite user supply")
        current, trace = rule2_apply(current, witness)
        steps.extend(trace.steps)
        current, trace = rule1_strip(current)
        steps.extend(trace.steps)
    return current, KernelTrace(tuple(steps), trivially_sat=current.num_resources == 0)


def replay(inst: Instance, trace: KernelTrace) -> Instance:
    """Apply a recorded trace to the instance it was recorded from.

    Deletions are resolved by label, so the result is structurally
    identical to the kernel the trace came from.
    """
    current = inst
    for step in trace.steps:
        user_idx = {label: i for i, label in enumerate(current.user_labels)}
        res_idx = {label: i for i, label in enumerate(current.resource_labels)}
        try:
            users = {user_idx[label] for label in step.users}
            resources = {res_idx[label] for label in step.resources}
        except KeyError as missing:
            raise ValueError(f"trace names unknown label {missing}") from None
        current = project(current, users, resources)
    return current


def lift_teams(
    original: Instance, kernel: Instance, trace: KernelTrace, teams: TeamSet
) -> TeamSet:
    """Translate a kernel team set into one for the original instance.

    Undoing a Rule 2 step hands team i the i-th matched user of every
    deleted resource, restoring coverage of exactly the resources the
    step removed; Rule 1 steps need nothing. Disjointness survives
    because matched users are pairwise distinct and no longer present
    anywhere else.
    """
    if len(teams.teams) != original.d:
        raise ValueError("team count does not match the instance's d")
    label_teams = [
        {kernel.user_labels[u] for u in team} for team in teams.teams
    ]
    for step in reversed(trace.steps):
        if step.rule != 2:
            continue
        by_resource: dict[str, list[str]] = {}
        for r_label, u_label in step.expansion:
            by_resource.setdefault(r_label, []).append(u_label)
        for members in by_resource.values():
            if len(members) != original.d:
                raise ValueError("trace expansion does not provide d users per resource")
            for i, u_label in enumerate(members):
                label_teams[i].add(u_label)
    user_idx = {label: i for i, label in enumerate(original.user_labels)}
    try:
        return TeamSet(
            tuple(frozenset(user_idx[label] for label in team) for team in label_teams)
        )
    except KeyError as missing:
        raise ValueError(f"lifted team names unknown user {missing}") from None
