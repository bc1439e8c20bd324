"""Core model for resiliency checking of access-control policies.

An instance is a bipartite authorization relation between users and
resources together with a resiliency query res(P, s, d, t): after any
set of at most s users becomes unavailable, there must still exist d
pairwise disjoint teams of at most t users each, every team jointly
covering all resources in P.

Users and resources are dense integer indices internally; per-user
access rights and the target set P are stored as bitmasks over the
resource indices. String labels are carried along so witnesses can be
reported in the caller's vocabulary.

Two functions cut instances down. restrict keeps a subset of users and
leaves the query as it is; only the oracle's survivor check calls it,
since the blocker searches run on bare data. project deletes users and
resources, renumbers densely, keeps labels, projects the target and
clamps t; normalize and every kernel reduction are projections.
class_partition groups users by the target resources they reach, the
neighborhood classes the solvers count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Iterable

INF = math.inf

SAT = "SAT"
UNSAT = "UNSAT"


class PolicyError(Exception):
    """Base class for errors raised by this package."""


class DegenerateInstanceError(PolicyError):
    """The query has an empty target set, res(P, ...) needs |P| >= 1."""


class PreconditionError(PolicyError):
    """A solver or transform was invoked outside its declared domain."""


class BudgetError(PolicyError):
    """A configured search budget would be exceeded; nothing was solved."""


def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(count))


@dataclass(frozen=True)
class Instance:
    """An authorization relation plus a resiliency query.

    access[u] is the bitmask of resources user u may access, target is
    the bitmask of resources the teams must cover (P), s is the removal
    budget, d the number of disjoint teams, t the team size cap (INF
    for unbounded).
    """

    access: tuple[int, ...]
    num_resources: int
    target: int
    s: int = 0
    d: int = 1
    t: int | float = INF
    user_labels: tuple[str, ...] = ()
    resource_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.access, tuple):
            object.__setattr__(self, "access", tuple(self.access))
        if not isinstance(self.user_labels, tuple):
            object.__setattr__(self, "user_labels", tuple(self.user_labels))
        if not isinstance(self.resource_labels, tuple):
            object.__setattr__(self, "resource_labels", tuple(self.resource_labels))
        full = (1 << self.num_resources) - 1
        if self.target & ~full:
            raise ValueError("target mask references resources out of range")
        for i, mask in enumerate(self.access):
            if mask & ~full:
                raise ValueError(f"access mask of user {i} out of range")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.s < 0:
            raise ValueError("s must be non-negative")
        if self.t != INF and (not isinstance(self.t, int) or self.t < 1):
            raise ValueError("t must be a positive integer or INF")
        if not self.user_labels:
            object.__setattr__(self, "user_labels", _default_labels("u", len(self.access)))
        if not self.resource_labels:
            object.__setattr__(self, "resource_labels", _default_labels("r", self.num_resources))
        if len(self.user_labels) != len(self.access):
            raise ValueError("one label per user required")
        if len(self.resource_labels) != self.num_resources:
            raise ValueError("one label per resource required")

    @property
    def n(self) -> int:
        return len(self.access)


@dataclass(frozen=True)
class TeamSet:
    """Witness for a satisfied s=0 query: d disjoint covering teams."""

    teams: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class BlockerSet:
    """Witness for an unsatisfied query: removing these users leaves no
    team set, so the policy is not resilient."""

    users: frozenset[int]


@dataclass
class SolveStats:
    algorithm: str
    nodes: int = 0
    extras: dict = field(default_factory=dict)


@dataclass
class Verdict:
    answer: str
    witness: TeamSet | BlockerSet | None
    stats: SolveStats

    @property
    def sat(self) -> bool:
        return self.answer == SAT


@dataclass(frozen=True)
class Limits:
    """Search budgets; solvers fail loudly with BudgetError beyond them.

    Every field must be non-negative; zero is a valid budget that admits
    nothing, or only the smallest case, of its solver.
    """

    dp_bits: int = 24
    max_classes: int = 4096
    oracle_users: int = 20
    max_configs: int = 200_000

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")


DEFAULT_LIMITS = Limits()


def neighborhood(inst: Instance, users: Iterable[int]) -> int:
    """Union of the access masks of the given users."""
    combined = 0
    for u in users:
        combined |= inst.access[u]
    return combined


def restrict(inst: Instance, users: Iterable[int]) -> Instance:
    """Sub-instance induced by the given users (query unchanged).

    Users are renumbered densely in ascending index order; labels are
    preserved so identities survive the renumbering.
    """
    kept = sorted(set(users))
    return Instance(
        access=tuple(inst.access[u] for u in kept),
        num_resources=inst.num_resources,
        target=inst.target,
        s=inst.s,
        d=inst.d,
        t=inst.t,
        user_labels=tuple(inst.user_labels[u] for u in kept),
        resource_labels=inst.resource_labels,
    )


def project(
    inst: Instance, users: Collection[int], resources: Collection[int]
) -> Instance:
    """Delete the given users and resources, renumbering densely.

    Surviving access masks and the target are projected onto the
    surviving resources, and labels keep the original identities. t is
    clamped to the number of surviving resources (an unbounded t
    becomes that number), which changes no answer: any covering team
    can be pruned to at most one user per target resource. With no
    resources left, t is kept.
    """
    kept = [r for r in range(inst.num_resources) if r not in resources]
    masks, labels = inst.access, inst.user_labels
    if users:
        kept_users = [u for u in range(inst.n) if u not in users]
        masks = tuple(masks[u] for u in kept_users)
        labels = tuple(labels[u] for u in kept_users)
    access = []
    for mask in masks:
        new_mask = 0
        for j, r in enumerate(kept):
            if mask >> r & 1:
                new_mask |= 1 << j
        access.append(new_mask)
    p = len(kept)
    target = 0
    for j, r in enumerate(kept):
        if inst.target >> r & 1:
            target |= 1 << j
    return Instance(
        access=tuple(access),
        num_resources=p,
        target=target,
        s=inst.s,
        d=inst.d,
        t=min(inst.t, p) if p else inst.t,
        user_labels=labels,
        resource_labels=tuple(inst.resource_labels[r] for r in kept),
    )


def normalize(inst: Instance) -> Instance:
    """Project the instance onto its target resources and clamp t.

    Resources outside P never constrain a team, so they are dropped and
    the survivors renumbered; original identities stay in the labels.
    An unbounded (or oversized) t is equivalent to t = |P| (see
    project). An empty target is rejected, res(P, ...) is undefined
    there.
    """
    if not inst.target:
        raise DegenerateInstanceError("target set P is empty")
    outside = [r for r in range(inst.num_resources) if not inst.target >> r & 1]
    return project(inst, (), outside)


def is_normalized(inst: Instance) -> bool:
    full = (1 << inst.num_resources) - 1
    if inst.target != full:
        return False
    if inst.t == INF:
        return False
    return inst.num_resources == 0 or inst.t <= inst.num_resources


def require_normalized(inst: Instance) -> None:
    if not is_normalized(inst):
        raise PreconditionError("solver requires a normalized instance (run normalize first)")


def class_partition(inst: Instance) -> dict[int, tuple[int, ...]]:
    """Users grouped by which target resources they can reach.

    Maps each occupied neighborhood bitmask C (= N(u) & P) to the
    ascending tuple of users in that class, keys in ascending order.
    """
    groups: dict[int, list[int]] = {}
    for u, mask in enumerate(inst.access):
        groups.setdefault(mask & inst.target, []).append(u)
    return {mask: tuple(groups[mask]) for mask in sorted(groups)}


def verify_witness(
    inst: Instance, verdict: Verdict, *, s0_memo: dict[int, Verdict] | None = None
) -> bool:
    """Check a verdict's witness against the instance, never trusting
    the solver that produced it.

    The witness must prove the verdict's answer. A TeamSet proves SAT
    only at s=0, and must consist of exactly d pairwise disjoint teams
    of at most t users whose joint access covers the target. A
    BlockerSet proves UNSAT only; it must fit the removal budget and
    its removal must leave the s=0 query unsatisfiable, which is
    established with the brute-force oracle.

    s0_memo is solve_rcp_bruteforce's memo of brute-force s=0 verdicts
    for this instance's users, keyed by the bitmask of surviving users.
    A blocker whose survivors it holds is decided by that verdict, and
    a miss is solved and stored in it. Only solve_s0_bruteforce writes
    entries, so the check stays independent of the witness's solver.
    """
    w = verdict.witness
    if w is None:
        raise ValueError("verdict carries no witness to verify")
    if isinstance(w, TeamSet):
        if verdict.answer != SAT or inst.s:
            return False
        if len(w.teams) != inst.d:
            return False
        seen: set[int] = set()
        for team in w.teams:
            if any(u < 0 or u >= inst.n for u in team):
                return False
            if len(team) > inst.t:
                return False
            if seen & team:
                return False
            seen |= team
            if neighborhood(inst, team) & inst.target != inst.target:
                return False
        return True
    if isinstance(w, BlockerSet):
        if verdict.answer != UNSAT or any(u < 0 or u >= inst.n for u in w.users):
            return False
        if len(w.users) > inst.s:
            return False
        from .oracle import _survivors_verdict

        memo = {} if s0_memo is None else s0_memo
        return not _survivors_verdict(inst, w.users, memo).sat
    return False
