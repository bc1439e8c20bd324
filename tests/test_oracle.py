"""Reference brute-force solvers: frozen cases and sanity laws."""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import find_minimal_blocker, instances, norm
from rescheck import (
    INF,
    SAT,
    UNSAT,
    BlockerSet,
    BudgetError,
    Instance,
    PreconditionError,
    SolveStats,
    TeamSet,
    Verdict,
    normalize,
    require_normalized,
    restrict,
    solve_rcp_bruteforce,
    solve_s0_bruteforce,
    verify_witness,
)
from rescheck.oracle import _survivors_verdict


def recursive_s0(inst: Instance) -> Verdict:
    """The s=0 oracle as a recursion, one level per user: the reference
    that solve_s0_bruteforce's explicit stack must match in answer,
    teams and node count."""
    require_normalized(inst)
    stats = SolveStats(algorithm="oracle-s0")
    n, d, t = inst.n, inst.d, int(inst.t)
    access = inst.access
    suffix_union = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | access[i]
    members: list[list[int]] = [[] for _ in range(d)]
    failed: set[tuple] = set()

    def search(i, states):
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
        tried = set()
        for j in range(d):
            demand, size = states[j]
            if size >= t or not demand & nbr or (demand, size) in tried:
                continue
            tried.add((demand, size))
            child = states[:j] + ((demand & ~nbr, size + 1),) + states[j + 1 :]
            members[j].append(i)
            if search(i + 1, child):
                return True
            members[j].pop()
        if search(i + 1, states):
            return True
        failed.add(key)
        return False

    if not search(0, tuple((inst.target, 0) for _ in range(d))):
        return Verdict(UNSAT, BlockerSet(frozenset()), stats)
    teams = sorted((frozenset(m) for m in members), key=lambda team: tuple(sorted(team)))
    return Verdict(SAT, TeamSet(tuple(teams)), stats)


class TestSolveS0:
    def test_single_user_covering_everything(self):
        x = norm([[0, 1]], p=2, d=1, t=1)
        v = solve_s0_bruteforce(x)
        assert v.sat
        assert v.witness.teams == (frozenset({0}),)

    def test_team_size_cap_binds(self):
        # both resources are held, but never by one user
        x = norm([[0], [1]], p=2, d=1, t=1)
        v = solve_s0_bruteforce(x)
        assert not v.sat
        assert v.witness == BlockerSet(frozenset())

    def test_two_disjoint_teams(self):
        x = norm([[0, 1], [0], [1]], p=2, d=2, t=2)
        v = solve_s0_bruteforce(x)
        assert v.sat
        assert v.witness.teams == (frozenset({0}), frozenset({1, 2}))
        assert verify_witness(x, v)

    def test_requires_normalized_input(self):
        raw = Instance(access=(1,), num_resources=1, target=1, t=INF)
        with pytest.raises(PreconditionError):
            solve_s0_bruteforce(raw)

    def test_user_guard_and_override(self):
        x = norm([[0]] * 21, p=1, d=1, t=1)
        with pytest.raises(BudgetError):
            solve_s0_bruteforce(x)
        assert solve_s0_bruteforce(x, user_limit=None).sat
        # the guard counts the users searched
        assert solve_s0_bruteforce(x, kept=(1 << 20) - 1).sat

    def test_ignores_removal_budget(self):
        # s plays no role in the s=0 question
        x = norm([[0]], p=1, s=5, d=1, t=1)
        assert solve_s0_bruteforce(x).sat


    def test_many_users_search_without_recursion(self):
        # 2998 users reach only r0 and one reaches r1: two teams need r1
        # twice. One recursion level per user would pass Python's limit.
        x = norm([[0]] * 2998 + [[1]], p=2, d=2, t=2)
        v = solve_s0_bruteforce(x, user_limit=None)
        assert not v.sat
        assert v.stats.nodes == 14_987  # the recursive reference's count


class TestSolveRcp:
    def test_single_point_of_failure(self):
        x = norm([[0, 1]], p=2, s=1, d=1, t=2)
        v = solve_rcp_bruteforce(x)
        assert not v.sat
        assert v.witness == BlockerSet(frozenset({0}))
        assert verify_witness(x, v)

    def test_redundant_user_restores_resilience(self):
        x = norm([[0, 1], [0, 1]], p=2, s=1, d=1, t=2)
        v = solve_rcp_bruteforce(x)
        assert v.sat
        assert v.witness is None  # no single team certifies an s >= 1 answer

    def test_blocker_targets_the_scarce_resource(self):
        # r1 is covered only by u2
        x = norm([[0], [0], [1]], p=2, s=1, d=1, t=2)
        v = solve_rcp_bruteforce(x)
        assert not v.sat
        assert v.witness == BlockerSet(frozenset({2}))

    def test_s0_carries_team_witness(self):
        x = norm([[0], [1]], p=2, s=0, d=1, t=2)
        v = solve_rcp_bruteforce(x)
        assert v.sat
        assert v.witness.teams == (frozenset({0, 1}),)

    def test_unsat_at_s0_reports_empty_blocker(self):
        x = norm([[0]], p=2, s=2, d=1, t=2)
        v = solve_rcp_bruteforce(x)
        assert not v.sat
        assert v.witness == BlockerSet(frozenset())

    def test_memo_is_shared_across_calls(self):
        x = norm([[0, 1], [0], [1]], p=2, s=1, d=1, t=2)
        memo: dict[int, Verdict] = {}
        first = solve_rcp_bruteforce(x, s0_memo=memo)
        filled = len(memo)
        second = solve_rcp_bruteforce(x, s0_memo=memo)
        assert filled > 0 and len(memo) == filled
        assert first.answer == second.answer

    def test_user_guard(self):
        x = norm([[0]] * 21, p=1, s=0, d=1, t=1)
        with pytest.raises(BudgetError):
            solve_rcp_bruteforce(x)


class TestMinimalBlocker:
    def test_resilient_instance_has_none(self):
        x = norm([[0], [0]], p=1, s=1, d=1, t=1)
        assert find_minimal_blocker(x) is None

    def test_shrinks_a_padded_blocker(self):
        # {u0, u1} blocks, but {u0} already does
        x = norm([[0, 1], [0]], p=2, s=2, d=1, t=2)
        padded = Verdict("UNSAT", BlockerSet(frozenset({0, 1})), SolveStats("x"))
        minimal = find_minimal_blocker(x, verdict=padded)
        assert minimal == BlockerSet(frozenset({0}))

    def test_oracle_blockers_are_already_minimal(self):
        x = norm([[0], [0], [1]], p=2, s=1, d=1, t=2)
        v = solve_rcp_bruteforce(x)
        assert find_minimal_blocker(x, verdict=v) == v.witness


@settings(max_examples=60, deadline=None)
@given(instances(max_n=6, max_p=3, max_d=2))
def test_rcp_agrees_with_s0_when_s_is_zero(x):
    y = replace(normalize(x), s=0)
    assert solve_rcp_bruteforce(y).sat == solve_s0_bruteforce(y).sat


@settings(max_examples=60, deadline=None)
@given(instances(max_n=6, max_p=3, max_d=2))
def test_resilience_is_monotone_in_the_budget(x):
    y = normalize(x)
    if solve_rcp_bruteforce(replace(y, s=y.s + 1)).sat:
        assert solve_rcp_bruteforce(y).sat


@settings(max_examples=60, deadline=None)
@given(instances(max_n=6, max_p=3, max_d=2))
def test_resilience_is_monotone_in_team_size(x):
    y = normalize(x)
    if y.t >= y.num_resources:
        return
    if solve_rcp_bruteforce(y).sat:
        assert solve_rcp_bruteforce(replace(y, t=y.t + 1)).sat


@settings(max_examples=60, deadline=None)
@given(instances(max_n=6, max_p=3, max_d=2))
def test_witnesses_always_verify(x):
    y = normalize(x)
    v = solve_rcp_bruteforce(y)
    if v.witness is not None:
        assert verify_witness(y, v)


@settings(max_examples=100, deadline=None)
@given(instances(max_n=8, max_p=3, max_s=3, max_d=2), st.data())
def test_blocker_check_agrees_with_and_without_the_oracle_memo(x, data):
    y = normalize(x)
    size = data.draw(st.integers(0, min(y.s, y.n)))
    users = data.draw(st.permutations(range(y.n)))[:size]
    v = Verdict("UNSAT", BlockerSet(frozenset(users)), SolveStats("x"))
    prefilled: dict[int, Verdict] = {}
    solve_rcp_bruteforce(y, s0_memo=prefilled)
    expected = verify_witness(y, v)
    assert verify_witness(y, v, s0_memo=prefilled) == expected
    assert verify_witness(y, v, s0_memo={}) == expected


@settings(max_examples=300, deadline=None)
@given(instances(max_n=9, max_p=3, max_d=3))
def test_s0_stack_search_matches_the_recursion(x):
    y = normalize(x)
    got, expected = solve_s0_bruteforce(y), recursive_s0(y)
    assert (got.answer, got.witness, got.stats.nodes) == (
        expected.answer, expected.witness, expected.stats.nodes
    )


@settings(max_examples=300, deadline=None)
@given(instances(max_n=9, max_p=3, max_d=3), st.data())
def test_kept_users_search_as_their_restriction(x, data):
    # same answer and node count as the search of restrict(y, users),
    # with the teams renumbered into y's users
    y = normalize(x)
    kept = data.draw(st.integers(0, (1 << y.n) - 1))
    users = [u for u in range(y.n) if kept >> u & 1]
    got, sub = solve_s0_bruteforce(y, kept=kept), solve_s0_bruteforce(restrict(y, users))
    assert (got.answer, got.stats.nodes) == (sub.answer, sub.stats.nodes)
    if sub.sat:
        renumbered = tuple(frozenset(users[i] for i in team) for team in sub.witness.teams)
        assert got.witness == TeamSet(renumbered)
    else:
        assert got.witness == sub.witness


@settings(max_examples=200, deadline=None)
@given(instances(max_n=7, max_p=3, max_s=3, max_d=2), st.data())
def test_a_shared_memo_answers_every_survivor_set_as_its_own_search(x, data):
    # A memo miss may be answered SAT from a team set an earlier search
    # of the same memo found; the answer must still be the survivor
    # set's own, and every SAT entry's teams must be a team set of
    # users that survive in that entry.
    y = normalize(x)
    removals = [r for k in range(min(y.s, y.n) + 1) for r in combinations(range(y.n), k)]
    memo: dict[int, Verdict] = {}
    for removed in data.draw(st.permutations(removals)):
        kept = [u for u in range(y.n) if u not in removed]
        want = solve_s0_bruteforce(restrict(y, kept), user_limit=None)
        assert _survivors_verdict(y, removed, memo).answer == want.answer
    as_s0 = replace(y, s=0)
    for kept_mask, verdict in memo.items():
        if verdict.sat:
            assert verify_witness(as_s0, verdict)
            assert all(kept_mask >> u & 1 for team in verdict.witness.teams for u in team)
