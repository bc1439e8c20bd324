"""Fixed-parameter s=0 solvers: DP and configuration counting."""

from __future__ import annotations

import gc
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instances, norm
from rescheck import (
    INF,
    SAT,
    BudgetError,
    Instance,
    Limits,
    SolveStats,
    TeamSet,
    Verdict,
    class_partition,
    dp_solve,
    enumerate_configurations,
    ilp_feasible,
    ilp_solve,
    normalize,
    reconstruct_teams,
    solve_s0_bruteforce,
    teams,
    verify_witness,
)
from rescheck.policy import restrict
from rescheck.teams import solve_s0


def _no_limit_change(limit: int) -> None:
    raise AssertionError("the recursion limit was changed")


def _representatives(inst: Instance, users: list[int]) -> list[int]:
    # The first min(|class|, d) of the given users in every occupied class.
    taken: dict[int, int] = {}
    reps = []
    for u in users:
        mask = inst.access[u] & inst.target
        if mask and taken.get(mask, 0) < inst.d:
            taken[mask] = taken.get(mask, 0) + 1
            reps.append(u)
    return reps


def _mapped(witness, kept: list[int]) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(kept[i] for i in team) for team in witness.teams)


def _replay_dp_search(access, p, d, t, *, replay=False):
    # The search that dp_search replaced, kept as the reference for its
    # answers, teams and state counts: it finds the answer, then walks
    # the memo again from the root to pull out the teams, and computes
    # each state's floor resource by resource.
    n = len(access)
    full = (1 << p) - 1
    cap_bits = t.bit_length()
    size_mask = (1 << cap_bits) - 1
    width = p + cap_bits
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

    memo = {}
    shapes = {}
    index_bits = n.bit_length()
    field_mask = (1 << width) - 1

    def moves(i, state):
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

    def shape(state):
        canonical = least = 0
        need = [0] * p
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

    def value(i, state):
        stack = []
        while True:
            if state & initial == 0:
                result = True
            elif i == 0:
                result = False
            else:
                known = shapes.get(state)
                if known is None:
                    known = shapes[state] = shape(state)
                canonical, least = known
                key = canonical << index_bits | i
                result = memo.get(key)
                if result is None:
                    if i >= least:
                        stack.append([i, state, key, None])
                        i -= 1
                        continue
                    result = memo[key] = False
            while stack:
                top = stack[-1]
                if not result:
                    if top[3] is None:
                        top[3] = moves(top[0], top[1])
                    move = next(top[3], None)
                    if move is not None:
                        i, state = top[0] - 1, move[1]
                        break
                memo[top[2]] = result
                stack.pop()
            else:
                return result

    sat = value(n, initial)
    if not sat or not replay:
        return sat, None, len(memo)
    teams_found = [set() for _ in range(d)]
    i, state = n, initial
    while state & initial:
        if value(i - 1, state):
            i -= 1
            continue
        for j, child in moves(i, state):
            if value(i - 1, child):
                teams_found[j].add(i - 1)
                state = child
                i -= 1
                break
        else:
            raise RuntimeError("dp witness replay failed")
    return True, teams_found, len(memo)


@st.composite
def dp_questions(draw):
    """Bare dp_search arguments: up to 14 users whose masks hold a few
    resources (sparse) or miss a few (dense), p <= 5, d <= 3, 1 <= t <= p."""
    p = draw(st.integers(1, 5))
    full = (1 << p) - 1
    few = st.lists(st.integers(0, p - 1), max_size=2).map(
        lambda rs: sum(1 << r for r in set(rs))
    )
    masks = draw(st.sampled_from([few, few.map(lambda m: full & ~m), st.integers(0, full)]))
    access = draw(st.lists(masks, max_size=14))
    return access, p, draw(st.integers(1, 3)), draw(st.integers(1, p))


@st.composite
def crowded_survivors(draw):
    """Up to 40 users drawn from a few neighborhood classes, so most
    classes hold more than d users, plus a random survivor subset."""
    p = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.integers(0, (1 << p) - 1), min_size=1, max_size=4))
    access = tuple(draw(st.lists(st.sampled_from(kinds), max_size=40)))
    keep = draw(st.lists(st.booleans(), min_size=len(access), max_size=len(access)))
    d = draw(st.integers(1, 3))
    t = draw(st.sampled_from([1, 2, 3, INF]))
    x = normalize(Instance(access=access, num_resources=p, target=(1 << p) - 1, d=d, t=t))
    return x, [u for u in range(x.n) if keep[u]]


class TestDp:
    def test_two_users_one_team(self):
        x = norm([[0], [1]], p=2, d=1, t=2)
        v = dp_solve(x)
        assert v.sat
        assert v.witness.teams == (frozenset({0, 1}),)

    def test_size_cap_is_tracked(self):
        # identical coverage, but t=1 forbids pairing up
        x = norm([[0], [1]], p=2, d=1, t=1)
        assert not dp_solve(x).sat

    def test_two_disjoint_teams(self):
        x = norm([[0, 1], [0], [1]], p=2, d=2, t=2)
        v = dp_solve(x)
        assert v.sat
        assert verify_witness(x, v)

    def test_ignores_removal_budget(self):
        x = norm([[0]], p=1, s=4, d=1, t=1)
        assert dp_solve(x).sat

    def test_zero_resources_is_trivially_sat(self):
        x = Instance(access=(), num_resources=0, target=0, d=2, t=1)
        v = dp_solve(x)
        assert v.sat
        assert v.witness.teams == (frozenset(), frozenset())

    def test_bit_budget_is_enforced(self):
        x = norm([[0, 1, 2]], p=3, d=2, t=3)
        with pytest.raises(BudgetError):
            dp_solve(x, limits=Limits(dp_bits=5))
        assert dp_solve(x, limits=Limits(dp_bits=6)).sat is False  # d=2 needs 2 users

    def test_reports_state_bits_and_node_bound(self):
        x = norm([[0, 1], [0], [1]], p=2, d=2, t=2)
        v = dp_solve(x)
        assert v.stats.extras["dp_bits"] == 4
        assert v.stats.nodes <= x.n * 2 ** 4 * (2 + 1) ** 2

    @settings(max_examples=80, deadline=None)
    @given(instances(max_n=6, max_p=3, max_d=2))
    def test_agrees_with_the_oracle(self, x):
        y = replace(normalize(x), s=0)
        v = dp_solve(y)
        assert v.sat == solve_s0_bruteforce(y).sat
        if v.sat:
            assert verify_witness(y, v)

    @settings(max_examples=400, deadline=None)
    @given(dp_questions())
    def test_same_answer_teams_and_states_as_the_replay_search(self, question):
        found, states = teams.dp_search(*question)
        sat = found is not None
        assert (sat, found, states) == _replay_dp_search(*question, replay=True)
        assert (sat, None, states) == _replay_dp_search(*question)

    def test_teams_come_from_each_users_current_placement(self):
        # user 2 joins team 0; user 1 fails in team 0, where it leaves
        # team 1 without r1, and succeeds in team 1; user 0 ends team 0
        assert teams.dp_search([0b01, 0b11, 0b10], 2, 2, 2) == ([{0, 2}, {1}], 6)

    def test_prune_a_resource_all_three_teams_miss_needs_three_reachers(self):
        # r1 is reached by users 0 and 1 alone: at the root all three teams
        # miss it, so it needs a third reacher, and the root is dead. The
        # first two levels pass the root: each resource has two reachers.
        x = norm([[0, 1]] * 2 + [[0]] * 8, p=2, d=3, t=2)
        found, states = teams.dp_search(x.access, 2, 3, 2)
        assert found is None
        assert not solve_s0_bruteforce(x).sat
        assert states == 1

    def test_prune_on_the_second_level_alone(self):
        # user 0 reaches everything, so the first level never cuts, and
        # with p = t = 2 every member covers a resource its team missed,
        # so no team is full while it misses one. r1's second reacher is
        # user 5: skipping it leaves both teams missing r1 with one
        # reacher left, and such states are cut on the second level. On
        # the first level alone the search enters 20 states.
        x = norm([[0, 1], [0], [0], [0], [0], [1], [0]], p=2, d=2, t=2)
        found, states = teams.dp_search(x.access, 2, 2, 2)
        assert solve_s0_bruteforce(x).sat
        witness = TeamSet(tuple(frozenset(team) for team in found))
        assert verify_witness(x, Verdict(SAT, witness, SolveStats("dp")))
        assert states == 9

    def test_prune_too_few_users_reach_a_resource(self):
        # both teams miss r1, which only user 0 reaches: the root state is
        # dead and nothing below it is searched
        x = norm([[0, 1]] + [[0]] * 8, p=2, d=2, t=2)
        found, states = teams.dp_search(x.access, 2, 2, 2)
        assert found is None
        assert not solve_s0_bruteforce(x).sat
        assert states == 1

    def test_prune_full_team_with_demand_left(self):
        # t=1 and no user reaches both resources: the team is full as soon
        # as one user joins, so each such child is dead on arrival. That
        # leaves the ten prefixes with the team untouched plus one child
        # for each of the nine users above the first.
        x = norm([[0], [1]] * 5, p=2, d=1, t=1)
        found, states = teams.dp_search(x.access, 2, 1, 1)
        assert found is None
        assert not solve_s0_bruteforce(x).sat
        assert states == 2 * x.n - 1

    def test_memo_is_released_on_return(self):
        # With the cyclic collector off, nothing may hold the caches in
        # a reference cycle past the return.
        access = (
            1, 9, 2, 4, 0, 2, 8, 20, 0, 0, 17, 20, 2, 0, 1, 3, 17, 16, 1, 4,
            9, 2, 8, 1, 9, 10, 9, 0, 5, 8, 1, 4, 10, 16, 0, 16, 16, 2, 17, 16,
            6, 2, 0, 16, 0, 9, 24, 6, 1, 8, 20, 4, 0, 14, 4, 16, 0, 4, 4, 2,
            8, 1, 4, 20, 18, 16, 2, 0, 8, 0, 16, 1, 8, 1, 16, 0, 0, 16, 0, 0,
            0, 17, 11, 4, 9, 16, 4, 4, 1, 2, 1,
        )
        x = Instance(access=access, num_resources=5, target=0b11111, d=3, t=3)
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            v = dp_solve(x)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert v.stats.nodes > 10_000
        # what remains is the interpreter's free lists, not the memo
        assert after - before < (peak - before) / 10

    def test_depth_is_not_bounded_by_the_recursion_limit(self, monkeypatch):
        # 3000 users, two of them the only ones who reach r1: under them
        # the search skips down the whole prefix, 2998 states deep, on a
        # recursion limit a little above the caller's own depth
        x = Instance(
            access=(1,) * 2998 + (2, 2), num_resources=2, target=3, d=2, t=2
        )
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            monkeypatch.setattr(sys, "setrecursionlimit", _no_limit_change)
            v = dp_solve(x)
            limit = sys.getrecursionlimit()
        finally:
            monkeypatch.undo()
            sys.setrecursionlimit(old_limit)
        assert limit == depth + 50
        assert v.sat
        assert v.witness == TeamSet((frozenset({1, 2999}), frozenset({0, 2998})))
        assert verify_witness(x, v)

    @settings(max_examples=100, deadline=None)
    @given(crowded_survivors())
    def test_representatives_keep_the_witness(self, case):
        x, survivors = case
        reps = _representatives(x, survivors)
        on_all = dp_solve(restrict(x, survivors))
        on_reps = dp_solve(restrict(x, reps))
        assert on_reps.answer == on_all.answer
        if on_all.sat:
            assert _mapped(on_reps.witness, reps) == _mapped(on_all.witness, survivors)


class TestConfigurations:
    def test_enumeration_order_and_contents(self):
        x = norm([[0, 1], [0], [1]], p=2, t=2)
        assert enumerate_configurations(x) == [
            (0b11,),
            (0b01, 0b10),
            (0b01, 0b11),
            (0b10, 0b11),
        ]

    def test_team_size_prunes_shapes(self):
        # no single class covers the target, and t=1 allows no pairs
        x = norm([[0], [1]], p=2, t=1)
        assert enumerate_configurations(x) == []

    def test_class_budget(self):
        x = norm([[0, 1, 2]], p=3, t=3)
        with pytest.raises(BudgetError):
            enumerate_configurations(x, limits=Limits(max_classes=4))

    def test_candidate_budget(self):
        x = norm([[0], [1], [2], [0, 1, 2]], p=3, t=3)
        with pytest.raises(BudgetError):
            enumerate_configurations(x, limits=Limits(max_configs=2))

    @settings(max_examples=60, deadline=None)
    @given(instances(max_n=6, max_p=3))
    def test_every_configuration_covers_and_fits(self, x):
        y = normalize(x)
        occupied = set(class_partition(y))
        for config in enumerate_configurations(y):
            assert len(config) <= y.t
            assert len(set(config)) == len(config)
            assert tuple(sorted(config)) == config
            union = 0
            for m in config:
                assert m in occupied and m != 0
                union |= m
            assert union == y.target


def _recursive_ilp_feasible(configs, capacities, d):
    # The one-call-per-configuration search that ilp_feasible replaced,
    # kept as the reference for its visiting order and node count.
    remaining = dict(capacities)
    counts = [0] * len(configs)
    nodes = 0

    def dfs(idx, need):
        nonlocal nodes
        nodes += 1
        if need == 0:
            return True
        if idx == len(configs):
            return False
        parts = configs[idx]
        top = min(need, min((remaining.get(m, 0) for m in parts), default=0))
        for x in range(top + 1):
            counts[idx] = x
            for m in parts:
                remaining[m] -= x
            if dfs(idx + 1, need - x):
                return True
            for m in parts:
                remaining[m] += x
            counts[idx] = 0
        return False

    if dfs(0, d):
        return {configs[i]: counts[i] for i in range(len(configs)) if counts[i]}, nodes
    return None, nodes


@st.composite
def feasibility_questions(draw):
    """Configurations over a few classes, class capacities and d."""
    classes = draw(st.lists(st.integers(1, 15), min_size=1, max_size=5, unique=True))
    part_lists = st.lists(st.sampled_from(classes), min_size=1, max_size=3, unique=True)
    configs = [tuple(sorted(parts)) for parts in draw(st.lists(part_lists, max_size=8))]
    capacities = {m: draw(st.integers(0, 4)) for m in classes}
    return configs, capacities, draw(st.integers(0, 6))


class TestIlpFeasible:
    @settings(max_examples=300, deadline=None)
    @given(feasibility_questions())
    def test_same_vector_and_nodes_as_the_recursive_search(self, question):
        assert ilp_feasible(*question) == _recursive_ilp_feasible(*question)

    def test_multiplicity_two_on_one_shape(self):
        # multiplicities 0 and 1 each reach the end of the list short
        assert ilp_feasible([(0b1,)], {0b1: 2}, d=2) == ({(0b1,): 2}, 4)

    def test_capacity_shortfall(self):
        assert ilp_feasible([(0b1,)], {0b1: 1}, d=2) == (None, 3)

    def test_an_omitted_class_has_capacity_zero(self):
        # classes 0b01 and 0b11 are missing: the configurations that
        # need them take multiplicity 0, and backing up over them gives
        # nothing back
        configs = [(0b11,), (0b01, 0b10)]
        assert ilp_feasible(configs, {0b10: 1}, d=1) == (None, 3)
        assert ilp_feasible(configs, {0b11: 0, 0b10: 1}, d=1) == (None, 3)

    def test_mixed_shapes_split_the_classes(self):
        configs = [(0b11,), (0b01, 0b10), (0b01, 0b11), (0b10, 0b11)]
        capacities = {0b11: 1, 0b01: 1, 0b10: 1}
        vector, _ = ilp_feasible(configs, capacities, d=2)
        assert vector == {(0b11,): 1, (0b01, 0b10): 1}

    def test_reconstruct_takes_lowest_free_user_per_class(self):
        x = norm([[0, 1], [0], [1]], p=2, d=2, t=2)
        teams = reconstruct_teams(class_partition(x), {(0b11,): 1, (0b01, 0b10): 1})
        assert teams.teams == (frozenset({0}), frozenset({1, 2}))

    def test_reconstruct_refuses_a_vector_that_overdraws_a_pool(self):
        with pytest.raises(RuntimeError, match="exhausted"):
            reconstruct_teams({0b1: (0,)}, {(0b1,): 2})


class TestIlpSolve:
    def test_counts_configurations(self):
        x = norm([[0, 1], [0], [1]], p=2, d=2, t=2)
        v = ilp_solve(x)
        assert v.sat
        assert v.stats.extras["configurations"] == 4
        assert verify_witness(x, v)

    def test_unsat_when_classes_run_dry(self):
        x = norm([[0], [1]], p=2, d=2, t=2)
        assert not ilp_solve(x).sat

    @settings(max_examples=80, deadline=None)
    @given(instances(max_n=6, max_p=3, max_d=2))
    def test_agrees_with_the_oracle(self, x):
        y = replace(normalize(x), s=0)
        v = ilp_solve(y)
        assert v.sat == solve_s0_bruteforce(y).sat
        if v.sat:
            assert verify_witness(y, v)

    @settings(max_examples=60, deadline=None)
    @given(instances(max_n=6, max_p=3, max_d=2))
    def test_teams_never_repeat_a_class(self, x):
        # each team draws at most one user per neighborhood class
        y = replace(normalize(x), s=0)
        v = ilp_solve(y)
        if v.sat:
            for team in v.witness.teams:
                masks = [y.access[u] & y.target for u in team]
                assert len(set(masks)) == len(masks)



class TestPivot:
    def test_branches_on_the_lowest_missing_resource(self):
        # r0 is reached by users 1 and 2; user 1 leaves r1 to user 0
        x = norm([[1], [0], [0, 1]], p=2, d=2, t=2)
        found, _ = teams.pivot_search(x.access, 2, 2, 2)
        assert found == [{0, 1}, {2}]
        witness = TeamSet(tuple(frozenset(team) for team in found))
        assert verify_witness(x, Verdict(SAT, witness, SolveStats("pivot")))

    def test_size_cap_is_tracked(self):
        x = norm([[0], [1]], p=2, d=1, t=1)
        assert teams.pivot_search(x.access, 2, 1, 1)[0] is None

    def test_zero_resources_is_trivially_sat(self):
        x = Instance(access=(), num_resources=0, target=0, d=2, t=1)
        assert solve_s0(x, "pivot").witness.teams == (frozenset(), frozenset())

    def test_a_resource_nobody_reaches_ends_every_branch(self):
        # five users each reach r0 and r1, none reaches r2: the root's
        # five children each have r2 left and no user to branch on
        x = norm([[0, 1]] * 5 + [[3]], p=4, d=1, t=4)
        assert teams.pivot_search(x.access, 4, 1, 4) == (None, 1 + 5)

    def test_failed_states_are_searched_once(self):
        # only user 0 reaches r1, so two teams cannot both cover it. The
        # first team {0, 1} is picked as 0 then 1 and again as 1 then 0;
        # the second time, the failed state (team 1, nothing covered,
        # users 0 and 1 taken) is entered but not searched again, which
        # saves its one child: 14 states instead of 15
        x = norm([[0, 1], [0, 2], [2], [0]], p=3, d=2, t=3)
        assert teams.pivot_search(x.access, 3, 2, 3) == (None, 14)

    def test_node_budget_is_enforced(self, monkeypatch):
        x = norm([[0], [1], [0, 1]], p=2, d=1, t=2)
        monkeypatch.setattr(teams, "PIVOT_MAX_NODES", 3)
        assert solve_s0(x, "pivot").sat
        assert teams.pivot_search(x.access, 2, 1, 2)[0]
        monkeypatch.setattr(teams, "PIVOT_MAX_NODES", 1)
        with pytest.raises(BudgetError, match="node budget"):
            solve_s0(x, "pivot")
        with pytest.raises(BudgetError, match="node budget"):
            teams.pivot_search(x.access, 2, 1, 2)

    @pytest.mark.parametrize(
        "rows, p, d, t",
        [
            ([[1], [0], [0, 1]], 2, 2, 2),
            ([[0], [1]], 2, 1, 1),
            ([[0, 1]] * 5 + [[3]], 4, 1, 4),
            ([[0, 1], [0, 2], [2], [0]], 3, 2, 3),
            ([[0]] * 1500, 1, 1500, 1),
        ],
        ids=["two-teams", "size-cap", "unreached-resource", "failed-states", "deep"],
    )
    def test_search_on_bare_masks_is_the_solvers_search(self, rows, p, d, t):
        # the same answer and teams as solve_s0's pivot route, which
        # searches only the first d users of each class
        x = norm(rows, p=p, d=d, t=t)
        v = solve_s0(x, "pivot")
        picked, _ = teams.pivot_search(x.access, p, d, int(x.t))
        assert (picked is not None) == v.sat
        found = None if picked is None else tuple(frozenset(team) for team in picked)
        assert found == (v.witness.teams if v.sat else None)

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # 1500 one-user teams: a path of 1500 picks, one state per team
        # start; the last pick completes the teams and enters no state
        x = norm([[0]] * 1500, p=1, d=1500, t=1)
        v = solve_s0(x, "pivot")
        assert v.sat
        assert v.stats.nodes == 1500
        assert verify_witness(x, v)


class TestPivotFirst:
    @pytest.mark.parametrize("cap", [1, teams.PIVOT_FIRST_NODES], ids=["cap-1", "default-cap"])
    @pytest.mark.parametrize("rung", ["dp", "ilp"])
    @settings(max_examples=150, deadline=None)
    @given(x=instances(max_n=9, max_p=4, max_d=3), data=st.data())
    def test_answers_as_the_rungs_own_core(self, rung, cap, x, data):
        # at cap 1 nearly every attempt falls back; at the default nearly
        # every attempt answers. Either way the answer is the rung's, and
        # no attempt is made where the supply screen answers (0 nodes).
        y = normalize(x)
        removed = data.draw(st.sets(st.sampled_from(range(y.n)))) if y.n else set()
        removed_mask = sum(1 << u for u in removed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(teams, "PIVOT_FIRST_NODES", cap)
            counts: dict[str, int] = {}
            found, _ = teams.s0_core(y, rung, Limits(), pivot_counts=counts)(removed_mask)
        want, nodes = teams.s0_core(y, rung, Limits())(removed_mask)
        assert (found is None) == (want is None)
        if found is not None:
            assert verify_witness(replace(y, s=0), Verdict(SAT, found, SolveStats("x")))
            assert not {u for team in found.teams for u in team} & removed
        assert counts["pivot_answered"] + counts["pivot_fallbacks"] == (1 if nodes else 0)

    def test_a_cap_hit_falls_back_to_the_rung(self, monkeypatch):
        # two one-user teams need two states: at cap 1 the attempt stops
        # and the dp search answers, with its own teams and states
        x = norm([[0], [0]], p=1, d=2, t=1)
        monkeypatch.setattr(teams, "PIVOT_FIRST_NODES", 1)
        extras: dict[str, int] = {}
        counts: dict[str, int] = {}
        got = teams.s0_core(x, "dp", Limits(), extras, pivot_counts=counts)(0)
        assert got == teams.s0_core(x, "dp", Limits())(0)
        assert extras == {"dp_bits": 2}
        assert counts == {"pivot_answered": 0, "pivot_fallbacks": 1}

    def test_a_finished_attempt_answers_with_its_own_states(self):
        # the attempt is exact when it finishes: UNSAT here after the
        # root and its one pick for r0, as t = 1 leaves no room for r1;
        # the configuration list is never built
        x = norm([[0], [1]], p=2, d=1, t=1)
        extras: dict[str, int] = {}
        counts: dict[str, int] = {}
        got = teams.s0_core(x, "ilp", Limits(), extras, pivot_counts=counts)(0)
        assert got == (None, 2)
        assert extras == {}
        assert counts == {"pivot_answered": 1, "pivot_fallbacks": 0}

    def test_the_cap_is_read_at_call_time(self, monkeypatch):
        x = norm([[0], [0]], p=1, d=2, t=1)
        counts: dict[str, int] = {}
        core = teams.s0_core(x, "dp", Limits(), pivot_counts=counts)
        monkeypatch.setattr(teams, "PIVOT_FIRST_NODES", 1)
        assert core(0)[0] is not None
        assert counts == {"pivot_answered": 0, "pivot_fallbacks": 1}

    @pytest.mark.parametrize("rung", ["dp", "ilp"])
    def test_named_cores_make_no_attempt(self, rung, monkeypatch):
        calls = []
        monkeypatch.setattr(teams, "pivot_search", lambda *a, **k: calls.append(a))
        x = norm([[0], [1], [0, 1]], p=2, d=2, t=2)
        v = solve_s0(x, rung)
        assert v.sat and calls == [] and "pivot_answered" not in v.stats.extras


@pytest.mark.parametrize("rung", ["dp", "ilp"])
def test_zero_resources_answer_before_any_budget(rung):
    # d empty teams, with every budget at zero: neither route reads one
    x = Instance(access=(0, 0), num_resources=0, target=0, d=2, t=1)
    v = solve_s0(x, rung, Limits(dp_bits=0, max_classes=0, max_configs=0))
    assert v.sat and v.witness.teams == (frozenset(), frozenset())
    assert (v.stats.nodes, v.stats.extras) == (0, {})
