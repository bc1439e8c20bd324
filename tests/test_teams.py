"""Fixed-parameter s=0 solvers: DP and configuration counting."""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instances, norm
from rescheck import (
    INF,
    BudgetError,
    Instance,
    Limits,
    class_partition,
    dp_solve,
    enumerate_configurations,
    ilp_feasible,
    ilp_solve,
    normalize,
    pivot_solve,
    reconstruct_teams,
    solve_s0_bruteforce,
    teams,
    verify_witness,
)
from rescheck.policy import restrict


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

    def test_prune_too_few_users_reach_a_resource(self):
        # both teams miss r1, which only user 0 reaches: the root state is
        # dead and nothing below it is searched
        x = norm([[0, 1]] + [[0]] * 8, p=2, d=2, t=2)
        v = dp_solve(x)
        assert not v.sat
        assert not solve_s0_bruteforce(x).sat
        assert v.stats.nodes == 1

    def test_prune_full_team_with_demand_left(self):
        # t=1 and no user reaches both resources: the team is full as soon
        # as one user joins, so each such child is dead on arrival. That
        # leaves the ten prefixes with the team untouched plus one child
        # for each of the nine users above the first.
        x = norm([[0], [1]] * 5, p=2, d=1, t=1)
        v = dp_solve(x)
        assert not v.sat
        assert not solve_s0_bruteforce(x).sat
        assert v.stats.nodes == 2 * x.n - 1

    def test_memo_is_released_on_return(self):
        # The recursive closure is a reference cycle; with the cyclic
        # collector off, only clearing the caches frees them on return.
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

    def test_mixed_shapes_split_the_classes(self):
        configs = [(0b11,), (0b01, 0b10), (0b01, 0b11), (0b10, 0b11)]
        capacities = {0b11: 1, 0b01: 1, 0b10: 1}
        vector, _ = ilp_feasible(configs, capacities, d=2)
        assert vector == {(0b11,): 1, (0b01, 0b10): 1}

    def test_reconstruct_takes_lowest_free_user_per_class(self):
        x = norm([[0, 1], [0], [1]], p=2, d=2, t=2)
        teams = reconstruct_teams(class_partition(x), {(0b11,): 1, (0b01, 0b10): 1})
        assert teams.teams == (frozenset({0}), frozenset({1, 2}))


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
        v = pivot_solve(x)
        assert v.witness.teams == (frozenset({0, 1}), frozenset({2}))
        assert verify_witness(x, v)

    def test_size_cap_is_tracked(self):
        x = norm([[0], [1]], p=2, d=1, t=1)
        assert not pivot_solve(x).sat

    def test_zero_resources_is_trivially_sat(self):
        x = Instance(access=(), num_resources=0, target=0, d=2, t=1)
        assert pivot_solve(x).witness.teams == (frozenset(), frozenset())

    def test_a_resource_nobody_reaches_ends_every_branch(self):
        # five users each reach r0 and r1, none reaches r2: the root's
        # five children each have r2 left and no user to branch on
        x = norm([[0, 1]] * 5 + [[3]], p=4, d=1, t=4)
        v = pivot_solve(x)
        assert not v.sat
        assert v.stats.nodes == 1 + 5

    def test_failed_states_are_searched_once(self):
        # only user 0 reaches r1, so two teams cannot both cover it. The
        # first team {0, 1} is picked as 0 then 1 and again as 1 then 0;
        # the second time, the failed state (team 1, nothing covered,
        # users 0 and 1 taken) is entered but not searched again, which
        # saves its one child: 14 states instead of 15
        x = norm([[0, 1], [0, 2], [2], [0]], p=3, d=2, t=3)
        v = pivot_solve(x)
        assert not v.sat
        assert v.stats.nodes == 14

    def test_node_budget_is_enforced(self, monkeypatch):
        x = norm([[0], [1], [0, 1]], p=2, d=1, t=2)
        monkeypatch.setattr(teams, "PIVOT_MAX_NODES", 3)
        assert pivot_solve(x).sat
        assert teams.pivot_search(x.access, 2, 1, 2)[0]
        monkeypatch.setattr(teams, "PIVOT_MAX_NODES", 1)
        with pytest.raises(BudgetError, match="node budget"):
            pivot_solve(x)
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
        # with replay, the same teams and states as pivot_solve; without
        # it, the same answer and states and no teams
        x = norm(rows, p=p, d=d, t=t)
        v = pivot_solve(x)
        sat, picked, nodes = teams.pivot_search(x.access, p, d, int(x.t), replay=True)
        assert (sat, nodes) == (v.sat, v.stats.nodes)
        found = None if picked is None else tuple(frozenset(team) for team in picked)
        assert found == (v.witness.teams if v.sat else None)
        assert teams.pivot_search(x.access, p, d, int(x.t)) == (v.sat, None, v.stats.nodes)

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # 1500 one-user teams: a path of 1500 picks, one state per team
        # start; the last pick completes the teams and enters no state
        x = norm([[0]] * 1500, p=1, d=1500, t=1)
        v = pivot_solve(x)
        assert v.sat
        assert v.stats.nodes == 1500
        assert verify_witness(x, v)
