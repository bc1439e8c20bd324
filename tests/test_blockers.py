"""Removal-budget solvers, the coverage fast path, and routing."""

from __future__ import annotations

import random
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rescheck.blockers
import rescheck.policy
import rescheck.teams
from conftest import find_minimal_blocker, instances, norm
from rescheck import (
    DEFAULT_LIMITS,
    INF,
    BlockerSet,
    BudgetError,
    Instance,
    Limits,
    PreconditionError,
    SAT,
    STRATEGIES,
    SolveStats,
    TeamSet,
    Verdict,
    branch_solve,
    class_partition,
    dp_solve,
    emit_verdict,
    fastpath_d1_tinf,
    ilp_solve,
    normalize,
    reduced_solve,
    restrict,
    solve,
    solve_rcp_bruteforce,
    solve_s0_bruteforce,
    verify_witness,
)
from rescheck.blockers import (
    _auto,
    _rung,
    _vector_count,
    outside_domain,
)
from rescheck.generators import random_instance

# Each budget ladder rung, reached by limits every instance below fits.
RUNGS = {
    "dp": DEFAULT_LIMITS,
    "ilp": Limits(dp_bits=0),
    "pivot": Limits(dp_bits=0, max_classes=1),
}
# Each search on each rung it reaches; reduced refuses the pivot rung's
# class budget.
SEARCHES = [(branch_solve, rung) for rung in RUNGS] + [
    (reduced_solve, "dp"),
    (reduced_solve, "ilp"),
]


def counting(monkeypatch, *names):
    # Wrap the named rescheck.teams functions; returns the list of the
    # names called, in call order.
    calls = []
    for name in names:
        original = getattr(rescheck.teams, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(rescheck.teams, name, wrapper)
    return calls


class TestBranch:
    def test_redundancy_survives_one_removal(self):
        x = norm([[0], [0]], p=1, s=1, d=1, t=1)
        v = branch_solve(x)
        assert v.sat
        assert v.witness is None

    def test_single_point_of_failure(self):
        x = norm([[0]], p=1, s=1, d=1, t=1)
        v = branch_solve(x)
        assert not v.sat
        assert v.witness == BlockerSet(frozenset({0}))
        assert verify_witness(x, v)

    def test_s0_sat_keeps_the_team_witness(self):
        x = norm([[0], [1]], p=2, s=0, d=1, t=2)
        v = branch_solve(x)
        assert v.sat
        assert verify_witness(x, v)

    def test_s0_team_witness_is_in_the_callers_numbering(self):
        # class {r0} holds three users and d=1, so the inner solver sees
        # only users 0 and 3, as its users 0 and 1
        x = norm([[0], [0], [0], [1]], p=2, s=0, d=1, t=2)
        v = branch_solve(x)
        assert v.witness == TeamSet((frozenset({0, 3}),))
        assert verify_witness(x, v)

    @pytest.mark.parametrize("rung", RUNGS)
    def test_starved_survivors_make_no_inner_call(self, rung, monkeypatch):
        # removing user 0 leaves one user who reaches r0 for d = 2 teams;
        # only the root, which needs teams to branch on, asks the rung's
        # core, and no Verdict solver runs. At a cap of one state the
        # core's pivot attempt falls back to the rung's own search.
        monkeypatch.setattr(rescheck.teams, "PIVOT_FIRST_NODES", 1)
        calls = counting(
            monkeypatch,
            "dp_solve",
            "dp_search",
            "ilp_solve",
            "ilp_feasible",
            "pivot_search",
        )
        x = norm([[0, 1], [0, 1], [1]], p=2, s=1, d=2, t=2)
        v = branch_solve(x, limits=RUNGS[rung])
        assert v.stats.algorithm == f"branch+{rung}"
        assert v.witness == BlockerSet(frozenset({0}))
        assert v.stats.nodes == 2
        assert calls == {
            "dp": ["pivot_search", "dp_search"],
            "ilp": ["pivot_search", "ilp_feasible"],
            "pivot": ["pivot_search"],
        }[rung]

    @pytest.mark.parametrize("rung", ["dp", "pivot"])
    def test_swapped_member_answers_the_leaves(self, rung, monkeypatch):
        # the root's teams are {0, 1} and {2}; every removal drops its
        # class below d = 2 survivors, but user 3 reaches what each team
        # loses and refills it: only the root asks the rung's core, whose
        # pivot attempt falls back at a cap of one state
        monkeypatch.setattr(rescheck.teams, "PIVOT_FIRST_NODES", 1)
        calls = counting(monkeypatch, "dp_search", "pivot_search")
        x = norm([[0], [1], [0, 1], [0, 1]], p=2, s=1, d=2, t=2)
        v = branch_solve(x, limits=RUNGS[rung])
        assert v.stats.algorithm == f"branch+{rung}"
        assert v.sat
        assert v.stats.nodes == 4
        want = {"dp": ["pivot_search", "dp_search"], "pivot": ["pivot_search"]}
        assert calls == want[rung]

    @pytest.mark.parametrize("rung", RUNGS)
    @pytest.mark.parametrize(
        "rows, p, s, d, t, blocker",
        [
            # the only user outside the team is removed already
            ([[0], [0]], 1, 2, 1, 1, {0, 1}),
            # the only other user is in the other team
            ([[0], [0]], 1, 1, 2, 1, {0}),
            # user 2 is free but does not reach r1, which team {0, 1} loses
            ([[0], [1], [0]], 2, 1, 1, 2, {1}),
            # user 1 reaches r0 but not r1, both of which user 0 alone held
            ([[0, 1], [0]], 2, 1, 1, 2, {0}),
            # the leaf's removals meet the root's teams {0}, {1} twice;
            # the newest teams {2}, {3} meet them once and leave no
            # free user
            ([[0], [0], [0], [0]], 1, 3, 2, 1, {0, 1, 2}),
        ],
    )
    def test_swap_needs_a_free_user_reaching_every_lost_resource(
        self, rung, rows, p, s, d, t, blocker
    ):
        x = norm(rows, p=p, s=s, d=d, t=t)
        v = branch_solve(x, limits=RUNGS[rung])
        assert not v.sat
        assert v.witness == BlockerSet(frozenset(blocker))
        assert not solve_rcp_bruteforce(x).sat

    def test_node_count_within_branching_bound(self):
        x = norm([[0, 1], [0], [1], [0, 1]], p=2, s=2, d=2, t=2)
        v = branch_solve(x)
        cap = sum((x.d * x.t) ** i for i in range(x.s + 1))
        assert v.stats.nodes <= cap

    def test_oracle_inner_solver(self):
        # neither dp nor class counting fits, so the ladder's last rung,
        # the pivot search, answers the survivors
        x = norm([[0]], p=1, s=1, d=1, t=1)
        v = branch_solve(x, limits=Limits(dp_bits=0, max_classes=1))
        assert v.stats.algorithm == "branch+pivot"
        assert not v.sat
        assert v.witness == BlockerSet(frozenset({0}))

    @settings(max_examples=80, deadline=None)
    @given(instances(max_n=6, max_p=3, max_d=2))
    def test_agrees_with_the_oracle(self, x):
        y = normalize(x)
        v = branch_solve(y)
        assert v.sat == solve_rcp_bruteforce(y).sat
        if v.witness is not None:
            assert verify_witness(y, v)


class TestReduced:
    def test_identical_users_collapse_to_representatives(self):
        x = norm([[0], [0], [0]], p=1, s=1, d=2, t=1)
        v = reduced_solve(x)
        assert v.sat
        assert v.stats.extras["reduced_users"] == 2  # d of the 3 kept

    def test_blocker_is_expanded_to_original_users(self):
        x = norm([[0], [0], [0]], p=1, s=3, d=1, t=1)
        v = reduced_solve(x)
        assert not v.sat
        assert v.witness == BlockerSet(frozenset({0, 1, 2}))
        assert verify_witness(x, v)

    @pytest.mark.parametrize(
        "rows, s, blocker",
        [
            # deleting one of the two representatives costs the three
            # spares too: 4 users, one more than the budget
            ([[0]] * 5, 3, None),
            ([[0]] * 5, 4, {0, 2, 3, 4}),
            # a class of d users has no spares to charge
            ([[0]] * 2, 1, {0}),
        ],
        ids=["spares-exceed-budget", "spares-charged-with-representative", "no-spares"],
    )
    def test_spare_users_are_charged(self, rows, s, blocker):
        x = norm(rows, p=1, s=s, d=2, t=1)
        v = reduced_solve(x)
        assert v.sat == (blocker is None) == solve_rcp_bruteforce(x).sat
        if blocker is not None:
            assert v.witness == BlockerSet(frozenset(blocker))
            assert verify_witness(x, v)

    def test_s0_makes_one_inner_call(self, monkeypatch):
        # the one call, answered by the core's pivot attempt, gives the
        # witness teams
        calls = counting(monkeypatch, "dp_search", "pivot_search")
        x = norm([[0], [1]], p=2, s=0, d=1, t=2)
        v = reduced_solve(x)
        assert v.sat and verify_witness(x, v)
        assert calls == ["pivot_search"]
        assert v.stats.nodes == 1
        assert v.stats.extras["pivot_answered"] == 1

    def test_s_positive_makes_no_dp_solve_call(self, monkeypatch):
        # at s > 0 no node needs teams: the dp rung's core answers the
        # root on bare masks, its pivot attempt first, no sub-instance is
        # built, and the root's teams, with a swap where a deletion meets
        # them, answer the three other nodes
        calls = counting(monkeypatch, "dp_solve", "dp_search", "pivot_search")
        x = norm([[0], [0], [1], [1], [0, 1]], p=2, s=1, d=2, t=2)
        v = reduced_solve(x)
        assert v.stats.algorithm == "reduced+dp"
        assert v.sat and v.witness is None and solve_rcp_bruteforce(x).sat
        assert v.stats.nodes == 4
        assert calls == ["pivot_search"]

    @pytest.mark.parametrize(
        "rows, p, s, d, t, blocker",
        [
            # the root's team {0, 1} meets the deletion of users 0 and
            # 1 twice, and no swap repairs two members
            ([[1, 2], [0, 2], [0, 1], [0, 1]], 3, 2, 1, 3, {0, 1}),
            # the root's teams {0} and {1} meet the deletion of user 0
            # once, but the only other user is in the other team
            ([[0], [0]], 1, 1, 2, 1, {0}),
            # team {0, 1} loses r1 with user 1; user 2 is free but
            # reaches r0 only
            ([[0], [1], [0]], 2, 1, 1, 2, {1}),
        ],
    )
    def test_stored_teams_meeting_the_deletions_prove_nothing(
        self, rows, p, s, d, t, blocker
    ):
        x = norm(rows, p=p, s=s, d=d, t=t)
        v = reduced_solve(x)
        assert not v.sat and not solve_rcp_bruteforce(x).sat
        assert v.witness == BlockerSet(frozenset(blocker))
        assert verify_witness(x, v)

    def test_ilp_rung_enumerates_configurations_once(self, monkeypatch):
        # at a cap of one state every pivot attempt falls back: three
        # configuration searches read one list
        monkeypatch.setattr(rescheck.teams, "PIVOT_FIRST_NODES", 1)
        calls = counting(monkeypatch, "enumerate_configurations", "ilp_solve")
        x = norm([[0], [0], [1], [1], [0, 1], [0, 1]], p=2, s=2, d=2, t=2)
        v = reduced_solve(x, limits=RUNGS["ilp"])
        assert v.stats.algorithm == "reduced+ilp"
        assert v.sat and solve_rcp_bruteforce(x).sat
        assert v.stats.nodes == 10
        assert v.stats.extras["pivot_fallbacks"] == 3
        assert calls == ["enumerate_configurations"]

    def test_class_budget(self):
        x = norm([[0, 1, 2]], p=3, s=1, d=1, t=3)
        with pytest.raises(BudgetError):
            reduced_solve(x, limits=Limits(max_classes=4))

    @settings(max_examples=80, deadline=None)
    @given(instances(max_n=6, max_p=3, max_d=2))
    def test_agrees_with_the_oracle(self, x):
        y = normalize(x)
        v = reduced_solve(y)
        assert v.sat == solve_rcp_bruteforce(y).sat
        if v.witness is not None:
            assert verify_witness(y, v)
        assert v.stats.extras["reduced_users"] <= y.d * 2 ** y.num_resources


class TestFastpath:
    def test_scarce_resource_loses(self):
        # r1 is covered once; one removal exposes it
        x = norm([[0, 1], [0]], p=2, s=1, d=1, t=2)
        v = fastpath_d1_tinf(x)
        assert not v.sat
        assert v.witness == BlockerSet(frozenset({0}))
        assert verify_witness(x, v)

    def test_coverage_equal_to_budget_loses(self):
        x = norm([[0], [0], [0]], p=1, s=3, d=1, t=1)
        v = fastpath_d1_tinf(x)
        assert not v.sat
        assert v.witness == BlockerSet(frozenset({0, 1, 2}))

    def test_coverage_above_budget_wins(self):
        x = norm([[0, 1], [0, 1]], p=2, s=1, d=1, t=2)
        v = fastpath_d1_tinf(x)
        assert v.sat and v.witness is None

    def test_s0_team_witness(self):
        x = norm([[0], [1]], p=2, s=0, d=1, t=2)
        v = fastpath_d1_tinf(x)
        assert v.sat
        assert verify_witness(x, v)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            fastpath_d1_tinf(norm([[0]], p=1, d=2))
        with pytest.raises(PreconditionError):
            fastpath_d1_tinf(norm([[0], [1]], p=2, d=1, t=1))

    def test_matches_oracle_on_random_instances(self):
        # the counting shortcut is rederived, so gate it on the oracle
        import random

        rng = random.Random(7)
        for _ in range(150):
            n = 1 + int(rng.random() * 7)
            p = 1 + int(rng.random() * 3)
            s = int(rng.random() * 3)
            rows = [
                [r for r in range(p) if rng.random() < 0.5] for _ in range(n)
            ]
            x = norm(rows, p=p, s=s, d=1, t=INF)
            got = fastpath_d1_tinf(x)
            want = solve_rcp_bruteforce(x)
            assert got.sat == want.sat
            if not got.sat:
                assert verify_witness(x, got)
                minimal = find_minimal_blocker(x, verdict=got)
                assert minimal == got.witness  # inclusion-minimal already


class TestRouting:
    def test_strategy_names_are_stable(self):
        assert set(STRATEGIES) == {
            "oracle", "dp", "ilp", "branch", "reduced", "fastpath",
        }

    def test_auto_prefers_the_fastpath_for_single_teams(self):
        x = normalize(Instance(access=(1, 1), num_resources=1, target=1, d=1, t=INF))
        assert solve(x).stats.algorithm == "fastpath"

    def test_auto_uses_dp_for_s0(self):
        # at s=0 auto runs branch, one node, over the dp rung's core
        x = norm([[0], [1]], p=2, s=0, d=2, t=1)
        assert solve(x).stats.algorithm == "branch+dp"

    def test_auto_falls_back_to_ilp_when_bits_run_out(self):
        x = norm([[0], [1]], p=2, s=0, d=2, t=1)
        v = solve(x, limits=Limits(dp_bits=1))
        assert v.stats.algorithm == "branch+ilp"

    @pytest.mark.parametrize("rung", ["dp", "ilp"])
    @pytest.mark.parametrize(
        "rows, p, s, d, t, vectors, search",
        [
            # V = 2 (the root, and u0 deleted) <= B*I = 3 * 1
            ([[0], [0]], 1, 1, 2, 1, 2, "reduced"),
            # V = 4 (the root, and one of three one-user classes
            # deleted) > B*I = 2 * 1
            ([[0], [1], [0, 1]], 2, 1, 1, 1, 4, "branch"),
            # V = 4 > B = 3, but V <= B*I = 3 * 2
            ([[0], [0, 1]], 2, 2, 1, 1, 4, "reduced"),
            # 47 one-user classes: V = 1 + 47 + 47*46/2 = 1129 <= B*I =
            # 111 * 11, but B > 100 and V > 111 + 10 * 100
            ([[r for r in range(6) if m >> r & 1] for m in range(1, 48)], 6, 2, 2, 5,
             1129, "branch"),
        ],
        ids=["reduced", "branch", "reduced-within-core-calls", "core-price-capped"],
    )
    def test_auto_weighs_reduced_vectors_against_branch_nodes(
        self, rows, p, s, d, t, vectors, search, rung
    ):
        # at s > 0, reduced when its vector count V is at most
        # B + (I - 1) * min(B, 100), branch's node bound
        # B = sum over i <= s of (d*t)^i plus its core calls beyond the
        # root, I = sum over i < s of (d*t)^i, each priced at min(B, 100)
        # nodes; while B <= 100 that is V <= B*I
        x = norm(rows, p=p, s=s, d=d, t=t)
        assert _vector_count(x, 10**9) == vectors
        assert _auto(x, RUNGS[rung]) == search

    def test_auto_prices_a_budget_past_n_at_n(self):
        # no deletion vector costs more than n = 4 and no branch path
        # removes more than 4 users, so auto prices s = 200,000 as s = 4
        # and keeps no list of s counters; reduced deletes user 0 with
        # the spares 2 and 3, leaving user 1 alone for d = 2 teams
        x = norm([[0]] * 4, p=1, s=200_000, d=2, t=1)
        tracemalloc.start()
        try:
            v = solve(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.stats.algorithm == "reduced+dp"
        assert v.witness == BlockerSet(frozenset({0, 2, 3}))
        assert peak < 1 << 20

    def test_auto_uses_reduction_when_bits_run_out(self):
        x = norm([[0], [0]], p=1, s=1, d=2, t=1)
        v = solve(x, limits=Limits(dp_bits=1))
        assert v.stats.algorithm.startswith("reduced+")

    def test_auto_last_resort_is_branch_over_pivot(self):
        x = norm([[0], [0]], p=1, s=1, d=2, t=1)
        v = solve(x, limits=Limits(dp_bits=1, max_classes=1))
        assert v.stats.algorithm == "branch+pivot"

    @pytest.mark.parametrize("s", [0, 1])
    def test_auto_past_the_oracle_guard_takes_the_pivot_rung(self, s):
        # neither dp nor class counting fits, at every s
        x = norm([[0], [1], [0, 1]], p=2, s=s, d=2, t=2)
        v = solve(x, limits=Limits(dp_bits=1, max_classes=1))
        assert v.stats.algorithm == "branch+pivot"
        assert v.sat == (s == 0)  # s = 1: removing user 2 leaves one team
        assert v.stats.nodes == 1 + s  # s = 0 is one inner call
        assert verify_witness(x, v)

    def test_auto_keeps_branch_past_the_class_budget(self):
        # on the dp rung, V = 7 deletion vectors are within the cap of
        # 7 = B at s = 1, so the count alone picks reduced; but 2^|P| =
        # 16 classes exceed max_classes = 4, where reduced refuses
        x = normalize(random_instance(1, 14, 4, 0.5, s=1, d=2, t=3).instance)
        limits = Limits(max_classes=4)
        assert _rung(x, limits) == "dp"
        assert _vector_count(x, 7) == 7
        assert _auto(x, DEFAULT_LIMITS) == "reduced"
        assert _auto(x, limits) == "branch"
        with pytest.raises(BudgetError):
            reduced_solve(x, limits=limits)
        v = solve(x, limits=limits)
        assert v.stats.algorithm == "branch+dp"
        assert v.answer == solve_rcp_bruteforce(x).answer

    def test_explicit_strategy_dispatch(self):
        x = norm([[0]], p=1, s=0, d=1, t=1)
        assert solve(x, "dp").stats.algorithm == "dp"
        assert solve(x, "oracle").stats.algorithm == "oracle"

    @pytest.mark.parametrize(
        "name, x, match",
        [
            # dp and ilp answer the s=0 question, which is SAT here
            ("dp", norm([[0]], p=1, s=1, d=1, t=1), "answers only s=0"),
            ("ilp", norm([[0]], p=1, s=1, d=1, t=1), "answers only s=0"),
            ("fastpath", norm([[0], [0]], p=1, d=2), "fastpath requires d=1"),
        ],
    )
    def test_solve_refuses_strategies_outside_their_domain(self, name, x, match):
        with pytest.raises(PreconditionError, match=match):
            solve(x, name)

    @settings(max_examples=100, deadline=None)
    @given(instances(max_n=6, max_p=3, max_d=2))
    def test_named_strategies_answer_exactly_or_refuse(self, x):
        y = normalize(x)
        want = solve_rcp_bruteforce(y).sat
        for name in STRATEGIES:
            outside = (name in ("dp", "ilp") and y.s > 0) or (
                name == "fastpath" and (y.d != 1 or y.t < y.num_resources)
            )
            if outside:
                with pytest.raises(PreconditionError):
                    solve(y, name)
            else:
                assert solve(y, name).sat == want, name

    def test_unknown_strategy(self):
        x = norm([[0]], p=1)
        with pytest.raises(ValueError, match="unknown strategy"):
            solve(x, "simplex")

    def test_requires_normalized_input(self):
        raw = Instance(access=(1,), num_resources=1, target=1, t=INF)
        with pytest.raises(PreconditionError):
            solve(raw)

    @settings(max_examples=60, deadline=None)
    @given(instances(max_n=6, max_p=3, max_d=2))
    def test_auto_agrees_with_the_oracle(self, x):
        y = normalize(x)
        assert solve(y).sat == solve_rcp_bruteforce(y).sat


@pytest.mark.parametrize("cap", [1, rescheck.teams.PIVOT_FIRST_NODES], ids=["cap-1", "default-cap"])
@pytest.mark.parametrize("rung", ["dp", "ilp"])
@settings(max_examples=150, deadline=None)
@given(x=instances(max_n=7, max_p=3, max_d=3))
def test_pivot_first_auto_agrees_with_the_oracle(rung, cap, x):
    # auto's pivot-first core on each rung, with the attempt falling
    # back on nearly every call (cap 1) and answering nearly every call
    # (the default cap): the oracle's answer, and witnesses that verify
    y = normalize(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rescheck.teams, "PIVOT_FIRST_NODES", cap)
        v = solve(y, limits=RUNGS[rung])
    assert v.sat == solve_rcp_bruteforce(y).sat
    if v.witness is not None:
        assert verify_witness(y, v)
    if v.stats.algorithm != "fastpath":
        assert v.stats.algorithm.endswith(rung)


def test_auto_at_p0_skips_the_pivot_attempt():
    # no resource to pivot on: auto answers as before, d empty teams
    # survive any removal, and the core makes no attempt
    x = Instance(access=(0, 0, 0), num_resources=0, target=0, s=1, d=2, t=1)
    v = solve(x)
    assert (v.answer, v.stats.algorithm) == (SAT, "reduced+dp")
    assert "pivot_answered" not in v.stats.extras


# rescheck generate random --users 30 --resources 6 --density 0.3 --s 0
# --d 3 --t 3 --seed 34: the pivot attempt hits its 1,000-state cap
FALLBACK = normalize(random_instance(34, 30, 6, 0.3, s=0, d=3, t=3).instance)


@pytest.mark.parametrize("name", ["branch", "reduced"])
@pytest.mark.parametrize(
    "x",
    [normalize(random_instance(1, 14, 4, 0.5, s=1, d=2, t=3).instance), FALLBACK],
    ids=["answered", "fallback"],
)
def test_named_search_counts_its_pivot_attempts(name, x, monkeypatch):
    # every core call is one pivot attempt, and every fallback one run
    # of the dp rung's own search
    calls = counting(monkeypatch, "pivot_search", "dp_search")
    v = solve(x, name)
    extras = v.stats.extras
    assert v.stats.algorithm == f"{name}+dp"
    assert extras["pivot_answered"] + extras["pivot_fallbacks"] == calls.count("pivot_search")
    assert extras["pivot_fallbacks"] == calls.count("dp_search")
    assert extras["pivot_fallbacks"] == (1 if x is FALLBACK else 0)


@pytest.mark.parametrize("rung", ["dp", "ilp"])
def test_a_capped_attempt_falls_back_on_both_rungs(rung):
    # the root's one core call falls back under both searches and auto,
    # and answers SAT with the teams of the rung's own route
    limits = RUNGS[rung]
    own = solve(FALLBACK, rung, limits=limits).witness
    for name, route in [("branch", "branch"), ("reduced", "reduced"), ("auto", "branch")]:
        v = solve(FALLBACK, name, limits=limits)
        assert v.sat and verify_witness(FALLBACK, v)
        assert v.witness == own
        assert v.stats.algorithm == f"{route}+{rung}"
        extras = v.stats.extras
        assert (extras["pivot_answered"], extras["pivot_fallbacks"]) == (0, 1)


@pytest.mark.parametrize("rung", RUNGS)
@settings(max_examples=100, deadline=None)
@given(x=instances(max_n=7, max_p=3, max_d=3))
def test_auto_is_exactly_a_named_route(rung, x):
    # auto runs the strategy _auto names, as solve runs it by name: the
    # same answer, witness and stats
    y = normalize(x)
    limits = RUNGS[rung]
    v = solve(y, limits=limits)
    named = solve(y, _auto(y, limits), limits=limits)
    assert (v.answer, v.witness, v.stats) == (named.answer, named.witness, named.stats)


@settings(max_examples=60, deadline=None)
@given(instances(max_n=6, max_p=3, max_d=2))
def test_minimal_blockers_nearly_empty_touched_classes(x):
    # a minimal blocker leaves fewer than d users in any class it hits
    y = normalize(x)
    blocker = find_minimal_blocker(y)
    if blocker is None:
        return
    for mask, members in class_partition(y).items():
        touched = [u for u in members if u in blocker.users]
        if touched:
            assert len(members) - len(touched) < y.d


@settings(max_examples=200, deadline=None)
@given(instances(max_n=7, max_p=5, max_d=3))
def test_pivot_rung_agrees_with_the_oracle(x):
    # no dp bits and one class: every instance with a user who reaches
    # something, past the fast path, takes branch+pivot, and the route
    # does not depend on how many users the oracle would take
    y = normalize(x)
    v = solve(y, limits=Limits(dp_bits=0, max_classes=1))
    no_oracle = solve(y, limits=Limits(dp_bits=0, max_classes=1, oracle_users=0))
    assert emit_verdict(no_oracle, y) == emit_verdict(v, y)
    assert v.sat == solve_rcp_bruteforce(y, user_limit=None).sat
    if v.witness is not None:
        assert verify_witness(y, v)
    if outside_domain(y, "fastpath") is not None and any(y.access):
        assert v.stats.algorithm == "branch+pivot"
        assert v.stats.nodes <= sum((y.d * y.t) ** i for i in range(y.s + 1))


def _no_restrict(*args, **kwargs):
    raise AssertionError("restrict called")


@settings(max_examples=150, deadline=None)
@given(instances(max_n=7, max_p=3, max_s=1, max_d=3))
def test_no_search_builds_a_sub_instance(x):
    # every rung's core runs on bare data, teams included
    y = normalize(x)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rescheck.blockers, "restrict", _no_restrict)
        patch.setattr(rescheck.policy, "restrict", _no_restrict)
        verdicts = [(rung, search(y, limits=RUNGS[rung])) for search, rung in SEARCHES]
    want = solve_rcp_bruteforce(y).sat
    for rung, v in verdicts:
        assert v.stats.algorithm.endswith(f"+{rung}")
        assert v.sat == want
        if v.witness is not None:
            assert verify_witness(y, v)


@st.composite
def crowded_instances(draw):
    # More users than the oracle takes, a full target and a sparse
    # seeded relation, so that blockers are common. p, s and d come from
    # lists, not ranges, which hypothesis would skew toward small values.
    p = draw(st.sampled_from([1, 2, 3, 4]))
    n = draw(st.integers(21, 40))
    density = draw(st.sampled_from([0.1, 0.2, 0.4]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    access = tuple(
        sum(1 << r for r in range(p) if rng.random() < density) for _ in range(n)
    )
    return normalize(
        Instance(
            access=access,
            num_resources=p,
            target=(1 << p) - 1,
            s=draw(st.sampled_from([0, 1, 2])),
            d=draw(st.sampled_from([1, 2, 3])),
            t=draw(st.sampled_from([1, 2, 3, INF])),
        )
    )


@settings(max_examples=1000, deadline=None)
@given(crowded_instances())
def test_searches_agree_beyond_the_oracle_guard(y):
    # the two searches, and at s=0 the two team solvers, check each
    # other; blockers are checked with ilp, which no search used inside
    verdicts = [branch_solve(y), reduced_solve(y)]
    if y.s == 0:
        verdicts += [dp_solve(y), ilp_solve(y)]
    assert len({v.sat for v in verdicts}) == 1
    for v in verdicts:
        if isinstance(v.witness, TeamSet):
            assert verify_witness(y, v)
        elif isinstance(v.witness, BlockerSet):
            assert len(v.witness.users) <= y.s
            survivors = [u for u in range(y.n) if u not in v.witness.users]
            assert not ilp_solve(restrict(y, survivors)).sat


def _rung_search(y: Instance, rung: str, users: list[int]) -> TeamSet | None:
    # The rung's bare search on the masks of users, in ascending index,
    # with its teams in y's numbering.
    masks = [y.access[u] for u in users]
    p, d, t = y.num_resources, y.d, int(y.t)
    if rung == "ilp":
        pools: dict[int, list[int]] = {}
        for i, m in enumerate(masks):
            pools.setdefault(m, []).append(i)
        configs = rescheck.teams.enumerate_configurations(y)
        vector, _ = rescheck.teams.ilp_feasible(configs, {m: len(g) for m, g in pools.items()}, d)
        found = None if vector is None else rescheck.teams.reconstruct_teams(pools, vector).teams
    else:
        found, _ = getattr(rescheck.teams, f"{rung}_search")(masks, p, d, t)
    if found is None:
        return None
    return TeamSet(tuple(frozenset(users[i] for i in team) for team in found))


@settings(max_examples=400, deadline=None)
@given(instances(max_n=7, max_p=3, max_d=3), st.lists(st.integers(0, 6), unique=True))
def test_supply_screen_and_cores_agree_with_the_oracle(x, removals):
    # each rung's core(removed_mask) hands its search the masks of the
    # first min(|class|, d) survivors of every occupied class, and calls
    # it exactly when every resource keeps d reachers among them; it
    # answers the survivors as the oracle does, with (None, 0) when the
    # supply screen answers, and exactly when SAT with the teams the
    # search finds on all survivors, drawn from the kept users and in
    # the caller's numbering
    y = normalize(x)
    removed_mask = sum(1 << u for u in removals[: y.s])  # searches remove <= s
    kept = []
    for mask, users in class_partition(y).items():
        if mask:
            kept += [u for u in users if not removed_mask >> u & 1][: y.d]
    kept.sort()
    starved = any(
        sum(1 for u in kept if y.access[u] >> r & 1) < y.d
        for r in range(y.num_resources)
    )
    survivors = [u for u in range(y.n) if not removed_mask >> u & 1]
    want = solve_s0_bruteforce(restrict(y, survivors)).sat
    if starved:
        assert not want
    for rung, limits in RUNGS.items():
        assert _rung(y, limits) == rung
        # ilp's search sees the kept users as class capacities
        name = {"dp": "dp_search", "ilp": "ilp_feasible", "pivot": "pivot_search"}[rung]
        search = getattr(rescheck.teams, name)
        asked = []

        def recorded(*args):
            asked.append(args[1] if rung == "ilp" else list(args[0]))
            return search(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rescheck.teams, name, recorded)
            found, nodes = rescheck.teams.s0_core(y, rung, limits)(removed_mask)
        masks = [y.access[u] for u in kept]
        seen = {m: masks.count(m) for m in masks} if rung == "ilp" else masks
        assert asked == ([] if starved else [seen])
        assert (found is not None) == want
        if starved:
            assert nodes == 0
        assert found == _rung_search(y, rung, survivors)
        if want:
            assert set().union(*found.teams) <= set(kept)
            assert verify_witness(replace(y, s=0), Verdict(SAT, found, SolveStats(rung)))


@pytest.mark.parametrize("solver", [branch_solve, reduced_solve])
@pytest.mark.parametrize("s", [1, 2])
def test_ilp_core_answers_when_a_removal_empties_a_class(solver, s):
    # removing user 0 or user 2 empties class {r0} or {r1}, which two
    # of the three configurations use: the ilp core's capacities then
    # leave that class out
    x = norm([[0], [0, 1], [1]], p=2, s=s, d=1, t=2)
    v = solver(x, limits=RUNGS["ilp"])
    assert v.stats.algorithm.endswith("+ilp")
    assert v.sat == solve_rcp_bruteforce(x).sat == (s == 1)
    if not v.sat:
        assert verify_witness(x, v)


def test_one_class_table_per_instance(monkeypatch):
    # every module binding of class_partition is counted: on the ilp
    # rung at s > 0, auto's count, the search and the core's
    # configuration list read one table; later solves of the same
    # instance build none, and a replaced instance builds its own
    built = []

    def counted(inst):
        built.append(inst)
        return class_partition(inst)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rescheck" and (
            getattr(module, "class_partition", None) is class_partition
        ):
            monkeypatch.setattr(module, "class_partition", counted)
    x = normalize(random_instance(1, 14, 4, 0.5, s=1, d=2, t=3).instance)
    limits = Limits(dp_bits=0)
    v = solve(x, limits=limits)
    assert v.stats.algorithm.endswith("+ilp")
    assert len(built) == 1 and built[0] is x
    assert solve(x, limits=limits).stats == v.stats
    branch_solve(x, limits=limits)
    reduced_solve(x, limits=limits)
    assert len(built) == 1
    y = replace(x, access=x.access[1:] + x.access[:1])
    assert y.classes == {m: users for m, users in class_partition(y).items() if m}
    assert y.classes != x.classes
    assert len(built) == 2 and built[1] is y


def _nothing_stored(*args, **kwargs):
    return False


@settings(max_examples=300, deadline=None)
@given(instances(max_n=7, max_p=3, max_s=2, max_d=3))
def test_swap_screen_keeps_every_verdict(x):
    # both searches answer as they do with the stored-teams screen
    # finding nothing, on every rung they reach, down to the witness,
    # route, node count and extras, and as the oracle does; the pivot
    # attempts and the core's nodes are left out, as the screen saves
    # core calls
    y = normalize(x)
    want = solve_rcp_bruteforce(y).sat

    def shown(v):
        extras = {
            k: n
            for k, n in v.stats.extras.items()
            if not k.startswith("pivot_") and k != "core_nodes"
        }
        return v.answer, v.witness, v.stats.algorithm, v.stats.nodes, extras

    for search, rung in SEARCHES:
        v = search(y, limits=RUNGS[rung])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rescheck.blockers, "_stored_covers", _nothing_stored)
            plain = search(y, limits=RUNGS[rung])
        assert v.stats.algorithm.endswith(f"+{rung}")
        assert shown(v) == shown(plain)
        assert v.sat == want


def test_a_removal_set_reached_twice_is_solved_once(monkeypatch):
    # the root's team is {0, 1}; removing either leaves a team holding
    # the other, so {0, 1} is reached along both branching orders. With
    # the stored-teams screen finding nothing every node would ask the
    # core, but the revisit returns at once
    asked = []
    s0_core = rescheck.teams.s0_core

    def recorded_core(*args, **kwargs):
        core = s0_core(*args, **kwargs)

        def recorded(removed_mask):
            asked.append(removed_mask)
            return core(removed_mask)

        return recorded

    monkeypatch.setattr(rescheck.blockers, "_stored_covers", _nothing_stored)
    monkeypatch.setattr(rescheck.teams, "s0_core", recorded_core)
    x = norm([[0], [1], [0], [1], [0], [1]], p=2, s=2, d=1, t=2)
    v = branch_solve(x)
    assert v.sat
    assert asked.count(0b11) == 1
    assert len(asked) == len(set(asked))
    assert v.stats.nodes > len(asked)


def test_a_chain_deeper_than_the_recursion_limit():
    # 1,200 removals down one branch: each team is the next user, the
    # budget-0 leaf swaps user 1,200 in, and no frame is kept per level
    x = normalize(
        Instance(access=(1,) * 3000, num_resources=1, target=1, s=1200, d=1, t=1)
    )
    v = branch_solve(x)
    assert v.sat and v.witness is None
    assert v.stats.nodes == 1201


@st.composite
def classed_instances(draw):
    # A class of one to six users reaching every resource beside two to
    # five small classes of one to four users, in shuffled order, with s
    # from 1 to 5, so that spare users, budgets that reach or miss them,
    # SAT answers and searches of five or more deletion vectors are all
    # common. Hypothesis favors the first option listed, so the ones
    # that make deep searches come first. Every instance fits the class
    # budget.
    p = draw(st.sampled_from([3, 2]))
    full = (1 << p) - 1
    small = draw(st.permutations(range(1, full)))[: draw(st.sampled_from([5, 4, 3, 2]))]
    classes = [(mask, draw(st.sampled_from([1, 2, 3, 4]))) for mask in small]
    classes.append((full, draw(st.sampled_from([6, 5, 4, 3, 2, 1]))))
    access = draw(st.permutations([mask for mask, size in classes for _ in range(size)]))
    return normalize(
        Instance(
            access=tuple(access),
            num_resources=p,
            target=full,
            s=draw(st.sampled_from([5, 4, 3, 2, 1])),
            d=draw(st.sampled_from([2, 3, 1])),
            t=draw(st.sampled_from([INF, 3, 2, 1])),
        )
    )


@settings(max_examples=300, deadline=None)
@given(classed_instances())
def test_vector_count_is_the_reduced_node_count(y):
    # auto's count is exactly the number of nodes reduced visits when it
    # answers SAT, and bounds it when it finds a blocker first; with a
    # cap below the count, the count stops at some number above the cap
    v = reduced_solve(y)
    count = _vector_count(y, 10**9)
    if v.sat:
        assert count == v.stats.nodes
    else:
        assert count >= v.stats.nodes
    assert _vector_count(y, count) == count
    assert _vector_count(y, count - 1) > count - 1


def _reduced_reference(x):
    # reduced's deletion vectors, in its visiting order, by recursion
    # over class_partition: a vector, then, for each class after the
    # last one it touches, last class first, each count k = 1, 2, ...
    # that fits the budget, with every vector below it. A touched class
    # loses its first k users and every user past its first d. Returns
    # the first blocking removal set, or None, and the vectors visited.
    parts = [users for mask, users in class_partition(x).items() if mask]
    visits = 0

    def visit(first, cost, removed):
        nonlocal visits
        visits += 1
        survivors = [u for u in range(x.n) if u not in removed]
        if not solve_s0_bruteforce(restrict(x, survivors), user_limit=None).sat:
            return removed
        for c in reversed(range(first, len(parts))):
            users = parts[c]
            spares = users[x.d :]
            for k in range(1, min(len(users), x.d) + 1):
                if cost + k + len(spares) > x.s:
                    break
                deleted = removed | set(users[:k]) | set(spares)
                got = visit(c + 1, cost + k + len(spares), deleted)
                if got is not None:
                    return got
        return None

    blocker = visit(0, 0, frozenset())
    return blocker, visits


@settings(max_examples=300, deadline=None)
@given(classed_instances())
def test_reduced_visits_vectors_in_the_reference_order(y):
    # reduced answers as the recursive reference does, blocks on the
    # same first vector, and visits as many vectors to get there
    v = reduced_solve(y)
    blocker, visits = _reduced_reference(y)
    assert v.sat == (blocker is None)
    assert v.stats.nodes == visits
    if blocker is not None:
        assert v.witness == BlockerSet(frozenset(blocker))
