"""Removal-budget solvers, the coverage fast path, and routing."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rescheck.blockers
import rescheck.policy
import rescheck.teams
from conftest import instances, norm
from rescheck import (
    DEFAULT_LIMITS,
    INF,
    BlockerSet,
    BudgetError,
    Instance,
    Limits,
    PreconditionError,
    STRATEGIES,
    TeamSet,
    branch_solve,
    class_partition,
    dp_solve,
    emit_verdict,
    fastpath_d1_tinf,
    find_minimal_blocker,
    ilp_solve,
    normalize,
    pivot_solve,
    reduced_solve,
    restrict,
    solve,
    solve_rcp_bruteforce,
    solve_s0_bruteforce,
    verify_witness,
)
from rescheck.blockers import (
    _candidates,
    _pick_s0,
    _starved,
    _survivors,
    outside_domain,
)

# Each budget ladder rung, reached by limits every instance below fits.
RUNGS = {
    "dp": DEFAULT_LIMITS,
    "ilp": Limits(dp_bits=0),
    "pivot": Limits(dp_bits=0, max_classes=1),
}


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
        # core, and no Verdict solver runs
        calls = counting(
            monkeypatch,
            "dp_solve",
            "dp_search",
            "ilp_solve",
            "ilp_feasible",
            "pivot_solve",
            "pivot_search",
        )
        x = norm([[0, 1], [0, 1], [1]], p=2, s=1, d=2, t=2)
        v = branch_solve(x, limits=RUNGS[rung])
        assert v.stats.algorithm == f"branch+{rung}"
        assert v.witness == BlockerSet(frozenset({0}))
        assert v.stats.nodes == 2
        assert calls == {
            "dp": ["dp_search"],
            "ilp": ["ilp_feasible"],
            "pivot": ["pivot_search"],
        }[rung]

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
        # the one call replays its memo for the witness teams
        replays = []
        search = rescheck.teams.dp_search

        def counting(*args, replay=False):
            replays.append(replay)
            return search(*args, replay=replay)

        monkeypatch.setattr(rescheck.teams, "dp_search", counting)
        x = norm([[0], [1]], p=2, s=0, d=1, t=2)
        v = reduced_solve(x)
        assert v.sat and verify_witness(x, v)
        assert replays == [True]
        assert v.stats.nodes == 1

    def test_s_positive_makes_no_dp_solve_call(self, monkeypatch):
        # at s > 0 no node needs teams: the dp search answers on bare
        # masks, and no sub-instance is built
        calls = counting(monkeypatch, "dp_solve", "dp_search")
        x = norm([[0], [0], [1], [1], [0, 1]], p=2, s=1, d=2, t=2)
        v = reduced_solve(x)
        assert v.stats.algorithm == "reduced+dp"
        assert v.sat and v.witness is None and solve_rcp_bruteforce(x).sat
        assert v.stats.nodes == 4
        assert "dp_solve" not in calls and calls.count("dp_search") >= 2

    def test_ilp_rung_enumerates_configurations_once(self, monkeypatch):
        calls = counting(monkeypatch, "enumerate_configurations", "ilp_solve")
        x = norm([[0], [0], [1], [1], [0, 1], [0, 1]], p=2, s=2, d=2, t=2)
        v = reduced_solve(x, limits=RUNGS["ilp"])
        assert v.stats.algorithm == "reduced+ilp"
        assert v.sat and solve_rcp_bruteforce(x).sat
        assert v.stats.nodes == 10
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
        x = norm([[0], [1]], p=2, s=0, d=2, t=1)
        assert solve(x).stats.algorithm == "dp"

    def test_auto_falls_back_to_ilp_when_bits_run_out(self):
        x = norm([[0], [1]], p=2, s=0, d=2, t=1)
        v = solve(x, limits=Limits(dp_bits=1))
        assert v.stats.algorithm == "ilp"

    def test_auto_uses_branching_for_removals(self):
        x = norm([[0], [0]], p=1, s=1, d=2, t=1)
        assert solve(x).stats.algorithm.startswith("branch+")

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
    # every rung's core runs on bare data, teams included; witnesses are
    # checked outside the patch, since verify_witness restricts
    y = normalize(x)
    runs = [(branch_solve, rung) for rung in RUNGS] + [
        (reduced_solve, "dp"),
        (reduced_solve, "ilp"),
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rescheck.blockers, "restrict", _no_restrict)
        patch.setattr(rescheck.policy, "restrict", _no_restrict)
        verdicts = [(rung, search(y, limits=RUNGS[rung])) for search, rung in runs]
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


@settings(max_examples=400, deadline=None)
@given(instances(max_n=7, max_p=3, max_d=3), st.lists(st.integers(0, 6), unique=True))
def test_supply_screen_and_answer_cores_match_the_solvers(x, removals):
    # the screen only rejects survivor sets the oracle rejects, and each
    # rung's core agrees with its Verdict solver on the kept users: the
    # same answer, and when asked for teams, the same teams in the
    # caller's numbering
    y = normalize(x)
    removed_mask = sum(1 << u for u in removals[: y.s])  # searches remove <= s
    classes = _candidates(y)
    kept, counts = _survivors(classes, removed_mask, y.d)
    kept.sort()
    sub = restrict(y, kept)
    if _starved(classes, counts, y.target, y.d):
        survivors = [u for u in range(y.n) if not removed_mask >> u & 1]
        assert not solve_s0_bruteforce(restrict(y, survivors)).sat
    solvers = {
        "dp": dp_solve,
        "ilp": ilp_solve,
        "pivot": lambda sub, limits: pivot_solve(sub),
    }
    for rung, solver in solvers.items():
        name, core = _pick_s0(y, RUNGS[rung], classes)
        assert name == rung
        want = solver(sub, limits=RUNGS[rung])
        assert core(kept, counts, False) == (want.sat, None)
        teams = None
        if want.sat:
            teams = TeamSet(
                tuple(frozenset(kept[i] for i in team) for team in want.witness.teams)
            )
        assert core(kept, counts, True) == (want.sat, teams)
