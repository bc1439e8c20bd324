"""Kernelization for the s=0, unbounded-team-size regime."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rescheck.kernel
from conftest import inst, norm
from rescheck import (
    INF,
    ExpansionWitness,
    KernelStep,
    KernelTrace,
    PreconditionError,
    TeamSet,
    find_d_expansion,
    kernelize,
    lift_teams,
    normalize,
    replay,
    rule1_strip,
    rule2_apply,
    solve_s0_bruteforce,
    verify_witness,
)


class TestRule1:
    def test_strips_users_without_target_access(self):
        x = normalize(inst([[0], [1], [0, 1]], p=2, target=[0], t=INF))
        # after projection onto {r0}, u1's mask is empty
        y, trace = rule1_strip(x)
        assert y.n == 2
        assert y.user_labels == ("u0", "u2")
        assert trace.steps == (KernelStep(rule=1, users=("u1",)),)

    def test_noop_leaves_an_empty_trace(self):
        x = norm([[0]], p=1, t=INF)
        y, trace = rule1_strip(x)
        assert y == x
        assert trace.steps == ()


class TestFindExpansion:
    def test_single_resource_demand(self):
        x = norm([[0], [0], [0]], p=1, d=1, t=INF)
        w = find_d_expansion(x, 1)
        assert w.x == frozenset({0})
        assert len(w.pairs) == 1
        assert w.y == frozenset({u for _, u in w.pairs})

    def test_supply_below_threshold(self):
        x = norm([[0, 1], [0], [1]], p=2, d=2, t=INF)
        assert find_d_expansion(x, 2) is None  # 3 users < d * |P| = 4

    def test_full_access_block_saturates_everything(self):
        x = norm([[0, 1]] * 4, p=2, d=2, t=INF)
        w = find_d_expansion(x, 2)
        assert w.x == frozenset({0, 1})
        assert w.y == frozenset({0, 1, 2, 3})
        assert len(w.pairs) == 4

    def test_shrinks_past_an_uncoverable_resource(self):
        # r1 has no users at all, so X settles on r0 alone
        x = normalize(inst([[0], [0]], p=2, t=INF, target=[0, 1], s=0, d=1))
        w = find_d_expansion(x, 1)
        assert w.x == frozenset({0})
        assert len(w.pairs) == 1

    def test_requires_rule1_first(self):
        x = normalize(inst([[0], []], p=1, t=INF))
        with pytest.raises(PreconditionError):
            find_d_expansion(x, 1)


def _recursive_augment(adj, match, root):
    # The recursive augmenting-path search that _augment replaced, kept
    # as the reference for its visiting order and the matching it leaves.
    visited = set()

    def augment(r):
        for u in adj[r]:
            if u in visited:
                continue
            visited.add(u)
            owner = match.get(u)
            if owner is None or augment(owner):
                match[u] = r
                return True
        return False

    return augment(root)


@st.composite
def bipartite(draw):
    # p resources, each user's nonempty set of them, and d.
    p = draw(st.integers(1, 5))
    n = draw(st.integers(0, 14))
    rows = [draw(st.sets(st.integers(0, p - 1), min_size=1)) for _ in range(n)]
    return p, rows, draw(st.integers(1, 3))


class TestAugment:
    @settings(max_examples=300, deadline=None)
    @given(bipartite(), st.randoms(use_true_random=False))
    def test_same_matching_as_the_recursive_search(self, graph, rng):
        p, rows, d = graph
        adj = {r: [u for u, row in enumerate(rows) if r in row] for r in range(p)}
        for users in adj.values():
            rng.shuffle(users)
        runs = []
        for augment in (rescheck.kernel._augment, _recursive_augment):
            match, found = {}, []
            for r in range(p):
                for _ in range(d):
                    found.append(augment(adj, match, r))
            runs.append((found, list(match.items())))
        assert runs[0] == runs[1]

    @settings(max_examples=300, deadline=None)
    @given(bipartite())
    def test_same_expansion_as_the_recursive_search(self, graph):
        p, rows, d = graph
        x = norm([sorted(row) for row in rows], p=p, s=0, d=d, t=INF)
        y, _ = rule1_strip(x)
        w = find_d_expansion(y, y.d)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rescheck.kernel, "_augment", _recursive_augment)
            assert find_d_expansion(y, y.d) == w

    def test_alternating_path_past_the_recursion_limit(self):
        # users j = 2998..0 reach {j, j+1}, then one user reaches {0}:
        # matching r0 last follows an alternating path through every
        # resource, 3000 deep
        p = 3000
        rows = [[j, j + 1] for j in reversed(range(p - 1))] + [[0]]
        x = norm(rows, p=p, s=0, d=1, t=INF)
        w = find_d_expansion(x, 1)
        assert w.x == frozenset(range(p))
        kernel, trace = kernelize(x)
        assert trace.trivially_sat
        assert replay(x, trace) == kernel


class TestRule2:
    def test_deletes_matched_region_and_reclamps_t(self):
        x = norm([[0, 1]] * 4 + [[0]], p=2, d=2, t=INF)
        w = find_d_expansion(x, 2)
        y, trace = rule2_apply(x, w)
        assert y.n == 1 and y.num_resources == 0
        (step,) = trace.steps
        assert step.rule == 2
        assert step.resources == ("r0", "r1")
        assert len(step.expansion) == 4

    def test_rejects_pair_count_mismatch(self):
        x = norm([[0]] * 2, p=1, d=2, t=INF)
        bad = ExpansionWitness(frozenset({0}), frozenset({0}), ((0, 0),))
        with pytest.raises(ValueError, match="matched users"):
            rule2_apply(x, bad)

    def test_rejects_reused_user(self):
        x = norm([[0]] * 2, p=1, d=2, t=INF)
        bad = ExpansionWitness(frozenset({0}), frozenset({0}), ((0, 0), (0, 0)))
        with pytest.raises(ValueError, match="matched to two"):
            rule2_apply(x, bad)

    def test_rejects_non_authorized_pair(self):
        x = normalize(inst([[0], [0], [1]], p=2, t=INF, d=1))
        bad = ExpansionWitness(frozenset({0}), frozenset({2}), ((0, 2),))
        with pytest.raises(ValueError, match="not an authorization"):
            rule2_apply(x, bad)

    def test_rejects_users_reaching_outside_x(self):
        x = norm([[0, 1], [0], [1]], p=2, d=1, t=INF)
        bad = ExpansionWitness(frozenset({0}), frozenset({0}), ((0, 0),))
        with pytest.raises(ValueError, match="outside X"):
            rule2_apply(x, bad)

    @pytest.mark.parametrize(
        "witness, message",
        [
            (ExpansionWitness(frozenset(), frozenset({0}), ((0, 0),)), "must name"),
            (ExpansionWitness(frozenset({0}), frozenset(), ((0, 0),)), "must name"),
            (ExpansionWitness(frozenset({0}), frozenset({0, 1}), ((1, 0),)),
             "resource 1 outside X"),
            (ExpansionWitness(frozenset({0}), frozenset({0}), ((0, 1),)), "user 1 outside Y"),
        ],
        ids=["empty-x", "empty-y", "pair-resource-outside-x", "pair-user-outside-y"],
    )
    def test_rejects_forged_witnesses(self, witness, message):
        x = norm([[0], [0], [1]], p=2, d=1, t=INF)
        with pytest.raises(ValueError, match=message):
            rule2_apply(x, witness)


class TestKernelize:
    def test_requires_zero_removals(self):
        x = norm([[0]], p=1, s=1, t=INF)
        with pytest.raises(PreconditionError, match="s=0"):
            kernelize(x)

    def test_requires_unbounded_team_size(self):
        x = norm([[0], [1]], p=2, t=1)
        with pytest.raises(PreconditionError, match="team size"):
            kernelize(x)

    def test_trivially_sat_when_target_empties(self):
        x = norm([[0], [0], [0]], p=1, d=1, t=INF)
        kernel, trace = kernelize(x)
        assert kernel.num_resources == 0 and kernel.n == 0
        assert trace.trivially_sat
        assert solve_s0_bruteforce(x).sat

    def test_unsat_survives_kernelization(self):
        # nobody reaches r1; the kernel keeps an uncoverable resource
        x = normalize(inst([[0], [0]], p=2, t=INF, d=1))
        kernel, trace = kernelize(x)
        assert not trace.trivially_sat
        assert kernel.num_resources == 1 and kernel.n == 0
        assert not solve_s0_bruteforce(kernel).sat
        assert not solve_s0_bruteforce(x).sat

    def test_replay_rebuilds_the_kernel(self):
        x = norm([[0, 1]] * 5 + [[0], [1]], p=2, d=2, t=INF)
        kernel, trace = kernelize(x)
        assert replay(x, trace) == kernel

    def test_replay_rejects_foreign_traces(self):
        x = norm([[0]], p=1, t=INF)
        trace = KernelTrace((KernelStep(rule=1, users=("nobody",)),))
        with pytest.raises(ValueError, match="unknown label"):
            replay(x, trace)

    def test_idempotent(self):
        x = norm([[0, 1]] * 3 + [[0]], p=2, d=1, t=INF)
        kernel, _ = kernelize(x)
        again, trace = kernelize(kernel)
        assert again == kernel
        assert trace.steps == ()

    def test_size_bound_and_answer_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(200):
            n = 1 + int(rng.random() * 25)
            p = 1 + int(rng.random() * 3)
            d = 1 + int(rng.random() * 3)
            rows = [
                [r for r in range(p) if rng.random() < 0.55] for _ in range(n)
            ]
            x = norm(rows, p=p, s=0, d=d, t=INF)
            kernel, trace = kernelize(x)
            assert kernel.n < max(kernel.d * kernel.num_resources, 1) or kernel.n == 0
            assert kernel.n <= kernel.d * kernel.num_resources
            want = solve_s0_bruteforce(x, user_limit=None).sat
            if trace.trivially_sat:
                assert kernel.num_resources == 0
                assert want
            else:
                assert solve_s0_bruteforce(kernel, user_limit=None).sat == want
            assert replay(x, trace) == kernel


class TestLiftTeams:
    def test_round_trip_through_a_trivially_sat_kernel(self):
        x = norm([[0, 1]] * 4, p=2, d=2, t=INF)
        kernel, trace = kernelize(x)
        assert trace.trivially_sat
        lifted = lift_teams(x, kernel, trace, TeamSet((frozenset(), frozenset())))
        v = solve_s0_bruteforce(x)  # any SAT verdict shape works for verify
        v.witness = lifted
        assert verify_witness(x, v)

    def test_wrong_team_count_is_rejected(self):
        x = norm([[0]] * 3, p=1, d=1, t=INF)
        kernel, trace = kernelize(x)
        with pytest.raises(ValueError, match="team count"):
            lift_teams(x, kernel, trace, TeamSet((frozenset(), frozenset())))

    def test_lifted_teams_verify_on_random_sat_instances(self):
        rng = random.Random(23)
        checked = 0
        while checked < 60:
            n = 2 + int(rng.random() * 20)
            p = 1 + int(rng.random() * 3)
            d = 1 + int(rng.random() * 2)
            rows = [
                [r for r in range(p) if rng.random() < 0.6] for _ in range(n)
            ]
            x = norm(rows, p=p, s=0, d=d, t=INF)
            kernel, trace = kernelize(x)
            if trace.trivially_sat:
                kernel_teams = TeamSet(tuple(frozenset() for _ in range(d)))
            else:
                v = solve_s0_bruteforce(kernel, user_limit=None)
                if not v.sat:
                    continue
                kernel_teams = v.witness
            lifted = lift_teams(x, kernel, trace, kernel_teams)
            verdict = solve_s0_bruteforce(x, user_limit=None)
            assert verdict.sat
            verdict.witness = lifted
            assert verify_witness(x, verdict)
            checked += 1

    def test_a_forged_step_short_of_d_users_is_rejected(self):
        x = norm([[0]] * 3, p=1, d=2, t=INF)
        step = KernelStep(rule=2, users=("u0",), resources=("r0",), expansion=(("r0", "u0"),))
        empty = TeamSet((frozenset(), frozenset()))
        with pytest.raises(ValueError, match="d users per resource"):
            lift_teams(x, x, KernelTrace((step,)), empty)

    def test_a_label_the_original_lacks_is_rejected(self):
        x = norm([[0]] * 3, p=1, d=1, t=INF)
        step = KernelStep(
            rule=2, users=("ghost",), resources=("r0",), expansion=(("r0", "ghost"),)
        )
        with pytest.raises(ValueError, match="unknown user 'ghost'"):
            lift_teams(x, x, KernelTrace((step,)), TeamSet((frozenset(),)))
