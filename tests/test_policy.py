"""Core model: normalization, classes, witness checking."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import inst, instances
from rescheck import (
    INF,
    BlockerSet,
    DegenerateInstanceError,
    Instance,
    PreconditionError,
    SolveStats,
    TeamSet,
    Verdict,
    class_partition,
    is_normalized,
    neighborhood,
    normalize,
    require_normalized,
    restrict,
    verify_witness,
)


class TestInstance:
    def test_defaults_and_sizes(self):
        x = inst([[0, 1], [1]], p=2, d=2, t=2)
        assert x.n == 2
        assert x.p == 2
        assert x.user_labels == ("u0", "u1")
        assert x.resource_labels == ("r0", "r1")

    def test_rejects_out_of_range_masks(self):
        with pytest.raises(ValueError):
            Instance(access=(0b100,), num_resources=2, target=0b11)
        with pytest.raises(ValueError):
            Instance(access=(0b1,), num_resources=2, target=0b111)

    def test_rejects_bad_query_parameters(self):
        with pytest.raises(ValueError):
            Instance(access=(1,), num_resources=1, target=1, d=0)
        with pytest.raises(ValueError):
            Instance(access=(1,), num_resources=1, target=1, s=-1)
        with pytest.raises(ValueError):
            Instance(access=(1,), num_resources=1, target=1, t=0)
        with pytest.raises(ValueError):
            Instance(access=(1,), num_resources=1, target=1, t=2.5)

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError):
            Instance(access=(1, 1), num_resources=1, target=1, user_labels=("a",))
        with pytest.raises(ValueError):
            Instance(access=(1,), num_resources=1, target=1, resource_labels=("a", "b"))


class TestNeighborhood:
    def test_union_of_masks(self):
        x = inst([[0], [1], [0, 2]], p=3)
        assert neighborhood(x, [0]) == 0b001
        assert neighborhood(x, [0, 1]) == 0b011
        assert neighborhood(x, [0, 1, 2]) == 0b111
        assert neighborhood(x, []) == 0

    @given(instances(), st.data())
    def test_monotone_in_the_user_set(self, x, data):
        users = data.draw(st.sets(st.integers(0, max(x.n - 1, 0))))
        users = {u for u in users if u < x.n}
        sub = data.draw(st.sets(st.sampled_from(sorted(users)))) if users else set()
        small = neighborhood(x, sub)
        assert small | neighborhood(x, users) == neighborhood(x, users)
        assert small & ~neighborhood(x, users) == 0


class TestRestrict:
    def test_renumbers_and_keeps_labels(self):
        x = inst([[0], [1], [0, 1]], p=2, s=1, d=2, t=1)
        sub = restrict(x, [2, 0])
        assert sub.access == (0b01, 0b11)
        assert sub.user_labels == ("u0", "u2")
        assert (sub.s, sub.d, sub.t) == (1, 2, 1)
        assert sub.target == x.target

    def test_all_users_is_identity(self):
        x = inst([[0], [1]], p=2)
        assert restrict(x, range(x.n)) == x

    @given(instances(), st.data())
    def test_composes(self, x, data):
        first = sorted(data.draw(st.sets(st.integers(0, x.n))) & set(range(x.n)))
        second = sorted(data.draw(st.sets(st.integers(0, len(first)))) & set(range(len(first))))
        twice = restrict(restrict(x, first), second)
        once = restrict(x, [first[i] for i in second])
        assert twice == once


class TestNormalize:
    def test_unbounded_t_becomes_target_size(self):
        x = inst([[0, 1, 2]], p=3, t=INF)
        assert normalize(x).t == 3

    def test_small_t_is_kept(self):
        x = inst([[0]], p=5, t=2)
        assert normalize(x).t == 2

    def test_oversized_t_is_clamped(self):
        x = inst([[0]], p=4, t=9)
        assert normalize(x).t == 4

    def test_empty_target_is_degenerate(self):
        x = Instance(access=(0b11,), num_resources=2, target=0)
        with pytest.raises(DegenerateInstanceError):
            normalize(x)

    def test_projects_onto_target(self):
        # r1 is not queried, so it disappears; labels keep identities
        x = Instance(
            access=(0b101, 0b010, 0b110),
            num_resources=3,
            target=0b101,
            t=INF,
        )
        y = normalize(x)
        assert y.num_resources == 2
        assert y.target == 0b11
        assert y.access == (0b11, 0b00, 0b10)
        assert y.resource_labels == ("r0", "r2")
        assert y.t == 2

    @given(instances())
    def test_idempotent_and_normalized(self, x):
        y = normalize(x)
        assert is_normalized(y)
        assert normalize(y) == y
        require_normalized(y)

    def test_require_normalized_rejects_raw_instance(self):
        x = inst([[0]], p=1, t=INF)
        assert not is_normalized(x)
        with pytest.raises(PreconditionError):
            require_normalized(x)


class TestClassPartition:
    def test_groups_by_target_neighborhood(self):
        # u0,u1 reach exactly {r0}; u2 reaches {r0,r1}
        x = inst([[0], [0], [0, 1]], p=2)
        assert class_partition(x) == {0b01: (0, 1), 0b11: (2,)}

    def test_masks_are_projected_onto_target(self):
        x = Instance(access=(0b111,), num_resources=3, target=0b011)
        assert class_partition(x) == {0b011: (0,)}

    @given(instances())
    def test_partitions_all_users(self, x):
        part = class_partition(x)
        seen: list[int] = []
        for m, members in part.items():
            assert m & ~x.target == 0
            for u in members:
                assert x.access[u] & x.target == m
            seen.extend(members)
        assert sorted(seen) == list(range(x.n))
        assert list(part) == sorted(part)


class TestVerifyWitness:
    def test_accepts_covering_disjoint_teams(self):
        x = inst([[0, 1], [0], [1]], p=2, d=2, t=2)
        v = Verdict("SAT", TeamSet((frozenset({0}), frozenset({1, 2}))), SolveStats("x"))
        assert verify_witness(x, v)

    def test_rejects_wrong_team_count(self):
        x = inst([[0]], p=1, d=2, t=1)
        v = Verdict("SAT", TeamSet((frozenset({0}),)), SolveStats("x"))
        assert not verify_witness(x, v)

    def test_rejects_overlapping_teams(self):
        x = inst([[0], [0]], p=1, d=2, t=1)
        v = Verdict("SAT", TeamSet((frozenset({0}), frozenset({0}))), SolveStats("x"))
        assert not verify_witness(x, v)

    def test_rejects_oversized_team(self):
        x = inst([[0], [1]], p=2, d=1, t=1)
        v = Verdict("SAT", TeamSet((frozenset({0, 1}),)), SolveStats("x"))
        assert not verify_witness(x, v)

    def test_rejects_non_covering_team(self):
        x = inst([[0], [1]], p=2, d=1, t=2)
        v = Verdict("SAT", TeamSet((frozenset({0}),)), SolveStats("x"))
        assert not verify_witness(x, v)

    def test_rejects_unknown_user_index(self):
        x = inst([[0]], p=1, d=1, t=1)
        v = Verdict("SAT", TeamSet((frozenset({5}),)), SolveStats("x"))
        assert not verify_witness(x, v)

    def test_accepts_blocker_that_breaks_the_policy(self):
        # one user holds everything; removing it kills the only team
        x = inst([[0, 1]], p=2, s=1, d=1, t=2)
        v = Verdict("UNSAT", BlockerSet(frozenset({0})), SolveStats("x"))
        assert verify_witness(x, v)

    def test_rejects_blocker_over_budget(self):
        x = inst([[0], [0]], p=1, s=1, d=1, t=1)
        v = Verdict("UNSAT", BlockerSet(frozenset({0, 1})), SolveStats("x"))
        assert not verify_witness(x, v)

    def test_rejects_blocker_that_leaves_a_team(self):
        x = inst([[0], [0]], p=1, s=1, d=1, t=1)
        v = Verdict("UNSAT", BlockerSet(frozenset({0})), SolveStats("x"))
        assert not verify_witness(x, v)

    def test_missing_witness_raises(self):
        x = inst([[0]], p=1)
        with pytest.raises(ValueError):
            verify_witness(x, Verdict("SAT", None, SolveStats("x")))

    def test_empty_target_with_zero_resources_accepts_empty_teams(self):
        x = Instance(access=(), num_resources=0, target=0, d=2, t=1)
        v = Verdict("SAT", TeamSet((frozenset(), frozenset())), SolveStats("x"))
        assert verify_witness(x, v)
