"""On-disk JSON formats: instances, verdicts, kernel traces."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import norm
from rescheck import (
    INF,
    BlockerSet,
    Instance,
    InstanceFormatError,
    SolveStats,
    TeamSet,
    Verdict,
    emit_instance,
    emit_trace,
    emit_verdict,
    kernelize,
    parse_instance,
    parse_instance_document,
    parse_trace,
    parse_verdict,
    solve_rcp_bruteforce,
)
from rescheck.cli import EXIT_ERROR, main
from rescheck.serialize import _resource_mask

MINIMAL = """
{
  "version": 1,
  "users": [{"id": "alice", "resources": ["db"]}],
  "resources": ["db"],
  "policy": {"P": ["db"], "s": 0, "d": 1, "t": "inf"}
}
"""


def doc(**overrides):
    base = json.loads(MINIMAL)
    base.update(overrides)
    return json.dumps(base)


class TestParseInstance:
    def test_minimal_document(self):
        x = parse_instance(MINIMAL)
        assert x.n == 1 and x.num_resources == 1
        assert x.user_labels == ("alice",)
        assert x.resource_labels == ("db",)
        assert x.access == (0b1,)
        assert (x.s, x.d) == (0, 1)
        assert x.t == INF

    def test_parsing_does_not_normalize(self):
        text = doc(
            users=[{"id": "alice", "resources": ["db"]}],
            resources=["db", "mail"],
            policy={"P": ["db"], "s": 0, "d": 1, "t": 5},
        )
        x = parse_instance(text)
        assert x.num_resources == 2  # "mail" kept even though unqueried
        assert x.t == 5  # t kept even though it exceeds |P|

    def test_finite_t(self):
        text = doc(policy={"P": ["db"], "s": 1, "d": 2, "t": 3})
        x = parse_instance(text)
        assert (x.s, x.d, x.t) == (1, 2, 3)

    def test_provenance_is_carried(self):
        text = doc(provenance={"family": "random", "seed": 9})
        parsed = parse_instance_document(text)
        assert parsed.provenance == {"family": "random", "seed": 9}

    def test_syntax_error_reports_position(self):
        with pytest.raises(InstanceFormatError, match=r"syntax error: .* \(line 1, column"):
            parse_instance("{oops")

    def test_version_mismatch(self):
        with pytest.raises(InstanceFormatError, match="version"):
            parse_instance(doc(version=2))

    def test_duplicate_user_id(self):
        text = doc(users=[
            {"id": "alice", "resources": []},
            {"id": "alice", "resources": []},
        ])
        with pytest.raises(InstanceFormatError, match=r"users\[1\].id: duplicate user id 'alice'"):
            parse_instance(text)

    def test_duplicate_resource_id(self):
        with pytest.raises(InstanceFormatError, match=r"resources\[1\]: duplicate"):
            parse_instance(doc(resources=["db", "db"]))

    def test_unknown_resource_reference(self):
        text = doc(users=[{"id": "alice", "resources": ["mail"]}])
        with pytest.raises(
            InstanceFormatError, match=r"users\[0\].resources\[0\]: unknown resource id 'mail'"
        ):
            parse_instance(text)

    def test_unknown_target_resource(self):
        text = doc(policy={"P": ["mail"], "s": 0, "d": 1, "t": 1})
        with pytest.raises(InstanceFormatError, match=r"policy.P\[0\]"):
            parse_instance(text)

    def test_duplicate_target_resource(self):
        text = doc(
            users=[{"id": "alice", "resources": ["db"]}],
            policy={"P": ["db", "db"], "s": 0, "d": 1, "t": 1},
        )
        with pytest.raises(InstanceFormatError, match=r"policy.P\[1\]: duplicate"):
            parse_instance(text)

    def test_policy_field_types(self):
        with pytest.raises(InstanceFormatError, match="policy.s"):
            parse_instance(doc(policy={"P": ["db"], "s": -1, "d": 1, "t": 1}))
        with pytest.raises(InstanceFormatError, match="policy.s"):
            parse_instance(doc(policy={"P": ["db"], "s": True, "d": 1, "t": 1}))
        with pytest.raises(InstanceFormatError, match="policy.d"):
            parse_instance(doc(policy={"P": ["db"], "s": 0, "d": 0, "t": 1}))
        with pytest.raises(InstanceFormatError, match="policy.t"):
            parse_instance(doc(policy={"P": ["db"], "s": 0, "d": 1, "t": 0}))
        with pytest.raises(InstanceFormatError, match="policy.t"):
            parse_instance(doc(policy={"P": ["db"], "s": 0, "d": 1, "t": "unbounded"}))

    def test_non_object_top_level(self):
        with pytest.raises(InstanceFormatError, match="document"):
            parse_instance("[1, 2]")


class TestSharedResourceLists:
    """Users that carry equal resource lists are validated once per parse."""

    def test_a_string_never_passes_as_an_equal_list(self):
        # tuple("r0") == tuple(["r", "0"]): only lists may hit the memo
        text = doc(
            users=[
                {"id": "alice", "resources": ["r", "0"]},
                {"id": "bob", "resources": "r0"},
            ],
            resources=["r", "0", "r0"],
        )
        with pytest.raises(
            InstanceFormatError, match=r"^users\[1\].resources: expected a list of resource ids$"
        ):
            parse_instance(text)

    def test_an_unhashable_entry_is_a_format_error(self, tmp_path, capsys):
        text = doc(users=[
            {"id": "alice", "resources": ["db"]},
            {"id": "bob", "resources": [{"id": "db"}]},
        ])
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(text)
        assert str(err.value) == "users[1].resources[0]: unknown resource id {'id': 'db'}"
        path = tmp_path / "x.json"
        path.write_text(text, encoding="utf-8")
        assert main(["solve", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err.value}\n"

    def test_a_repeated_invalid_list_names_its_first_carrier(self):
        text = doc(users=[
            {"id": "alice", "resources": ["db"]},
            {"id": "bob", "resources": ["db", "mail"]},
            {"id": "carol", "resources": ["db", "mail"]},
        ])
        with pytest.raises(
            InstanceFormatError, match=r"^users\[1\].resources\[1\]: unknown resource id 'mail'$"
        ):
            parse_instance(text)

    def test_each_parse_reads_its_own_resource_table(self):
        users = [{"id": "alice", "resources": ["a"]}, {"id": "bob", "resources": ["a"]}]
        first = parse_instance(doc(users=users, resources=["a", "b"], policy={
            "P": ["a"], "s": 0, "d": 1, "t": 1}))
        second = parse_instance(doc(users=users, resources=["b", "a"], policy={
            "P": ["a"], "s": 0, "d": 1, "t": 1}))
        assert first.access == (0b01, 0b01)
        assert second.access == (0b10, 0b10)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_mask_equals_the_validated_list(self, data):
        p = data.draw(st.integers(1, 6))
        labels = data.draw(st.permutations([f"r{j}" for j in range(p)]))
        subsets = st.lists(st.sampled_from(labels), unique=True)
        pool = data.draw(st.lists(subsets, min_size=1, max_size=4))
        lists = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
        text = doc(
            users=[{"id": f"u{i}", "resources": ids} for i, ids in enumerate(lists)],
            resources=labels,
            policy={"P": labels[:1], "s": 0, "d": 1, "t": 1},
        )
        index = {rid: j for j, rid in enumerate(labels)}
        x = parse_instance(text)
        assert x.access == tuple(_resource_mask(ids, "f", index) for ids in lists)


class TestInstanceRoundTrip:
    def test_parse_of_emit_is_identity(self):
        x = Instance(
            access=(0b101, 0b011),
            num_resources=3,
            target=0b110,
            s=2,
            d=2,
            t=INF,
            user_labels=("alice", "bob"),
            resource_labels=("db", "mail", "web"),
        )
        assert parse_instance(emit_instance(x)) == x

    def test_emit_is_deterministic(self):
        x = norm([[0], [0, 1]], p=2, s=1, d=1, t=2)
        assert emit_instance(x) == emit_instance(x)

    def test_emit_of_parse_preserves_bytes(self):
        x = norm([[0]], p=1, t=1)
        text = emit_instance(x, provenance={"family": "unit-test"})
        assert emit_instance(parse_instance_document(text).instance,
                             parse_instance_document(text).provenance) == text


class TestVerdicts:
    def test_team_witness_round_trip(self):
        x = norm([[0], [1]], p=2, d=1, t=2)
        v = Verdict("SAT", TeamSet((frozenset({0, 1}),)), SolveStats("dp", nodes=5))
        text = emit_verdict(v, x)
        back = parse_verdict(text, x)
        assert back.answer == "SAT"
        assert back.witness == v.witness
        assert back.stats.algorithm == "dp"
        assert back.stats.nodes == 5

    def test_blocker_witness_round_trip(self):
        x = norm([[0]], p=1, s=1, d=1, t=1)
        v = solve_rcp_bruteforce(x)
        back = parse_verdict(emit_verdict(v, x), x)
        assert back.answer == "UNSAT"
        assert back.witness == BlockerSet(frozenset({0}))

    def test_wall_clock_is_not_serialized(self):
        x = norm([[0]], p=1, d=1, t=1)
        v = Verdict("SAT", None, SolveStats("dp", nodes=3))
        assert "seconds" not in emit_verdict(v, x)

    def test_witness_and_stats_can_be_omitted(self):
        x = norm([[0]], p=1, d=1, t=1)
        v = Verdict("SAT", TeamSet((frozenset({0}),)), SolveStats("dp"))
        bare = emit_verdict(v, x, include_witness=False, include_stats=False)
        keys = list(json.loads(bare))
        assert keys == ["version", "answer", "algorithm"]
        back = parse_verdict(bare, x)
        assert back.witness is None
        assert back.stats.algorithm == "dp"

    def test_unknown_user_in_witness(self):
        x = norm([[0]], p=1, d=1, t=1)
        text = json.dumps({
            "version": 1, "answer": "SAT", "algorithm": "dp",
            "witness": {"teams": [["nobody"]]},
        })
        with pytest.raises(InstanceFormatError, match="unknown user id 'nobody'"):
            parse_verdict(text, x)

    def test_bad_answer(self):
        x = norm([[0]], p=1, d=1, t=1)
        text = json.dumps({"version": 1, "answer": "MAYBE", "algorithm": "dp"})
        with pytest.raises(InstanceFormatError, match="answer"):
            parse_verdict(text, x)


class TestTraces:
    def test_kernel_trace_round_trip(self):
        x = norm([[0, 1]] * 5 + [[0], []], p=2, d=2, t=INF)
        kernel, trace = kernelize(x)
        assert trace.steps  # both rules fire on this instance
        back = parse_trace(emit_trace(trace))
        assert back == trace

    def test_bad_rule_number(self):
        text = json.dumps({
            "version": 1, "trivially_sat": False,
            "steps": [{"rule": 3, "users": [], "resources": [], "expansion": []}],
        })
        with pytest.raises(InstanceFormatError, match=r"steps\[0\].rule"):
            parse_trace(text)

    def test_bad_expansion_shape(self):
        text = json.dumps({
            "version": 1, "trivially_sat": False,
            "steps": [{"rule": 2, "users": [], "resources": [], "expansion": [["r0"]]}],
        })
        with pytest.raises(InstanceFormatError, match=r"steps\[0\].expansion"):
            parse_trace(text)


VERDICT = {"version": 1, "answer": "SAT", "algorithm": "dp"}
TRACE = {"version": 1, "trivially_sat": False, "steps": []}


def _parse_verdict(text):
    return parse_verdict(text, norm([[0]], p=1, d=1, t=1))


@pytest.mark.parametrize(
    "parse, base, overrides, path",
    [
        (parse_instance_document, None, {"resources": ["db", 3]}, "resources"),
        (parse_instance_document, None, {"users": {"id": "alice"}}, "users"),
        (parse_instance_document, None, {"users": [{"resources": ["db"]}]}, "users[0]"),
        (parse_instance_document, None, {"policy": ["db"]}, "policy"),
        (parse_instance_document, None, {"provenance": "random"}, "provenance"),
        (_parse_verdict, VERDICT, {"witness": {"teams": ["u0"]}}, "witness.teams"),
        (_parse_verdict, VERDICT, {"witness": {"blocker": "u0"}}, "witness.blocker"),
        (_parse_verdict, VERDICT, {"witness": "u0"}, "witness"),
        (_parse_verdict, VERDICT, {"algorithm": 7}, "algorithm"),
        (_parse_verdict, VERDICT, {"stats": [0]}, "stats"),
        (_parse_verdict, VERDICT, {"stats": {"nodes": 0, "extras": []}}, "stats.extras"),
        (parse_trace, TRACE, {"steps": {}}, "steps"),
        (parse_trace, TRACE, {"steps": [[1]]}, "steps[0]"),
        (parse_trace, TRACE, {"steps": [{"rule": 1, "users": "u0"}]}, "steps[0].users"),
        (parse_trace, TRACE, {"steps": [{"rule": 1, "resources": [0]}]}, "steps[0].resources"),
        (parse_trace, TRACE, {"trivially_sat": "no"}, "trivially_sat"),
    ],
    ids=[
        "resources-not-strings", "users-not-a-list", "user-without-id",
        "policy-not-an-object", "provenance-not-an-object",
        "teams-not-lists", "blocker-not-a-list", "witness-of-no-kind",
        "algorithm-not-a-string", "stats-not-an-object", "extras-not-an-object",
        "steps-not-a-list", "step-not-an-object", "step-users-not-strings",
        "step-resources-not-strings", "trivially-sat-not-a-boolean",
    ],
)
def test_malformed_field_is_refused_under_its_path(parse, base, overrides, path):
    text = doc(**overrides) if base is None else json.dumps({**base, **overrides})
    with pytest.raises(InstanceFormatError) as err:
        parse(text)
    assert str(err.value).startswith(f"{path}: ")
