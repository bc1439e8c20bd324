"""JSON reading and writing for instances, verdicts, and kernel traces.

One on-disk syntax: JSON with string ids. Internally users and
resources are dense integers; the label tables on Instance carry the
ids so every document round-trips. Parsing never normalizes, stored
files are faithful to what was written.

All validation failures raise InstanceFormatError with the offending
field path (or line/column for syntax errors); nothing here aborts the
process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from .kernel import KernelStep, KernelTrace
from .policy import (
    INF,
    SAT,
    UNSAT,
    BlockerSet,
    Instance,
    SolveStats,
    TeamSet,
    Verdict,
)

FORMAT_VERSION = 1


class InstanceFormatError(ValueError):
    """A document failed validation; the message names the field."""


def _fail(field: str, msg: str) -> None:
    raise InstanceFormatError(f"{field}: {msg}")


def _load(text: str) -> dict[str, Any]:
    """Parse a document whose root must be a JSON object of our version."""
    try:
        root = json.loads(text)
    except json.JSONDecodeError as err:
        raise InstanceFormatError(
            f"syntax error: {err.msg} (line {err.lineno}, column {err.colno})"
        ) from None
    if not isinstance(root, dict):
        _fail("document", "expected a JSON object at top level")
    if root.get("version") != FORMAT_VERSION:
        _fail("version", f"expected {FORMAT_VERSION}, got {root.get('version')!r}")
    return root


def _require_int(value: Any, field: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(field, f"expected an integer, got {value!r}")
    if value < minimum:
        _fail(field, f"must be at least {minimum}, got {value}")
    return value


def _resource_mask(ids: Any, field: str, res_index: dict[str, int]) -> int:
    # A list of distinct known resource ids, as a bitmask.
    if not isinstance(ids, list):
        _fail(field, "expected a list of resource ids")
    mask = 0
    for x, rid in enumerate(ids):
        if not isinstance(rid, str) or rid not in res_index:
            _fail(f"{field}[{x}]", f"unknown resource id {rid!r}")
        bit = 1 << res_index[rid]
        if mask & bit:
            _fail(f"{field}[{x}]", f"duplicate resource id {rid!r}")
        mask |= bit
    return mask


@dataclass(frozen=True)
class InstanceDocument:
    """A parsed instance file: the instance plus its provenance block."""

    instance: Instance
    provenance: dict[str, Any] | None = None


def parse_instance_document(text: str) -> InstanceDocument:
    root = _load(text)

    resources = root.get("resources")
    if not isinstance(resources, list) or not all(isinstance(r, str) for r in resources):
        _fail("resources", "expected a list of resource id strings")
    res_index: dict[str, int] = {}
    for j, rid in enumerate(resources):
        if rid in res_index:
            _fail(f"resources[{j}]", f"duplicate resource id {rid!r}")
        res_index[rid] = j

    users = root.get("users")
    if not isinstance(users, list):
        _fail("users", "expected a list of user objects")
    access: list[int] = []
    user_labels: list[str] = []
    seen_users: set[str] = set()
    # Users share few distinct lists, so each is validated once. Only
    # lists are keys (tuple("r0") == tuple(["r", "0"])), and only after
    # _resource_mask accepted them, which also makes them hashable.
    masks: dict[tuple[Any, ...], int] = {}
    for i, entry in enumerate(users):
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            _fail(f"users[{i}]", "expected an object with a string 'id'")
        uid = entry["id"]
        if uid in seen_users:
            _fail(f"users[{i}].id", f"duplicate user id {uid!r}")
        seen_users.add(uid)
        ids = entry.get("resources")
        key = tuple(ids) if isinstance(ids, list) else None
        try:
            mask = masks[key]
        except (KeyError, TypeError):  # unseen, or unhashable and so invalid
            mask = _resource_mask(ids, f"users[{i}].resources", res_index)
            masks[key] = mask
        access.append(mask)
        user_labels.append(uid)

    policy = root.get("policy")
    if not isinstance(policy, dict):
        _fail("policy", "expected an object with P, s, d, t")
    target = _resource_mask(policy.get("P"), "policy.P", res_index)
    s = _require_int(policy.get("s"), "policy.s", 0)
    d = _require_int(policy.get("d"), "policy.d", 1)
    t_raw = policy.get("t")
    t: int | float
    if t_raw == "inf":
        t = INF
    else:
        t = _require_int(t_raw, "policy.t", 1)

    provenance = root.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        _fail("provenance", "expected an object")

    instance = Instance(
        access=tuple(access),
        num_resources=len(resources),
        target=target,
        s=s,
        d=d,
        t=t,
        user_labels=tuple(user_labels),
        resource_labels=tuple(resources),
    )
    return InstanceDocument(instance, provenance)


def parse_instance(text: str) -> Instance:
    return parse_instance_document(text).instance


def emit_instance(inst: Instance, provenance: dict[str, Any] | None = None) -> str:
    """Render an instance; field order is fixed so equal inputs give
    byte-identical output."""

    def labels(mask: int) -> list[str]:
        return [inst.resource_labels[r] for r in range(inst.num_resources) if mask >> r & 1]

    doc: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "users": [
            {"id": label, "resources": labels(mask)}
            for label, mask in zip(inst.user_labels, inst.access)
        ],
        "resources": list(inst.resource_labels),
        "policy": {
            "P": labels(inst.target),
            "s": inst.s,
            "d": inst.d,
            "t": "inf" if inst.t == INF else int(inst.t),
        },
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return json.dumps(doc, indent=2) + "\n"


def emit_verdict(
    verdict: Verdict,
    inst: Instance,
    *,
    include_witness: bool = True,
    include_stats: bool = True,
) -> str:
    """Render a verdict with witnesses spelled out as user ids.

    Wall-clock time is deliberately not serialized: verdict documents
    for the same input must be byte-identical across runs.
    """
    doc: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "answer": verdict.answer,
        "algorithm": verdict.stats.algorithm,
    }
    if include_witness:
        witness: dict[str, Any] | None
        if verdict.witness is None:
            witness = None
        elif isinstance(verdict.witness, TeamSet):
            witness = {
                "teams": [
                    [inst.user_labels[u] for u in sorted(team)]
                    for team in verdict.witness.teams
                ]
            }
        else:
            witness = {
                "blocker": [inst.user_labels[u] for u in sorted(verdict.witness.users)]
            }
        doc["witness"] = witness
    if include_stats:
        doc["stats"] = {
            "nodes": verdict.stats.nodes,
            "extras": dict(verdict.stats.extras),
        }
    return json.dumps(doc, indent=2) + "\n"


def parse_verdict(text: str, inst: Instance) -> Verdict:
    root = _load(text)
    answer = root.get("answer")
    if answer not in (SAT, UNSAT):
        _fail("answer", f"expected {SAT!r} or {UNSAT!r}, got {answer!r}")
    user_index = {label: u for u, label in enumerate(inst.user_labels)}

    def to_user(label: Any, field: str) -> int:
        if not isinstance(label, str) or label not in user_index:
            _fail(field, f"unknown user id {label!r}")
        return user_index[label]

    raw_witness = root.get("witness")
    witness: TeamSet | BlockerSet | None
    if raw_witness is None:
        witness = None
    elif isinstance(raw_witness, dict) and "teams" in raw_witness:
        teams = raw_witness["teams"]
        if not isinstance(teams, list) or not all(isinstance(tm, list) for tm in teams):
            _fail("witness.teams", "expected a list of teams")
        witness = TeamSet(
            tuple(
                frozenset(
                    to_user(label, f"witness.teams[{i}][{x}]")
                    for x, label in enumerate(team)
                )
                for i, team in enumerate(teams)
            )
        )
    elif isinstance(raw_witness, dict) and "blocker" in raw_witness:
        blocker = raw_witness["blocker"]
        if not isinstance(blocker, list):
            _fail("witness.blocker", "expected a list of user ids")
        witness = BlockerSet(
            frozenset(
                to_user(label, f"witness.blocker[{x}]") for x, label in enumerate(blocker)
            )
        )
    else:
        _fail("witness", "expected null, a teams object, or a blocker object")
    algorithm = root.get("algorithm")
    if not isinstance(algorithm, str):
        _fail("algorithm", "expected a string")
    stats_raw = root.get("stats")
    if stats_raw is None:
        return Verdict(answer, witness, SolveStats(algorithm))
    if not isinstance(stats_raw, dict):
        _fail("stats", "expected an object")
    nodes = _require_int(stats_raw.get("nodes"), "stats.nodes", 0)
    extras = stats_raw.get("extras")
    if not isinstance(extras, dict):
        _fail("stats.extras", "expected an object")
    return Verdict(answer, witness, SolveStats(algorithm, nodes=nodes, extras=dict(extras)))


def emit_trace(trace: KernelTrace) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "trivially_sat": trace.trivially_sat,
        "steps": [
            {
                "rule": step.rule,
                "users": list(step.users),
                "resources": list(step.resources),
                "expansion": [[r, u] for r, u in step.expansion],
            }
            for step in trace.steps
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_trace(text: str) -> KernelTrace:
    root = _load(text)
    steps_raw = root.get("steps")
    if not isinstance(steps_raw, list):
        _fail("steps", "expected a list")
    steps: list[KernelStep] = []
    for i, step in enumerate(steps_raw):
        field = f"steps[{i}]"
        if not isinstance(step, dict):
            _fail(field, "expected an object")
        rule = step.get("rule")
        if rule not in (1, 2):
            _fail(f"{field}.rule", f"expected 1 or 2, got {rule!r}")
        users = step.get("users", [])
        resources = step.get("resources", [])
        expansion = step.get("expansion", [])
        if not isinstance(users, list) or not all(isinstance(u, str) for u in users):
            _fail(f"{field}.users", "expected a list of user ids")
        if not isinstance(resources, list) or not all(isinstance(r, str) for r in resources):
            _fail(f"{field}.resources", "expected a list of resource ids")
        ok = isinstance(expansion, list) and all(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, str) for x in pair)
            for pair in expansion
        )
        if not ok:
            _fail(f"{field}.expansion", "expected a list of [resource, user] pairs")
        steps.append(
            KernelStep(
                rule=rule,
                users=tuple(users),
                resources=tuple(resources),
                expansion=tuple((r, u) for r, u in expansion),
            )
        )
    trivially_sat = root.get("trivially_sat", False)
    if not isinstance(trivially_sat, bool):
        _fail("trivially_sat", "expected a boolean")
    return KernelTrace(tuple(steps), trivially_sat=trivially_sat)
