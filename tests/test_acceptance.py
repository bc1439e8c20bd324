"""Acceptance gate: the eight end-to-end guarantees of the suite.

Each test pins one user-facing promise:

1. every solver agrees with the brute-force oracle on an exhaustive
   grid plus a thousand seeded random instances, in under ten minutes;
2. instances built by the reduction generators get exactly the answer
   the independently brute-forced source problem dictates;
3. kernelization shrinks to at most d * |P| users, preserves the
   oracle answer, and finishes well under a second per instance;
4. the dp search never exceeds its state cap n * 2^(d*p) * (t+1)^d
   and grows no faster than the cap predicts when d*p doubles;
5. the branching search never exceeds sum((d*t)^i for i <= s) nodes;
6. every minimum-cardinality blocker satisfies the class inequality
   (a touched neighborhood class keeps fewer than d users);
7. every emitted witness -- kernel-lifted ones included -- verifies;
8. generation and solving are byte-deterministic.

The expensive sweep runs once per session and serves tests 1, 5, 6,
and 7; the seeded kernel batch serves tests 3 and 7.
"""

from __future__ import annotations

import random
import time

import pytest

from rescheck import (
    INF,
    SAT,
    Instance,
    Verdict,
    emit_instance,
    emit_verdict,
    kernelize,
    lift_teams,
    normalize,
    solve,
    solve_rcp_bruteforce,
    solve_s0_bruteforce,
    verify_witness,
)
from rescheck.cli import main
from rescheck.teams import dp_search
from rescheck.generators import (
    from_3dm,
    from_domatic,
    from_hitting_set,
    from_set_cover,
    sample_3dm,
    sample_graph,
    sample_hitting_set,
    sample_set_cover,
)
from rescheck.sweep import SweepConfig, run_sweep

# ---------------------------------------------------------------------------
# Shared expensive fixtures


@pytest.fixture(scope="session")
def sweep_report():
    """Exhaustive grid (n <= 5, p <= 3, s <= 2, d <= 2, t in {1,2,3,inf})
    plus 1000 seeded random instances (n <= 10, p <= 4), every solver on
    its applicability domain against the oracle."""
    return run_sweep(SweepConfig())


def _kernel_input(seed: int) -> Instance:
    rng = random.Random(seed)
    n = 1 + int(rng.random() * 50)
    p = 1 + int(rng.random() * 3)
    d = 1 + int(rng.random() * 3)
    density = 0.15 + 0.7 * rng.random()
    access = []
    for _ in range(n):
        mask = 0
        for r in range(p):
            if rng.random() < density:
                mask |= 1 << r
        access.append(mask)
    return normalize(
        Instance(
            access=tuple(access),
            num_resources=p,
            target=(1 << p) - 1,
            s=0,
            d=d,
            t=INF,
        )
    )


@pytest.fixture(scope="session")
def kernel_batch():
    """500 seeded unbounded-team s=0 instances with up to 50 users,
    kernelized and timed."""
    rows = []
    for seed in range(500):
        original = _kernel_input(seed)
        start = time.perf_counter()
        kernel, trace = kernelize(original)
        elapsed = time.perf_counter() - start
        rows.append((original, kernel, trace, elapsed))
    return rows


def _disagreements(report, kind: str) -> list:
    return [d for d in report.disagreements if d.kind == kind]


# ---------------------------------------------------------------------------
# 1. Oracle-equivalence sweep


def test_every_solver_agrees_with_the_oracle_on_the_sweep(sweep_report):
    assert _disagreements(sweep_report, "answer") == []
    # The grid really was exhaustive and the random arm really ran.
    config = SweepConfig()
    exhaustive = sum(
        2 ** (n * p)
        for n in range(1, config.max_n + 1)
        for p in range(1, config.max_p + 1)
    )
    assert sweep_report.relations == exhaustive + config.seeds
    # Every solver exercised its applicability domain.
    assert set(sweep_report.runs_by_algorithm) == {
        "branch",
        "reduced",
        "dp",
        "ilp",
        "fastpath",
    }
    assert all(count > 0 for count in sweep_report.runs_by_algorithm.values())
    assert sweep_report.seconds < 600


# ---------------------------------------------------------------------------
# 2. Reduction soundness: generated instances vs. source-problem truth


def _oracle_answer(inst: Instance) -> str:
    return solve_rcp_bruteforce(normalize(inst), user_limit=None).answer


def test_hitting_set_instances_match_source_answers():
    for seed in range(200):
        delta = 2 + seed % 2
        num_elements = delta + seed % (7 - delta)
        num_sets = 1 + seed % 3
        k = seed % 3
        elements, sets = sample_hitting_set(seed, num_elements, num_sets, delta)
        gen = from_hitting_set(elements, sets, k)
        assert _oracle_answer(gen.instance) == gen.expected, gen.provenance


def test_three_dimensional_matching_instances_match_source_answers():
    for seed in range(200):
        n = 1 + seed % 3
        m = seed % (min(5, n**3) + 1)
        k = 1 + seed % n
        xs, ys, zs, edges = sample_3dm(seed, n, m)
        gen = from_3dm(xs, ys, zs, edges, k)
        assert _oracle_answer(gen.instance) == gen.expected, gen.provenance


def test_domatic_instances_match_source_answers():
    for seed in range(100):
        n = 1 + seed % 6
        probability = 0.2 + 0.15 * (seed % 5)
        vertices, edges = sample_graph(seed, n, probability)
        gen = from_domatic(vertices, edges, 1 + seed % 3)
        assert _oracle_answer(gen.instance) == gen.expected, gen.provenance


def test_set_cover_instances_match_source_answers():
    for seed in range(100):
        universe_size = 1 + seed % 5
        num_sets = 1 + seed % 5
        density = 0.3 + 0.12 * (seed % 5)
        universe, sets = sample_set_cover(seed, universe_size, num_sets, density)
        gen = from_set_cover(universe, sets, 1 + seed % num_sets)
        assert _oracle_answer(gen.instance) == gen.expected, gen.provenance


# ---------------------------------------------------------------------------
# 3. Kernel guarantee


def test_kernels_are_small_answer_preserving_and_fast(kernel_batch):
    assert max(original.n for original, _, _, _ in kernel_batch) >= 45
    for original, kernel, _, elapsed in kernel_batch:
        assert kernel.n <= kernel.d * kernel.num_resources or kernel.num_resources == 0
        assert elapsed < 1.0
        before = solve_s0_bruteforce(original, user_limit=None).answer
        after = solve_s0_bruteforce(kernel, user_limit=None).answer
        assert before == after


# ---------------------------------------------------------------------------
# 4. dp search-size cap and doubling growth


def _dp_nodes(access: tuple[int, ...], p: int, d: int, t: int) -> int:
    t = min(t, p)
    _, states = dp_search(access, p, d, t)
    assert states <= len(access) * 2 ** (d * p) * (t + 1) ** d
    return states


def test_dp_states_respect_the_cap_and_its_doubling_prediction():
    """Doubling the exponent d*p from 2 to 4 multiplies the cap by
    4 * (t+1)^(change in d); averaged over seeded relations the measured
    state counts must not grow faster. The narrow instance is the
    two-resource restriction of the wide one, so the comparison varies
    only the exponent."""
    for t in (1, 2):
        for n in (6, 10):
            via_p, via_d = [], []
            for seed in range(40):
                rng = random.Random(100_000 * t + 1_000 * n + seed)
                wide = tuple(
                    rng.randrange(1, 4) | (rng.randrange(0, 4) << 2)
                    for _ in range(n)
                )
                narrow = tuple(mask & 0b11 for mask in wide)
                base = _dp_nodes(narrow, p=2, d=1, t=t)
                via_p.append(_dp_nodes(wide, p=4, d=1, t=t) / base)
                via_d.append(_dp_nodes(narrow, p=2, d=2, t=t) / base)
            assert sum(via_p) / len(via_p) <= 4
            assert sum(via_d) / len(via_d) <= 4 * (t + 1)


# ---------------------------------------------------------------------------
# 5. Branching node bound (checked per-run inside the sweep)


def test_branch_nodes_never_exceed_the_bound_on_the_sweep(sweep_report):
    assert _disagreements(sweep_report, "node-bound") == []
    assert sweep_report.runs_by_algorithm["branch"] > 0
    assert sweep_report.runs_by_algorithm["dp"] > 0


# ---------------------------------------------------------------------------
# 6. Minimal-blocker class inequality (checked per-blocker inside the sweep)


def test_minimal_blockers_satisfy_the_class_inequality(sweep_report):
    assert _disagreements(sweep_report, "minimal-blocker") == []
    assert sweep_report.blockers_checked > 0


# ---------------------------------------------------------------------------
# 7. Witness integrity, kernel-lifted witnesses included


def test_every_sweep_witness_verifies(sweep_report):
    assert _disagreements(sweep_report, "witness") == []
    assert sweep_report.witnesses_checked > 0


def test_every_kernel_lifted_witness_verifies(kernel_batch):
    lifted_count = 0
    for original, kernel, trace, _ in kernel_batch:
        verdict = solve_s0_bruteforce(kernel, user_limit=None)
        if not verdict.sat:
            continue
        lifted = lift_teams(original, kernel, trace, verdict.witness)
        assert verify_witness(original, Verdict(SAT, lifted, verdict.stats))
        lifted_count += 1
    assert lifted_count > 0


# ---------------------------------------------------------------------------
# 8. Determinism


def test_generation_is_byte_deterministic(tmp_path, capsys):
    first = from_3dm(*sample_3dm(7, 2, 4), 2)
    second = from_3dm(*sample_3dm(7, 2, 4), 2)
    assert emit_instance(
        first.instance, provenance=first.provenance_block()
    ) == emit_instance(second.instance, provenance=second.provenance_block())

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        main(["generate", "3dm", "--seed", "7", "--out", str(path)])
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_solving_is_byte_deterministic(tmp_path, capsys):
    main(["generate", "hitting-set", "--seed", "3", "--out", str(tmp_path / "x.json")])
    capsys.readouterr()
    path = str(tmp_path / "x.json")

    outputs = []
    for _ in range(2):
        code = main(["solve", path, "--witness", "--stats"])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]

    inst = _kernel_input(11)
    docs = [
        emit_verdict(solve(inst), inst, include_witness=True, include_stats=True)
        for _ in range(2)
    ]
    assert docs[0] == docs[1]
