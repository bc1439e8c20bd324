"""Cross-validation sweep: report counts and the witness checks."""

from __future__ import annotations

import rescheck.oracle
import rescheck.policy
import rescheck.sweep
import rescheck.teams
from rescheck import SAT, UNSAT, BlockerSet, BudgetError, Limits, Verdict, class_partition
from rescheck.sweep import SweepConfig, run_sweep

SMALL = SweepConfig(max_n=3, max_p=2, seeds=40)


def test_small_sweep_counts_are_pinned():
    # A check that is skipped or a cell that is dropped changes a count.
    report = run_sweep(SMALL)
    assert report.ok
    assert report.relations == 138
    assert report.families == 404
    assert report.cells == 1212
    assert report.solver_runs == 3562
    assert report.runs_by_algorithm == {
        "dp": 404,
        "ilp": 404,
        "branch": 1212,
        "reduced": 1212,
        "fastpath": 330,
    }
    assert report.witnesses_checked == 3959
    assert report.blockers_checked == 391


def test_small_sweep_oracle_search_count_is_pinned(monkeypatch):
    # The oracle searches survivor sets on bare masks, and a memo miss
    # that a stored team set avoids is answered SAT without a search.
    # Searching every miss makes 1,610 calls here.
    real = rescheck.oracle.solve_s0_bruteforce
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def no_restrict(*args, **kwargs):
        raise AssertionError("restrict called")

    monkeypatch.setattr(rescheck.oracle, "solve_s0_bruteforce", counted)
    monkeypatch.setattr(rescheck.oracle, "restrict", no_restrict)
    monkeypatch.setattr(rescheck.policy, "restrict", no_restrict)
    assert run_sweep(SMALL).ok
    assert len(calls) == 1154


def test_small_sweep_checks_the_fallback_core(monkeypatch):
    # The sweep's instances are small, and no pivot attempt of branch's
    # and reduced's core reaches its cap there, so the rung's own search
    # on the kept users, which a cap hit falls back to, is checked here:
    # capped at one state, every attempt that branches falls back to
    # dp_search, and the oracle still agrees with every run
    pivot = rescheck.teams.pivot_search
    fell_back = []

    def counted(masks, p, d, t, limit=None):
        try:
            return pivot(masks, p, d, t, limit)
        except BudgetError:
            fell_back.append(limit)
            raise

    monkeypatch.setattr(rescheck.teams, "PIVOT_FIRST_NODES", 1)
    monkeypatch.setattr(rescheck.teams, "pivot_search", counted)
    report = run_sweep(SMALL)
    assert report.ok
    assert report.solver_runs == 3562
    assert set(fell_back) == {1}
    assert len(fell_back) == 759


def test_wrong_non_oracle_blocker_is_flagged(monkeypatch):
    # The empty blocker claims the full user set has no team set; the
    # family's oracle memo holds that survivor set, as SAT wherever a
    # removal is needed, and the check must read it that way.
    real = rescheck.sweep.STRATEGIES["reduced"]

    def empty_blocker(inst, limits):
        verdict = real(inst, limits)
        if verdict.answer == UNSAT:
            return Verdict(UNSAT, BlockerSet(frozenset()), verdict.stats)
        return verdict

    strategies = dict(rescheck.sweep.STRATEGIES, reduced=empty_blocker)
    monkeypatch.setattr(rescheck.sweep, "STRATEGIES", strategies)
    report = run_sweep(SMALL)
    assert [(d.kind, d.algorithm, d.got) for d in report.disagreements] == [
        ("witness", "reduced", "invalid blocker")
    ]
    assert report.disagreements[0].instance.s > 0


def test_branch_past_its_node_bound_is_flagged(monkeypatch):
    # branch visits at most sum over i <= s of (d*t)^i nodes; a count
    # past it is reported once, and the sweep stops there
    real = rescheck.sweep.STRATEGIES["branch"]

    def inflated(inst, limits):
        verdict = real(inst, limits)
        verdict.stats.nodes += 10**6
        return verdict

    strategies = dict(rescheck.sweep.STRATEGIES, branch=inflated)
    monkeypatch.setattr(rescheck.sweep, "STRATEGIES", strategies)
    report = run_sweep(SMALL)
    assert [(d.kind, d.algorithm) for d in report.disagreements] == [
        ("node-bound", "branch")
    ]


def test_oracle_blocker_leaving_a_spare_user_is_flagged(monkeypatch):
    # The oracle's blocker plus one user of a class that still keeps d
    # users after losing that one breaks the class inequality of
    # minimal blockers; the family's check reports it before any cell
    real = rescheck.sweep.solve_rcp_bruteforce

    def padded(inst, **kwargs):
        verdict = real(inst, **kwargs)
        if verdict.answer == UNSAT:
            removed = verdict.witness.users
            for members in class_partition(inst).values():
                left = [u for u in members if u not in removed]
                if len(left) > inst.d:
                    padded_blocker = BlockerSet(removed | {left[0]})
                    return Verdict(UNSAT, padded_blocker, verdict.stats)
        return verdict

    monkeypatch.setattr(rescheck.sweep, "solve_rcp_bruteforce", padded)
    report = run_sweep(SMALL)
    assert [(d.kind, d.algorithm, d.baseline) for d in report.disagreements] == [
        ("minimal-blocker", "oracle", "class-inequality")
    ]


def test_a_verdict_wrong_twice_is_reported_once(monkeypatch):
    # A dp that flips its answer but keeps its teams is wrong in the
    # answer and in the witness; the first disagreement ends the sweep,
    # so only the answer is reported
    real = rescheck.sweep.STRATEGIES["dp"]

    def flipped(inst, limits):
        verdict = real(inst, limits)
        answer = UNSAT if verdict.sat else SAT
        return Verdict(answer, verdict.witness, verdict.stats)

    strategies = dict(rescheck.sweep.STRATEGIES, dp=flipped)
    monkeypatch.setattr(rescheck.sweep, "STRATEGIES", strategies)
    report = run_sweep(SMALL)
    assert [(d.kind, d.algorithm) for d in report.disagreements] == [("answer", "dp")]


def test_solvers_run_under_the_recorded_budgets(monkeypatch):
    # The budgets a sweep reports with its run are the ones its solvers get
    seen = set()
    real = dict(rescheck.sweep.STRATEGIES)

    def recording(name):
        def run(inst, limits):
            seen.add(limits)
            return real[name](inst, limits)

        return run

    strategies = {name: recording(name) for name in real}
    monkeypatch.setattr(rescheck.sweep, "STRATEGIES", strategies)
    monkeypatch.setattr(SweepConfig, "limits", Limits(max_configs=10**6))
    assert run_sweep(SweepConfig(max_n=2, max_p=2, seeds=5)).ok
    assert seen == {Limits(max_configs=10**6)}
