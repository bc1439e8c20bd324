"""End-to-end runs of the command-line interface, in process."""

from __future__ import annotations

import json

import pytest

from conftest import inst
from rescheck import INF, Instance, emit_instance, normalize, solve, teams
from rescheck.blockers import STRATEGIES
from rescheck.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_INTERNAL,
    EXIT_SAT,
    EXIT_UNSAT,
    main,
)
from rescheck.policy import SolveStats, Verdict


def write_instance(path, x: Instance, provenance=None) -> str:
    path.write_text(emit_instance(x, provenance=provenance), encoding="utf-8")
    return str(path)


@pytest.fixture
def resilient(tmp_path):
    # two interchangeable full-access users: survives one removal
    x = inst([[0], [0]], p=1, s=1, d=1, t=1)
    return write_instance(tmp_path / "resilient.json", x)


@pytest.fixture
def fragile(tmp_path):
    # a single point of failure
    x = inst([[0, 1]], p=2, s=1, d=1, t=2)
    return write_instance(tmp_path / "fragile.json", x)


class TestSolve:
    def test_sat_exits_zero(self, resilient, capsys):
        assert main(["solve", resilient]) == EXIT_SAT
        doc = json.loads(capsys.readouterr().out)
        assert doc["answer"] == "SAT"
        assert "witness" not in doc and "stats" not in doc

    def test_unsat_exits_one_with_blocker(self, fragile, capsys):
        assert main(["solve", fragile, "--witness"]) == EXIT_UNSAT
        doc = json.loads(capsys.readouterr().out)
        assert doc["answer"] == "UNSAT"
        assert doc["witness"] == {"blocker": ["u0"]}

    def test_stats_flag_reports_the_route(self, resilient, capsys):
        assert main(["solve", resilient, "--stats"]) == EXIT_SAT
        doc = json.loads(capsys.readouterr().out)
        assert doc["algorithm"] == "fastpath"  # d=1, unbounded t after clamping
        assert "nodes" in doc["stats"]

    def test_explicit_algorithm(self, resilient, capsys):
        assert main(["solve", resilient, "--algorithm", "oracle"]) == EXIT_SAT
        assert json.loads(capsys.readouterr().out)["algorithm"] == "oracle"

    def test_s0_algorithms_reject_removal_budgets(self, fragile, capsys):
        for name in ("dp", "ilp"):
            assert main(["solve", fragile, "--algorithm", name]) == EXIT_ERROR
            err = capsys.readouterr().err
            assert "answers only s=0" in err

    def test_dp_budget_exceeded_exits_three(self, tmp_path, capsys):
        x = inst([[0], [1]], p=2, s=0, d=1, t=2)
        path = write_instance(tmp_path / "x.json", x)
        assert main(["solve", path, "--algorithm", "dp", "--dp-bits", "1"]) == EXIT_BUDGET
        assert "error:" in capsys.readouterr().err

    def test_solver_crash_exits_four_not_unsat(self, tmp_path, capsys, monkeypatch):
        # a solver bug that raises, here a RecursionError, must not
        # surface as exit 1, which means UNSAT
        def crash(x, limits):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(STRATEGIES, "ilp", crash)
        x = inst([[0], [1]], p=2, s=0, d=1, t=2)
        path = write_instance(tmp_path / "x.json", x)
        assert main(["solve", path, "--algorithm", "ilp"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: internal error: maximum recursion depth" in captured.err

    def test_many_classes_exit_on_the_budget_not_a_crash(self, tmp_path, capsys):
        # 1208 occupied classes: reduced+ilp must not recurse once per
        # class; the configuration budget stops it first
        path = str(tmp_path / "x.json")
        assert main([
            "generate", "random", "--users", "3000", "--resources", "11",
            "--density", "0.35", "--s", "1", "--d", "3", "--t", "3",
            "--seed", "1", "--out", path,
        ]) == EXIT_SAT
        capsys.readouterr()
        assert main(["solve", path]) == EXIT_BUDGET
        assert "error: configuration budget" in capsys.readouterr().err

    def test_many_configurations_answer_without_recursion(self, tmp_path, capsys):
        # d*p = 28 routes s = 0 to ilp: 22,820 configurations, one
        # search level each
        path = str(tmp_path / "x.json")
        assert main([
            "generate", "random", "--users", "200", "--resources", "7",
            "--density", "0.35", "--s", "0", "--d", "4", "--t", "3",
            "--seed", "1", "--out", path,
        ]) == EXIT_SAT
        capsys.readouterr()
        assert main(["solve", path, "--stats"]) == EXIT_SAT
        doc = json.loads(capsys.readouterr().out)
        assert (doc["answer"], doc["algorithm"]) == ("SAT", "ilp")
        assert doc["stats"]["nodes"] == 138_812
        assert doc["stats"]["extras"]["configurations"] == 22_820

    @pytest.fixture
    def over_guard(self, tmp_path, capsys):
        # n = 22 users over p = 33 resources, s = 2, d = 1, t = 3: neither
        # dp nor class counting fits, and 22 representatives exceed the
        # oracle's 20 users
        path = str(tmp_path / "hs.json")
        assert main([
            "generate", "hitting-set", "--elements", "12", "--num-sets", "10",
            "--set-size", "2", "--k", "2", "--seed", "1", "--out", path,
        ]) == EXIT_SAT
        assert "expected SAT" in capsys.readouterr().err
        return path

    def test_past_the_oracle_guard_the_pivot_rung_answers(self, over_guard, capsys):
        assert main(["solve", over_guard, "--stats"]) == EXIT_SAT
        doc = json.loads(capsys.readouterr().out)
        assert (doc["answer"], doc["algorithm"]) == ("SAT", "branch+pivot")
        assert doc["stats"]["nodes"] == 1 + 3 + 9  # sum over i <= s of (d*t)^i

    def test_node_budget_exceeded_exits_three(self, over_guard, capsys, monkeypatch):
        monkeypatch.setattr(teams, "PIVOT_MAX_NODES", 1)
        assert main(["solve", over_guard]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: node budget" in captured.err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.json")]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        assert main(["solve", str(bad)]) == EXIT_ERROR
        assert "syntax error" in capsys.readouterr().err

    def test_empty_target_exits_two(self, tmp_path, capsys):
        x = Instance(access=(0b1,), num_resources=1, target=0)
        path = write_instance(tmp_path / "x.json", x)
        assert main(["solve", path]) == EXIT_ERROR
        assert "target" in capsys.readouterr().err


class TestKernelize:
    def test_reports_shrinkage(self, tmp_path, capsys):
        x = inst([[0], [0], [1], [1], [0, 1]] * 2, p=2, s=0, d=1, t=INF)
        path = write_instance(tmp_path / "x.json", x)
        out = tmp_path / "kernel.json"
        trace = tmp_path / "trace.json"
        code = main(["kernelize", path, "--out", str(out), "--trace", str(trace)])
        assert code == EXIT_SAT
        stdout = capsys.readouterr().out
        assert stdout.startswith("users 10 -> ")
        kernel_doc = json.loads(out.read_text())
        trace_doc = json.loads(trace.read_text())
        assert kernel_doc["version"] == 1
        assert trace_doc["steps"]

    def test_trivially_sat_note(self, tmp_path, capsys):
        x = inst([[0], [0], [0]], p=1, s=0, d=1, t=INF)
        path = write_instance(tmp_path / "x.json", x)
        assert main(["kernelize", path]) == EXIT_SAT
        out = capsys.readouterr().out
        assert "users 3 -> 0" in out
        assert "trivially satisfiable" in out

    def test_idempotent_through_files(self, tmp_path, capsys):
        x = inst([[0], [0], [1], [1], [0, 1]] * 2, p=2, s=0, d=2, t=INF)
        first = write_instance(tmp_path / "x.json", x)
        out1 = tmp_path / "k1.json"
        main(["kernelize", first, "--out", str(out1)])
        capsys.readouterr()
        out2 = tmp_path / "k2.json"
        main(["kernelize", str(out1), "--out", str(out2)])
        report = capsys.readouterr().out
        assert out1.read_text() == out2.read_text()
        k = json.loads(out1.read_text())
        assert report.startswith(
            f"users {len(k['users'])} -> {len(k['users'])}"
        )

    def test_finite_team_size_is_refused(self, tmp_path, capsys):
        x = inst([[0], [1]], p=2, s=0, d=1, t=1)
        path = write_instance(tmp_path / "x.json", x)
        assert main(["kernelize", path]) == EXIT_ERROR
        assert "team size" in capsys.readouterr().err

    def test_removal_budget_is_refused(self, tmp_path, capsys):
        x = inst([[0]], p=1, s=1, d=1, t=INF)
        path = write_instance(tmp_path / "x.json", x)
        assert main(["kernelize", path]) == EXIT_ERROR
        assert "s=0" in capsys.readouterr().err


class TestGenerate:
    def test_known_answer_in_provenance(self, capsys):
        code = main(["generate", "3dm", "--size", "1", "--edges", "1", "--k", "1"])
        assert code == EXIT_SAT
        doc = json.loads(capsys.readouterr().out)
        assert doc["provenance"]["expected"] == "SAT"
        assert doc["provenance"]["seed"] == 0
        assert doc["policy"]["t"] == 4

    def test_same_seed_is_byte_identical(self, capsys):
        main(["generate", "random", "--seed", "42", "--users", "6", "--resources", "3"])
        first = capsys.readouterr().out
        main(["generate", "random", "--seed", "42", "--users", "6", "--resources", "3"])
        second = capsys.readouterr().out
        assert first == second
        main(["generate", "random", "--seed", "43", "--users", "6", "--resources", "3"])
        assert capsys.readouterr().out != first

    def test_out_file_and_note(self, tmp_path, capsys):
        target = tmp_path / "gen.json"
        code = main([
            "generate", "hitting-set", "--seed", "3",
            "--elements", "4", "--num-sets", "2", "--set-size", "2", "--k", "1",
            "--out", str(target),
        ])
        assert code == EXIT_SAT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "wrote" in captured.err and "expected" in captured.err
        doc = json.loads(target.read_text())
        assert doc["policy"]["s"] == 1  # hitting-set budget becomes the removal budget
        assert doc["policy"]["d"] == 1

    def test_random_with_finite_t(self, capsys):
        main(["generate", "random", "--t", "2", "--d", "2", "--s", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["policy"] == {
            "P": doc["policy"]["P"], "s": 1, "d": 2, "t": 2,
        }

    def test_unknown_family_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "sudoku"])
        assert exc.value.code == EXIT_ERROR

    def test_generated_files_parse_and_solve(self, tmp_path, capsys):
        for family, extra in (
            ("hitting-set", ["--elements", "4", "--num-sets", "2", "--k", "1"]),
            ("3dm", ["--size", "2", "--edges", "2", "--k", "1"]),
            ("domatic", ["--vertices", "4", "--k", "2"]),
            ("set-cover", ["--universe", "4", "--num-sets", "3", "--k", "2"]),
        ):
            target = tmp_path / f"{family}.json"
            assert main(["generate", family, "--seed", "1", *extra,
                         "--out", str(target)]) == EXIT_SAT
            capsys.readouterr()
            code = main(["solve", str(target)])
            doc = json.loads(target.read_text())
            expected = doc["provenance"]["expected"]
            assert code == (EXIT_SAT if expected == "SAT" else EXIT_UNSAT)
            capsys.readouterr()


class TestSweep:
    def test_tiny_grid_is_clean(self, capsys):
        code = main([
            "sweep", "--max-n", "2", "--max-p", "2", "--max-s", "1",
            "--max-d", "1", "--max-t", "2", "--seeds", "2", "--quiet",
        ])
        assert code == EXIT_SAT
        out = capsys.readouterr().out
        assert "disagreements     0" in out

    def test_seeds_zero_runs_grid_only(self, capsys):
        code = main([
            "sweep", "--max-n", "1", "--max-p", "1", "--max-s", "1",
            "--max-d", "1", "--max-t", "1", "--seeds", "0", "--quiet",
        ])
        assert code == EXIT_SAT
        assert "relations         2" in capsys.readouterr().out

    def test_injected_fault_is_caught_and_reproducible(
        self, tmp_path, capsys, monkeypatch
    ):
        real = STRATEGIES["fastpath"]

        def liar(x, limits):
            v = real(x, limits)
            flipped = "UNSAT" if v.sat else "SAT"
            return Verdict(flipped, None, SolveStats("fastpath"))

        monkeypatch.setitem(STRATEGIES, "fastpath", liar)
        repro = tmp_path / "repro.json"
        code = main([
            "sweep", "--max-n", "2", "--max-p", "1", "--max-s", "1",
            "--max-d", "1", "--max-t", "1", "--seeds", "0", "--quiet",
            "--reproducer", str(repro),
        ])
        assert code == EXIT_UNSAT
        out = capsys.readouterr().out
        assert "disagreement (answer): fastpath" in out
        assert repro.exists()

        # the reproducer file re-triggers the disagreement by itself
        note = json.loads(repro.read_text())["provenance"]["sweep-disagreement"]
        assert note["algorithm"] == "fastpath"
        lying = main(["solve", str(repro), "--algorithm", "fastpath"])
        capsys.readouterr()
        honest = main(["solve", str(repro), "--algorithm", note["baseline"]])
        capsys.readouterr()
        assert lying != honest

    def test_progress_goes_to_stderr(self, capsys):
        main([
            "sweep", "--max-n", "1", "--max-p", "1", "--max-s", "0",
            "--max-d", "1", "--max-t", "1", "--seeds", "0",
        ])
        captured = capsys.readouterr()
        assert captured.err  # progress lines present without --quiet


class TestVerify:
    def test_round_trip_witness_checks_out(self, fragile, tmp_path, capsys):
        main(["solve", fragile, "--witness"])
        verdict_path = tmp_path / "verdict.json"
        verdict_path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["verify", fragile, "--verdict", str(verdict_path)]) == EXIT_SAT
        assert "witness ok" in capsys.readouterr().out

    def test_tampered_witness_fails(self, tmp_path, capsys):
        x = inst([[0], [1]], p=2, s=0, d=1, t=2)
        path = write_instance(tmp_path / "x.json", x)
        forged = {
            "version": 1, "answer": "SAT", "algorithm": "dp",
            "witness": {"teams": [["u0"]]},  # u0 alone does not cover r1
        }
        verdict_path = tmp_path / "verdict.json"
        verdict_path.write_text(json.dumps(forged), encoding="utf-8")
        assert main(["verify", path, "--verdict", str(verdict_path)]) == EXIT_UNSAT
        assert "witness invalid" in capsys.readouterr().out

    def test_verdict_without_witness_is_an_error(self, resilient, tmp_path, capsys):
        main(["solve", resilient])
        verdict_path = tmp_path / "verdict.json"
        verdict_path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["verify", resilient, "--verdict", str(verdict_path)]) == EXIT_ERROR
        assert "no witness" in capsys.readouterr().err


def test_library_and_cli_agree(tmp_path, capsys):
    x = inst([[0, 1], [0], [1]], p=2, s=1, d=1, t=2)
    path = write_instance(tmp_path / "x.json", x)
    code = main(["solve", path])
    capsys.readouterr()
    v = solve(normalize(x))
    assert code == (EXIT_SAT if v.sat else EXIT_UNSAT)
