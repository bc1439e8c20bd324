"""End-to-end runs of the command-line interface, in process."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import rescheck
from conftest import inst
from rescheck import INF, Instance, cli, emit_instance, normalize, solve, teams
from rescheck.blockers import STRATEGIES
from rescheck.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_INTERNAL,
    EXIT_SAT,
    EXIT_UNSAT,
    main,
)
from rescheck.policy import Limits, SolveStats, Verdict
from rescheck.sweep import SweepConfig, SweepReport


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

    @pytest.mark.parametrize(
        "flag", ["--dp-bits", "--max-classes", "--oracle-users", "--max-configs", "--max-d"]
    )
    def test_negative_budget_exits_two(self, flag, resilient, capsys):
        # --max-d is a sweep flag: at -1 the grid would build no family
        # and check nothing
        field = flag[2:].replace("-", "_")
        if field in {f.name for f in fields(Limits)}:
            command = ["solve", resilient]
        else:
            command = ["sweep", "--max-n", "2", "--seeds", "3", "--quiet"]
        assert main([*command, flag, "-1"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {field} must be non-negative" in captured.err

    def test_dp_budget_exceeded_exits_three(self, tmp_path, capsys):
        x = inst([[0], [1]], p=2, s=0, d=1, t=2)
        path = write_instance(tmp_path / "x.json", x)
        assert main(["solve", path, "--algorithm", "dp", "--dp-bits", "1"]) == EXIT_BUDGET
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error",
        [RecursionError, KeyError, TypeError, AssertionError, NameError,
         UnboundLocalError, StopIteration, MemoryError],
    )
    def test_solver_crash_exits_four_not_unsat(self, error, tmp_path, capsys, monkeypatch):
        # a solver bug that raises must not surface as exit 1, which
        # means UNSAT
        def crash(x, limits):
            raise error("solver bug")

        monkeypatch.setitem(STRATEGIES, "ilp", crash)
        x = inst([[0], [1]], p=2, s=0, d=1, t=2)
        path = write_instance(tmp_path / "x.json", x)
        assert main(["solve", path, "--algorithm", "ilp"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: internal error:" in captured.err
        assert "solver bug" in captured.err

    def test_many_classes_exit_on_the_budget_not_a_crash(self, tmp_path, capsys):
        # 1208 occupied classes: at s = 0 the configuration budget stops
        # the ilp route, which builds the configuration list first, with
        # exit 3
        path = str(tmp_path / "x.json")
        for s in ("0", "1"):
            assert main([
                "generate", "random", "--users", "3000", "--resources", "11",
                "--density", "0.35", "--s", s, "--d", "3", "--t", "3",
                "--seed", "1", "--out", path,
            ]) == EXIT_SAT
            capsys.readouterr()
            if s == "0":
                assert main(["solve", path, "--algorithm", "ilp"]) == EXIT_BUDGET
                assert "error: configuration budget" in capsys.readouterr().err
        # at s = 1 both searches take the ilp rung, but the pivot attempt
        # answers their one core call, so the list is never built; auto
        # takes branch+ilp, and branch over the pivot core alone agrees
        for name in ("reduced", "branch", "auto"):
            assert main(["solve", path, "--stats", "--algorithm", name]) == EXIT_SAT
            doc = json.loads(capsys.readouterr().out)
            assert doc["algorithm"] == ("reduced+ilp" if name == "reduced" else "branch+ilp")
            extras = doc["stats"]["extras"]
            assert (extras["pivot_answered"], extras["pivot_fallbacks"]) == (1, 0)
        pivot = ["--algorithm", "branch", "--dp-bits", "0", "--max-classes", "1"]
        assert main(["solve", path, *pivot]) == EXIT_SAT

    def test_many_configurations_answer_without_recursion(self, tmp_path, capsys):
        # d*p = 28 puts s = 0 on the ilp rung: 22,820 configurations,
        # one search level each
        path = str(tmp_path / "x.json")
        assert main([
            "generate", "random", "--users", "200", "--resources", "7",
            "--density", "0.35", "--s", "0", "--d", "4", "--t", "3",
            "--seed", "1", "--out", path,
        ]) == EXIT_SAT
        capsys.readouterr()
        assert main(["solve", path, "--stats", "--algorithm", "ilp"]) == EXIT_SAT
        doc = json.loads(capsys.readouterr().out)
        assert (doc["answer"], doc["algorithm"]) == ("SAT", "ilp")
        assert doc["stats"]["nodes"] == 138_812
        assert doc["stats"]["extras"]["configurations"] == 22_820
        # auto runs branch over the same rung's core, with its pivot
        # attempt answering first
        assert main(["solve", path, "--stats", "--witness"]) == EXIT_SAT
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert (doc["answer"], doc["algorithm"]) == ("SAT", "branch+ilp")
        verdict = tmp_path / "v.json"
        verdict.write_text(out, encoding="utf-8")
        assert main(["verify", path, "--verdict", str(verdict)]) == EXIT_SAT
        assert "witness ok" in capsys.readouterr().out

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

    @pytest.mark.parametrize("s", [0, 1])
    def test_few_users_over_many_resources_take_the_pivot_rung(self, s, tmp_path, capsys):
        # 16 users over 14 resources: 2^14 classes exceed the class
        # budget, so branch+pivot answers although the oracle would take
        # every user
        path = str(tmp_path / "x.json")
        assert main([
            "generate", "random", "--users", "16", "--resources", "14",
            "--density", "0.3", "--s", str(s), "--d", "2", "--t", "4",
            "--seed", "1", "--out", path,
        ]) == EXIT_SAT
        capsys.readouterr()
        assert main(["solve", path, "--witness"]) == (EXIT_UNSAT if s else EXIT_SAT)
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["algorithm"] == "branch+pivot"
        if s:
            assert doc["witness"] == {"blocker": ["u0"]}
        verdict = tmp_path / "v.json"
        verdict.write_text(out, encoding="utf-8")
        assert main(["verify", path, "--verdict", str(verdict)]) == EXIT_SAT
        assert "witness ok" in capsys.readouterr().out

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
        assert main(["generate", "sudoku"]) == EXIT_ERROR

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

    def test_witness_of_the_other_answer_fails(self, tmp_path, capsys):
        # The answer is UNSAT (remove either user); the teams are a valid
        # s=0 team set, which proves nothing about it.
        x = inst([[0], [0]], p=1, s=1, d=2, t=1)
        path = write_instance(tmp_path / "x.json", x)
        forged = {
            "version": 1, "answer": "UNSAT", "algorithm": "branch",
            "witness": {"teams": [["u0"], ["u1"]]},
        }
        verdict_path = tmp_path / "verdict.json"
        verdict_path.write_text(json.dumps(forged), encoding="utf-8")
        assert main(["verify", path, "--verdict", str(verdict_path)]) == EXIT_UNSAT
        assert "witness invalid" in capsys.readouterr().out

    def test_blocker_among_thousands_of_users_checks_out(self, tmp_path, capsys):
        # Removing u2998 leaves one user for r1, which two teams need.
        # The oracle's check searches 2999 users deep.
        x = inst([[0]] * 2998 + [[1]] * 2, p=2, s=1, d=2, t=2)
        path = write_instance(tmp_path / "x.json", x)
        assert main(["solve", path, "--witness"]) == EXIT_UNSAT
        out = capsys.readouterr().out
        assert json.loads(out)["witness"] == {"blocker": ["u2998"]}
        verdict_path = tmp_path / "verdict.json"
        verdict_path.write_text(out, encoding="utf-8")
        assert main(["verify", path, "--verdict", str(verdict_path)]) == EXIT_SAT
        assert "witness ok" in capsys.readouterr().out

    def test_verdict_without_witness_is_an_error(self, resilient, tmp_path, capsys):
        main(["solve", resilient])
        verdict_path = tmp_path / "verdict.json"
        verdict_path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["verify", resilient, "--verdict", str(verdict_path)]) == EXIT_ERROR
        assert "no witness" in capsys.readouterr().err


class TestSharedParser:
    """main() builds its parser once per process; calls stay independent."""

    @pytest.fixture
    def pair(self, tmp_path):
        # SAT at s = 0 with d = 2: the witness shows which call asked for it
        x = inst([[0, 1], [0], [1], [0, 1]], p=2, s=0, d=2, t=2)
        return write_instance(tmp_path / "pair.json", x)

    @staticmethod
    def fresh(argv, capsys):
        cli._parser.cache_clear()
        code = main(argv)
        return code, capsys.readouterr()

    def test_many_calls_build_one_parser(self, pair, capsys, monkeypatch):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        for _ in range(3):
            assert main(["solve", pair]) == EXIT_SAT
        assert main(["solve"]) == EXIT_ERROR
        assert main(["generate", "random", "--seed", "1"]) == EXIT_SAT
        capsys.readouterr()
        assert len(built) == 1

    def test_no_state_carries_into_the_next_call(self, pair, capsys):
        plain = ["solve", pair]
        expected = self.fresh(plain, capsys)
        assert json.loads(expected[1].out).keys() == {"version", "answer", "algorithm"}
        assert main(
            ["solve", pair, "--dp-bits", "0", "--algorithm", "branch", "--witness"]
        ) == EXIT_SAT
        assert json.loads(capsys.readouterr().out)["algorithm"] == "branch+ilp"
        assert (main(plain), capsys.readouterr()) == expected

    def test_a_usage_error_leaves_the_next_call_working(self, pair, capsys):
        expected = self.fresh(["solve", pair, "--stats"], capsys)
        assert main(["solve", pair, "--max-classes", "many"]) == EXIT_ERROR
        assert "invalid int value" in capsys.readouterr().err
        assert (main(["solve", pair, "--stats"]), capsys.readouterr()) == expected

    def test_help_returns_zero(self, capsys):
        assert main(["solve", "--help"]) == EXIT_SAT
        assert "--witness" in capsys.readouterr().out

    def test_importing_builds_no_parser(self):
        # a fresh interpreter: this one has imported and called main already
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import rescheck.cli\n"
            "print(len(built))\n"
        )
        src = str(Path(rescheck.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr


def test_library_and_cli_agree(tmp_path, capsys):
    x = inst([[0, 1], [0], [1]], p=2, s=1, d=1, t=2)
    path = write_instance(tmp_path / "x.json", x)
    code = main(["solve", path])
    capsys.readouterr()
    v = solve(normalize(x))
    assert code == (EXIT_SAT if v.sat else EXIT_UNSAT)


class TestParserDefaults:
    """Each budget and grid flag is declared by its dataclass field."""

    def test_solve_flags_carry_every_limits_default(self):
        args = cli.build_parser().parse_args(["solve", "x"])
        for f in fields(Limits):
            assert getattr(args, f.name) == f.default

    @pytest.mark.parametrize(
        "command, lines",
        [
            ("solve", [
                "--dp-bits DP_BITS largest allowed d*|P| for the dp solver (default 24)",
                "--max-classes MAX_CLASSES largest allowed 2^|P| for class-based "
                "solvers (default 4096)",
                "--oracle-users ORACLE_USERS largest user count the brute-force "
                "oracle accepts (default 20)",
                "--max-configs MAX_CONFIGS cap on enumerated team configurations "
                "(default 200000)",
            ]),
            ("sweep", [
                "--max-n MAX_N --max-p MAX_P --max-s MAX_S --max-d MAX_D --max-t MAX_T "
                "--seeds SEEDS random instances after the grid (0: none)",
            ]),
        ],
    )
    def test_help_text_comes_from_the_fields(self, command, lines, capsys):
        assert main([command, "--help"]) == EXIT_SAT
        text = " ".join(capsys.readouterr().out.split())
        for line in lines:
            assert line in text

    @pytest.fixture
    def configs(self, monkeypatch):
        seen = []

        def record(config, progress=None):
            seen.append(config)
            return SweepReport()

        monkeypatch.setattr(cli, "run_sweep", record)
        return seen

    def test_bare_sweep_runs_the_default_config(self, configs, capsys):
        args = cli.build_parser().parse_args(["sweep"])
        assert args.func(args) == EXIT_SAT
        assert configs == [SweepConfig()]

    def test_sweep_flags_reach_the_config(self, configs, capsys):
        args = cli.build_parser().parse_args(
            ["sweep", "--max-n", "1", "--max-p", "2", "--max-s", "0",
             "--max-d", "3", "--max-t", "4", "--seeds", "5"]
        )
        assert args.func(args) == EXIT_SAT
        assert configs == [SweepConfig(max_n=1, max_p=2, max_s=0, max_d=3, max_t=4, seeds=5)]

    def test_reproducer_names_the_disagreement_only(self, tmp_path, capsys, monkeypatch):
        real = STRATEGIES["dp"]

        def liar(x, limits):
            v = real(x, limits)
            return Verdict("UNSAT" if v.sat else "SAT", None, v.stats)

        monkeypatch.setitem(STRATEGIES, "dp", liar)
        repro = tmp_path / "repro.json"
        code = main([
            "sweep", "--max-n", "1", "--max-p", "1", "--max-s", "0",
            "--max-d", "1", "--max-t", "1", "--seeds", "0", "--quiet",
            "--reproducer", str(repro),
        ])
        assert code == EXIT_UNSAT
        note = json.loads(repro.read_text())["provenance"]["sweep-disagreement"]
        assert note.keys() == {"kind", "algorithm", "baseline", "expected", "got"}
        assert (note["kind"], note["algorithm"]) == ("answer", "dp")
