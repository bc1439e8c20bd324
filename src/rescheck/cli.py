"""Command-line front end.

Subcommands: solve, kernelize, generate, sweep, verify.

Exit codes everywhere: 0 satisfiable (or success for subcommands with
no verdict), 1 unsatisfiable (or failure found), 2 usage/input error,
3 search budget exceeded, 4 internal error (a crash is never an
answer). Verdict and instance documents go to standard output;
diagnostics and progress go to standard error.

Budgets are flags with safe defaults, never environment variables:
every algorithm here is exponential in something, and a run must fail
loudly instead of hanging. solve's budget flags are the fields of
Limits, and sweep's grid flags fields of SweepConfig; each flag takes
its name, default and help text from its field.

``main(argv)`` may be called repeatedly in one process. Each call is
independent and returns the exit code, usage errors and ``--help``
included; the argument parser is built on the first call and reused by
the later ones.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import Field, fields, replace
from pathlib import Path
from typing import Sequence

from .blockers import STRATEGIES, solve
from .generators import (
    from_3dm,
    from_domatic,
    from_hitting_set,
    from_set_cover,
    random_instance,
    sample_3dm,
    sample_graph,
    sample_hitting_set,
    sample_set_cover,
)
from .kernel import kernelize
from .policy import (
    INF,
    BudgetError,
    Instance,
    Limits,
    PolicyError,
    is_normalized,
    normalize,
    verify_witness,
)
from .serialize import (
    InstanceFormatError,
    emit_instance,
    emit_trace,
    emit_verdict,
    parse_instance_document,
    parse_verdict,
)
from .sweep import SweepConfig, run_sweep

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# The SweepConfig fields that are sweep flags; the random cells' sizes
# are not.
SWEEP_FLAGS = ("max_n", "max_p", "max_s", "max_d", "max_t", "seeds")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_normalized(path: str) -> Instance:
    # Files the tool wrote (kernels in particular) are already in
    # normal form and may have an empty target; renormalizing those
    # would reject them as degenerate.
    inst = parse_instance_document(_read(path)).instance
    return inst if is_normalized(inst) else normalize(inst)


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_normalized(args.path)
    limits = Limits(**{f.name: getattr(args, f.name) for f in fields(Limits)})
    verdict = solve(inst, strategy=args.algorithm, limits=limits)
    sys.stdout.write(
        emit_verdict(
            verdict, inst, include_witness=args.witness, include_stats=args.stats
        )
    )
    return EXIT_SAT if verdict.sat else EXIT_UNSAT


def cmd_kernelize(args: argparse.Namespace) -> int:
    original = _load_normalized(args.path)
    kernel, trace = kernelize(original)
    print(
        f"users {original.n} -> {kernel.n}, "
        f"resources {original.num_resources} -> {kernel.num_resources}"
    )
    if trace.trivially_sat:
        print("kernel is trivially satisfiable: every target resource was eliminated")
    if args.out:
        Path(args.out).write_text(emit_instance(kernel), encoding="utf-8")
    if args.trace:
        Path(args.trace).write_text(emit_trace(trace), encoding="utf-8")
    return EXIT_SAT


def cmd_generate(args: argparse.Namespace) -> int:
    seed = args.seed
    if args.family == "hitting-set":
        elements, sets = sample_hitting_set(
            seed, args.elements, args.num_sets, args.set_size
        )
        gen = from_hitting_set(elements, sets, args.k)
    elif args.family == "3dm":
        xs, ys, zs, edges = sample_3dm(seed, args.size, args.edges)
        gen = from_3dm(xs, ys, zs, edges, args.k)
    elif args.family == "domatic":
        vertices, edges = sample_graph(seed, args.vertices, args.edge_prob)
        gen = from_domatic(vertices, edges, args.k)
    elif args.family == "set-cover":
        universe, sets = sample_set_cover(seed, args.universe, args.num_sets, args.density)
        gen = from_set_cover(universe, sets, args.k)
    else:
        t = INF if args.t == "inf" else int(args.t)
        gen = random_instance(
            seed, args.users, args.resources, args.density, s=args.s, d=args.d, t=t
        )
    gen = replace(gen, seed=seed)
    text = emit_instance(gen.instance, provenance=gen.provenance_block())
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out} (expected {gen.expected})", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_SAT


def cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(**{name: getattr(args, name) for name in SWEEP_FLAGS})
    progress = None if args.quiet else lambda msg: print(msg, file=sys.stderr)
    report = run_sweep(config, progress=progress)
    print(f"relations         {report.relations}")
    print(f"families          {report.families}")
    print(f"cells             {report.cells}")
    print(f"solver runs       {report.solver_runs}")
    for name in sorted(report.runs_by_algorithm):
        print(f"  {name:<15} {report.runs_by_algorithm[name]}")
    print(f"witnesses checked {report.witnesses_checked}")
    print(f"minimal blockers  {report.blockers_checked}")
    print(f"disagreements     {len(report.disagreements)}")
    print(f"elapsed           {report.seconds:.1f}s")
    if report.ok:
        return EXIT_SAT
    bad = report.disagreements[0]
    provenance = {
        "sweep-disagreement": {
            "kind": bad.kind,
            "algorithm": bad.algorithm,
            "baseline": bad.baseline,
            "expected": bad.expected,
            "got": bad.got,
        }
    }
    Path(args.reproducer).write_text(
        emit_instance(bad.instance, provenance=provenance), encoding="utf-8"
    )
    print(
        f"disagreement ({bad.kind}): {bad.algorithm} got {bad.got}, "
        f"{bad.baseline} expected {bad.expected}"
    )
    print(f"reproducer written to {args.reproducer}")
    return EXIT_UNSAT


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_normalized(args.path)
    verdict = parse_verdict(_read(args.verdict), inst)
    if verify_witness(inst, verdict):
        print("witness ok")
        return EXIT_SAT
    print("witness invalid")
    return EXIT_UNSAT


def _add_field_flags(
    parser: argparse.ArgumentParser, settings: Sequence[Field], suffix: str = ""
) -> None:
    # One integer flag per dataclass field, named after it, with the
    # field's default and its metadata["help"], if any, as help text.
    for f in settings:
        text = f.metadata.get("help")
        parser.add_argument(
            "--" + f.name.replace("_", "-"),
            type=int,
            default=f.default,
            help=text and text + suffix,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rescheck",
        description="Decide resiliency of access-control policies: after any s "
        "users leave, d disjoint teams of at most t users must still cover P.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide one instance file")
    p_solve.add_argument("path", help="instance file (JSON)")
    p_solve.add_argument(
        "--algorithm",
        default="auto",
        choices=["auto", *sorted(STRATEGIES)],
        help="solver to run (default: auto routing by parameter shape)",
    )
    p_solve.add_argument(
        "--witness", action="store_true", help="include the witness in the verdict"
    )
    p_solve.add_argument(
        "--stats", action="store_true", help="include search statistics in the verdict"
    )
    _add_field_flags(p_solve, fields(Limits), " (default %(default)s)")
    p_solve.set_defaults(func=cmd_solve)

    p_kern = sub.add_parser(
        "kernelize", help="shrink an s=0, unbounded-t instance below d*|P| users"
    )
    p_kern.add_argument("path", help="instance file (JSON)")
    p_kern.add_argument("--out", help="write the kernel instance here")
    p_kern.add_argument("--trace", help="write the reduction trace here")
    p_kern.set_defaults(func=cmd_kernelize)

    p_gen = sub.add_parser(
        "generate", help="build an instance with a known expected answer"
    )
    p_gen.add_argument(
        "family", choices=["hitting-set", "3dm", "domatic", "set-cover", "random"]
    )
    p_gen.add_argument("--seed", type=int, default=0, help="sampler seed (default 0)")
    p_gen.add_argument("--out", help="write the instance here instead of stdout")
    p_gen.add_argument(
        "--k", type=int, default=2, help="source-problem parameter k (default 2)"
    )
    p_gen.add_argument(
        "--elements", type=int, default=5, help="hitting-set: ground elements"
    )
    p_gen.add_argument(
        "--num-sets", type=int, default=4, help="hitting-set/set-cover: number of sets"
    )
    p_gen.add_argument(
        "--set-size", type=int, default=2, help="hitting-set: elements per set"
    )
    p_gen.add_argument("--size", type=int, default=3, help="3dm: axis size")
    p_gen.add_argument("--edges", type=int, default=4, help="3dm: hyperedges")
    p_gen.add_argument("--vertices", type=int, default=5, help="domatic: vertices")
    p_gen.add_argument(
        "--edge-prob", type=float, default=0.5, help="domatic: edge probability"
    )
    p_gen.add_argument(
        "--universe", type=int, default=5, help="set-cover: universe size"
    )
    p_gen.add_argument(
        "--density",
        type=float,
        default=0.5,
        help="set-cover/random: membership probability",
    )
    p_gen.add_argument("--users", type=int, default=6, help="random: users")
    p_gen.add_argument("--resources", type=int, default=3, help="random: resources")
    p_gen.add_argument("--s", type=int, default=0, help="random: removal budget")
    p_gen.add_argument("--d", type=int, default=1, help="random: team count")
    p_gen.add_argument("--t", default="inf", help="random: team size or 'inf'")
    p_gen.set_defaults(func=cmd_generate)

    p_sweep = sub.add_parser(
        "sweep", help="cross-validate every solver against the oracle"
    )
    _add_field_flags(
        p_sweep, [f for f in fields(SweepConfig) if f.name in SWEEP_FLAGS]
    )
    p_sweep.add_argument(
        "--reproducer",
        default="sweep-disagreement.json",
        help="where to write the failing instance (default %(default)s)",
    )
    p_sweep.add_argument("--quiet", action="store_true", help="no progress output")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser(
        "verify", help="check a verdict's witness against its instance"
    )
    p_verify.add_argument("path", help="instance file (JSON)")
    p_verify.add_argument("--verdict", required=True, help="verdict file to check")
    p_verify.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs more than solving a typical instance;
    # parse_args leaves it unchanged, so every main() call can share it.
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 after a usage error and 0 after --help.
        return err.code
    try:
        return args.func(args)
    except BudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (InstanceFormatError, PolicyError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except (
        RuntimeError, LookupError, TypeError, AttributeError, AssertionError,
        ArithmeticError, NameError, StopIteration, MemoryError,
    ) as err:
        # A solver bug, RecursionError and UnboundLocalError included:
        # exit 1 would read as UNSAT.
        print(f"error: internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
