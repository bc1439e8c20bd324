#!/usr/bin/env python3
"""Layered benchmark for rescheck.

    python3 perfbench/run.py --workload solve-resilience --seed 1 --seconds 50 --trace 0

Run it from the repository root: it imports ``rescheck`` from ``src/``
and nothing else of the repository. Workloads:

* ``solve-resilience`` and ``solve-s0``: a seeded corpus of instance
  files (``corpus.py``). One client in a closed loop sends each file to
  ``rescheck.cli.main(["solve", file, "--witness", "--stats"])`` in this
  process, each request starting when the previous one ended, under a
  per-request wall-clock limit the benchmark enforces itself.
  ``solve-s0`` runs, but BENCHMARK.json leaves it out: its wall times
  spread too far between runs on a shared 2-CPU machine to be gated, and
  a third workload of 50 s runs would make a full set of gated runs too
  long.
* ``sweep``: a fixed list of reduced sweeps (``sweep_configs``), each
  request one ``run_sweep`` call with every check on.

With ``--trace 0`` the run repeats passes over the requests until
``--seconds`` have passed and prints the end-to-end metrics. Each timed
request and set-up is bracketed by the reference kernel of
``calibrate.py``, and its time is reported scaled to the kernel's
reference speed, so that the host's speed, which moves by up to 1.8
times within a minute on a shared machine, largely cancels out; the wall times
stay in the run record. With
``--trace 1`` it makes a warm-up pass, then traced, untraced and traced
passes, prints the per-layer metrics of the first traced pass and
compares the counts of the two traced ones.

Answers are checked against references that never come from the timed
route, and witnesses with ``verify_witness``, outside every timed
interval; a wrong answer, an invalid witness or a sweep disagreement
makes the run exit 1. The last line of standard output is the result
object; the full run record, and with ``--trace 1`` the spans, go to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import calibrate
from tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

REQUEST_LIMIT_S = 1.5  # per solve request; failures enter percentiles at this value
REFERENCE_LIMIT_S = 6.0  # per reference solve and per witness check, untimed
SWEEP_LIMIT_S = 10.0  # per sweep request
SETUP_REPEATS = 15
WORKLOADS = ("solve-s0", "solve-resilience", "sweep")
ROUTES = (
    "fastpath", "dp", "ilp", "setcover", "oracle",
    "branch-dp", "branch-ilp", "branch-oracle-s0",
    "reduced-dp", "reduced-ilp", "reduced-oracle-s0",
)
INNER = ("teams.dp", "teams.ilp", "oracle.s0")
OUTER = ("blockers.branch", "blockers.reduced")


class RequestTimeout(Exception):
    """The benchmark's own per-request wall-clock limit ran out."""


def _alarm(signum, frame):
    raise RequestTimeout()


def timed_call(fn, limit: float):
    """Run fn() under a wall-clock limit: ("done", value, seconds) or
    ("timeout", None, seconds). Other exceptions propagate."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        return "timeout", None, time.perf_counter() - start
    return "done", value, time.perf_counter() - start


def gauged(fn):
    """fn() between two runs of the reference kernel: (fn's value, the
    faster kernel time). The faster of the two leaves out a kernel run
    that an interrupt or a collection happened to hit."""
    before = calibrate.measure()
    value = fn()
    return value, min(before, calibrate.measure())


def scaled(seconds: float, kernel_s: float) -> float:
    """seconds measured while the kernel took kernel_s, at the kernel's
    reference speed."""
    return seconds * calibrate.REFERENCE_S / kernel_s


# ---------------------------------------------------------------------------
# Set-up: import rescheck from src/ and generate the workload's inputs.


def _import_rescheck() -> float:
    for name in [m for m in sys.modules if m == "rescheck" or m.startswith("rescheck.")]:
        del sys.modules[name]
    sys.modules.pop("corpus", None)
    start = time.perf_counter()
    for name in ("rescheck", "rescheck.cli", "rescheck.generators", "rescheck.serialize"):
        importlib.import_module(name)
    elapsed = time.perf_counter() - start
    origin = Path(sys.modules["rescheck"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"error: rescheck was imported from {origin}, not from src/")
    return elapsed


def setup(workload: str, seed: int, run_dir: Path):
    """Import and generate SETUP_REPEATS times; returns the scaled time
    (see ``gauged``) and the wall time of each repeat, the corpus entries
    of the last generation and any byte differences between
    generations."""
    src = ROOT / "src"
    if not (src / "rescheck" / "__init__.py").is_file():
        raise SystemExit("error: no src/rescheck here; run from the repository root")
    sys.path.insert(0, str(src))
    times, walls, entries, digests = [], [], [], []

    def once(repeat: int) -> float:
        nonlocal entries
        elapsed = _import_rescheck()
        if workload != "sweep":
            corpus = importlib.import_module("corpus")
            start = time.perf_counter()
            entries = corpus.write_corpus(workload, seed, run_dir / f"gen{repeat}")
            elapsed += time.perf_counter() - start
            digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p, _, _ in entries})
        return elapsed

    for repeat in range(SETUP_REPEATS):
        gc.collect()
        wall, kernel_s = gauged(lambda: once(repeat))
        walls.append(wall)
        times.append(scaled(wall, kernel_s))
    differences = sorted({name for d in digests[1:] for name in d if d[name] != digests[0].get(name)})
    return times, walls, entries, differences


# ---------------------------------------------------------------------------
# Requests.


def solve_request(path: Path, limit: float) -> dict:
    """One `rescheck solve FILE --witness --stats`, stdout captured."""
    cli = sys.modules["rescheck.cli"]
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(["solve", str(path), "--witness", "--stats"])

    try:
        status, code, seconds = timed_call(call, limit)
    except Exception:  # a crash must never read as an answer
        return {"outcome": "crash", "seconds": limit, "detail": traceback.format_exc(limit=-3)}
    if status == "timeout":
        return {"outcome": "timeout", "seconds": seconds}
    if code in (0, 1):
        return {"outcome": "decided", "seconds": seconds, "code": code, "stdout": out.getvalue()}
    if code == 3:
        return {"outcome": "budget_error", "seconds": seconds, "detail": err.getvalue().strip()}
    return {"outcome": "crash", "seconds": seconds, "detail": f"exit {code}: {err.getvalue().strip()}"}


def sweep_configs() -> dict[str, dict]:
    """The sweep workload's requests: reduced sweeps, each one
    `rescheck sweep` run with every check on and Tier-1's d, t and s
    ranges (max_d 2, max_t 3, max_s 2). Tier-1's `SweepConfig()` spends
    its time on the exhaustive n = 5, p = 3 grid, which no request of a
    few seconds can slice out; seeded random cells up to n = 10 users
    and p = 3 or 4 resources come closest in where the time goes
    (`sweep_mix.py` compares the two). Three small exhaustive grids keep
    the grid walk in. Many small sweeps rather than one big one give a
    per-request distribution with more than ten requests beyond its
    p90, and short passes to repeat."""
    configs = {}
    for n, p in ((2, 2), (3, 2), (2, 3)):
        configs[f"grid-n{n}-p{p}"] = {
            "max_n": n, "max_p": p, "max_d": 2, "max_t": 3, "max_s": 2, "seeds": 0,
        }
    for n, p, seeds in itertools.product(range(3, 11), (3, 4), range(8, 57, 8)):
        configs[f"random-n{n}-p{p}-k{seeds}"] = {
            "max_n": 0, "seeds": seeds, "random_max_n": n, "random_max_p": p,
            "max_d": 2, "max_t": 3, "max_s": 2,
        }
    return configs


def sweep_request(fields: dict, limit: float) -> dict:
    sweep = sys.modules["rescheck.sweep"]
    config = sweep.SweepConfig(**fields)
    try:
        status, report, seconds = timed_call(lambda: sweep.run_sweep(config), limit)
    except Exception:
        return {"outcome": "crash", "seconds": limit, "detail": traceback.format_exc(limit=-3)}
    if status == "timeout":
        return {"outcome": "timeout", "seconds": seconds}
    return {"outcome": "decided", "seconds": seconds, "report": report}


def run_pass(requests: list[str], send, tracer=None, deadline: float | None = None, span="request",
             gauge=False):
    """Send each request once, in order, stopping early at the deadline.
    With gauge, each result gets the kernel time around it ("kernel_s")."""
    results = {}
    for name in requests:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        # Each request starts without the previous one's garbage, as a
        # fresh `rescheck` process would, so collection pauses and heap
        # growth do not depend on the request order.
        gc.collect()
        if tracer is not None:
            tracer.start_request(name)
            index = tracer.begin(span)
            try:
                results[name] = send(name)
            finally:
                tracer.end(index)
        elif gauge:
            results[name], kernel_s = gauged(lambda: send(name))
            results[name]["kernel_s"] = kernel_s
        else:
            results[name] = send(name)
    return results


# ---------------------------------------------------------------------------
# Correctness, outside every timed interval.


def _reference(inst, expected: str, route: str) -> tuple[str, str | None]:
    """(kind, answer) for one instance, never from `route`, the search
    the timed request took; answer None when no reference could be had
    within REFERENCE_LIMIT_S. Known-answer families use the generator's
    answer, n <= 20 the brute-force oracle. Otherwise the branch and
    reduced searches, less whichever of them is the timed route, must
    agree."""
    if expected in ("SAT", "UNSAT"):
        return "generator", expected
    rescheck = sys.modules["rescheck"]
    if inst.n <= 20:
        status, verdict, _ = timed_call(
            lambda: rescheck.solve_rcp_bruteforce(inst, user_limit=None), REFERENCE_LIMIT_S
        )
        return ("oracle", verdict.answer) if status == "done" else ("none", None)
    searches = [name for name in ("branch", "reduced") if not route.startswith(name)]
    answers = set()
    for name in searches:
        status, verdict, _ = timed_call(lambda: rescheck.solve(inst, name), REFERENCE_LIMIT_S)
        if status != "done":
            return "none", None
        answers.add(verdict.answer)
    if len(answers) > 1:
        return "branch!=reduced", None
    return "=".join(searches), answers.pop()


def check_solve(instances: dict, expected: dict, samples: dict, problems: list[str]) -> dict:
    """Check every decided request; returns how many had each kind of
    reference, and how many witnesses could not be checked in time."""
    rescheck = sys.modules["rescheck"]
    serialize = sys.modules["rescheck.serialize"]
    kinds: dict[str, int] = {}
    for name, runs in samples.items():
        decided = [r for r in runs if r["outcome"] == "decided"]
        if not decided:
            continue
        inst = instances[name]
        texts = {r["stdout"] for r in decided}
        route = json.loads(next(iter(texts)))["algorithm"]
        kind, answer = _reference(inst, expected[name], route)
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "branch!=reduced":
            problems.append(f"{name}: branch and reduced disagree")
        if len(texts) > 1:
            problems.append(f"{name}: verdict bytes differ between passes")
        for text in sorted(texts):
            verdict = serialize.parse_verdict(text, inst)
            code = {r["code"] for r in decided if r["stdout"] == text}
            if code != {0 if verdict.sat else 1}:
                problems.append(f"{name}: exit code {sorted(code)} for {verdict.answer}")
            if answer is not None and verdict.answer != answer:
                problems.append(f"{name}: answered {verdict.answer}, reference ({kind}) says {answer}")
            if verdict.witness is None:
                if not verdict.sat or inst.s == 0:
                    problems.append(f"{name}: {verdict.answer} verdict without a witness")
                continue
            status, ok, _ = timed_call(
                lambda: rescheck.policy.verify_witness(inst, verdict), REFERENCE_LIMIT_S
            )
            if status != "done":
                kinds["witness-unverified"] = kinds.get("witness-unverified", 0) + 1
            elif not ok:
                problems.append(f"{name}: invalid witness")
    return kinds


# ---------------------------------------------------------------------------
# Metrics.


def request_times(samples: dict, limit: float, scale: bool) -> list[float]:
    """One time per request: the mean of the faster half of its passes,
    each pass's time scaled to the kernel's reference speed (or its wall
    time). A pass without a verdict counts at the limit. The kernel
    follows the host's speed only in part: requests on large instances
    slow down more than it does while a neighbour loads the memory, and
    the faster half leaves those passes out."""
    times = []
    for runs in samples.values():
        own = sorted(
            limit if r["outcome"] != "decided"
            else scaled(r["seconds"], r["kernel_s"]) if scale
            else r["seconds"]
            for r in runs
        )
        times.append(statistics.fmean(own[: (len(own) + 1) // 2]))
    return times


def end_to_end(samples: dict, limit: float, setup_s: float, peak_rss_mb: float) -> dict:
    """Percentiles over requests of their scaled times (request_times)."""
    per_request = request_times(samples, limit, scale=True)
    # Per request first, so a partial last pass does not tilt the mix.
    decided = statistics.fmean(
        statistics.fmean(r["outcome"] == "decided" for r in runs) for runs in samples.values()
    )
    return {
        "setup_s": (setup_s, "s"),
        "verdict_p50_s": (statistics.median(per_request), "s"),
        "verdict_p90_s": (statistics.quantiles(per_request, n=10)[8], "s"),
        "decided_share": (decided, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


PER_LAYER = (
    "serialize.parse_s", "serialize.emit_s", "policy.normalize_s",
    "policy.restrict.calls", "policy.restrict_s",
    "policy.verify_witness.calls", "policy.verify_witness_s",
    "blockers.solve.self_s",
    "blockers.branch.nodes", "blockers.branch.self_s",
    "blockers.reduced.nodes", "blockers.reduced.self_s",
    "blockers.inner.calls", "blockers.inner_per_node",
    *("blockers.route." + route for route in ROUTES + ("other",)),
    "teams.dp.calls", "teams.dp.states", "teams.dp.self_s",
    "teams.ilp.calls", "teams.ilp.nodes", "teams.ilp.configs", "teams.ilp.self_s",
    "oracle.s0.calls", "oracle.s0.nodes", "oracle.s0.self_s",
    "oracle.rcp.calls", "oracle.rcp.self_s",
    "sweep.cells", "sweep.solver_runs", "sweep.witnesses_checked", "sweep.self_s",
    "requests.timeout", "requests.budget_error", "requests.crash",
    "trace.overhead_ratio",
)
TIMED_SPANS = ("serialize.parse", "serialize.emit", "policy.normalize", "policy.restrict")
COUNTED_SPANS = ("policy.restrict", "teams.dp", "teams.ilp", "oracle.s0", "oracle.rcp")
SELF_TIMED_SPANS = OUTER + INNER + ("blockers.solve", "oracle.rcp", "sweep")


def per_layer(spans, results: dict) -> dict:
    """Per-layer counts and self times over the decided requests of one
    traced pass. Witness checks the benchmark makes itself (request
    "check:<name>") count towards policy.verify_witness only."""
    decided = {name for name, r in results.items() if r["outcome"] == "decided"}
    own = self_times(spans)
    m = dict.fromkeys(PER_LAYER, 0)
    for i, span in enumerate(spans):
        name, info, request = span.name, span.info, span.request or ""
        if name == "policy.verify_witness" and request.removeprefix("check:") in decided:
            m["policy.verify_witness.calls"] += 1
            m["policy.verify_witness_s"] += span.end - span.start
        if request not in decided:
            continue
        if name in TIMED_SPANS:
            m[name + "_s"] += own[i]
        if name in COUNTED_SPANS:
            m[name + ".calls"] += 1
        if name in SELF_TIMED_SPANS:
            m[name + ".self_s"] += own[i]
        if name in OUTER or name in ("teams.ilp", "oracle.s0"):
            m[name + ".nodes"] += info.get("nodes", 0)
        if name == "teams.dp":
            m["teams.dp.states"] += info.get("nodes", 0)
        if name == "teams.ilp":
            m["teams.ilp.configs"] += info.get("configs", 0)
        if name in INNER and span.parent is not None and spans[span.parent].name in OUTER:
            m["blockers.inner.calls"] += 1
        if name == "blockers.solve":
            route = info.get("algorithm", "").replace("+", "-")
            m["blockers.route." + (route if route in ROUTES else "other")] += 1
    for r in results.values():
        if r["outcome"] == "decided" and "report" in r:
            m["sweep.cells"] += r["report"].cells
            m["sweep.solver_runs"] += r["report"].solver_runs
            m["sweep.witnesses_checked"] += r["report"].witnesses_checked
    nodes = m["blockers.branch.nodes"] + m["blockers.reduced.nodes"]
    m["blockers.inner_per_node"] = m["blockers.inner.calls"] / nodes if nodes else 0.0
    return m


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rescheck").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    return "ratio" if key.endswith(("_per_node", "_ratio")) else "count"


def prepare(workload: str, seed: int, entries, record: dict):
    """Requests in sending order, the function that sends one, the span
    name of a request, its limit, and (solve workloads) the parsed
    instances with their generator answers."""
    rng = random.Random(seed)
    if workload == "sweep":
        configs = sweep_configs()
        record["sweep_configs"] = configs
        record["sweep_limits"] = asdict(sys.modules["rescheck.sweep"].SweepConfig().limits)
        requests = sorted(configs)
        rng.shuffle(requests)
        send = lambda name: sweep_request(configs[name], SWEEP_LIMIT_S)  # noqa: E731
        return requests, send, "sweep", SWEEP_LIMIT_S, None
    serialize = sys.modules["rescheck.serialize"]
    policy = sys.modules["rescheck.policy"]
    record["shapes"] = [
        {"name": shape.name, "count": shape.count, "why": shape.why, "known_failure": shape.known_failure}
        for shape in sys.modules["corpus"].CORPORA[workload]
    ]
    files = {path.name: path for path, _, _ in entries}
    known = {path.name: shape.known_failure for path, shape, _ in entries if shape.known_failure}
    record["known_failures"] = known
    # Known failures go last in every pass; see measure().
    requests = sorted(set(files) - set(known))
    rng.shuffle(requests)
    requests += sorted(known)
    instances = {}
    for name, path in files.items():
        inst = serialize.parse_instance_document(path.read_text(encoding="utf-8")).instance
        instances[name] = inst if policy.is_normalized(inst) else policy.normalize(inst)
    expected = {path.name: answer for path, _, answer in entries}
    send = lambda name: solve_request(files[name], REQUEST_LIMIT_S)  # noqa: E731
    return requests, send, "request", REQUEST_LIMIT_S, (instances, expected)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def forked(send, name: str, limit: float) -> tuple[dict, float]:
    """send(name) in a child process: its result and the child's peak
    RSS in MB. Whatever the request builds before its limit stops it
    stays out of this process and its peak."""
    sys.stdout.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            result = send(name)
            with os.fdopen(write_end, "w", encoding="utf-8") as out:
                out.write(json.dumps([result, _peak_rss_mb()]))
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, encoding="utf-8") as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"outcome": "crash", "seconds": limit, "detail": f"child wait status {status}"}, 0.0
    result, peak = json.loads(data)
    return result, peak


def measure(requests, send, seconds: float, known: int, limit: float):
    """Untraced passes for `seconds`; returns the passes, the peak RSS
    in MB and the peak RSS of each of the `known` last requests. In the
    first pass each of those runs in a child process, so that the memos
    a request builds until the limit stops it, which grow with CPU
    speed, stay out of the peak; the peak takes in only those of them
    that got a verdict. Requests without a verdict in the first pass are
    not sent again."""
    start = time.perf_counter()
    first = len(requests) - known
    results = run_pass(requests[:first], send, gauge=True)
    peak_rss_mb = _peak_rss_mb()
    known_rss_mb = {}
    for name in requests[first:]:
        gc.collect()
        (results[name], known_rss_mb[name]), kernel_s = gauged(lambda: forked(send, name, limit))
        results[name]["kernel_s"] = kernel_s
        if results[name]["outcome"] == "decided":
            peak_rss_mb = max(peak_rss_mb, known_rss_mb[name])
    passes = [results]
    again = [name for name in requests if results[name]["outcome"] == "decided"]
    deadline = start + seconds
    while time.perf_counter() < deadline:
        passes.append(run_pass(again, send, deadline=deadline, gauge=True))
    return passes, peak_rss_mb, known_rss_mb


def traced_passes(requests, send, span: str, solve_data):
    """A warm-up pass, then traced, untraced and traced passes over the
    requests that got a verdict in the warm-up. Returns the four passes
    and the spans of each traced pass. For the solve workloads each
    traced pass is followed by its witness checks, traced as
    "check:<name>"."""
    warm = run_pass(requests, send)
    again = [name for name in requests if warm[name]["outcome"] == "decided"]
    tracer = Tracer()
    passes, spans = [warm], []
    for traced in (True, False, True):
        if not traced:
            passes.append(run_pass(again, send))
            continue
        tracer.spans = []
        tracer.install()
        try:
            passes.append(run_pass(again, send, tracer, span=span))
            if solve_data is not None:
                trace_witness_checks(tracer, passes[-1], solve_data[0])
        finally:
            tracer.uninstall()
        spans.append(tracer.spans)
    return passes, spans


def trace_witness_checks(tracer, results: dict, instances: dict) -> None:
    serialize = sys.modules["rescheck.serialize"]
    policy = sys.modules["rescheck.policy"]
    for name, r in results.items():
        if r["outcome"] != "decided":
            continue
        inst = instances[name]
        verdict = serialize.parse_verdict(r["stdout"], inst)
        if verdict.witness is None:
            continue
        tracer.start_request("check:" + name)
        index = tracer.begin("check")
        try:
            timed_call(lambda: policy.verify_witness(inst, verdict), REFERENCE_LIMIT_S)
        finally:
            tracer.end(index)


def check_sweep(samples: dict, problems: list[str]) -> dict:
    for name, runs in samples.items():
        for r in runs:
            if r["outcome"] == "decided" and not r["report"].ok:
                bad = r["report"].disagreements[0]
                problems.append(
                    f"{name}: sweep disagreement ({bad.kind}): {bad.algorithm} got "
                    f"{bad.got}, {bad.baseline} expected {bad.expected}"
                )
    return {"sweep-oracle": sum(r["outcome"] == "decided" for runs in samples.values() for r in runs)}


def layer_metrics(passes, spans) -> tuple[dict, dict]:
    """Per-layer metrics of the first traced pass, with the failures of
    the warm-up pass, and the counts on which the second traced pass
    differs from the first."""
    warm, first, plain, second = passes
    metrics = per_layer(spans[0], first)
    other = per_layer(spans[1], second)
    for r in warm.values():
        if r["outcome"] != "decided":
            metrics["requests." + r["outcome"]] += 1
    both = [n for n in first if first[n]["outcome"] == "decided" == plain[n]["outcome"]]
    untraced = sum(plain[n]["seconds"] for n in both)
    metrics["trace.overhead_ratio"] = sum(first[n]["seconds"] for n in both) / untraced if untraced else 0.0
    differences = {
        key: [metrics[key], other[key]]
        for key in PER_LAYER
        if layer_unit(key) == "count" and not key.startswith("requests.") and metrics[key] != other[key]
    }
    return metrics, differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _alarm)
    results_dir = WORK / "results"
    stem = f"{args.workload}-seed{args.seed}"
    run_dir = WORK / f"run-{stem}-{os.getpid()}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "request_limit_s": REQUEST_LIMIT_S,
        "reference_limit_s": REFERENCE_LIMIT_S,
    }
    try:
        record["setup_s"], record["setup_wall_s"], entries, record["corpus_differences"] = setup(
            args.workload, args.seed, run_dir
        )
        setup_s = statistics.median(record["setup_s"])
        record["commit"] = _git_commit()
        record["src_sha256"] = _src_digest()
        requests, send, span, limit, solve_data = prepare(args.workload, args.seed, entries, record)
        start = time.perf_counter()
        if args.trace:
            passes, spans = traced_passes(requests, send, span, solve_data)
        else:
            passes, peak_rss_mb, record["known_failure_rss_mb"] = measure(
                requests, send, args.seconds, len(record.get("known_failures", ())), limit
            )
        record["measured_s"] = time.perf_counter() - start
        record["passes"] = len(passes)
        samples: dict[str, list[dict]] = {name: [] for name in requests}
        for results in passes:
            for name, result in results.items():
                samples[name].append(result)

        problems: list[str] = []
        start = time.perf_counter()
        if solve_data is None:
            record["reference_kinds"] = check_sweep(samples, problems)
        else:
            record["reference_kinds"] = check_solve(*solve_data, samples, problems)
        record["check_s"] = time.perf_counter() - start
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    undecided: dict[str, set] = {}
    for name, runs in samples.items():
        for r in runs:
            if r["outcome"] != "decided":
                undecided.setdefault(r["outcome"], set()).add(name)
    record["undecided"] = {kind: sorted(names) for kind, names in undecided.items()}
    record["known_failures_now_decided"] = sorted(
        set(record.get("known_failures", ())) - set().union(*undecided.values())
    )
    record["requests"] = {
        name: {
            "outcomes": [r["outcome"] for r in runs],
            "seconds": [r["seconds"] for r in runs],
            "kernel_s": [r.get("kernel_s") for r in runs],
        }
        for name, runs in sorted(samples.items())
    }
    if args.trace:
        metrics, record["trace_count_differences"] = layer_metrics(passes, spans)
        shown = {key: (metrics[key], layer_unit(key)) for key in PER_LAYER}
    else:
        shown = end_to_end(samples, limit, setup_s, peak_rss_mb)
        wall = request_times(samples, limit, scale=False)
        record["wall_verdict_p50_s"] = statistics.median(wall)
        record["wall_verdict_p90_s"] = statistics.quantiles(wall, n=10)[8]
        record["kernel_s_median"] = statistics.median(
            r["kernel_s"] for runs in samples.values() for r in runs
        )
    record["problems"] = problems
    record["loadavg_end"] = os.getloadavg()
    record["metrics"] = {key: {"value": value, "unit": unit} for key, (value, unit) in shown.items()}
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8"
    )
    if args.trace:
        with open(results_dir / f"{stem}-spans.jsonl", "w", encoding="utf-8") as out:
            for span_record in spans[0]:
                out.write(json.dumps(asdict(span_record)) + "\n")

    for key, (value, unit) in shown.items():
        print(f"{key:32s} {value:.6g} {unit}")
    for kind, names in record["undecided"].items():
        print(f"undecided ({kind}): {len(names)}: {', '.join(names)}")
    if record["known_failures_now_decided"]:
        print(f"known failures now decided: {', '.join(record['known_failures_now_decided'])}")
    print(f"reference kinds: {record['reference_kinds']}")
    if record["corpus_differences"]:
        print(f"corpus generations differ: {', '.join(record['corpus_differences'])}")
    for key, (a, b) in record.get("trace_count_differences", {}).items():
        print(f"traced passes differ on {key}: {a} vs {b}")
    for problem in problems:
        print(f"WRONG: {problem}")
    attempted = sum(len(runs) for runs in samples.values())
    crashed = sum(r["outcome"] == "crash" for runs in samples.values() for r in runs)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": crashed,
        "metrics": record["metrics"],
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
