#!/usr/bin/env python3
"""Where a sweep's time goes, layer by layer: the Tier-1 sweep against
the sweep workload's request mix.

    python3 perfbench/sweep_mix.py [--out FILE]

Run it from the repository root, outside any timed benchmark run; it
takes about six minutes on a 2-CPU machine. It traces one
``run_sweep(SweepConfig())``, the acceptance sweep that takes most of
the Tier-1 time, then one pass over the sweep workload's requests
(``run.sweep_configs``), and prints each layer's share of the traced
self time, and a few counts per cell, side by side. Both sides are
traced the same way, so the tracing cost tilts both alike.

Self times are summed on the fly instead of kept as spans: the Tier-1
sweep makes millions of calls.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
LAYERS = (
    "sweep", "oracle.rcp", "oracle.s0", "policy.restrict", "policy.verify_witness",
    "blockers.branch", "blockers.reduced", "teams.dp", "teams.ilp",
)


class SumTracer(Tracer):
    """A tracer that keeps, per span name, the call count and the summed
    self time (span time less its children's), and no spans."""

    def __init__(self) -> None:
        super().__init__()
        self.frames: list[list] = []  # [name, start, time in children]
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)

    def begin(self, name: str) -> int:
        self.frames.append([name, time.perf_counter(), 0.0])
        return len(self.frames) - 1

    def end(self, index: int, result=None) -> None:
        now = time.perf_counter()
        while len(self.frames) > index:
            name, start, children = self.frames.pop()
            self.calls[name] += 1
            self.self_s[name] += now - start - children
            if self.frames:
                self.frames[-1][2] += now - start

    def start_request(self, request: str) -> None:
        self.frames.clear()


def traced_sweeps(configs: list[dict]) -> dict:
    """Run each config once under a SumTracer; the layers' self-time
    shares and calls per cell, with the sweep totals."""
    sweep = sys.modules["rescheck.sweep"]
    tracer = SumTracer()
    totals = {"cells": 0, "solver_runs": 0, "witnesses_checked": 0, "runs_by_algorithm": {}}
    tracer.install()
    start = time.perf_counter()
    try:
        for fields in configs:
            index = tracer.begin("sweep")
            try:
                report = sweep.run_sweep(sweep.SweepConfig(**fields))
            finally:
                tracer.end(index)
            if not report.ok:
                raise SystemExit(f"error: sweep disagreement in {fields}")
            for key in ("cells", "solver_runs", "witnesses_checked"):
                totals[key] += getattr(report, key)
            for name, runs in report.runs_by_algorithm.items():
                totals["runs_by_algorithm"][name] = totals["runs_by_algorithm"].get(name, 0) + runs
    finally:
        tracer.uninstall()
    traced_s = time.perf_counter() - start
    self_total = sum(tracer.self_s.values())
    cells = totals["cells"]
    return {
        "traced_s": traced_s,
        **totals,
        "share": {name: tracer.self_s[name] / self_total for name in LAYERS},
        "calls_per_cell": {name: tracer.calls[name] / cells for name in LAYERS if name != "sweep"},
        "runs_per_cell": {
            name: runs / cells for name, runs in sorted(totals["runs_by_algorithm"].items())
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import rescheck.sweep  # noqa: F401  (registers the module the tracer wraps)
    from run import sweep_configs

    result = {
        "reference_config": "SweepConfig()",
        "reference": traced_sweeps([{}]),
        "mix": traced_sweeps(list(sweep_configs().values())),
    }
    ref, mix = result["reference"], result["mix"]
    print(f"{'layer self-time share':32s} {'tier1':>10s} {'mix':>10s}")
    for name in LAYERS:
        print(f"{name:32s} {ref['share'][name]:10.3f} {mix['share'][name]:10.3f}")
    for table in ("calls_per_cell", "runs_per_cell"):
        print(f"{table:32s}")
        for name in sorted(set(ref[table]) | set(mix[table])):
            print(f"  {name:30s} {ref[table].get(name, 0):10.3f} {mix[table].get(name, 0):10.3f}")
    print(f"{'cells':32s} {ref['cells']:10d} {mix['cells']:10d}")
    print(f"{'traced seconds':32s} {ref['traced_s']:10.1f} {mix['traced_s']:10.1f}")
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
