"""In-memory span tracing around rescheck's public functions.

``Tracer.install`` swaps each traced function for a wrapper at the
binding its caller looks up at call time (for example
``rescheck.blockers.restrict`` for the searches, ``rescheck.policy.restrict``
for ``verify_witness``), so nothing inside ``src/`` changes. A span is
(name, start, end, parent, request, info); ``info`` keeps the counters
read off the returned verdict. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# (module, attribute, span name). One function can sit behind several
# bindings; each binding is wrapped under the same span name.
BINDINGS = (
    ("rescheck.cli", "parse_instance_document", "serialize.parse"),
    ("rescheck.cli", "emit_verdict", "serialize.emit"),
    ("rescheck.cli", "normalize", "policy.normalize"),
    ("rescheck.cli", "solve", "blockers.solve"),
    ("rescheck.blockers", "branch_solve", "blockers.branch"),
    ("rescheck.blockers", "reduced_solve", "blockers.reduced"),
    ("rescheck.blockers", "restrict", "policy.restrict"),
    ("rescheck.oracle", "restrict", "policy.restrict"),
    ("rescheck.policy", "restrict", "policy.restrict"),
    ("rescheck.teams", "dp_solve", "teams.dp"),
    ("rescheck.teams", "ilp_solve", "teams.ilp"),
    ("rescheck.oracle", "solve_s0_bruteforce", "oracle.s0"),
    ("rescheck.oracle", "solve_rcp_bruteforce", "oracle.rcp"),
    ("rescheck.sweep", "solve_rcp_bruteforce", "oracle.rcp"),
    ("rescheck.sweep", "verify_witness", "policy.verify_witness"),
    ("rescheck.policy", "verify_witness", "policy.verify_witness"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: str | None = None
    info: dict = field(default_factory=dict)


def _verdict_info(result) -> dict:
    stats = getattr(result, "stats", None)
    if stats is None:
        return {}
    info = {"algorithm": stats.algorithm, "nodes": stats.nodes}
    if "configurations" in stats.extras:
        info["configs"] = stats.extras["configurations"]
    return info


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request: str | None = None
        self._originals: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, request=self.request))
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index: int, result=None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.info = _verdict_info(result)
        # A timeout can unwind several frames at once; drop them all.
        while self.stack and self.stack.pop() != index:
            pass

    def start_request(self, request: str) -> None:
        self.request = request
        self.stack.clear()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(index, result)

        return traced

    def install(self) -> None:
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own
