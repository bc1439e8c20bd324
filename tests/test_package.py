"""The package's public surface."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import rescheck

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # star imports; catch it here instead
    missing = [name for name in rescheck.__all__ if not hasattr(rescheck, name)]
    assert missing == []


def test_every_traced_binding_resolves():
    # the benchmark's tracer wraps functions at the module attributes
    # their callers look up; a refactor that drops one breaks it
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    (bindings,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["BINDINGS"]
    ]
    assert bindings
    missing = [
        (module, attr)
        for module, attr, _ in bindings
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
