"""The package's public surface."""

from __future__ import annotations

import rescheck


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # star imports; catch it here instead
    missing = [name for name in rescheck.__all__ if not hasattr(rescheck, name)]
    assert missing == []
