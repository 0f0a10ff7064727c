"""Import-order regression tests.

Each subpackage must be importable *first* in a fresh interpreter —
circular imports between repro.core / repro.world / repro.analysis only
manifest for specific entry orders, which pytest's own import order can
mask (this exact bug shipped once: a repro.world module importing
repro.analysis at module level broke ``import repro.core`` in scripts).
"""

import subprocess
import sys

import pytest

ENTRY_POINTS = [
    "repro",
    "repro.dnscore",
    "repro.netsim",
    "repro.smtp",
    "repro.tls",
    "repro.measure",
    "repro.world",
    "repro.core",
    "repro.analysis",
    "repro.experiments",
    "repro.cli",
    "repro.dist",
]


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_fresh_interpreter_import(module):
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_star_exports_resolve():
    """Every name in __all__ actually exists on its package."""
    import importlib

    for module_name in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name}"
