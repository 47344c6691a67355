"""Every exported name resolves.

Functions keep moving out of ``src/`` (test-only oracles go to
``tests/oracles.py``); a stale ``__all__`` entry would otherwise fail only
when a user runs ``from gapchain.<module> import *``.
"""

import importlib
import pkgutil

import pytest

import gapchain

EXPORTING = ["gapchain"] + [
    f"gapchain.{m.name}" for m in pkgutil.iter_modules(gapchain.__path__)
    if hasattr(importlib.import_module(f"gapchain.{m.name}"), "__all__")
]


def test_exporting_modules_found():
    assert {"gapchain", "gapchain.mps", "gapchain.rwa"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
