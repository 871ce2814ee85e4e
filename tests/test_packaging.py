"""The names the package declares resolve: every module's __all__ and the
console scripts of pyproject.toml."""

from __future__ import annotations

import importlib
import pkgutil
from pathlib import Path

import pytest

import conecert

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_resolves():
    modules = [conecert] + [
        importlib.import_module(f"conecert.{info.name}")
        for info in pkgutil.iter_modules(conecert.__path__)
    ]
    for mod in modules:
        names = getattr(mod, "__all__", ())
        missing = [n for n in names if not hasattr(mod, n)]
        assert not missing, (mod.__name__, missing)


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"]
    for target in project["scripts"].values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
