"""The names the package declares resolve: every module's __all__ and the
console scripts of pyproject.toml.  Every public name is also used by the
library itself, unless it is one of the oracles the tests check the proof
against."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import conecert

ROOT = Path(__file__).resolve().parent.parent

# Public names no library code calls, kept as the oracles and closed-form
# fields the tests check the proof code against.
ORACLES = {
    "hamiltonian",
    "jacobi_constant",
    "vector_field_floats",
    "jacobian_floats",
    "symmetry_S",
    "LinearTaylorField",
    "integrate_to_time",
    # the single-box local field and Jacobian: the finite-difference and
    # bit-for-bit references of the batch path the proof runs
    "local_field",
    "local_jacobian",
    # the Krawczyk inverse: the reference of the chart's signed-transpose
    # C_inv and of the flight's Q^-1 enclosure
    "verified_inverse",
}


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


def _statements(tree: ast.Module) -> list[tuple[set, set]]:
    """(names defined, names read) for each top-level statement; a name is
    read where it is loaded, bare or as an attribute."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defines = {node.name}
        elif isinstance(node, ast.Assign):
            defines = {t.id for t in node.targets if isinstance(t, ast.Name)}
        else:
            defines = set()
        reads = {
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))
            and isinstance(sub.ctx, ast.Load)
        }
        out.append((defines, reads))
    return out


def test_every_public_name_is_used_by_the_library():
    src = Path(conecert.__file__).resolve().parent
    stmts = {
        p.stem: _statements(ast.parse(p.read_text()))
        for p in src.glob("*.py")
    }
    unused = []
    for mod in stmts:
        module = importlib.import_module(
            "conecert" if mod == "__init__" else f"conecert.{mod}"
        )
        for name in module.__all__:
            if name in ORACLES or name.startswith("__"):
                continue
            if not any(
                name in reads and not (other == mod and name in defines)
                for other, found in stmts.items()
                for defines, reads in found
            ):
                unused.append(f"{mod}.{name}")
    assert not unused, unused


def test_every_config_field_is_read_by_the_library():
    # a ProofConfig field that only its own class reads changes the config
    # and the report but no computation; as above, a field counts as read
    # where its name is loaded as an attribute
    from dataclasses import fields

    from conecert.prover import ProofConfig

    src = Path(conecert.__file__).resolve().parent
    reads = set()
    for p in src.glob("*.py"):
        tree = ast.parse(p.read_text())
        inside = {
            id(sub)
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "ProofConfig"
            for sub in ast.walk(node)
        }
        reads |= {
            sub.attr
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load)
            and id(sub) not in inside
        }
    unread = [f.name for f in fields(ProofConfig) if f.name not in reads]
    assert not unread, unread
