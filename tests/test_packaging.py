"""The names the package declares resolve: every module's __all__ and the
console scripts of pyproject.toml.  Every public name is also used by the
library itself, with no exemption: the oracles the tests check the proof
against live in tests/oracles.py, and each of them is used by a test.
The same holds one level down, for the methods, properties and class
attributes of the library's classes."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import conecert

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


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
            if name.startswith("__"):
                continue
            if not any(
                name in reads and not (other == mod and name in defines)
                for other, found in stmts.items()
                for defines, reads in found
            ):
                unused.append(f"{mod}.{name}")
    assert not unused, unused


def _attribute_loads(tree: ast.Module, classes) -> list[tuple]:
    """(name, node id, owner) for each attribute loaded in tree.  owner is
    the class when the attribute is read off a bare class name, "" off an
    imported module, which holds no class member, and None off any other
    value, which may be an instance of any class."""
    modules = {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = getattr(node.value, "id", None)
            owner = base if base in classes else "" if base in modules else None
            out.append((node.attr, id(node), owner))
    return out


def test_every_class_member_is_used_outside_its_own_body():
    # a method, property or class attribute counts as used where library
    # code outside its own definition loads its name off an instance or
    # off its class, or where proofbench/ loads it
    src = Path(conecert.__file__).resolve().parent
    trees = [ast.parse(p.read_text()) for p in src.glob("*.py")]
    classes = {node.name: node for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)}
    loads = [x for tree in trees for x in _attribute_loads(tree, classes)]
    bench = {name for p in (ROOT / "proofbench").glob("*.py")
             for name, _, owner in _attribute_loads(ast.parse(p.read_text()), ())
             if owner != ""}
    unused = []
    for cname, cls in classes.items():
        for node in cls.body:
            targets = getattr(node, "targets", [getattr(node, "target", node)])
            names = [getattr(t, "id", getattr(t, "name", None)) for t in targets]
            own = {id(sub) for sub in ast.walk(node)}
            unused += [
                f"{cname}.{name}" for name in names
                if name and not name.startswith("__") and name not in bench
                and not any(attr == name and i not in own and owner in (None, cname)
                            for attr, i, owner in loads)
            ]
    assert not unused, unused


def test_every_oracle_is_used_by_a_test():
    # an oracle no test calls any more checks nothing and is deleted; a
    # helper counts as used where another oracle reads it
    found = _statements(ast.parse((TESTS / "oracles.py").read_text()))
    tests = set()
    for p in TESTS.glob("test_*.py"):
        for _, reads in _statements(ast.parse(p.read_text())):
            tests |= reads
    unused = [
        name
        for defines, _ in found
        for name in defines
        if name not in tests
        and not any(
            name in reads and name not in other
            for other, reads in found
        )
    ]
    assert not unused, unused


def _imports(path: Path) -> set:
    """The absolute names of the modules a source file imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                out.add(node.module)
            elif node.module:
                out.add(f"conecert.{node.module}")
            else:
                out |= {f"conecert.{a.name}" for a in node.names}
    return out


def test_linalg_is_a_leaf_that_only_cones_imports():
    src = Path(conecert.__file__).resolve().parent
    importers = {
        p.stem for p in src.glob("*.py") if "conecert.linalg" in _imports(p)
    }
    assert importers == {"cones"}
    assert not [
        m for m in _imports(src / "linalg.py") if m.split(".")[0] == "numpy"
    ]


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
