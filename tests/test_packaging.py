"""The names the package declares resolve: every module's __all__ and the
console scripts of pyproject.toml.  Every public name, and every other
top-level definition of a library module, is also used by the library
itself, with no exemption: the oracles the tests check the proof
against live in tests/oracles.py, and each of them is used by a test.
The same holds one level down, for the methods, properties and class
attributes of the library's classes.  No certified number goes through
BLAS, ** and libm calls stay in the few functions listed below, and no
library module imports numpy, nor does the package depend on it."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def _unused_public_names(stmts: dict, public: dict) -> list:
    """The names public[mod] of each module that no statement reads but
    the one defining them, in rounds until no more drop out: each round
    ignores the statements that define a name already flagged."""
    unused: list = []
    while True:
        live = [(mod, defines, reads)
                for mod, found in stmts.items() for defines, reads in found
                if not any(f"{mod}.{d}" in unused for d in defines)]
        flagged = [
            f"{mod}.{name}" for mod, names in public.items() for name in names
            if not any(name in reads and not (other == mod and name in defines)
                       for other, defines, reads in live)
        ]
        if len(flagged) == len(unused):
            return flagged
        unused = flagged


def test_every_public_name_is_used_by_the_library():
    # every name of __all__ and every other top-level function, class and
    # assigned name of each module, private or not: a helper that no live
    # library code reads is dead, though no __all__ lists it
    src = Path(conecert.__file__).resolve().parent
    stmts = {
        p.stem: _statements(ast.parse(p.read_text()))
        for p in src.glob("*.py")
    }
    names = {
        mod: set(importlib.import_module(
            "conecert" if mod == "__init__" else f"conecert.{mod}"
        ).__all__).union(*(defines for defines, _ in found))
        for mod, found in stmts.items()
    }
    public = {mod: sorted(n for n in found if not n.startswith("__"))
              for mod, found in names.items()}
    unused = _unused_public_names(stmts, public)
    assert not unused, unused


def test_public_name_guard_flags_names_only_dead_code_reads():
    # dead is read nowhere, g only inside dead: both drop out, in two rounds
    stmts = {"m": _statements(ast.parse(
        "def live():\n    return 1\n"
        "def dead():\n    return g()\n"
        "def g():\n    return 2\n"
        "VALUE = live()\n"
    ))}
    assert _unused_public_names(stmts, {"m": ["live", "dead", "g"]}) == [
        "m.dead", "m.g"
    ]


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


def _unused_members(trees: list, bench: set) -> list:
    """The class members of trees that no code outside their own
    definition loads, in rounds until no more drop out: each round
    ignores the loads inside members already flagged.  Each name in a
    class's __slots__ is a member, so a slot only ever stored is flagged.
    A name in bench counts as used."""
    classes = {node.name: node for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)}
    loads = [x for tree in trees for x in _attribute_loads(tree, classes)]
    members = []
    for cname, cls in classes.items():
        for node in cls.body:
            targets = getattr(node, "targets", [getattr(node, "target", node)])
            own = {id(sub) for sub in ast.walk(node)}
            names = [getattr(t, "id", getattr(t, "name", None))
                     for t in targets]
            if names == ["__slots__"]:
                names = [elt.value for elt in node.value.elts]
            members += [
                (f"{cname}.{name}", name, cname, own)
                for name in names
                if name and not name.startswith("__") and name not in bench
            ]
    unused: list = []
    while True:
        dead = set().union(*(own for qual, _, _, own in members
                             if qual in unused))
        flagged = [
            qual for qual, name, cname, own in members
            if not any(attr == name and i not in own and i not in dead
                       and owner in (None, cname) for attr, i, owner in loads)
        ]
        if len(flagged) == len(unused):
            return flagged
        unused = flagged


def test_every_class_member_is_used_outside_its_own_body():
    # a method, property or class attribute counts as used where library
    # code outside its own definition and outside unused members loads its
    # name off an instance or off its class, or where proofbench/ loads it
    src = Path(conecert.__file__).resolve().parent
    trees = [ast.parse(p.read_text()) for p in src.glob("*.py")]
    bench = {name for p in (ROOT / "proofbench").glob("*.py")
             for name, _, owner in _attribute_loads(ast.parse(p.read_text()), ())
             if owner != ""}
    unused = _unused_members(trees, bench)
    assert not unused, unused


def test_member_guard_flags_a_member_only_dead_members_read():
    # dead is loaded nowhere, helper only inside dead: both drop out
    tree = ast.parse(
        "class A:\n"
        "    def live(self):\n        return self.used()\n"
        "    def used(self):\n        return 1\n"
        "    def dead(self):\n        return self.helper()\n"
        "    def helper(self):\n        return 2\n"
        "A().live()\n"
    )
    assert _unused_members([tree], set()) == ["A.dead", "A.helper"]


def test_member_guard_flags_a_slot_no_code_loads():
    # both slots are stored in __init__, only kept is loaded after
    tree = ast.parse(
        "class A:\n"
        "    __slots__ = ('kept', 'stored')\n"
        "    def __init__(self):\n"
        "        self.kept = 1\n        self.stored = 2\n"
        "    def read(self):\n        return self.kept\n"
        "A().read()\n"
    )
    assert _unused_members([tree], set()) == ["A.stored"]


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


def test_no_library_module_imports_numpy():
    # every certified number is formed in Interval objects or on float
    # pairs, so the library has no numpy import and no numpy dependency;
    # numpy stays a test extra, for the float oracles
    src = Path(conecert.__file__).resolve().parent
    importers = {
        p.stem for p in src.glob("*.py")
        if any(m.split(".")[0] == "numpy" for m in _imports(p))
    }
    assert not importers, importers
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert not [d for d in project.get("dependencies", [])
                if d.startswith("numpy")]
    assert any(d.startswith("numpy") for d in
               project["optional-dependencies"]["test"])


def test_importing_the_prover_loads_no_numpy():
    # the whole proof imports with numpy absent from sys.modules, in a
    # fresh interpreter, since this one has loaded it for the oracles
    code = ("import sys, conecert.prover, conecert.cli; "
            "assert 'numpy' not in sys.modules, 'numpy loaded'")
    env = {**os.environ, "PYTHONPATH": str(Path(conecert.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# the functions allowed a ** or libm call: the step-size choice, exp
# padded 2 ulp for libm's error, and exact Fraction powers
_LIBM_ALLOWED = {"flow._step_factor", "interval.exp",
                 "interval.decimal_to_interval"}
_LIBM = {"exp", "exp2", "expm1", "log", "log1p", "log2", "log10", "pow",
         "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh",
         "tanh", "asinh", "acosh", "atanh", "erf", "erfc", "gamma", "lgamma",
         "cbrt", "hypot", "dist"}
_BLAS = {"linalg", "dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def _literal(node) -> bool:
    """A numeric literal, signed or not."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _kind(node, numpy: set) -> str | None:
    """"BLAS" for a BLAS routine off numpy, an import of one, or the @
    operator; "**" unless between two numeric literals (exact); "libm"
    for a transcendental math function or pow; "sum" for builtin sum."""
    op, func = getattr(node, "op", None), getattr(node, "func", None)
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return "BLAS" if any(a.name.split(".")[-1] in _BLAS
                             for a in node.names) else None
    if isinstance(op, ast.MatMult) or isinstance(node, ast.Attribute) and (
        node.attr in _BLAS and getattr(node.value, "id", None) in numpy
    ):
        return "BLAS"
    if isinstance(op, ast.Pow):
        return None if isinstance(node, ast.BinOp) and _literal(
            node.left) and _literal(node.right) else "**"
    if isinstance(func, ast.Attribute):
        math_call = getattr(func.value, "id", None) == "math"
        return "libm" if math_call and func.attr in _LIBM else None
    name = getattr(func, "id", None)
    return {"pow": "libm", "sum": "sum"}.get(name)


def _non_ieee_calls(mod: str, tree: ast.Module) -> list:
    """What in a library module ties a certified number to more than
    IEEE-754 basic operations and sqrt: BLAS anywhere, ** and libm
    outside _LIBM_ALLOWED, and builtin sum, whose float result changed in
    CPython 3.12, in flow, rtbp and interval."""
    numpy = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for a in node.names
             if a.name.split(".")[0] == "numpy"}
    out = []
    for top in tree.body:
        owner = f"{mod}.{getattr(top, 'name', '')}"
        for node in ast.walk(top):
            kind = _kind(node, numpy)
            if kind == "BLAS" or kind in ("**", "libm") and (
                owner not in _LIBM_ALLOWED
            ) or kind == "sum" and mod in ("flow", "rtbp", "interval"):
                out.append(f"{owner}: {kind}, line {node.lineno}")
    return out


def test_certified_path_has_no_blas_and_only_listed_libm():
    src = Path(conecert.__file__).resolve().parent
    found = [v for p in sorted(src.glob("*.py"))
             for v in _non_ieee_calls(p.stem, ast.parse(p.read_text()))]
    assert not found, found


def test_ieee_guard_flags_blas_pow_libm_and_sum():
    tree = ast.parse(
        "import numpy as np\nimport math\n"
        "def basis(a):\n    return np.linalg.qr(a)[0]\n"
        "def gram(a, b):\n    return a @ b\n"
        "def norm(v):\n    return sum(x * x for x in v) ** 0.5\n"
        "def ball(x):\n    return math.exp(x) - 1.0\n"
        "U = 2.0**-53\n"
    )
    assert [v.split(",")[0] for v in _non_ieee_calls("flow", tree)] == [
        "flow.basis: BLAS", "flow.gram: BLAS", "flow.norm: **",
        "flow.norm: sum", "flow.ball: libm",
    ]
    assert _non_ieee_calls("prover", ast.parse("N = sum([1, 2])\n")) == []


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
