"""The polynomial format of the kernel stays inside ``exprs.py``, and every
definition in the package has a user.

Other modules use the public ``Expr`` views (``numerator``, ``coefficients``,
``linear_in``, ...) and never import a private kernel name or touch the raw
numerator and denominator dicts.  Every ``def`` and ``class`` in the package
is referenced from the package, the tests, the demos or the benchmark (whose
tracer names the functions it wraps in strings); an ``__all__`` entry alone
does not count.  Every imported name is loaded somewhere in its module, and
every function the benchmark's tracer names still exists.  Only the
functions listed in ``FULL_ELIMINATION`` call the full Gauss-Jordan
``linalg.eliminate``.
"""

import ast
import importlib
import sys
from pathlib import Path

import tracer

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "cartaneq"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "exprs.py")


def _violations(path: Path) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "exprs":
            out += [f"line {node.lineno}: imports {a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr in ("_num", "_den"):
            out.append(f"line {node.lineno}: touches .{node.attr}")
    return out


def test_no_private_kernel_access():
    assert len(MODULES) >= 10
    assert {p.name: v for p in MODULES if (v := _violations(p))} == {}


def test_guard_catches_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .exprs import Expr, _ONE\nfrom cartaneq.exprs import _plead\nn = e._num\nd = e._den\n")
    assert len(_violations(bad)) == 4


# The only functions that may run the full Gauss-Jordan ``eliminate``: they
# read the reduced pivot rows.  A caller that reads only ranks, pivot values
# or non-pivot rows takes the forward pass ``echelon``.
FULL_ELIMINATION = {
    ("linalg.py", "mat_inverse"): "reads the inverse off the reduced [M | I] pivot rows",
    ("linalg.py", "row_reduce"): "returns the reduced rows to its caller",
    ("engine.py", "solve_absorption"): "reads the principal unknowns off the reduced pivot rows",
}


def _eliminate_callers(path: Path) -> set[tuple[str, str]]:
    """(file, outermost function) for every call of a name ``eliminate``."""
    out = set()
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "eliminate":
                    out.add((path.name, getattr(top, "name", "<module>")))
    return out


def test_full_elimination_only_where_the_reduced_rows_are_read():
    callers = set().union(*(_eliminate_callers(p) for p in sorted(PACKAGE.glob("*.py"))))
    assert callers == set(FULL_ELIMINATION)


def test_full_elimination_guard(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from .linalg import eliminate\nimport linalg\n"
        "def rank(rows):\n    return len(eliminate(rows, 2)[1])\n"
        "def det(m):\n    def inner():\n        return linalg.eliminate(m, 2)\n    return inner()\n"
        "x = eliminate([], 0)\ndef fine(rows):\n    return echelon(rows, 2)\n"
    )
    assert _eliminate_callers(mod) == {("mod.py", "rank"), ("mod.py", "det"), ("mod.py", "<module>")}


def _unreferenced(defining: list[Path], using: list[Path]) -> list[str]:
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in using:
        tree = ast.parse(path.read_text(), str(path))
        exported = {
            id(c)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for c in ast.walk(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in exported:
                used.update(node.value.split("."))
            elif path in defining and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno} {node.name}")
    return sorted(where for name, where in defined.items() if name not in used)


def test_no_dead_definitions():
    using = [p for d in ("src", "tests", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert _unreferenced(sorted(PACKAGE.glob("*.py")), using) == []


def test_dead_definition_guard(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        '__all__ = ["dead", "Traced"]\n'
        "def dead(): pass\ndef used(): pass\nclass Traced:\n    def __init__(self): pass\n"
        "    def method(self): pass\n"
    )
    user = tmp_path / "user.py"
    user.write_text('used()\nTRACED = [("mod", "Traced.method")]\n')
    assert _unreferenced([mod], [mod, user]) == ["mod.py:2 dead"]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported: dict[str, int] = {}
    loaded: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for a in node.names:
                imported.setdefault(a.asname or a.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            loaded.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            loaded.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in loaded]


def test_no_unused_imports():
    paths = [p for d in ("src/cartaneq", "tests", "demos") for p in sorted((ROOT / d).rglob("*.py"))]
    assert [u for p in paths for u in _unused_imports(p)] == []


def test_unused_import_guard(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\nimport os.path\nimport json as j\n"
        "from x import a, b, c\n__all__ = [\"b\"]\n\ndef f():\n    from y import d\n    return a\n"
    )
    assert _unused_imports(mod) == ["mod.py:2 os", "mod.py:3 j", "mod.py:4 c", "mod.py:8 d"]


def test_tracer_names_resolve():
    # the benchmark's tracer finds every function it names, wraps it, and
    # uninstall() puts back the original in every module that binds it
    def traced():
        out = []
        for layer, _, path in tracer.TRACED:
            owner = importlib.import_module(f"cartaneq.{layer}")
            *cls, attr = path.split(".")
            out.append(vars(getattr(owner, cls[0]) if cls else owner)[attr])
        return out

    def bindings():
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("cartaneq")]
        return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}

    originals, bound = traced(), bindings()
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = traced()
    finally:
        t.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(a is b for a, b in zip(traced(), originals))
    assert all(bindings()[key] is value for key, value in bound.items())
