"""The polynomial format of the kernel stays inside ``exprs.py``.

Other modules use the public ``Expr`` views (``numerator``, ``coefficients``,
``linear_in``, ...) and never import a private kernel name or touch the raw
numerator and denominator dicts.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "cartaneq"
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
