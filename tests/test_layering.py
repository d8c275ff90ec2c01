"""The polynomial format of the kernel stays inside ``exprs.py``, every
definition in the package has a user, and every function in the package
serves a command or is listed with the reason it stays.

Other modules use the public ``Expr`` views (``numerator``, ``coefficients``,
``linear_in``, ...) and never import a private kernel name, touch the raw
numerator and denominator dicts or read an atom's exponent field.  Every
``def`` and ``class`` in the package is referenced from the package, the
tests, the demos or the benchmark (whose tracer names the functions it wraps
in strings); an ``__all__`` entry alone does not count.  Every imported name is loaded somewhere in its module, and
every function the benchmark's tracer names still exists.  Only the
functions listed in ``FULL_ELIMINATION`` call the full Gauss-Jordan
``linalg.eliminate``.  Every name in a module's ``__all__`` is defined in that
module.  Every ``def`` is entered by ``run --json``, ``characters``,
``crosscheck`` or ``check`` on the corpus and the benchmark's random draws,
or is in ``NEVER_ENTERED`` with its reason.  Every parameter of a ``def`` or
``lambda`` in the package is read in its body.  The functions that take an
``rng`` are exactly those in ``TAKES_RNG``.  Only ``jets._adjoin_conditions``
calls ``JetSystem.adjoin``.  Only the defs in ``MAKE_FRACTIONS`` make a
``Fraction`` in ``exprs.py``.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import cartaneq.cli
import tracer
from genutil import entered_code

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "cartaneq"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "exprs.py")


def _violations(path: Path) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "exprs":
            out += [f"line {node.lineno}: imports {a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr in ("_num", "_den", "_shift"):
            out.append(f"line {node.lineno}: touches .{node.attr}")
    return out


def test_no_private_kernel_access():
    assert len(MODULES) >= 10
    assert {p.name: v for p in MODULES if (v := _violations(p))} == {}


def test_guard_catches_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .exprs import Expr, _ONE\nfrom cartaneq.exprs import _pmul\nn = e._num\nd = e._den\n"
                   "m = 1 << atom._shift\n")
    assert len(_violations(bad)) == 5


# The only functions that may run the full Gauss-Jordan ``eliminate``: they
# read the reduced pivot rows.  A caller that reads only ranks, pivot values
# or non-pivot rows takes the forward pass ``echelon``.
FULL_ELIMINATION = {
    ("linalg.py", "mat_inverse"): "reads the inverse off the reduced [M | I] pivot rows",
    ("linalg.py", "row_reduce"): "returns the reduced rows to its one caller, the reference in tests/test_jets.py",
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


def _undefined_exports(path: Path) -> list[str]:
    """Names in the module's ``__all__`` that the module does not bind."""
    tree = ast.parse(path.read_text(), str(path))
    bound: set[str] = set()
    exported: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                exported = [c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)]
    return [f"{path.name}: {name}" for name in exported if name not in bound]


def test_all_names_are_defined():
    assert [u for p in sorted(PACKAGE.glob("*.py")) for u in _undefined_exports(p)] == []


def test_undefined_export_guard(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        '__all__ = ["f", "C", "X", "Y", "sub", "gone"]\nfrom .sub import sub\n'
        "def f(): pass\nclass C: pass\nX = 1\nY: int = 2\n"
    )
    assert _undefined_exports(mod) == ["mod.py: gone"]


def _unread_parameters(path: Path) -> list[str]:
    """Every parameter of a def or lambda, other than a receiver ``self`` or
    ``cls``, that its body never reads."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "lambda")
            out += [f"{path.name}:{node.lineno} {name}({p})" for p in params if p not in read | {"self", "cls"}]
    return out


def test_every_parameter_is_read():
    assert [u for p in sorted(PACKAGE.glob("*.py")) for u in _unread_parameters(p)] == []


def test_unread_parameter_guard(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def f(a, b, *args, c, d=1, **kw):\n    def g(e):\n        return b + c\n    return g, kw\n"
        "class C:\n    def m(self, x):\n        y = 1\n        return y\n"
        "h = lambda s, t: s\n"
    )
    assert sorted(_unread_parameters(mod)) == [
        "mod.py:1 f(a)", "mod.py:1 f(args)", "mod.py:1 f(d)", "mod.py:2 g(e)", "mod.py:6 m(x)", "mod.py:9 lambda(t)",
    ]


# Every def in the package that no command enters, with the reason it stays
# (ROADMAP item 5).  A function that leaves this list is entered by a command
# on the inputs of the ``command_sweep`` fixture; a listed function that a
# command enters fails the guard, so the list stays exact.
GCD_FALLBACK = (
    "subresultant PRS behind GCDHEU and its gcd-triviality probe, the exact path "
    "when _zz_heu_gcd gives up (six failed evaluation points); tests force it; the "
    "benchmark's tracer binds _pgcd and _gcd_probe_trivial"
)
FORM_API = (
    "the reference route that inverts the target coframe, which tests/test_engine.py "
    "checks the torsion sources against and demos/demo_structure_equations.py shows; "
    "the benchmark's tracer binds it; revisit with the benchmark change that unbinds "
    "it (ROADMAP item 5)"
)
COMPLETION = (
    "whole-run Cartan-Kuranishi completion, which the demos call; ROADMAP item 1 "
    "makes it reachable from crosscheck"
)
OPERATORS = "protocol of the public Expr type (a number on the left of - or /, hashing) that no command uses"
REPR = "debugging repr; no output prints it"
NEVER_ENTERED = {
    **dict.fromkeys(
        (
            "exprs._zz_content", "exprs._zz_prem", "exprs._pgcd",
            "exprs._dense_mod", "exprs._gf_gcd_degree", "exprs._gcd_probe_trivial",
        ),
        GCD_FALLBACK,
    ),
    "forms.rewrite_in_coframe": FORM_API,
    "linalg.row_reduce": "the benchmark's tracer binds it; its one caller is the reference in tests/test_jets.py",
    **dict.fromkeys(
        (
            "jets.complete_to_involution", "jets.ProlongedSystem.new_equations",
            "jets.ProlongedSystem.as_jet_system", "jets.JetSystem.pretty",
        ),
        COMPLETION,
    ),
    **dict.fromkeys(("exprs.Expr.__rsub__", "exprs.Expr.__rtruediv__", "exprs.Expr.__hash__"), OPERATORS),
    **dict.fromkeys(
        ("exprs.Symbol.__repr__", "exprs.OpaqueFunc.__repr__", "exprs.OpaqueAtom.__repr__", "exprs.Expr.__repr__"),
        REPR,
    ),
}


def test_never_entered_names_the_tracer_binds():
    # ROADMAP item 5 deletes or moves these once a change to the benchmark
    # unbinds them; this fails as soon as one is unbound, so that the
    # deletion goes with that change
    bound = {f"{layer}.{path}" for layer, _, path in tracer.TRACED} & set(NEVER_ENTERED)
    assert bound == {
        "exprs._pgcd", "exprs._gcd_probe_trivial", "forms.rewrite_in_coframe", "linalg.row_reduce",
    }


def _defs(path: Path) -> dict[int, str]:
    """First line -> qualified name (``Class.method``, ``outer.inner``) of
    every def in the module.  The first line is that of the first decorator,
    as in the code object's ``co_firstlineno``."""
    out = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    out[min([d.lineno for d in child.decorator_list] + [child.lineno])] = prefix + child.name
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(), str(path)), "")
    return out


def _cold_code(paths: list[Path], entered: set, allowed: dict[str, str]) -> list[str]:
    """Compare the defs of ``paths`` (as ``module.qualname``) whose code is
    not in ``entered`` with ``allowed``: an unlisted def never entered and a
    listed def that was entered are both faults."""
    lines = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in entered}
    cold = {
        f"{path.stem}.{name}"
        for path in paths
        for line, name in _defs(path).items()
        if (path.resolve(), line) not in lines
    }
    return sorted(
        [f"never entered and not listed: {name}" for name in cold - set(allowed)]
        + [f"listed but entered: {name}" for name in set(allowed) - cold]
    )


def test_every_function_serves_a_command_or_is_listed(command_sweep):
    # the session's one CLI sweep (conftest.py): run --json, characters,
    # crosscheck and check on the corpus, draws 0-49 of the benchmark's
    # generator and genutil's two extra inputs, under a trace hook
    assert all(isinstance(reason, str) and reason for reason in NEVER_ENTERED.values())
    package = Path(cartaneq.cli.__file__).parent
    assert _cold_code(sorted(package.glob("*.py")), command_sweep[0], NEVER_ENTERED) == []


def test_cold_code_guard(tmp_path):
    mod = tmp_path / "planted.py"
    mod.write_text(
        "def hot():\n    def inner():\n        return 1\n    return inner() + C().m()\n"
        "def cold():\n    pass\n"
        "def listed():\n    pass\n"
        "def stale():\n    pass\n"
        "class C:\n    @property\n    def p(self):\n        return 0\n"
        "    def m(self):\n        return self.p\n"
    )
    spec = importlib.util.spec_from_file_location("planted", mod)
    planted = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(planted)

    def run():
        planted.hot()
        planted.stale()

    allowed = {"planted.listed": "kept", "planted.stale": "kept"}
    assert _cold_code([mod], entered_code(run)[0], allowed) == [
        "listed but entered: planted.stale",
        "never entered and not listed: planted.cold",
    ]


# Every def in the package with an ``rng`` parameter: the reach of the seeded
# sampling that ROADMAP item 13 replaces by one deterministic decision.  A def
# that gains an ``rng`` and a listed def that loses it both fail the guard, so
# the list shrinks as item 13 proceeds.
TAKES_RNG = {
    "characters.tableau_points", "characters._direction_grid", "characters.reduced_characters",
    "engine._parameter_rank", "engine.classify_torsion", "engine._choose_targets", "engine.cartan_characters",
    "engine.loop_stages",
    "jets.jet_characters", "jets._monitor_regularity", "jets.complete_to_involution", "jets.crosscheck_characters",
    "linalg.generic_points",
}


def _rng_takers(paths: list[Path]) -> set[str]:
    """``module.qualname`` of every def of ``paths`` with a parameter ``rng``."""
    out = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                if "rng" in {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}:
                    out.add(prefix + child.name)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    for path in paths:
        walk(ast.parse(path.read_text(), str(path)), f"{path.stem}.")
    return out


def test_rng_reaches_only_the_listed_functions():
    assert _rng_takers(sorted(PACKAGE.glob("*.py"))) == TAKES_RNG


def test_rng_guard(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def draw(rng):\n    return rng\n"
        "class C:\n    @staticmethod\n    def pick(items, *, rng=None):\n        return rng\n"
        "def exact(points):\n    def inner(rng):\n        return rng\n    return inner\n"
        "def fine(seed):\n    return seed\n"
    )
    assert _rng_takers([mod]) == {"mod.draw", "mod.C.pick", "mod.exact.inner"}


def _callers(paths: list[Path], names: set[str]) -> set[str]:
    """``module.qualname`` of the def around every call of a function or
    method named in ``names`` in ``paths`` (``module.<module>`` at the top
    level)."""
    out = set()

    def walk(node, where, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and {getattr(child.func, "attr", None), getattr(child.func, "id", None)} & names:
                out.add(where)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, prefix + child.name, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, where, f"{prefix}{child.name}.")
            else:
                walk(child, where, prefix)

    for path in paths:
        walk(ast.parse(path.read_text(), str(path)), f"{path.stem}.<module>", f"{path.stem}.")
    return out


def test_one_routine_adjoins_equations():
    # the encoder, the projection and the completion adjoin an equation to a
    # JetSystem through _adjoin_conditions, which reduces, checks and solves it
    assert _callers(sorted(PACKAGE.glob("*.py")), {"adjoin"}) == {"jets._adjoin_conditions"}


def test_adjoin_guard(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def _adjoin_conditions(R, hit):\n    return R.adjoin(*hit)\n"
        "class S:\n    def grow(self, key, F):\n        def inner():\n            return self.adjoin(key, F)\n"
        "        return inner()\n"
        "R = R.adjoin(key, F)\ndef fine(R):\n    return R.reduce(R)\n"
    )
    assert _callers([mod], {"adjoin"}) == {"mod._adjoin_conditions", "mod.S.grow.inner", "mod.<module>"}


# The defs of exprs.py that make a Fraction: the values a caller asks for and
# the monic form that printing and struct keys write.  A stored coefficient is
# an int, and a stray rational one would break structural equality without an
# error.  ``Context.expr`` takes a given Fraction apart into two ints.
MAKE_FRACTIONS = {"exprs.Expr._monic", "exprs.Expr.as_fraction", "exprs.Expr.eval_at"}


def test_fractions_are_made_only_at_the_value_boundary():
    assert _callers([PACKAGE / "exprs.py"], {"Fraction"}) == MAKE_FRACTIONS


def test_fraction_guard(tmp_path):
    mod = tmp_path / "exprs.py"
    mod.write_text(
        "from fractions import Fraction\nimport fractions\n"
        "class Expr:\n    def as_fraction(self):\n        return Fraction(1, 2)\n"
        "    def derive(self):\n        def image(a):\n            return Fraction(a, 2)\n        return image\n"
        "def _qdiv(a, b):\n    return fractions.Fraction(a, b)\n"
        "def fine(q):\n    return isinstance(q, Fraction)\n"
    )
    assert _callers([mod], {"Fraction"}) == {"exprs.Expr.as_fraction", "exprs.Expr.derive.image", "exprs._qdiv"}
