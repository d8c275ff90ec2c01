"""Problem-file front end.

A problem file is a line-oriented sectioned text format with expressions in
the kernel grammar:

    [metadata]
    title = divergence equivalence of first-order Lagrangians

    [coordinates]
    names = x, u, p

    [opaque]              # optional: opaque function declarations
    L = x, u, p

    [coframe]             # entries of A with eta = A(x) dx
    A 1 1 = 1
    ...

    [group]
    params = a1, a2, a3, a4, a5
    M 1 1 = a1
    ...
    identity a1 = 1
    ...

    [membership]          # optional: equations in the slot symbols g11..gnn
    eq = g21

    [policy]              # optional
    max_loops = 10
    seed = 0
    target 6fa3b1c0d2e4 = -1   # per-residual override, keyed by label

An unknown section, and a key other than ``title`` in [metadata] or other
than ``names`` in [coordinates], is refused.  Validation covers section
arity, exact identity values, generic coframe invertibility and exact group
closure.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from pathlib import Path

from .engine import EngineError, GStructureProblem, Policy, target_name
from .exprs import Context, ExprError
from .forms import Chart, Coframe
from .groups import ParamGroup, check_closure, slot_names, slot_symbols

__all__ = ["ProblemFileError", "load_problem", "parse_problem_text"]

SECTIONS = ("metadata", "coordinates", "opaque", "coframe", "group", "membership", "policy")


class ProblemFileError(ExprError):
    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


def _split_names(value: str) -> list[str]:
    return [t.strip() for t in value.split(",") if t.strip()]


def _declared(names: list[str], coords: list[str], lineno: int) -> list[str]:
    """``names``, unless one is a name the run declares itself for the
    coordinates ``coords``: a leading '_', the target twin of a coordinate,
    a jet of a twin (the twin, '_' and a nonempty run of coordinate names)
    or a matrix slot g11..gnn."""
    twins = {target_name(x): x for x in coords}
    jet = re.compile(f"({'|'.join(map(re.escape, twins))})_(?:{'|'.join(map(re.escape, coords))})+")
    slots = {name for row in slot_names(len(coords)) for name in row}
    for name in names:
        if name.startswith("_"):
            raise ProblemFileError(f"name {name!r} starts with '_', reserved for the program's symbols", lineno)
        if name in twins:
            raise ProblemFileError(f"name {name!r} is the target twin of coordinate {twins[name]!r}", lineno)
        if found := jet.fullmatch(name):
            raise ProblemFileError(f"name {name!r} is a jet variable of the target twin {found[1]!r}", lineno)
        if name in slots:
            raise ProblemFileError(f"name {name!r} is a matrix-slot symbol of the group", lineno)
    return names


def _stage_names_free(declared: list[tuple[str, int]], params: list[str]):
    """Refuse a declared (name, line) that a run declares at a later stage:
    a parameter name or v1, v2, ... (the parameters of a prolonged group)
    followed by one or more '_k' stage suffixes."""
    roots = "|".join([*map(re.escape, params), r"v[1-9]\d*"])
    stage = re.compile(rf"(?:{roots})(?:_[1-9]\d*)+")
    for name, lineno in declared:
        if stage.fullmatch(name):
            raise ProblemFileError(f"name {name!r} is a stage parameter of the group", lineno)


def parse_problem_text(text: str, title_default: str = "") -> tuple[GStructureProblem, Policy]:
    sections: dict[str, list[tuple[int, str]]] = {}
    keys: dict[tuple[str, str], int] = {}  # (section, key) -> line that gave it
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in SECTIONS:
                raise ProblemFileError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ProblemFileError("content before the first [section]", lineno)
        key, eq, _ = line.partition("=")
        key = " ".join(str(int(t)) if t.isdecimal() else t for t in key.split())  # A 1 01 is A 1 1
        if eq and (current, key) != ("membership", "eq") and keys.setdefault((current, key), lineno) != lineno:
            raise ProblemFileError(f"[{current}] gives {key!r} twice, first on line {keys[current, key]}", lineno)
        sections[current].append((lineno, line))

    for required in ("coordinates", "coframe", "group"):
        if required not in sections:
            raise ProblemFileError(f"missing required section [{required}]")

    ctx = Context()
    title = title_default
    for lineno, line in sections.get("metadata", []):
        key, _, value = line.partition("=")
        if key.strip() != "title":
            raise ProblemFileError(f"unrecognized metadata line {line!r}", lineno)
        title = value.strip()

    coords = None
    coord_names: list[str] = []
    declared: list[tuple[str, int]] = []  # every name the file declares, with its line
    for lineno, line in sections["coordinates"]:
        key, _, value = line.partition("=")
        if key.strip() != "names":
            raise ProblemFileError(f"unrecognized coordinates line {line!r}", lineno)
        coord_names = _split_names(value)
        coords = ctx.declare_symbols(_declared(coord_names, coord_names, lineno), "coordinate")
        declared += [(name, lineno) for name in coord_names]
    if not coords:
        raise ProblemFileError("section [coordinates] must declare 'names = ...'")
    n = len(coords)
    chart = Chart(ctx, coords)

    for lineno, line in sections.get("opaque", []):
        key, eq, value = line.partition("=")
        if not eq:
            raise ProblemFileError("opaque declaration needs 'name = slot, slot, ...'", lineno)
        ctx.declare_opaque(_declared([key.strip()], coord_names, lineno)[0], _split_names(value))
        declared.append((key.strip(), lineno))

    def parse_entry(lineno: int, value: str):
        try:
            return ctx.parse(value.strip())
        except ExprError as exc:
            raise ProblemFileError(f"bad expression: {exc}", lineno) from None

    def index(what: str, lineno: int, parts: list[str]) -> tuple[int, int]:
        """The 0-based (i, j) of a key 'X i j'."""
        try:
            i, j = int(parts[1]) - 1, int(parts[2]) - 1
            if 0 <= i < n and 0 <= j < n:
                return i, j
        except ValueError:
            pass
        raise ProblemFileError(f"{what} index out of range for n = {n}", lineno)

    def matrix(what: str, letter: str, entries: dict) -> list[list]:
        """The n x n matrix of ``entries`` by (i, j), every one of them given."""
        for i, j in product(range(n), repeat=2):
            if (i, j) not in entries:
                raise ProblemFileError(f"{what} entry {letter} {i + 1} {j + 1} missing")
        return [[entries[i, j] for j in range(n)] for i in range(n)]

    A = {}
    for lineno, line in sections["coframe"]:
        key, eq, value = line.partition("=")
        parts = key.split()
        if not eq or len(parts) != 3 or parts[0] != "A":
            raise ProblemFileError("coframe lines look like 'A i j = expr'", lineno)
        at = index("coframe", lineno, parts)
        A[at] = parse_entry(lineno, value)
    coframe = Coframe(chart, matrix("coframe", "A", A))

    params = None
    M = {}
    identity: dict = {}
    for lineno, line in sections["group"]:
        key, eq, value = line.partition("=")
        key = key.strip()
        if key == "params":
            params = ctx.declare_symbols(_declared(_split_names(value), coord_names, lineno), "group-parameter")
            declared += [(p.name, lineno) for p in params]
            continue
        parts = key.split()
        if parts and parts[0] == "M" and len(parts) == 3:
            at = index("group", lineno, parts)
            M[at] = parse_entry(lineno, value)
            continue
        if parts and parts[0] == "identity" and len(parts) == 2:
            try:
                identity[ctx.get_symbol(parts[1])] = Fraction(value.strip())
            except (ExprError, ValueError, ZeroDivisionError) as exc:
                raise ProblemFileError(str(exc), lineno) from None
            continue
        raise ProblemFileError(f"unrecognized group line {line!r}", lineno)
    if params is None:
        raise ProblemFileError("section [group] must declare 'params = ...' (possibly empty)")
    _stage_names_free(declared, [p.name for p in params])
    entries = matrix("group", "M", M)

    membership = None
    if "membership" in sections:
        slot_symbols(ctx, n)
        membership = []
        for lineno, line in sections["membership"]:
            key, eq, value = line.partition("=")
            if key.strip() != "eq" or not eq:
                raise ProblemFileError("membership lines look like 'eq = expr'", lineno)
            membership.append(parse_entry(lineno, value))

    policy = Policy()
    for lineno, line in sections.get("policy", []):
        key, eq, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "max_loops":
                policy.max_loops = int(value)
            elif key == "seed":
                policy.seed = int(value)
            elif key.startswith("target "):
                label = key.split(None, 1)[1].strip()
                policy.target_overrides[label] = Fraction(value)
            else:
                raise ProblemFileError(f"unrecognized policy line {line!r}", lineno)
        except (ValueError, ZeroDivisionError):
            raise ProblemFileError(f"bad policy value {value!r} for {key}", lineno) from None
        except EngineError as exc:
            raise ProblemFileError(str(exc), lineno) from None

    group = ParamGroup(ctx, n, tuple(params), entries, identity, membership)
    problem = GStructureProblem(ctx, chart, coframe, group, title=title)
    return problem, policy


def load_problem(path: str | Path) -> tuple[GStructureProblem, Policy]:
    """Parse and fully validate a problem file; a file that cannot be read as
    UTF-8 text is a ProblemFileError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    problem, policy = parse_problem_text(text, title_default=path.stem)
    validate_problem(problem)
    return problem, policy


def validate_problem(problem: GStructureProblem):
    if problem.coframe.det().is_zero():
        raise ProblemFileError("validation failed: coframe determinant is identically zero")
    try:
        problem.group.validate()
        check_closure(problem.group)
    except ExprError as exc:
        raise ProblemFileError(f"validation failed: {exc}") from None
