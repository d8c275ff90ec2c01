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

Validation covers section arity, exact identity values, generic coframe
invertibility and sampled group closure.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from .engine import GStructureProblem, Policy
from .exprs import Context, ExprError
from .forms import Chart, Coframe
from .groups import ParamGroup, check_closure, slot_symbols

__all__ = ["ProblemFileError", "load_problem", "parse_problem_text"]


class ProblemFileError(ExprError):
    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


def _split_names(value: str) -> list[str]:
    return [t.strip() for t in value.split(",") if t.strip()]


def parse_problem_text(text: str, title_default: str = "") -> tuple[GStructureProblem, Policy]:
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ProblemFileError("content before the first [section]", lineno)
        sections[current].append((lineno, line))

    for required in ("coordinates", "coframe", "group"):
        if required not in sections:
            raise ProblemFileError(f"missing required section [{required}]")

    ctx = Context()
    title = title_default
    for lineno, line in sections.get("metadata", []):
        key, _, value = line.partition("=")
        if key.strip() == "title":
            title = value.strip()

    coords = None
    for lineno, line in sections["coordinates"]:
        key, _, value = line.partition("=")
        if key.strip() == "names":
            coords = ctx.declare_symbols(_split_names(value), "coordinate")
    if not coords:
        raise ProblemFileError("section [coordinates] must declare 'names = ...'")
    n = len(coords)
    chart = Chart(ctx, coords)

    for lineno, line in sections.get("opaque", []):
        key, eq, value = line.partition("=")
        if not eq:
            raise ProblemFileError("opaque declaration needs 'name = slot, slot, ...'", lineno)
        ctx.declare_opaque(key.strip(), _split_names(value))

    def parse_entry(lineno: int, value: str):
        try:
            return ctx.parse(value.strip())
        except ExprError as exc:
            raise ProblemFileError(f"bad expression: {exc}", lineno) from None

    A = [[None] * n for _ in range(n)]
    for lineno, line in sections["coframe"]:
        key, eq, value = line.partition("=")
        parts = key.split()
        if not eq or len(parts) != 3 or parts[0] != "A":
            raise ProblemFileError("coframe lines look like 'A i j = expr'", lineno)
        try:
            i, j = int(parts[1]) - 1, int(parts[2]) - 1
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError
        except ValueError:
            raise ProblemFileError(f"coframe index out of range for n = {n}", lineno) from None
        A[i][j] = parse_entry(lineno, value)
    for i in range(n):
        for j in range(n):
            if A[i][j] is None:
                raise ProblemFileError(f"coframe entry A {i + 1} {j + 1} missing")
    coframe = Coframe(chart, tuple(f"e{i + 1}" for i in range(n)), A)

    params = None
    entries = [[None] * n for _ in range(n)]
    identity: dict = {}
    for lineno, line in sections["group"]:
        key, eq, value = line.partition("=")
        key = key.strip()
        if key == "params":
            params = ctx.declare_symbols(_split_names(value), "group-parameter")
            continue
        parts = key.split()
        if parts and parts[0] == "M" and len(parts) == 3:
            try:
                i, j = int(parts[1]) - 1, int(parts[2]) - 1
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError
            except ValueError:
                raise ProblemFileError(f"group index out of range for n = {n}", lineno) from None
            entries[i][j] = parse_entry(lineno, value)
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
    for i in range(n):
        for j in range(n):
            if entries[i][j] is None:
                raise ProblemFileError(f"group entry M {i + 1} {j + 1} missing")

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

    group = ParamGroup(ctx, n, tuple(params), entries, identity, membership)
    problem = GStructureProblem(ctx, chart, coframe, group, title=title)
    return problem, policy


def load_problem(path: str | Path) -> tuple[GStructureProblem, Policy]:
    """Parse and fully validate a problem file."""
    path = Path(path)
    problem, policy = parse_problem_text(path.read_text(), title_default=path.stem)
    validate_problem(problem, policy)
    return problem, policy


def validate_problem(problem: GStructureProblem, policy: Policy):
    if problem.coframe.det().is_zero():
        raise ProblemFileError("validation failed: coframe determinant is identically zero")
    try:
        problem.group.validate()
    except ExprError as exc:
        raise ProblemFileError(f"validation failed: {exc}") from None
    if problem.group.r > 0:
        ok, notes = check_closure(problem.group, random.Random(policy.seed))
        if not ok:
            raise ProblemFileError("validation failed: closure sampling: " + "; ".join(notes))
