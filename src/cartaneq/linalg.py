"""Exact linear algebra over the rational expression field.

Matrices are plain lists of lists of Expr (or of Fraction, for values at
the points :func:`generic_points` samples).  Every elimination in the package goes through one Gauss-Jordan
core, :func:`eliminate`, with two pivot rules: the first unused row with a
nonzero entry, or the sparsest such row.  Determinant, inverse, rank and
row reduction are thin views of it.  Zero-tests are decidable, so ranks are
generic ranks over the function field; points where a pivot happens to
vanish are chart restrictions, not errors.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

from .exprs import Context, Expr, ExprError, PoleError, Symbol

__all__ = [
    "SingularMatrixError",
    "eliminate",
    "identity_matrix",
    "mat_mul",
    "mat_det",
    "mat_inverse",
    "symbolic_rank",
    "row_reduce",
    "generic_points",
]

Matrix = list
Entry = Union[Expr, Fraction]


class SingularMatrixError(ExprError):
    """Determinant is identically zero."""


def identity_matrix(ctx: Context, n: int) -> Matrix:
    return [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a . b, adding only the products of two nonzero entries.

    A ``b`` without rows is read as 0 x 0, so an empty inner dimension (the
    index pairs of a chart of dimension 1) gives rows of length 0.
    """
    m = len(b[0]) if b else 0
    out = []
    for row in a:
        out_row = []
        for j in range(m):
            terms = [x * y[j] for x, y in zip(row, b) if x and y[j]]
            # row[0] * 0 is the zero of the entry type (Expr or Fraction)
            out_row.append(sum(terms[1:], terms[0]) if terms else row[0] * 0)
        out.append(out_row)
    return out


def eliminate(
    rows: Sequence[Sequence[Entry]], npivot_cols: int, *, sparsest: bool = False
) -> tuple[list[list[Entry]], list[tuple[int, int]], list[Entry]]:
    """Gauss-Jordan elimination over the first ``npivot_cols`` columns.

    Entries are Expr or Fraction; the input is copied.  Columns are taken
    left to right.  The pivot of a column is the first unused row with a
    nonzero entry there (rows are never swapped), or with ``sparsest`` the
    unused row with the fewest terms in the pivot-column block, ties going to
    the lower row.  Pivot rows are scaled to 1 and their columns cleared
    everywhere else; trailing columns (tracked transforms, right-hand sides)
    ride along.  Returns the reduced rows, the (row, col) pivots in column
    order and each pivot's value before scaling.
    """
    rows = [list(r) for r in rows]
    unused = list(range(len(rows)))
    pivots: list[tuple[int, int]] = []
    values: list[Entry] = []
    for col in range(npivot_cols):
        if not unused:
            break
        if sparsest:
            cands = [r for r in unused if rows[r][col]]
            piv = min(cands, key=lambda r: sum(e.size() for e in rows[r][:npivot_cols]), default=None)
        else:
            piv = next((r for r in unused if rows[r][col]), None)
        if piv is None:
            continue
        unused.remove(piv)
        pivots.append((piv, col))
        pv = rows[piv][col]
        values.append(pv)
        if pv != 1:
            rows[piv] = [x / pv if x else x for x in rows[piv]]
        prow = rows[piv]
        for r, row in enumerate(rows):
            f = row[col]
            if r != piv and f:
                rows[r] = [x - f * y if y else x for x, y in zip(row, prow)]
    return rows, pivots, values


def mat_det(m: Matrix) -> Entry:
    """Determinant: the pivot product, signed by the pivot-row permutation."""
    n = len(m)
    _, pivots, values = eliminate(m, n)
    if len(pivots) < n:
        return m[0][0] * 0  # the zero of the entry type
    det = values[0]
    for v in values[1:]:
        det = det * v
    order = [r for r, _ in pivots]
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return -det if inversions % 2 else det


def mat_inverse(m: Matrix) -> Matrix:
    """Exact inverse by reducing [M | I]; raises when singular as an Expr matrix."""
    n = len(m)
    ident = identity_matrix(m[0][0].ctx, n)
    reduced, pivots, _ = eliminate([list(row) + unit for row, unit in zip(m, ident)], n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular as an expression matrix")
    inverse = [None] * n
    for r, c in pivots:
        inverse[c] = reduced[r][n:]
    return inverse


def symbolic_rank(rows: Sequence[Sequence[Entry]]) -> int:
    """Generic rank over the function field (or the exact rank of rationals)."""
    if not rows:
        return 0
    return len(eliminate(rows, len(rows[0]))[1])


def row_reduce(rows: Sequence[Sequence[Expr]], npivot_cols: int) -> tuple[list[list[Expr]], list[tuple[int, int]]]:
    """``eliminate`` with the first-row pivot rule, without the pivot values."""
    reduced, pivots, _ = eliminate(rows, npivot_cols)
    return reduced, pivots


def generic_points(rows: Sequence[Sequence[Expr]], rng: random.Random, *, center: Mapping[Symbol, Fraction] | None = None,
                   positive: bool = False, keep: frozenset | set = frozenset()) -> Iterator[tuple[dict, Matrix]]:
    """Seeded random rational points at which no entry of ``rows`` has a pole.

    Yields ``(point, values)``: ``point`` binds each atom of ``rows`` not in
    ``keep``, drawn in first-seen order, and ``values`` is ``rows`` evaluated
    there, as Fractions, or as Exprs in the kept atoms.  An atom with a value c
    in ``center`` is drawn as c + i/j (i in [-4, 4], j in [2, 5]); any other
    as +-i/j (i in [1, 9], j in [1, 3]), +i/j when ``positive``.  Draws with a
    pole are skipped, and the generator ends after 80 draws in all, so a
    caller that needs a point raises its own error when none comes.
    """
    center = center or {}
    evaluate = Expr.eval_partial if keep else Expr.eval_at
    atoms = list(dict.fromkeys(a for row in rows for e in row for a in e.atoms() if a not in keep))
    for _ in range(80):
        point = {}
        for a in atoms:
            if a in center:
                point[a] = center[a] + Fraction(rng.randint(-4, 4), rng.randint(2, 5))
            elif positive:
                point[a] = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            else:
                point[a] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 3))
        try:
            values = [[evaluate(e, point) for e in row] for row in rows]
        except PoleError:
            continue
        yield point, values
