"""Exact linear algebra over the rational expression field.

Matrices are plain lists of lists of Expr (or of Fraction, for values at
the points :func:`generic_points` samples and for a group's rows at its
identity).  Every elimination in the package
goes through one forward pass, :func:`echelon`, with two pivot rules: the
first unused row with a nonzero entry, or the sparsest such row.  Callers
take only the work they read:

* the rank, the determinant, the jet prolongation (non-pivot rows) and the
  incremental character stacks (:func:`extend_echelon`) stop at the echelon
  form;
* the inverse and the absorption solve, which read the reduced pivot rows,
  take :func:`eliminate`, the echelon form finished to Gauss-Jordan form by
  :func:`back_substitute`; :func:`row_reduce` returns it to a test reference.

Zero-tests are decidable, so ranks are generic ranks over the function
field; points where a pivot happens to vanish are chart restrictions, not
errors.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

from .exprs import Context, Expr, ExprError, PoleError, Symbol

__all__ = [
    "SingularMatrixError",
    "echelon",
    "back_substitute",
    "eliminate",
    "extend_echelon",
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
# (pivot row, pivot column) pairs, each row zero in the earlier pairs' columns
EchelonBasis = list[tuple[list[Entry], int]]


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


def _clear(rows: list[list[Entry]], targets: Sequence[int], prow: Sequence[Entry], col: int) -> None:
    """Subtract (f / pv) * prow from each target row, f its entry in ``col``
    and pv that of the pivot row, which stays as it is."""
    pv = prow[col]
    unit = pv == 1
    for r in targets:
        f = rows[r][col]
        if f:
            m = f if unit else f / pv
            rows[r] = [x - m * y if y else x for x, y in zip(rows[r], prow)]


def echelon(
    rows: Sequence[Sequence[Entry]], npivot_cols: int, *, sparsest: bool = False
) -> tuple[list[list[Entry]], list[tuple[int, int]]]:
    """Forward elimination over the first ``npivot_cols`` columns.

    Entries are Expr or Fraction; the input is copied.  Columns are taken
    left to right.  The pivot of a column is the first unused row with a
    nonzero entry there (rows are never swapped), or with ``sparsest`` the
    unused row with the fewest terms in the pivot-column block, ties going to
    the lower row.  Each pivot clears its column in the unused rows only and
    is itself left unscaled, as it was when chosen, so its value is
    ``rows[r][c]``; trailing columns (tracked transforms, right-hand sides)
    ride along.  Returns the rows and the (row, col) pivots in column order.
    The pivots, their values and the non-pivot rows are those of
    :func:`eliminate`, which is this followed by :func:`back_substitute`.
    """
    rows = [list(r) for r in rows]
    unused = list(range(len(rows)))
    pivots: list[tuple[int, int]] = []
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
        _clear(rows, unused, rows[piv], col)
    return rows, pivots


def back_substitute(rows: Sequence[Sequence[Entry]], pivots: Sequence[tuple[int, int]]) -> list[list[Entry]]:
    """Finish :func:`echelon` rows to Gauss-Jordan form; the input is copied.

    In pivot order, each pivot row is scaled by its value ``rows[r][c]`` and
    clears its column in the pivot rows before it, the updates a Gauss-Jordan
    pass makes to rows that are already pivots, in the same order.
    """
    rows = list(rows)
    done: list[int] = []
    for piv, col in pivots:
        pv = rows[piv][col]
        if pv != 1:
            rows[piv] = [x / pv if x else x for x in rows[piv]]
        prow = rows[piv]
        for r in done:
            f = rows[r][col]
            if f:
                rows[r] = [x - f * y if y else x for x, y in zip(rows[r], prow)]
        done.append(piv)
    return rows


def eliminate(
    rows: Sequence[Sequence[Entry]], npivot_cols: int, *, sparsest: bool = False
) -> tuple[list[list[Entry]], list[tuple[int, int]], list[Entry]]:
    """Gauss-Jordan elimination over the first ``npivot_cols`` columns.

    :func:`echelon` with the same pivot rules, then :func:`back_substitute`:
    pivot rows are scaled to 1 and their columns cleared everywhere else.
    Returns the reduced rows, the (row, col) pivots in column order and each
    pivot's value before scaling.
    """
    rows, pivots = echelon(rows, npivot_cols, sparsest=sparsest)
    values = [rows[r][c] for r, c in pivots]
    return back_substitute(rows, pivots), pivots, values


def extend_echelon(basis: EchelonBasis, rows: Sequence[Sequence[Entry]]) -> EchelonBasis:
    """Grow an echelon basis by ``rows``.

    ``basis`` is a list of (pivot row, pivot column) pairs, each row zero in
    the pivot columns of the pairs before it: ``[]``, or what this returned.
    The new rows are reduced against it and their own echelon pivot rows are
    appended, so the length of the result is the rank of every row given so
    far.  The input basis is not changed.
    """
    if not rows:
        return basis
    rows = list(rows)
    every = range(len(rows))
    for prow, col in basis:
        _clear(rows, every, prow, col)
    reduced, pivots = echelon(rows, len(rows[0]))
    return basis + [(reduced[r], c) for r, c in pivots]


def mat_det(m: Matrix) -> Entry:
    """Determinant: the pivot product, signed by the pivot-row permutation."""
    n = len(m)
    rows, pivots = echelon(m, n)
    if len(pivots) < n:
        return m[0][0] * 0  # the zero of the entry type
    values = [rows[r][c] for r, c in pivots]
    det = values[0]
    for v in values[1:]:
        det = det * v
    order = [r for r, _ in pivots]
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return -det if inversions % 2 else det


def mat_inverse(m: Matrix) -> Matrix:
    """Exact inverse by reducing [M | I], of Expr or Fraction entries; raises
    when singular.  A 0 x 0 matrix is its own inverse."""
    n = len(m)
    if n == 0:
        return []
    zero = m[0][0] * 0  # the zero of the entry type
    ident = [[zero + 1 if i == j else zero for j in range(n)] for i in range(n)]
    reduced, pivots, _ = eliminate([list(row) + unit for row, unit in zip(m, ident)], n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    inverse = [None] * n
    for r, c in pivots:
        inverse[c] = reduced[r][n:]
    return inverse


def symbolic_rank(rows: Sequence[Sequence[Entry]]) -> int:
    """Generic rank over the function field (or the exact rank of rationals)."""
    if not rows:
        return 0
    return len(echelon(rows, len(rows[0]))[1])


def row_reduce(rows: Sequence[Sequence[Expr]], npivot_cols: int) -> tuple[list[list[Expr]], list[tuple[int, int]]]:
    """``eliminate`` with the first-row pivot rule, without the pivot values."""
    reduced, pivots, _ = eliminate(rows, npivot_cols)
    return reduced, pivots


def generic_points(rows: Sequence[Sequence[Expr]], rng: random.Random, *, center: Mapping[Symbol, Fraction] | None = None,
                   positive: bool = False) -> Iterator[tuple[dict, Matrix]]:
    """Seeded random rational points at which no entry of ``rows`` has a pole.

    Yields ``(point, values)``: ``point`` binds each atom of ``rows``, drawn
    in sort-key order, and ``values`` is ``rows`` evaluated there, as
    Fractions.  An atom with a value c in ``center`` is drawn as c + i/j
    (i in [-4, 4], j in [2, 5]); any other as +-i/j (i in [1, 9], j in
    [1, 3]), +i/j when ``positive``.  Draws with a pole are skipped, and the
    generator ends after 80 draws in all, so a caller that needs a point
    raises its own error when none comes.
    """
    center = center or {}
    atoms = sorted({a for row in rows for e in row for a in e.atoms()}, key=lambda a: a.sort_key)
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
            values = [[e.eval_at(point) for e in row] for row in rows]
        except PoleError:
            continue
        yield point, values
