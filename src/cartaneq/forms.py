"""Forms of degree at most two over a coordinate chart, as coefficient rows.

A 1-form is the row of its coefficients against a coframe, a 2-form the row
against the wedge products theta^j ^ theta^k on the pairs j < k of
``pairs(n)`` only, so antisymmetry is structural.  A change of coframe
theta = S phi acts on 1-form rows by S and on 2-form rows by the exterior
square of S.
"""

from __future__ import annotations

from typing import Sequence

from .exprs import Context, Expr, ExprError, Scalar, Symbol
from .linalg import SingularMatrixError, mat_det, mat_inverse, mat_mul

__all__ = [
    "FormError",
    "Chart",
    "Coframe",
    "pairs",
    "exterior_square",
    "exterior_derivative",
    "rewrite_by",
    "rewrite_in_coframe",
    "structure_functions",
]


class FormError(ExprError):
    pass


class Chart:
    """An ordered coordinate system on an open subset of R^n."""

    def __init__(self, ctx: Context, coords: Sequence[Symbol]):
        coords = tuple(coords)
        if len(set(coords)) != len(coords) or not coords:
            raise FormError("chart coordinates must be distinct and nonempty")
        self.ctx = ctx
        self.coords = coords

    @property
    def n(self) -> int:
        return len(self.coords)


class Coframe:
    """n one-forms theta = T . dx given by a generically invertible matrix T."""

    def __init__(self, chart: Chart, transition: Sequence[Sequence[Scalar]]):
        self.chart = chart
        n = chart.n
        if len(transition) != n or any(len(r) != n for r in transition):
            raise FormError("coframe arity mismatch with chart dimension")
        self.transition = [[chart.ctx.expr(e) for e in row] for row in transition]
        self._inverse = None
        self._det = None

    def det(self) -> Expr:
        if self._det is None:
            self._det = mat_det(self.transition)
        return self._det

    def inverse(self):
        if self._inverse is None:
            try:
                self._inverse = mat_inverse(self.transition)
            except SingularMatrixError:
                raise SingularMatrixError("coframe transition matrix is singular") from None
        return self._inverse


def pairs(n: int) -> list[tuple[int, int]]:
    """The index pairs j < k of degree-2 coefficients, in row-major order."""
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


def exterior_square(S: Sequence[Sequence[Expr]]) -> list[list[Expr]]:
    """The second compound matrix of a square S: its 2 x 2 minors, rows and
    columns indexed by ``pairs(n)``.  When theta = S phi,
    theta^j ^ theta^k = sum_{l<m} minor[(j,k)][(l,m)] phi^l ^ phi^m."""
    P = pairs(len(S))
    return [[S[j][l] * S[k][m] - S[j][m] * S[k][l] for (l, m) in P] for (j, k) in P]


def rewrite_by(rows: Sequence[Sequence[Expr]], S: Sequence[Sequence[Expr]], degree: int) -> list[list[Expr]]:
    """Coefficient rows of ``degree``-forms against a coframe theta, rewritten
    against phi, given S with theta = S . phi: the rows times S in degree 1,
    times the exterior square of S in degree 2."""
    return mat_mul(rows, S if degree == 1 else exterior_square(S))


def rewrite_in_coframe(rows: Sequence[Sequence[Expr]], degree: int, source: Coframe, target: Coframe) -> list[list[Expr]]:
    """Coefficient rows of ``degree``-forms against ``source``, rewritten
    against ``target`` of the same chart: theta_source = S . theta_target
    with S = T_source T_target^{-1}."""
    if source.chart.coords != target.chart.coords:
        raise FormError("coframes live on different charts")
    return rewrite_by(rows, mat_mul(source.transition, target.inverse()), degree)


def exterior_derivative(rows: Sequence[Sequence[Expr]], c: Coframe) -> list[list[Expr]]:
    """d of the 1-forms sum_j f_j dx^j, given as rows f against the coordinate
    differentials, as degree-2 rows against the coframe ``c``: the rows
    d_i f_j - d_j f_i on the coordinate pairs i < j, rewritten by
    dx = T^{-1} theta."""
    coords = c.chart.coords
    d = [[f[j].diff(coords[i]) - f[i].diff(coords[j]) for i, j in pairs(len(coords))] for f in rows]
    return rewrite_by(d, c.inverse(), 2)


def structure_functions(c: Coframe) -> dict[tuple[int, int, int], Expr]:
    """Coefficients B[i, j, k] with d theta^i = sum_{j<k} B[i,j,k] theta^j ^ theta^k:
    the exterior derivative of the rows of T, since theta = T dx."""
    B = exterior_derivative(c.transition, c)
    P = pairs(c.chart.n)
    return {(i, j, k): B[i][q] for i in range(c.chart.n) for q, (j, k) in enumerate(P)}
