"""Exterior algebra of forms of degree at most two over a coordinate chart.

Forms carry their coefficients relative to a named coframe; degree-2
coefficients are stored on ordered index pairs j < k only, so antisymmetry is
structural.  Structure-function extraction always routes through coordinate
differentials and one matrix inverse.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .exprs import Context, Expr, ExprError, Scalar, Symbol
from .linalg import SingularMatrixError, mat_det, mat_inverse, mat_mul

__all__ = [
    "FormError",
    "Chart",
    "Coframe",
    "DiffForm",
    "VectorField",
    "coordinate_coframe",
    "wedge",
    "exterior_derivative",
    "rewrite_by",
    "rewrite_in_coframe",
    "structure_functions",
    "interior_product",
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

    def __eq__(self, other):
        return isinstance(other, Chart) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Chart({', '.join(c.name for c in self.coords)})"


class Coframe:
    """n one-forms theta = T . dx given by a generically invertible matrix T."""

    def __init__(self, chart: Chart, names: Sequence[str], transition: Sequence[Sequence[Scalar]]):
        self.chart = chart
        self.names = tuple(names)
        n = chart.n
        if len(self.names) != n or len(transition) != n or any(len(r) != n for r in transition):
            raise FormError("coframe arity mismatch with chart dimension")
        ctx = chart.ctx
        self.transition = [[ctx.expr(e) for e in row] for row in transition]
        self._inverse = None
        self._det = None

    @property
    def ctx(self) -> Context:
        return self.chart.ctx

    @property
    def n(self) -> int:
        return self.chart.n

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

    def element(self, i: int) -> "DiffForm":
        coeffs = {(j,): self.ctx.one if j == i else self.ctx.zero for j in range(self.n)}
        return DiffForm(1, self, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Coframe)
            and self.chart == other.chart
            and self.names == other.names
            and self.transition == other.transition
        )

    def __repr__(self):
        return f"Coframe({', '.join(self.names)})"


def coordinate_coframe(chart: Chart) -> Coframe:
    ctx = chart.ctx
    names = tuple(f"d{c.name}" for c in chart.coords)
    eye = [[ctx.one if i == j else ctx.zero for j in range(chart.n)] for i in range(chart.n)]
    return Coframe(chart, names, eye)


class DiffForm:
    """A differential form of degree 0, 1 or 2 with Expr coefficients."""

    def __init__(self, degree: int, coframe: Coframe, coeffs: Mapping[tuple, Scalar]):
        if degree not in (0, 1, 2):
            raise FormError(f"unsupported degree {degree}")
        self.degree = degree
        self.coframe = coframe
        ctx = coframe.ctx
        clean = {}
        for idx, val in coeffs.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise FormError(f"index {idx} does not match degree {degree}")
            if degree == 2 and not idx[0] < idx[1]:
                raise FormError("degree-2 coefficients must be indexed by pairs j < k")
            e = ctx.expr(val)
            if not e.is_zero():
                clean[idx] = e
        self.coeffs = clean

    @property
    def ctx(self) -> Context:
        return self.coframe.ctx

    @staticmethod
    def zero(degree: int, coframe: Coframe) -> "DiffForm":
        return DiffForm(degree, coframe, {})

    @staticmethod
    def function(coframe: Coframe, value: Scalar) -> "DiffForm":
        return DiffForm(0, coframe, {(): value})

    def coeff(self, *idx: int) -> Expr:
        if self.degree == 2 and len(idx) == 2 and idx[0] > idx[1]:
            return -self.coeffs.get((idx[1], idx[0]), self.ctx.zero)
        return self.coeffs.get(tuple(idx), self.ctx.zero)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "DiffForm") -> "DiffForm":
        if not isinstance(other, DiffForm):
            return NotImplemented
        if other.degree != self.degree:
            raise FormError("cannot add forms of different degree")
        if other.coframe != self.coframe:
            other = rewrite_in_coframe(other, self.coframe)
        out = dict(self.coeffs)
        for idx, val in other.coeffs.items():
            out[idx] = out.get(idx, self.ctx.zero) + val
        return DiffForm(self.degree, self.coframe, out)

    def __neg__(self) -> "DiffForm":
        return DiffForm(self.degree, self.coframe, {i: -v for i, v in self.coeffs.items()})

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def scale(self, factor: Scalar) -> "DiffForm":
        f = self.ctx.expr(factor)
        return DiffForm(self.degree, self.coframe, {i: v * f for i, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        if self.degree != other.degree:
            return False
        if other.coframe != self.coframe:
            other = rewrite_in_coframe(other, self.coframe)
        return self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        names = self.coframe.names
        parts = []
        for idx in sorted(self.coeffs):
            c = self.coeffs[idx]
            if self.degree == 0:
                parts.append(str(c))
                continue
            basis = "^".join(names[i] for i in idx)
            parts.append(f"({c}) {basis}")
        return " + ".join(parts)

    def __repr__(self):
        return f"DiffForm({self})"


class VectorField:
    """Components relative to the frame dual to a coframe."""

    def __init__(self, coframe: Coframe, components: Sequence[Scalar]):
        if len(components) != coframe.n:
            raise FormError("component count must match chart dimension")
        self.coframe = coframe
        self.components = [coframe.ctx.expr(c) for c in components]

    def __repr__(self):
        duals = ", ".join(f"({c}) d/d({nm})" for c, nm in zip(self.components, self.coframe.names))
        return f"VectorField({duals})"


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    """Graded-antisymmetric product; total degree must stay at most 2."""
    if a.coframe.chart != b.coframe.chart:
        raise FormError("wedge of forms over different charts")
    if a.degree + b.degree > 2:
        raise FormError("wedge would exceed degree 2")
    if b.coframe != a.coframe:
        b = rewrite_in_coframe(b, a.coframe)
    ctx = a.ctx
    if a.degree == 0:
        return b.scale(a.coeff()) if not a.is_zero() else DiffForm.zero(b.degree, a.coframe)
    if b.degree == 0:
        return a.scale(b.coeff())
    out: dict[tuple, Expr] = {}
    for (j,), cj in a.coeffs.items():
        for (k,), ck in b.coeffs.items():
            if j == k:
                continue
            idx = (j, k) if j < k else (k, j)
            sign = 1 if j < k else -1
            out[idx] = out.get(idx, ctx.zero) + sign * cj * ck
    return DiffForm(2, a.coframe, out)


def rewrite_in_coframe(a: DiffForm, target: Coframe) -> DiffForm:
    """Express the same geometric form in another coframe of the same chart."""
    if a.coframe.chart != target.chart:
        raise FormError("coframes live on different charts")
    if a.coframe == target:
        return a
    # theta_a = S . theta_target with S = T_a T_target^{-1}
    return rewrite_by(a, mat_mul(a.coframe.transition, target.inverse()), target)


def rewrite_by(a: DiffForm, S: Sequence[Sequence[Expr]], target: Coframe) -> DiffForm:
    """The form ``a`` in ``target``, given S with theta_a = S . theta_target."""
    ctx = a.ctx
    if a.degree == 0:
        return DiffForm(0, target, dict(a.coeffs))
    if a.degree == 1:
        n = target.n
        new = {}
        for l in range(n):
            acc = ctx.zero
            for (j,), cj in a.coeffs.items():
                acc = acc + cj * S[j][l]
            new[(l,)] = acc
        return DiffForm(1, target, new)
    n = target.n
    new2: dict[tuple, Expr] = {}
    for (j, k), c in a.coeffs.items():
        for l in range(n):
            for m in range(l + 1, n):
                factor = S[j][l] * S[k][m] - S[j][m] * S[k][l]
                if factor.is_zero():
                    continue
                new2[(l, m)] = new2.get((l, m), ctx.zero) + c * factor
    return DiffForm(2, target, new2)


def exterior_derivative(a: DiffForm) -> DiffForm:
    """d in the coordinate basis, rewritten back into the form's coframe."""
    if a.degree > 1:
        raise FormError("exterior derivative implemented for degrees 0 and 1 only")
    chart = a.coframe.chart
    coords = chart.coords
    cc = coordinate_coframe(chart)
    if a.degree == 0:
        f = a.coeff()
        coeffs = {(i,): f.diff(x) for i, x in enumerate(coords)}
        return rewrite_in_coframe(DiffForm(1, cc, coeffs), a.coframe)
    flat = rewrite_in_coframe(a, cc)
    out: dict[tuple, Expr] = {}
    for i in range(chart.n):
        for j in range(i + 1, chart.n):
            cj = flat.coeff(j).diff(coords[i]) - flat.coeff(i).diff(coords[j])
            if not cj.is_zero():
                out[(i, j)] = cj
    return rewrite_in_coframe(DiffForm(2, cc, out), a.coframe)


def structure_functions(c: Coframe) -> dict[tuple[int, int, int], Expr]:
    """Coefficients B[i, j, k] with d theta^i = sum_{j<k} B[i,j,k] theta^j ^ theta^k."""
    cc = coordinate_coframe(c.chart)
    out: dict[tuple[int, int, int], Expr] = {}
    for i in range(c.n):
        theta = DiffForm(1, cc, {(j,): c.transition[i][j] for j in range(c.n)})
        d = rewrite_in_coframe(exterior_derivative(theta), c)
        for j in range(c.n):
            for k in range(j + 1, c.n):
                out[(i, j, k)] = d.coeff(j, k)
    return out


def interior_product(v: VectorField, a: DiffForm) -> DiffForm:
    """Contraction of a degree-1 or degree-2 form with a vector field."""
    if a.degree not in (1, 2):
        raise FormError("interior product needs a form of degree 1 or 2")
    if v.coframe.chart != a.coframe.chart:
        raise FormError("vector field and form live on different charts")
    if a.coframe != v.coframe:
        a = rewrite_in_coframe(a, v.coframe)
    ctx = a.ctx
    if a.degree == 1:
        acc = ctx.zero
        for (j,), c in a.coeffs.items():
            acc = acc + v.components[j] * c
        return DiffForm(0, v.coframe, {(): acc})
    n = v.coframe.n
    out = {}
    for k in range(n):
        acc = ctx.zero
        for j in range(n):
            if j == k:
                continue
            acc = acc + v.components[j] * a.coeff(j, k)
        out[(k,)] = acc
    return DiffForm(1, v.coframe, out)
