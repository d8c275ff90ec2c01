"""Parametrized matrix Lie groups and their right-invariant form bases.

A group is given parametrically: an n x n matrix of expressions in r group
parameters, with stated identity parameter values and optional membership
equations cutting the group out of GL(n).  The right Maurer-Cartan matrix
dg g^{-1} yields a basis of invariant one-forms; every entry of dg g^{-1} is a
rational-constant combination of the basis, and that constancy is asserted,
not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exprs import Context, Expr, ExprError, Symbol
from .linalg import SingularMatrixError, extend_echelon, mat_inverse, mat_mul

__all__ = [
    "GroupError",
    "ParamGroup",
    "MCBasis",
    "group_inverse",
    "right_mc",
    "check_closure",
    "recover_params",
    "derive_membership",
    "slot_names",
    "slot_symbols",
    "solve_linear_in",
    "normalize_sign",
]


class GroupError(ExprError):
    pass


_NOT_CONSTANT = (
    "entry {} of dg g^-1 is not a constant combination of the basis; "
    "the parametrization is not a matrix group"
)


def slot_names(n: int) -> list[list[str]]:
    """Names g11..gnn of the matrix-slot symbols."""
    return [[f"g{i + 1}{j + 1}" for j in range(n)] for i in range(n)]


def slot_symbols(ctx: Context, n: int) -> list[list[Symbol]]:
    """Matrix-slot symbols g11..gnn used by membership equations."""
    if n > 9:
        raise GroupError("slot symbol convention gij supports n <= 9")
    return [ctx.declare_symbols(row, "auxiliary") for row in slot_names(n)]


def normalize_sign(e: Expr) -> Expr:
    """Scale by -1 when the leading numerator coefficient is negative."""
    return -e if e.leading_sign() < 0 else e


def solve_linear_in(e: Expr, atom) -> Expr | None:
    """Solve e = 0 for an atom occurring to degree exactly 1 in the numerator.

    Returns a solution in which the atom does not occur, or None when the
    equation is not linear in it.  The degree counts top-level occurrences
    only, so an equation such as X - f(X, y) = 0, whose solution would keep X
    inside the opaque argument, also gives None.
    """
    uni = e.coefficients(atom)
    if set(uni) - {0, 1} or 1 not in uni:
        return None
    sol = -uni.get(0, e.ctx.zero) / uni[1]
    return None if atom in sol.free_symbols else sol


def solve_power_in(e: Expr, atom) -> Expr | None:
    """Solve e = 0 for atom when the numerator is c_d atom^d + c_0.

    Only pure powers with an exact rational d-th root on a constant right side
    are accepted beyond the linear case; sign is chosen positive.
    """
    uni = e.coefficients(atom)
    degs = sorted(uni)
    if degs == [0, 1] or degs == [1]:
        return solve_linear_in(e, atom)
    if len(degs) != 2 or degs[0] != 0:
        return None
    d = degs[1]
    val = (-uni[0] / uni[d]).as_fraction()
    if val is None or val < 0:
        return None
    num = _iroot(val.numerator, d)
    den = _iroot(val.denominator, d)
    if num is None or den is None:
        return None
    return e.ctx.expr(Fraction(num, den))


def _iroot(v: int, d: int) -> int | None:
    """The exact integer d-th root of v, or None when v is not a d-th power."""
    if v < 0:
        return None
    r, hi = 0, 1 << (v.bit_length() // d + 1)  # bisect with r**d <= v < hi**d
    while hi - r > 1:
        mid = (r + hi) // 2
        r, hi = (mid, hi) if mid**d <= v else (r, mid)
    return r if r**d == v else None


@dataclass
class ParamGroup:
    """A parametrized subgroup of GL(n) with exact identity values."""

    ctx: Context
    n: int
    params: tuple[Symbol, ...]
    entries: list[list[Expr]]
    identity_values: dict[Symbol, Fraction]
    membership_eqs: list[Expr] | None = None
    # the equations derive_membership found, kept for the next caller
    _derived: list[Expr] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.params = tuple(self.params)
        self.entries = [[self.ctx.expr(e) for e in row] for row in self.entries]
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise GroupError("entry matrix must be n x n")
        if len(self.params) > self.n * self.n:
            raise GroupError("more parameters than matrix slots")
        self.identity_values = {s: Fraction(v) for s, v in self.identity_values.items()}
        if set(self.identity_values) != set(self.params):
            raise GroupError("identity values must cover exactly the group parameters")

    @property
    def r(self) -> int:
        return len(self.params)

    def validate(self):
        ident = self.at(self.identity_values)
        for i in range(self.n):
            for j in range(self.n):
                want = Fraction(1 if i == j else 0)
                if ident[i][j] != want:
                    raise GroupError(
                        f"identity values do not give the identity matrix at slot ({i + 1},{j + 1})"
                    )

    def at(self, values) -> list[list[Expr]]:
        binds = {s: self.ctx.expr(v) for s, v in values.items()}
        return [[e.subs(binds) for e in row] for row in self.entries]

    def with_params(self, new_params: Sequence[Symbol]) -> "ParamGroup":
        """The same parametrization written in fresh parameter symbols."""
        if len(new_params) != self.r:
            raise GroupError("parameter count mismatch")
        binds = dict(zip(self.params, (self.ctx.sym(s.name) for s in new_params)))
        return ParamGroup(
            self.ctx,
            self.n,
            tuple(new_params),
            [[e.subs(binds) for e in row] for row in self.entries],
            {ns: self.identity_values[s] for s, ns in zip(self.params, new_params)},
            self.membership_eqs,
        )


@dataclass
class MCBasis:
    """Basis alpha^1..alpha^r chosen among the entries of dg g^{-1}.

    ``coeff_rows[(i, j)]`` is the coefficient vector of the (i,j) entry of
    dg g^{-1} against the parameter differentials da_1..da_r, and
    ``F[(i, j)]`` the rational constants with entry = sum_k F^{ij}_k alpha^k.
    ``inverse`` is g^{-1}, also the change of basis from eta to g eta.
    """

    group: ParamGroup
    slots: list[tuple[int, int]]
    alpha_coeffs: list[list[Expr]]
    coeff_rows: dict[tuple[int, int], list[Expr]]
    F: dict[tuple[int, int], tuple[Fraction, ...]]
    inverse: list[list[Expr]]


def group_inverse(g: ParamGroup) -> list[list[Expr]]:
    """Exact symbolic inverse of the group matrix."""
    try:
        return mat_inverse(g.entries)
    except SingularMatrixError:
        raise GroupError("group matrix is singular") from None


def right_mc(g: ParamGroup) -> MCBasis:
    """Right Maurer-Cartan matrix dg g^{-1} and a deterministic entry basis.

    Requires g(e) = I at the identity values, as ``ParamGroup.validate``
    checks, so dg g^{-1} at the identity is dg(e), a rational matrix whose
    rows are the entries' coefficients against da_1..da_r.  Basis rule: first,
    for each parameter in order, take the first row-major entry whose row is
    that parameter's unit row; then complete with the remaining row-major
    entries whose rows are independent over the rationals.  A group whose
    dg(e) has rank below r is refused: its parameters are no coordinates at
    the identity.

    With E = alpha(e) the rows of the basis entries, an entry w is a constant
    combination f . alpha exactly when f = w(e) E^{-1} and w = f . alpha, so
    F is read at the identity and each entry is checked exactly.
    """
    ctx = g.ctx
    inv = group_inverse(g)
    order = [(i, j) for i in range(g.n) for j in range(g.n)]
    if g.r == 0:
        return MCBasis(g, [], [], {s: [] for s in order}, {s: () for s in order}, inv)
    dg = [[[e.diff(a) for e in row] for row in g.entries] for a in g.params]
    ident_rows: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    id_binds = {s: ctx.expr(v) for s, v in g.identity_values.items()}
    for i, j in order:
        ident = tuple(d[i][j].subs(id_binds).as_fraction() for d in dg)
        if None in ident:
            raise GroupError("entries must be expressions in the group parameters only")
        ident_rows[(i, j)] = ident
    units = [tuple(Fraction(1 if t == k else 0) for t in range(g.r)) for k in range(g.r)]
    slots = [next((s for s in order if ident_rows[s] == unit), None) for unit in units]
    basis = extend_echelon([], [ident_rows[s] for s in slots if s is not None])
    for k in range(g.r):
        if slots[k] is not None:
            continue
        for slot in order:
            # a chosen slot's row is in the span, so it never grows the rank
            grown = extend_echelon(basis, [ident_rows[slot]])
            if len(grown) > len(basis):
                slots[k], basis = slot, grown
                break
        else:
            raise GroupError("fewer independent Maurer-Cartan entries than group parameters")

    # dg g^{-1} = sum_a (dg/da) g^{-1} da: one product per parameter
    mc = [mat_mul(d, inv) for d in dg]
    coeff_rows = {(i, j): [m[i][j] for m in mc] for i, j in order}
    alpha_coeffs = [coeff_rows[s] for s in slots]
    constants = mat_mul([ident_rows[s] for s in order], mat_inverse([ident_rows[s] for s in slots]))
    F: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for slot, fs in zip(order, map(tuple, constants)):
        if _combination(ctx, fs, alpha_coeffs) != coeff_rows[slot]:
            raise GroupError(_NOT_CONSTANT.format(slot))
        F[slot] = fs
    return MCBasis(g, slots, alpha_coeffs, coeff_rows, F, inv)


def _combination(ctx: Context, fs: Sequence[Fraction], rows: list[list[Expr]]) -> list[Expr]:
    """sum_k fs[k] rows[k]; a unit ``fs`` gives its row as it is."""
    nonzero = [k for k, f in enumerate(fs) if f]
    if len(nonzero) == 1 and fs[nonzero[0]] == 1:
        return rows[nonzero[0]]
    out = [ctx.zero] * len(rows[0])
    for k in nonzero:
        c = ctx.expr(fs[k])
        out = [o + c * a for o, a in zip(out, rows[k])]
    return out


def check_closure(g: ParamGroup):
    """Prove that g(a) g(b) is in the group, for a second parameter set
    _b1.._br: the symbolic product satisfies every given or derived membership
    equation exactly.  Raises GroupError naming the first equation violated."""
    eqs = membership_equations(g)
    other = g.with_params(g.ctx.declare_symbols([f"_b{k + 1}" for k in range(g.r)], "group-parameter"))
    prod = mat_mul(g.entries, other.entries)
    slots = slot_symbols(g.ctx, g.n)
    binding = {slots[i][j]: prod[i][j] for i in range(g.n) for j in range(g.n)}
    for eq in eqs:
        if not eq.subs(binding).is_zero():
            raise GroupError(f"the product of two group elements violates membership equation {eq}")


def recover_params(g: ParamGroup) -> dict[Symbol, Expr] | None:
    """Express the parameters in the matrix slots by triangular elimination."""
    ctx = g.ctx
    slots = slot_symbols(ctx, g.n)
    solved: dict[Symbol, Expr] = {}
    remaining = set(g.params)
    progress = True
    while remaining and progress:
        progress = False
        for i in range(g.n):
            for j in range(g.n):
                eq = g.entries[i][j].subs(solved) - ctx.expr(slots[i][j])
                free = [s for s in eq.free_symbols if s in remaining]
                if len(free) != 1:
                    continue
                sol = solve_linear_in(eq, free[0])
                if sol is None:
                    continue
                if any(s in sol.free_symbols for s in remaining if s is not free[0]):
                    continue
                remaining.discard(free[0])
                solved = {s: v.subs({free[0]: sol}) for s, v in solved.items()}
                solved[free[0]] = sol
                progress = True
    if remaining:
        return None
    return solved


def derive_membership(g: ParamGroup) -> list[Expr] | None:
    """Defining equations of the group in the matrix slots, when recoverable."""
    plan = recover_params(g)
    if plan is None:
        return None
    ctx = g.ctx
    slots = slot_symbols(ctx, g.n)
    eqs = []
    for i in range(g.n):
        for j in range(g.n):
            e = g.entries[i][j].subs(plan) - ctx.expr(slots[i][j])
            if not e.is_zero():
                # clear the denominator: only the zero set matters
                eqs.append(normalize_sign(e.numerator()))
    return eqs


def membership_equations(g: ParamGroup) -> list[Expr]:
    """Given or derived membership equations; raises when unavailable."""
    if g.membership_eqs is not None:
        return g.membership_eqs
    if g._derived is None:
        g._derived = derive_membership(g)
        if g._derived is None:
            raise GroupError(
                "group has no membership equations and the parametrization is not "
                "recoverable by triangular elimination"
            )
    return g._derived
