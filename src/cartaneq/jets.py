"""Cartan-Kuranishi machinery in jet coordinates for first-order systems.

Systems live in solved form u^a_K = F (principal left sides never occur in
right sides).  Prolongation adjoins all total derivatives and re-solves for
the highest-order jets; projection returns the lower-order relations that
survive reduction; completion iterates order by order; reduced Cartan
characters use the standard contact basis.  An encoder turns a G-structure
problem into the first-order system for g = A(X) (grad X) A(x)^{-1} subject
to the membership equations of the group, which is what makes the
equivalence-method loop and the jet loop comparable on the same problem.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence

from .characters import CharacterReport, reduced_characters
from .engine import GStructureProblem, loop_stages, target_symbol
from .exprs import Context, Expr, ExprError, PoleError, Symbol
from .groups import membership_equations, slot_symbols, solve_linear_in
from .linalg import back_substitute, echelon, generic_points, identity_matrix, mat_mul, symbolic_rank

__all__ = [
    "JetError",
    "NonGenuineSystemError",
    "InconsistentSystemError",
    "JetSpace",
    "JetSystem",
    "ProlongedSystem",
    "total_derivative",
    "prolong_system",
    "project_integrability",
    "complete_to_order",
    "jet_characters",
    "complete_to_involution",
    "encode_gstructure",
    "crosscheck_characters",
    "CrosscheckResult",
]


class JetError(ExprError):
    pass


class NonGenuineSystemError(JetError):
    """An integrability condition restricts the independent variables alone."""


class InconsistentSystemError(JetError):
    """A condition reduced to a nonzero constant."""


MultiIndex = tuple


def multi_indices(n: int, order: int) -> list[MultiIndex]:
    """All multi-indices of the exact order, in lexicographic order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), order):
        J = [0] * n
        for i in combo:
            J[i] += 1
        out.append(tuple(J))
    return sorted(out)


def _shift(J: MultiIndex, i: int) -> MultiIndex:
    out = list(J)
    out[i] += 1
    return tuple(out)


class JetSpace:
    """Jet coordinates for maps between declared independents and dependents."""

    def __init__(self, ctx: Context, independents: Sequence[Symbol], dependents: Sequence[Symbol]):
        self.ctx = ctx
        self.independents = tuple(independents)
        self.dependents = tuple(dependents)
        self._jets: dict[tuple[int, MultiIndex], Symbol] = {}
        self._reverse: dict[Symbol, tuple[int, MultiIndex]] = {}
        for a, dep in enumerate(self.dependents):
            key = (a, (0,) * self.n)
            self._jets[key] = dep
            self._reverse[dep] = key

    @property
    def n(self) -> int:
        return len(self.independents)

    @property
    def m(self) -> int:
        return len(self.dependents)

    def jet(self, a: int, J: MultiIndex) -> Symbol:
        key = (a, tuple(J))
        sym = self._jets.get(key)
        if sym is None:
            suffix = "".join(
                self.independents[i].name * c for i, c in enumerate(key[1])
            )
            name = f"{self.dependents[a].name}_{suffix}"
            sym = self.ctx.declare_symbol(name, "jet-variable")
            self._jets[key] = sym
            self._reverse[sym] = key
        return sym

    def jet_expr(self, a: int, J: MultiIndex) -> Expr:
        return self.ctx.expr(self.jet(a, J))

    def jets_in(self, e: Expr) -> list[tuple[int, MultiIndex]]:
        found = {self._reverse[s] for s in e.free_symbols if s in self._reverse}
        return sorted(found)


def total_derivative(space: JetSpace, e: Expr, i: int) -> Expr:
    """D_i = d/dx^i + sum over jets u^a_J of u^a_{J,i} d/du^a_J."""
    field = {space.independents[i]: space.ctx.one}
    for (a, J) in space.jets_in(e):
        field[space.jet(a, J)] = space.jet_expr(a, _shift(J, i))
    return e.derive(field)


@dataclass
class JetSystem:
    """A PDE system in solved form, u^a_K = F^a_K, at a declared order."""

    space: JetSpace
    equations: dict[tuple[int, MultiIndex], Expr]
    order: int

    def __post_init__(self):
        normalized: dict[tuple[int, MultiIndex], Expr] = {}
        for (a, J), F in self.equations.items():
            key = (a, tuple(J))
            if key in normalized:
                raise JetError(f"duplicate principal derivative {self._name(key)}")
            normalized[key] = self.space.ctx.expr(F)
        self.equations = normalized
        self._resolve()
        max_order = max((sum(J) for (_, J) in self.equations), default=0)
        if self.order < max_order:
            raise JetError("declared order below the order of the equations")

    def _name(self, key) -> str:
        return str(self.space.jet(*key))

    def _resolve(self):
        """Re-reduce right sides until no principal derivative occurs in one."""
        for _ in range(len(self.equations) + 1):
            subs = {self.space.jet(a, J): F for (a, J), F in self.equations.items()}
            changed = False
            for key, F in list(self.equations.items()):
                if any(s in F.free_symbols for s in subs):
                    self.equations[key] = F.subs(subs)
                    changed = True
            if not changed:
                return
        raise JetError("system is circular: cannot be put in solved form")

    def adjoin(self, key: tuple[int, MultiIndex], F: Expr) -> "JetSystem":
        """The system with u^a_K = F adjoined, for an F that :meth:`reduce`
        has reduced; re-solving puts the new jet out of every right side."""
        return JetSystem(self.space, {**self.equations, key: F}, self.order)

    def principal(self) -> set[tuple[int, MultiIndex]]:
        return set(self.equations)

    def reduce(self, e: Expr) -> Expr:
        subs = {self.space.jet(a, J): F for (a, J), F in self.equations.items()}
        if not any(s in e.free_symbols for s in subs):
            return e
        return e.subs(subs)

    def parametric_of_order(self, t: int) -> list[tuple[int, MultiIndex]]:
        prin = self.principal()
        out = []
        for a in range(self.space.m):
            for J in multi_indices(self.space.n, t):
                if (a, J) not in prin:
                    out.append((a, J))
        return out

    def pretty(self) -> list[str]:
        return [f"{self._name(k)} = {F}" for k, F in sorted(self.equations.items())]


_COEFF_CLASS_CONSTANT = 0
_COEFF_CLASS_UNIT = 1
_COEFF_CLASS_SOURCE = 2
_COEFF_CLASS_OTHER = 3


def _coeff_class(coeff: Expr, space: JetSpace, units: Collection) -> int:
    if coeff.as_fraction() is not None:
        return _COEFF_CLASS_CONSTANT
    if coeff.size() == 2 and set(coeff.atoms()) <= units:  # monomial / monomial
        return _COEFF_CLASS_UNIT
    dep_syms = set(space._reverse)
    if not (coeff.free_symbols & dep_syms):
        return _COEFF_CLASS_SOURCE
    return _COEFF_CLASS_OTHER


def _solve_for_jet(
    space: JetSpace,
    e: Expr,
    units: Collection,
    max_order: int | None = None,
) -> tuple[tuple[int, MultiIndex], Expr] | None:
    """Pick the best jet to solve e = 0 for: highest order first, then the
    lowest coefficient class, then creation order of the jet.  An ``e`` that
    the system has reduced holds no principal jet, so every candidate is new."""
    best = None
    for (a, J) in space.jets_in(e):
        if max_order is not None and sum(J) > max_order:
            continue
        sym = space.jet(a, J)
        sol = solve_linear_in(e, sym)
        if sol is None:
            continue
        coeff = e.diff(sym)
        cls = _coeff_class(coeff, space, units)
        key = (-sum(J), cls, coeff.numerator().size(), a, J)
        if best is None or key < best[0]:
            best = (key, (a, J), sol)
    if best is None:
        return None
    return best[1], best[2]


@dataclass
class ProlongedSystem:
    """The prolongation of ``base``, kept in echelon form.

    ``coeff_rows`` and ``tmat`` are the top-order coefficient rows and their
    tracked transforms after :func:`linalg.echelon`: pivot rows are unscaled
    and not back-substituted, non-pivot rows are zero in the coefficient
    columns.  Only the solved equations need the Gauss-Jordan form, and
    :meth:`new_equations` finishes it on demand.
    """

    base: JetSystem
    tops: list[tuple[int, MultiIndex]]
    coeff_rows: list[list[Expr]]
    tmat: list[list[Expr]]
    remainders: list[Expr]
    pivots: list[tuple[int, int]]
    conditions: list[Expr]

    @property
    def top_rank(self) -> int:
        return len(self.pivots)

    @property
    def parametric_top_count(self) -> int:
        space = self.base.space
        total = space.m * len(multi_indices(space.n, self.base.order + 1))
        return total - self.top_rank

    def new_equations(self) -> dict[tuple[int, MultiIndex], Expr]:
        """Solved order-(q+1) equations; materialized on demand by
        back-substituting the echelon rows to Gauss-Jordan form."""
        ctx = self.base.space.ctx
        ncols = len(self.tops)
        reduced = back_substitute([row + t for row, t in zip(self.coeff_rows, self.tmat)], self.pivots)
        out: dict[tuple[int, MultiIndex], Expr] = {}
        pivot_cols = {c for _, c in self.pivots}
        for r, c in self.pivots:
            rhs = ctx.zero
            for f, w in enumerate(reduced[r][ncols:]):
                if not w.is_zero() and not self.remainders[f].is_zero():
                    rhs = rhs - w * self.remainders[f]
            for c2 in range(ncols):
                if c2 == c or c2 in pivot_cols or reduced[r][c2].is_zero():
                    continue
                rhs = rhs - reduced[r][c2] * ctx.expr(self.base.space.jet(*self.tops[c2]))
            out[self.tops[c]] = rhs
        return out

    def as_jet_system(self) -> JetSystem:
        eqs = dict(self.base.equations)
        eqs.update(self.new_equations())
        return JetSystem(self.base.space, eqs, self.base.order + 1)


def prolong_system(R: JetSystem) -> ProlongedSystem:
    """Adjoin all total derivatives and re-solve for the top-order jets.

    The prolonged equations are affine in the order-(q+1) jets with top-free
    denominators, so the canonical numerators split into coefficient rows plus
    a lower-order remainder per candidate.  Only the coefficient columns are
    eliminated, forward only (:func:`linalg.echelon`, pivoting on the
    sparsest entry); the remainders are combined once at the end through the
    tracked transform matrix of the non-pivot rows, which is where the
    integrability conditions appear.  The rows are kept in echelon form; see
    :class:`ProlongedSystem`.
    """
    space = R.space
    ctx = space.ctx
    q = R.order
    top_order = q + 1

    candidates: list[Expr] = []
    for (a, K), F in sorted(R.equations.items()):
        for i in range(space.n):
            lhs = space.jet_expr(a, _shift(K, i))
            rhs = R.reduce(total_derivative(space, F, i))
            candidates.append(lhs - rhs)

    tops: list[tuple[int, MultiIndex]] = []
    seen = set()
    for cand in candidates:
        for (a, J) in space.jets_in(cand):
            if sum(J) == top_order and (a, J) not in seen:
                seen.add((a, J))
                tops.append((a, J))
    tops.sort()
    top_syms = [space.jet(a, J) for (a, J) in tops]
    ncols = len(top_syms)
    top_set = set(top_syms)

    rows: list[list[Expr]] = []
    remainders: list[Expr] = []
    for cand in candidates:
        if cand.denominator().free_symbols & top_set:
            raise JetError("prolonged equation has a top-order jet in a denominator")
        split = cand.linear_in(top_syms)
        if split is None:
            raise JetError("prolonged equation is not linear in the top-order jets")
        rows.append(split[0])
        remainders.append(split[1])

    # [coefficients | tracked transform]
    ident = identity_matrix(ctx, len(rows))
    reduced, pivots = echelon([row + unit for row, unit in zip(rows, ident)], ncols, sparsest=True)
    rows = [r[:ncols] for r in reduced]
    tmat = [r[ncols:] for r in reduced]

    conditions: list[Expr] = []
    pivot_rows = {r for r, _ in pivots}
    for r in range(len(rows)):
        if r in pivot_rows:
            continue
        cond = ctx.zero
        for f, w in enumerate(tmat[r]):
            if not w.is_zero() and not remainders[f].is_zero():
                cond = cond + w * remainders[f]
        cond = R.reduce(cond)
        if not cond.is_zero():
            conditions.append(cond)
    return ProlongedSystem(R, tops, rows, tmat, remainders, pivots, conditions)


def _check_genuine(space: JetSpace, cond: Expr):
    if cond.as_fraction() is not None and cond.as_fraction() != 0:
        raise InconsistentSystemError("a condition reduced to a nonzero constant")
    indep = set(space.independents)
    if cond.free_symbols and cond.free_symbols <= indep:
        raise NonGenuineSystemError(
            f"integrability condition {cond} restricts the independent variables alone"
        )


def _adjoin_conditions(R: JetSystem, conditions: Iterable[Expr]) -> tuple[JetSystem, list[Expr]]:
    """Adjoin the conditions that are not already implied; returns the new
    system and the surviving (independent) conditions."""
    space = R.space
    current = R
    new: list[Expr] = []
    for cond in conditions:
        reduced = current.reduce(cond)
        if reduced.is_zero():
            continue
        _check_genuine(space, reduced)
        hit = _solve_for_jet(space, reduced, frozenset(), max_order=current.order)
        if hit is None:
            raise JetError(f"cannot solve integrability condition {reduced} for a jet")
        current = current.adjoin(*hit)
        new.append(reduced)
    return current, new


def project_integrability(P: ProlongedSystem) -> tuple[list[Expr], JetSystem]:
    """Lower-order relations not implied by the base, adjoined to it."""
    reduced_sys, new = _adjoin_conditions(P.base, P.conditions)
    if new:
        reduced_sys = complete_to_order(reduced_sys)
    return new, reduced_sys


def complete_to_order(R: JetSystem) -> JetSystem:
    """Prolong every equation of order < q to order q and intersect until
    stable; the result is closed under prolongation of lower-order members."""
    space = R.space
    q = R.order
    current = JetSystem(space, dict(R.equations), q)
    for _ in range(200):
        changed = False
        for (a, K), F in sorted(current.equations.items()):
            if sum(K) >= q:
                continue
            for i in range(space.n):
                lhs = space.jet_expr(a, _shift(K, i))
                cand = current.reduce(lhs - total_derivative(space, F, i))
                if cand.is_zero():
                    continue
                if any(sum(J) > q for (_, J) in space.jets_in(cand)):
                    raise JetError(
                        "completion produced a jet above the declared order; "
                        "declare the system at a higher order"
                    )
                _check_genuine(space, cand)
                hit = _solve_for_jet(space, cand, frozenset(), max_order=q)
                if hit is None:
                    raise JetError(f"completion cannot solve {cand} for a jet")
                current = current.adjoin(*hit)
                changed = True
                break
            if changed:
                break
        if not changed:
            return current
    raise JetError("completion did not stabilize")


def jet_characters(P: ProlongedSystem, rng: random.Random) -> CharacterReport:
    """Reduced Cartan characters of the base system R = P.base at its order q,
    with the fiber dimension r^{q+1} read from its prolongation P, which the
    caller has already computed with ``prolong_system(R)``."""
    R = P.base
    space = R.space
    ctx = space.ctx
    n, q = space.n, R.order
    prin = R.principal()
    cols = R.parametric_of_order(q)
    col_index = {key: t for t, key in enumerate(cols)}

    rows_spec = []
    for a in range(space.m):
        for J in multi_indices(n, q - 1) if q >= 1 else []:
            rows_spec.append((a, J))

    # gamma(d u^b_L) per top-order jet needed in the rows
    gamma_cache: dict[tuple[int, MultiIndex], list[Expr]] = {}

    def gamma_of(b: int, L: MultiIndex) -> list[Expr]:
        got = gamma_cache.get((b, L))
        if got is not None:
            return got
        vec = [ctx.zero] * len(cols)
        if (b, L) in col_index:
            vec[col_index[(b, L)]] = ctx.one
        elif (b, L) in prin:
            F = R.equations[(b, L)]
            for key, t in col_index.items():
                d = F.diff(space.jet(*key))
                if not d.is_zero():
                    vec[t] = d
        gamma_cache[(b, L)] = vec
        return vec

    def build_rows(v: Sequence[Expr]) -> list[list[Expr]]:
        out = []
        for (a, J) in rows_spec:
            row = [ctx.zero] * len(cols)
            for i in range(n):
                g = gamma_of(a, _shift(J, i))
                for t in range(len(cols)):
                    if not g[t].is_zero():
                        row[t] = row[t] - v[i] * g[t]
            out.append(row)
        return out

    report = reduced_characters(ctx, n, len(cols), build_rows, P.parametric_top_count, rng)
    _monitor_regularity(R, report, rng)
    return report


def _monitor_regularity(R: JetSystem, report: CharacterReport, rng: random.Random):
    """Character constancy probe at 3 generic points (regularity is assumed,
    not decided; a drop at a sampled point aborts with a diagnostic).

    At each point the rows are first evaluated at the report's witness
    directions.  A rank there is at most the rank over all directions, which
    is at most the generic rank, so reaching ``ranks[-1]`` shows no drop.  On
    a shortfall, a missing witness or a pole, the exact rank over the
    direction symbols decides."""
    ctx, n = R.space.ctx, R.space.n
    dirs = [[ctx.declare_symbol(f"_dir{k}_{t}", "auxiliary") for t in range(n)] for k in range(n)]
    at_witness = None
    if None not in report.witnesses:
        at_witness = {d: v for ds, w in zip(dirs, report.witnesses) for d, v in zip(ds, w)}
    keep = {d for ds in dirs for d in ds}
    for point, rows in itertools.islice(generic_points(report.stacked_rows, rng, keep=keep), 3):
        if not point:
            return  # no atom but the directions: the rows are already the generic ones
        if at_witness is not None:
            try:
                if symbolic_rank([[e.eval_at(at_witness) for e in row] for row in rows]) == report.ranks[-1]:
                    continue
            except PoleError:
                pass
        rank = symbolic_rank(rows)
        if rank < report.ranks[-1]:
            raise JetError(
                f"reduced Cartan characters are not constant: rank {rank} at a sampled "
                f"point, {report.ranks[-1]} generically"
            )


def complete_to_involution(R: JetSystem, rng: random.Random, cap: int = 10) -> tuple[JetSystem, list[dict]]:
    """Algorithm: (a) adjoin integrability conditions until none appear,
    (b) compute reduced characters, (c) Cartan's test; prolong on failure.
    The log lists one dict per step, keyed by ``action``."""
    if cap < 1:
        raise JetError("cap must be at least 1")
    log: list[dict] = []
    current = complete_to_order(R)
    for _ in range(cap):
        prolonged = prolong_system(current)
        conditions, reduced = project_integrability(prolonged)
        if conditions:
            log.append(dict(action="conditions", order=current.order,
                            conditions=[str(c) for c in conditions]))
            current = reduced
            continue
        chars = jet_characters(prolonged, rng)
        log.append(dict(action="cartan-test", order=current.order, s=chars.s,
                        r_next=chars.r2, involutive=chars.involutive))
        if chars.involutive:
            return current, log
        current = prolonged.as_jet_system()
        log.append(dict(action="prolong", order=current.order))
    raise JetError(f"completion cap of {cap} loops exceeded")


def encode_gstructure(p: GStructureProblem) -> JetSystem:
    """First-order system in the jets of x -> X expressing that
    A(X) (grad X) A(x)^{-1} satisfies the membership equations of the group."""
    ctx = p.ctx
    n = p.n
    eqs = membership_equations(p.group)
    coords = p.chart.coords
    targets = [target_symbol(ctx, x) for x in coords]
    tmap = {x: ctx.expr(X) for x, X in zip(coords, targets)}
    space = JetSpace(ctx, coords, targets)

    A = p.coframe.transition
    A_target = [[e.subs(tmap) for e in row] for row in A]
    A_inv = p.coframe.inverse()
    jac = [[space.jet_expr(a, _shift((0,) * n, i)) for i in range(n)] for a in range(n)]
    M = mat_mul(mat_mul(A_target, jac), A_inv)

    slots = slot_symbols(ctx, n)
    binds = {slots[i][j]: M[i][j] for i in range(n) for j in range(n)}

    det = p.coframe.det()
    units = {*det.atoms(), *det.subs(tmap).atoms()}

    system = JetSystem(space, {}, 1)
    for eq in eqs:
        raw = system.reduce(eq.subs(binds))
        if raw.is_zero():
            continue
        hit = _solve_for_jet(space, raw, units)
        if hit is None:
            raise JetError(f"cannot put membership equation {eq} into solved form")
        system = system.adjoin(*hit)
    return system


@dataclass
class CrosscheckResult:
    equal: bool
    engine_r2: int
    engine_s: list[int]
    engine_conditions: int
    jet_r2: int
    jet_s: list[int]
    jet_conditions: int
    notes: list[str] = field(default_factory=list)


def crosscheck_characters(p: GStructureProblem, rng: random.Random) -> CrosscheckResult:
    """One loop of the equivalence engine against one loop of the jet
    machinery on the encoded system: compare r^2, the characters, and the
    number of non-trivial engine torsion residuals against the number of
    integrability conditions the jet projection adjoins."""
    _, sol, cls, chars = loop_stages(p, rng)
    ncond_engine = sum(1 for k in cls.kinds if k != "trivial")

    R = encode_gstructure(p)
    prolonged = prolong_system(R)
    conditions, _ = project_integrability(prolonged)
    jchars = jet_characters(prolonged, rng)

    equal = (
        sol.r2 == jchars.r2
        and chars.s == jchars.s
        and ncond_engine == len(conditions)
    )
    return CrosscheckResult(
        equal,
        sol.r2,
        chars.s,
        ncond_engine,
        jchars.r2,
        jchars.s,
        len(conditions),
        notes=[f"jet conditions: {[str(c) for c in conditions]}"],
    )
