"""One full loop of Cartan's equivalence method, iterated to termination.

The loop on a G-structure (coframe eta = A(x) dx with structure group G):
compute structure data B, C and the Maurer-Cartan constants F; set up and
solve the absorption equations for the second-order unknowns z; classify the
leftover torsion residuals; then either reduce the structure group along a
normalization section, pass Cartan's test on the reduced characters, or
prolong to the G(2)-structure on the absorbed coframe bundle.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .characters import CharacterReport, reduced_characters
from .exprs import Context, Expr, ExprError, PoleError, Symbol
from .forms import Chart, Coframe, pairs, rewrite_by, structure_functions
from .groups import (
    MCBasis,
    ParamGroup,
    recover_params,
    right_mc,
    slot_symbols,
    solve_power_in,
)
from .linalg import eliminate, generic_points, identity_matrix, mat_mul, symbolic_rank

__all__ = [
    "EngineError",
    "ReductionNeeded",
    "GStructureProblem",
    "StructureData",
    "AbsorptionSystem",
    "AbsorptionSolution",
    "TorsionResidual",
    "TorsionClassification",
    "Policy",
    "LoopRecord",
    "EquivalenceResult",
    "compute_structure_data",
    "build_absorption",
    "solve_absorption",
    "classify_torsion",
    "reduce_group",
    "cartan_characters",
    "prolong",
    "prolonged_group",
    "loop_stages",
    "run_loop",
    "target_symbol",
    "residual_label",
]


class EngineError(ExprError):
    pass


class ReductionNeeded(EngineError):
    """Structured failure: residuals the triangular solver cannot normalize."""

    def __init__(self, message: str, residuals: list[Expr] | None = None):
        super().__init__(message)
        self.residuals = residuals or []


@dataclass
class GStructureProblem:
    """A coframe eta = A(x) dx together with a structure group."""

    ctx: Context
    chart: Chart
    coframe: Coframe
    group: ParamGroup
    stage: int = 0
    provenance: list[str] = field(default_factory=list)
    title: str = ""

    def __post_init__(self):
        if self.group.n != self.chart.n:
            raise EngineError("group size must match chart dimension")

    @property
    def n(self) -> int:
        return self.chart.n


@dataclass
class StructureData:
    B: dict[tuple[int, int, int], Expr]
    C: dict[tuple[int, int, int], Expr]
    mc: MCBasis
    g_coframe: Coframe


def target_name(coord: str) -> str:
    """Name of the target-coordinate twin of a chart coordinate (x -> X, X -> TX)."""
    name = coord[:1].upper() + coord[1:]
    return "T" + name if name == coord else name


def target_symbol(ctx: Context, coord: Symbol) -> Symbol:
    """Target-coordinate twin of a chart coordinate."""
    return ctx.declare_symbol(target_name(coord.name), "jet-variable")


def residual_label(e: Expr) -> str:
    """Stable label of a torsion residual: hash of its canonical print."""
    return hashlib.sha256(str(e).encode()).hexdigest()[:12]


def compute_structure_data(p: GStructureProblem) -> StructureData:
    """Structure functions B of eta, torsion sources C of g d(eta) in the
    g-eta coframe, and the Maurer-Cartan basis; checks C(x, identity) = B(x).
    As eta = g^{-1} (g eta), C = (g B) times the exterior square of the
    g^{-1} of `right_mc`, and (g A)^{-1} is never formed.
    """
    ctx = p.ctx
    n = p.n
    B = structure_functions(p.coframe)
    mc = right_mc(p.group)
    gA = mat_mul(p.group.entries, p.coframe.transition)
    g_coframe = Coframe(p.chart, gA)
    id_binds = {s: ctx.expr(v) for s, v in p.group.identity_values.items()}
    P = pairs(n)
    gB = mat_mul(p.group.entries, [[B[(i, j, k)] for (j, k) in P] for i in range(n)])
    Cm = rewrite_by(gB, mc.inverse, 2)
    C = {(i, j, k): Cm[i][q] for i in range(n) for q, (j, k) in enumerate(P)}
    for key, c in C.items():
        if not (c.subs(id_binds) - B[key]).is_zero():
            raise EngineError(f"identity compatibility C(x, I) = B(x) fails at slot {key}")
    return StructureData(B, C, mc, g_coframe)


@dataclass
class AbsorptionSystem:
    """Affine equations for the z-unknowns, one per (i, j<k) slot."""

    problem: GStructureProblem
    data: StructureData
    slots: list[tuple[int, int, int]]
    unknowns: list[tuple[int, int]]  # (kappa, j), both 0-based
    coeffs: list[list[Fraction]]  # per slot, per unknown


@dataclass
class TorsionResidual:
    expr: Expr
    label: str


@dataclass
class AbsorptionSolution:
    """Each unknown u solves to z_u = P[u] . (parametric z) + affine[u]."""

    system: AbsorptionSystem
    principal: list[tuple[int, int]]
    parametric: list[tuple[int, int]]
    P: dict[tuple[int, int], list[Fraction]]  # weights in `parametric` order
    affine: dict[tuple[int, int], Expr]  # the (x, g)-dependent part
    torsion: list[TorsionResidual]
    r2: int


def build_absorption(p: GStructureProblem, data: StructureData) -> AbsorptionSystem:
    """One equation per (i, j<k): 0 = sum_k(F^{ik} z_j - F^{ij} z_k) + C^i_{jk},
    with the default normalization constant 0 on every left side."""
    n, r = p.n, p.group.r
    slots = [(i, j, k) for i in range(n) for (j, k) in pairs(n)]
    unknowns = [(kappa, j) for kappa in range(r) for j in range(n)]
    coeffs = []
    for (i, j, k) in slots:
        Fik = data.mc.F[(i, k)]
        Fij = data.mc.F[(i, j)]
        row = []
        for (kappa, jj) in unknowns:
            val = Fraction(0)
            if jj == j:
                val += Fik[kappa]
            if jj == k:
                val -= Fij[kappa]
            row.append(val)
        coeffs.append(row)
    return AbsorptionSystem(p, data, slots, unknowns, coeffs)


def solve_absorption(sys: AbsorptionSystem) -> AbsorptionSolution:
    """Gaussian elimination on the rational z-coefficients.

    Unknowns are eliminated in lexicographic (kappa, j) order with the first
    nonzero pivot; the right sides -C ride along symbolically.  A pivot row
    gives its unknown's affine part and its weights on the parametric
    unknowns; rows left with no unknowns are the torsion residuals.
    """
    nunk = len(sys.unknowns)
    augmented = [list(row) + [-sys.data.C[slot]] for row, slot in zip(sys.coeffs, sys.slots)]
    reduced, pivots, _ = eliminate(augmented, nunk)
    pivot_of_col = {c: e for e, c in pivots}
    free = [c for c in range(nunk) if c not in pivot_of_col]

    P: dict[tuple[int, int], list[Fraction]] = {}
    affine: dict[tuple[int, int], Expr] = {}
    for c, unk in enumerate(sys.unknowns):
        if c in pivot_of_col:
            row = reduced[pivot_of_col[c]]
            P[unk] = [-row[c2] for c2 in free]
            affine[unk] = row[-1]
        else:
            P[unk] = [Fraction(int(c2 == c)) for c2 in free]
            affine[unk] = sys.problem.ctx.zero

    pivot_rows = {e for e, _ in pivots}
    torsion = [
        TorsionResidual(row[-1], residual_label(row[-1]))
        for e, row in enumerate(reduced)
        if e not in pivot_rows
    ]
    principal = [sys.unknowns[c] for c in sorted(pivot_of_col)]
    parametric = [sys.unknowns[c] for c in free]
    return AbsorptionSolution(sys, principal, parametric, P, affine, torsion, len(free))


@dataclass
class TorsionClassification:
    kinds: list[str]  # per residual: trivial | group-dependent | genuine
    full_rank: bool
    genuine: list[int]
    notes: list[str] = field(default_factory=list)

    def group_dependent(self) -> list[int]:
        return [i for i, k in enumerate(self.kinds) if k == "group-dependent"]


def _first_point(points):
    """The first sampled ``(point, values)``; an error when every draw hit a pole."""
    for hit in points:
        return hit
    raise EngineError("could not sample a generic point clear of all poles")


def _parameter_rank(grads: list[list[Expr]], group: ParamGroup, rng: random.Random) -> int:
    """Generic rank of a parameter Jacobian.

    It is sampled at a point with the parameters near the identity.  A rank at
    a point only bounds the generic rank from below, so when the sample falls
    short of ``len(grads)`` the exact rank over the function field decides."""
    _, numeric = _first_point(generic_points(grads, rng, center=group.identity_values))
    rank = symbolic_rank(numeric)
    return rank if rank == len(grads) else symbolic_rank(grads)


def classify_torsion(sol: AbsorptionSolution, rng: random.Random) -> TorsionClassification:
    """Tag residuals and test joint full rank in the group parameters."""
    group = sol.system.problem.group
    kinds: list[str] = []
    genuine: list[int] = []
    notes: list[str] = []
    grads: list[list[Expr]] = []
    for idx, res in enumerate(sol.torsion):
        e = res.expr
        if e.is_zero():
            kinds.append("trivial")
            continue
        cval = e.as_fraction()
        if cval is not None:
            kinds.append("trivial")
            notes.append(f"residual {res.label} is the constant {cval}; absorbed into the normalization")
            continue
        grad = [e.diff(a) for a in group.params]
        if any(not g.is_zero() for g in grad):
            kinds.append("group-dependent")
            grads.append(grad)
        else:
            kinds.append("genuine")
            genuine.append(idx)
    full_rank = True
    if grads:
        rank = _parameter_rank(grads, group, rng)
        full_rank = rank == len(grads)
        if not full_rank:
            notes.append(
                f"group-dependent residuals have parameter Jacobian rank {rank} < {len(grads)}; "
                "normalizing a sub-collection would expose a genuine invariant"
            )
    return TorsionClassification(kinds, full_rank, genuine, notes)


def _solve_residual_for_param(e: Expr, params: Sequence[Symbol]) -> tuple[Symbol, Expr] | None:
    """First parameter (creation order) the residual equation solves for."""
    for a in params:
        if a not in e.free_symbols:
            continue
        sol = solve_power_in(e, a)
        if sol is not None:
            return a, sol
    return None


def _solve_triangular(
    pairs: Iterable[tuple[TorsionResidual, Expr]],
    params: Sequence[Symbol],
    failure: Callable[[TorsionResidual], str],
) -> tuple[dict[Symbol, Expr], list[tuple[Symbol, Expr]]]:
    """Solve each ``eq = 0`` of the ``(residual, eq)`` pairs for one parameter,
    after the earlier solutions, and substitute it back into them, so a solved
    value holds only unsolved parameters.  Returns the solutions and the steps
    ``(parameter, value when solved)``; an unsolvable one raises
    ``ReductionNeeded(failure(residual))``."""
    solved: dict[Symbol, Expr] = {}
    steps: list[tuple[Symbol, Expr]] = []
    for res, eq in pairs:
        hit = _solve_residual_for_param(eq.subs(solved), params)
        if hit is None:
            raise ReductionNeeded(failure(res), [res.expr])
        a, val = hit
        solved = {s: v.subs({a: val}) for s, v in solved.items()}
        solved[a] = val
        steps.append(hit)
    return solved, steps


def reduce_group(
    p: GStructureProblem,
    sol: AbsorptionSolution,
    classification: TorsionClassification,
    targets: dict[str, Fraction],
) -> GStructureProblem:
    """Normalize the group-dependent residuals to the target constants.

    ``classification`` is the one :func:`classify_torsion` made of ``sol``.
    Solves H = b for a normalization section g(x) by triangular elimination
    (one parameter per residual, remaining parameters at identity values),
    then passes to the isotropy group of the target point with the adapted
    coframe g(x) eta.
    """
    ctx = p.ctx
    if classification.genuine:
        raise ReductionNeeded(
            "genuine invariants present; reduction of the structure group does not apply",
            [sol.torsion[i].expr for i in classification.genuine],
        )
    if not classification.full_rank:
        raise ReductionNeeded("residuals are not jointly full rank in the group parameters")
    active = [sol.torsion[i] for i in classification.group_dependent()]
    if not active:
        return p
    for res in active:
        if res.label not in targets:
            raise ReductionNeeded(f"no normalization target for residual {res.label}")

    # normalization section; the unsolved parameters stay at their identity values
    solved, _ = _solve_triangular(
        ((res, res.expr - ctx.expr(targets[res.label])) for res in active),
        p.group.params,
        lambda res: f"residual {res.expr} = {targets[res.label]} is not solvable for a group "
        "parameter by triangular elimination",
    )
    unsolved = {a: ctx.expr(p.group.identity_values[a]) for a in p.group.params if a not in solved}
    section = {a: v.subs(unsolved) for a, v in solved.items()} | unsolved

    section_matrix = [[e.subs(section) for e in row] for row in p.group.entries]

    # isotropy group of the target point
    plan = recover_params(p.group)
    if plan is None:
        raise ReductionNeeded("cannot recover group parameters of h g(x): no triangular plan")
    h_params = [
        ctx.declare_symbol(f"{a.name}_{p.stage + 1}", "group-parameter") for a in p.group.params
    ]
    h_group = p.group.with_params(h_params)
    prod = mat_mul(h_group.entries, section_matrix)
    slots = slot_symbols(ctx, p.n)
    slot_binds = {slots[i][j]: prod[i][j] for i in range(p.n) for j in range(p.n)}
    recovered = {a: plan[a].subs(slot_binds) for a in p.group.params}

    iso_solved, steps = _solve_triangular(
        ((res, res.expr.subs(recovered) - ctx.expr(targets[res.label])) for res in active),
        h_params,
        lambda res: f"isotropy equation for residual {res.label} not solvable by triangular elimination",
    )
    conditions = [f"{a.name} = {val}" for a, val in steps]

    new_params = tuple(a for a in h_params if a not in iso_solved)
    new_entries = [[e.subs(iso_solved) for e in row] for row in h_group.entries]
    new_group = ParamGroup(
        ctx,
        p.n,
        new_params,
        new_entries,
        {a: h_group.identity_values[a] for a in new_params},
    )
    new_group.validate()
    if new_group.r != p.group.r - len(active):
        raise ReductionNeeded("isotropy dimension does not match the number of residuals")

    new_transition = mat_mul(section_matrix, p.coframe.transition)
    new_coframe = Coframe(p.chart, new_transition)
    prov = list(p.provenance)
    prov.append(
        "reduced structure group from dim {} to dim {}; isotropy: {}".format(
            p.group.r, new_group.r, "; ".join(conditions)
        )
    )
    return GStructureProblem(ctx, p.chart, new_coframe, new_group, p.stage + 1, prov, p.title)


def cartan_characters(
    p: GStructureProblem,
    sol: AbsorptionSolution,
    rng: random.Random,
) -> CharacterReport:
    """Reduced characters from the constant F-table; test r2 = sum i s_i."""
    F, n = sol.system.data.mc.F, p.n
    # contracted with e_l, row i of the system is F^{il}
    tableau = [[[p.ctx.expr(f) for f in F[(i, l)]] for i in range(n)] for l in range(n)]
    return reduced_characters(p.ctx, p.group.r, tableau, sol.r2, rng)


def prolonged_group(p: GStructureProblem, sol: AbsorptionSolution) -> ParamGroup:
    """The abelian block-unipotent group [[I, 0], [M(v), I]] with M(v)
    entries P^kappa_j . v, parametrized by the parametric-z directions."""
    ctx = p.ctx
    n, r = p.n, p.group.r
    N = n + r
    vparams = [
        ctx.declare_symbol(f"v{t + 1}_{p.stage + 1}", "group-parameter")
        for t in range(sol.r2)
    ]
    entries = identity_matrix(ctx, N)
    for (kappa, j), weights in sol.P.items():
        acc = ctx.zero
        for w, v in zip(weights, vparams):
            if w:
                acc = acc + ctx.expr(w) * ctx.expr(v)
        entries[n + kappa][j] = acc
    return ParamGroup(ctx, N, tuple(vparams), entries, {v: Fraction(0) for v in vparams})


def prolong(
    p: GStructureProblem,
    sol: AbsorptionSolution,
    chars: CharacterReport,
) -> GStructureProblem:
    """The G(2)-structure on the absorbed coframe bundle.

    New chart: (x, group parameters); new coframe: (g eta, pi) with
    pi^k = alpha^k - affine^k_j (g eta)^j; new group: the abelian
    block-unipotent group with M(v) entries P^k_j . v, of dimension r2.
    """
    if chars.involutive is True:
        raise EngineError("prolongation refused: the problem is involutive")
    ctx = p.ctx
    n, r = p.n, p.group.r
    data = sol.system.data
    gA = data.g_coframe.transition
    mc = data.mc

    new_coords = tuple(p.chart.coords) + tuple(p.group.params)
    new_chart = Chart(ctx, new_coords)
    N = n + r

    rows: list[list[Expr]] = []
    for i in range(n):
        rows.append([gA[i][j] for j in range(n)] + [ctx.zero] * r)
    for kappa in range(r):
        xpart = [ctx.zero] * n
        for j in range(n):
            shift = sol.affine[(kappa, j)]
            if shift.is_zero():
                continue
            for t in range(n):
                xpart[t] = xpart[t] - shift * gA[j][t]
        apart = [mc.alpha_coeffs[kappa][t] for t in range(r)]
        rows.append(xpart + apart)
    new_coframe = Coframe(new_chart, rows)

    new_group = prolonged_group(p, sol)
    new_group.validate()
    prov = list(p.provenance)
    prov.append(
        f"prolonged to the G(2)-structure: chart dim {n} -> {N}, group dim {sol.r2}"
    )
    return GStructureProblem(ctx, new_chart, new_coframe, new_group, p.stage + 1, prov, p.title)


@dataclass
class Policy:
    max_loops: int = 10
    seed: int = 0
    target_overrides: dict[str, Fraction] = field(default_factory=dict)


def _choose_targets(
    p: GStructureProblem,
    active: list[TorsionResidual],
    policy: Policy,
    rng: random.Random,
) -> tuple[dict[str, Fraction], list[str]]:
    """Per-residual normalization constants: overrides, else 0, else the
    generic sign of the residual on the positive branch."""
    ctx = p.ctx
    targets: dict[str, Fraction] = {}
    notes: list[str] = []
    for res in active:
        if res.label in policy.target_overrides:
            targets[res.label] = Fraction(policy.target_overrides[res.label])
            notes.append(f"residual {res.label}: target {targets[res.label]} (override)")
            continue
        candidates = [Fraction(0)]
        point, ((at_point,),) = _first_point(
            generic_points([[res.expr]], rng, center=p.group.identity_values, positive=True)
        )
        try:
            sign = res.expr.eval_at(point | p.group.identity_values)
        except PoleError:
            sign = at_point
        if sign > 0:
            candidates += [Fraction(1), Fraction(-1)]
        else:
            candidates += [Fraction(-1), Fraction(1)]
        chosen = None
        for b in candidates:
            if _solve_residual_for_param(res.expr - ctx.expr(b), p.group.params) is not None:
                chosen = b
                break
        if chosen is None:
            chosen = candidates[1]
        targets[res.label] = chosen
        notes.append(f"residual {res.label}: target {chosen} (automatic)")
    return targets, notes


@dataclass
class LoopRecord:
    stage: int
    chart_dim: int
    group_dim: int
    data: StructureData
    solution: AbsorptionSolution
    classification: TorsionClassification
    characters: CharacterReport
    action: str
    action_detail: dict
    targets: dict[str, Fraction]


@dataclass
class EquivalenceResult:
    problem: GStructureProblem
    outcome: str  # involutive | e-structure | constant-type-violation | cap-exceeded
    loops: list[LoopRecord]
    final: GStructureProblem
    invariants: list[Expr] = field(default_factory=list)
    policy: Policy = field(default_factory=Policy)


def loop_stages(p: GStructureProblem, rng: random.Random) -> tuple[
        StructureData, AbsorptionSolution, TorsionClassification, CharacterReport]:
    """The stages every loop runs before its decision: structure data,
    normalized absorption, then classification and characters, which draw
    from ``rng`` in that order (the order fixes a report's witnesses)."""
    data = compute_structure_data(p)
    sol = solve_absorption(build_absorption(p, data))
    classification = classify_torsion(sol, rng)
    chars = cartan_characters(p, sol, rng)
    return data, sol, classification, chars


def run_loop(p: GStructureProblem, policy: Policy | None = None) -> EquivalenceResult:
    """Iterate compute -> absorb -> classify -> {reduce | test | prolong}."""
    policy = policy or Policy()
    rng = random.Random(policy.seed)
    loops: list[LoopRecord] = []
    current = p
    initial_trivial = p.group.r == 0

    def record(action: str, detail: dict, targets: dict[str, Fraction]):
        # reads the current loop's stage values when called
        loops.append(LoopRecord(
            current.stage, current.n, current.group.r, data, sol, classification,
            chars, action, detail, targets,
        ))

    for _ in range(policy.max_loops):
        if current.group.r == 0 and not (initial_trivial and current.stage == p.stage):
            return EquivalenceResult(p, "e-structure", loops, current, policy=policy)
        data, sol, classification, chars = loop_stages(current, rng)
        if classification.genuine or not classification.full_rank:
            invs = [sol.torsion[i].expr for i in classification.genuine]
            record("halt", {"reason": "constant-type violation"}, {})
            return EquivalenceResult(p, "constant-type-violation", loops, current, invs, policy)
        active = [sol.torsion[i] for i in classification.group_dependent()]
        if active:
            targets, notes = _choose_targets(current, active, policy, rng)
            reduced = reduce_group(current, sol, classification, targets)
            if reduced.group.r >= current.group.r:
                raise EngineError("group reduction did not lower the group dimension")
            record(
                "reduce",
                {"notes": notes, "new_group_dim": reduced.group.r,
                 "provenance": reduced.provenance[-1]},
                targets,
            )
            current = reduced
            continue
        if chars.involutive:
            record("involutive", {}, {})
            return EquivalenceResult(p, "involutive", loops, current, policy=policy)
        prolonged = prolong(current, sol, chars)
        if prolonged.n <= current.n:
            raise EngineError("prolongation did not raise the chart dimension")
        record("prolong", {"new_chart_dim": prolonged.n, "new_group_dim": prolonged.group.r}, {})
        current = prolonged
    return EquivalenceResult(p, "cap-exceeded", loops, current, policy=policy)
