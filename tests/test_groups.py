import random
from fractions import Fraction

import pytest

from cartaneq import Context, engine, groups
from cartaneq.engine import Policy, run_loop
from cartaneq.exprs import ExprError
from cartaneq.groups import (
    GroupError,
    ParamGroup,
    check_closure,
    derive_membership,
    group_inverse,
    recover_params,
    right_mc,
    slot_symbols,
    solve_linear_in,
    solve_power_in,
)
from cartaneq.linalg import mat_inverse, mat_mul, symbolic_rank

from genutil import ScriptedRng, corpus_problem, drawn_problem, problem_from_text, recorded_calls


def diag_recip_group():
    ctx = Context()
    (a,) = ctx.declare_symbols(["a"], "group-parameter")
    return ctx, ParamGroup(ctx, 2, (a,), [[ctx.sym("a"), ctx.zero], [ctx.zero, ctx.parse("1/a")]], {a: 1})


def test_group_inverse_examples():
    ctx, g = diag_recip_group()
    inv = group_inverse(g)
    assert inv[0][0] == ctx.parse("1/a")
    assert inv[1][1] == ctx.sym("a")

    ident = ParamGroup(ctx, 2, (), [[ctx.one, ctx.zero], [ctx.zero, ctx.one]], {})
    inv2 = group_inverse(ident)
    assert inv2[0][0] == 1 and inv2[0][1].is_zero()

    lag = corpus_problem("lagrangian")
    inv3 = group_inverse(lag.group)
    c = lag.ctx
    assert inv3[0][0] == c.parse("1/a1")
    assert inv3[2][2] == c.sym("a4")
    # hand adjugate check for the (1,2) entry
    assert inv3[0][1] == c.parse("(a3*a5 - a2/a4)/a1")


def test_right_mc_scaling():
    ctx = Context()
    (a,) = ctx.declare_symbols(["a"], "group-parameter")
    g = ParamGroup(ctx, 1, (a,), [[ctx.sym("a")]], {a: 1})
    mc = right_mc(g)
    assert mc.slots == [(0, 0)]
    assert mc.alpha_coeffs[0][0] == ctx.parse("1/a")
    assert mc.F[(0, 0)] == (Fraction(1),)


def test_right_mc_diagonal():
    ctx = Context()
    a, b = ctx.declare_symbols(["a", "b"], "group-parameter")
    g = ParamGroup(ctx, 2, (a, b), [[ctx.sym("a"), ctx.zero], [ctx.zero, ctx.sym("b")]], {a: 1, b: 1})
    mc = right_mc(g)
    assert mc.slots == [(0, 0), (1, 1)]
    assert mc.F[(0, 0)] == (1, 0)
    assert mc.F[(1, 1)] == (0, 1)
    assert mc.F[(0, 1)] == (0, 0)


def test_right_mc_lagrangian_reduced_group():
    # dg g^{-1} of the reduced group equals the documented matrix
    # [[2 a4', a2', a3'], [0, a4', 0], [0, a5', -a4']] where ak' is the basis
    # form attached to the parameter bk (paper numbering a2..a5)
    ctx = Context()
    b = ctx.declare_symbols(["b2", "b3", "b4", "b5"], "group-parameter")
    P = ctx.parse
    g = ParamGroup(
        ctx, 3, b,
        [[P("b4^2"), P("b2"), P("b3")], [P("0"), P("b4"), P("0")], [P("0"), P("b5"), P("1/b4")]],
        {b[0]: 0, b[1]: 0, b[2]: 1, b[3]: 0},
    )
    mc = right_mc(g)
    # basis entries attach to the parameters (b2, b3, b4, b5) in order
    assert mc.slots == [(0, 1), (0, 2), (1, 1), (2, 1)]
    k2, k3, k4, k5 = 0, 1, 2, 3
    unit = lambda k, c=1: tuple(Fraction(c) if t == k else Fraction(0) for t in range(4))
    assert mc.F[(0, 0)] == unit(k4, 2)
    assert mc.F[(0, 1)] == unit(k2)
    assert mc.F[(0, 2)] == unit(k3)
    assert mc.F[(1, 1)] == unit(k4)
    assert mc.F[(2, 1)] == unit(k5)
    assert mc.F[(2, 2)] == unit(k4, -1)
    assert mc.F[(1, 0)] == (0, 0, 0, 0)
    # alpha for b4 is db4/b4
    assert mc.alpha_coeffs[k4][2] == ctx.parse("1/b4")


def test_mc_reconstruction_and_identity_pattern():
    for seed in range(25):
        g = drawn_problem(seed).group
        ctx = g.ctx
        mc = right_mc(g)
        ident = {s: ctx.expr(v) for s, v in g.identity_values.items()}
        for i in range(g.n):
            for j in range(g.n):
                vec = mc.coeff_rows[(i, j)]
                rec = [ctx.zero] * g.r
                for k in range(g.r):
                    f = mc.F[(i, j)][k]
                    if f:
                        for t in range(g.r):
                            rec[t] = rec[t] + ctx.expr(f) * mc.alpha_coeffs[k][t]
                for t in range(g.r):
                    # exact reconstruction, hence also at the identity point
                    assert (rec[t] - vec[t]).is_zero()
                    assert (rec[t] - vec[t]).subs(ident).is_zero()


def test_f_constancy_rejects_non_groups():
    ctx = Context()
    a, b = ctx.declare_symbols(["a", "b"], "group-parameter")
    # not closed under multiplication: entries (1 + a, 1 + a^2) pattern
    g = ParamGroup(
        ctx, 2, (a, b),
        [[1 + ctx.sym("a"), ctx.zero], [ctx.sym("a") * ctx.sym("b"), 1 + ctx.sym("b")]],
        {a: 0, b: 0},
    )
    with pytest.raises(GroupError, match=r"^entry \(1, 0\) of dg g\^-1 is not a constant combination of the basis; "
                       "the parametrization is not a matrix group$"):
        right_mc(g)


def test_right_mc_refuses_an_entry_in_a_coordinate():
    ctx = Context()
    (a,) = ctx.declare_symbols(["a"], "group-parameter")
    (x,) = ctx.declare_symbols(["x"], "coordinate")
    # g(e) = 1 for every x, but dg(e) = x da is no constant row
    g = ParamGroup(ctx, 1, (a,), [[1 + ctx.sym("x") * ctx.sym("a")]], {a: 0})
    with pytest.raises(GroupError, match="^entries must be expressions in the group parameters only$"):
        right_mc(g)


def test_right_mc_refuses_too_few_independent_entries():
    ctx = Context()
    a, b = ctx.declare_symbols(["a", "b"], "group-parameter")
    # dg g^-1 = diag(da/a + db/b, 0): one independent entry for two parameters
    g = ParamGroup(
        ctx, 2, (a, b), [[ctx.sym("a") * ctx.sym("b"), ctx.zero], [ctx.zero, ctx.one]], {a: 1, b: 1}
    )
    with pytest.raises(GroupError, match="^fewer independent Maurer-Cartan entries than group parameters$"):
        right_mc(g)


def _reference_mc(g):
    """Slots, alpha and F by the W alpha^-1 route: the entries of dg g^-1 at
    the identity for the unit slots, symbolic rank for the rest, and F the
    rows of W alpha^-1, each of them constant."""
    ctx = g.ctx
    order = [(i, j) for i in range(g.n) for j in range(g.n)]
    if g.r == 0:
        return [], [], {s: () for s in order}
    inv = mat_inverse(g.entries)
    mc = [mat_mul([[e.diff(a) for e in row] for row in g.entries], inv) for a in g.params]
    W = {(i, j): [m[i][j] for m in mc] for i, j in order}
    binds = {s: ctx.expr(v) for s, v in g.identity_values.items()}
    at_e = {s: [e.subs(binds).as_fraction() for e in w] for s, w in W.items()}
    chosen = [
        next((s for s in order if at_e[s] == [int(t == k) for t in range(g.r)]), None) for k in range(g.r)
    ]
    for k in range(g.r):
        if chosen[k] is None:
            rows = [W[s] for s in chosen if s is not None]
            chosen[k] = next(
                s for s in order if s not in chosen and symbolic_rank(rows + [W[s]]) > len(rows)
            )
    alpha = [W[s] for s in chosen]
    F = {}
    for s, row in zip(order, mat_mul([W[s] for s in order], mat_inverse(alpha))):
        F[s] = tuple(e.as_fraction() for e in row)
        assert None not in F[s]
    return chosen, alpha, F


SO2_CAYLEY = """\
[coordinates]
names = x, y

[coframe]
A 1 1 = 1
A 1 2 = 0
A 2 1 = 0
A 2 2 = 1

[group]
params = t
M 1 1 = (1 - t^2)/(1 + t^2)
M 1 2 = -2*t/(1 + t^2)
M 2 1 = 2*t/(1 + t^2)
M 2 2 = (1 - t^2)/(1 + t^2)
identity t = 0

[membership]
eq = g11 - g22
eq = g12 + g21
eq = g11^2 + g21^2 - 1
"""


def test_right_mc_agrees_with_the_inverse_route(monkeypatch):
    # every group the engine's runs see: the problem groups, their reductions
    # and their prolongations, on the corpus and draws 0..49
    seen = recorded_calls(monkeypatch, engine, "right_mc", lambda g: g)
    problems = [corpus_problem(name) for name in ("flat_gl2", "flat_identity", "lagrangian", "toy_diag", "toy_genuine")]
    for problem in problems + [drawn_problem(seed) for seed in range(50)]:
        try:
            run_loop(problem, Policy(seed=0))
        except ExprError:
            pass  # the groups seen before the failure are still compared
    # the Cayley transform of SO(2) has dg(e) = [[0, -2], [2, 0]]: no unit
    # row at the identity, so alpha(e) != I and F comes from W alpha^-1
    so2 = problem_from_text(SO2_CAYLEY).group
    assert len(seen) > len(problems) + 50
    for g in seen + [so2]:
        mc = right_mc(g)
        slots, alpha, F = _reference_mc(g)
        assert mc.slots == slots
        assert mc.alpha_coeffs == alpha
        assert mc.F == F
    mc = right_mc(so2)
    assert mc.slots == [(0, 1)] and mc.F[(1, 0)] == (-1,) and mc.F[(0, 0)] == (0,)
    assert mc.alpha_coeffs[0][0].subs({so2.params[0]: 0}) == -2


def test_right_mc_of_a_unit_row_group_inverts_only_the_group(monkeypatch):
    inversions = recorded_calls(monkeypatch, groups, "mat_inverse")
    for g in (corpus_problem("lagrangian").group, drawn_problem(0).group):
        before = len(inversions)
        right_mc(g)
        assert len(inversions) == before + 1


def test_check_closure():
    ctx, g = diag_recip_group()
    ok, _ = check_closure(g, random.Random(0))
    assert ok

    ctx2 = Context()
    (a,) = ctx2.declare_symbols(["a"], "group-parameter")
    unip = ParamGroup(ctx2, 2, (a,), [[ctx2.one, ctx2.sym("a")], [ctx2.zero, ctx2.one]], {a: 0})
    ok2, _ = check_closure(unip, random.Random(1))
    assert ok2

    lag = corpus_problem("lagrangian")
    ok3, _ = check_closure(lag.group, random.Random(2))
    assert ok3

    # a parametrized set that is not a group fails the sampling
    ctx3 = Context()
    (c,) = ctx3.declare_symbols(["c"], "group-parameter")
    bad = ParamGroup(ctx3, 2, (c,), [[1 + ctx3.sym("c") ** 2, ctx3.zero], [ctx3.zero, ctx3.one]], {c: 0})
    ok4, notes = check_closure(bad, random.Random(3))
    assert not ok4
    # refused before any element is drawn
    assert notes == ["no membership equations and parameter recovery failed"]

    # every sampled element a pole (a = 0 in 1/a): refused, not looped
    with pytest.raises(GroupError, match="could not sample"):
        check_closure(g, ScriptedRng(1))


def test_recover_params_and_membership():
    lag = corpus_problem("lagrangian")
    ctx = lag.ctx
    plan = recover_params(lag.group)
    slots = slot_symbols(ctx, 3)
    assert plan[ctx.get_symbol("a1")] == ctx.expr(slots[0][0])
    assert plan[ctx.get_symbol("a5")] == ctx.expr(slots[2][1])
    mem = derive_membership(lag.group)
    printed = sorted(str(e) for e in mem)
    assert printed == ["g21", "g22*g33 - 1", "g23", "g31"]


def test_solve_linear_in_refuses_the_atom_inside_an_opaque_argument():
    ctx = Context()
    X, y = ctx.declare_symbols(["X", "y"], "coordinate")
    ctx.declare_opaque("f", ["X", "y"])
    assert solve_linear_in(ctx.parse("X - f(X, y)"), X) is None
    assert solve_linear_in(ctx.parse("X - f(y, y)"), X) == ctx.parse("f(y, y)")


def test_solve_power_in_exact_integer_roots():
    ctx = Context()
    (a,) = ctx.declare_symbols(["a"], "group-parameter")
    big = 10**100 + 7
    # a float root misses this perfect square
    assert solve_power_in(ctx.sym("a") ** 2 - ctx.expr(big**2), a) == ctx.expr(big)
    # a float root overflows here
    assert solve_power_in(ctx.sym("a") ** 2 - ctx.expr(10**400), a) == ctx.expr(10**200)
    assert solve_power_in(ctx.sym("a") ** 3 - ctx.expr(Fraction(big**3, 8)), a) == ctx.expr(Fraction(big, 2))
    assert solve_power_in(ctx.sym("a") ** 2 - ctx.expr(big**2 + 1), a) is None
    assert solve_power_in(ctx.sym("a") ** 3 - ctx.expr(big**3 - 1), a) is None
