import random

import pytest

from cartaneq import Context
from cartaneq.forms import (
    Chart,
    Coframe,
    DiffForm,
    FormError,
    VectorField,
    coordinate_coframe,
    exterior_derivative,
    exterior_square,
    interior_product,
    rewrite_in_coframe,
    structure_functions,
    wedge,
)
from cartaneq.linalg import identity_matrix, mat_mul

from genutil import drawn_problem, random_poly_expr


@pytest.fixture
def lag():
    ctx = Context()
    x, u, p = ctx.declare_symbols(["x", "u", "p"], "coordinate")
    ctx.declare_opaque("L", ["x", "u", "p"])
    chart = Chart(ctx, [x, u, p])
    Et = ctx.parse("L_u(x,u,p) - L_xp(x,u,p) - p*L_up(x,u,p)")
    Lpp = ctx.parse("L_pp(x,u,p)")
    eta = Coframe(
        chart,
        ["e1", "e2", "e3"],
        [[ctx.one, ctx.zero, ctx.zero], [-ctx.sym("p"), ctx.one, ctx.zero], [-Et, ctx.zero, Lpp]],
    )
    return ctx, chart, eta, Et, Lpp


def test_wedge_basics():
    ctx = Context()
    x, y = ctx.declare_symbols(["x", "y"], "coordinate")
    u = ctx.declare_symbol("u", "auxiliary")
    cc = coordinate_coframe(Chart(ctx, [x, y]))
    dx, dy = cc.element(0), cc.element(1)
    assert wedge(dx, dx).is_zero()
    w = wedge(dx.scale(ctx.sym("u")), dy)
    assert w.coeff(0, 1) == ctx.sym("u")
    with pytest.raises(FormError):
        wedge(w, dx)


def test_wedge_lagrangian_pair(lag):
    ctx, chart, eta, Et, Lpp = lag
    cc = coordinate_coframe(chart)
    eta2 = DiffForm(1, cc, {(0,): -ctx.sym("p"), (1,): ctx.one})
    eta3 = DiffForm(1, cc, {(0,): -Et, (2,): Lpp})
    w = wedge(eta2, eta3)
    assert w.coeff(0, 1) == Et
    assert w.coeff(0, 2) == -ctx.sym("p") * Lpp
    assert w.coeff(1, 2) == Lpp


def test_exterior_derivative_basics():
    ctx = Context()
    x, y = ctx.declare_symbols(["x", "y"], "coordinate")
    u = ctx.declare_symbol("u", "coordinate")
    chart = Chart(ctx, [x, y, u])
    cc = coordinate_coframe(chart)
    assert exterior_derivative(cc.element(0)).is_zero()
    udx = cc.element(0).scale(ctx.sym("u"))
    d = exterior_derivative(udx)
    # d(u dx) = du ^ dx = -(dx ^ du)
    assert d.coeff(0, 2) == -ctx.one


def test_exterior_derivative_lagrangian_eta3(lag):
    ctx, chart, eta, Et, Lpp = lag
    u, p = ctx.get_symbol("u"), ctx.get_symbol("p")
    cc = coordinate_coframe(chart)
    eta3 = DiffForm(1, cc, {(0,): -Et, (2,): Lpp})
    d = exterior_derivative(eta3)
    assert d.coeff(0, 1) == Et.diff(u)
    assert d.coeff(0, 2) == -ctx.sym("p") * ctx.parse("L_upp(x,u,p)")
    assert d.coeff(1, 2) == ctx.parse("L_upp(x,u,p)")


def test_rewrite_in_coframe():
    ctx = Context()
    x, y = ctx.declare_symbols(["x", "y"], "coordinate")
    chart = Chart(ctx, [x, y])
    cc = coordinate_coframe(chart)
    scaled = Coframe(chart, ["w1", "w2"], [[ctx.sym("x"), ctx.zero], [ctx.zero, ctx.one]])
    r = rewrite_in_coframe(cc.element(0), scaled)
    assert r.coeff(0) == 1 / ctx.sym("x")
    assert rewrite_in_coframe(r, cc) == cc.element(0)
    # identity coframe leaves forms unchanged
    assert rewrite_in_coframe(cc.element(0), cc) == cc.element(0)
    # dx ^ dy in the coframe {dx, x dy}
    mixed = Coframe(chart, ["w1", "w2"], [[ctx.one, ctx.zero], [ctx.zero, ctx.sym("x")]])
    dxdy = DiffForm(2, cc, {(0, 1): ctx.one})
    r2 = rewrite_in_coframe(dxdy, mixed)
    assert r2.coeff(0, 1) == 1 / ctx.sym("x")


def test_structure_functions_examples(lag):
    ctx = Context()
    x, y = ctx.declare_symbols(["x", "y"], "coordinate")
    chart = Chart(ctx, [x, y])
    cc = coordinate_coframe(chart)
    assert all(e.is_zero() for e in structure_functions(cc).values())
    mixed = Coframe(chart, ["w1", "w2"], [[ctx.one, ctx.zero], [ctx.zero, ctx.sym("x")]])
    B = structure_functions(mixed)
    assert B[(1, 0, 1)] == 1 / ctx.sym("x")
    assert all(e.is_zero() for key, e in B.items() if key != (1, 0, 1))


def test_structure_functions_lagrangian_golden(lag):
    ctx, chart, eta, Et, Lpp = lag
    u = ctx.get_symbol("u")
    B = structure_functions(eta)
    Lupp = ctx.parse("L_upp(x,u,p)")
    expected = {
        (1, 0, 2): 1 / Lpp,
        (2, 0, 1): Et.diff(u) - Et * Lupp / Lpp,
        (2, 1, 2): Lupp / Lpp,
    }
    for key, val in B.items():
        assert val == expected.get(key, ctx.zero), key


def test_interior_product():
    ctx = Context()
    x, y, z = ctx.declare_symbols(["x", "y", "z"], "coordinate")
    chart = Chart(ctx, [x, y, z])
    cc = coordinate_coframe(chart)
    dxdy = DiffForm(2, cc, {(0, 1): ctx.one})
    dydz = DiffForm(2, cc, {(1, 2): ctx.one})
    ddx = VectorField(cc, [ctx.one, ctx.zero, ctx.zero])
    assert interior_product(ddx, dxdy) == cc.element(1)
    assert interior_product(ddx, dydz).is_zero()
    a, b = ctx.declare_symbols(["a", "b"], "auxiliary")
    v = VectorField(cc, [ctx.sym("a"), ctx.sym("b"), ctx.zero])
    r = interior_product(v, dxdy)
    assert r.coeff(1) == ctx.sym("a")
    assert r.coeff(0) == -ctx.sym("b")
    # v . (alpha ^ beta) = (v . alpha) beta - alpha (v . beta) on 1-forms
    alpha = cc.element(0).scale(ctx.sym("a"))
    beta = cc.element(1)
    lhs = interior_product(v, wedge(alpha, beta))
    va = interior_product(v, alpha).coeff()
    vb = interior_product(v, beta).coeff()
    rhs = beta.scale(va) + alpha.scale(-vb)
    assert lhs == rhs


def test_d_squared_zero_randomized():
    # degree is capped at 2, so d.d = 0 is checked on 0-forms; its 1-form
    # face is that every exact 1-form df is closed
    rng = random.Random(5)
    ctx = Context()
    coords = ctx.declare_symbols(["x", "y", "w"], "coordinate")
    f = ctx.declare_opaque("f", ["x", "y", "w"])
    chart = Chart(ctx, coords)
    cc = coordinate_coframe(chart)
    atoms = [ctx.expr(c) for c in coords] + [ctx.apply(f, [ctx.expr(c) for c in coords])]
    for _ in range(40):
        func = DiffForm.function(cc, random_poly_expr(ctx, rng, atoms))
        assert exterior_derivative(exterior_derivative(func)).is_zero()


def test_structure_functions_of_random_coordinate_coframes():
    rng = random.Random(6)
    for _ in range(10):
        ctx = Context()
        coords = ctx.declare_symbols(["x", "y"], "coordinate")
        cc = coordinate_coframe(Chart(ctx, coords))
        assert all(e.is_zero() for e in structure_functions(cc).values())


def test_rewrite_round_trip_randomized():
    rng = random.Random(7)
    for seed in range(25):
        target = drawn_problem(seed).coframe
        chart = target.chart
        ctx = chart.ctx
        cc = coordinate_coframe(chart)
        atoms = [ctx.expr(c) for c in chart.coords]
        form = DiffForm(2, cc, {(0, 1): random_poly_expr(ctx, rng, atoms)})
        assert rewrite_in_coframe(rewrite_in_coframe(form, target), cc) == form
        one_form = DiffForm(1, cc, {(i,): random_poly_expr(ctx, rng, atoms) for i in range(chart.n)})
        assert rewrite_in_coframe(rewrite_in_coframe(one_form, target), cc) == one_form


def test_antisymmetry_via_wedge_commutator():
    rng = random.Random(8)
    ctx = Context()
    coords = ctx.declare_symbols(["x", "y", "w"], "coordinate")
    chart = Chart(ctx, coords)
    cc = coordinate_coframe(chart)
    atoms = [ctx.expr(c) for c in coords]
    for _ in range(20):
        a = DiffForm(1, cc, {(i,): random_poly_expr(ctx, rng, atoms) for i in range(3)})
        b = DiffForm(1, cc, {(i,): random_poly_expr(ctx, rng, atoms) for i in range(3)})
        assert wedge(a, b) == -wedge(b, a)
        for j in range(3):
            for k in range(j + 1, 3):
                assert wedge(a, b).coeff(k, j) == -wedge(a, b).coeff(j, k)


def test_exterior_square_is_multiplicative():
    # Cauchy-Binet for 2 x 2 minors: the exterior square of S T is the
    # product of the exterior squares, and that of I_n is I on the n(n-1)/2 pairs
    for seed in range(25):
        p = drawn_problem(seed)
        S, T = p.coframe.transition, p.group.entries
        assert exterior_square(mat_mul(S, T)) == mat_mul(exterior_square(S), exterior_square(T))
        assert exterior_square(identity_matrix(p.ctx, p.n)) == identity_matrix(p.ctx, p.n * (p.n - 1) // 2)
