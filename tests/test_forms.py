import random

import pytest

from cartaneq import Context
from cartaneq.forms import (
    Chart,
    Coframe,
    exterior_derivative,
    exterior_square,
    pairs,
    rewrite_in_coframe,
    structure_functions,
)
from cartaneq.linalg import identity_matrix, mat_mul

from genutil import drawn_problem, random_poly_expr


def coordinate_coframe(chart: Chart) -> Coframe:
    return Coframe(chart, identity_matrix(chart.ctx, chart.n))


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
        [[ctx.one, ctx.zero, ctx.zero], [-ctx.sym("p"), ctx.one, ctx.zero], [-Et, ctx.zero, Lpp]],
    )
    return ctx, chart, eta, Et, Lpp


def test_wedge_lagrangian_pair(lag):
    # row (2, 3) of the exterior square of T is eta2 ^ eta3 on dx ^ du, dx ^ dp, du ^ dp
    ctx, chart, eta, Et, Lpp = lag
    w = exterior_square(eta.transition)[pairs(3).index((1, 2))]
    assert w == [Et, -ctx.sym("p") * Lpp, Lpp]


def test_exterior_derivative_basics():
    ctx = Context()
    x, y = ctx.declare_symbols(["x", "y"], "coordinate")
    u = ctx.declare_symbol("u", "coordinate")
    cc = coordinate_coframe(Chart(ctx, [x, y, u]))
    assert all(e.is_zero() for e in exterior_derivative([[ctx.one, ctx.zero, ctx.zero]], cc)[0])
    (d,) = exterior_derivative([[ctx.sym("u"), ctx.zero, ctx.zero]], cc)
    # d(u dx) = du ^ dx = -(dx ^ du)
    assert d == [ctx.zero, -ctx.one, ctx.zero]


def test_exterior_derivative_lagrangian_eta3(lag):
    ctx, chart, eta, Et, Lpp = lag
    u = ctx.get_symbol("u")
    (d,) = exterior_derivative([[-Et, ctx.zero, Lpp]], coordinate_coframe(chart))
    Lupp = ctx.parse("L_upp(x,u,p)")
    assert d == [Et.diff(u), -ctx.sym("p") * Lupp, Lupp]


def test_rewrite_in_coframe():
    ctx = Context()
    x, y = ctx.declare_symbols(["x", "y"], "coordinate")
    chart = Chart(ctx, [x, y])
    cc = coordinate_coframe(chart)
    dx = [[ctx.one, ctx.zero]]
    scaled = Coframe(chart, [[ctx.sym("x"), ctx.zero], [ctx.zero, ctx.one]])
    r = rewrite_in_coframe(dx, 1, cc, scaled)
    assert r == [[1 / ctx.sym("x"), ctx.zero]]
    assert rewrite_in_coframe(r, 1, scaled, cc) == dx
    # the coordinate coframe leaves rows unchanged
    assert rewrite_in_coframe(dx, 1, cc, cc) == dx
    # dx ^ dy in the coframe {dx, x dy}
    mixed = Coframe(chart, [[ctx.one, ctx.zero], [ctx.zero, ctx.sym("x")]])
    assert rewrite_in_coframe([[ctx.one]], 2, cc, mixed) == [[1 / ctx.sym("x")]]


def test_structure_functions_examples(lag):
    ctx = Context()
    x, y = ctx.declare_symbols(["x", "y"], "coordinate")
    chart = Chart(ctx, [x, y])
    assert all(e.is_zero() for e in structure_functions(coordinate_coframe(chart)).values())
    mixed = Coframe(chart, [[ctx.one, ctx.zero], [ctx.zero, ctx.sym("x")]])
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


def test_d_squared_zero_randomized():
    # degree is capped at 2, so d.d = 0 is checked on functions: the d of
    # every exact 1-form df, the row of partial derivatives of f, is zero
    rng = random.Random(5)
    ctx = Context()
    coords = ctx.declare_symbols(["x", "y", "w"], "coordinate")
    f = ctx.declare_opaque("f", ["x", "y", "w"])
    cc = coordinate_coframe(Chart(ctx, coords))
    atoms = [ctx.expr(c) for c in coords] + [ctx.apply(f, [ctx.expr(c) for c in coords])]
    for _ in range(40):
        func = random_poly_expr(ctx, rng, atoms)
        (d,) = exterior_derivative([[func.diff(c) for c in coords]], cc)
        assert all(e.is_zero() for e in d)


def test_structure_functions_of_random_coordinate_coframes():
    # an exact coframe eta = d phi, the Jacobian of a random polynomial map
    # phi, is closed, so every structure function vanishes
    rng = random.Random(6)
    checked = 0
    for _ in range(10):
        ctx = Context()
        coords = ctx.declare_symbols(["x", "y", "z"], "coordinate")
        atoms = [ctx.expr(c) for c in coords]
        phi = [random_poly_expr(ctx, rng, atoms, terms=4, deg=3) for _ in coords]
        eta = Coframe(Chart(ctx, coords), [[f.diff(x) for x in coords] for f in phi])
        if eta.det().is_zero():  # phi is not a local diffeomorphism
            continue
        checked += 1
        assert all(e.is_zero() for e in structure_functions(eta).values())
    assert checked >= 5


def test_rewrite_round_trip_randomized():
    rng = random.Random(7)
    for seed in range(25):
        target = drawn_problem(seed).coframe
        chart = target.chart
        ctx = chart.ctx
        cc = coordinate_coframe(chart)
        atoms = [ctx.expr(c) for c in chart.coords]
        for degree, width in ((2, len(pairs(chart.n))), (1, chart.n)):
            rows = [[random_poly_expr(ctx, rng, atoms) for _ in range(width)]]
            there = rewrite_in_coframe(rows, degree, cc, target)
            assert rewrite_in_coframe(there, degree, target, cc) == rows


def test_exterior_square_is_multiplicative():
    # Cauchy-Binet for 2 x 2 minors: the exterior square of S T is the
    # product of the exterior squares, and that of I_n is I on the n(n-1)/2 pairs
    for seed in range(25):
        p = drawn_problem(seed)
        S, T = p.coframe.transition, p.group.entries
        assert exterior_square(mat_mul(S, T)) == mat_mul(exterior_square(S), exterior_square(T))
        assert exterior_square(identity_matrix(p.ctx, p.n)) == identity_matrix(p.ctx, p.n * (p.n - 1) // 2)
