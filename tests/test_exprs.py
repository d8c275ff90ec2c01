import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cartaneq import Context, ParseError
from cartaneq import exprs
from cartaneq.exprs import (
    DivisionByZeroError,
    Expr,
    ExprError,
    PoleError,
    SingularSubstitutionError,
    UnboundAtomError,
)

from genutil import random_expr, random_fraction


@pytest.fixture
def ctx():
    c = Context()
    c.declare_symbols(["x", "y", "z"], "coordinate")
    c.declare_opaque("f", ["x", "y"])
    c.declare_opaque("L", ["x", "u", "p"])
    c.declare_symbols(["u", "p"], "coordinate")
    return c


def test_parse_literals(ctx):
    e = ctx.parse("x^2*y")
    assert str(e) == "x^2*y"
    assert e == ctx.sym("x") ** 2 * ctx.sym("y")


def test_parse_opaque_with_derivative_tag(ctx):
    e = ctx.parse("L_pp(x,u,p)")
    atom = next(iter(e.atoms()))
    assert atom.func.name == "L"
    assert atom.deriv == (0, 0, 2)


def test_parse_cancellation(ctx):
    assert ctx.parse("(x^2-1)/(x-1)") == ctx.parse("x+1")


def test_parse_derivative_operator(ctx):
    assert ctx.parse("D(x^2*y, x)") == ctx.parse("2*x*y")
    assert ctx.parse("D(L(x,u,p), p)") == ctx.parse("L_p(x,u,p)")


def test_parse_errors_carry_position(ctx):
    with pytest.raises(ParseError) as err:
        ctx.parse("x + notdeclared")
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        ctx.parse("x + ")
    with pytest.raises(ParseError):
        ctx.parse("x / (y - y)")


def test_differentiate_basics(ctx):
    x, y = ctx.get_symbol("x"), ctx.get_symbol("y")
    assert ctx.parse("x^2*y").diff(x) == ctx.parse("2*x*y")
    p = ctx.get_symbol("p")
    assert ctx.parse("L(x,u,p)").diff(p) == ctx.parse("L_p(x,u,p)")


def test_differentiate_truncated_euler_lagrange(ctx):
    # independent hand differentiation of L_u - L_xp - p L_up
    p = ctx.get_symbol("p")
    Et = ctx.parse("L_u(x,u,p) - L_xp(x,u,p) - p*L_up(x,u,p)")
    # termwise: L_up - L_xpp - (L_up + p L_upp); the L_up terms cancel
    assert Et.diff(p) == ctx.parse("-L_xpp(x,u,p) - p*L_upp(x,u,p)")
    uncancelled = (
        ctx.parse("L_up(x,u,p)")
        - ctx.parse("L_xpp(x,u,p)")
        - ctx.parse("L_up(x,u,p)")
        - ctx.parse("p*L_upp(x,u,p)")
    )
    assert Et.diff(p) == uncancelled


def test_substitute(ctx):
    a1 = ctx.declare_symbol("a1", "group-parameter")
    a4 = ctx.declare_symbol("a4", "group-parameter")
    e = ctx.parse("a4^2/a1")
    assert e.subs({a1: 1, a4: 1}) == 1
    H = ctx.parse("-(a4^2)/(a1*L_pp(x,u,p))")
    assert H.subs({a1: ctx.parse("1/L_pp(x,u,p)"), a4: ctx.one}) == -1


def test_substitute_singular(ctx):
    x, y = ctx.get_symbol("x"), ctx.get_symbol("y")
    with pytest.raises(SingularSubstitutionError):
        ctx.parse("x/(x-y)").subs({y: ctx.sym("x")})


def test_substitute_into_opaque_arguments(ctx):
    x = ctx.get_symbol("x")
    e = ctx.parse("f(x, y)")
    out = e.subs({x: ctx.parse("x^2")})
    atom = next(iter(out.atoms()))
    assert str(atom) == "f(x^2, y)"


def test_is_zero(ctx):
    assert ctx.parse("(x+1)*(x-1) - x^2 + 1").is_zero()
    assert ctx.parse("L_px(x,u,p) - L_xp(x,u,p)").is_zero()
    assert not ctx.parse("x - y").is_zero()
    assert ctx.parse("x - y") and not ctx.parse("L_px(x,u,p) - L_xp(x,u,p)")


def test_eval_numeric(ctx):
    x, y = ctx.get_symbol("x"), ctx.get_symbol("y")
    assert ctx.parse("x^2*y").eval_at({x: 2, y: 3}) == 12
    with pytest.raises(PoleError):
        ctx.parse("1/(x-1)").eval_at({x: 1, y: 0})
    a1 = ctx.declare_symbol("b1", "group-parameter")
    a4 = ctx.declare_symbol("b4", "group-parameter")
    L = ctx.get_opaque("L")
    atom = ctx.atom(L, [ctx.sym("x"), ctx.sym("u"), ctx.sym("p")], [0, 0, 2])
    e = ctx.parse("-(b4^2)/(b1*L_pp(x,u,p))")
    assert e.eval_at({a4: 2, a1: 1, atom: 4}) == -1
    with pytest.raises(UnboundAtomError):
        e.eval_at({a4: 2, a1: 1})
    # partial evaluation binds the given atoms, opaque ones included
    assert e.eval_partial({a4: 2, atom: 4}) == ctx.parse("-1/b1")
    assert e.eval_partial({}) == e
    with pytest.raises(PoleError):
        ctx.parse("y/(x-1)").eval_partial({x: 1})


def test_polynomial_views(ctx):
    x, y = ctx.get_symbol("x"), ctx.get_symbol("y")
    e = ctx.parse("(2*x^2*y - 3*y + 1)/(x + y)")
    assert e.numerator() == ctx.parse("2*x^2*y - 3*y + 1")
    assert e.denominator() == ctx.parse("x + y")
    assert e.size() == 5
    assert e.coefficients(x) == {2: ctx.parse("2*y"), 0: ctx.parse("1 - 3*y")}
    assert (e.leading_sign(), (-e).leading_sign(), ctx.zero.leading_sign()) == (1, -1, 0)
    coeffs, rest = ctx.parse("(x*z + 2*y - z^2 + 1)/z").linear_in([x, y])
    assert coeffs == [ctx.sym("z"), ctx.expr(2)]
    assert rest == ctx.parse("1 - z^2")
    assert ctx.parse("x^2 + y").linear_in([x, y]) is None
    assert ctx.parse("x*y").linear_in([x, y]) is None


def test_rational_coefficients_and_powers(ctx):
    assert str(ctx.parse("3/2*x")) == "3/2*x"
    assert ctx.parse("x^-2") == 1 / (ctx.sym("x") ** 2)
    with pytest.raises(ExprError):
        ctx.parse("q(x)")


def _atoms_for(ctx):
    f = ctx.get_opaque("f")
    return [
        ctx.sym("x"),
        ctx.sym("y"),
        ctx.apply(f, [ctx.sym("x"), ctx.sym("y")]),
        ctx.apply(f, [ctx.sym("y"), ctx.sym("x")]),
    ]


def test_roundtrip_randomized(ctx):
    rng = random.Random(1)
    atoms = _atoms_for(ctx)
    for _ in range(120):
        e = random_expr(ctx, rng, atoms)
        assert ctx.parse(str(e)) == e


def test_leibniz_randomized(ctx):
    rng = random.Random(2)
    atoms = _atoms_for(ctx)
    x = ctx.get_symbol("x")
    for _ in range(60):
        a = random_expr(ctx, rng, atoms, depth=2)
        b = random_expr(ctx, rng, atoms, depth=2)
        lhs = (a * b).diff(x)
        rhs = a * b.diff(x) + b * a.diff(x)
        assert lhs == rhs


def test_clairaut_randomized(ctx):
    rng = random.Random(3)
    atoms = _atoms_for(ctx)
    x, y = ctx.get_symbol("x"), ctx.get_symbol("y")
    for _ in range(60):
        e = random_expr(ctx, rng, atoms, depth=2)
        assert e.diff(x).diff(y) == e.diff(y).diff(x)


def test_canonicality_against_numeric_sampling(ctx):
    rng = random.Random(4)
    atoms = _atoms_for(ctx)
    made = [random_expr(ctx, rng, atoms, depth=2) for _ in range(40)]
    for i in range(0, len(made) - 1, 2):
        e1, e2 = made[i], made[i + 1]
        diff = e1 - e2
        agree = True
        for trial in range(10):
            point = {}
            for e in (e1, e2):
                for atom in e.all_atoms():
                    point.setdefault(atom, random_fraction(rng, -20, 20, nonzero=True))
            try:
                va = e1.eval_at({a: point.get(a, Fraction(1)) for a in e1.atoms()})
                vb = e2.eval_at({a: point.get(a, Fraction(1)) for a in e2.atoms()})
            except (PoleError, UnboundAtomError):
                continue
            if va != vb:
                agree = False
                break
        if diff.is_zero():
            assert agree  # soundness: structural zero implies equal values
        elif not agree:
            assert not diff.is_zero()


def test_immutability_of_results(ctx):
    e = ctx.parse("x + y")
    _ = e + 1
    _ = e * 2
    assert e == ctx.parse("x + y")


def test_gcd_on_squares(ctx):
    assert ctx.parse("(x^2 + 2*x*y + y^2)/(x + y)") == ctx.parse("x + y")
    assert ctx.parse("(x^3 - y^3)/(x - y)") == ctx.parse("x^2 + x*y + y^2")


def test_denominator_is_monic(ctx):
    e = ctx.parse("1/(2*x - 2)")
    assert str(e) == "(1/2)/(x - 1)"
    assert ctx.parse(str(e)) == e


def test_algebraic_identities_randomized(ctx):
    # exercises the cancellation fast paths on products of related factors
    rng = random.Random(21)
    atoms = _atoms_for(ctx)
    for _ in range(80):
        a = random_expr(ctx, rng, atoms, depth=2)
        b = random_expr(ctx, rng, atoms, depth=2)
        assert (a + b) * (a - b) == a * a - b * b
        if not b.is_zero():
            assert (a / b) * b == a
            assert a / b + 1 == (a + b) / b


def test_division_by_zero_is_structured(ctx):
    for divide in (
        lambda: ctx.one / ctx.zero,
        lambda: ctx.zero ** -1,
        lambda: Expr._make(ctx, {(): Fraction(1)}, {}),
        lambda: exprs._pdiv_exact({(): Fraction(1)}, {}),
    ):
        with pytest.raises(DivisionByZeroError) as err:
            divide()
        assert isinstance(err.value, ExprError) and isinstance(err.value, ZeroDivisionError)


def test_gcd_probe_declines_and_skips(ctx):
    x = ctx.get_symbol("x")

    def univar(text):
        return exprs._as_univar(ctx.parse(text)._num, x)

    probe = exprs._gcd_probe_trivial
    assert probe(univar("x + y"), univar("x - y")) is True
    # a coefficient denominator divisible by the probe's prime cannot be mapped
    assert probe(univar(f"x + y/{exprs._P}"), univar("x - y")) is False
    # the leading coefficient vanishes at the first point (y = 2): y = 17 decides
    assert probe(univar("(y - 2)*x^2 + x + 1"), univar("x + y")) is True
    # g = (y - 2)*x + 1 is a constant at y = 2, so deciding there would miss it
    g = "((y - 2)*x + 1)"
    assert probe(univar(f"{g}*(x + 1)"), univar(f"{g}*(x + 3)")) is False
    # no point left where the leading coefficient survives
    assert probe(univar("(y - 2)*(y - 17)*(y - 53)*x + 1"), univar("x + y")) is False


_MONO = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
_COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_SMALL_POLY = st.dictionaries(_MONO, _COEFF, min_size=1, max_size=3)


def _small_polys(*specs):
    """The Polys in x, y, z of ``_SMALL_POLY`` specs, and their context."""
    ctx = Context()
    atoms = ctx.declare_symbols(["x", "y", "z"], "coordinate")

    def poly(spec):
        total = ctx.zero
        for exps, c in spec.items():
            term = ctx.expr(c)
            for atom, e in zip(atoms, exps):
                term = term * ctx.expr(atom) ** e
            total = total + term
        return total._num

    return ctx, [poly(s) for s in specs]


@settings(max_examples=60, deadline=None)
@given(_SMALL_POLY, _SMALL_POLY, _SMALL_POLY)
def test_pgcd_probe_agrees_with_full_euclid(g, a, b):
    _, (g, a, b) = _small_polys(g, a, b)
    ga, gb = exprs._pmul(g, a), exprs._pmul(g, b)
    probed = exprs._pgcd(ga, gb)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exprs, "_gcd_probe_trivial", lambda a, b: False)
        assert exprs._pgcd(ga, gb) == probed
    if g:
        exprs._pdiv_exact(probed, g)  # raises unless g divides the gcd


@settings(max_examples=60, deadline=None)
@given(_SMALL_POLY, _SMALL_POLY, _SMALL_POLY)
def test_heuristic_gcd_agrees_with_euclid(g, a, b):
    ctx, (g, a, b) = _small_polys(g, a, b)
    ga, gb = exprs._pmul(g, a), exprs._pmul(g, b)
    if not ga or not gb:
        return
    h, qa, qb = exprs._heu_gcd(ga, gb)
    assert exprs._pmonic(h) == exprs._pgcd(ga, gb)
    assert exprs._pmul(h, qa) == ga and exprs._pmul(h, qb) == gb
    # without the heuristic, _make takes the Euclid path to the same terms
    # in the same order
    made = Expr._make(ctx, ga, gb)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exprs, "_heu_gcd", lambda p, q: None)
        exact = Expr._make(ctx, ga, gb)
    assert list(made._num.items()) == list(exact._num.items())
    assert list(made._den.items()) == list(exact._den.items())


def test_exponents_above_255_take_the_exact_gcd(ctx):
    # the heuristic stores exponents in bytes; past 255 it gives up
    assert exprs._heu_gcd(ctx.parse("x^256 + y")._num, ctx.parse("x + y")._num) is None
    assert ctx.parse("(x^256*y - x*y)/(x^2*y + x*y)") == ctx.parse("(x^255 - 1)/(x + 1)")


def test_make_orders_terms_as_exact_division_does(ctx):
    # Expr.atoms(), and so the atom order of every sampled point, follows
    # the order of the canonical terms, so that order is part of the output
    def poly(*terms):
        return {ctx.parse(t)._num.popitem()[0]: Fraction(c) for t, c in terms}

    def descending(p):
        keys = list(p)
        return all(exprs._mono_cmp(a, b) > 0 for a, b in zip(keys, keys[1:]))

    # a polynomial gcd, x - z: the cofactors x + y^2 + 1 and y + 2 come out
    # in descending graded-lex order, y^2 before x, as _pdiv_exact gives them
    x_z = poly(("z", -1), ("x", 1))
    num = exprs._pmul(poly(("1", 1), ("x", 1), ("y^2", 1)), x_z)
    den = exprs._pmul(poly(("1", 2), ("y", 1)), x_z)
    e = Expr._make(ctx, num, den)
    assert e == ctx.parse("(x + y^2 + 1)/(y + 2)")
    assert list(e._num) == list(poly(("y^2", 1), ("x", 1), ("1", 1)))
    assert descending(e._num) and descending(e._den)
    # a monomial gcd, x: x*z + x^2*y over x*y or over x*y + x
    for den in (poly(("x*y", 1)), poly(("x", 1), ("x*y", 1))):
        e = Expr._make(ctx, poly(("x*z", 1), ("x^2*y", 1)), den)
        assert list(e._num) == list(poly(("x*y", 1), ("z", 1)))
        assert descending(e._den)
    # a trivial gcd leaves the terms in the order they came in
    num = poly(("1", 1), ("x", 1), ("y^2", 1))
    den = poly(("y", 1), ("x", 2))
    e = Expr._make(ctx, num, den)
    assert (list(e._num), list(e._den)) == (list(num), list(den))
    assert e == ctx.parse("(1 + x + y^2)/(2*x + y)")


# exponents of x, y, z and f(x, y); x up to 2, so that terms need different
# powers of the denominator x is bound to
_SPEC = st.dictionaries(st.tuples(st.integers(0, 2), *[st.integers(0, 1)] * 3), _COEFF, min_size=1, max_size=3)
# Bound values are linear in each atom, with up to three terms; such draws
# once sent the pseudo-remainder Euclid into minutes-long gcds.
_BOUND = st.dictionaries(st.tuples(*[st.integers(0, 1)] * 4), _COEFF, min_size=1, max_size=3)


def _check_subs_against_termwise_reference(num, den, bx_num, bx_den, by):
    # e is a fraction of polynomials in x, y, z and f(x, y); x and y are bound,
    # z stays.  The reference substitutes monomial by monomial with Expr
    # arithmetic, so every intermediate result is canonicalized.
    ctx = Context()
    x, y, z = ctx.declare_symbols(["x", "y", "z"], "coordinate")
    f = ctx.declare_opaque("f", ["x", "y"])

    def build(spec, atoms):
        total = ctx.zero
        for exps, c in spec.items():
            term = ctx.expr(c)
            for atom, e in zip(atoms, exps):
                term = term * atom ** e
            total = total + term
        return total

    plain = [ctx.expr(x), ctx.expr(y), ctx.expr(z), ctx.apply(f, [x, y])]
    e_num, e_den = build(num, plain), build(den, plain)
    bx_d = build(bx_den, plain)
    if e_den.is_zero() or bx_d.is_zero():
        return
    e = e_num / e_den
    bindings = {x: build(bx_num, plain) / bx_d, y: build(by, plain)}
    images = [bindings[x], bindings[y], ctx.expr(z), ctx.apply(f, [bindings[x], bindings[y]])]
    ref_den = build(den, images)
    if ref_den.is_zero():  # a singular substitution; test_substitute_singular covers it
        return
    assert e.subs(bindings) == build(num, images) / ref_den


@settings(max_examples=60, deadline=None)
@given(_SPEC, _SPEC, _BOUND, _BOUND, _BOUND)
def test_subs_matches_termwise_reference(num, den, bx_num, bx_den, by):
    _check_subs_against_termwise_reference(num, den, bx_num, bx_den, by)


def test_subs_of_an_eighteen_over_fifteen_term_quotient():
    # x -> (2/3*x*y*z + 7/9*z - 7/9*f(x, y))/(x*y*z*f(x, y) + 5/6*y*z*f(x, y) - 5/6*y)
    # and y -> -2*x*f(x, y) + 4/3*y - 2*z in (-2/3*y*z*f(x, y) + x*f(x, y) - 5/9)/(x*y + x):
    # the reference's last step divides an 18-term expression by a 15-term
    # one, which kept the pseudo-remainder Euclid busy for more than a minute
    F = Fraction
    _check_subs_against_termwise_reference(
        {(0, 1, 1, 1): F(-2, 3), (1, 0, 0, 1): F(1), (0, 0, 0, 0): F(-5, 9)},
        {(1, 1, 0, 0): F(1), (1, 0, 0, 0): F(1)},
        {(1, 1, 1, 0): F(2, 3), (0, 0, 1, 0): F(7, 9), (0, 0, 0, 1): F(-7, 9)},
        {(1, 1, 1, 1): F(1), (0, 1, 1, 1): F(5, 6), (0, 1, 0, 0): F(-5, 6)},
        {(1, 0, 0, 1): F(-2), (0, 1, 0, 0): F(4, 3), (0, 0, 1, 0): F(-2)},
    )


def test_diff_is_the_limit_of_difference_quotients(ctx):
    rng = random.Random(5)
    h = ctx.declare_symbol("h", "auxiliary")
    x = ctx.get_symbol("x")
    atoms = [ctx.sym("x"), ctx.sym("y"), ctx.sym("z")]
    shifted = {x: ctx.sym("x") + ctx.expr(h)}
    for _ in range(40):
        e = random_expr(ctx, rng, atoms, depth=3)
        quotient = (e.subs(shifted) - e) / ctx.expr(h)
        assert quotient.subs({h: 0}) == e.diff(x)


def test_subs_diff_and_total_derivative_canonicalize_once(ctx, monkeypatch):
    from cartaneq.jets import JetSpace, total_derivative

    made = []
    make = Expr._make

    def counting(*args):
        made.append(args)
        return make(*args)

    monkeypatch.setattr(Expr, "_make", staticmethod(counting))
    x, y, z = (ctx.get_symbol(n) for n in "xyz")
    poly = ctx.parse("x^3*y - 2*x*y*z + z^2 + 7")
    bound = {x: ctx.parse("y + z"), y: 2}
    made.clear()
    out = poly.subs(bound)
    assert len(made) == 1
    assert out == ctx.parse("2*(y + z)^3 - 4*(y + z)*z + z^2 + 7")

    rational = ctx.parse("(x^2*y + z)/(x - y^2)")
    made.clear()
    out = rational.diff(x)
    assert len(made) == 1
    assert out == ctx.parse("((2*x*y)*(x - y^2) - (x^2*y + z))/(x - y^2)^2")

    sp = JetSpace(ctx, [x], [ctx.get_symbol("u")])
    e = ctx.parse("L_p(x,u,p)*u/(x + L(x,u,p)) + f(x,u)^2").subs({ctx.get_symbol("p"): sp.jet_expr(0, (1,))})
    opaque = [a for a in e.atoms() if not isinstance(a, exprs.Symbol)]
    assert len(opaque) == 3
    made.clear()
    total_derivative(sp, e, 0)
    assert len(made) <= 1 + len(opaque)
