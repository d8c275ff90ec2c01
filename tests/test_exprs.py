import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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

from cartaneq.jets import crosscheck_characters
from genutil import corpus_problem, random_expr, random_fraction, recorded_calls


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


def _all_atoms(e: Expr):
    """The atoms of e, including those inside opaque-function arguments."""
    seen = set()
    stack = [e]
    while stack:
        for atom in stack.pop().atoms():
            if id(atom) not in seen:
                seen.add(id(atom))
                yield atom
                if isinstance(atom, exprs.OpaqueAtom):
                    stack.extend(atom.args)


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
                for atom in _all_atoms(e):
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
    # stored as integer polynomials, printed with the denominator made monic;
    # each text -> its form, d/dx, d/dy and y -> x/3 + 1/2
    x, y = ctx.get_symbol("x"), ctx.get_symbol("y")
    for text, want in [
        ("1/(2*x - 2)", ["(1/2)/(x - 1)", "(-1/2)/(x^2 - 2*x + 1)", "0", "(1/2)/(x - 1)"]),
        ("x/(2*y + 1)", ["(1/2*x)/(y + 1/2)", "(1/2)/(y + 1/2)", "(-1/2*x)/(y^2 + y + 1/4)", "(3/2*x)/(x + 3)"]),
        ("x/2", ["1/2*x", "1/2", "0", "1/2*x"]),
        ("1/(-2*x)", ["(-1/2)/(x)", "(1/2)/(x^2)", "0", "(-1/2)/(x)"]),
        ("f(x/2, y)/(3*y)", ["(1/3*f(1/2*x, y))/(y)", "(1/6*f_x(1/2*x, y))/(y)",
                             "(1/3*y*f_y(1/2*x, y) - 1/3*f(1/2*x, y))/(y^2)", "(f(1/2*x, 1/3*x + 1/2))/(x + 3/2)"]),
    ]:
        e = ctx.parse(text)
        assert [str(e), str(e.diff(x)), str(e.diff(y)), str(e.subs({y: ctx.parse("x/3 + 1/2")}))] == want
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
        lambda: Expr._make(ctx, {0: Fraction(1)}, {}),
    ):
        with pytest.raises(DivisionByZeroError) as err:
            divide()
        assert isinstance(err.value, ExprError) and isinstance(err.value, ZeroDivisionError)


def test_gcd_probe_declines_and_skips(ctx):
    x = ctx.get_symbol("x")

    def univar(text):
        return exprs._as_univar(ctx.parse(text)._num, x._shift)

    probe = exprs._gcd_probe_trivial
    assert probe(univar("x + y"), univar("x - y")) is True
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
    """The Polys in x, y, z, w of ``_SMALL_POLY``-like specs (an exponent
    tuple may stop before w), and their context."""
    ctx = Context()
    atoms = ctx.declare_symbols(["x", "y", "z", "w"], "coordinate")

    def poly(spec):
        total = ctx.zero
        for exps, c in spec.items():
            term = ctx.expr(c)
            for atom, e in zip(atoms, exps):
                term = term * ctx.expr(atom) ** e
            total = total + term
        return total._num

    return ctx, [poly(s) for s in specs]


def _ints(p):
    """p times the lcm of its coefficient denominators: an integer polynomial."""
    den = math.lcm(*(Fraction(c).denominator for c in p.values()))
    return {m: int(c * den) for m, c in p.items()}


def _monic(p):
    """p scaled to the coefficient 1 at its largest monomial."""
    c = p[max(p)]
    return {m: Fraction(v, c) for m, v in p.items()}


def _no_heuristic(mp):
    """Make GCDHEU give up, so that every gcd, contents included, is the
    subresultant PRS."""
    mp.setattr(exprs, "_zz_heu_gcd", lambda f, g: None)


def _prs_gcd(p, q):
    """The gcd of the nonzero Polys p and q by the subresultant PRS alone,
    with none of ``_gcd_cofactors``' shortcuts: an integer polynomial."""
    with pytest.MonkeyPatch.context() as mp:
        _no_heuristic(mp)
        return exprs._pgcd(_ints(p), _ints(q))


@settings(max_examples=60, deadline=None)
@given(_SMALL_POLY, _SMALL_POLY, _SMALL_POLY)
def test_pgcd_probe_agrees_with_full_euclid(g, a, b):
    # the subresultant PRS with its "the gcd is 1" probe on and off
    _, (g, a, b) = _small_polys(g, a, b)
    if not g or not a or not b:
        return
    g = _ints(g)
    ga, gb = exprs._pmul(g, _ints(a)), exprs._pmul(g, _ints(b))
    with pytest.MonkeyPatch.context() as mp:
        _no_heuristic(mp)
        probed = exprs._pgcd(ga, gb)
        mp.setattr(exprs, "_gcd_probe_trivial", lambda a, b: False)
        assert exprs._pgcd(ga, gb) == probed
    assert exprs._zz_div(ga, probed) is not None and exprs._zz_div(gb, probed) is not None
    assert exprs._zz_div(probed, g) is not None  # g divides the gcd


@settings(max_examples=60, deadline=None)
@given(_SMALL_POLY, _SMALL_POLY, _SMALL_POLY)
def test_heuristic_gcd_agrees_with_euclid(g, a, b):
    ctx, (g, a, b) = _small_polys(g, a, b)
    ga, gb = exprs._pmul(g, a), exprs._pmul(g, b)
    if not ga or not gb:
        return
    h, qa, qb = exprs._gcd_cofactors(ga, gb)
    assert _monic(h) == _monic(_prs_gcd(ga, gb))
    assert exprs._pmul(h, qa) == ga and exprs._pmul(h, qb) == gb
    # with GCDHEU giving up, _make takes the PRS to the same terms in the
    # same order
    made = Expr._make(ctx, ga, gb)
    with pytest.MonkeyPatch.context() as mp:
        _no_heuristic(mp)
        exact = Expr._make(ctx, ga, gb)
    assert list(made._num.items()) == list(exact._num.items())
    assert list(made._den.items()) == list(exact._den.items())


def _items(polys):
    return [list(p.items()) for p in polys]


def _uncertified_gcd(p, q):
    """``_gcd_cofactors`` without the private-atom certificate."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exprs, "_private_coefficient_is_a_term", lambda p, private: False)
        return exprs._gcd_cofactors(p, q)


# g in the shared atoms x, y, often a monomial; a adds the atom z that only
# p = g*a has, b the atom w that only q = g*b has
_SHARED_MONO = st.tuples(st.integers(0, 2), st.integers(0, 2))
_P_MONO = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
_Q_MONO = st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0), st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_SHARED_MONO, _COEFF, min_size=1, max_size=2),
       st.dictionaries(_P_MONO, _COEFF, min_size=2, max_size=3),
       st.dictionaries(_Q_MONO, _COEFF, min_size=2, max_size=3))
def test_private_atom_certificate_agrees_with_the_uncertified_gcd(g, a, b):
    _, (g, a, b) = _small_polys(g, a, b)
    p, q = exprs._pmul(g, a), exprs._pmul(g, b)
    if not p or not q:
        return
    h, hp, hq = exprs._gcd_cofactors(p, q)
    assert exprs._pmul(h, hp) == p and exprs._pmul(h, hq) == q
    assert _monic(h) == _monic(_prs_gcd(p, q))
    # the same gcd and cofactors, term for term and in the same order
    assert _items((h, hp, hq)) == _items(_uncertified_gcd(p, q))


def _guard_bit(atom):
    return 1 << (atom._shift + 15)


def test_private_atom_certificate_keeps_the_monomial_content(ctx):
    x, z = ctx.get_symbol("x"), ctx.get_symbol("z")
    # p = x*y*(x*z + y + 1): its coefficient of z, x^2*y, is one term, so the
    # gcd with q = x^2*(x + y) is the gcd x of the monomial contents x*y, x^2
    p, q = ctx.parse("x*y*(x*z + y + 1)")._num, ctx.parse("x^2*(x + y)")._num
    assert exprs._private_coefficient_is_a_term(p, _guard_bit(z))
    got = exprs._gcd_cofactors(p, q)
    assert got[0] == {1 << x._shift: 1}
    assert got[1] == ctx.parse("y*(x*z + y + 1)")._num and got[2] == ctx.parse("x*(x + y)")._num
    assert _items(got) == _items(_uncertified_gcd(p, q))


def test_private_atom_certificate_leaves_two_term_coefficients_to_gcdheu(ctx):
    z = ctx.get_symbol("z")
    # p = (x + y)*(z + 1): both coefficients in z are x + y, and q has no
    # atom that p lacks, so only the dense gcd finds x + y
    p, q = ctx.parse("(x + y)*(z + 1)")._num, ctx.parse("(x + y)*(x - y)")._num
    assert not exprs._private_coefficient_is_a_term(p, _guard_bit(z))
    assert not exprs._private_coefficient_is_a_term(q, 0)
    h, hp, hq = exprs._gcd_cofactors(p, q)
    assert _monic(h) == ctx.parse("x + y")._num
    assert hp == ctx.parse("z + 1")._num and hq == ctx.parse("x - y")._num


def test_the_lagrangian_crosscheck_runs_few_dense_gcds(monkeypatch):
    # each dense GCDHEU run puts both sides in dense form; without the
    # private-atom certificate the crosscheck makes 63 runs, with it 30
    problem = corpus_problem("lagrangian")
    forms = recorded_calls(monkeypatch, exprs, "_zz_form")
    result = crosscheck_characters(problem, random.Random(0))
    assert result.equal and result.jet_s == [3, 1, 1]
    assert len(forms) <= 64


def test_exponents_above_255_stay_on_the_heuristic_gcd(ctx):
    # the heuristic works on the packed monomials, whose fields hold
    # exponents up to 2**15 - 1, not on bytes
    p, q = ctx.parse("x^256 + y")._num, ctx.parse("x + y")._num
    assert exprs._gcd_cofactors(p, q) == ({0: 1}, p, q)
    assert ctx.parse("(x^256*y - x*y)/(x^2*y + x*y)") == ctx.parse("(x^255 - 1)/(x + 1)")


def test_an_exponent_stops_below_the_guard_bit(ctx):
    # a field holds exponents up to 2**15 - 1; one more raises instead of
    # carrying into the field of the next atom
    x, y = ctx.sym("x"), ctx.sym("y")
    top = x ** 32767
    assert str(top * y) == "x^32767*y"
    with pytest.raises(exprs.ExponentLimitError):
        top * x
    with pytest.raises(exprs.ExponentLimitError):
        (x ** 20000 * y) ** 2
    with pytest.raises(exprs.ExponentLimitError):
        ctx.parse("x^40000")
    assert issubclass(exprs.ExponentLimitError, ExprError)


def test_a_context_has_an_exponent_field_for_each_of_4096_atoms():
    ctx = Context()
    names = [f"s{i}" for i in range(exprs._FIELDS)]
    ctx.declare_symbols(names)
    assert str(ctx.sym(names[0]) * ctx.sym(names[-1]) ** 2) == "s0*s4095^2"
    with pytest.raises(ExprError, match="at most 4096 atoms"):
        ctx.declare_symbol("one_more")
    assert not ctx.has_symbol("one_more")


def _pack(fields, exponents):
    return sum(e << 16 * f for f, e in zip(fields, exponents))


# exponents near 0, near the field limit 2**15 - 1 and between
_EXPONENT = st.one_of(st.integers(0, 3), st.integers(exprs._LIMIT - 3, exprs._LIMIT - 1),
                      st.integers(0, exprs._LIMIT - 1))
# one to four distinct fields anywhere in a context, often far apart, and
# the exponent vectors of two monomials over them
_VECTORS = st.lists(st.integers(0, exprs._FIELDS - 1), min_size=1, max_size=4, unique=True).flatmap(
    lambda fields: st.tuples(st.just(fields), *[st.lists(_EXPONENT, min_size=len(fields), max_size=len(fields))] * 2))


@settings(max_examples=300, deadline=None)
@given(_VECTORS)
def test_packed_monomials_agree_with_exponent_vectors(vectors):
    fields, u, v = vectors
    a, b = _pack(fields, u), _pack(fields, v)
    if all(i + j < exprs._LIMIT for i, j in zip(u, v)):
        assert exprs._pmul({a: 1}, {b: 1}) == {_pack(fields, map(sum, zip(u, v))): 1}
    else:
        with pytest.raises(exprs.ExponentLimitError):
            exprs._pmul({a: 1}, {b: 1})
    divides = all(j <= i for i, j in zip(u, v))
    assert exprs._mono_divides(b, a) == divides
    if divides:
        assert a - b == _pack(fields, [i - j for i, j in zip(u, v)])
    assert exprs._mono_gcd(a, b) == _pack(fields, map(min, u, v))
    assert exprs._mono_lcm(a, b) == _pack(fields, map(max, u, v))
    assert exprs._psupport({a: 1, b: 2}) == sum(1 << 16 * f + 15 for f, i, j in zip(fields, u, v) if i or j)
    decoded = exprs._exponents(a)
    assert decoded == sorted(((16 * f, i) for f, i in zip(fields, u) if i), reverse=True)
    assert sum(e for _, e in decoded) == sum(u)  # the degree
    # one atom's field split off and put back
    s = 16 * fields[0]
    poly = {a: 1} if a == b else {a: 1, b: 2}
    univar = exprs._as_univar(poly, s)
    want: dict = {}
    for m, c, e in ((a, 1, u[0]), (b, 2, v[0]))[:len(poly)]:
        want.setdefault(e, {})[m - (e << s)] = c
    assert univar == want
    assert {m + (e << s): c for e, coeff in univar.items() for m, c in coeff.items()} == poly


def test_canonical_form_does_not_depend_on_atom_creation_order():
    # the fields follow creation order, the printed and structural forms the
    # sort keys: L_p < L_pp < L_x < L_up, whichever was made first
    derivs = [(0, 0, 2), (0, 0, 1), (1, 0, 0), (0, 1, 1), (0, 0, 0)]

    def context(order):
        ctx = Context()
        x, u, p = ctx.declare_symbols(["x", "u", "p"], "coordinate")
        L = ctx.declare_opaque("L", ["x", "u", "p"])
        for d in order:
            ctx.atom(L, [x, u, p], d)
        return ctx

    texts = [
        "L_pp(x,u,p)*L_p(x,u,p) + L_x(x,u,p)^2 - 3*p*L_up(x,u,p) + L(x,u,p)",
        "(L_p(x,u,p) - L_pp(x,u,p))/(L_x(x,u,p) + 2*L_pp(x,u,p))",
        "(x*L_up(x,u,p) + u^2)/(3*L_x(x,u,p)*L_p(x,u,p) - L_pp(x,u,p)^2 + p)",
        "L_pp(x,u,p)/(2*L_up(x,u,p) - 4*L_p(x,u,p))",
    ]
    one, other = context(derivs), context(reversed(derivs))
    assert [a.sort_key for a in one._fields] != [a.sort_key for a in other._fields]
    for text in texts:
        e, f = one.parse(text), other.parse(text)
        assert str(e) == str(f)
        assert one.parse(str(e)) == e and other.parse(str(f)) == f and other.parse(str(e)) == f
        assert e._struct_key() == f._struct_key()
        assert e.leading_sign() == f.leading_sign()


def test_make_orders_terms_as_exact_division_does(ctx):
    # _make emits the terms of a cancelled quotient in the order exact
    # division (_zz_div) gives them: descending in the integer order of
    # monomials, where the field of the atom made last (here z, then y,
    # then x) is the most significant.  No output depends on it: sampled points bind atoms in
    # sort-key order, and tests/test_problems_cli.py permutes term order.
    def poly(*terms):
        return {ctx.parse(t)._num.popitem()[0]: c for t, c in terms}

    def descending(p):
        keys = list(p)
        return keys == sorted(keys, reverse=True)

    # a polynomial gcd, x - z: the cofactors x + y^2 + 1 and y + 2 come out
    # in descending order, y^2 before x, as _zz_div gives them
    x_z = poly(("z", -1), ("x", 1))
    num = exprs._pmul(poly(("1", 1), ("x", 1), ("y^2", 1)), x_z)
    den = exprs._pmul(poly(("1", 2), ("y", 1)), x_z)
    e = Expr._make(ctx, num, den)
    assert e == ctx.parse("(x + y^2 + 1)/(y + 2)")
    assert list(e._num) == list(poly(("y^2", 1), ("x", 1), ("1", 1))) == list(exprs._zz_div(num, x_z))
    assert descending(e._num) and descending(e._den)
    # a monomial gcd, x: x*z + x^2*y over x*y or over x*y + x
    for den in (poly(("x*y", 1)), poly(("x", 1), ("x*y", 1))):
        e = Expr._make(ctx, poly(("x*z", 1), ("x^2*y", 1)), den)
        assert list(e._num) == list(poly(("z", 1), ("x*y", 1)))
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


def test_operators_take_only_the_cross_gcds(ctx, monkeypatch):
    # canonical operands are coprime, so +, * and / take a gcd only where
    # factors of different operands can meet
    pairs = []
    cofactors = exprs._gcd_cofactors

    def counting(p, q):
        pairs.append((p, q))
        return cofactors(p, q)

    monkeypatch.setattr(exprs, "_gcd_cofactors", counting)
    P = ctx.parse
    poly, other = P("x^2 + y"), P("x - z")
    u, v = P("(x + y)/(x - z)"), P("(y + z)/(x + 1)")
    (a, b), (c, d) = (u._num, u._den), (v._num, v._den)
    for op, want in [
        (lambda: poly * other, []),
        (lambda: poly + v, []),
        (lambda: v - poly, []),
        (lambda: u * v, [(a, d), (c, b)]),
        (lambda: u / v, [(a, c), (d, b)]),
        (lambda: u + v, [(b, d)]),
    ]:
        pairs.clear()
        op()
        assert pairs == want
    # a shared denominator factor: gcd(b, d), then gcd(t, g) with g = x - z
    w, total = P("y/((x - z)*(y + 2))"), P("((x + y)*(y + 2) + y)/((x - z)*(y + 2))")
    pairs.clear()
    assert u + w == total
    assert len(pairs) == 2 and pairs[0] == (b, w._den)
    assert _monic(pairs[1][1]) == _monic(other._num)


# exponents of x, y and f(x, y)
_FACTOR = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)), _COEFF.filter(bool), min_size=1, max_size=3)
# an operand: its own numerator and denominator factors, and the powers of two
# shared factors S and T in each, so that cross gcds are nontrivial
_OPERAND = st.tuples(_FACTOR, _FACTOR, *[st.integers(0, 2)] * 4)


def _full_route(op, u, v, k):
    """u op v through one _make of the full product or sum: the reference
    the operators' cross gcds must agree with."""
    ctx, make = u.ctx, Expr._make
    a, b, c, d = u._num, u._den, v._num, v._den
    if op == "-":
        op, c = "+", exprs._pneg(c)
    if op == "+":
        if b == d:
            return make(ctx, exprs._padd(a, c), b)
        return make(ctx, exprs._padd(exprs._pmul(a, d), exprs._pmul(c, b)), exprs._pmul(b, d))
    if op == "*":
        return make(ctx, exprs._pmul(a, c), exprs._pmul(b, d))
    if op == "/":
        return make(ctx, exprs._pmul(a, d), exprs._pmul(b, c))
    if k < 0:
        return make(ctx, exprs._ppow(b, -k), exprs._ppow(a, -k))
    return make(ctx, exprs._ppow(a, k), exprs._ppow(b, k))


@pytest.mark.parametrize("gcd", ["heuristic", "exact"])
@settings(max_examples=80, deadline=None)
@given(op=st.sampled_from(["+", "-", "*", "/", "**"]), shared=st.tuples(_FACTOR, _FACTOR),
       left=_OPERAND, right=_OPERAND, k=st.integers(-2, 3))
# Draws on which the exact gcd before the subresultant PRS, a primitive PRS on
# rational polynomials with a content per step, ran for minutes: in the
# forced exact route, or in the coprimality check of the heuristic variant.
@example(  # --hypothesis-seed=9
    op="*", k=3,
    shared=({(1, 1, 1): Fraction(-1, 2), (0, 1, 0): Fraction(-2), (1, 0, 0): Fraction(-2)},
            {(2, 1, 0): Fraction(1, 3), (0, 1, 0): Fraction(-1), (2, 0, 1): Fraction(5, 3)}),
    left=({(0, 0, 1): Fraction(-1, 3), (1, 1, 1): Fraction(-1), (0, 1, 1): Fraction(1, 2)},
          {(0, 1, 0): Fraction(5, 3), (1, 0, 0): Fraction(-1), (0, 0, 0): Fraction(3)}, 2, 1, 0, 0),
    right=({(1, 1, 0): Fraction(-1, 3), (0, 0, 0): Fraction(1)},
           {(0, 0, 0): Fraction(-1), (2, 0, 1): Fraction(-3), (2, 1, 0): Fraction(-5, 2)}, 1, 0, 0, 2),
)
@example(  # --hypothesis-seed=34
    op="/", k=1,
    shared=({(1, 0, 0): Fraction(1), (0, 0, 1): Fraction(1, 3), (2, 1, 0): Fraction(-2)},
            {(1, 1, 1): Fraction(-3), (0, 1, 0): Fraction(1)}),
    left=({(2, 1, 0): Fraction(-1, 3)},
          {(0, 1, 0): Fraction(1), (1, 0, 1): Fraction(-1), (1, 1, 1): Fraction(-5, 2)}, 2, 0, 0, 0),
    right=({(1, 1, 1): Fraction(-1), (2, 0, 1): Fraction(-2, 3), (0, 1, 0): Fraction(-1, 2)},
           {(2, 1, 1): Fraction(8, 3)}, 0, 0, 1, 2),
)
@example(  # --hypothesis-seed=40
    op="/", k=0,
    shared=({(1, 1, 1): Fraction(-2), (0, 0, 0): Fraction(2, 3), (1, 0, 0): Fraction(-1)},
            {(1, 0, 0): Fraction(-3), (0, 0, 0): Fraction(3)}),
    left=({(0, 1, 1): Fraction(-3, 2), (1, 0, 1): Fraction(-2), (2, 0, 0): Fraction(1)},
          {(1, 1, 0): Fraction(-2)}, 1, 2, 0, 0),
    right=({(2, 0, 0): Fraction(-5, 3), (0, 0, 0): Fraction(1, 2)},
           {(1, 0, 0): Fraction(2)}, 2, 0, 0, 2),
)
@example(  # --hypothesis-seed=41
    op="+", k=1,
    shared=({(2, 1, 1): Fraction(-2)},
            {(1, 1, 1): Fraction(-1)}),
    left=({(0, 0, 1): Fraction(-7, 3), (0, 0, 0): Fraction(1)},
          {(0, 1, 0): Fraction(-1), (0, 0, 0): Fraction(2), (2, 1, 1): Fraction(-1)}, 1, 0, 0, 1),
    right=({(1, 1, 0): Fraction(-3), (0, 0, 0): Fraction(1), (1, 0, 1): Fraction(-3)},
           {(2, 0, 1): Fraction(-8, 3), (0, 1, 0): Fraction(1), (1, 1, 1): Fraction(-2)}, 0, 0, 1, 0),
)
@example(  # --hypothesis-seed=49
    op="*", k=0,
    shared=({(2, 1, 1): Fraction(3), (0, 1, 1): Fraction(-3)},
            {(2, 0, 0): Fraction(-1)}),
    left=({(2, 0, 0): Fraction(-2)},
          {(2, 0, 0): Fraction(-1), (0, 1, 1): Fraction(-1, 2), (1, 1, 0): Fraction(-3)}, 2, 0, 1, 2),
    right=({(1, 0, 0): Fraction(-3), (0, 1, 1): Fraction(-3), (2, 1, 0): Fraction(-1)},
           {(0, 0, 0): Fraction(2), (0, 1, 1): Fraction(-3), (2, 0, 0): Fraction(-3)}, 1, 0, 1, 1),
)
def test_operators_agree_with_the_full_product_route(gcd, op, shared, left, right, k):
    ctx = Context()
    x, y = ctx.declare_symbols(["x", "y"], "coordinate")
    atoms = [ctx.expr(x), ctx.expr(y), ctx.apply(ctx.declare_opaque("f", ["x", "y"]), [x, y])]

    def build(spec):
        total = ctx.zero
        for exps, c in spec.items():
            term = ctx.expr(c)
            for atom, e in zip(atoms, exps):
                term = term * atom ** e
            total = total + term
        return total._num

    S, T = map(build, shared)

    def operand(spec):
        num, den, si, ti, sj, tj = spec
        num = exprs._pmul(exprs._pmul(build(num), exprs._ppow(S, si)), exprs._ppow(T, ti))
        den = exprs._pmul(exprs._pmul(build(den), exprs._ppow(S, sj)), exprs._ppow(T, tj))
        return Expr._make(ctx, num, den) if den else None

    u, v = operand(left), operand(right)
    if u is None or v is None or (op == "/" and not v) or (op == "**" and k < 0 and not u):
        return
    with pytest.MonkeyPatch.context() as mp:
        if gcd == "exact":  # the route that the gcd takes when GCDHEU gives up
            _no_heuristic(mp)
        got = {"+": u.__add__, "-": u.__sub__, "*": u.__mul__, "/": u.__truediv__, "**": lambda _: u ** k}[op](v)
    # the canonical form is unique, so the oracle may take either gcd
    want = _full_route(op, u, v, k)
    assert got == want
    assert (str(got), hash(got)) == (str(want), hash(want))
    assert not got._num or exprs._pconst(_prs_gcd(got._num, got._den)) is not None
    # integer coefficients with joint content 1 and a positive leading
    # denominator coefficient: the one representative of got
    coeffs = [*got._num.values(), *got._den.values()]
    assert all(type(c) is int for c in coeffs) and math.gcd(*coeffs) == 1 and ctx._lead(got._den)[1] > 0


# A step of a random computation in x, y and f(x, y): an operation, two
# operands picked from the values so far, a rational and a small int.
_OPS = {
    "+": lambda a, b, c, k, x, y: a + b,
    "-": lambda a, b, c, k, x, y: a - b,
    "*": lambda a, b, c, k, x, y: a * b,
    "/": lambda a, b, c, k, x, y: a / b,
    "**": lambda a, b, c, k, x, y: a ** k,
    "scalars": lambda a, b, c, k, x, y: c * a - k,
    "rdiv": lambda a, b, c, k, x, y: c / a + Fraction(k, 3),
    "subs": lambda a, b, c, k, x, y: a.subs({x: b, y: c}),
    "diff": lambda a, b, c, k, x, y: a.diff(x if k % 2 else y),
}
_STEP = st.tuples(st.sampled_from(sorted(_OPS)), st.integers(0, 99), st.integers(0, 99), _COEFF, st.integers(-2, 3))


def _all_fraction(e):
    """e with every coefficient stored as a Fraction, integral ones too."""
    return Expr(e.ctx, {m: Fraction(c) for m, c in e._num.items()}, {m: Fraction(c) for m, c in e._den.items()})


@pytest.mark.parametrize("gcd", ["heuristic", "exact"])
@settings(max_examples=80, deadline=None)
@given(steps=st.lists(_STEP, min_size=1, max_size=6))
def test_coefficients_are_ints_or_fractions_with_a_denominator(gcd, steps):
    ctx = Context()
    x, y = ctx.declare_symbols(["x", "y"], "coordinate")
    f = ctx.declare_opaque("f", ["x", "y"])
    values = [ctx.expr(x), ctx.apply(f, [x, y]), ctx.expr(Fraction(4, 2)), ctx.parse("2*x + 3*y"), ctx.parse("x/2 - 2/3*y")]
    with pytest.MonkeyPatch.context() as mp:
        if gcd == "exact":  # the route that _make takes when GCDHEU gives up
            _no_heuristic(mp)
        for op, i, j, c, k in steps:
            a, b = values[i % len(values)], values[j % len(values)]
            try:
                values.append(_OPS[op](a, b, c, k, x, y))
            except (DivisionByZeroError, SingularSubstitutionError):
                pass
    for e in values:
        inner = [arg for atom in _all_atoms(e) if isinstance(atom, exprs.OpaqueAtom) for arg in atom.args]
        for part in [e, *inner]:
            for coeff in [*part._num.values(), *part._den.values()]:
                assert type(coeff) is int, (e, coeff)
        value = e.as_fraction()
        assert value is None or type(value) is Fraction
        for point in ({a: n + 2 for n, a in enumerate(e.atoms())}, {a: Fraction(n + 2, 3) for n, a in enumerate(e.atoms())}):
            try:
                assert type(e.eval_at(point)) is Fraction
            except PoleError:
                pass
        # the ints change no observable: the all-Fraction form of the same
        # terms compares, hashes, prints and keys the same
        old = _all_fraction(e)
        assert old == e and e == old
        assert (hash(old), str(old), old._struct_key()) == (hash(e), str(e), e._struct_key())
