"""Exact rational expression kernel.

Every scalar in the package is an :class:`Expr`: a canonical fraction of
multivariate polynomials with integer coefficients, so polynomial work runs
on C integer arithmetic.  ``Context.expr`` takes a ``fractions.Fraction``
apart into two ints, and a Fraction is made only where a value is asked for:
``as_fraction``, ``eval_at`` and ``Expr._monic``.  The indeterminates
("atoms") are either declared :class:`Symbol` objects or :class:`OpaqueAtom`
applications of undetermined functions which carry an accumulated
multi-index of partial derivatives (so mixed partials commute by
construction).

Each atom owns a 16-bit exponent field of its Context, handed out in creation
order, and a monomial is one ``int`` over those fields, so the product of two
monomials is one integer addition.  An exponent is below 2**15.

Canonical form: numerator and denominator are coprime integer polynomials
whose coefficients together have gcd 1, and the denominator's leading
coefficient is positive in a fixed graded-lexicographic monomial order by atom
``sort_key`` (Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*,
1992).  Two Expr values are structurally equal iff they are equal as rational
expressions, which makes ``is_zero`` (and hence all rank computations
downstream) decidable.  Dividing both by that leading coefficient gives the
monic form, in which the printed form and ``_struct_key`` are written.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import or_
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "ExprError",
    "DivisionByZeroError",
    "PoleError",
    "SingularSubstitutionError",
    "UnboundAtomError",
    "ExponentLimitError",
    "Symbol",
    "OpaqueFunc",
    "OpaqueAtom",
    "Context",
    "Expr",
    "Scalar",
]

KINDS = ("coordinate", "group-parameter", "jet-variable", "auxiliary")


class ExprError(Exception):
    """Base error of the expression kernel."""


class DivisionByZeroError(ExprError, ZeroDivisionError):
    """An exact division by the zero polynomial or expression."""


class PoleError(ExprError):
    """Numeric evaluation hit a zero denominator."""


class SingularSubstitutionError(ExprError):
    """A substitution made a denominator vanish identically."""


class UnboundAtomError(ExprError):
    """Numeric evaluation found an atom without a binding."""


class ExponentLimitError(ExprError):
    """An exponent reached 2**15, the guard bit of its atom's field."""


class Symbol:
    """A declared indeterminate with a fixed kind and creation order."""

    __slots__ = ("name", "kind", "order", "_key", "_shift")

    def __init__(self, name: str, kind: str, order: int):
        if kind not in KINDS:
            raise ExprError(f"unknown symbol kind {kind!r}")
        self.name = name
        self.kind = kind
        self.order = order
        self._key = (0, order)

    @property
    def sort_key(self):
        return self._key

    def __repr__(self):
        return f"Symbol({self.name})"

    def __str__(self):
        return self.name


class OpaqueFunc:
    """An undetermined function symbol with named argument slots."""

    __slots__ = ("name", "slots", "order")

    def __init__(self, name: str, slots: tuple[str, ...], order: int):
        if len(slots) < 1:
            raise ExprError("opaque function needs at least one argument slot")
        if len(set(slots)) != len(slots):
            raise ExprError(f"duplicate slot names in {name}")
        self.name = name
        self.slots = slots
        self.order = order

    @property
    def arity(self) -> int:
        return len(self.slots)

    def __repr__(self):
        return f"OpaqueFunc({self.name}({', '.join(self.slots)}))"


class OpaqueAtom:
    """An application of an OpaqueFunc, with accumulated partial derivatives.

    ``deriv`` counts derivatives per argument slot; it is a multiset, so the
    atom for L_px and L_xp is the identical object.  Atoms are interned by the
    owning Context, so identity comparison is safe inside polynomial dicts.
    """

    __slots__ = ("func", "deriv", "args", "_key", "_free", "_shift")

    def __init__(self, func: OpaqueFunc, deriv: tuple[int, ...], args: tuple["Expr", ...]):
        self.func = func
        self.deriv = deriv
        self.args = args
        self._key = (1, func.order, deriv, tuple(a._struct_key() for a in args))
        free: set[Symbol] = set()
        for a in args:
            free |= a.free_symbols
        self._free = frozenset(free)

    @property
    def sort_key(self):
        return self._key

    @property
    def name(self) -> str:
        suffix = "".join(s * d for s, d in zip(self.func.slots, self.deriv))
        return self.func.name + ("_" + suffix if suffix else "")

    def __str__(self):
        return f"{self.name}({', '.join(str(a) for a in self.args)})"

    def __repr__(self):
        return f"OpaqueAtom({self})"


Atom = Union[Symbol, OpaqueAtom]
Scalar = Union[int, Fraction, "Expr"]

# A monomial is one int.  Each atom owns a 16-bit field of its Context, at
# the shift ``atom._shift``: its exponent sits in the field's low 15 bits,
# and the top bit is the field's guard bit, clear in every stored monomial.
# 0 is the monomial 1, and m1 + m2 is the product of two monomials: no field
# can carry, and an exponent that reaches the guard bit raises
# ExponentLimitError.  Integer order on monomials is a lex order, with the
# atom made last the most significant; the kernel divides and stores terms
# in it.  The canonical graded-lex order by atom sort_key, which str,
# _struct_key and the sign of the denominator follow, is read through the
# Context's rank table.  A polynomial is a dict monomial -> nonzero int
# coefficient.
Mono = int
Poly = dict
Coeff = int

_FIELDS = 1 << 12  # exponent fields, and so atoms, of one Context
_LIMIT = 1 << 15  # the least exponent that reaches a guard bit
_GUARD = int.from_bytes(b"\x80\x00" * _FIELDS, "big")  # every field's guard bit


def _guards(m: Mono) -> int:
    """The guard bits of the fields up to m's highest."""
    return _GUARD & ~(-1 << (m.bit_length() + 15))


def _at_least(a: Mono, b: Mono) -> int:
    """The exponent bits of each field where a's exponent is at least b's."""
    g = _guards(a | b)
    t = ((a | g) - b) & g  # a set guard bit outweighs any exponent, so no field borrows
    return t - (t >> 15)


def _mono_divides(d: Mono, m: Mono) -> bool:
    # a field where d's exponent exceeds m's borrows its guard bit
    return m >= d and not (m - d) & _GUARD


def _mono_gcd(a: Mono, b: Mono) -> Mono:
    """The field-wise min of a and b."""
    return a ^ ((a ^ b) & _at_least(a, b))


def _mono_lcm(a: Mono, b: Mono) -> Mono:
    """The field-wise max of a and b."""
    return b ^ ((a ^ b) & _at_least(a, b))


def _psupport(p: Poly) -> int:
    """The guard bits of the fields of p's atoms: adding 2**15 - 1 to a
    field sets its guard bit exactly when it is nonzero."""
    m = reduce(or_, p, 0)
    g = _guards(m)
    return (m + g - (g >> 15)) & g


def _exponents(m: Mono) -> list[tuple[int, int]]:
    """(shift, exponent) of each nonzero field of m, highest first."""
    out = []
    while m:
        s = m.bit_length() - 1 & -16
        e = m >> s
        out.append((s, e))
        m ^= e << s
    return out


_ZERO = 0
_ONE = 1


def _padd(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, _ZERO) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _paddmul(acc: Poly, p: Poly, m: Mono, c: Coeff) -> None:
    """acc += c * m * p, in place."""
    for pm, pc in p.items():
        mm = m + pm
        s = acc.get(mm, _ZERO) + c * pc
        if s:
            acc[mm] = s
        else:
            acc.pop(mm, None)
    if m and reduce(or_, acc, 0) & _GUARD:
        raise ExponentLimitError(f"an exponent reached {_LIMIT}")


def _pneg(p: Poly) -> Poly:
    return {m: -c for m, c in p.items()}


def _pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return {}
    if len(p) > len(q):
        p, q = q, p
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = m1 + m2
            s = out.get(m, _ZERO) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    if reduce(or_, out, 0) & _GUARD:
        raise ExponentLimitError(f"an exponent reached {_LIMIT}")
    return out


def _ppow(p: Poly, n: int) -> Poly:
    result = {0: _ONE}
    base = p
    while n:
        if n & 1:
            result = _pmul(result, base)
        n >>= 1
        if n:
            base = _pmul(base, base)
    return result


def _pconst(p: Poly) -> Coeff | None:
    if not p:
        return _ZERO
    if len(p) == 1 and 0 in p:
        return p[0]
    return None


def _pmono_content(p: Iterable[Mono]) -> Mono:
    it = iter(p)
    g = next(it)
    for m in it:
        if not g:
            break
        g = _mono_gcd(g, m)
    return g


def _pdiv_mono(p: Poly, m: Mono) -> Poly:
    """p / m for a monomial m that divides every term of p, its terms in
    descending order."""
    return dict(sorted(((k - m, c) for k, c in p.items()), reverse=True))


def _as_univar(p: Poly, s: int) -> dict[int, Poly]:
    """p as a polynomial in the atom of shift s: degree -> coefficient."""
    out: dict[int, Poly] = {}
    for m, c in p.items():
        deg = m >> s & 0xFFFF
        out.setdefault(deg, {})[m ^ deg << s] = c
    return out


# The gcd-triviality probe works modulo this Mersenne prime.
_P = (1 << 61) - 1


def _dense_mod(u: dict[int, dict], point: dict) -> list[int]:
    """The integer univariate form u with its coefficient atoms bound to
    ``point`` (by field shift), as a dense list mod _P (constant term
    first)."""
    out = [0] * (max(u) + 1)
    for d, coeff in u.items():
        total = 0
        for m, c in coeff.items():
            val = c
            for s, e in _exponents(m):
                val = val * pow(point[s], e, _P) % _P
            total += val
        out[d] = total % _P
    return out


def _gf_gcd_degree(a: list[int], b: list[int]) -> int:
    """Degree of the gcd over GF(_P) of dense polynomials with nonzero
    leading coefficients (dense Euclid; both lists are consumed)."""
    while b:
        inv = pow(b[-1], -1, _P)
        while len(a) >= len(b):
            f = a[-1] * inv % _P
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % _P
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _gcd_probe_trivial(a: dict[int, dict], b: dict[int, dict]) -> bool:
    """Sound probe: True when the gcd of the integer univariate forms ``a``
    and ``b`` (both of positive degree in their variable) certainly has
    degree 0.

    Binds the coefficient atoms, in field order, to integers mod _P and
    decides at the first point where both leading coefficients survive.
    There a nontrivial gcd maps to a common divisor of the same degree, so a
    degree-0 gcd mod _P proves that the gcd has degree 0.  An unlucky prime
    or point only answers False, which sends the caller through the whole
    pseudo-remainder sequence."""
    others = sorted(s for s, _ in _exponents(reduce(or_, chain(*a.values(), *b.values()), 0)))
    for shiftbase in (2, 17, 53):
        point = {s: shiftbase + 3 * i for i, s in enumerate(others)}
        ae = _dense_mod(a, point)
        be = _dense_mod(b, point)
        if ae[-1] and be[-1]:
            return _gf_gcd_degree(ae, be) == 0
    return False


# The integer gcd works on integer polynomials: a dict from a monomial to a
# nonzero int.  Integer order on monomials is lex with the highest field the
# most significant, so max() finds a leading term.


def _zz_eval(f: dict, s: int, xi: int) -> dict:
    """f with the atom of shift s, f's highest field or above it, bound to
    xi."""
    powers = [1]
    for _ in range(max(f) >> s):
        powers.append(powers[-1] * xi)
    low = (1 << s) - 1
    out: dict = {}
    for e, c in f.items():
        r = e & low
        out[r] = out.get(r, 0) + c * powers[e >> s]
    return {r: c for r, c in out.items() if c}


def _zz_interpolate(h: dict, s: int, xi: int, cap: int) -> dict | None:
    """The polynomial whose coefficients in the atom of shift s, above h's
    fields, are the xi-adic digits of h's coefficients, in the symmetric
    range of xi, so that its value at xi is h; None when it has a degree
    above cap."""
    half = xi // 2
    out: dict = {}
    k = 0
    while h:
        if k > cap:
            return None
        lead = k << s
        rest = {}
        for e, c in h.items():
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[lead + e] = d
            if c != d:
                rest[e] = (c - d) // xi
        h = rest
        k += 1
    return out


def _zz_scale(f: dict, c: int) -> dict:
    return f if c == 1 else {e: v * c for e, v in f.items()}


def _zz_div(f: dict, h: dict) -> dict | None:
    """f / h when h divides f over the integers, else None.

    Divides in lex order; a quotient term with a negative exponent, with an
    exponent above the quotient's degree in its atom, or with a coefficient
    that is no integer proves the division inexact."""
    hl = max(h)
    hc = h[hl]
    if not hl:
        if hc == 1:
            return f
        if any(c % hc for c in f.values()):
            return None
        return {e: c // hc for e, c in f.items()}
    fmax, hmax = reduce(_mono_lcm, f), reduce(_mono_lcm, h)
    if not _mono_divides(hmax, fmax):  # h has the higher degree in some atom
        return None
    room = fmax - hmax
    out: dict = {}
    rem = dict(f)
    while rem:
        rl = max(rem)
        if not _mono_divides(hl, rl):
            return None
        qe = rl - hl
        if not _mono_divides(qe, room):
            return None
        qc, r = divmod(rem[rl], hc)
        if r:
            return None
        out[qe] = qc
        for e, c in h.items():
            m = qe + e
            s = rem.get(m, 0) - qc * c
            if s:
                rem[m] = s
            else:
                del rem[m]
    return out


def _zz_heu_gcd(f: dict, g: dict) -> tuple[dict, dict, dict] | None:
    """(h, f/h, g/h) with h the gcd over the integers of the nonzero integer
    polynomials f and g, or None when GCDHEU gives up.

    Binds the atom of the highest field of either to xi = 2 min(|f|, |g|) +
    29, with |.| the max norm of a primitive part (the theorem below needs
    xi >= 2 min + 2), takes the gcd of the images recursively, and lifts it
    back by xi-adic interpolation.  By the theorem of Char, Geddes and
    Gonnet (J. Symbolic Comput. 7, 1989) the primitive part of the lift is
    the gcd when it divides both primitive parts, which trial division
    checks.  Tries at most six points, growing xi as they do."""
    top = max(max(f), max(g))
    if not top:
        a, b = f[0], g[0]
        h = math.gcd(a, b)
        return {0: h}, {0: a // h}, {0: b // h}
    s = top.bit_length() - 1 & -16
    cf = math.gcd(*f.values())
    cg = math.gcd(*g.values())
    c = math.gcd(cf, cg)
    if cf != 1:
        f = {e: v // cf for e, v in f.items()}
    if cg != 1:
        g = {e: v // cg for e, v in g.items()}
    cap = min(max(f) >> s, max(g) >> s)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(6):
        ff = _zz_eval(f, s, xi)
        gg = _zz_eval(g, s, xi)
        if ff and gg:
            got = _zz_heu_gcd(ff, gg)
            if got is None:
                return None
            h = _zz_interpolate(got[0], s, xi, cap)
            if h is not None:
                ch = math.gcd(*h.values())
                if ch != 1:
                    h = {e: v // ch for e, v in h.items()}
                fq = _zz_div(f, h)
                gq = None if fq is None else _zz_div(g, h)
                if gq is not None:
                    return _zz_scale(h, c), _zz_scale(fq, cf // c), _zz_scale(gq, cg // c)
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _zz_gcd(f: dict, g: dict) -> tuple[dict, dict, dict]:
    """(h, f/h, g/h) with h the gcd over the integers of the nonzero integer
    polynomials f and g: GCDHEU, or ``_pgcd`` when it gives up."""
    got = _zz_heu_gcd(f, g)
    if got is None:
        h = _pgcd(f, g)
        got = h, _zz_div(f, h), _zz_div(g, h)
    return got


def _zz_content(u: dict[int, dict]) -> dict:
    """The gcd of the coefficients of the univariate form u, the shortest
    first: their gcd is the likeliest to reach a unit."""
    coeffs = sorted(u.values(), key=len)
    h = coeffs[0]
    for c in coeffs[1:]:
        if _pconst(h) in (1, -1):
            break
        h = _zz_gcd(h, c)[0]
    return h


def _zz_prem(f: dict, g: dict, s: int) -> tuple[dict, dict]:
    """(lc**(deg f - deg g + 1) * f mod g, lc) with lc the leading
    coefficient of g, in the atom of shift s, the highest field of both, for
    deg f >= deg g: the pseudo-remainder."""
    low = (1 << s) - 1
    dg = max(g) >> s
    lg = {e & low: c for e, c in g.items() if e >> s == dg}
    k = (max(f) >> s) - dg + 1
    while f and max(f) >> s >= dg:
        df = max(f) >> s
        lf = {e & low: c for e, c in f.items() if e >> s == df}
        f = _pmul(f, lg)
        _paddmul(f, _pmul(lf, g), (df - dg) << s, -1)
        k -= 1
    return _pmul(f, _ppow(lg, k)), lg


def _pgcd(f: dict, g: dict) -> dict:
    """The gcd over the integers of the nonzero integer polynomials f and g,
    with a positive leading coefficient: the exact route behind GCDHEU.

    Writes both in the atom of their highest field, takes the gcd of their
    contents through ``_zz_gcd``, and the gcd of their primitive parts by
    the subresultant PRS (Collins, JACM 14, 1967; Brown and Traub, JACM 18,
    1971).  That divides each pseudo-remainder exactly by lc * h**delta,
    which bounds coefficient growth with no content taken per step; the gcd
    is the primitive part of the last nonzero remainder.  The probe
    ``_gcd_probe_trivial`` proves most trivial gcds before the sequence."""
    top = max(max(f), max(g))
    if not top:
        return {0: math.gcd(f[0], g[0])}
    s = top.bit_length() - 1 & -16
    uf, ug = _as_univar(f, s), _as_univar(g, s)
    cf, cg = _zz_content(uf), _zz_content(ug)
    h = _zz_gcd(cf, cg)[0]
    if max(uf) and max(ug) and not _gcd_probe_trivial(uf, ug):
        a, b = _zz_div(f, cf), _zz_div(g, cg)
        if max(a) < max(b):
            a, b = b, a
        lead = scale = {0: 1}
        while True:
            delta = (max(a) >> s) - (max(b) >> s)
            r, lb = _zz_prem(a, b, s)
            if not r or not max(r) >> s:  # b is the gcd, or the gcd is 1
                break
            a, b, lead = b, _zz_div(r, _pmul(lead, _ppow(scale, delta))), lb
            if delta:
                scale = _zz_div(_ppow(lead, delta), _ppow(scale, delta - 1))
        if not r:
            h = _pmul(h, _zz_div(b, _zz_content(_as_univar(b, s))))
    return _pneg(h) if h[max(h)] < 0 else h


def _zz_form(p: Poly) -> tuple[dict, Mono, Coeff]:
    """(P, m, r) with p = r * m * P: P primitive and free of monomial
    content, r > 0."""
    cont = math.gcd(*p.values())
    low = _pmono_content(p)
    return {m - low: c // cont for m, c in p.items()}, low, cont


def _from_dense(exps: Iterable[Mono], coeffs: Iterable[Coeff], shift: Mono) -> Poly:
    """The Poly with the terms c * shift * e, in descending order."""
    return dict(sorted(zip((e + shift for e in exps), coeffs), reverse=True))


def _private_coefficient_is_a_term(p: Poly, private: int) -> bool:
    """Whether p, written as sum_mu mu * c_mu over distinct monomials mu in
    the atoms whose guard bits ``private`` holds, with each c_mu free of
    them, has a c_mu of one term."""
    fields = private - (private >> 15)
    terms: dict = {}
    for mono in p:
        mu = mono & fields
        terms[mu] = terms.get(mu, 0) + 1
    return 1 in terms.values()


def _gcd_cofactors(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, p/g, q/g) with g a gcd of the nonzero polynomials p and q.

    Sides without a common atom, or with a monomial among them, have a
    monomial gcd.  So do sides where one has a coefficient of one term in
    the atoms the other lacks: g divides the other side, so it is free of
    those atoms and divides each such coefficient, a monomial.  Otherwise it
    strips each side's integer and monomial content and takes the integer
    gcd ``_zz_gcd`` of what is left.  When g is a constant the cofactors
    are p and q themselves; otherwise they are new Polys in descending
    order."""
    pa, qa = _psupport(p), _psupport(q)
    if not pa & qa:
        m = 0
    elif (min(len(p), len(q)) == 1  # a monomial side: the gcd is a monomial
          or _private_coefficient_is_a_term(p, pa & ~qa) or _private_coefficient_is_a_term(q, qa & ~pa)):
        m = _pmono_content([*p, *q])
    else:
        P, mp, rp = _zz_form(p)
        Q, mq, rq = _zz_form(q)
        mg = _mono_gcd(mp, mq)
        if _psupport(P) & _psupport(Q):
            G, P, Q = _zz_gcd(P, Q)
            if len(G) > 1 or next(iter(G)):
                return (_from_dense(G, G.values(), mg),
                        _from_dense(P, (rp * c for c in P.values()), mp - mg),
                        _from_dense(Q, (rq * c for c in Q.values()), mq - mg))
        m = mg
    if not m:
        return {0: _ONE}, p, q
    return {m: _ONE}, _pdiv_mono(p, m), _pdiv_mono(q, m)


def _cancel(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """p and q divided by their gcd; a constant side leaves both as they are."""
    if _pconst(p) is None and _pconst(q) is None:
        _, p, q = _gcd_cofactors(p, q)
    return p, q


Fractional = tuple  # (num, den) pair of Polys


def _fraction_sum(terms: Sequence[tuple[Poly, Sequence[tuple[Fractional, int]]]]) -> Fractional:
    """The sum over ``terms`` of ``p * prod((num/den)**k)``, as one unreduced
    (num, den) pair.

    The denominator is each distinct denominator other than 1 raised to the
    highest power any one term needs, so the caller canonicalizes the result
    once."""
    dens: dict[frozenset, Poly] = {}
    key_of: dict[int, frozenset] = {}
    need: dict[frozenset, int] = {}
    needs = []
    for _, factors in terms:
        mine: dict[frozenset, int] = {}
        for (_, den), k in factors:
            if _pconst(den) == 1:
                continue
            key = key_of.get(id(den))
            if key is None:
                key = key_of[id(den)] = frozenset(den.items())
                dens.setdefault(key, den)
            mine[key] = mine.get(key, 0) + k
        for key, k in mine.items():
            if k > need.get(key, 0):
                need[key] = k
        needs.append(mine)

    powers: dict[tuple[int, int], Poly] = {}

    def power(p: Poly, k: int) -> Poly:
        got = powers.get((id(p), k))
        if got is None:
            got = powers[(id(p), k)] = _ppow(p, k)
        return got

    num: Poly = {}
    for (p, factors), mine in zip(terms, needs):
        for (fnum, _), k in factors:
            p = _pmul(p, power(fnum, k))
        for key, k in need.items():
            if mine.get(key, 0) < k:
                p = _pmul(p, power(dens[key], k - mine.get(key, 0)))
        _paddmul(num, p, 0, _ONE)
    den: Poly = {0: _ONE}
    for key, k in need.items():
        den = _pmul(den, power(dens[key], k))
    return num, den


def _partials(p: Poly, atoms) -> dict:
    """The formal partial derivatives of ``p`` by each of ``atoms``."""
    out: dict = {a: {} for a in atoms}
    for m, c in p.items():
        for a, acc in out.items():
            e = m >> a._shift & 0xFFFF
            if e:
                acc[m - (1 << a._shift)] = c * e  # distinct monomials have distinct quotients
    return out


class Context:
    """Session-level registry of symbols, opaque functions and interned atoms.

    Append-only; Expr values from the same context can be combined freely.
    Each atom it makes owns the next exponent field of its monomials.
    """

    def __init__(self):
        self._symbols: dict[str, Symbol] = {}
        self._funcs: dict[str, OpaqueFunc] = {}
        self._atoms: dict[tuple, OpaqueAtom] = {}
        self._counter = 0
        self._fields: list[Atom] = []  # the atom of each field, in creation order
        self._by_key: list[Atom] = []  # the atoms in sort-key order
        self._order = None  # the canonical order's sort key; None once an atom is added
        self._factored: dict[Mono, tuple] = {}
        self._printed: dict[Mono, str] = {}
        self.zero = Expr(self, {}, {0: _ONE})
        self.one = Expr(self, {0: _ONE}, {0: _ONE})

    def _next_order(self) -> int:
        self._counter += 1
        return self._counter

    def _add_field(self, atom: Atom) -> None:
        if len(self._fields) == _FIELDS:
            raise ExprError(f"a context holds at most {_FIELDS} atoms")
        atom._shift = 16 * len(self._fields)
        self._fields.append(atom)
        insort(self._by_key, atom, key=lambda a: a._key)
        self._order = None

    def _factors(self, m: Mono) -> tuple:
        """m's (atom, exponent) pairs in sort-key order."""
        got = self._factored.get(m)
        if got is None:
            fields = self._fields
            got = self._factored[m] = tuple(
                sorted(((fields[s >> 4], e) for s, e in _exponents(m)), key=lambda f: f[0]._key))
        return got

    def _order_key(self):
        """The sort key of the canonical graded-lex order on monomials, in
        which atoms with a smaller sort_key are the more significant.  It
        reads the atoms' ranks in sort-key order, so a new atom voids it."""
        if self._order is None:
            rank = [0] * len(self._fields)
            for i, atom in enumerate(self._by_key):
                rank[atom._shift >> 4] = i
            factors, keys = self._factors, {}

            def key(m: Mono):
                got = keys.get(m)
                if got is None:
                    f = factors(m)
                    got = keys[m] = sum(e for _, e in f), tuple((-rank[a._shift >> 4], e) for a, e in f)
                return got

            self._order = key
        return self._order

    def _lead(self, p: Poly) -> tuple[Mono, Coeff]:
        """p's leading term in the canonical order."""
        m = next(iter(p)) if len(p) == 1 else max(p, key=self._order_key())
        return m, p[m]

    def _sorted_terms(self, p: Poly) -> list[tuple[Mono, Coeff]]:
        """p's terms in descending canonical order."""
        if len(p) == 1:
            return list(p.items())
        return [(m, p[m]) for m in sorted(p, key=self._order_key(), reverse=True)]

    def _mono_str(self, m: Mono) -> str:
        got = self._printed.get(m)
        if got is None:
            got = self._printed[m] = "*".join(str(a) if e == 1 else f"{a}^{e}" for a, e in self._factors(m))
        return got

    def declare_symbol(self, name: str, kind: str = "auxiliary") -> Symbol:
        if name in self._symbols:
            existing = self._symbols[name]
            if existing.kind != kind:
                raise ExprError(f"symbol {name!r} already declared with kind {existing.kind!r}")
            return existing
        if name in self._funcs:
            raise ExprError(f"name {name!r} already used by an opaque function")
        sym = Symbol(name, kind, self._next_order())
        self._add_field(sym)
        self._symbols[name] = sym
        return sym

    def declare_symbols(self, names: Iterable[str], kind: str = "auxiliary") -> list[Symbol]:
        return [self.declare_symbol(n, kind) for n in names]

    def declare_opaque(self, name: str, slots: Sequence[str]) -> OpaqueFunc:
        if name in self._funcs:
            existing = self._funcs[name]
            if existing.slots != tuple(slots):
                raise ExprError(f"opaque function {name!r} already declared with other slots")
            return existing
        if name in self._symbols:
            raise ExprError(f"name {name!r} already used by a symbol")
        fn = OpaqueFunc(name, tuple(slots), self._next_order())
        self._funcs[name] = fn
        return fn

    def has_symbol(self, name: str) -> bool:
        return name in self._symbols

    def get_symbol(self, name: str) -> Symbol:
        try:
            return self._symbols[name]
        except KeyError:
            raise ExprError(f"unknown symbol {name!r}") from None

    def get_opaque(self, name: str) -> OpaqueFunc | None:
        return self._funcs.get(name)

    def atom(self, func: OpaqueFunc, args: Sequence["Expr"], deriv: Sequence[int] | None = None) -> OpaqueAtom:
        if len(args) != func.arity:
            raise ExprError(f"{func.name} expects {func.arity} arguments, got {len(args)}")
        dv = tuple(deriv) if deriv is not None else (0,) * func.arity
        if len(dv) != func.arity or any(d < 0 for d in dv):
            raise ExprError("bad derivative multi-index")
        args = tuple(self.expr(a) for a in args)
        key = (func.order, dv, tuple(a._struct_key() for a in args))
        atom = self._atoms.get(key)
        if atom is None:
            atom = OpaqueAtom(func, dv, args)
            self._add_field(atom)
            self._atoms[key] = atom
        return atom

    def apply(self, func: OpaqueFunc, args: Sequence["Expr"], deriv: Sequence[int] | None = None) -> "Expr":
        return Expr.from_atom(self, self.atom(func, args, deriv))

    def sym(self, name: str) -> "Expr":
        return Expr.from_atom(self, self.get_symbol(name))

    def expr(self, value: Scalar) -> "Expr":
        if isinstance(value, Expr):
            if value.ctx is not self:
                raise ExprError("expression belongs to a different context")
            return value
        if isinstance(value, (int, Fraction)):
            if not value:
                return self.zero
            return Expr(self, {0: value.numerator}, {0: value.denominator})
        if isinstance(value, Symbol):
            return Expr.from_atom(self, value)
        if isinstance(value, OpaqueAtom):
            return Expr.from_atom(self, value)
        raise ExprError(f"cannot coerce {value!r} to Expr")

    def parse(self, text: str) -> "Expr":
        from .parsing import parse_expr

        return parse_expr(text, self)


class Expr:
    """Canonical rational expression; immutable and hashable."""

    __slots__ = ("ctx", "_num", "_den", "_hash", "_skey", "_free", "_atoms")

    def __init__(self, ctx: Context, num: Poly, den: Poly):
        self.ctx = ctx
        self._num = num
        self._den = den
        self._hash = None
        self._skey = None
        self._free = None
        self._atoms = None

    @staticmethod
    def _make(ctx: Context, num: Poly, den: Poly) -> "Expr":
        if not den:
            raise DivisionByZeroError("division by zero expression")
        if not num:
            return ctx.zero
        if _pconst(den) is None:
            _, num, den = _gcd_cofactors(num, den)
        return Expr._reduced(ctx, num, den)

    @staticmethod
    def _reduced(ctx: Context, num: Poly, den: Poly) -> "Expr":
        """num / den for num and nonzero den coprime as polynomials: their
        joint integer content divided out and the denominator's leading
        coefficient made positive, no polynomial gcd taken."""
        if not num:
            return ctx.zero
        if _pconst(den) == 1:
            return Expr(ctx, num, den)
        g = math.gcd(*den.values())
        if g != 1:
            g = math.gcd(g, *num.values())
        if ctx._lead(den)[1] < 0:
            g = -g
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den = {m: c // g for m, c in den.items()}
        return Expr(ctx, num, den)

    @staticmethod
    def from_atom(ctx: Context, atom: Atom) -> "Expr":
        return Expr(ctx, {1 << atom._shift: _ONE}, {0: _ONE})

    # -- structure ---------------------------------------------------------

    def _struct_key(self):
        if self._skey is None:
            ctx = self.ctx

            def pk(p):
                return tuple(
                    (tuple((a._key, e) for a, e in ctx._factors(m)), (c.numerator, c.denominator))
                    for m, c in ctx._sorted_terms(p)
                )

            self._skey = tuple(map(pk, self._monic()))
        return self._skey

    @property
    def free_symbols(self) -> frozenset:
        if self._free is None:
            out: set[Symbol] = set()
            for atom in self.atoms():
                if isinstance(atom, Symbol):
                    out.add(atom)
                else:
                    out |= atom._free
            self._free = frozenset(out)
        return self._free

    def atoms(self) -> tuple[Atom, ...]:
        """All atoms appearing in numerator or denominator, the last made
        first (not recursing into opaque arguments)."""
        if self._atoms is None:
            fields = self.ctx._fields
            support = reduce(or_, self._num, 0) | reduce(or_, self._den, 0)
            self._atoms = tuple(fields[s >> 4] for s, _ in _exponents(support))
        return self._atoms

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def as_fraction(self) -> Fraction | None:
        """The exact rational value if the expression is constant, else None."""
        if not self._num:
            return Fraction(0)
        nc = _pconst(self._num)
        dc = _pconst(self._den)
        if nc is None or dc is None:
            return None
        return Fraction(nc, dc)

    def _monic(self) -> tuple[dict, dict]:
        """Numerator and denominator divided by the denominator's leading
        coefficient: the form that printing and ``_struct_key`` write, with a
        Fraction wherever that quotient is not an integer."""
        num, den = self._num, self._den
        lc = self.ctx._lead(den)[1]
        if lc == 1:
            return num, den
        return {m: Fraction(c, lc) for m, c in num.items()}, {m: Fraction(c, lc) for m, c in den.items()}

    # -- polynomial views ---------------------------------------------------

    def _poly(self, poly: Poly) -> "Expr":
        """``poly``, a part of the numerator or denominator, divided by the
        denominator's leading coefficient: a part of the monic form."""
        return Expr._reduced(self.ctx, poly, {0: self.ctx._lead(self._den)[1]})

    def numerator(self) -> "Expr":
        """The numerator of the monic form."""
        return self._poly(self._num)

    def denominator(self) -> "Expr":
        """The monic denominator."""
        return self._poly(self._den)

    def size(self) -> int:
        """Number of terms of numerator and denominator together."""
        return len(self._num) + len(self._den)

    def leading_sign(self) -> int:
        """Sign of the leading numerator coefficient in graded-lex order."""
        if not self._num:
            return 0
        return 1 if self.ctx._lead(self._num)[1] > 0 else -1

    def coefficients(self, atom: Atom) -> dict[int, "Expr"]:
        """The monic form's numerator as a polynomial in ``atom``: degree ->
        coefficient."""
        return {d: self._poly(c) for d, c in _as_univar(self._num, atom._shift).items()}

    def linear_in(self, atoms: Sequence[Atom]) -> tuple[list["Expr"], "Expr"] | None:
        """Split the monic form's numerator as sum(coeffs[i] * atoms[i]) + rest
        in one pass.

        Returns (coeffs, rest) with polynomial entries, or None when the
        numerator is not affine in ``atoms``."""
        col = {1 << a._shift: i for i, a in enumerate(atoms)}
        fields = reduce(or_, (0xFFFF << a._shift for a in atoms), 0)
        coeffs: list[Poly] = [{} for _ in atoms]
        rest: Poly = {}
        for m, c in self._num.items():
            hit = m & fields
            if not hit:
                rest[m] = c
            elif hit in col:  # one of the atoms, to the first power
                coeffs[col[hit]][m - hit] = c
            else:
                return None
        return [self._poly(p) for p in coeffs], self._poly(rest)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: Scalar) -> "Expr | None":
        if isinstance(other, Expr):
            if other.ctx is not self.ctx:
                raise ExprError("mixed expression contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.expr(other)
        return None

    def __add__(self, other: Scalar) -> "Expr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self._num, self._den, o._num, o._den
        if b == d:
            return Expr._make(self.ctx, _padd(a, c), b)
        # a/b and c/d are canonical, so only a factor of gcd(b, d) can cancel
        # (Henrici; Knuth, TAOCP vol. 2, 4.5.1); a constant one is a unit
        kb, kd = _pconst(b), _pconst(d)
        if kb == 1:
            return Expr._reduced(self.ctx, _padd(_pmul(a, d), c), d)
        if kd == 1:
            return Expr._reduced(self.ctx, _padd(a, _pmul(c, b)), b)
        if kb is not None or kd is not None:
            return Expr._reduced(self.ctx, _padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d))
        g, b1, d1 = _gcd_cofactors(b, d)
        t = _padd(_pmul(a, d1), _pmul(c, b1))
        if _pconst(g) is None and _pconst(t) is None:
            h, t1, g1 = _gcd_cofactors(t, g)
            if _pconst(h) is None:
                return Expr._reduced(self.ctx, t1, _pmul(_pmul(b1, d1), g1))
        return Expr._reduced(self.ctx, t, _pmul(b, d1))  # b * d1 = b1 * d1 * g

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(self.ctx, _pneg(self._num), self._den)

    def __sub__(self, other: Scalar) -> "Expr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Scalar) -> "Expr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: Scalar) -> "Expr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._times(o._num, o._den)

    __rmul__ = __mul__

    def _times(self, c: Poly, d: Poly) -> "Expr":
        """self * (c / d) for coprime c and d: gcd(a, b) = gcd(c, d) = 1, so
        only a with d and c with b can cancel."""
        if not self._num or not c:
            return self.ctx.zero
        a, d = _cancel(self._num, d)
        c, b = _cancel(c, self._den)
        return Expr._reduced(self.ctx, _pmul(a, c), _pmul(b, d))

    def __truediv__(self, other: Scalar) -> "Expr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZeroError("division by zero expression")
        return self._times(o._den, o._num)

    def __rtruediv__(self, other: Scalar) -> "Expr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return self.ctx.one
        if n < 0:
            if self.is_zero():
                raise DivisionByZeroError("zero to a negative power")
            return Expr._reduced(self.ctx, _ppow(self._den, -n), _ppow(self._num, -n))
        # a^n and b^n are coprime when a and b are
        return Expr._reduced(self.ctx, _ppow(self._num, n), _ppow(self._den, n))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ctx.expr(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self._num.items()), frozenset(self._den.items())))
        return self._hash

    # -- calculus ----------------------------------------------------------

    def derive(self, field: Mapping[Symbol, Scalar]) -> "Expr":
        """Exact image under the derivation sum(field[s] * d/ds); opaque atoms
        follow the chain rule.  The quotient rule runs on the polynomials, so
        the result is canonicalized once, plus once per opaque atom image."""
        ctx = self.ctx
        images: dict[Atom, Fractional | None] = {}
        for s, v in field.items():
            v = ctx.expr(v)
            if v:
                images[s] = (v._num, v._den)
        moving = frozenset(images)
        if moving.isdisjoint(self.free_symbols):
            return ctx.zero

        def image(atom: Atom) -> Fractional | None:
            """The derivative of an atom; None when it is zero."""
            if atom in images:
                return images[atom]
            if isinstance(atom, Symbol) or atom._free.isdisjoint(moving):
                return None
            terms = []
            for k, arg in enumerate(atom.args):
                darg = parts(arg)
                if darg[0]:
                    dv = list(atom.deriv)
                    dv[k] += 1
                    terms.append(({1 << ctx.atom(atom.func, atom.args, dv)._shift: _ONE}, [(darg, 1)]))
            img = Expr._make(ctx, *_fraction_sum(terms))
            out = images[atom] = (img._num, img._den) if img else None
            return out

        def parts(e: Expr) -> Fractional:
            num, den = e._num, e._den
            moved = {a: img for a in e.atoms() if (img := image(a)) is not None}
            if not moved:
                return {}, {0: _ONE}
            dnum = _partials(num, moved)
            dden = _partials(den, moved)
            # d(N/D) = sum over atoms a of d(a) * (N_a D - N D_a) / D^2
            terms = []
            for a, img in moved.items():
                t = _pmul(dnum[a], den)
                _paddmul(t, _pmul(num, dden[a]), 0, -_ONE)
                if t:
                    terms.append((t, [(img, 1)]))
            n, d = _fraction_sum(terms)
            return n, _pmul(d, _pmul(den, den))

        return Expr._make(ctx, *parts(self))

    def diff(self, s: Symbol) -> "Expr":
        """Exact partial derivative; opaque atoms follow the chain rule."""
        return self.derive({s: self.ctx.one})

    def subs(self, bindings: Mapping[Symbol, Scalar]) -> "Expr":
        """Simultaneous substitution of symbols by expressions."""
        ctx = self.ctx
        bound = {s: ctx.expr(v) for s, v in bindings.items()}
        if not any(s in self.free_symbols for s in bound):
            return self

        cache: dict[Atom, Fractional | None] = {}

        def image(atom: Atom) -> Fractional | None:
            """The image of a moved atom; None for one that stays."""
            if atom in cache:
                return cache[atom]
            if isinstance(atom, Symbol):
                v = bound.get(atom)
            elif atom._free.isdisjoint(bound):
                v = None
            else:
                v = ctx.apply(atom.func, tuple(sub_expr(a) for a in atom.args), atom.deriv)
            out = cache[atom] = None if v is None else (v._num, v._den)
            return out

        def sub_poly(poly: Poly, moved: list, fields: int) -> Fractional:
            """poly with the atoms of ``moved``, (shift, image) pairs whose
            exponent bits are ``fields``, replaced by their images."""
            if not reduce(or_, poly, 0) & fields:
                return poly, {0: _ONE}
            # one term per distinct monomial in the moved atoms, so each
            # product of images is multiplied out once
            rests: dict[int, Poly] = {}
            for m, c in poly.items():
                rests.setdefault(m & fields, {})[m & ~fields] = c
            terms = []
            for mm, rest in rests.items():
                factors = [(img, e) for s, img in moved if (e := mm >> s & 0xFFFF)]
                terms.append((rest, factors))
            return _fraction_sum(terms)

        def sub_expr(e: Expr) -> Expr:
            if not any(s in e.free_symbols for s in bound):
                return e
            moved = [(a._shift, img) for a in e.atoms() if (img := image(a)) is not None]
            fields = reduce(or_, (0xFFFF << s for s, _ in moved), 0)
            nn, nd = sub_poly(e._num, moved, fields)
            dn, dd = sub_poly(e._den, moved, fields)
            if not dn:
                raise SingularSubstitutionError("substitution makes a denominator vanish identically")
            return Expr._make(ctx, _pmul(nn, dd), _pmul(nd, dn))

        return sub_expr(self)

    def eval_at(self, point: Mapping[Atom, Fraction | int]) -> Fraction:
        """Exact numeric value with every atom bound to an int or a Fraction."""
        values = {}  # shift -> the atom's value
        for atom in self.atoms():
            try:
                values[atom._shift] = point[atom]
            except KeyError:
                raise UnboundAtomError(f"no binding for {atom}") from None

        def eval_poly(poly: Poly) -> Fraction | int:
            total = _ZERO
            for m, c in poly.items():
                while m:  # the highest field first
                    s = m.bit_length() - 1 & -16
                    e = m >> s
                    c *= values[s] if e == 1 else values[s] ** e
                    m ^= e << s
                total += c
            return total

        den = eval_poly(self._den)
        if den == 0:
            raise PoleError(f"denominator vanishes at the given point: {self}")
        return Fraction(eval_poly(self._num), den)

    # -- printing ----------------------------------------------------------

    def _poly_str(self, poly: Poly) -> str:
        if not poly:
            return "0"
        parts = []
        ctx = self.ctx
        for m, c in ctx._sorted_terms(poly):
            mag = abs(c)
            if not m:
                body = str(mag)
            elif mag == 1:
                body = ctx._mono_str(m)
            else:
                body = f"{mag}*{ctx._mono_str(m)}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self):
        num, den = self._monic()
        if _pconst(den) is not None:
            return self._poly_str(num)
        return f"({self._poly_str(num)})/({self._poly_str(den)})"

    def __repr__(self):
        return f"Expr({self})"

