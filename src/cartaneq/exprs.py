"""Exact rational expression kernel.

Every scalar in the package is an :class:`Expr`: a canonical fraction of
multivariate polynomials with ``fractions.Fraction`` coefficients.  The
indeterminates ("atoms") are either declared :class:`Symbol` objects or
:class:`OpaqueAtom` applications of undetermined functions which carry an
accumulated multi-index of partial derivatives (so mixed partials commute by
construction).

Canonical form: gcd(numerator, denominator) = 1 and the denominator is monic
with respect to a fixed graded-lexicographic monomial order.  Two Expr values
are structurally equal iff they are equal as rational expressions, which makes
``is_zero`` (and hence all rank computations downstream) decidable.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import add, gt, sub
from typing import Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "ExprError",
    "DivisionByZeroError",
    "PoleError",
    "SingularSubstitutionError",
    "UnboundAtomError",
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


class Symbol:
    """A declared indeterminate with a fixed kind and creation order."""

    __slots__ = ("name", "kind", "order", "_key")

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

    __slots__ = ("func", "deriv", "args", "_key", "_free", "_hash")

    def __init__(self, func: OpaqueFunc, deriv: tuple[int, ...], args: tuple["Expr", ...]):
        self.func = func
        self.deriv = deriv
        self.args = args
        self._key = (1, func.order, deriv, tuple(a._struct_key() for a in args))
        free: set[Symbol] = set()
        for a in args:
            free |= a.free_symbols
        self._free = frozenset(free)
        self._hash = hash(self._key)

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

# A monomial is a tuple of (atom, positive exponent) pairs sorted by atom
# sort_key; () is the monomial 1.  A polynomial is a dict monomial -> Fraction
# with no zero coefficients.
Mono = tuple
Poly = dict


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ka, kb = a[i][0].sort_key, b[j][0].sort_key
        if ka == kb:
            out.append((a[i][0], a[i][1] + b[j][1]))
            i += 1
            j += 1
        elif ka < kb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_cmp(a: Mono, b: Mono) -> int:
    """Graded lex; atoms with smaller sort_key are the more significant."""
    da = sum(e for _, e in a)
    db = sum(e for _, e in b)
    if da != db:
        return -1 if da < db else 1
    i = j = 0
    while i < len(a) and j < len(b):
        ka, kb = a[i][0].sort_key, b[j][0].sort_key
        if ka < kb:
            return 1
        if kb < ka:
            return -1
        if a[i][1] != b[j][1]:
            return 1 if a[i][1] > b[j][1] else -1
        i += 1
        j += 1
    if i < len(a):
        return 1
    if j < len(b):
        return -1
    return 0


def _mono_divides(d: Mono, m: Mono) -> bool:
    j = 0
    for atom, e in d:
        while j < len(m) and m[j][0].sort_key < atom.sort_key:
            j += 1
        if j >= len(m) or m[j][0] is not atom or m[j][1] < e:
            return False
    return True


def _mono_div(m: Mono, d: Mono) -> Mono:
    out = []
    for atom, e in m:
        ed = 0
        for a2, e2 in d:
            if a2 is atom:
                ed = e2
                break
        if e - ed > 0:
            out.append((atom, e - ed))
    return tuple(out)


def _mono_gcd(a: Mono, b: Mono) -> Mono:
    out = []
    for atom, e in a:
        for a2, e2 in b:
            if a2 is atom:
                out.append((atom, min(e, e2)))
                break
    return tuple(out)


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _padd(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, _ZERO) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _paddmul(acc: Poly, p: Poly, m: Mono, c: Fraction) -> None:
    """acc += c * m * p, in place."""
    for pm, pc in p.items():
        mm = _mono_mul(m, pm)
        s = acc.get(mm, _ZERO) + c * pc
        if s:
            acc[mm] = s
        else:
            acc.pop(mm, None)


def _pneg(p: Poly) -> Poly:
    return {m: -c for m, c in p.items()}


def _pscale(p: Poly, c: Fraction) -> Poly:
    if not c:
        return {}
    return {m: cc * c for m, cc in p.items()}


def _pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return {}
    if len(p) > len(q):
        p, q = q, p
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            s = out.get(m, _ZERO) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _ppow(p: Poly, n: int) -> Poly:
    result = {(): _ONE}
    base = p
    while n:
        if n & 1:
            result = _pmul(result, base)
        n >>= 1
        if n:
            base = _pmul(base, base)
    return result


def _plead(p: Poly) -> tuple[Mono, Fraction]:
    it = iter(p.items())
    best = next(it)
    for item in it:
        if _mono_cmp(item[0], best[0]) > 0:
            best = item
    return best


def _pmonic(p: Poly) -> Poly:
    if not p:
        return p
    _, c = _plead(p)
    if c == 1:
        return p
    return _pscale(p, 1 / c)


def _pconst(p: Poly) -> Fraction | None:
    if not p:
        return _ZERO
    if len(p) == 1 and () in p:
        return p[()]
    return None


def _pmono_content(p: Poly) -> Mono:
    it = iter(p)
    g = next(it)
    for m in it:
        if not g:
            break
        g = _mono_gcd(g, m)
    return g


def _patoms(p: Poly) -> set:
    out = set()
    for m in p:
        for atom, _ in m:
            out.add(atom)
    return out


# sorts (monomial, coefficient) pairs into descending _mono_cmp order
_DESCENDING = functools.cmp_to_key(lambda a, b: _mono_cmp(b[0], a[0]))


def _pdiv_mono(p: Poly, m: Mono) -> Poly:
    """p / m for a monomial m that divides every term of p, its terms in
    descending _mono_cmp order."""
    return dict(sorted(((_mono_div(k, m), c) for k, c in p.items()), key=_DESCENDING))


def _pdiv_exact(p: Poly, d: Poly) -> Poly:
    """Divide p by d, asserting the division is exact."""
    if not d:
        raise DivisionByZeroError("polynomial division by zero")
    dc = _pconst(d)
    if dc is not None:
        return _pscale(p, 1 / dc)
    out: Poly = {}
    rem = dict(p)
    dl_m, dl_c = _plead(d)
    while rem:
        rl_m, rl_c = _plead(rem)
        if not _mono_divides(dl_m, rl_m):
            raise ExprError("inexact polynomial division")
        qm = _mono_div(rl_m, dl_m)
        qc = rl_c / dl_c
        out[qm] = out.get(qm, _ZERO) + qc
        _paddmul(rem, d, qm, -qc)
    return {m: c for m, c in out.items() if c}


def _as_univar(p: Poly, v: Atom) -> dict[int, Poly]:
    out: dict[int, Poly] = {}
    for m, c in p.items():
        deg = 0
        rest = []
        for atom, e in m:
            if atom is v:
                deg = e
            else:
                rest.append((atom, e))
        coeff = out.setdefault(deg, {})
        rm = tuple(rest)
        s = coeff.get(rm, _ZERO) + c
        if s:
            coeff[rm] = s
        else:
            coeff.pop(rm, None)
    return {d: c for d, c in out.items() if c}


def _from_univar(u: dict[int, Poly], v: Atom) -> Poly:
    out: Poly = {}
    for deg, coeff in u.items():
        vm = ((v, deg),) if deg else ()
        for m, c in coeff.items():
            mm = _mono_mul(m, vm)
            s = out.get(mm, _ZERO) + c
            if s:
                out[mm] = s
            else:
                out.pop(mm, None)
    return out


def _u_content(u: dict[int, Poly]) -> Poly:
    g: Poly = {}
    for coeff in u.values():
        g = _pgcd(g, coeff)
        if _pconst(g) is not None and g:
            return {(): _ONE}
    return g


def _u_primitive(u: dict[int, Poly]) -> dict[int, Poly]:
    cont = _u_content(u)
    if _pconst(cont) == 1:
        return u
    return {d: _pdiv_exact(c, cont) for d, c in u.items()}


def _u_scale(u: dict[int, Poly], f: Poly) -> dict[int, Poly]:
    return {d: _pmul(c, f) for d, c in u.items()}


def _u_sub(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    out = {d: dict(c) for d, c in a.items()}
    for d, c in b.items():
        s = _padd(out.get(d, {}), _pneg(c))
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def _prem(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder of univariate polynomials with Poly coefficients."""
    db = max(b)
    lb = b[db]
    r = a
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        shifted = {d + dr - db: _pmul(c, lr) for d, c in b.items()}
        r = _u_sub(_u_scale(r, lb), shifted)
    return r


# The gcd-triviality probe works modulo this Mersenne prime.
_P = (1 << 61) - 1


def _dense_mod(u: dict[int, Poly], point: dict) -> list[int] | None:
    """u with its coefficient atoms bound to ``point``, as a dense list mod _P
    (constant term first); None when _P divides a coefficient denominator."""
    out = [0] * (max(u) + 1)
    for d, coeff in u.items():
        total = 0
        for m, c in coeff.items():
            den = c.denominator
            if den % _P == 0:
                return None
            val = c.numerator if den == 1 else c.numerator * pow(den, -1, _P)
            for atom, e in m:
                val = val * pow(point[atom], e, _P) % _P
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


def _gcd_probe_trivial(a: dict[int, Poly], b: dict[int, Poly]) -> bool:
    """Sound probe: True when the gcd of the univariate forms ``a`` and ``b``
    (both of positive degree in their variable) certainly has degree 0.

    Binds the coefficient atoms, in sort-key order, to integers mod _P and
    decides at the first point where both leading coefficients survive.
    There a nontrivial gcd maps to a common divisor of the same degree, so a
    degree-0 gcd mod _P proves the rational gcd trivial.  An unlucky prime
    or point only answers False, which sends the caller down the exact
    Euclid path."""
    others = sorted(set().union(*map(_patoms, a.values()), *map(_patoms, b.values())),
                    key=lambda atom: atom.sort_key)
    for shiftbase in (2, 17, 53):
        point = {atom: shiftbase + 3 * i for i, atom in enumerate(others)}
        ae = _dense_mod(a, point)
        be = _dense_mod(b, point)
        if ae is None or be is None:
            return False
        if ae[-1] and be[-1]:
            return _gf_gcd_degree(ae, be) == 0
    return False


def _pgcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd of multivariate polynomials over the rationals."""
    if not p:
        return _pmonic(q)
    if not q:
        return _pmonic(p)
    if _pconst(p) is not None or _pconst(q) is not None:
        return {(): _ONE}
    mp = _pmono_content(p)
    mq = _pmono_content(q)
    mg = _mono_gcd(mp, mq)
    p1 = {_mono_div(m, mp): c for m, c in p.items()} if mp else p
    q1 = {_mono_div(m, mq): c for m, c in q.items()} if mq else q
    if _pconst(p1) is not None or _pconst(q1) is not None:
        return _pmonic({mg: _ONE})
    shared = _patoms(p1) & _patoms(q1)
    if not shared:
        return _pmonic({mg: _ONE})
    v = min(shared, key=lambda a: a.sort_key)
    a = _as_univar(p1, v)
    b = _as_univar(q1, v)
    ca = _u_content(a)
    cb = _u_content(b)
    d = _pgcd(ca, cb)
    if _gcd_probe_trivial(a, b):
        return _pmonic(_pmul({mg: _ONE}, d))
    a = {deg: _pdiv_exact(c, ca) for deg, c in a.items()}
    b = {deg: _pdiv_exact(c, cb) for deg, c in b.items()}
    if max(a) < max(b):
        a, b = b, a
    while True:
        r = _prem(a, b)
        if not r:
            g = b
            break
        if max(r) == 0:
            g = {0: {(): _ONE}}
            break
        a, b = b, _u_primitive(r)
    core = _from_univar(g, v)
    return _pmonic(_pmul(_pmul({mg: _ONE}, d), core))


# The heuristic gcd works on integer polynomials over dense exponent vectors:
# a dict from bytes, one exponent per variable in sort-key order, to a nonzero
# int.  bytes compare in lex order, with the first variable the most
# significant, and raise ValueError for an exponent outside range(256).


def _zz_eval_first(f: dict, xi: int) -> dict:
    """f with its first variable bound to xi."""
    powers = [1]
    for _ in range(max(e[0] for e in f)):
        powers.append(powers[-1] * xi)
    out: dict = {}
    for e, c in f.items():
        r = e[1:]
        out[r] = out.get(r, 0) + c * powers[e[0]]
    return {r: c for r, c in out.items() if c}


def _zz_interpolate(h: dict, xi: int, cap: int) -> dict | None:
    """The polynomial whose coefficients in a new first variable are the
    xi-adic digits of h's coefficients, in the symmetric range of xi, so that
    its value at xi is h; None when it has a degree above cap."""
    half = xi // 2
    out: dict = {}
    k = 0
    while h:
        if k > cap:
            return None
        lead = bytes((k,))
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
    exponent above the quotient's degree in its variable, or with a
    coefficient that is no integer proves the division inexact."""
    hl = max(h)
    hc = h[hl]
    if len(h) == 1 and not any(hl):
        if hc == 1:
            return f
        if any(c % hc for c in f.values()):
            return None
        return {e: c // hc for e, c in f.items()}
    try:
        room = bytes(map(sub, map(max, zip(*f)), map(max, zip(*h))))
    except ValueError:  # h has the higher degree in some variable
        return None
    out: dict = {}
    rem = dict(f)
    while rem:
        rl = max(rem)
        try:
            qe = bytes(map(sub, rl, hl))
        except ValueError:  # a negative exponent
            return None
        if any(map(gt, qe, room)):
            return None
        qc, r = divmod(rem[rl], hc)
        if r:
            return None
        out[qe] = qc
        for e, c in h.items():
            m = bytes(map(add, qe, e))
            s = rem.get(m, 0) - qc * c
            if s:
                rem[m] = s
            else:
                del rem[m]
    return out


def _zz_heu_gcd(f: dict, g: dict) -> tuple[dict, dict, dict] | None:
    """(h, f/h, g/h) with h the gcd over the integers of the nonzero integer
    polynomials f and g, or None when GCDHEU gives up.

    Binds the first variable to xi = 2 min(|f|, |g|) + 29, with |.| the max
    norm of a primitive part (the theorem below needs xi >= 2 min + 2), takes
    the gcd of the images recursively, and lifts it back by xi-adic
    interpolation.  By the theorem of Char, Geddes and
    Gonnet (J. Symbolic Comput. 7, 1989) the primitive part of the lift is
    the gcd when it divides both primitive parts, which trial division
    checks.  Tries at most six points, growing xi as they do."""
    if not next(iter(f)):
        a, b = f[b""], g[b""]
        h = math.gcd(a, b)
        return {b"": h}, {b"": a // h}, {b"": b // h}
    cf = math.gcd(*f.values())
    cg = math.gcd(*g.values())
    c = math.gcd(cf, cg)
    if cf != 1:
        f = {e: v // cf for e, v in f.items()}
    if cg != 1:
        g = {e: v // cg for e, v in g.items()}
    cap = min(max(e[0] for e in f), max(e[0] for e in g))
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(6):
        ff = _zz_eval_first(f, xi)
        gg = _zz_eval_first(g, xi)
        if ff and gg:
            got = _zz_heu_gcd(ff, gg)
            if got is None:
                return None
            h = _zz_interpolate(got[0], xi, cap)
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


def _zz_form(p: Poly, col: dict) -> tuple[dict, bytes, Fraction]:
    """(P, m, r) with p = r * x^m * P: P an integer polynomial over the
    exponents of ``col``'s atoms, primitive and free of monomial content.
    Raises ValueError for an exponent above 255."""
    den = math.lcm(*(c.denominator for c in p.values()))
    exps = []
    ints = []
    for mono, c in p.items():
        v = bytearray(len(col))
        for atom, e in mono:
            v[col[atom]] = e
        exps.append(v)
        ints.append(c.numerator * (den // c.denominator))
    cont = math.gcd(*ints)
    low = bytes(map(min, zip(*exps)))
    return {bytes(map(sub, v, low)): c // cont for v, c in zip(exps, ints)}, low, Fraction(cont, den)


def _from_dense(exps: Iterable[bytes], coeffs: Iterable[Fraction], shift: bytes, atoms: list) -> Poly:
    """The Poly with the terms c * x^(e + shift), in descending _mono_cmp
    order."""
    # with atoms in sort-key order, graded lex is (degree, exponent vector)
    terms = sorted(zip((bytes(map(add, e, shift)) for e in exps), coeffs),
                   key=lambda t: (sum(t[0]), t[0]), reverse=True)
    return {tuple((atoms[i], k) for i, k in enumerate(e) if k): c for e, c in terms}


def _heu_gcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly] | None:
    """(g, p/g, q/g) with g a gcd of the nonzero polynomials p and q, or None
    when the heuristic gives up.

    Sides without a common atom, or with a monomial among them, have a
    monomial gcd.  Otherwise it strips each side's rational and monomial
    content and runs ``_zz_heu_gcd`` over the union of their atoms in
    sort-key order.  When g is a constant the cofactors are p and q
    themselves; otherwise they are new Polys in descending ``_mono_cmp``
    order, the order ``_pdiv_exact`` gives."""
    pa, qa = _patoms(p), _patoms(q)
    if pa.isdisjoint(qa):
        m = ()
    elif min(len(p), len(q)) == 1:  # a monomial side: the gcd is a monomial
        m = _pmono_content([*p, *q])
    else:
        atoms = sorted(pa | qa, key=lambda a: a.sort_key)
        col = {a: i for i, a in enumerate(atoms)}
        try:
            P, mp, rp = _zz_form(p, col)
            Q, mq, rq = _zz_form(q, col)
        except ValueError:
            return None
        mg = bytes(map(min, mp, mq))
        if any(a and b for a, b in zip(map(max, zip(*P)), map(max, zip(*Q)))):
            got = _zz_heu_gcd(P, Q)
            if got is None:
                return None
            G, P, Q = got
            if len(G) > 1 or any(next(iter(G))):
                return (_from_dense(G, map(Fraction, G.values()), mg, atoms),
                        _from_dense(P, (rp * c for c in P.values()), bytes(map(sub, mp, mg)), atoms),
                        _from_dense(Q, (rq * c for c in Q.values()), bytes(map(sub, mq, mg)), atoms))
        m = tuple((atoms[i], k) for i, k in enumerate(mg) if k)
    if not m:
        return {(): _ONE}, p, q
    return {m: _ONE}, _pdiv_mono(p, m), _pdiv_mono(q, m)


Fractional = tuple  # (num, den) pair of Polys; den is monic


def _fraction_sum(terms: Sequence[tuple[Poly, Sequence[tuple[Fractional, int]]]]) -> Fractional:
    """The sum over ``terms`` of ``p * prod((num/den)**k)``, as one unreduced
    (num, den) pair.

    The denominator is each distinct non-constant denominator raised to the
    highest power any one term needs, so the caller canonicalizes the result
    once.  Denominators are monic, so a constant one is 1."""
    dens: dict[frozenset, Poly] = {}
    key_of: dict[int, frozenset] = {}
    need: dict[frozenset, int] = {}
    needs = []
    for _, factors in terms:
        mine: dict[frozenset, int] = {}
        for (_, den), k in factors:
            if _pconst(den) is not None:
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
        _paddmul(num, p, (), _ONE)
    den: Poly = {(): _ONE}
    for key, k in need.items():
        den = _pmul(den, power(dens[key], k))
    return num, den


def _partials(p: Poly, atoms) -> dict:
    """The formal partial derivatives of ``p`` by each of ``atoms``."""
    out: dict = {a: {} for a in atoms}
    for m, c in p.items():
        for idx, (atom, e) in enumerate(m):
            acc = out.get(atom)
            if acc is None:
                continue
            rest = m[:idx] + ((atom, e - 1),) + m[idx + 1:] if e > 1 else m[:idx] + m[idx + 1:]
            acc[rest] = c * e  # distinct monomials have distinct quotients
    return out


class Context:
    """Session-level registry of symbols, opaque functions and interned atoms.

    Append-only; Expr values from the same context can be combined freely.
    """

    def __init__(self):
        self._symbols: dict[str, Symbol] = {}
        self._funcs: dict[str, OpaqueFunc] = {}
        self._atoms: dict[tuple, OpaqueAtom] = {}
        self._counter = 0
        self.zero = Expr(self, {}, {(): _ONE})
        self.one = Expr(self, {(): _ONE}, {(): _ONE})

    def _next_order(self) -> int:
        self._counter += 1
        return self._counter

    def declare_symbol(self, name: str, kind: str = "auxiliary") -> Symbol:
        if name in self._symbols:
            existing = self._symbols[name]
            if existing.kind != kind:
                raise ExprError(f"symbol {name!r} already declared with kind {existing.kind!r}")
            return existing
        if name in self._funcs:
            raise ExprError(f"name {name!r} already used by an opaque function")
        sym = Symbol(name, kind, self._next_order())
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
            f = Fraction(value)
            return Expr(self, {(): f} if f else {}, {(): _ONE})
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

    __slots__ = ("ctx", "_num", "_den", "_hash", "_skey", "_free")

    def __init__(self, ctx: Context, num: Poly, den: Poly):
        self.ctx = ctx
        self._num = num
        self._den = den
        self._hash = None
        self._skey = None
        self._free = None

    @staticmethod
    def _make(ctx: Context, num: Poly, den: Poly) -> "Expr":
        if not den:
            raise DivisionByZeroError("division by zero expression")
        if not num:
            return ctx.zero
        dc = _pconst(den)
        if dc is None:
            got = _heu_gcd(num, den)
            if got is not None:
                _, num, den = got
            else:
                g = _pgcd(num, den)
                if _pconst(g) is None or g[()] != 1:
                    num = _pdiv_exact(num, g)
                    den = _pdiv_exact(den, g)
            _, lc = _plead(den)
            if lc != 1:
                num = _pscale(num, 1 / lc)
                den = _pscale(den, 1 / lc)
        elif dc != 1:
            num = _pscale(num, 1 / dc)
            den = {(): _ONE}
        return Expr(ctx, num, den)

    @staticmethod
    def from_atom(ctx: Context, atom: Atom) -> "Expr":
        return Expr(ctx, {((atom, 1),): _ONE}, {(): _ONE})

    # -- structure ---------------------------------------------------------

    def _sorted_terms(self, poly: Poly) -> list[tuple[Mono, Fraction]]:
        return sorted(poly.items(), key=_DESCENDING)

    def _struct_key(self):
        if self._skey is None:
            def pk(p):
                return tuple(
                    (tuple((a.sort_key, e) for a, e in m), (c.numerator, c.denominator))
                    for m, c in self._sorted_terms(p)
                )

            self._skey = (pk(self._num), pk(self._den))
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

    def atoms(self) -> Iterator[Atom]:
        """All atoms appearing in numerator or denominator (not recursing
        into opaque arguments)."""
        seen = set()
        for poly in (self._num, self._den):
            for m in poly:
                for atom, _ in m:
                    if id(atom) not in seen:
                        seen.add(id(atom))
                        yield atom

    def all_atoms(self) -> Iterator[Atom]:
        """Atoms including those inside opaque-function arguments."""
        seen = set()
        stack = [self]
        while stack:
            e = stack.pop()
            for atom in e.atoms():
                if id(atom) in seen:
                    continue
                seen.add(id(atom))
                yield atom
                if isinstance(atom, OpaqueAtom):
                    stack.extend(atom.args)

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def as_fraction(self) -> Fraction | None:
        """The exact rational value if the expression is constant, else None."""
        if not self._num:
            return _ZERO
        nc = _pconst(self._num)
        dc = _pconst(self._den)
        if nc is None or dc is None:
            return None
        return nc / dc

    # -- polynomial views ---------------------------------------------------

    def _poly(self, poly: Poly) -> "Expr":
        return Expr(self.ctx, poly, {(): _ONE})

    def numerator(self) -> "Expr":
        return self._poly(self._num)

    def denominator(self) -> "Expr":
        return self._poly(self._den)

    def size(self) -> int:
        """Number of terms of numerator and denominator together."""
        return len(self._num) + len(self._den)

    def leading_sign(self) -> int:
        """Sign of the leading numerator coefficient in graded-lex order."""
        if not self._num:
            return 0
        return 1 if _plead(self._num)[1] > 0 else -1

    def coefficients(self, atom: Atom) -> dict[int, "Expr"]:
        """The numerator as a polynomial in ``atom``: degree -> coefficient."""
        return {d: self._poly(c) for d, c in _as_univar(self._num, atom).items()}

    def linear_in(self, atoms: Sequence[Atom]) -> tuple[list["Expr"], "Expr"] | None:
        """Split the numerator as sum(coeffs[i] * atoms[i]) + rest in one pass.

        Returns (coeffs, rest) with polynomial entries, or None when the
        numerator is not affine in ``atoms``."""
        col = {id(a): i for i, a in enumerate(atoms)}
        coeffs: list[Poly] = [{} for _ in atoms]
        rest: Poly = {}
        for m, c in self._num.items():
            hit = None
            for idx, (atom, e) in enumerate(m):
                if id(atom) in col:
                    if hit is not None or e != 1:
                        return None
                    hit = idx
            if hit is None:
                rest[m] = c
            else:
                coeffs[col[id(m[hit][0])]][m[:hit] + m[hit + 1:]] = c
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
        if self._den == o._den:
            return Expr._make(self.ctx, _padd(self._num, o._num), self._den)
        num = _padd(_pmul(self._num, o._den), _pmul(o._num, self._den))
        return Expr._make(self.ctx, num, _pmul(self._den, o._den))

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
        return Expr._make(self.ctx, _pmul(self._num, o._num), _pmul(self._den, o._den))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Expr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZeroError("division by zero expression")
        return Expr._make(self.ctx, _pmul(self._num, o._den), _pmul(self._den, o._num))

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
            return Expr._make(self.ctx, _ppow(self._den, -n), _ppow(self._num, -n))
        return Expr._make(self.ctx, _ppow(self._num, n), _ppow(self._den, n))

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
                    terms.append(({((ctx.atom(atom.func, atom.args, dv), 1),): _ONE}, [(darg, 1)]))
            img = Expr._make(ctx, *_fraction_sum(terms))
            out = images[atom] = (img._num, img._den) if img else None
            return out

        def parts(e: Expr) -> Fractional:
            num, den = e._num, e._den
            moved = {a: img for a in e.atoms() if (img := image(a)) is not None}
            if not moved:
                return {}, {(): _ONE}
            dnum = _partials(num, moved)
            dden = _partials(den, moved)
            # d(N/D) = sum over atoms a of d(a) * (N_a D - N D_a) / D^2
            terms = []
            for a, img in moved.items():
                t = _pmul(dnum[a], den)
                _paddmul(t, _pmul(num, dden[a]), (), -_ONE)
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

        def sub_poly(poly: Poly) -> Fractional:
            terms = []
            for m, c in poly.items():
                kept = []
                moved = []
                for atom, e in m:
                    img = image(atom)
                    if img is None:
                        kept.append((atom, e))
                    else:
                        moved.append((img, e))
                terms.append(({tuple(kept): c}, moved))
            return _fraction_sum(terms)

        def sub_expr(e: Expr) -> Expr:
            if not any(s in e.free_symbols for s in bound):
                return e
            nn, nd = sub_poly(e._num)
            dn, dd = sub_poly(e._den)
            if not dn:
                raise SingularSubstitutionError("substitution makes a denominator vanish identically")
            return Expr._make(ctx, _pmul(nn, dd), _pmul(nd, dn))

        return sub_expr(self)

    def eval_at(self, point: Mapping[Atom, Fraction | int]) -> Fraction:
        """Exact numeric value with every atom bound to a rational."""

        def eval_poly(poly: Poly) -> Fraction:
            total = _ZERO
            for m, c in poly.items():
                val = c
                for atom, e in m:
                    try:
                        v = point[atom]
                    except KeyError:
                        raise UnboundAtomError(f"no binding for {atom}") from None
                    val *= Fraction(v) ** e
                total += val
            return total

        den = eval_poly(self._den)
        if den == 0:
            raise PoleError(f"denominator vanishes at the given point: {self}")
        return eval_poly(self._num) / den

    def eval_partial(self, point: Mapping[Atom, Fraction | int]) -> "Expr":
        """Bind the atoms in ``point`` to rationals, keeping the rest symbolic."""

        def eval_poly(poly: Poly) -> Poly:
            out: Poly = {}
            for m, c in poly.items():
                rest = []
                for atom, e in m:
                    if atom in point:
                        c = c * Fraction(point[atom]) ** e
                    else:
                        rest.append((atom, e))
                rm = tuple(rest)
                s = out.get(rm, _ZERO) + c
                if s:
                    out[rm] = s
                else:
                    out.pop(rm, None)
            return out

        den = eval_poly(self._den)
        if not den:
            raise PoleError(f"denominator vanishes at the given point: {self}")
        return Expr._make(self.ctx, eval_poly(self._num), den)

    # -- printing ----------------------------------------------------------

    def _poly_str(self, poly: Poly) -> str:
        if not poly:
            return "0"
        parts = []
        for m, c in self._sorted_terms(poly):
            factors = []
            for atom, e in m:
                s = str(atom)
                factors.append(s if e == 1 else f"{s}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self):
        num = self._poly_str(self._num)
        if _pconst(self._den) is not None:
            return num
        return f"({num})/({self._poly_str(self._den)})"

    def __repr__(self):
        return f"Expr({self})"

