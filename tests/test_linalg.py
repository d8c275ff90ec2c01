import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cartaneq import Context
from cartaneq.linalg import (
    SingularMatrixError,
    back_substitute,
    echelon,
    eliminate,
    extend_echelon,
    generic_points,
    identity_matrix,
    mat_det,
    mat_inverse,
    mat_mul,
    row_reduce,
    symbolic_rank,
)

from genutil import ScriptedRng


@pytest.fixture
def ctx():
    c = Context()
    c.declare_symbols(["x", "y"], "coordinate")
    return c


def test_det_and_inverse(ctx):
    x = ctx.sym("x")
    M = [[x, ctx.one], [ctx.zero, x]]
    assert mat_det(M) == x * x
    inv = mat_inverse(M)
    assert mat_mul(M, inv) == identity_matrix(ctx, 2)
    assert inv[0][1] == -1 / (x * x)
    # pivot rows found out of order: the row permutation gives the sign
    y = ctx.sym("y")
    assert mat_det([[ctx.zero, ctx.one], [ctx.one, ctx.zero]]) == -1
    assert mat_det([[ctx.zero, ctx.zero, x], [ctx.zero, y, ctx.zero], [ctx.one, ctx.zero, ctx.zero]]) == -x * y
    cyclic = [[ctx.zero, x, ctx.zero], [ctx.zero, ctx.zero, y], [ctx.one, ctx.zero, ctx.zero]]
    assert mat_det(cyclic) == x * y
    assert mat_mul(cyclic, mat_inverse(cyclic)) == identity_matrix(ctx, 3)
    # sampled (Fraction) matrices take the same path
    F = Fraction
    assert mat_det([[F(1, 2), F(3)], [F(2), F(4)]]) == F(-4)
    assert mat_det([[F(0), F(1)], [F(1), F(0)]]) == F(-1)
    assert mat_det([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_mat_mul_with_empty_inner_dimension(ctx):
    # a chart of dimension 1 has no index pairs: n x 0 times 0 x 0
    assert mat_mul([[], []], []) == [[], []]
    x = ctx.sym("x")
    assert mat_mul([[x, ctx.zero]], [[ctx.zero], [x]]) == [[ctx.zero]]


def test_inverse_singular(ctx):
    x = ctx.sym("x")
    with pytest.raises(SingularMatrixError):
        mat_inverse([[x, x], [x, x]])
    assert mat_det([[x, x], [x, x]]).is_zero()


def test_symbolic_rank(ctx):
    x, y = ctx.sym("x"), ctx.sym("y")
    assert symbolic_rank([[x, y], [x * x, x * y]]) == 1
    assert symbolic_rank([[x, y], [y, x]]) == 2
    assert symbolic_rank([]) == 0
    assert symbolic_rank([[ctx.zero, ctx.zero]]) == 0
    F = Fraction
    assert symbolic_rank([[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]) == 2
    assert symbolic_rank([[F(0), F(1)], [F(1), F(0)], [F(1), F(1)]]) == 2
    assert symbolic_rank([[F(0), F(0)]]) == 0


def test_row_reduce_pivots_and_rhs(ctx):
    x = ctx.sym("x")
    rows = [
        [ctx.one, ctx.one, x],
        [ctx.one, ctx.one, x],  # duplicate: no second pivot in these columns
        [ctx.zero, x, ctx.one],
    ]
    reduced, pivots = row_reduce(rows, 2)
    assert [c for _, c in pivots] == [0, 1]
    # the duplicate row was annihilated
    free = [r for r in range(3) if r not in {p for p, _ in pivots}]
    assert len(free) == 1
    assert all(reduced[free[0]][c].is_zero() for c in range(2))


def test_eliminate_pivot_rules(ctx):
    x, y = ctx.sym("x"), ctx.sym("y")
    heavy = [x + y + 1, x, ctx.one]
    light = [x, ctx.one, (x + y) ** 5]  # the trailing column is not weighed
    _, pivots, _ = eliminate([heavy, light], 2)
    assert pivots[0] == (0, 0)
    _, pivots, values = eliminate([heavy, light], 2, sparsest=True)
    assert pivots[0] == (1, 0)
    assert values[0] == x
    # ties go to the lower row
    _, pivots, _ = eliminate([heavy[:2], [x, ctx.one], [y, ctx.one]], 2, sparsest=True)
    assert pivots[0] == (1, 0)


def test_eliminate_tracked_columns(ctx):
    x, y = ctx.sym("x"), ctx.sym("y")
    F = Fraction
    A = [[F(1), F(2)], [F(2), F(4)], [F(0), F(3)]]
    rhs = [x, y, x * y]
    # [A | I | rhs], as in the absorption solve
    rows = [a + [F(int(f == e)) for f in range(3)] + [r] for e, (a, r) in enumerate(zip(A, rhs))]
    reduced, pivots, values = eliminate(rows, 2)
    assert rows[1][0] == 2  # the input is copied, not reduced in place
    assert pivots == [(0, 0), (2, 1)]
    assert values == [1, 3]
    # every reduced row is its tracked transform applied to the input rows
    for r in range(3):
        T = reduced[r][2:5]
        for c in range(6):
            assert reduced[r][c] == sum((T[f] * rows[f][c] for f in range(3)), ctx.zero)
    assert reduced[1][:5] == [0, 0, -2, 1, 0]
    assert reduced[1][5] == y - 2 * x
    assert all(isinstance(e, Fraction) for e in reduced[1][:5])


def test_generic_points_are_seeded(ctx):
    ctx.declare_symbol("z", "coordinate")
    ctx.declare_opaque("f", ["x", "y"])
    rows = [[ctx.parse("x*y + f(x, y)"), ctx.parse("1/(x - z)")], [ctx.parse("y"), ctx.one]]

    def draws(seed):
        return list(itertools.islice(generic_points(rows, random.Random(seed)), 5))

    assert draws(3) == draws(3)
    assert draws(3) != draws(4)
    for point, values in draws(3):
        assert values == [[e.eval_at(point) for e in row] for row in rows]


def test_generic_points_skip_poles(ctx):
    e = ctx.parse("1/(x - 1)")
    x = ctx.get_symbol("x")
    # the first draw x = 1 is a pole and is skipped
    assert next(generic_points([[e]], ScriptedRng(1, 2))) == ({x: 2}, [[1]])
    # every draw a pole: the generator ends
    assert list(generic_points([[e]], ScriptedRng(1))) == []


def test_generic_points_keep_and_center(ctx):
    z = ctx.declare_symbol("z", "coordinate")
    x, y = ctx.get_symbol("x"), ctx.get_symbol("y")
    rows = [[ctx.parse("x*y + z")]]
    points = generic_points(rows, random.Random(0), center={x: Fraction(5)}, keep={y})
    for point, values in itertools.islice(points, 50):
        assert list(point) == [x, z]
        assert abs(point[x] - 5) <= 2
        assert values == [[ctx.expr(point[x]) * ctx.sym("y") + ctx.expr(point[z])]]


def _reference_eliminate(rows, npivot_cols, *, sparsest=False):
    """The one-pass Gauss-Jordan core that ``echelon`` + ``back_substitute``
    replaced, kept verbatim as the oracle."""
    rows = [list(r) for r in rows]
    unused = list(range(len(rows)))
    pivots = []
    values = []
    for col in range(npivot_cols):
        if not unused:
            break
        if sparsest:
            cands = [r for r in unused if rows[r][col]]
            piv = min(cands, key=lambda r: sum(e.size() for e in rows[r][:npivot_cols]), default=None)
        else:
            piv = next((r for r in unused if rows[r][col]), None)
        if piv is None:
            continue
        unused.remove(piv)
        pivots.append((piv, col))
        pv = rows[piv][col]
        values.append(pv)
        if pv != 1:
            rows[piv] = [x / pv if x else x for x in rows[piv]]
        prow = rows[piv]
        for r, row in enumerate(rows):
            f = row[col]
            if r != piv and f:
                rows[r] = [x - f * y if y else x for x, y in zip(row, prow)]
    return rows, pivots, values


def _reference_det(m):
    n = len(m)
    _, pivots, values = _reference_eliminate(m, n)
    if len(pivots) < n:
        return m[0][0] * 0
    det = values[0]
    for v in values[1:]:
        det = det * v
    order = [r for r, _ in pivots]
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return -det if inversions % 2 else det


_ORACLE_CTX = Context()
_OXS, _OYS = _ORACLE_CTX.declare_symbols(["x", "y"], "coordinate")
_OX, _OY = _ORACLE_CTX.expr(_OXS), _ORACLE_CTX.expr(_OYS)
# a few small entries, two of them with a denominator
_POOL = [_ORACLE_CTX.zero, _ORACLE_CTX.one, _OX, _OY, _OX * _OY - 1, _OX + _OY, 1 / (_OX + 1), _OY / _OX]
_SMALL_INT = st.integers(-3, 3)
# an entry: a * pool[i] + b * pool[j], zero about a third of the time
_ENTRY = st.tuples(_SMALL_INT, st.integers(0, len(_POOL) - 1), _SMALL_INT, st.integers(0, len(_POOL) - 1))
_MATRIX = st.integers(1, 4).flatmap(
    lambda ncols: st.lists(st.lists(_ENTRY, min_size=ncols, max_size=ncols), min_size=1, max_size=4)
)


def _oracle_matrix(spec, kind, combine):
    """Entries from the spec, as Expr or as Fraction (the Expr at x=2, y=3);
    with ``combine`` a last row that is a combination of the first two."""
    rows = [[a * _POOL[i] + b * _POOL[j] for a, i, b, j in row] for row in spec]
    if combine and len(rows) >= 2:
        rows.append([_OX * u - 2 * v for u, v in zip(rows[0], rows[1])])
    if kind == "fraction":
        rows = [[e.eval_at({_OXS: 2, _OYS: 3}) for e in row] for row in rows]
    return rows


@settings(max_examples=80, deadline=None)
@given(spec=_MATRIX, npivot=st.integers(1, 4), kind=st.sampled_from(["expr", "fraction"]),
       sparsest=st.booleans(), combine=st.booleans(), track=st.booleans())
def test_eliminate_and_echelon_agree_with_the_reference_gauss_jordan(spec, npivot, kind, sparsest, combine, track):
    rows = _oracle_matrix(spec, kind, combine)
    sparsest = sparsest and kind == "expr"  # the sparsest rule weighs Expr terms
    ncols = len(rows[0])
    npivot = min(npivot, ncols)
    if track:  # [rows | I], the tracked transform of the absorption solve and prolongation
        one, zero = (_ORACLE_CTX.one, _ORACLE_CTX.zero) if kind == "expr" else (Fraction(1), Fraction(0))
        rows = [row + [one if f == e else zero for f in range(len(rows))] for e, row in enumerate(rows)]
    ref_rows, ref_pivots, ref_values = _reference_eliminate(rows, npivot, sparsest=sparsest)
    assert eliminate(rows, npivot, sparsest=sparsest) == (ref_rows, ref_pivots, ref_values)

    ech_rows, pivots = echelon(rows, npivot, sparsest=sparsest)
    assert pivots == ref_pivots
    assert [ech_rows[r][c] for r, c in pivots] == ref_values
    pivot_rows = {r for r, _ in pivots}
    assert [row for r, row in enumerate(ech_rows) if r not in pivot_rows] == [
        row for r, row in enumerate(ref_rows) if r not in pivot_rows
    ]
    assert back_substitute(ech_rows, pivots) == ref_rows

    assert symbolic_rank(rows) == len(_reference_eliminate(rows, len(rows[0]))[1])
    k = min(len(rows), ncols)
    square = [row[:k] for row in rows[:k]]
    assert mat_det(square) == _reference_det(square)
    # growing an echelon basis row by row reaches the same ranks
    basis = []
    for i, row in enumerate(rows):
        basis = extend_echelon(basis, [row])
        assert len(basis) == len(_reference_eliminate(rows[: i + 1], len(row))[1])
