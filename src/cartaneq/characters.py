"""Reduced Cartan characters by rank maximization over contraction directions.

A system enters as its tableau: ``tableau[i]`` is the system contracted with
the unit direction e_i, so :func:`contract` (tableau, v) = sum_i v_i T_i.
The k-th maximal rank r_k is the rank of the tableau contracted with k fresh
symbolic directions ``_dir{k}_{t}`` and stacked: its rank over the function
field is the true maximum over all real direction tuples.  Witness
directions exhibit the maxima.

Each report is first offered to Cartan's test at one sampled point.  The
tableau there, contracted with unit and unit-pair directions, has ranks
rho_k <= r_k.  When rho_n is the number of columns and the exact fiber
dimension r2 equals n rho_n - sum_{k<n} rho_k, Cartan's inequality
r2 <= s_1 + 2 s_2 + ... + n s_n = n r_n - sum_{k<n} r_k forces rho_k = r_k
for every k: the ranks are proven, the report is involutive, and each
witness, a direction reaching rho_k at the point, attains r_k.  Only a
report the test cannot certify (not involutive, or an unlucky point) is
ranked by exact elimination over the direction symbols, with witnesses
searched on the grid of unit vectors, unit-pair sums and seeded random
vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from .exprs import Context
from .linalg import Entry, Matrix, extend_echelon, generic_points

__all__ = ["CharacterReport", "contract", "direction_blocks", "reduced_characters", "tableau_points"]

Tableau = Sequence[Sequence[Sequence[Entry]]]

# the certification point is drawn from its own generator, seeded with this,
# so a certified report consumes none of the run's RNG and its point depends
# only on the tableau
_POINT_SEED = 0


@dataclass
class CharacterReport:
    """Characters s_1..s_n with the proven stacked ranks and their witnesses,
    the exact fiber dimension r2 and Cartan's test r2 == s_1 + 2 s_2 + ... + n s_n."""

    s: list[int]
    ranks: list[int]
    witnesses: list[list[Fraction] | None]
    r2: int | None = None
    involutive: bool | None = None
    notes: list[str] = field(default_factory=list)
    # the tableau whose contractions the ranks are taken of
    tableau: Tableau = field(default_factory=list, repr=False)


def contract(tableau: Tableau, v: Sequence[Entry]) -> Matrix:
    """The rows sum_i v_i T_i of the tableau contracted with the direction v.

    Entries and components are Expr or Fraction; products with a zero factor
    are skipped."""
    rows = []
    for r, first in enumerate(tableau[0]):
        rows.append([])
        for c, entry in enumerate(first):
            terms = [vi * T[r][c] for vi, T in zip(v, tableau) if vi and T[r][c]]
            # v_0 T_0 * 0 is the zero of the product's type
            rows[-1].append(sum(terms[1:], terms[0]) if terms else v[0] * entry * 0)
    return rows


def direction_blocks(ctx: Context, tableau: Tableau) -> list[Matrix]:
    """The tableau contracted with the direction symbols _dir{k}_0.._dir{k}_{n-1},
    one block for each k < n: stacked, their rank is the generic one."""
    n = len(tableau)
    dirs = [ctx.declare_symbols([f"_dir{k}_{t}" for t in range(n)]) for k in range(n)]
    return [contract(tableau, [ctx.expr(d) for d in ds]) for ds in dirs]


def tableau_points(tableau: Tableau, rng: random.Random) -> Iterator[tuple[dict, list[Matrix]]]:
    """:func:`generic_points` of the tableau's entries, each point's values
    given as a tableau of Fractions."""
    m = len(tableau[0])
    for point, values in generic_points([row for T in tableau for row in T], rng):
        yield point, [values[i * m:(i + 1) * m] for i in range(len(tableau))]


def _cartan_sum(ranks: list[int]) -> int:
    """s_1 + 2 s_2 + ... + n s_n = n r_n - (r_1 + ... + r_{n-1})."""
    return len(ranks) * ranks[-1] - sum(ranks[:-1])


def _unit_grid(n: int) -> Iterator[list[Fraction]]:
    for i in range(n):
        yield [Fraction(1 if t == i else 0) for t in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            yield [Fraction(1 if t in (i, j) else 0) for t in range(n)]


def _direction_grid(n: int, rng: random.Random) -> Iterator[list[Fraction]]:
    yield from _unit_grid(n)
    for _ in range(50):
        yield [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]


def _certified(tableau: Tableau, ncols: int, r2: int) -> tuple[list[int], list[list[Fraction]]] | None:
    """The ranks and witnesses Cartan's test certifies at one point, or None.

    At step k the witness is the first unit-grid direction at which the
    stack reaches its largest rank rho_k, searched no further once rho_k is
    the most that step can reach."""
    _, at_point = next(tableau_points(tableau, random.Random(_POINT_SEED)), (None, None))
    if at_point is None:
        return None
    n = len(tableau)
    ranks: list[int] = []
    witnesses: list[list[Fraction]] = []
    basis: list = []
    for _ in range(n):
        cap = min(len(basis) + len(tableau[0]), ncols)
        best = None
        for cand in _unit_grid(n):
            grown = extend_echelon(basis, contract(at_point, cand))
            if best is None or len(grown) > len(best[1]):
                best = (cand, grown)
                if len(grown) == cap:
                    break
        witnesses.append(best[0])
        basis = best[1]
        ranks.append(len(basis))
    if ranks[-1] != ncols or r2 != _cartan_sum(ranks):
        return None
    return ranks, witnesses


def reduced_characters(ctx: Context, ncols: int, tableau: Tableau, r2: int, rng: random.Random) -> CharacterReport:
    """Greedy characters of the tableau, tested against the exact fiber
    dimension ``r2``.

    ``tableau[i]`` is the system contracted with the unit direction e_i
    (entries Expr) against a fixed ``ncols``-column basis; n = len(tableau).
    ``rng`` is drawn from only when Cartan's test at a point cannot certify
    the report and a witness is not on the unit grid.
    """
    n = len(tableau)
    if ncols == 0:
        return CharacterReport([0] * n, [0] * n, [None] * n, r2, r2 == 0, tableau=tableau)

    notes: list[str] = []
    certified = _certified(tableau, ncols, r2)
    if certified is not None:
        ranks, witnesses = certified
    else:
        ranks, witnesses = [], []
        # echelon bases of the symbolic and the witness stacks: step k reduces
        # only its new rows, and a basis's length is the rank of its stack
        sym_basis: list = []
        witness_basis: list = []
        for k, block in enumerate(direction_blocks(ctx, tableau)):
            sym_basis = extend_echelon(sym_basis, block)
            rk = len(sym_basis)
            ranks.append(rk)

            witness = None
            for cand in _direction_grid(n, rng):
                basis = extend_echelon(witness_basis, contract(tableau, cand))
                if len(basis) == rk:
                    witness = cand
                    witness_basis = basis
                    break
            if witness is None:
                notes.append(f"no grid witness attained certified rank r_{k + 1} = {rk}")
            witnesses.append(witness)
    s = [rk - prev for rk, prev in zip(ranks, [0] + ranks)]
    return CharacterReport(s, ranks, witnesses, r2, r2 == _cartan_sum(ranks), notes, tableau)
