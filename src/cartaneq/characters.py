"""Reduced Cartan characters by rank maximization over contraction directions.

The k-th maximal rank r_k is the rank of the stacked one-form system for k
directions, built with fresh symbolic direction vectors ``_dir{k}_{t}``: its
rank over the function field is the true maximum over all real direction
tuples.  Witness directions exhibit the maxima.

Each report is first offered to Cartan's test at one sampled point.  The
stack evaluated there, at unit and unit-pair directions, has ranks
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
from typing import Callable, Iterator, Sequence

from .exprs import Context, Expr, PoleError, Symbol
from .linalg import extend_echelon, generic_points

__all__ = ["CharacterReport", "reduced_characters"]

RowBuilder = Callable[[Sequence[Expr]], list[list[Expr]]]

# the certification point is drawn from its own generator, seeded with this,
# so a certified report consumes none of the run's RNG and its point depends
# only on the rows
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
    # the rows whose rank is r_n: the system stacked over the directions _dir{k}_{t}
    stacked_rows: list[list[Expr]] = field(default_factory=list, repr=False)


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


def _certified(
    dirs: list[list[Symbol]], blocks: list[list[list[Expr]]], ncols: int, r2: int
) -> tuple[list[int], list[list[Fraction]]] | None:
    """The ranks and witnesses Cartan's test certifies at one point, or None.

    At step k the witness is the first unit-grid direction at which the
    stack reaches its largest rank rho_k, searched no further once rho_k is
    the most that step can reach."""
    n = len(blocks)
    keep = {d for ds in dirs for d in ds}
    stacked = [row for block in blocks for row in block]
    drawn = next(generic_points(stacked, random.Random(_POINT_SEED), keep=keep), None)
    if drawn is None:
        return None
    values = iter(drawn[1])
    ranks: list[int] = []
    witnesses: list[list[Fraction]] = []
    basis: list = []
    for ds, block in zip(dirs, blocks):
        rows = [next(values) for _ in block]
        cap = min(len(basis) + len(rows), ncols)
        best = None
        for cand in _unit_grid(n):
            at = dict(zip(ds, cand))
            try:
                grown = extend_echelon(basis, [[e.eval_at(at) for e in row] for row in rows])
            except PoleError:
                return None
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


def reduced_characters(
    ctx: Context,
    n: int,
    ncols: int,
    build_rows: RowBuilder,
    r2: int,
    rng: random.Random,
) -> CharacterReport:
    """Greedy characters of the direction-contracted one-form system, tested
    against the exact fiber dimension ``r2``.

    ``build_rows(v)`` maps a direction vector (entries Expr) to the rows of
    the contracted system against a fixed ``ncols``-column basis.  ``rng``
    is drawn from only when Cartan's test at a point cannot certify the
    report and a witness is not on the unit grid.
    """
    if ncols == 0:
        return CharacterReport([0] * n, [0] * n, [None] * n, r2, r2 == 0)

    dirs: list[list[Symbol]] = []
    blocks: list[list[list[Expr]]] = []
    for k in range(n):
        # declared step by step: building a block may declare jet symbols
        dirs.append([ctx.declare_symbol(f"_dir{k}_{t}", "auxiliary") for t in range(n)])
        blocks.append(build_rows([ctx.expr(d) for d in dirs[-1]]))
    sym_rows = [row for block in blocks for row in block]
    notes: list[str] = []
    certified = _certified(dirs, blocks, ncols, r2)
    if certified is not None:
        ranks, witnesses = certified
    else:
        ranks, witnesses = [], []
        # echelon bases of the symbolic and the witness stacks: step k reduces
        # only its new rows, and a basis's length is the rank of its stack
        sym_basis: list = []
        witness_basis: list = []
        for k, block in enumerate(blocks):
            sym_basis = extend_echelon(sym_basis, block)
            rk = len(sym_basis)
            ranks.append(rk)

            witness = None
            for cand in _direction_grid(n, rng):
                basis = extend_echelon(witness_basis, build_rows([ctx.expr(c) for c in cand]))
                if len(basis) == rk:
                    witness = cand
                    witness_basis = basis
                    break
            if witness is None:
                notes.append(f"no grid witness attained certified rank r_{k + 1} = {rk}")
            witnesses.append(witness)
    s = [rk - prev for rk, prev in zip(ranks, [0] + ranks)]
    return CharacterReport(s, ranks, witnesses, r2, r2 == _cartan_sum(ranks), notes, sym_rows)
