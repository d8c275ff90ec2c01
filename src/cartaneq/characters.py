"""Reduced Cartan characters by rank maximization over contraction directions.

The k-th maximal rank r_k is certified exactly: the stacked one-form system
for k directions is built with fresh symbolic direction vectors and its rank
over the function field is the true maximum over all real direction tuples.
Witness directions are then searched on a deterministic grid (unit vectors,
unit-pair sums, seeded random rational vectors) to exhibit the maxima.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .exprs import Context, Expr
from .linalg import extend_echelon

__all__ = ["CharacterReport", "reduced_characters"]

RowBuilder = Callable[[Sequence[Expr]], list[list[Expr]]]


@dataclass
class CharacterReport:
    """Characters s_1..s_n with the certified stacked ranks and witnesses."""

    s: list[int]
    ranks: list[int]
    witnesses: list[list[Fraction] | None]
    r2: int | None = None
    involutive: bool | None = None
    notes: list[str] = field(default_factory=list)
    # the rows whose rank is r_n: the system stacked over the directions _dir{k}_{t}
    stacked_rows: list[list[Expr]] = field(default_factory=list, repr=False)

    def cartan_sum(self) -> int:
        return sum((i + 1) * si for i, si in enumerate(self.s))

    def with_fiber_dimension(self, r2: int) -> "CharacterReport":
        self.r2 = r2
        self.involutive = r2 == self.cartan_sum()
        return self


def _direction_grid(n: int, rng: random.Random):
    for i in range(n):
        yield [Fraction(1 if t == i else 0) for t in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            yield [Fraction(1 if t in (i, j) else 0) for t in range(n)]
    for _ in range(50):
        yield [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]


def reduced_characters(
    ctx: Context,
    n: int,
    ncols: int,
    build_rows: RowBuilder,
    rng: random.Random,
) -> CharacterReport:
    """Greedy characters of the direction-contracted one-form system.

    ``build_rows(v)`` maps a direction vector (entries Expr) to the rows of
    the contracted system against a fixed ``ncols``-column basis.
    """
    if ncols == 0:
        return CharacterReport([0] * n, [0] * n, [None] * n)

    s: list[int] = []
    ranks: list[int] = []
    witnesses: list[list[Fraction] | None] = []
    notes: list[str] = []
    sym_rows: list[list[Expr]] = []
    # echelon bases of the symbolic and the witness stacks: step k reduces
    # only its new rows, and a basis's length is the rank of its stack
    sym_basis: list = []
    witness_basis: list = []
    prev_rank = 0
    for k in range(n):
        vsyms = [
            ctx.expr(ctx.declare_symbol(f"_dir{k}_{t}", "auxiliary"))
            for t in range(n)
        ]
        new_rows = build_rows(vsyms)
        sym_rows.extend(new_rows)
        sym_basis = extend_echelon(sym_basis, new_rows)
        rk = len(sym_basis)
        ranks.append(rk)
        s.append(rk - prev_rank)

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
        prev_rank = rk
    return CharacterReport(s, ranks, witnesses, notes=notes, stacked_rows=sym_rows)
