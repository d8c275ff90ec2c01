"""Problem loaders and randomized expression generators for the test suite.

Every G-structure problem comes from `.prob` text, parsed and validated as
`load_problem` does: the corpus under `problems/`, or a numbered draw of
`perfbench/genprob.py`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import genprob
from cartaneq.problems import load_problem, parse_problem_text, validate_problem

PROBLEMS = Path(__file__).parent.parent / "problems"


def corpus_problem(name: str):
    """The problem of `problems/<name>.prob`."""
    return load_problem(PROBLEMS / f"{name}.prob")[0]


def problem_from_text(text: str):
    problem, policy = parse_problem_text(text)
    validate_problem(problem, policy)
    return problem


def drawn_problem(seed: int):
    """Draw `seed` of the benchmark's random problem generator."""
    return problem_from_text(genprob.random_problem_text(seed))


class ScriptedRng:
    """A stand-in for ``random.Random`` in ``generic_points``: an atom without
    a centre is drawn as the next of ``values`` (the last one repeating), an
    atom with centre c as c - 1."""

    def __init__(self, *values: int):
        self.values = list(values)

    def choice(self, seq):
        return 1

    def randint(self, lo: int, hi: int) -> int:
        if (lo, hi) == (1, 9):
            return self.values.pop(0) if len(self.values) > 1 else self.values[0]
        return {(1, 3): 1, (-4, 4): -2, (2, 5): 2}[(lo, hi)]


def random_fraction(rng: random.Random, lo: int = -6, hi: int = 6, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, 3))
        if not nonzero or f:
            return f


def random_expr(ctx, rng: random.Random, atoms, depth: int = 3):
    """A random rational expression over the given atom expressions."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return ctx.expr(random_fraction(rng))
        return rng.choice(atoms)
    op = rng.randrange(4)
    a = random_expr(ctx, rng, atoms, depth - 1)
    b = random_expr(ctx, rng, atoms, depth - 1)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    if b.is_zero():
        return a
    return a / b


def random_poly_expr(ctx, rng: random.Random, atoms, terms: int = 3, deg: int = 2):
    total = ctx.zero
    for _ in range(rng.randint(1, terms)):
        term = ctx.expr(random_fraction(rng, nonzero=True))
        for _ in range(rng.randint(0, deg)):
            term = term * rng.choice(atoms)
        total = total + term
    return total
