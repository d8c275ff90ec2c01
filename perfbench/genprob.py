"""Seeded generator of random G-structure problems as `.prob` text.

A port of the template stock in `tests/genutil.py` (`random_problem`,
`random_coframe`, `group_template`) that writes problem-file text instead of
building objects, so the program under test receives only files and parses
and validates them as a user's would.  Draws are not filtered: problems whose
crosscheck disagrees or does not terminate stay in the stream at their
natural rate.

    python3 perfbench/genprob.py SEED            # print one problem
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction


def _fraction(rng: random.Random, lo: int = -6, hi: int = 6, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, 3))
        if not nonzero or f:
            return f


def _poly(rng: random.Random, atoms: list[str], terms: int = 2, deg: int = 1) -> str:
    """A sum of 1..terms monomials, each a nonzero rational times 0..deg atoms."""
    out = []
    for _ in range(rng.randint(1, terms)):
        factors = [f"({_fraction(rng, nonzero=True)})"]
        factors += [rng.choice(atoms) for _ in range(rng.randint(0, deg))]
        out.append("*".join(factors))
    return " + ".join(out)


def _coframe(rng: random.Random, n: int, atoms: list[str]) -> list[list[str]]:
    """A triangular coframe with a nonzero diagonal, so generically invertible."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i:
                row.append(_poly(rng, atoms) if rng.random() < 0.5 else "0")
            elif j == i:
                if rng.random() < 0.4:
                    row.append("1")
                elif rng.random() < 0.5:
                    row.append(rng.choice(atoms))
                else:
                    row.append(f"({_fraction(rng, 1, 4, nonzero=True)})")
            else:
                row.append("0")
        rows.append(row)
    return rows


# (params, identity values, matrix rows) for each template, by dimension.
_TEMPLATES = {
    2: [
        ("ga gb", "1 1", [["ga", "0"], ["0", "gb"]]),  # full diagonal
        ("ga", "1", [["ga", "0"], ["0", "1"]]),  # scaling on the first leg
        ("ga", "0", [["1", "ga"], ["0", "1"]]),  # unipotent
        ("ga gb gc", "1 0 1", [["ga", "gb"], ["0", "gc"]]),  # Borel
        ("ga gb", "1 0", [["ga", "-gb"], ["gb", "ga"]]),  # CO(2)
        ("ga gb gc gd", "1 0 0 1", [["ga", "gb"], ["gc", "gd"]]),  # GL(2)
    ],
    3: [
        ("ga gb gc", "1 1 1", [["ga", "0", "0"], ["0", "gb", "0"], ["0", "0", "gc"]]),
        ("ga gb gc", "0 0 0", [["1", "ga", "gb"], ["0", "1", "gc"], ["0", "0", "1"]]),
        ("ga gb gc gd ge", "1 0 0 1 0", [["ga", "gb", "gc"], ["0", "gd", "0"], ["0", "ge", "1/gd"]]),
        ("ga gb", "1 1", [["ga", "0", "0"], ["0", "gb", "0"], ["0", "0", "ga*gb"]]),
    ],
}


def random_problem_text(seed: int, title: str | None = None) -> str:
    """The `.prob` text of draw `seed`: n in {2, 2, 3}, an opaque function in
    about half of the draws, a random triangular coframe and a stock group."""
    rng = random.Random(seed)
    n = rng.choice([2, 2, 3])
    coords = ["x", "y", "w"][:n]
    atoms = list(coords)
    opaque = rng.random() < 0.5
    if opaque:
        atoms.append(f"f({', '.join(coords)})")
    rows = _coframe(rng, n, atoms)
    params, identity, matrix = rng.choice(_TEMPLATES[n])

    lines = [
        "[metadata]",
        f"title = {title or f'random-{seed}'}",
        "",
        "[coordinates]",
        f"names = {', '.join(coords)}",
        "",
    ]
    if opaque:
        lines += ["[opaque]", f"f = {', '.join(coords)}", ""]
    lines.append("[coframe]")
    lines += [f"A {i + 1} {j + 1} = {rows[i][j]}" for i in range(n) for j in range(n)]
    lines += ["", "[group]", f"params = {', '.join(params.split())}"]
    lines += [f"M {i + 1} {j + 1} = {matrix[i][j]}" for i in range(n) for j in range(n)]
    lines += [f"identity {a} = {v}" for a, v in zip(params.split(), identity.split())]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(random_problem_text(int(sys.argv[1])))
