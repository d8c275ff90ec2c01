"""Problem loaders, randomized expression generators and the CLI command
sweep for the test suite.

Every G-structure problem comes from `.prob` text, parsed and validated as
`load_problem` does: the corpus under `problems/`, or a numbered draw of
`perfbench/genprob.py`.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import genprob
from cartaneq.cli import main
from cartaneq.problems import load_problem, parse_problem_text, validate_problem

PROBLEMS = Path(__file__).parent.parent / "problems"


def corpus_problem(name: str):
    """The problem of `problems/<name>.prob`."""
    return load_problem(PROBLEMS / f"{name}.prob")[0]


def problem_from_text(text: str):
    problem, _ = parse_problem_text(text)
    validate_problem(problem)
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


# Inputs that take the paths no corpus problem or draw takes: the ^ and D(...)
# grammar, a residual normalized as a pure power of a parameter (which then
# has no triangular recovery plan), and a file that does not parse.
POWER_PROBLEM = """\
[coordinates]
names = x, y
[coframe]
A 1 1 = 1/x
A 1 2 = 0
A 2 1 = 0
A 2 2 = D(x^2, x)/(2*x^2)
[group]
params = a
M 1 1 = a^-2
M 1 2 = 0
M 2 1 = 0
M 2 2 = 1
identity a = 1
[membership]
eq = g12
eq = g21
eq = g22 - 1
"""
MALFORMED_PROBLEM = "[coordinates]\nnames = x\n[coframe]\nA 1 1 = x +\n[group]\nparams =\nM 1 1 = 1\n"


def cli_outputs(directory: Path, extra: Sequence[str] = ()) -> dict:
    """Exit code, stdout, stderr and JSON report of run --json, characters,
    crosscheck and check on the corpus, on draws 0-49 and on the ``extra``
    problem texts (written as ``extra-<k>.prob``), keyed by command and file
    name, with the elapsed-time line left out and ``directory`` written as <dir>."""
    paths = sorted(PROBLEMS.glob("*.prob"))
    texts = {f"draw-{draw:02d}.prob": genprob.random_problem_text(draw) for draw in range(50)}
    texts |= {f"extra-{k}.prob": text for k, text in enumerate(extra)}
    for name, text in texts.items():
        paths.append(directory / name)
        paths[-1].write_text(text)
    report = directory / "report.json"
    out = {}
    for path in paths:
        for command in ("run", "characters", "crosscheck", "check"):
            report.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([command, str(path)] + (["--json", str(report)] if command == "run" else []))
            text = re.sub(r"^elapsed: .*\n", "", stdout.getvalue(), flags=re.M).replace(str(directory), "<dir>")
            out[command, path.name] = (code, text, stderr.getvalue(), report.read_text() if report.exists() else None)
    return out


def entered_code(run) -> tuple[set, object]:
    """The code objects of every frame entered while ``run()`` runs, and what
    it returns."""
    entered = set()
    # the global trace function sees only the 'call' event of each frame, so
    # it costs a third of a setprofile hook, which also sees every return and
    # every C call; returning None leaves the frame untraced
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: entered.add(frame.f_code))
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return entered, result


def recorded_calls(monkeypatch, module, name: str, record=lambda *args: None) -> list:
    """Patch ``module.<name>`` to append ``record(*args)`` to the returned list
    on each call before it runs the original."""
    calls = []
    original = getattr(module, name)

    def recording(*args):
        calls.append(record(*args))
        return original(*args)

    monkeypatch.setattr(module, name, recording)
    return calls
