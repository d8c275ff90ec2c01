"""The reduced characters: Cartan's test at one sampled point against the
exact elimination over the direction symbols."""

import contextlib
import functools
import io
import random
from fractions import Fraction

import pytest

import genprob
from cartaneq import Context, characters, engine, jets
from cartaneq.cli import main
from cartaneq.jets import crosscheck_characters
from cartaneq.linalg import generic_points
from genutil import PROBLEMS, corpus_problem


def _fields(report):
    return report.s, report.ranks, report.witnesses, report.r2, report.involutive, report.notes


def _exact(*args):
    """``reduced_characters`` with the certificate switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "_certified", lambda *_: None)
        return characters.reduced_characters(*args)


def _point_value(ctx, x):
    """The value of ``x`` at the certification point of rows whose only atom
    besides the directions is ``x``."""
    return next(generic_points([[ctx.expr(x)]], random.Random(characters._POINT_SEED)))[0][x]


def _certifying(*args):
    """``reduced_characters`` as the program runs it, and whether Cartan's
    test certified the report."""
    certify, held = characters._certified, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "_certified", lambda *a: held.append(certify(*a)) or held[-1])
        report = characters.reduced_characters(*args)
    return report, bool(held) and held[0] is not None


def _falls_back(ctx, n, ncols, build_rows, r2):
    report, certified = _certifying(ctx, n, ncols, build_rows, r2, random.Random(3))
    assert not certified
    assert _fields(report) == _fields(_exact(ctx, n, ncols, build_rows, r2, random.Random(3)))
    return report


def test_a_point_short_of_a_rank_falls_back_to_the_exact_report():
    ctx = Context()
    x = ctx.declare_symbol("x", "coordinate")
    shift = ctx.expr(x) - ctx.expr(_point_value(ctx, x))
    # [[v0, v1], [(x - c) v1, 0]] has rank 2 at every direction with v1 != 0,
    # but 1 at x = c, the certification point: the point ranks (1, 2) reach
    # every column, and Cartan's equality r2 = 2*2 - 1 fails
    report = _falls_back(ctx, 2, 2, lambda v: [[v[0], v[1]], [shift * v[1], ctx.zero]], 2)
    assert (report.s, report.ranks, report.involutive) == ([2, 0], [2, 2], True)
    assert report.witnesses == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    # [[v0, 0], [0, (x - c) v0]] has rank 2, but 1 at the point: r2 = 1 meets
    # the equality for the point ranks, which fall short of the columns
    report = _falls_back(ctx, 1, 2, lambda v: [[v[0], ctx.zero], [ctx.zero, shift * v[0]]], 1)
    assert (report.s, report.ranks, report.involutive) == ([2], [2], False)


def test_a_grid_short_of_a_rank_falls_back_to_the_exact_report():
    # [[v0 - 1]] vanishes at the one unit direction: the witness is a random one
    ctx = Context()
    report = _falls_back(ctx, 1, 1, lambda v: [[v[0] - ctx.one]], 1)
    assert (report.s, report.ranks, report.involutive) == ([1], [1], True)
    assert report.witnesses[0] not in ([Fraction(1)], None)


def test_the_lagrangian_crosscheck_eliminates_over_no_direction_symbol(monkeypatch):
    steps = []
    extend = characters.extend_echelon

    def counting(basis, rows):
        # True: the stack at a point, in numbers; False: over the symbols
        steps.append(all(isinstance(e, Fraction) for row in rows for e in row))
        return extend(basis, rows)

    monkeypatch.setattr(characters, "extend_echelon", counting)
    result = crosscheck_characters(corpus_problem("lagrangian"), random.Random(0))
    assert result.equal and result.jet_s == [3, 1, 1]
    assert steps and all(steps)


def _paired(side, ctx, n, ncols, build_rows, r2, rng, *, into):
    """Compute a report twice, by the exact path on a copy of ``rng`` and as
    the program does, and record both with whether the certificate held and
    whether both left the RNG in one state."""
    twin = random.Random()
    twin.setstate(rng.getstate())
    exact = _exact(ctx, n, ncols, build_rows, r2, twin)
    report, certified = _certifying(ctx, n, ncols, build_rows, r2, rng)
    into.append((side, report, exact, certified, rng.getstate() == twin.getstate()))
    return report


@pytest.fixture(scope="module")
def paired_reports(tmp_path_factory):
    """Every character report of ``run`` and ``crosscheck`` on the corpus and
    draws 0-49, on the engine and the jet side, with its exact-path twin."""
    directory = tmp_path_factory.mktemp("paired")
    paths = sorted(PROBLEMS.glob("*.prob"))
    for draw in range(50):
        paths.append(directory / f"draw-{draw:02d}.prob")
        paths[-1].write_text(genprob.random_problem_text(draw))
    pairs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "reduced_characters", functools.partial(_paired, "engine", into=pairs))
        mp.setattr(jets, "reduced_characters", functools.partial(_paired, "jets", into=pairs))
        for path in paths:
            for command in ("run", "crosscheck"):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    main([command, str(path)])
    return pairs


def test_certified_reports_are_the_exact_ones(paired_reports):
    for side, report, exact, _, same_rng in paired_reports:
        assert _fields(report) == _fields(exact), side
        assert same_rng, side
    certified = {side: sum(c for s, _, _, c, _ in paired_reports if s == side) for side in ("engine", "jets")}
    # most reports are involutive and certified; the rest take the exact path
    assert certified["engine"] > 50 and certified["jets"] > 20, certified
    assert len(paired_reports) > sum(certified.values())


def test_cartan_inequality_holds_on_every_report(paired_reports):
    # r2 <= s_1 + 2 s_2 + ... + n s_n, the theorem the certificate rests on,
    # with equality exactly at involution
    for side, _, exact, _, _ in paired_reports:
        bound = sum(k * sk for k, sk in enumerate(exact.s, 1))
        assert exact.r2 <= bound, (side, exact.s, exact.r2)
        assert exact.involutive == (exact.r2 == bound)
    assert {side for side, *_ in paired_reports} == {"engine", "jets"}
