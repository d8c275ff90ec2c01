import hashlib
import json
import re
from pathlib import Path

import pytest

from cartaneq.cli import main
from cartaneq.engine import run_loop
from cartaneq.problems import ProblemFileError, load_problem, parse_problem_text
from cartaneq.report import REPORT_SCHEMA, result_to_dict, result_to_json

import genprob

ROOT = Path(__file__).parent.parent
PROBLEMS = ROOT / "problems"


def test_load_lagrangian():
    problem, policy = load_problem(PROBLEMS / "lagrangian.prob")
    assert problem.n == 3
    assert problem.group.r == 5
    assert policy.max_loops == 8
    assert problem.title == "lagrangian-divergence"


def test_load_flat_gl2():
    problem, policy = load_problem(PROBLEMS / "flat_gl2.prob")
    assert problem.n == 2 and problem.group.r == 4


def test_validation_rejects_singular_coframe():
    text = """
[coordinates]
names = x, y
[coframe]
A 1 1 = x
A 1 2 = 0
A 2 1 = x
A 2 2 = 0
[group]
params =
M 1 1 = 1
M 1 2 = 0
M 2 1 = 0
M 2 2 = 1
"""
    from cartaneq.problems import validate_problem

    problem, policy = parse_problem_text(text)
    with pytest.raises(ProblemFileError) as err:
        validate_problem(problem, policy)
    assert "determinant" in str(err.value)


def test_validation_rejects_bad_identity():
    text = """
[coordinates]
names = x, y
[coframe]
A 1 1 = 1
A 1 2 = 0
A 2 1 = 0
A 2 2 = 1
[group]
params = a
M 1 1 = a
M 1 2 = 0
M 2 1 = 0
M 2 2 = 1
identity a = 2
"""
    from cartaneq.problems import validate_problem

    problem, policy = parse_problem_text(text)
    with pytest.raises(ProblemFileError):
        validate_problem(problem, policy)


def test_parse_errors_have_line_numbers():
    text = "[coordinates]\nnames = x\n[coframe]\nbogus line here\n[group]\nparams =\nM 1 1 = 1\n"
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text(text)
    assert err.value.line == 4
    bad_identity = "[coordinates]\nnames = x\n[coframe]\nA 1 1 = 1\n[group]\nparams = a\nM 1 1 = a\nidentity a = 1/0\n"
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text(bad_identity)
    assert err.value.line == 8


@pytest.mark.parametrize("line", ["max_loops = ten", "seed = 1.5", "target abc = 1/0"])
def test_bad_policy_values_are_problem_file_errors(line, tmp_path):
    text = (
        "[coordinates]\nnames = x\n[coframe]\nA 1 1 = 1\n[group]\nparams =\nM 1 1 = 1\n"
        f"[policy]\n{line}\n"
    )
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text(text)
    assert err.value.line == 9
    bad = tmp_path / "bad.prob"
    bad.write_text(text)
    assert main(["check", str(bad)]) == 1


def test_cli_run_exit_codes(tmp_path):
    assert main(["run", str(PROBLEMS / "flat_gl2.prob")]) == 0
    assert main(["run", str(PROBLEMS / "toy_diag.prob")]) == 0
    assert main(["run", str(PROBLEMS / "toy_genuine.prob")]) == 2
    assert main(["run", str(PROBLEMS / "toy_diag.prob"), "--max-loops", "0"]) == 3
    assert main(["run", str(tmp_path / "missing.prob")]) == 1


def test_cli_check_and_characters(capsys):
    assert main(["check", str(PROBLEMS / "lagrangian.prob")]) == 0
    assert main(["characters", str(PROBLEMS / "flat_gl2.prob")]) == 0
    # the characters command prints the first loop of run
    printed = re.search(r"s = (\(.*?\)), r2 = (\d+),", capsys.readouterr().out)
    first = run_loop(*load_problem(PROBLEMS / "flat_gl2.prob")).loops[0].characters
    assert (printed.group(1), int(printed.group(2))) == (str(tuple(first.s)), first.r2)


def test_cli_crosscheck():
    assert main(["crosscheck", str(PROBLEMS / "toy_diag.prob")]) == 0
    assert main(["crosscheck", str(PROBLEMS / "flat_identity.prob")]) == 0


def test_cli_crosscheck_detects_corrupted_membership(tmp_path):
    # dropping the g22 = 1 membership equation keeps the sampled closure
    # check happy (products do satisfy the remaining equations) but encodes
    # a larger pseudo-group, so the two routes disagree
    text = (PROBLEMS / "toy_diag.prob").read_text()
    text += "\n[membership]\neq = g12\neq = g21\n"
    bad = tmp_path / "bad.prob"
    bad.write_text(text)
    assert main(["crosscheck", str(bad)]) == 1


def test_report_determinism(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["run", str(PROBLEMS / "toy_diag.prob"), "--seed", "0", "--json", str(out1)]) == 0
    assert main(["run", str(PROBLEMS / "toy_diag.prob"), "--seed", "0", "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_schema_and_roundtrip():
    jsonschema = pytest.importorskip("jsonschema")
    problem, policy = load_problem(PROBLEMS / "toy_diag.prob")
    result = run_loop(problem, policy)
    doc = result_to_dict(result)
    jsonschema.validate(doc, REPORT_SCHEMA)
    # serialization round-trips losslessly
    assert json.loads(result_to_json(result)) == doc
    for loop in doc["loops"]:
        assert "characters" in loop and "r2" in loop["characters"]
        assert isinstance(loop["characters"]["involutive"], bool)


def test_report_schema_on_lagrangian():
    jsonschema = pytest.importorskip("jsonschema")
    problem, policy = load_problem(PROBLEMS / "lagrangian.prob")
    result = run_loop(problem, policy)
    jsonschema.validate(result_to_dict(result), REPORT_SCHEMA)
    assert result.outcome == "involutive"


def test_corpus_run_outputs_match_benchmark_recording(tmp_path, monkeypatch, capsys):
    # the requests of the corpus-run and random-mixed benchmarks, digested as
    # perfbench/run.py does: a byte drift in a report, a characters table, a
    # crosscheck or an exit code fails here.  The random-mixed requests
    # recorded as failing are pinned in tests/test_jets.py.
    recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    monkeypatch.chdir(ROOT)
    requests = [
        ("corpus-run", command, path)
        for path in sorted(Path("problems").glob("*.prob"))
        for command in ("run", "characters")
    ]
    for draw in range(50):  # the draws of perfbench/run.py
        path = tmp_path / f"draw-{draw:02d}.prob"
        path.write_text(genprob.random_problem_text(draw))
        requests += [("random-mixed", command, path) for command in ("run", "crosscheck")]
    for workload, command, path in requests:
        want = recorded[workload][f"{command} {path.stem}"]
        if want["failure"] is not None:
            continue
        report = tmp_path / f"{path.stem}.json"
        argv = [command, str(path)] + (["--json", str(report)] if command == "run" else [])
        code = main(argv)
        out, err = capsys.readouterr()
        h = hashlib.sha256(f"exit {code}\n".encode())
        if command == "run":
            h.update(report.read_bytes() if report.exists() else b"no report\n")
        else:
            h.update(out.encode())
        h.update(err.encode())
        assert (code, h.hexdigest()) == (want["exit"], want["digest"]), argv
