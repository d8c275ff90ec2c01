import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cartaneq.cli import main
from cartaneq.engine import run_loop
from cartaneq.exprs import Expr
from cartaneq.problems import ProblemFileError, load_problem, parse_problem_text
from cartaneq.report import REPORT_SCHEMA, result_to_dict, result_to_json

import genprob
from genutil import cli_outputs

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

    problem, _ = parse_problem_text(text)
    with pytest.raises(ProblemFileError) as err:
        validate_problem(problem)
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

    problem, _ = parse_problem_text(text)
    with pytest.raises(ProblemFileError):
        validate_problem(problem)


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


def _scaling_problem(names="x, y", opaque="", param="a"):
    """The coframe (dx, x dy) with a scaling parameter on the first leg, in
    the given coordinate, opaque function and parameter names."""
    x = names.split(",")[0]
    return (
        f"[coordinates]\nnames = {names}\n[opaque]\n{opaque}\n[coframe]\nA 1 1 = 1\nA 1 2 = 0\nA 2 1 = 0\n"
        f"A 2 2 = {x}\n[group]\nparams = {param}\nM 1 1 = {param}\nM 1 2 = 0\nM 2 1 = 0\nM 2 2 = 1\n"
        f"identity {param} = 1\n"
    )


@pytest.mark.parametrize(
    "names, message",
    [
        (dict(names="_dir0_0, y"), "name '_dir0_0' starts with '_'"),
        (dict(names="x, X"), "name 'X' is the target twin of coordinate 'x'"),
        (dict(opaque="Y = x"), "name 'Y' is the target twin of coordinate 'y'"),
        (dict(param="X"), "name 'X' is the target twin of coordinate 'x'"),
        (dict(param="X_x"), "name 'X_x' is a jet variable of the target twin 'X'"),
        (dict(opaque="Y_yx = x"), "name 'Y_yx' is a jet variable of the target twin 'Y'"),
        (dict(names="x, g12"), "name 'g12' is a matrix-slot symbol of the group"),
        (dict(param="g21"), "name 'g21' is a matrix-slot symbol of the group"),
        (dict(names="x, a_1_2"), r"name 'a_1_2' is a stage parameter of the group \(line 2\)"),
        (dict(opaque="v1_1 = x, y"), r"name 'v1_1' is a stage parameter of the group \(line 4\)"),
    ],
    ids=["direction-symbol", "coordinate-twin", "opaque-twin", "parameter-twin",
         "parameter-jet", "opaque-jet", "coordinate-slot", "parameter-slot",
         "coordinate-stage-parameter", "opaque-prolongation-parameter"],
)
def test_names_the_run_declares_itself_are_refused(names, message, tmp_path):
    # the run declares the direction symbols _dir{k}_{t}, a target twin X of
    # each coordinate x, the twins' jets X_x, X_xy, ... the matrix slots
    # g11..gnn, and per stage a_1, a_1_2, ... for a group parameter a and
    # v1_1, v2_1, ... for a prolonged group: check refuses a file that
    # declares them first, whichever section comes first
    path = tmp_path / "clash.prob"
    path.write_text(_scaling_problem(**names))
    with pytest.raises(ProblemFileError, match=message):
        parse_problem_text(path.read_text())
    for command in ("check", "run", "crosscheck"):
        assert main([command, str(path)]) == 1
    path.write_text(_scaling_problem())
    for command in ("check", "run", "crosscheck"):
        assert main([command, str(path)]) == 0


def test_stage_parameter_names_are_refused_before_the_run(tmp_path):
    # toy_diag's first reduction declares a_1 for its group parameter a; the
    # [opaque] section comes after [group], so the check waits for the params
    text = (PROBLEMS / "toy_diag.prob").read_text()
    path = tmp_path / "clash.prob"
    path.write_text(text + "\n[opaque]\na_1 = x\n")
    with pytest.raises(ProblemFileError, match=r"name 'a_1' is a stage parameter of the group \(line 30\)"):
        parse_problem_text(path.read_text())
    for command in ("check", "run", "crosscheck"):
        assert main([command, str(path)]) == 1
    path.write_text(text + "\n[opaque]\nb_1 = x\n")
    for command in ("check", "run", "crosscheck"):
        assert main([command, str(path)]) == 0


def test_an_exponent_at_the_field_limit_is_a_problem_file_error(tmp_path):
    # an exponent field holds up to 2**15 - 1
    text = (PROBLEMS / "toy_diag.prob").read_text()
    path = tmp_path / "power.prob"
    path.write_text(text.replace("A 2 2 = x", "A 2 2 = x^32768"))
    with pytest.raises(ProblemFileError, match=r"bad expression: an exponent reached 32768 \(line 15\)"):
        parse_problem_text(path.read_text())
    assert main(["check", str(path)]) == 1
    path.write_text(text.replace("A 2 2 = x", "A 2 2 = x^32767"))
    assert main(["check", str(path)]) == 0


def test_cli_run_exit_codes(tmp_path):
    assert main(["run", str(PROBLEMS / "flat_gl2.prob")]) == 0
    assert main(["run", str(PROBLEMS / "toy_diag.prob")]) == 0
    assert main(["run", str(PROBLEMS / "toy_genuine.prob")]) == 2
    assert main(["run", str(PROBLEMS / "toy_diag.prob"), "--max-loops", "1"]) == 3
    assert main(["run", str(tmp_path / "missing.prob")]) == 1


def test_usage_errors_exit_1_not_the_violation_code(capsys):
    # argparse exits 2 on a usage error, the code of a constant-type violation
    toy = str(PROBLEMS / "toy_diag.prob")
    want = {
        "run": "cartaneq run: error: the following arguments are required: file",
        "frobnicate": "cartaneq: error: argument command: invalid choice: 'frobnicate' "
                      "(choose from 'run', 'characters', 'crosscheck', 'check')",
        "abc": "cartaneq run: error: argument --max-loops: invalid int value: 'abc'",
        "0": "cartaneq run: error: argument --max-loops: must be at least 1, got 0",
    }
    # twice: main builds its parser once per process and reuses it
    for argv in [["run"], ["frobnicate"], ["run", toy, "--max-loops", "abc"], ["run", toy, "--max-loops", "0"]] * 2:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.splitlines()[-1] == want[argv[-1]], argv
    assert main(["--help"]) == 0


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_a_loop_cap_below_1_is_refused(cap, tmp_path, capsys):
    # a cap below 1 runs no loop, so the run could only end cap-exceeded
    toy = PROBLEMS / "toy_diag.prob"
    assert main(["run", str(toy), "--max-loops", cap]) == 1
    assert capsys.readouterr().err.count("error:") == 1
    lines = toy.read_text().splitlines()
    at = lines.index("max_loops = 6")
    lines[at] = f"max_loops = {cap}"
    path = tmp_path / "cap.prob"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProblemFileError, match="max_loops must be at least 1") as err:
        parse_problem_text(path.read_text())
    assert err.value.line == at + 1
    assert main(["check", str(path)]) == 1


@pytest.mark.parametrize(
    "first, again",
    [
        ("names = x, y", "names = s, t"),
        ("params = a", "params = b"),
        ("A 1 1 = 1", "A 1 1 = 7"),
        ("A 2 2 = x", "A 2 02 = 5*x"),
        ("M 2 2 = 1", "M  2 2 = 3"),
        ("identity a = 1", "identity a = 2"),
        ("seed = 0", "seed = 1"),
    ],
    ids=["names", "params", "coframe-entry", "coframe-entry-zero-padded", "group-entry", "identity", "policy"],
)
def test_a_key_given_twice_in_a_section_is_refused(first, again, tmp_path):
    # the second line would silently override the first; [membership] 'eq'
    # lines repeat by design (test_cli_crosscheck_detects_corrupted_membership)
    lines = (PROBLEMS / "toy_diag.prob").read_text().splitlines()
    at = lines.index(first) + 1
    lines.insert(at, again)
    path = tmp_path / "twice.prob"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProblemFileError, match="twice") as err:
        parse_problem_text(path.read_text())
    assert err.value.line == at + 1
    assert main(["check", str(path)]) == 1


@pytest.mark.parametrize(
    "after, added, message",
    [
        ("seed = 0", "[polcy]\nmax_loops = 0", r"unknown section \[polcy\]"),
        ("title = toy-diag", "author = someone", "unrecognized metadata line 'author = someone'"),
        ("names = x, y", "coords = x, y", "unrecognized coordinates line 'coords = x, y'"),
    ],
    ids=["section", "metadata-key", "coordinates-key"],
)
def test_an_unknown_section_or_key_is_refused(after, added, message, tmp_path):
    # dropping it silently would, say, run without a misspelt [policy] cap
    lines = (PROBLEMS / "toy_diag.prob").read_text().splitlines()
    at = lines.index(after) + 1
    lines.insert(at, added)
    path = tmp_path / "unknown.prob"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProblemFileError, match=message) as err:
        parse_problem_text(path.read_text())
    assert err.value.line == at + 1
    assert main(["check", str(path)]) == 1


@pytest.mark.parametrize("case", ["problem-is-a-directory", "problem-not-utf8", "json-to-a-directory"])
def test_input_output_errors_are_one_error_line(case, tmp_path):
    # an operating-system or decoding error while reading the problem or
    # writing the report exits 1 with one "error:" line, not a traceback
    toy = PROBLEMS / "toy_diag.prob"
    bad = tmp_path / "bad.prob"
    bad.write_bytes(toy.read_bytes().replace(b"names = x", b"names = x\xff", 1))
    argv = {
        "problem-is-a-directory": ["check", str(tmp_path)],
        "problem-not-utf8": ["check", str(bad)],
        "json-to-a-directory": ["run", str(toy), "--json", str(tmp_path)],
    }[case]
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-m", "cartaneq.cli", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


# Charts of dimension 1: a 1-form has no index pairs, so B, C and every
# exterior square are empty matrices.  (text, printed s, r2)
LINE_PROBLEMS = [
    ("[coordinates]\nnames = x\n[coframe]\nA 1 1 = x\n[group]\nparams = a\nM 1 1 = a\nidentity a = 1\n", "(1,)", 1),
    ("[coordinates]\nnames = x\n[coframe]\nA 1 1 = x\n[group]\nparams =\nM 1 1 = 1\n", "(0,)", 0),
]


def test_cli_check_and_characters(capsys, tmp_path):
    assert main(["check", str(PROBLEMS / "lagrangian.prob")]) == 0
    assert main(["characters", str(PROBLEMS / "flat_gl2.prob")]) == 0
    # the characters command prints the first loop of run
    printed = re.search(r"s = (\(.*?\)), r2 = (\d+),", capsys.readouterr().out)
    first = run_loop(*load_problem(PROBLEMS / "flat_gl2.prob")).loops[0].characters
    assert (printed.group(1), int(printed.group(2))) == (str(tuple(first.s)), first.r2)
    for text, s, r2 in LINE_PROBLEMS:
        path = tmp_path / "line.prob"
        path.write_text(text)
        assert main(["check", str(path)]) == 0
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"characters s = {s}, r2 = {r2}, Cartan test passes" in out and "outcome: involutive" in out
        assert main(["characters", str(path)]) == 0
        assert f"s = {s}, r2 = {r2}, Cartan test passes" in capsys.readouterr().out
        assert main(["crosscheck", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"engine: r2 = {r2}, s = {s}, conditions = 0" in out
        assert f"jets:   r2 = {r2}, s = {s}, conditions = 0" in out


def _run_verdict(path: Path, seed: int, capsys) -> tuple:
    """The exit code, outcome, final s and stderr of ``run`` on one seed."""
    code = main(["run", str(path), "--seed", str(seed)])
    out, err = capsys.readouterr()
    outcome = re.findall(r"^outcome: (.*)$", out, re.M)
    final_s = re.findall(r"characters s = (\(.*?\))", out)[-1:]
    return (code, *outcome, *final_s, err)


def test_run_verdict_does_not_depend_on_the_seed(capsys):
    # the seed only picks the points at which ranks are sampled, so every
    # corpus problem gives one exit code, one outcome and one final s on
    # seeds 0-39 (the Lagrangian once halted on seeds that drew a4 = 0)
    for path in sorted(PROBLEMS.glob("*.prob")):
        verdicts: dict[tuple, list[int]] = {}
        for seed in range(40):
            verdicts.setdefault(_run_verdict(path, seed, capsys), []).append(seed)
        assert len(verdicts) == 1, (path.name, verdicts)


def test_run_verdict_on_the_draws_does_not_depend_on_the_seed(tmp_path, capsys):
    # draws 0-49 of the benchmark's generator on seeds 0-11: one exit code,
    # one outcome and one final s per draw, and for a run that exits 1 one
    # error text.  The normalization target in that text is masked: its sign
    # is drawn (README "Sampled points"), so draw 17's unsolvable residual
    # names target 1 on seeds 0, 2-5, 7-9 and 11 and target -1 on 1, 6 and 10.
    path = tmp_path / "draw.prob"
    for draw in range(50):
        path.write_text(genprob.random_problem_text(draw))
        verdicts: dict[tuple, list[int]] = {}
        for seed in range(12):
            *verdict, err = _run_verdict(path, seed, capsys)
            err = re.sub(r" = -?\d+(/\d+)? is not solvable", " = <target> is not solvable", err)
            verdicts.setdefault((*verdict, err), []).append(seed)
        assert len(verdicts) == 1, (draw, verdicts)


def test_cli_crosscheck():
    assert main(["crosscheck", str(PROBLEMS / "toy_diag.prob")]) == 0
    assert main(["crosscheck", str(PROBLEMS / "flat_identity.prob")]) == 0


def test_cli_crosscheck_detects_corrupted_membership(tmp_path):
    # dropping the g22 = 1 membership equation keeps the closure
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
    # the requests of all three benchmark workloads, digested as
    # perfbench/run.py does: a byte drift in a report, a characters table, a
    # crosscheck or an exit code fails here.  The random-mixed requests
    # recorded as failing are pinned in tests/test_jets.py.
    recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    monkeypatch.chdir(ROOT)
    requests = [("lagrangian-crosscheck", "crosscheck", Path("problems/lagrangian.prob"))]
    requests += [
        ("corpus-run", command, path)
        for path in sorted(Path("problems").glob("*.prob"))
        for command in ("run", "characters")
    ]
    for draw in range(50):  # the draws of perfbench/run.py
        path = tmp_path / f"draw-{draw:02d}.prob"
        path.write_text(genprob.random_problem_text(draw))
        requests += [("random-mixed", command, path) for command in ("run", "crosscheck")]
    assert {workload for workload, _, _ in requests} == set(recorded)
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


@pytest.fixture(scope="module")
def unpermuted_outputs(command_sweep):
    return {key: out for key, out in command_sweep[1].items() if not key[1].startswith("extra-")}


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_outputs_do_not_depend_on_term_order(order, unpermuted_outputs, tmp_path, monkeypatch):
    # every Expr stores its terms in a permuted order; no report, table,
    # crosscheck or exit code may change
    rng = random.Random(0)

    def permute(poly):
        items = list(poly.items())
        if order == "reversed":
            items.reverse()
        else:
            rng.shuffle(items)
        return dict(items)

    init = Expr.__init__

    def permuted(self, ctx, num, den):
        init(self, ctx, permute(num), permute(den))

    monkeypatch.setattr(Expr, "__init__", permuted)
    assert cli_outputs(tmp_path) == unpermuted_outputs


def test_readme_quick_start_runs_as_documented(monkeypatch, capsys):
    # the Python block under "Library quick start", run from the repository
    # root: every print shows what its trailing comment says
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    documented = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == documented
