"""Command-line driver.

    cartaneq run <file> [--max-loops N] [--seed S] [--json OUT]
    cartaneq characters <file> [--seed S]
    cartaneq crosscheck <file> [--seed S]
    cartaneq check <file>

Exit codes: 0 success (involutive or e-structure; crosscheck equal), 1 error,
usage error or crosscheck mismatch, 2 constant-type violation, 3 loop cap
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time
from pathlib import Path

from .engine import loop_stages, run_loop
from .exprs import ExprError
from .jets import crosscheck_characters
from .problems import load_problem
from .report import render_text, result_to_json

OUTCOME_CODES = {
    "involutive": 0,
    "e-structure": 0,
    "constant-type-violation": 2,
    "cap-exceeded": 3,
}


def _load(args):
    problem, policy = load_problem(args.file)
    if args.max_loops is not None:
        policy.max_loops = args.max_loops
    if args.seed is not None:
        policy.seed = args.seed
    return problem, policy


def _cmd_run(args) -> int:
    problem, policy = _load(args)
    t0 = time.time()
    result = run_loop(problem, policy)
    sys.stdout.write(render_text(result, elapsed=time.time() - t0))
    if args.json:
        Path(args.json).write_text(result_to_json(result))
    return OUTCOME_CODES[result.outcome]


def _cmd_characters(args) -> int:
    problem, policy = _load(args)
    _, _, cls, chars = loop_stages(problem, random.Random(policy.seed))
    print(f"== {problem.title}: first-loop characters ==")
    print(f"s = {tuple(chars.s)}, r2 = {chars.r2}, Cartan test {'passes' if chars.involutive else 'fails'}")
    unresolved = [k for k in cls.kinds if k != "trivial"]
    if unresolved:
        print(f"note: {len(unresolved)} unresolved torsion residual(s); the verdict applies before reduction")
    return 0


def _cmd_crosscheck(args) -> int:
    problem, policy = _load(args)
    res = crosscheck_characters(problem, random.Random(policy.seed))
    print(f"== {problem.title}: equivalence-method loop vs jet-space loop ==")
    print(f"engine: r2 = {res.engine_r2}, s = {tuple(res.engine_s)}, conditions = {res.engine_conditions}")
    print(f"jets:   r2 = {res.jet_r2}, s = {tuple(res.jet_s)}, conditions = {res.jet_conditions}")
    print("agreement:", "yes" if res.equal else "NO")
    return 0 if res.equal else 1


def _cmd_check(args) -> int:
    problem, policy = load_problem(args.file)
    print(f"{args.file}: valid problem")
    print(f"  chart dimension {problem.n}, structure group dimension {problem.group.r}")
    print(f"  policy: max_loops = {policy.max_loops}, seed = {policy.seed}")
    return 0


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The command-line parser and its ``run`` subparser, built once per
    process: parsing reads them and never changes them."""
    parser = argparse.ArgumentParser(
        prog="cartaneq",
        description="Cartan's equivalence method for G-structures, with a jet-space cross-check",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="iterate the equivalence method to termination")
    p_run.add_argument("file")
    p_run.add_argument("--max-loops", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--json", default=None, help="write the machine-readable report here")
    p_run.set_defaults(func=_cmd_run)

    p_ch = sub.add_parser("characters", help="reduced Cartan characters of the first loop")
    p_ch.add_argument("file")
    p_ch.add_argument("--seed", type=int, default=None)
    p_ch.set_defaults(func=_cmd_characters, max_loops=None)

    p_cc = sub.add_parser("crosscheck", help="compare the engine loop with the jet-space loop")
    p_cc.add_argument("file")
    p_cc.add_argument("--seed", type=int, default=None)
    p_cc.set_defaults(func=_cmd_crosscheck, max_loops=None)

    p_chk = sub.add_parser("check", help="parse and validate a problem file")
    p_chk.add_argument("file")
    p_chk.set_defaults(func=_cmd_check)
    return parser, p_run


def main(argv: list[str] | None = None) -> int:
    parser, p_run = _parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "max_loops", None) is not None and args.max_loops < 1:
            p_run.error(f"argument --max-loops: must be at least 1, got {args.max_loops}")
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 is the constant-type-violation code
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
