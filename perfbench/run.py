"""The cartaneq benchmark: time-to-verdict of the command line, end to end,
with a separate traced run for per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from `src/` and
called only through `cartaneq.cli.main(argv)`, in this process, with stdout
and stderr captured: the code path of `cartaneq run|characters|crosscheck`
minus interpreter start-up.  Workloads (see BENCHMARK.json for why each):

* `lagrangian-crosscheck`: `crosscheck problems/lagrangian.prob`;
* `corpus-run`: `run --json OUT` and `characters` on every `problems/*.prob`;
* `random-mixed`: `run --json OUT` and `crosscheck` on 50 generated problems
  (draws 0..49 of `genprob.py`, timeouts and disagreements included).

The seed shuffles the order of the requests and, for `random-mixed`, the
section and line order of the generated files; neither may change an output.

Every request runs under a per-request wall-clock limit and is checked
against the exit code and output digest that `record.py` stored in
`expected.json`, and against the known answers the README states.  A request
fails if it times out, raises anything but an `ExprError`, ends in a
crosscheck disagreement, or differs from its recording.  A request recorded
as failing is checked only for the failures visible in itself, so a fix of
it is no failure; any failure of a request recorded as finishing makes the
run incorrect.  A request that timed out once is not run again in later
passes of the same run and counts as a timeout in each of them.  The last
line of stdout is one JSON object: `correct`, `attempted`, `failed`,
`metrics`.

Times are the CPU time of this process (`time.process_time`): the program is
single-threaded and runs in this process, and CPU time leaves out the time
the machine gives to others.  Timed-out requests are left out of every time.

With `--trace 0` the metrics are the end-to-end ones: `wall_s`, the median
over passes of the summed time of a pass's finishing requests;
`verdict_p50_s` and `verdict_p90_s`, percentiles of the finishing request
times in a pass (start of `cli.main` to its exit code), median over passes;
`setup_s`, import plus input generation, median over this and four fresh
processes; `peak_rss_mb`, this process's `ru_maxrss`; `ok_share`, one minus
the failed share.  The failed share itself is zero on two workloads, so it
is no bounded metric; it is printed on every run and is a per-layer metric.

With `--trace 1` untraced and traced passes alternate.  The metrics are the
per-layer ones of `tracer.py` (wall-clock span times, medians over traced
passes, timed-out requests left out), the tracing overhead (traced minus
untraced pass time)
and the failure counts; every span is written to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench")  # relative to ROOT, which is the working directory

# Per-request wall-clock limits.  On a 2-core machine the Lagrangian
# crosscheck takes about 12 s, every other finishing request at most 3.4 s,
# and the known non-terminating crosschecks of random-mixed run for more than
# 300 s.  Limits far from all of these keep the failure counts exactly
# repeatable and the cost of a pass bounded.
LIMIT_S = {"lagrangian-crosscheck": 60.0, "corpus-run": 10.0, "random-mixed": 10.0}
RANDOM_DRAWS = 50
SETUP_REPEATS = 5
WORKLOADS = ("lagrangian-crosscheck", "corpus-run", "random-mixed")
FAILURE_CAUSES = ("timeout", "exception", "disagreement", "mismatch")

sys.path.insert(0, str(HERE))
import genprob  # noqa: E402
import tracer  # noqa: E402


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout


@dataclass
class Request:
    rid: str  # key into expected.json
    argv: list[str]
    json_out: Path | None = None  # the `run --json` report, digested in place of stdout


@dataclass
class Outcome:
    seconds: float  # CPU time
    exit: int | None  # None when the request did not return
    digest: str | None
    failure: str | None  # one of FAILURE_CAUSES, or None
    detail: str = ""


def _requests(workload: str, seed: int) -> list[Request]:
    """Build (and for random-mixed, write) the workload's inputs."""
    if workload == "lagrangian-crosscheck":
        reqs = [Request("crosscheck lagrangian", ["crosscheck", "problems/lagrangian.prob"])]
    elif workload == "corpus-run":
        out = WORK / workload
        out.mkdir(parents=True, exist_ok=True)
        reqs = []
        for path in sorted(Path("problems").glob("*.prob")):
            reqs.append(Request(f"run {path.stem}", ["run", str(path), "--json", str(out / f"{path.stem}.json")],
                                out / f"{path.stem}.json"))
            reqs.append(Request(f"characters {path.stem}", ["characters", str(path)]))
    elif workload == "random-mixed":
        out = WORK / workload
        out.mkdir(parents=True, exist_ok=True)
        layout = random.Random(seed)
        reqs = []
        for draw in range(RANDOM_DRAWS):
            name = f"draw-{draw:02d}"
            path = out / f"{name}.prob"
            path.write_text(_shuffled_layout(genprob.random_problem_text(draw), layout))
            reqs.append(Request(f"run {name}", ["run", str(path), "--json", str(out / f"{name}.json")],
                                out / f"{name}.json"))
            reqs.append(Request(f"crosscheck {name}", ["crosscheck", str(path)]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(reqs)
    return reqs


def _shuffled_layout(text: str, rng: random.Random) -> str:
    """The same problem with its sections, and the entry lines inside
    [coframe] and [group], in another order; the parser is order-free there,
    except that `params` must precede the group entries that use them."""
    sections = [block.strip().splitlines() for block in text.split("\n\n") if block.strip()]
    for lines in sections:
        if lines[0] in ("[coframe]", "[group]"):
            head = 2 if lines[0] == "[group]" else 1
            body = lines[head:]
            rng.shuffle(body)
            lines[head:] = body
    rng.shuffle(sections)
    return "\n\n".join("\n".join(lines) for lines in sections) + "\n"


def setup(workload: str, seed: int):
    """Import the package and build the inputs; returns (cli module, requests, seconds)."""
    t0 = process_time()
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("cartaneq.cli")
    reqs = _requests(workload, seed)
    return cli, reqs, process_time() - t0


def run_request(cli, req: Request, limit: float) -> Outcome:
    """One in-process `cartaneq` invocation under the time limit."""
    if req.json_out is not None:
        req.json_out.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = process_time()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(req.argv)
        seconds = process_time() - t0
    except RequestTimeout:
        return Outcome(process_time() - t0, None, None, "timeout")
    except Exception as exc:
        return Outcome(process_time() - t0, None, None, "exception", f"{type(exc).__name__}: {exc}"[:200])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    h = hashlib.sha256(f"exit {code}\n".encode())
    if req.json_out is not None:
        h.update(req.json_out.read_bytes() if req.json_out.exists() else b"no report\n")
    else:
        h.update(out.getvalue().encode())
    h.update(err.getvalue().encode())
    if req.argv[0] == "crosscheck" and "agreement: NO" in out.getvalue():
        return Outcome(seconds, code, h.hexdigest(), "disagreement")
    wrong = _known_answer(req, code)
    return Outcome(seconds, code, h.hexdigest(), "mismatch" if wrong else None, wrong)


def _known_answer(req: Request, code: int) -> str:
    """README facts, independent of the recording: an error text, or ''."""
    stem = Path(req.argv[1]).stem
    if req.argv[0] != "run" or stem not in ("lagrangian", "toy_genuine", "toy_diag"):
        return ""
    report = json.loads(req.json_out.read_text()) if req.json_out.exists() else {}
    if stem == "lagrangian":
        ok = report.get("outcome") == "involutive" and report["loops"][-1]["characters"]["s"] == [3, 1, 0]
        return "" if ok else "lagrangian run is not involutive with s = (3, 1, 0)"
    if stem == "toy_genuine":
        return "" if code == 2 else f"toy_genuine exits with {code}, not 2"
    return "" if report.get("outcome") == "e-structure" else "toy_diag does not end in an e-structure"


def check(outcome: Outcome, expected: dict | None) -> str | None:
    """The failure cause of one request against its recording, or None.
    A request recorded as finishing must give its recorded exit code and
    output digest.  A request recorded as failing (timeout or disagreement)
    is checked only for the failures visible in itself, so a fix of it is no
    failure."""
    if outcome.failure or expected is None:
        return outcome.failure or "mismatch"
    if expected["failure"] is None and (outcome.exit, outcome.digest) != (expected["exit"], expected["digest"]):
        return "mismatch"
    return None


def regressed(cause: str | None, expected: dict | None) -> bool:
    """Whether a failure makes the run incorrect: any mismatch, and any
    failure of a request recorded as finishing."""
    return cause is not None and (cause == "mismatch" or expected is None or expected["failure"] is None)


def load_expected(workload: str) -> dict:
    return json.loads((HERE / "expected.json").read_text())[workload]


def print_digests(workload: str, count: int):
    """Print exit code, output digest and failure of the first `count`
    requests, ordered by input file."""
    os.chdir(ROOT)
    cli, reqs, _ = setup(workload, 0)
    for req in sorted(reqs, key=lambda r: r.rid.split()[::-1])[:count]:
        out = run_request(cli, req, LIMIT_S[workload])
        print(req.rid, out.exit, out.digest, out.failure)


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _passes(cli, reqs, expected, seconds, limit, tracing: tracer.Tracer | None = None):
    """Run whole passes, at least two, while one more would end less than half
    a pass past `seconds`.  With a tracer, untraced and traced passes
    alternate, starting untraced.  Returns the pass times, the finishing
    request times of each untraced pass, the per-layer metrics of each traced
    pass, the failure counts and the number of failures that make the run
    incorrect."""
    walls: dict[bool, list[float]] = {False: [], True: []}
    verdicts: list[list[float]] = []
    layer_runs: list[dict] = []
    counts = dict.fromkeys(FAILURE_CAUSES, 0)
    attempted = regressions = 0
    timed_out: set[str] = set()
    examples: list[str] = []
    start = perf_counter()
    traced = False
    while True:
        if traced:
            tracing.reset()
            tracing.install()
        times = []
        try:
            for i, req in enumerate(reqs):
                if req.rid in timed_out:
                    outcome = Outcome(0.0, None, None, "timeout")
                else:
                    if traced:
                        tracing.begin_request(i)
                    outcome = run_request(cli, req, limit)
                    if traced and outcome.failure == "timeout":
                        tracing.discard_request()
                if outcome.failure == "timeout":
                    timed_out.add(req.rid)
                else:
                    times.append(outcome.seconds)
                attempted += 1
                exp = expected.get(req.rid)
                cause = check(outcome, exp)
                if cause:
                    counts[cause] += 1
                    regressions += regressed(cause, exp)
                    line = f"{req.rid}: {cause} {outcome.detail}".rstrip()
                    if len(examples) < 8 and line not in examples:
                        examples.append(line)
        finally:
            if traced:
                tracing.uninstall()
        walls[traced].append(sum(times))
        if traced:
            layer_runs.append(tracing.metrics())
        else:
            verdicts.append(times)
        every = walls[False] + walls[True]
        if (perf_counter() - start + statistics.median(every) / 2 > seconds and len(every) >= 2
                and (tracing is None or walls[True])):
            break
        if tracing is not None:
            traced = not traced
    return walls, verdicts, layer_runs, counts, attempted, regressions, examples


def measure_setup(workload: str, seed: int, own: float) -> float:
    """Median set-up time over this process and SETUP_REPEATS - 1 fresh ones."""
    times = [own]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cartaneq").is_dir() or not (ROOT / "problems").is_dir():
        print(f"error: {ROOT} holds no cartaneq source tree (src/cartaneq, problems/)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    cli, reqs, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(f"{own_setup!r}")
        return 0
    expected = load_expected(args.workload)
    limit = LIMIT_S[args.workload]
    print(f"# workload {args.workload}, seed {args.seed}, {len(reqs)} requests per pass, "
          f"limit {limit:g} s per request; python {sys.version.split()[0]}, nproc {os.cpu_count()}")

    if args.trace:
        tr = tracer.Tracer()
        walls, _, layer_runs, counts, attempted, regressions, examples = _passes(cli, reqs, expected, args.seconds, limit, tr)
        WORK.mkdir(exist_ok=True)
        span_file = WORK / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tr.write(span_file, [r.rid for r in reqs])
        metrics = {name: (statistics.median(run[name] for run in layer_runs), unit) for name, unit in tracer.METRICS}
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics["trace.overhead_s"] = (overhead, "s")
        print(f"# {len(walls[False])} untraced and {len(walls[True])} traced passes; "
              f"{len(tr.spans)} spans written to {span_file}")
    else:
        walls, verdicts, _, counts, attempted, regressions, examples = _passes(cli, reqs, expected, args.seconds, limit)
        setup_s = measure_setup(args.workload, args.seed, own_setup)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "verdict_p50_s": (statistics.median(statistics.median(v) for v in verdicts), "s"),
            "verdict_p90_s": (statistics.median(_quantile(v, 90) for v in verdicts), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        print(f"# {len(walls[False])} passes of " + ", ".join(f"{w:.3f}" for w in walls[False]) + " s CPU; "
              f"verdict percentiles per pass over {len(reqs)} requests, median over passes")
    failed = sum(counts.values())
    metrics["ok_share"] = ((attempted - failed) / attempted, "ratio")
    metrics["requests.failed_share"] = (failed / attempted, "ratio")
    for cause in FAILURE_CAUSES:
        metrics[f"requests.{cause}"] = (counts[cause], "count")

    print(f"# failed_share = {failed / attempted:.4f} ({failed} of {attempted}): "
          + ", ".join(f"{cause} {counts[cause]}" for cause in FAILURE_CAUSES)
          + f"; {regressions} of them make the run incorrect")
    for line in examples:
        print(f"#   {line}")
    end_to_end = args.trace == 0
    keep = _metric_names(end_to_end)
    for name in keep:
        value, unit = metrics[name]
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": regressions == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in keep},
    }
    print(json.dumps(result))
    return 0


def _metric_names(end_to_end: bool) -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["end_to_end" if end_to_end else "per_layer"]]


if __name__ == "__main__":
    sys.exit(main())
