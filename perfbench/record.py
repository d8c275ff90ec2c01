"""Record the expected exit code and output digest of every benchmark request.

    python3 perfbench/record.py          # from the repository root

Writes `perfbench/expected.json`.  Run it once on the commit whose outputs
are the reference; `run.py` counts any later difference as a failure.  A
request that fails here (timeout or unexpected exception) is recorded with
its cause and no digest.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    os.chdir(run.ROOT)
    expected = {}
    for workload in run.WORKLOADS:
        cli, reqs, _ = run.setup(workload, 0)
        entries = {}
        for req in sorted(reqs, key=lambda r: r.rid):
            out = run.run_request(cli, req, run.LIMIT_S[workload])
            entries[req.rid] = {"exit": out.exit, "digest": out.digest, "failure": out.failure}
            print(f"{workload}: {req.rid}: {out.failure or 'ok'} ({out.seconds:.2f} s) {out.detail}", flush=True)
        expected[workload] = entries
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
