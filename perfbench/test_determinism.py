"""A slice of every workload gives the same outputs under two PYTHONHASHSEEDs.

    python3 -m pytest perfbench/test_determinism.py      # from the repository root
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SLICE = {"lagrangian-crosscheck": 1, "corpus-run": 10, "random-mixed": 10}
CODE = "import sys; sys.path.insert(0, sys.argv[1]); import run; run.print_digests(sys.argv[2], int(sys.argv[3]))"


def _digests(workload: str, hashseed: int) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", CODE, str(HERE), workload, str(SLICE[workload])],
        env=dict(os.environ, PYTHONHASHSEED=str(hashseed)),
        capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout


@pytest.mark.parametrize("workload", sorted(SLICE))
def test_outputs_do_not_depend_on_hash_seed(workload):
    first = _digests(workload, 0)
    assert len(first.splitlines()) == SLICE[workload]
    assert first == _digests(workload, 12345)
