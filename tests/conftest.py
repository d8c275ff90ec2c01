import sys
from pathlib import Path

import pytest

# the test helpers, and the benchmark's problem generator and tracer
TESTS = Path(__file__).parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "perfbench")]

import cartaneq.cli  # noqa: E402
from genutil import MALFORMED_PROBLEM, POWER_PROBLEM, cli_outputs, entered_code  # noqa: E402


@pytest.fixture(scope="session")
def command_sweep(tmp_path_factory) -> tuple[set, dict]:
    """The CLI sweep of ``genutil.cli_outputs`` over the corpus, draws 0-49
    and the two extra inputs, run once: the code objects it entered and its
    outputs."""
    directory = tmp_path_factory.mktemp("sweep")
    # a one-shot process builds the parser, which an earlier test may have
    # left cached in this one
    cartaneq.cli._parser.cache_clear()
    return entered_code(lambda: cli_outputs(directory, [POWER_PROBLEM, MALFORMED_PROBLEM]))
