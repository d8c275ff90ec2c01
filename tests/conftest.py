import sys
from pathlib import Path

# the test helpers, and the benchmark's problem generator and tracer
TESTS = Path(__file__).parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "perfbench")]
