"""Each script under ``demos/`` prints the bytes it printed when its digest
was recorded.

The demos reach code that no benchmark request does, such as
``forms.rewrite_in_coframe``.  A change that means to alter what
a demo prints records the new digest here and says why in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

# sha256 of each demo's stdout
DIGESTS = {
    "demo_crosscheck.py": "09d54134513738a2fc64303ba96ec880c6703b02b3076857873d9f894ab8ff06",
    "demo_expression_kernel.py": "ecb15368f4c85d2beb80c8c64d810195826887808a4dd1c9e375f4ac6ba315e4",
    "demo_jet_completion.py": "6a9d67f0f834b09a7c7b0e35137d4717d9741db91e360664d404e760cf06d5e4",
    "demo_lagrangian_equivalence.py": "65c20f9a2ceed690454809ee3617a62cfbcdce885a3d4f573a7a0c29d9588703",
    "demo_structure_equations.py": "3ace2a1f428ccfb432fe70deb4b9889e297c0e57b62ac8adfbcacb8984fbfbf7",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_prints_its_recorded_output(name):
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
