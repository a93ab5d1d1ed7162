"""``scripts/bit_digest.py``, the bit-identity check of reldet's training and
inference, runs on the current source tree and reads every part equal
against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PARTS = ["scenes", "q16.losses", "q16.params", "q16.grads", "q64.losses", "q64.params", "q64.grads", "tapeless"]


def test_bit_digest_of_the_tree_against_itself_reads_equal():
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "bit_digest.py"), "src", "src"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert [line.split() for line in run.stdout.splitlines()] == [[part, "equal"] for part in PARTS], run.stdout
