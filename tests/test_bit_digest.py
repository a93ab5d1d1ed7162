"""``scripts/bit_digest.py``, the bit-identity check of reldet's training and
inference: it runs on the current source tree and reads every part equal
against itself, every part equals the golden digest stamped for the env the
test runs on (``tests/golden_digest.json``), and a re-stamp says which parts
it replaced."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bit_digest.py"
GOLDEN = Path(__file__).resolve().parent / "golden_digest.json"
PARTS = ["scenes", "q16.losses", "q16.params", "q16.grads", "q64.losses", "q64.params", "q64.grads", "tapeless",
         "checkpoint"]


def _bit_digest():
    spec = importlib.util.spec_from_file_location("bit_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bit_digest_of_the_tree_against_itself_reads_equal():
    run = subprocess.run([sys.executable, str(SCRIPT), "src", "src"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert [line.split() for line in run.stdout.splitlines()] == [[part, "equal"] for part in PARTS], run.stdout


def test_bit_digest_equals_the_golden_stamp_of_this_env():
    # a new numpy, BLAS build or CPU core may round differently: stamping it
    # is a step taken on purpose, after checking the tree against its parent
    bit_digest = _bit_digest()
    golden = json.loads(GOLDEN.read_text())
    env = bit_digest.env_stamp()
    stamped = [s["parts"] for s in golden["stamps"] if s["env"] == env]
    assert stamped, (f"no golden digest for env {env}; after `python scripts/bit_digest.py src PARENT/src` "
                     f"reads equal on every part, stamp this env with `{golden['command']}`")
    parts = bit_digest.digest(str(ROOT / "src"))
    assert list(parts) == PARTS
    differ = [name for name in PARTS if parts[name] != stamped[0][name]]
    assert not differ, f"parts differ from the golden digest: {differ}"


def test_write_stamp_reports_each_part_against_the_earlier_stamp_of_this_env(tmp_path, capsys):
    bit_digest = _bit_digest()
    golden = tmp_path / "golden_digest.json"
    parts = {name: f"{i:064x}" for i, name in enumerate(PARTS)}
    bit_digest.write_stamp(golden, parts)
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [[part, "new"] for part in PARTS]
    bit_digest.write_stamp(golden, {**parts, "checkpoint": "f" * 64})
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == \
        [[part, "replaced" if part == "checkpoint" else "kept"] for part in PARTS]
    stamps = json.loads(golden.read_text())["stamps"]
    assert [s["parts"] for s in stamps] == [{**parts, "checkpoint": "f" * 64}]
