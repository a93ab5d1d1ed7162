"""``scripts/bit_digest.py``, the bit-identity check of reldet's training and
inference: it runs on the current source tree and reads every part equal
against itself, every part equals the golden digest stamped for the env the
test runs on (``tests/golden_digest.json``), under the default OpenBLAS
kernel and under each other stamped kernel, and a re-stamp says which parts
it replaced."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _assert_golden(env: dict, parts: dict) -> None:
    # a new numpy, BLAS build or CPU core may round differently: stamping it
    # is a step taken on purpose, after checking the tree against its parent
    golden = json.loads(GOLDEN.read_text())
    stamped = [s["parts"] for s in golden["stamps"] if s["env"] == env]
    assert stamped, (f"no golden digest for env {env}; after `python scripts/bit_digest.py src PARENT/src` "
                     f"reads equal on every part, stamp this env with `{golden['command']}`")
    assert list(parts) == PARTS
    differ = [name for name in PARTS if parts[name] != stamped[0][name]]
    assert not differ, f"parts differ from the golden digest: {differ}"


def test_bit_digest_equals_the_golden_stamp_of_this_env():
    bit_digest = _bit_digest()
    _assert_golden(bit_digest.env_stamp(), bit_digest.digest(str(ROOT / "src")))


# OpenBLAS picks its kernel when it loads, so each runs in a child of its own.
# A CPU that cannot run the requested kernel silently hands over another, so
# the child reports the core it got and the test checks it is the one asked for
CHILD = """import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bit_digest", sys.argv[1])
bit_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bit_digest)
print(json.dumps({"env": bit_digest.env_stamp(), "parts": bit_digest.digest(sys.argv[2])}))
"""


@pytest.mark.parametrize("core, reported", [("Haswell", "Haswell"), ("Prescott", "Katmai"),
                                            ("Sandybridge", "Sandybridge")])
def test_bit_digest_equals_the_golden_stamp_under_each_openblas_kernel(core, reported):
    run = subprocess.run([sys.executable, "-c", CHILD, str(SCRIPT), str(ROOT / "src")],
                         env={**os.environ, "OPENBLAS_CORETYPE": core}, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    child = json.loads(run.stdout)
    assert child["env"]["blas_core"] == reported, f"OPENBLAS_CORETYPE={core} loaded {child['env']}"
    _assert_golden(child["env"], child["parts"])


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
