"""The benchmark reads reldet from outside the program: its tracer wraps
reldet attributes by name, and its workloads call the package's API. A
renamed or removed attribute would silently drop a span or fail a run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_traced_span_names_a_reldet_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # the standard library is all it imports
    missing = [f"reldet.{module}.{attribute} (span {span})" for module, attribute, span in tracing.SPANS
               if not callable(getattr(importlib.import_module(f"reldet.{module}"), attribute, None))]
    assert tracing.SPANS
    assert not missing, f"perfbench traces attributes reldet does not have: {missing}"


@pytest.mark.parametrize("workload", ["train_default", "train_crowded", "eval_heldout"])
def test_a_short_traced_benchmark_run_passes_every_gate(workload):
    # the traced path calls what the workloads read of reldet and runs the benchmark's bit-for-bit gates
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                           "--seconds", "0.2", "--trace", "1"], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
