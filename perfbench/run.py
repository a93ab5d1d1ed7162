"""reldet benchmark: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 10 --trace 0

Run from the repository root, which holds ``src/reldet`` and
``BENCHMARK.json``. With ``--trace 0`` the run sets up several times, runs
the timed loop with tracing off and reports every end-to-end metric of
``BENCHMARK.json``, with times rescaled to the reference host by
``reference.py``. With ``--trace 1`` it sets up once, runs the loop untraced
for half the time, reruns the same number of scenes with spans around the
program's layers, and reports every per-layer metric; the spans go to
``perfbench/out/``. Either way the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set up at least this many times and for at least this long, then report the median
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
SETUP_HOST_SAMPLES = 9  # host factor samples on each side of a set-up
# scene_ms_tail percentile. It is fixed so that every run reports the same
# quantity, and it leaves at least ten samples beyond it at the slowest rate
# seen (train_crowded, ~450 steps in 30 s). On the training workloads it lands
# inside the steps that carry a gen-2 collection (3-5% of steps), away from
# the edge of that group, where the percentile would jump between the two
# groups from run to run.
TAIL_PCT = 98.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("train_default", "train_crowded", "eval_heldout")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# environment stamp


def _git_commit() -> str | None:
    """HEAD of a git checkout at ROOT, read from the files; None elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.rsplit("/", 1)[-1].lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


# ---------------------------------------------------------------------------
# metrics


def tail(values: list, pct: float) -> tuple[float, float]:
    """(percentile, value) by nearest rank. ``pct`` is used while at least ten
    samples lie beyond it, else the highest percentile that keeps ten beyond."""
    s = sorted(values)
    n = len(s)
    rank = min(max(math.ceil(pct / 100.0 * n), 1), max(n - 10, 1))
    return 100.0 * rank / n, s[rank - 1]


def scenes_per_s(scene_ms: list) -> float:
    return 1000.0 * len(scene_ms) / sum(scene_ms)


def end_to_end(wl, res, setup_s: list) -> dict:
    """End-to-end metrics; every time is rescaled to the reference host speed."""
    import reference

    scene_ms = reference.rescale(res.scene_ms, res.host_factor)
    return {
        "setup_s": statistics.median(setup_s),
        "scenes_per_s": scenes_per_s(scene_ms),
        "scene_ms_p50": statistics.median(scene_ms),
        "scene_ms_tail": tail(scene_ms, TAIL_PCT)[1],
        "loss_final": wl.loss_final(res),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, tracer, setup_tracer, traced, untraced) -> dict:
    """Layer metrics of the traced rerun, per scene unless the name says otherwise."""
    import reference
    from tracing import OPS, SPANS

    n = len(traced.scene_ms)
    incl, _, _ = tracer.times_ms()
    out = {f"{span}_ms": incl.get(span, 0.0) / n for _, _, span in SPANS}
    s_incl, _, s_calls = setup_tracer.times_ms()
    out["data.generate_ms"] = s_incl.get("data.generate", 0.0) / max(1, s_calls["data.generate"])
    out["training.save_ms"] = s_incl.get("training.save", 0.0)
    out["training.load_ms"] = s_incl.get("training.load", 0.0)

    steps = len(tracer.tape_lengths)
    out["numeric.records_per_step"] = sum(tracer.tape_lengths) / steps if steps else 0.0
    for op in OPS:
        out[f"numeric.records.{op}"] = tracer.ops[op] / steps if steps else 0.0
    other = sum(c for op, c in tracer.ops.items() if op not in OPS)
    out["numeric.records.other"] = other / steps if steps else 0.0
    out.update(tracer.gc_summary(n))
    out["relation.mean_degree"] = tracer.mean_degree()
    for name in ("geometry.box_loss_calls", "geometry.iou_calls"):
        out[name] = tracer.counts[name] / n

    # metrics of layers only one kind of workload exercises read 0 on the other
    for name in (
        "matching.real_slot_frac", "matching.cost_entries", "data.save_ms", "data.load_ms",
        "training.checkpoint_bytes", "evaluation.dets_per_image", "evaluation.precision",
        "evaluation.precision_base", "evaluation.map50",
    ):
        out[name] = 0.0
    out.update(wl.layer_metrics(traced, tracer, setup_tracer))

    # rescaled like the end-to-end metrics, so a change of host speed between
    # the two phases does not read as tracing overhead
    fast = scenes_per_s(reference.rescale(untraced.scene_ms, untraced.host_factor))
    slow = scenes_per_s(reference.rescale(traced.scene_ms, traced.host_factor))
    out["trace.scenes_per_s_untraced"] = fast
    out["trace.scenes_per_s_traced"] = slow
    out["trace.overhead_frac"] = (fast - slow) / fast
    return out


# ---------------------------------------------------------------------------
# runs


def _declared() -> dict:
    """Metric names and units declared in BENCHMARK.json, by kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def _result(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise RuntimeError(f"computed and declared metrics differ: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _setup(wl, checks) -> tuple[list, list]:
    """Set up anew, SETUP_REPEATS times and until SETUP_MIN_S have passed.
    Return the wall time of each set-up and its time rescaled by the host
    factor sampled right before and after it."""
    import reference

    times, scaled, prints = [], [], set()
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        before = [reference.host_factor(wl.loop_share) for _ in range(SETUP_HOST_SAMPLES)]
        t0 = time.perf_counter()
        prints.add(wl.setup(checks))
        times.append(time.perf_counter() - t0)
        after = [reference.host_factor(wl.loop_share) for _ in range(SETUP_HOST_SAMPLES)]
        scaled.append(times[-1] / statistics.median(before + after))
        # each set-up, and the timed loop after the last, starts from a swept heap
        gc.collect()
    checks.add("setup_deterministic", len(prints) == 1, f"{len(times)} set-ups, identical inputs")
    return times, scaled


def run_untraced(wl, checks, seconds: float, units: dict):
    wall_setup_s, setup_s = _setup(wl, checks)
    res = wl.run(seconds)
    wl.check(res, checks)
    values = end_to_end(wl, res, setup_s)
    pct, wall_tail = tail(res.scene_ms, TAIL_PCT)
    n = len(res.scene_ms)
    notes = {
        "setup_s": f"median of {len(setup_s)} set-ups; wall {statistics.median(wall_setup_s):.6g}",
        "scene_ms_tail": f"p{pct:.2f} of n={n}, {n - round(pct * n / 100)} samples beyond; wall {wall_tail:.6g}",
        "scenes_per_s": f"{n} scenes in {sum(res.scene_ms) / 1000.0:.3f} s busy; wall {scenes_per_s(res.scene_ms):.6g}",
        "scene_ms_p50": f"wall {statistics.median(res.scene_ms):.6g}",
    }
    print(f"host factor: median {statistics.median(res.host_factor):.4f} over {n} samples "
          f"(loop share {wl.loop_share}); times below are rescaled to the reference host, wall times beside them")
    for name, unit in units.items():
        print(f"{name:<16}{values[name]:>14.6g} {unit:<6} {notes.get(name, '')}")
    print(f"{'error_rate':<16}{res.failed / n:>14.6g} {'ratio':<6} {res.failed} failed of {n} attempted")
    return res, _result(values, units)


def run_traced(wl, checks, seconds: float, units: dict, modules: dict, name: str, env: dict):
    from tracing import Tracer, check_assignments, print_table

    setup_tracer = Tracer(modules)
    with setup_tracer:
        wl.setup(checks)
    gc.collect()
    untraced = wl.run(seconds / 2)
    wl.check(untraced, checks)
    gc.collect()
    tracer = Tracer(modules)
    with tracer:
        traced = wl.run(seconds, limit=len(untraced.scene_ms), tracer=tracer)
    wl.check(traced, checks)
    checks.add("traced_equals_untraced", wl.same_outputs(traced, untraced), f"{len(traced.scene_ms)} scenes, bit for bit")
    if tracer.assignments:
        checks.add("hungarian_equals_scipy", *check_assignments(tracer.assignments))
    if tracer.tape_lengths:
        checks.add(
            "op_counts_sum_to_tape",
            tracer.tape_sum_mismatches == 0,
            f"{len(tracer.tape_lengths)} tapes, {tracer.tape_sum_mismatches} mismatches",
        )
    if tracer.missing:
        print("not traced (attribute absent): " + ", ".join(tracer.missing))

    n = len(traced.scene_ms)
    values = per_layer(wl, tracer, setup_tracer, traced, untraced)
    print(f"traced {n} scenes after {len(untraced.scene_ms)} untraced ones")
    print_table(tracer, n)
    for metric, unit in units.items():
        print(f"{metric:<32}{values[metric]:>14.6g} {unit}")

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{name}-seed{env['seed']}.json"
    incl, self_ms, calls = tracer.times_ms()
    path.write_text(
        json.dumps(
            {
                "env": env,
                "workload": name,
                "scenes": n,
                "span_fields": ["name", "start_ns", "end_ns", "parent", "scene"],
                "setup_spans": setup_tracer.spans,
                "spans": tracer.spans,
                "gc_fields": ["generation", "start_ns", "end_ns", "scene"],
                "gc": tracer.gc_events,
                "ms_per_scene": {k: {"calls": calls[k], "incl": incl[k] / n, "self": self_ms[k] / n} for k in incl},
                "ops": dict(tracer.ops),
                "metrics": values,
            }
        )
        + "\n"
    )
    print(f"spans written to {path.relative_to(ROOT)}")
    return untraced, traced, _result(values, units)


def main(argv=None) -> int:
    args = _parse(argv)
    # one caller on small matrices: BLAS threads would only contend with it
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "reldet" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: run from a reldet checkout; {SRC / 'reldet'} or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reldet
    from reldet import data, evaluation, matching, model, numeric, training

    if Path(reldet.__file__).resolve().parent != SRC / "reldet":
        print(f"perfbench: imported reldet from {reldet.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    modules = {"data": data, "evaluation": evaluation, "matching": matching,
               "model": model, "numeric": numeric, "training": training}
    declared = _declared()
    env = environment(args.seed)
    print(f"reldet benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    OUT.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT)
    checks = workloads.Checks()
    if args.trace:
        untraced, traced, metrics = run_traced(
            wl, checks, args.seconds, declared["per_layer"], modules, args.workload, env
        )
        attempted = len(untraced.scene_ms) + len(traced.scene_ms)
        failed = untraced.failed + traced.failed
    else:
        res, metrics = run_untraced(wl, checks, args.seconds, declared["end_to_end"])
        attempted, failed = len(res.scene_ms), res.failed
    for gate, (status, detail) in checks.items.items():
        print(f"gate {gate:<26}{status:<8}{detail}")
    correct = checks.passed and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
