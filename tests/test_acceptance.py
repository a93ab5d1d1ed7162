"""Acceptance criteria A1-A8, one test per criterion.

Each test appends a PASS/FAIL line to the terminal summary (see conftest).
The routines behind A1-A3, A6 and A7 live in ``reldet.checks``, which
``reldet selftest`` runs at smaller sizes.
The overfit runs behind A4/A5 train the default configuration once per
session, with the relation graph on and off, and are shared between both
criteria. The two runs share nothing, so each trains in a child process of
its own, side by side.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import conftest
from reldet import checks, cli
from reldet.data import SceneConfig, generate_scene
from reldet.evaluation import evaluate_dataset
from reldet.geometry import Box
from reldet.matching import GroundTruth
from reldet.model import ModelConfig
from reldet.training import train


def record(criterion: str, ok: bool, detail: str):
    conftest.ACCEPTANCE_LINES.append(f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# A1: Hungarian total cost equals exhaustive brute force, exactly


def test_a1_hungarian_oracle_equivalence():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    _, failures = checks.hungarian_oracle(rng, max_n=7, trials_per_n=1000)
    mismatches = len(failures)
    elapsed = time.perf_counter() - t0
    record("A1", mismatches == 0 and elapsed < 10.0,
           f"6000 matrices (N=2..7), {mismatches} cost mismatches, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# A2: every differentiable op, and the end-to-end loss, match central differences


def test_a2_gradient_suite():
    t0 = time.perf_counter()
    n_checks, failures = 0, []
    for draw in range(5):
        count, fails = checks.gradient_ops(np.random.default_rng(600 + draw))
        n_checks += count
        failures += [f"{f} (draw {draw})" for f in fails]

    # end-to-end: 16x16 image, d=8, N=4, 20 sampled parameters, rel <= 1e-3
    cfg = ModelConfig(image_size=(16, 16), model_dim=8, num_heads=2,
                      num_encoder_layers=1, num_decoder_layers=1, num_queries=4, catalog=("a", "b"),
                      knn_k=1, seed=5)
    gts = [GroundTruth(0, Box(0.35, 0.4, 0.3, 0.3)), GroundTruth(1, Box(0.7, 0.6, 0.25, 0.2))]
    count, fails = checks.gradient_end_to_end(np.random.default_rng(77), cfg, gts, samples=20)
    n_checks += count
    failures += [f"end-to-end {f}" for f in fails]
    elapsed = time.perf_counter() - t0
    record("A2", not failures and elapsed < 60.0,
           f"{n_checks} gradient checks (op rel 1e-4, end-to-end rel 1e-3), "
           f"{len(failures)} failures, {elapsed:.2f}s" + (f"; first: {failures[0]}" if failures else ""))


# ---------------------------------------------------------------------------
# A3: GIoU invariants over 10,000 random pairs plus the fixed derived cases


def test_a3_giou_invariants():
    rng = np.random.default_rng(21)
    t0 = time.perf_counter()
    _, failures = checks.giou_invariants(rng, pairs=10000)
    bad = sum(not f.startswith(checks.FIXED_CASE) for f in failures)
    fixed_ok = bad == len(failures)
    elapsed = time.perf_counter() - t0
    record("A3", bad == 0 and fixed_ok and elapsed < 5.0,
           f"10000 random pairs, {bad} violations, fixed cases (-5/63, 0) "
           f"{'ok' if fixed_ok else 'broken'}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# A4/A5: overfit surrogate and relation ablation (shared training runs)


def overfit_run(knn_k: int) -> dict:
    """Generate the 20 scenes, train the default config with ``knn_k`` on them
    for 300 epochs and score it there: the final loss, the mAP@0.5 and the
    train time."""
    scenes = [generate_scene(1 + i, SceneConfig()) for i in range(20)]
    cfg = replace(ModelConfig(), knn_k=knn_k)
    t0 = time.perf_counter()
    params, rows = train(scenes, cfg, epochs=300)
    elapsed = time.perf_counter() - t0
    report = evaluate_dataset(scenes, params, cfg, 0.5)
    return {"loss": rows[-1].total, "map": report.mean_ap, "time": elapsed}


@pytest.fixture(scope="module")
def overfit_runs():
    budgets = (3, 0)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # spawned, not forked: a fork after OpenBLAS has started its threads can
    # hang; each child reads OPENBLAS_NUM_THREADS=1 before it loads numpy, and
    # fails on a RuntimeWarning as this process does (pyproject's filterwarnings)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("OPENBLAS_NUM_THREADS", "1")
        mp.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
        with ProcessPoolExecutor(min(2, cpus), mp_context=multiprocessing.get_context("spawn")) as pool:
            return dict(zip(budgets, pool.map(overfit_run, budgets)))


@pytest.mark.slow
def test_a4_overfit_surrogate(overfit_runs):
    run = overfit_runs[3]
    record("A4", run["map"] >= 0.90 and run["time"] < 900.0,
           f"20 scenes, 300 epochs, default config: mAP@0.5 {run['map']:.4f} "
           f"(threshold 0.90), train time {run['time']:.0f}s")


@pytest.mark.slow
def test_a5_relation_ablation(overfit_runs):
    on, off = overfit_runs[3], overfit_runs[0]
    gap = on["map"] - off["map"]
    table = (
        f"\n{'run':<10} {'final loss':>12} {'mAP@0.5':>9}\n"
        f"knn_k=3   {on['loss']:>12.4f} {on['map']:>9.4f}\n"
        f"knn_k=0   {off['loss']:>12.4f} {off['map']:>9.4f}\n"
        f"relation-on minus relation-off mAP gap: {gap:+.4f}"
    )
    print(table)
    both_complete = np.isfinite(on["loss"]) and np.isfinite(off["loss"])
    record("A5", bool(both_complete),
           f"both runs complete; mAP {on['map']:.4f} (k=3) vs {off['map']:.4f} (k=0), gap {gap:+.4f} (recorded)")


# ---------------------------------------------------------------------------
# A6: query permutation equivariance on 50 random trials


def test_a6_permutation_equivariance():
    cfg = ModelConfig()
    worst = max(checks.equivariance_deviations(np.random.default_rng(31), cfg, trials=50, first_seed=1000))
    record("A6", worst <= 1e-9, f"50 trials, worst deviation {worst:.2e} (bound 1e-9)")


# ---------------------------------------------------------------------------
# A7: AP fixture plus 200 random fixtures against brute-force recomputation


def test_a7_average_precision_oracle():
    _, failures = checks.ap_oracle(np.random.default_rng(41), fixtures=200, max_gt=8, max_detections=13)
    bad = sum(not f.startswith(checks.FIXED_CASE) for f in failures)
    fixture_ok = bad == len(failures)
    record("A7", fixture_ok and bad == 0,
           f"fixture [TP,FP,TP]/2gt == 5/6 exactly: {fixture_ok}; 200 random fixtures, {bad} mismatches")


# ---------------------------------------------------------------------------
# A8: byte-identical logs and checkpoints across identical runs


def test_a8_training_determinism(tmp_path):
    assert cli.main(["gen-data", "--seed", "4", "--count", "5", "--out", str(tmp_path / "ds"),
                     "--img-size", "16"]) == 0
    flags = ["--epochs", "2", "--d-model", "8", "--heads", "2", "--enc-layers", "1",
             "--dec-layers", "1", "--queries", "6", "--seed", "0"]
    for name in ("run1", "run2"):
        assert cli.main(["train", "--data", str(tmp_path / "ds"), "--out", str(tmp_path / name), *flags]) == 0
    same = all(
        (tmp_path / "run1" / f).read_bytes() == (tmp_path / "run2" / f).read_bytes()
        for f in ("train_log.csv", "weights.bin", "manifest.json")
    )
    record("A8", same, "two identical-flag train runs: log, manifest and weights byte-identical")
