"""The benchmark's workloads: set-up, the timed closed loop, and output checks.

One caller hands reldet one scene at a time and waits for the result (a
closed loop), through the package's public functions only. Inputs are
generated from the workload seed; the program only ever sees the scenes.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reldet import data, evaluation, model, numeric, training
from reldet.geometry import LossWeights

import reference
from tracing import ROOT_SPAN, Tracer

TRAIN_SCENES = 20  # the paper's overfit set size
HELDOUT_SCENES = 50
TAPE_SAMPLE = 5  # held-out images whose taped and tape-less forward outputs are compared
IOU_THRESH = 0.5
WEIGHTS = LossWeights()
NULL_WEIGHT = 0.1
# epochs in one training schedule; eval_heldout's set-up reuses train_default's
TRAIN_EPOCHS = {"train_default": 5, "train_crowded": 2}
# share of a scene spent in hungarian's Python loop (traced self time, to the
# nearest tenth); it weights the reference kernels that measure host speed
LOOP_SHARE = {"train_default": 0.1, "train_crowded": 0.6, "eval_heldout": 0.0}


def scene_seeds(seed: int, count: int, stream: int) -> list[int]:
    """Generator seeds for ``count`` scenes; streams keep scene sets apart."""
    rng = np.random.default_rng([stream, seed])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _scene_digest(scenes) -> str:
    rows = [[o.class_id, o.box.cx, o.box.cy, o.box.w, o.box.h] for s in scenes for o in s.objects]
    return _digest(rows, *(s.image.data for s in scenes))


class Checks:
    """Named correctness gates; a failure is never overwritten by a later pass."""

    def __init__(self):
        self.items: dict[str, tuple[str, str]] = {}

    def add(self, name: str, ok, detail: str = "") -> None:
        status = "skipped" if ok is None else ("ok" if ok else "FAIL")
        if self.items.get(name, ("ok", ""))[0] != "FAIL":
            self.items[name] = (status, detail)

    @property
    def passed(self) -> bool:
        return all(status != "FAIL" for status, _ in self.items.values())


@dataclass
class RunResult:
    scene_ms: list = field(default_factory=list)  # one entry per attempted scene
    host_factor: list = field(default_factory=list)  # the host's slowness, sampled right before each scene
    outputs: list = field(default_factory=list)  # loss per step, or the first pass's (detections, report)
    passes: int = 0
    mismatched_passes: int = 0  # evaluation passes whose detections or mAP differ from the first
    failed: int = 0


def _failed(res: RunResult) -> None:
    traceback.print_exc(file=sys.stderr)
    res.failed += 1


class TrainWorkload:
    """Training from a fresh init over a fixed scene list, one step per scene.

    The timed loop repeats one fixed schedule (``epochs`` passes over the
    scenes, from a fresh init) until the time is up, so every pass computes
    the same losses and ``loss_final`` does not depend on machine speed.
    """

    def __init__(self, seed: int, max_objects: int, num_queries: int, epochs: int):
        self.scene_config = data.SceneConfig(max_objects=max_objects)
        self.config = model.ModelConfig(num_queries=num_queries)
        self.seeds = scene_seeds(seed, TRAIN_SCENES, stream=0)
        self.schedule = epochs * TRAIN_SCENES
        self.scenes: list = []

    def setup(self, checks: Checks) -> str:
        self.scenes = [data.generate_scene(s, self.scene_config) for s in self.seeds]
        # one step from a fresh init pays first-call costs before the timed loop
        params, state = model.init_params(self.config), training.OptimizerState()
        training.train_step(self.scenes[0], params, state, WEIGHTS, NULL_WEIGHT, self.config)
        return _scene_digest(self.scenes)

    def run(self, seconds: float, limit: int | None = None, tracer: Tracer | None = None) -> RunResult:
        """Step until ``seconds`` have passed and one schedule is complete,
        or for exactly ``limit`` scenes when that is given."""
        res = RunResult()
        start = time.perf_counter()
        k = 0
        while (k < limit) if limit is not None else (k < self.schedule or time.perf_counter() - start < seconds):
            if k % self.schedule == 0:
                params, state = model.init_params(self.config), training.OptimizerState()
            scene = self.scenes[k % TRAIN_SCENES]
            res.host_factor.append(reference.host_factor(self.loop_share))
            span = tracer.open(ROOT_SPAN, k) if tracer else None
            t0 = time.perf_counter_ns()
            try:
                parts = training.train_step(scene, params, state, WEIGHTS, NULL_WEIGHT, self.config)
                loss = float(parts.total.data)
            except Exception:
                _failed(res)
                loss = math.nan
            res.scene_ms.append((time.perf_counter_ns() - t0) / 1e6)
            if tracer:
                tracer.close(span)
            res.outputs.append(loss)
            k += 1
        return res

    def loss_final(self, res: RunResult) -> float:
        """Mean total loss over the last epoch of the schedule."""
        return float(np.mean(res.outputs[self.schedule - TRAIN_SCENES : self.schedule]))

    def check(self, res: RunResult, checks: Checks) -> None:
        losses = res.outputs
        checks.add("losses_finite", all(math.isfinite(x) for x in losses), f"{len(losses)} steps")
        first = losses[: self.schedule]
        repeats = [losses[i : i + self.schedule] for i in range(self.schedule, len(losses), self.schedule)]
        checks.add(
            "passes_identical",
            all(same_bits(r, first[: len(r)]) for r in repeats),
            f"{len(repeats)} repeats of a {self.schedule}-step schedule, bit for bit",
        )

    @staticmethod
    def same_outputs(a: RunResult, b: RunResult) -> bool:
        return same_bits(a.outputs, b.outputs)

    def layer_metrics(self, res: RunResult, tracer: Tracer, setup_tracer: Tracer) -> dict:
        n = len(res.scene_ms)
        objects = [len(self.scenes[k % TRAIN_SCENES].objects) for k in range(n)]
        sizes = [cost.size for cost, _ in tracer.assignments]
        return {
            "matching.real_slot_frac": float(np.mean(objects)) / self.config.num_queries,
            "matching.cost_entries": float(np.mean(sizes)) if sizes else 0.0,
        }


class EvalWorkload:
    """Held-out scoring of a checkpoint after a disk round trip.

    Set-up trains with exactly the ``train_default`` scenes and schedule,
    saves and reloads the checkpoint, and saves and reloads freshly generated
    held-out scenes. The timed loop is tape-less ``forward`` plus
    ``extract_detections`` per image and one ``evaluate_detections`` per pass
    over the held-out set, whose time is shared among the pass's images.
    """

    def __init__(self, seed: int, workdir: Path):
        self.trainer = TrainWorkload(seed, max_objects=3, num_queries=16, epochs=TRAIN_EPOCHS["train_default"])
        self.held_seeds = scene_seeds(seed, HELDOUT_SCENES, stream=1)
        self.workdir = workdir
        self.checkpoint_bytes = 0
        self.setup_loss = math.nan

    def setup(self, checks: Checks) -> str:
        t = self.trainer
        t.setup(checks)
        params, state = model.init_params(t.config), training.OptimizerState()
        losses = []
        for k in range(t.schedule):
            parts = training.train_step(t.scenes[k % TRAIN_SCENES], params, state, WEIGHTS, NULL_WEIGHT, t.config)
            losses.append(float(parts.total.data))
        checks.add("setup_losses_finite", all(math.isfinite(x) for x in losses), f"{len(losses)} steps")
        self.setup_loss = float(np.mean(losses[-TRAIN_SCENES:]))
        held = [data.generate_scene(s, t.scene_config) for s in self.held_seeds]

        tmp = Path(tempfile.mkdtemp(prefix="setup-", dir=self.workdir))
        try:
            training.save_checkpoint(tmp / "ckpt", params, t.config)
            self.checkpoint_bytes = sum(f.stat().st_size for f in (tmp / "ckpt").iterdir())
            self.params, self.config = training.load_checkpoint(tmp / "ckpt")
            data.save_dataset(held, tmp / "heldout")
            self.scenes, self.catalog = data.load_dataset(tmp / "heldout")
        finally:
            shutil.rmtree(tmp)

        checks.add(
            "checkpoint_round_trip",
            self.config == t.config
            and list(self.params) == list(params)
            and all(same_bits(self.params[n].data, p.data) for n, p in params.items()),
            f"{len(params)} tensors, bit for bit",
        )
        checks.add(
            "dataset_round_trip",
            len(self.scenes) == len(held)
            and all(a.objects == b.objects for a, b in zip(self.scenes, held))
            and all(
                np.array_equal(a.image.data, np.rint(np.clip(b.image.data, 0.0, 1.0) * 255) / 255.0)
                for a, b in zip(self.scenes, held)
            ),
            f"{len(held)} scenes: objects exact, images equal to their 8-bit quantisation",
        )
        return _digest(*(p.data for p in self.params.values())) + _scene_digest(self.scenes)

    def run(self, seconds: float, limit: int | None = None, tracer: Tracer | None = None) -> RunResult:
        """Score whole passes over the held-out set until ``seconds`` have
        passed, or until at least ``limit`` images when that is given."""
        res = RunResult()
        gts = [s.objects for s in self.scenes]
        start = time.perf_counter()
        k = 0
        while (k < limit) if limit is not None else (k == 0 or time.perf_counter() - start < seconds):
            dets, ms = [], []
            for scene in self.scenes:
                res.host_factor.append(reference.host_factor(self.loop_share))
                span = tracer.open(ROOT_SPAN, k) if tracer else None
                t0 = time.perf_counter_ns()
                try:
                    found = evaluation.extract_detections(model.forward(scene.image, self.params, self.config))
                except Exception:
                    _failed(res)
                    found = []
                ms.append((time.perf_counter_ns() - t0) / 1e6)
                if tracer:
                    tracer.close(span)
                dets.append(found)
                k += 1
            t0 = time.perf_counter_ns()
            try:
                report = evaluation.evaluate_detections(dets, gts, self.config.num_classes, IOU_THRESH, self.catalog)
            except Exception:
                _failed(res)
                report = None
            share = (time.perf_counter_ns() - t0) / 1e6 / len(ms)
            res.scene_ms.extend(m + share for m in ms)
            # later passes are compared, not kept, so memory stays flat however long the run
            if not res.outputs:
                res.outputs.append((dets, report))
            elif report is None or dets != res.outputs[0][0] or report.mean_ap != res.outputs[0][1].mean_ap:
                res.mismatched_passes += 1
            res.passes += 1
        return res

    def loss_final(self, res: RunResult) -> float:
        """Mean total loss over the last epoch of the set-up training."""
        return self.setup_loss

    def check(self, res: RunResult, checks: Checks) -> None:
        checks.add(
            "passes_identical",
            res.outputs[0][1] is not None and res.mismatched_passes == 0,
            f"{res.passes} passes over {len(self.scenes)} images, detections and mAP exact",
        )
        # scoring oracle on the same held-out scenes: ground truth scored as
        # detections must give AP 1 for every class present
        truth = [[evaluation.ScoredDetection(g.class_id, 1.0, g.box) for g in s.objects] for s in self.scenes]
        gts = [s.objects for s in self.scenes]
        oracle = evaluation.evaluate_detections(truth, gts, self.config.num_classes, IOU_THRESH, self.catalog)
        checks.add("scoring_oracle", oracle.mean_ap == 1.0, f"ground truth as detections scores mAP {oracle.mean_ap}")
        equal = True
        for scene in self.scenes[:TAPE_SAMPLE]:
            bare = model.forward(scene.image, self.params, self.config)
            with numeric.Tape():
                taped = model.forward(scene.image, self.params, self.config)
            equal &= same_bits(bare.class_probs.data, taped.class_probs.data)
            equal &= same_bits(bare.boxes.data, taped.boxes.data)
        checks.add("tapeless_equals_taped", equal, f"{TAPE_SAMPLE} images, outputs bit for bit")

    @staticmethod
    def same_outputs(a: RunResult, b: RunResult) -> bool:
        return a.outputs[0][0] == b.outputs[0][0]

    def layer_metrics(self, res: RunResult, tracer: Tracer, setup_tracer: Tracer) -> dict:
        dets, report = res.outputs[0]
        tp = sum(r.tp for r in report.per_class.values())
        fp = sum(r.fp for r in report.per_class.values())
        setup_ms, _, _ = setup_tracer.times_ms()
        return {
            "data.save_ms": setup_ms.get("data.save", 0.0) / HELDOUT_SCENES,
            "data.load_ms": setup_ms.get("data.load", 0.0) / HELDOUT_SCENES,
            "evaluation.dets_per_image": sum(map(len, dets)) / len(dets),
            "evaluation.precision": tp / (tp + fp) if tp + fp else 0.0,
            "evaluation.precision_base": float(tp + fp),
            "evaluation.map50": report.mean_ap,
            "training.checkpoint_bytes": float(self.checkpoint_bytes),
        }



def make(name: str, seed: int, workdir: Path):
    if name == "train_default":
        wl = TrainWorkload(seed, max_objects=3, num_queries=16, epochs=TRAIN_EPOCHS[name])
    elif name == "train_crowded":
        wl = TrainWorkload(seed, max_objects=12, num_queries=64, epochs=TRAIN_EPOCHS[name])
    elif name == "eval_heldout":
        wl = EvalWorkload(seed, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    wl.loop_share = LOOP_SHARE[name]
    return wl


WORKLOADS = ("train_default", "train_crowded", "eval_heldout")
