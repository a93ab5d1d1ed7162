"""Detection scoring: greedy IoU matching, per-class average precision, mAP.

Detections are pooled per class across scenes in descending confidence order,
matched greedily against at-most-once ground truth at a single IoU threshold,
and scored with all-point interpolated average precision (at each achieved
recall level, the maximum precision at that or any higher recall). Classes
without ground truth are excluded from the mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import Scene
from .errors import ContractError
from .geometry import Box, box_pairs, box_rows
from .matching import GroundTruth
from .model import DetectionOutput, ModelConfig, forward

DEFAULT_IOU_THRESH = 0.5  # the overlap at which a detection matches a ground truth, as in the paper's mAP@0.5


@dataclass(frozen=True)
class ScoredDetection:
    class_id: int
    confidence: float
    box: Box


@dataclass
class ClassResult:
    name: str
    ap: float | None  # None when the class has no ground truth
    tp: int
    fp: int
    gt: int


@dataclass
class APReport:
    iou_thresh: float
    per_class: dict[int, ClassResult]

    @property
    def mean_ap(self) -> float:
        """The mean of the class APs that are not None, in class order; 0.0 when there are none."""
        aps = [r.ap for _, r in sorted(self.per_class.items()) if r.ap is not None]
        return float(np.mean(aps)) if aps else 0.0

    def to_json_dict(self) -> dict:
        return {
            "iou_thresh": self.iou_thresh,
            "classes": [
                {"class_id": cid, "name": r.name, "ap": r.ap, "tp": r.tp, "fp": r.fp, "gt": r.gt}
                for cid, r in sorted(self.per_class.items())
            ],
            "map": self.mean_ap,
        }

    def to_table(self) -> str:
        width = max([len(r.name) for r in self.per_class.values()] + [5])
        lines = [f"{'class':<{width}}  {'AP':>7}  {'TP':>4}  {'FP':>4}  {'GT':>4}"]
        for cid in sorted(self.per_class):
            r = self.per_class[cid]
            ap = f"{r.ap:.4f}" if r.ap is not None else "   n/a"
            lines.append(f"{r.name:<{width}}  {ap:>7}  {r.tp:>4}  {r.fp:>4}  {r.gt:>4}")
        lines.append(f"mAP @ IoU {self.iou_thresh:.2f}: {self.mean_ap:.4f}")
        return "\n".join(lines)


def extract_detections(out: DetectionOutput) -> list[ScoredDetection]:
    """Argmax each query over K+1 classes; drop no-object rows."""
    probs = out.class_probs.data
    boxes = out.boxes.data.tolist()
    null_col = probs.shape[1] - 1
    dets = []
    for i, cid in enumerate(probs.argmax(axis=1).tolist()):  # ties go to the lowest index
        if cid == null_col:
            continue
        dets.append(ScoredDetection(cid, float(probs[i, cid]), Box(*boxes[i])))
    return dets


def _scene_overlaps(per_scene_dets, per_scene_gts) -> list:
    """Per scene, the IoU of each detection (row) against each ground truth
    (column) as nested lists, from one ``box_pairs`` call over every
    in-scene pair; the pairs run scene by scene, row by row."""
    dets_n = np.array([len(dets) for dets in per_scene_dets], dtype=np.intp)
    gts_n = np.array([len(gts) for gts in per_scene_gts], dtype=np.intp)
    det_rows = box_rows(d.box for dets in per_scene_dets for d in dets)
    gt_rows = box_rows(g.box for gts in per_scene_gts for g in gts)
    # detection k pairs with the gts_k ground-truth rows of its scene, from first_gt on
    gts_k = np.repeat(gts_n, dets_n)
    first_gt = np.repeat(np.cumsum(gts_n) - gts_n, dets_n)
    first_pair = np.cumsum(gts_k) - gts_k
    det_idx = np.repeat(np.arange(len(gts_k)), gts_k)
    gt_idx = np.arange(len(det_idx)) - np.repeat(first_pair - first_gt, gts_k)
    flat = box_pairs(det_rows[det_idx], gt_rows[gt_idx]).iou().tolist()
    out, at = [], 0
    for d, g in zip(dets_n.tolist(), gts_n.tolist()):
        out.append([flat[at + r * g : at + (r + 1) * g] for r in range(d)])
        at += d * g
    return out


def match_detections(dets: list[ScoredDetection], gts: list[GroundTruth], iou_thresh: float,
                     overlap) -> list[bool]:
    """Greedy TP/FP flags aligned with ``dets`` as given.

    Internally walks detections in descending confidence (ties by input
    index); each detection claims the highest-IoU unmatched same-class ground
    truth at or above the threshold, and each ground truth matches only once.
    ``overlap`` is the IoU of every detection (row) against every ground
    truth (column) as nested lists, one scene of what ``_scene_overlaps`` gives.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    taken = [False] * len(gts)
    flags = [False] * len(dets)
    for i in order:
        det = dets[i]
        best_j = -1
        best_v = -1.0
        for j, (gt, v) in enumerate(zip(gts, overlap[i])):
            if taken[j] or gt.class_id != det.class_id:
                continue
            if v >= iou_thresh and v > best_v:
                best_v = v
                best_j = j
        if best_j >= 0:
            taken[best_j] = True
            flags[i] = True
    return flags


def average_precision(flags: list[bool], num_gt: int) -> float | None:
    """All-point interpolated AP from confidence-ordered TP/FP flags.

    Returns None for num_gt = 0 (undefined, excluded from the mean). Missed
    recall levels contribute zero precision. Precisions are rationals tp/rank
    compared as integers by cross-multiplying; each distinct interpolated
    precision becomes one ``Fraction`` times the TPs it serves, so the sum is
    carried exactly and rounded once at the end.
    """
    if num_gt < 0:
        raise ContractError("num_gt must be nonnegative")
    if num_gt == 0:
        return None
    # walk back from the last rank: best_tp/best_rank is the max precision at
    # this or any later (higher-recall) cut, and hits the TPs it serves so far
    tp = sum(map(bool, flags))
    best_tp, best_rank, hits = 0, 1, 0
    total = Fraction(0)
    for rank in range(len(flags), 0, -1):
        if tp * best_rank > best_tp * rank:
            if hits:
                total += Fraction(best_tp * hits, best_rank)
            best_tp, best_rank, hits = tp, rank, 0
        if flags[rank - 1]:
            hits += 1
            tp -= 1
    total += Fraction(best_tp * hits, best_rank)
    return float(total / num_gt)


def evaluate_detections(per_scene_dets, per_scene_gts, num_classes: int, iou_thresh: float, names) -> APReport:
    """Score already-extracted detections, class id i named ``names[i]``; the model-free core of evaluation."""
    if len(per_scene_dets) != len(per_scene_gts):
        raise ContractError(f"{len(per_scene_dets)} scenes of detections but {len(per_scene_gts)} of ground truth")
    # classes never compete for a ground truth, so one greedy pass per scene
    # gives every class the flags a pass over that class alone would; a class
    # id outside 0..num_classes-1 is pooled nowhere
    pooled = {cid: [] for cid in range(num_classes)}
    gt_count = dict.fromkeys(range(num_classes), 0)
    overlaps = _scene_overlaps(per_scene_dets, per_scene_gts)
    for s, (dets, gts, overlap) in enumerate(zip(per_scene_dets, per_scene_gts, overlaps)):
        flags = match_detections(dets, gts, iou_thresh, overlap)
        for i, (d, f) in enumerate(zip(dets, flags)):
            if d.class_id in pooled:
                pooled[d.class_id].append((-d.confidence, s, i, f))
        for g in gts:
            if g.class_id in gt_count:
                gt_count[g.class_id] += 1
    per_class: dict[int, ClassResult] = {}
    for cid in range(num_classes):
        ranked = sorted(pooled[cid])  # descending confidence, then scene and index; the flag never decides
        ordered_flags = [rec[3] for rec in ranked]
        ap = average_precision(ordered_flags, gt_count[cid])
        tp = sum(ordered_flags)
        per_class[cid] = ClassResult(names[cid], ap, tp, len(ordered_flags) - tp, gt_count[cid])
    return APReport(iou_thresh, per_class)


def evaluate_dataset(dataset: list[Scene], params, config: ModelConfig,
                     iou_thresh: float = DEFAULT_IOU_THRESH) -> APReport:
    """Run the detector over every scene and score pooled detections, naming
    the classes by ``config.catalog``."""
    if not dataset:
        raise ContractError("evaluate_dataset needs a nonempty dataset")
    per_scene_dets = []
    per_scene_gts = []
    for scene in dataset:
        out = forward(scene.image, params, config)
        per_scene_dets.append(extract_detections(out))
        per_scene_gts.append(scene.objects)
    return evaluate_detections(per_scene_dets, per_scene_gts, config.num_classes, iou_thresh, config.catalog)
