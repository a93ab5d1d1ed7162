"""The scene renderer, the detection scorer and the PPM header scanner before
their fast paths, kept as test oracles.

- ``generate_scene``: the renderer that built a fresh ``np.meshgrid`` of
  pixel centres for every object. ``data.generate_scene`` reads one cached,
  read-only grid per image size and must give the same image bytes, the same
  boxes and the same field types;
- ``evaluate_detections``: the scorer that ran one ``box_pairs`` call per
  scene, every detection repeated against the tiled ground truths, through
  ``match_detections`` and pooled each class by a pass over every detection,
  and ``average_precision``, which built one ``Fraction`` per rank.
  ``evaluation.evaluate_detections``, ``evaluation.match_detections`` and
  ``evaluation.average_precision`` must return equal reports, flags and
  floats;
- ``next_token``: the header scanner that walked whitespace, ``#`` comments
  and each token one byte at a time. ``data._next_token``, one regular
  expression match, must return the same ``(token, end)`` or raise the same
  ``ContractError`` message.
"""

from fractions import Fraction

import numpy as np

from reldet.data import _SHAPES, Scene, SceneConfig, class_color
from reldet.errors import ContractError
from reldet.evaluation import APReport, ClassResult
from reldet.geometry import Box, box_pairs, box_rows
from reldet.matching import GroundTruth
from reldet.numeric import Tensor


def _pixel_grid(h: int, w: int):
    ys = (np.arange(h) + 0.5) / h
    xs = (np.arange(w) + 0.5) / w
    return np.meshgrid(ys, xs, indexing="ij")


def _shape_mask(kind: str, box: Box, h: int, w: int) -> np.ndarray:
    yy, xx = _pixel_grid(h, w)
    x1, y1, x2, y2 = box.to_corners()
    if kind == "rectangle":
        return (xx >= x1) & (xx <= x2) & (yy >= y1) & (yy <= y2)
    if kind == "ellipse":
        nx = (xx - box.cx) / (box.w / 2)
        ny = (yy - box.cy) / (box.h / 2)
        return nx * nx + ny * ny <= 1.0
    t = np.clip((y2 - yy) / (y2 - y1), 0.0, 1.0)
    half = (box.w / 2) * (1.0 - t)
    return (yy >= y1) & (yy <= y2) & (np.abs(xx - box.cx) <= half)


def generate_scene(seed: int, config: SceneConfig = SceneConfig()) -> Scene:
    rng = np.random.default_rng(seed)
    h, w = config.image_size
    k = len(config.catalog)
    img = rng.uniform(0.15, 0.35, (3, h, w))
    count = int(rng.integers(1, config.max_objects + 1))
    objects = []
    for _ in range(count):
        class_id = int(rng.integers(0, k))
        bw = rng.uniform(0.1, 0.4)
        bh = rng.uniform(0.1, 0.4)
        cx = rng.uniform(bw / 2, 1 - bw / 2)
        cy = rng.uniform(bh / 2, 1 - bh / 2)
        box = Box(cx, cy, bw, bh)
        mask = _shape_mask(_SHAPES[class_id % len(_SHAPES)], box, h, w)
        color = class_color(class_id)
        for ch in range(3):
            img[ch][mask] = color[ch]
        objects.append(GroundTruth(class_id, box))
    return Scene(Tensor(img), objects)


def match_detections(dets, gts, iou_thresh: float) -> list[bool]:
    det_rows, gt_rows = box_rows(d.box for d in dets), box_rows(g.box for g in gts)
    overlap = box_pairs(np.repeat(det_rows, len(gts), axis=0), np.tile(gt_rows, (len(dets), 1))).iou()
    overlap = overlap.reshape(len(dets), len(gts)).tolist()
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


def average_precision(flags, num_gt: int):
    if num_gt < 0:
        raise ContractError("num_gt must be nonnegative")
    if num_gt == 0:
        return None
    if not flags:
        return 0.0
    precision = []
    tp = 0
    for rank, flag in enumerate(flags, start=1):
        tp += bool(flag)
        precision.append(Fraction(tp, rank))
    best = Fraction(0)
    total = Fraction(0)
    for rank in range(len(flags) - 1, -1, -1):
        if precision[rank] > best:
            best = precision[rank]
        if flags[rank]:
            total += best
    return float(total / num_gt)


def evaluate_detections(per_scene_dets, per_scene_gts, num_classes: int, iou_thresh: float, names) -> APReport:
    if len(per_scene_dets) != len(per_scene_gts):
        raise ContractError(f"{len(per_scene_dets)} scenes of detections but {len(per_scene_gts)} of ground truth")
    per_scene_flags = [match_detections(dets, gts, iou_thresh) for dets, gts in zip(per_scene_dets, per_scene_gts)]
    per_class = {}
    for cid in range(num_classes):
        pooled = [
            (d.confidence, s, i, f)
            for s, (dets, flags) in enumerate(zip(per_scene_dets, per_scene_flags))
            for i, (d, f) in enumerate(zip(dets, flags))
            if d.class_id == cid
        ]
        gt_count = sum(g.class_id == cid for gts in per_scene_gts for g in gts)
        pooled.sort(key=lambda rec: (-rec[0], rec[1], rec[2]))
        ordered_flags = [rec[3] for rec in pooled]
        ap = average_precision(ordered_flags, gt_count)
        tp = sum(ordered_flags)
        per_class[cid] = ClassResult(names[cid], ap, tp, len(ordered_flags) - tp, gt_count)
    return APReport(iou_thresh, per_class)


def next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < n and buf[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise ContractError(f"unexpected end of PPM header at byte {pos}")
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos
