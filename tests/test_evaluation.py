import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reldet import data, model
from reldet.checks import ap_enumerated
from reldet.errors import ContractError
from reldet.evaluation import (
    APReport,
    ClassResult,
    ScoredDetection,
    _scene_overlaps,
    average_precision,
    evaluate_detections,
    extract_detections,
    match_detections,
)
from reldet.geometry import Box
from reldet.matching import GroundTruth
from reldet.model import DetectionOutput
from reldet.numeric import Tensor

import oracles
from tape_chains import from_corners, iou


NAMES = ("a", "b", "c", "d", "e")  # class names for the first ids


def det(cid, conf, box):
    return ScoredDetection(cid, conf, box)


def matched(dets, gts, iou_thresh):
    """``match_detections`` given the overlaps ``evaluate_detections`` passes it."""
    (overlap,) = _scene_overlaps([dets], [gts])
    return match_detections(dets, gts, iou_thresh, overlap)


def output_from(probs, boxes):
    return DetectionOutput(Tensor(np.asarray(probs, dtype=np.float64)), Tensor(np.asarray(boxes, dtype=np.float64)))


def test_extract_detections_paths():
    # all-null output gives no detections
    probs = [[0.1, 0.1, 0.8], [0.2, 0.2, 0.6]]
    boxes = [[0.5, 0.5, 0.2, 0.2]] * 2
    assert extract_detections(output_from(probs, boxes)) == []

    # uniform probabilities argmax-tie to class 0
    k = 2
    uniform = output_from([[1 / (k + 1)] * (k + 1)], [[0.5, 0.5, 0.2, 0.2]])
    picked = extract_detections(uniform)
    assert picked[0].class_id == 0
    assert picked[0].confidence == pytest.approx(1 / 3)

    # argmax class and confidence
    one = extract_detections(output_from([[0.1, 0.7, 0.2]], [[0.5, 0.5, 0.2, 0.2]]))
    assert one[0].class_id == 1 and one[0].confidence == pytest.approx(0.7)


def test_extract_detections_matches_boxes_read_row_by_row():
    # boxes come from one tolist() of the box array, as python floats; the old
    # per-row Box(*boxes[i]) over numpy scalars is the reference: the same
    # detections, and the same bytes when written as predict writes them
    cfg = model.ModelConfig()
    params = model.init_params(cfg)
    for seed in range(3):
        out = model.forward(data.generate_scene(seed).image, params, cfg)
        out.class_probs.data[:8, -1] = 0.0  # 8 rows per image are detections
        probs, boxes = out.class_probs.data, out.boxes.data
        expected = [ScoredDetection(int(c), float(probs[i, c]), Box(*boxes[i]))
                    for i, c in enumerate(probs.argmax(axis=1)) if c != probs.shape[1] - 1]
        got = extract_detections(out)
        assert len(got) >= 8 and got == expected
        assert all(type(v) is float for d in got for v in dataclasses.astuple(d.box))
        as_json = lambda dets: json.dumps([dataclasses.asdict(d) for d in dets], indent=1)
        assert as_json(got) == as_json(expected)


def test_match_detections_rules():
    g = Box(0.3, 0.3, 0.2, 0.2)
    gts = [GroundTruth(0, g), GroundTruth(0, Box(0.7, 0.7, 0.2, 0.2))]
    dets = [det(0, 0.9, g), det(0, 0.8, Box(0.7, 0.7, 0.2, 0.2))]
    assert matched(dets, gts, 0.5) == [True, True]

    # two detections on one ground truth: single-use rule
    dup = [det(0, 0.9, g), det(0, 0.8, g)]
    assert matched(dup, [GroundTruth(0, g)], 0.5) == [True, False]

    # IoU 0.4 pair fails a 0.5 threshold
    a = from_corners(0.0, 0.0, 0.4, 0.25)
    b = from_corners(0.1, 0.0, 0.5, 0.25)
    assert iou(a, b) == pytest.approx(0.6, abs=1e-12)
    low = from_corners(0.0, 0.0, 0.25, 0.4)
    shifted = from_corners(0.0, 0.15, 0.25, 0.55)
    assert iou(low, shifted) == pytest.approx(0.25 / 0.55, abs=1e-12)  # about 0.45
    assert matched([det(0, 0.9, low)], [GroundTruth(0, shifted)], 0.5) == [False]

    # class mismatch never matches
    assert matched([det(1, 0.9, g)], [GroundTruth(0, g)], 0.5) == [False]


def test_match_detections_prefers_higher_iou():
    close = Box(0.3, 0.3, 0.2, 0.2)
    off = Box(0.34, 0.3, 0.2, 0.2)
    gts = [GroundTruth(0, off), GroundTruth(0, close)]
    flags = matched([det(0, 0.9, close)], gts, 0.5)
    assert flags == [True]
    # a second exact detection of the remaining box still matches
    flags = matched([det(0, 0.9, close), det(0, 0.8, off)], gts, 0.5)
    assert flags == [True, True]


def test_average_precision_fixture():
    assert average_precision([True], 1) == 1.0
    assert average_precision([], 1) == 0.0
    assert average_precision([True, False, True], 2) == pytest.approx(5 / 6, abs=1e-15)
    assert average_precision([True, False], 0) is None
    with pytest.raises(ContractError):
        average_precision([True], -1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_average_precision_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    num_gt = int(rng.integers(1, 8))
    n = int(rng.integers(0, 12))
    flags = list(rng.random(n) < 0.5)
    tp = sum(flags)
    if tp > num_gt:  # cannot have more TPs than ground truths
        flags = [f and (i % 2 == 0) for i, f in enumerate(flags)]
        while sum(flags) > num_gt:
            flags[max(i for i, f in enumerate(flags) if f)] = False
    ap = average_precision(flags, num_gt)
    assert ap == pytest.approx(ap_enumerated(flags, num_gt), abs=1e-12)
    assert 0.0 <= ap <= 1.0


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 5.0))
@settings(max_examples=40)
def test_ap_invariant_under_monotone_confidence_rescale(seed, scale):
    rng = np.random.default_rng(seed)
    gts = [GroundTruth(0, Box(0.3, 0.3, 0.2, 0.2)), GroundTruth(0, Box(0.7, 0.7, 0.2, 0.2))]
    dets = []
    for _ in range(int(rng.integers(1, 6))):
        cx = float(rng.uniform(0.2, 0.8))
        dets.append(det(0, float(rng.uniform(0.1, 0.9)), Box(cx, cx, 0.2, 0.2)))
    flags = matched(dets, gts, 0.5)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    base = average_precision([flags[i] for i in order], 2)

    rescaled = [det(0, d.confidence * scale / (1 + d.confidence), d.box) for d in dets]
    flags2 = matched(rescaled, gts, 0.5)
    order2 = sorted(range(len(rescaled)), key=lambda i: (-rescaled[i].confidence, i))
    assert average_precision([flags2[i] for i in order2], 2) == pytest.approx(base, abs=1e-12)


def test_ap_is_one_only_for_clean_sweeps():
    # AP reaches 1 exactly when every ground truth is found before any FP
    assert average_precision([True, True], 2) == 1.0
    assert average_precision([True, True, False], 2) == 1.0
    assert average_precision([True, False, True], 2) < 1.0  # FP interleaved
    assert average_precision([True], 2) < 1.0  # one gt never found


def test_tp_count_bounded():
    g = Box(0.3, 0.3, 0.2, 0.2)
    gts = [GroundTruth(0, g)]
    dets = [det(0, 0.9, g), det(0, 0.8, g), det(0, 0.7, g)]
    flags = matched(dets, gts, 0.5)
    assert sum(flags) <= min(len(dets), len(gts))


def test_evaluate_detections_perfect_and_empty():
    gts_a = [GroundTruth(0, Box(0.3, 0.3, 0.2, 0.2)), GroundTruth(1, Box(0.7, 0.7, 0.2, 0.2))]
    gts_b = [GroundTruth(2, Box(0.5, 0.5, 0.3, 0.3))]
    echo_a = [det(g.class_id, 1.0, g.box) for g in gts_a]
    echo_b = [det(g.class_id, 1.0, g.box) for g in gts_b]
    report = evaluate_detections([echo_a, echo_b], [gts_a, gts_b], 3, 0.5, NAMES[:3])
    assert report.mean_ap == 1.0
    assert all(r.ap == 1.0 for r in report.per_class.values())

    empty = evaluate_detections([[], []], [gts_a, gts_b], 3, 0.5, NAMES[:3])
    assert empty.mean_ap == 0.0


def test_evaluate_detections_hand_built_two_scene_fixture():
    # class 0: scene A holds 2 ground truths, scene B holds 1
    a1 = Box(0.2, 0.2, 0.2, 0.2)
    a2 = Box(0.7, 0.7, 0.2, 0.2)
    b1 = Box(0.5, 0.5, 0.3, 0.3)
    gts = [[GroundTruth(0, a1), GroundTruth(0, a2)], [GroundTruth(0, b1)]]
    dets = [
        [det(0, 0.95, a1), det(0, 0.60, Box(0.45, 0.45, 0.2, 0.2))],  # hit, then a miss
        [det(0, 0.80, b1)],
    ]
    report = evaluate_detections(dets, gts, 1, 0.5, NAMES[:1])
    # pooled order by confidence: TP(0.95), TP(0.80), FP(0.60); 2 of 3 gts found
    assert report.per_class[0].tp == 2 and report.per_class[0].fp == 1
    expected = ap_enumerated([True, True, False], 3)
    assert report.per_class[0].ap == pytest.approx(expected, abs=1e-12)
    assert report.mean_ap == pytest.approx(expected, abs=1e-12)


def test_report_mean_ap_is_derived_from_its_class_aps():
    per_class = {cid: ClassResult(NAMES[cid], ap, 0, 0, 1) for cid, ap in enumerate([0.25, None, 0.5, 1.0])}
    assert [f.name for f in dataclasses.fields(APReport)] == ["iou_thresh", "per_class"]
    assert APReport(0.5, per_class).mean_ap == np.mean([0.25, 0.5, 1.0])
    none = {cid: ClassResult(NAMES[cid], None, 0, 0, 0) for cid in range(3)}
    assert APReport(0.5, none).mean_ap == 0.0
    assert APReport(0.5, {}).mean_ap == 0.0


def test_classes_without_gt_excluded_from_map():
    gts = [[GroundTruth(0, Box(0.3, 0.3, 0.2, 0.2))]]
    dets = [[det(0, 0.9, Box(0.3, 0.3, 0.2, 0.2))]]
    report = evaluate_detections(dets, gts, 3, 0.5, NAMES[:3])
    assert report.per_class[1].ap is None and report.per_class[2].ap is None
    assert report.mean_ap == 1.0


def test_report_rendering():
    gts = [[GroundTruth(0, Box(0.3, 0.3, 0.2, 0.2))]]
    dets = [[det(0, 0.9, Box(0.3, 0.3, 0.2, 0.2))]]
    report = evaluate_detections(dets, gts, 2, 0.5, ["transformer", "uav"])
    table = report.to_table()
    assert "transformer" in table and "mAP @ IoU 0.50" in table
    doc = report.to_json_dict()
    assert doc["map"] == 1.0
    assert doc["classes"][0]["name"] == "transformer"
    json.dumps(doc)  # serializable


def test_average_precision_equals_the_per_rank_fraction_oracle():
    # any flags, also more TPs than ground truths, and truthy non-bools
    rng = np.random.default_rng(7)
    for _ in range(2000):
        num_gt = int(rng.integers(0, 9))
        flags = list(rng.random(int(rng.integers(0, 30))) < rng.uniform(0.1, 0.9))
        assert average_precision(flags, num_gt) == oracles.average_precision(flags, num_gt)
    assert average_precision([1, 0, 2], 3) == oracles.average_precision([1, 0, 2], 3)


def random_scenes(rng, scenes: int, num_classes: int):
    """Ground truth and detections near it, with duplicates, misses, tied
    confidences and class ids outside 0..num_classes-1."""
    per_scene_dets, per_scene_gts = [], []
    for _ in range(scenes):
        gts = []
        for _ in range(int(rng.integers(0, 5))):
            w, h = rng.uniform(0.05, 0.4, 2)
            gts.append(GroundTruth(int(rng.integers(-1, num_classes + 1)),
                                   Box(float(rng.uniform(w / 2, 1 - w / 2)), float(rng.uniform(h / 2, 1 - h / 2)),
                                       float(w), float(h))))
        dets = []
        for _ in range(int(rng.integers(0, 9))):
            if gts and rng.random() < 0.7:
                g = gts[int(rng.integers(len(gts)))]
                cid = g.class_id if rng.random() < 0.8 else int(rng.integers(-1, num_classes + 1))
                box = Box(g.box.cx + float(rng.normal(0, 0.03)), g.box.cy + float(rng.normal(0, 0.03)),
                          g.box.w * float(rng.uniform(0.7, 1.3)), g.box.h)
            else:
                cid = int(rng.integers(-1, num_classes + 1))
                box = Box(float(rng.random()), float(rng.random()), float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.4)))
            conf = float(rng.choice([0.5, 0.9])) if rng.random() < 0.3 else float(rng.random())
            dets.append(det(cid, conf, box))
        per_scene_dets.append(dets)
        per_scene_gts.append(gts)
    return per_scene_dets, per_scene_gts


@pytest.mark.parametrize("seed", range(40))
def test_evaluate_detections_equals_the_per_scene_grid_oracle(seed):
    rng = np.random.default_rng(seed)
    num_classes = int(rng.integers(1, 6))
    dets, gts = random_scenes(rng, int(rng.integers(1, 12)), num_classes)
    for thresh in (0.3, 0.5, 1.0):
        got = evaluate_detections(dets, gts, num_classes, thresh, NAMES[:num_classes])
        assert got == oracles.evaluate_detections(dets, gts, num_classes, thresh, NAMES[:num_classes])
        for d, g in zip(dets, gts):
            assert matched(d, g, thresh) == oracles.match_detections(d, g, thresh)


def test_evaluate_detections_on_model_output_and_on_truth_equals_the_oracle():
    cfg = model.ModelConfig()
    params = model.init_params(cfg)
    scenes = [data.generate_scene(seed) for seed in range(12)]
    gts = [s.objects for s in scenes]
    found = []
    for scene in scenes:
        out = model.forward(scene.image, params, cfg)
        out.class_probs.data[:6, -1] = 0.0
        found.append(extract_detections(out))
    truth = [[det(g.class_id, 1.0, g.box) for g in s] for s in gts]
    for dets in (found, truth, [[] for _ in scenes]):
        got = evaluate_detections(dets, gts, cfg.num_classes, 0.5, cfg.catalog)
        assert got == oracles.evaluate_detections(dets, gts, cfg.num_classes, 0.5, cfg.catalog)
    assert evaluate_detections(truth, gts, cfg.num_classes, 0.5, cfg.catalog).mean_ap == 1.0


def test_out_of_range_class_ids_are_ignored():
    g = Box(0.3, 0.3, 0.2, 0.2)
    gts = [[GroundTruth(0, g), GroundTruth(2, g), GroundTruth(-1, g)]]
    dets = [[det(2, 0.9, g), det(-1, 0.8, g), det(0, 0.7, g)]]
    report = evaluate_detections(dets, gts, 2, 0.5, NAMES[:2])
    assert report == oracles.evaluate_detections(dets, gts, 2, 0.5, NAMES[:2])
    assert report.per_class[0].tp == 1 and report.per_class[0].gt == 1
    assert report.per_class[1].gt == 0 and report.mean_ap == 1.0


def test_evaluate_detections_without_scenes_detections_or_ground_truth_equals_the_oracle():
    g = GroundTruth(0, Box(0.3, 0.3, 0.2, 0.2))
    for dets, gts in [([], []), ([[]], [[]]), ([[]], [[g]]), ([[det(0, 0.5, g.box)]], [[]]),
                      ([[], [det(1, 0.5, g.box)]], [[g], []])]:
        got = evaluate_detections(dets, gts, 2, 0.5, NAMES[:2])
        assert got == oracles.evaluate_detections(dets, gts, 2, 0.5, NAMES[:2])
        for d, t in zip(dets, gts):
            assert matched(d, t, 0.5) == oracles.match_detections(d, t, 0.5)
