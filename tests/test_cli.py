import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from reldet import checks, cli, data, errors, numeric, training
from reldet.data import SceneConfig, load_dataset, read_ppm
from reldet.errors import ContractError
from reldet.evaluation import DEFAULT_IOU_THRESH, evaluate_dataset
from reldet.geometry import LossWeights
from reldet.matching import DEFAULT_NULL_WEIGHT, hungarian_loss_terms
from reldet.model import MAX_LAYERS, ModelConfig
from reldet.training import DEFAULT_LR, OptimizerState, load_checkpoint, save_checkpoint, train

TRAIN_FLAGS = ["--epochs", "2", "--d-model", "8", "--heads", "2", "--enc-layers", "1",
               "--dec-layers", "1", "--queries", "6", "--seed", "0"]


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ds")
    assert run("gen-data", "--seed", "1", "--count", "5", "--out", str(root / "ds"),
               "--img-size", "16", "--max-objects", "2") == 0
    return root / "ds"


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("cli_ckpt") / "ckpt"
    assert run("train", "--data", str(dataset), "--out", str(ckpt), *TRAIN_FLAGS) == 0
    return ckpt


def test_gen_data_writes_pairs_and_catalog(dataset):
    assert len(list(dataset.glob("scene_*.ppm"))) == 5
    assert len(list(dataset.glob("scene_*.json"))) == 5
    catalog = json.loads((dataset / "catalog.json").read_text())
    assert len(catalog) == 5


def test_gen_data_deterministic_bytes(tmp_path):
    for name in ("a", "b"):
        assert run("gen-data", "--seed", "9", "--count", "2", "--out", str(tmp_path / name),
                   "--img-size", "16") == 0
    for fname in ("scene_00000.ppm", "scene_00001.json", "catalog.json"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_gen_data_writes_each_scene_before_drawing_the_next(tmp_path, monkeypatch, capsys):
    events = []
    draw, save = cli.generate_scene, data.save_scene
    monkeypatch.setattr(cli, "generate_scene", lambda seed, cfg: events.append(("draw", seed)) or draw(seed, cfg))
    monkeypatch.setattr(data, "save_scene",
                        lambda scene, stem, catalog: events.append(("save", stem.name)) or save(scene, stem, catalog))
    assert run("gen-data", "--seed", "5", "--count", "3", "--out", str(tmp_path / "ds")) == 0
    assert events == [("draw", 5), ("save", "scene_00000"), ("draw", 6), ("save", "scene_00001"),
                      ("draw", 7), ("save", "scene_00002")]
    scenes, _ = load_dataset(tmp_path / "ds")
    objects = sum(len(scene.objects) for scene in scenes)
    assert capsys.readouterr().out == f"wrote 3 scenes ({objects} objects, 5 classes) to {tmp_path / 'ds'}\n"


def test_gen_data_failing_part_way_removes_the_directory_it_made(tmp_path, monkeypatch, capsys):
    draw = cli.generate_scene

    def fail_on_the_third(seed, cfg):
        if seed == 3:
            raise ContractError("the third scene does not fit")
        return draw(seed, cfg)

    monkeypatch.setattr(cli, "generate_scene", fail_on_the_third)
    kept = tmp_path / "kept"
    kept.mkdir()
    for out in (tmp_path / "new" / "ds", kept):
        assert run("gen-data", "--seed", "1", "--count", "3", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: the third scene does not fit\n"
    assert not (tmp_path / "new").exists()
    assert sorted(p.name for p in kept.iterdir()) == [f"scene_0000{i}.{ext}" for i in (0, 1) for ext in ("json", "ppm")]


def test_every_default_is_read_from_its_owner():
    parser = cli._build_parser()
    scene, model, loss = SceneConfig(), ModelConfig(), LossWeights()
    g = parser.parse_args(["gen-data", "--out", "o"])
    assert ((g.img_size, g.img_size), g.max_objects, tuple(g.classes.split(","))) == \
        (scene.image_size, scene.max_objects, scene.catalog)
    t = parser.parse_args(["train", "--data", "d", "--out", "o"])
    assert (t.d_model, t.heads, t.enc_layers, t.dec_layers, t.queries, t.knn_k, t.seed) == \
        (model.model_dim, model.num_heads, model.num_encoder_layers, model.num_decoder_layers, model.num_queries,
         model.knn_k, model.seed)
    assert (t.lambda_iou, t.lambda_l1) == (loss.lambda_iou, loss.lambda_l1)
    train_defaults = inspect.signature(train).parameters
    assert t.lr == DEFAULT_LR == OptimizerState().lr == train_defaults["lr"].default
    assert t.null_weight == DEFAULT_NULL_WEIGHT == train_defaults["null_weight"].default \
        == inspect.signature(hungarian_loss_terms).parameters["null_weight"].default
    e = parser.parse_args(["eval", "--data", "d", "--checkpoint", "c"])
    assert e.iou_thresh == DEFAULT_IOU_THRESH == inspect.signature(evaluate_dataset).parameters["iou_thresh"].default
    p = parser.parse_args(["predict", "--image", "i", "--checkpoint", "c", "--out", "o"])
    assert vars(p) == {"command": "predict", "image": "i", "checkpoint": "c", "out": "o", "run": cli.cmd_predict}
    assert parser.parse_args(["selftest"]).seed == 0


def test_gen_data_count_zero_exits_2(tmp_path):
    assert run("gen-data", "--count", "0", "--out", str(tmp_path / "x")) == 2


@pytest.mark.parametrize("size", ["4", "12", "0", "-8"])
def test_gen_data_img_size_not_multiple_of_8_exits_2(tmp_path, capsys, size):
    assert run("gen-data", "--count", "1", "--out", str(tmp_path / "ds"), "--img-size", size) == 2
    assert "multiple of 8" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("size", ["10000000", "4000000000"])
def test_gen_data_image_beyond_memory_exits_2(tmp_path, capsys, size):
    # 2 PiB, and more bytes than one array can address: no 64-bit machine allocates either
    assert run("gen-data", "--seed", "1", "--count", "1", "--out", str(tmp_path / "ds"), "--img-size", size) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "does not fit in memory" in err and "Traceback" not in err
    assert not (tmp_path / "ds").exists()


def test_gen_data_max_objects_above_the_cap_exits_2_before_drawing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "generate_scene", None)  # no scene is drawn: calling it would raise TypeError
    out = tmp_path / "ds"
    assert run("gen-data", "--seed", "1", "--count", "1", "--out", str(out), "--max-objects", "1025") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: max_objects must lie in [1, 1024]") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("count", ["9223372036854775808", "1000000000000000000000000000000"])
def test_gen_data_max_objects_beyond_int64_exits_2(tmp_path, capsys, count):
    # the per-scene object count is an int64 draw below max_objects + 1
    assert run("gen-data", "--seed", "1", "--count", "1", "--out", str(tmp_path / "ds"), "--max-objects", count) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: max_objects must lie in") and "Traceback" not in err
    assert not (tmp_path / "ds").exists()


def test_gen_data_unwritable_path_exits_2():
    assert run("gen-data", "--count", "1", "--out", "/proc/nope/ds") == 2


def test_train_writes_checkpoint_and_log(checkpoint):
    # the class names travel in the manifest's config, so no third checkpoint file
    assert sorted(f.name for f in checkpoint.iterdir()) == ["manifest.json", "train_log.csv", "weights.bin"]
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    assert manifest["config"]["catalog"] == list(SceneConfig().catalog)
    log = (checkpoint / "train_log.csv").read_text().splitlines()
    assert log[0] == "epoch,scene,total,cls,box"
    assert len(log) == 1 + 2 * 5  # header + epochs * scenes
    for line in log[1:]:
        parts = line.split(",")
        assert np.isfinite(float(parts[2]))


def test_train_epochs_zero_exits_2(dataset, tmp_path):
    assert run("train", "--data", str(dataset), "--out", str(tmp_path / "ck"), "--epochs", "0") == 2


def test_malformed_catalog_exits_2(dataset, checkpoint, tmp_path, capsys):
    # a duplicate name would train and score two table rows under one name
    for i, text in enumerate(['["transformer", ', "{}", '"abcde"', '["a", "a", "b", "c", "d"]']):
        bad_ds = shutil.copytree(dataset, tmp_path / f"ds{i}")
        (bad_ds / "catalog.json").write_text(text)
        assert run("train", "--data", str(bad_ds), "--out", str(tmp_path / f"ck{i}"), *TRAIN_FLAGS) == 2
        assert run("eval", "--data", str(bad_ds), "--checkpoint", str(checkpoint)) == 2
        assert capsys.readouterr().err.count("catalog.json") == 2, text


def _edited(dataset, tmp_path, edit):
    """A copy of the dataset whose scene_00001.json annotation ``edit`` changed in place."""
    ds = shutil.copytree(dataset, tmp_path / "ds")
    scene = ds / "scene_00001.json"
    doc = json.loads(scene.read_text())
    edit(doc)
    scene.write_text(json.dumps(doc))
    return ds


def _with_class_id(dataset, tmp_path, class_id):
    return _edited(dataset, tmp_path, lambda doc: doc["objects"][0].update(class_id=class_id))


@pytest.mark.parametrize("class_id", [99, -1])
def test_train_out_of_catalog_class_id_exits_2(dataset, tmp_path, capsys, class_id):
    ds = _with_class_id(dataset, tmp_path, class_id)
    assert run("train", "--data", str(ds), "--out", str(tmp_path / "ck"), *TRAIN_FLAGS) == 2
    err = capsys.readouterr().err
    assert "scene_00001.json" in err and f"class_id {class_id}" in err


@pytest.mark.parametrize("class_id", [99, -1])
def test_eval_out_of_catalog_class_id_exits_2(dataset, checkpoint, tmp_path, capsys, class_id):
    ds = _with_class_id(dataset, tmp_path, class_id)
    assert run("eval", "--data", str(ds), "--checkpoint", str(checkpoint)) == 2
    err = capsys.readouterr().err
    assert "scene_00001.json" in err and f"class_id {class_id}" in err


# an annotation that contradicts its image or the unit square is a bad input
# file (exit 2), not a checkpoint mismatch (exit 4)
DATASET_ERRORS = {
    "box_outside_unit_square": (lambda doc: doc["objects"][0].update(cx=0.99, w=0.2), "leaves the unit square"),
    "size_mismatch": (lambda doc: doc.update(width=40), "annotation size 40x16 mismatches image 16x16"),
    "no_objects": (lambda doc: doc.update(objects=[]), "scene has no objects"),
}


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("case", sorted(DATASET_ERRORS))
def test_dataset_error_exits_2_naming_the_file(dataset, checkpoint, tmp_path, capsys, case, command):
    edit, message = DATASET_ERRORS[case]
    ds = str(_edited(dataset, tmp_path, edit))
    if command == "train":
        assert run("train", "--data", ds, "--out", str(tmp_path / "ck"), *TRAIN_FLAGS) == 2
    else:
        assert run("eval", "--data", ds, "--checkpoint", str(checkpoint)) == 2
    err = capsys.readouterr().err
    assert "scene_00001.json" in err and message in err and "checkpoint mismatch" not in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_bad_ppm_header_in_a_dataset_exits_2_naming_the_file(dataset, checkpoint, tmp_path, capsys, command):
    ds = shutil.copytree(dataset, tmp_path / "ds")
    (ds / "scene_00001.ppm").write_bytes(b"P6\n" + b"9" * 5000 + b" 16\n255\n")
    argv = {"train": ["train", "--data", str(ds), "--out", str(tmp_path / "ck"), *TRAIN_FLAGS],
            "eval": ["eval", "--data", str(ds), "--checkpoint", str(checkpoint)]}[command]
    assert run(*argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "scene_00001.ppm" in line and "bad PPM header token" in line


@pytest.fixture(scope="module")
def mixed_sizes(dataset, tmp_path_factory):
    """The 16 px dataset plus a 32 px scene_00005."""
    root = tmp_path_factory.mktemp("mixed")
    assert run("gen-data", "--seed", "8", "--count", "1", "--out", str(root / "big"), "--img-size", "32") == 0
    ds = shutil.copytree(dataset, root / "ds")
    for suffix in (".ppm", ".json"):
        shutil.copy(root / "big" / f"scene_00000{suffix}", ds / f"scene_00005{suffix}")
    return ds


@pytest.mark.parametrize("command", ["train", "eval"])
def test_mixed_image_sizes_exit_2_naming_the_file(mixed_sizes, checkpoint, tmp_path, capsys, command):
    # refused at load time: train runs no step, eval is no checkpoint mismatch
    argv = {"train": ["train", "--data", str(mixed_sizes), "--out", str(tmp_path / "ck"), *TRAIN_FLAGS],
            "eval": ["eval", "--data", str(mixed_sizes), "--checkpoint", str(checkpoint)]}[command]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "scene_00005.ppm" in err and "differs from scene_00000.ppm" in err
    assert not (tmp_path / "ck").exists()


def test_train_refuses_a_scene_with_more_objects_than_queries_before_the_first_step(tmp_path, capsys, monkeypatch):
    # scene_00000 holds 1 object and scene_00001 holds 2: one query fits the first scene only
    ds, out = tmp_path / "ds", tmp_path / "ck"
    assert run("gen-data", "--seed", "2", "--count", "3", "--out", str(ds), "--img-size", "16",
               "--max-objects", "6") == 0
    assert [len(json.loads((ds / f"scene_0000{i}.json").read_text())["objects"]) for i in range(3)] == [1, 2, 2]
    steps = []
    monkeypatch.setattr("reldet.training.train_step", lambda *a: steps.append(a))
    assert run("train", "--data", str(ds), "--out", str(out), *TRAIN_FLAGS, "--queries", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ds / 'scene_00001.json'}: 2 objects exceed the model's 1 queries")
    assert steps == [] and not out.exists()


@pytest.mark.parametrize("flag, value", [("--lr", "-1"), ("--lr", "0"), ("--lr", "nan"), ("--lr", "inf"),
                                         ("--null-weight", "-1"), ("--null-weight", "nan"), ("--null-weight", "inf"),
                                         ("--lambda-iou", "-1"), ("--heads", "3"), ("--queries", "0"),
                                         ("--queries", "-3")])
def test_train_nonpositive_learning_rate_or_negative_null_weight_exits_2(dataset, tmp_path, capsys, flag, value):
    # a rejected run removes the output directory it made
    out = tmp_path / "ck"
    assert run("train", "--data", str(dataset), "--out", str(out), *TRAIN_FLAGS, flag, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if flag == "--queries":  # the model flags are judged before any scene is read
        assert err == "error: need at least one query\n"
    assert not out.exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_one_step_train_with_a_non_finite_learning_rate_exits_2(tmp_path, capsys, lr):
    # one scene and one epoch: no later step's forward meets the weights this step would write
    ds, out = tmp_path / "ds", tmp_path / "ck"
    assert run("gen-data", "--seed", "1", "--count", "1", "--out", str(ds), "--img-size", "16",
               "--max-objects", "2") == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("train", "--data", str(ds), "--out", str(out), "--epochs", "1", "--d-model", "8", "--heads", "2",
                   "--enc-layers", "1", "--dec-layers", "1", "--queries", "4", "--lr", lr)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: train needs a finite positive learning rate"), err
    assert "Traceback" not in err and "RuntimeWarning" not in err and caught == []
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--enc-layers", "--dec-layers"])
@pytest.mark.parametrize("layers", [str(MAX_LAYERS + 1), "100000000", str(10**400)])
def test_train_layer_count_above_the_cap_exits_2(dataset, tmp_path, capsys, monkeypatch, flag, layers):
    # refused by the config, before param_spec lists any layer: no parameter is made
    monkeypatch.setattr("reldet.training.init_params", None)  # calling it would raise TypeError
    out = tmp_path / "ck"
    assert run("train", "--data", str(dataset), "--out", str(out), *TRAIN_FLAGS, flag, layers) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: layer counts must lie in [0, {MAX_LAYERS}]") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("queries", ["10000000000000", "1000000000000000000"])
def test_train_model_beyond_memory_exits_2(dataset, tmp_path, capsys, queries):
    # a parameter arena of 582 TiB, and one of more entries than an array can
    # hold: no 64-bit machine allocates either
    out = tmp_path / "ck"
    assert run("train", "--data", str(dataset), "--out", str(out), *TRAIN_FLAGS, "--queries", queries) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "do not fit in memory" in err and "Traceback" not in err
    assert not out.exists()


def test_rejected_train_keeps_the_directories_it_did_not_make(dataset, tmp_path):
    out = tmp_path / "ck"
    out.mkdir()
    (out / "keep.txt").write_text("made before the run")
    log = tmp_path / "logs" / "deep" / "run.csv"
    assert run("train", "--data", str(dataset), "--out", str(out), "--log", str(log), *TRAIN_FLAGS, "--lr", "-1") == 2
    assert (out / "keep.txt").read_text() == "made before the run"
    assert not (tmp_path / "logs").exists()


def test_train_knn_zero_runs(dataset, tmp_path):
    assert run("train", "--data", str(dataset), "--out", str(tmp_path / "ck0"),
               "--knn-k", "0", *TRAIN_FLAGS) == 0


def test_train_rerun_reproduces_log_bytes(dataset, tmp_path):
    for name in ("r1", "r2"):
        assert run("train", "--data", str(dataset), "--out", str(tmp_path / name), *TRAIN_FLAGS) == 0
    assert (tmp_path / "r1" / "train_log.csv").read_bytes() == (tmp_path / "r2" / "train_log.csv").read_bytes()
    assert (tmp_path / "r1" / "weights.bin").read_bytes() == (tmp_path / "r2" / "weights.bin").read_bytes()


def test_train_log_into_a_missing_directory(dataset, tmp_path):
    log = tmp_path / "logs" / "run.csv"
    assert run("train", "--data", str(dataset), "--out", str(tmp_path / "ck"), "--log", str(log), *TRAIN_FLAGS) == 0
    assert len(log.read_text().splitlines()) == 1 + 2 * 5
    assert not (tmp_path / "ck" / "train_log.csv").exists()


@pytest.mark.parametrize("command", ["train-log", "train-out", "eval-json", "predict-out"])
def test_uncreatable_output_directory_exits_2_before_any_work(dataset, checkpoint, tmp_path, monkeypatch, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, so no directory can be made under it")

    def no_work(*args, **kwargs):
        raise AssertionError("read input before making the output directories")

    monkeypatch.setattr(cli, "load_dataset", no_work)
    monkeypatch.setattr(cli, "load_checkpoint", no_work)
    argv = {
        "train-log": ["train", "--data", str(dataset), "--out", str(tmp_path / "ck"),
                      "--log", str(blocker / "logs" / "run.csv"), *TRAIN_FLAGS],
        "train-out": ["train", "--data", str(dataset), "--out", str(blocker / "ck"), *TRAIN_FLAGS],
        "eval-json": ["eval", "--data", str(dataset), "--checkpoint", str(checkpoint),
                      "--json", str(blocker / "reports" / "eval.json")],
        "predict-out": ["predict", "--image", str(dataset / "scene_00000.ppm"), "--checkpoint", str(checkpoint),
                        "--out", str(blocker / "preds" / "pred")],
    }[command]
    assert run(*argv) == 2


def test_failing_eval_removes_the_directory_it_made(tmp_path, capsys):
    kept = tmp_path / "kept"
    kept.mkdir()
    for report in (tmp_path / "new" / "deep" / "r.json", kept / "r.json"):
        assert run("eval", "--data", str(tmp_path / "nodata"), "--checkpoint", str(tmp_path / "nock"),
                   "--json", str(report)) == 4
        assert capsys.readouterr().err.startswith("checkpoint mismatch: no manifest.json")
    assert not (tmp_path / "new").exists()
    assert kept.is_dir() and not any(kept.iterdir())


def test_eval_prints_table_and_json(dataset, checkpoint, tmp_path, capsys):
    json_path = tmp_path / "reports" / "report.json"  # a directory that does not exist yet
    assert run("eval", "--data", str(dataset), "--checkpoint", str(checkpoint),
               "--json", str(json_path)) == 0
    table = capsys.readouterr().out
    assert "mAP @ IoU 0.50" in table
    doc = json.loads(json_path.read_text())
    assert 0.0 <= doc["map"] <= 1.0
    assert {c["name"] for c in doc["classes"]} == {"transformer", "insulator", "bushing", "robot", "uav"}


@pytest.mark.parametrize("command, target", [
    ("train", "train_log.csv"), ("train", "manifest.json"), ("eval", "report.json"),
    ("predict", "pred.json"), ("predict", "pred.ppm"),
])
def test_failed_report_write_keeps_the_earlier_file(dataset, checkpoint, tmp_path, monkeypatch, command, target):
    out = tmp_path / "out"
    out.mkdir()
    (out / target).write_bytes(b"earlier report")
    argv = {
        "train": ["train", "--data", str(dataset), "--out", str(out), *TRAIN_FLAGS],
        "eval": ["eval", "--data", str(dataset), "--checkpoint", str(checkpoint), "--json", str(out / target)],
        "predict": ["predict", "--image", str(dataset / "scene_00000.ppm"), "--checkpoint", str(checkpoint),
                    "--out", str(out / "pred")],
    }[command]
    real_fsync = os.fsync

    def fsync(fd):
        # fail once the target's temporary file holds the new bytes, before it is renamed
        if any(out.glob(f".{target}.*.tmp")):
            raise OSError("disk full")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    assert run(*argv) == 2
    assert (out / target).read_bytes() == b"earlier report"
    assert not [f.name for f in out.iterdir() if f.name.startswith(".")]  # no temporary file left


def test_eval_higher_threshold_never_gains(dataset, checkpoint, capsys):
    maps = {}
    for thresh in ("0.5", "0.99"):
        assert run("eval", "--data", str(dataset), "--checkpoint", str(checkpoint),
                   "--iou-thresh", thresh) == 0
        out = capsys.readouterr().out
        maps[thresh] = float(out.rsplit(":", 1)[1])
    assert maps["0.99"] <= maps["0.5"]


def test_eval_mismatched_dataset_exits_4(checkpoint, tmp_path):
    assert run("gen-data", "--seed", "3", "--count", "2", "--out", str(tmp_path / "big"),
               "--img-size", "32") == 0
    assert run("eval", "--data", str(tmp_path / "big"), "--checkpoint", str(checkpoint)) == 4


def test_eval_missing_checkpoint_exits_4(dataset, tmp_path):
    assert run("eval", "--data", str(dataset), "--checkpoint", str(tmp_path / "nothing")) == 4


def test_eval_missing_weights_exits_4(dataset, checkpoint, tmp_path):
    ckpt = shutil.copytree(checkpoint, tmp_path / "ckpt")
    (ckpt / "weights.bin").unlink()
    assert run("eval", "--data", str(dataset), "--checkpoint", str(ckpt)) == 4


def test_eval_manifest_without_image_size_exits_4(dataset, checkpoint, tmp_path):
    ckpt = shutil.copytree(checkpoint, tmp_path / "ckpt")
    manifest = json.loads((ckpt / "manifest.json").read_text())
    del manifest["config"]["image_size"]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    assert run("eval", "--data", str(dataset), "--checkpoint", str(ckpt)) == 4


# None drops the key; backbone_channels 16 is the manifest of a checkpoint saved while the backbone
# width was a config field, whose tensors and weights.bin are this layout's
@pytest.mark.parametrize("key, value", [("knn_k", None), ("num_classes", 5), ("backbone_channels", 16)])
def test_eval_manifest_config_not_naming_every_field_exits_4(dataset, tmp_path, capsys, key, value):
    # knn_k changes no tensor shape, and 0 is not its default: no default may fill it in
    ckpt = tmp_path / "ckpt"
    assert run("train", "--data", str(dataset), "--out", str(ckpt), *TRAIN_FLAGS, "--knn-k", "0") == 0
    manifest = json.loads((ckpt / "manifest.json").read_text())
    if value is None:
        del manifest["config"][key]
    else:
        manifest["config"][key] = value
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run("eval", "--data", str(dataset), "--checkpoint", str(ckpt)) == 4
    err = capsys.readouterr().err
    assert err.startswith("checkpoint mismatch: bad config") and f"no other: {key}" in err and err.count("\n") == 1


@pytest.mark.parametrize("edit", ["box_head scaled by 1e300", "class_head.weight set to 1e308"])
def test_diverging_checkpoint_exits_3_on_eval_and_predict(dataset, checkpoint, tmp_path, capsys, edit):
    # finite weights, committed by their manifest, whose forward overflows
    ckpt = shutil.copytree(checkpoint, tmp_path / "ckpt")
    params, config = load_checkpoint(ckpt)
    if edit.startswith("box_head"):
        for name, p in params.items():
            if name.startswith("box_head."):
                p.data[...] *= 1e300
    else:
        params["class_head.weight"].data[...] = 1e308
    save_checkpoint(ckpt, params, config)
    new = tmp_path / "new"
    for argv in (["eval", "--data", str(dataset), "--json", str(new / "r.json")],
                 ["predict", "--image", str(dataset / "scene_00000.ppm"), "--out", str(new / "p")]):
        assert run(*argv, "--checkpoint", str(ckpt)) == 3
        err = capsys.readouterr().err
        assert err == "numeric divergence: overflow encountered in dot in numeric._affine\n"
        assert not new.exists()


@pytest.mark.parametrize("argv, line", [
    (("train", "--lambda-iou", "1e308", "--lambda-l1", "1e308"),
     "overflow encountered in add in matching.build_cost_matrix"),
    (("train", "--null-weight", "1e308"), "overflow encountered in multiply in numeric.set_loss"),
    (("train", "--lambda-l1", "1e308"), "overflow encountered in reduce in numeric.set_loss"),
    (("eval",), "overflow encountered in dot in numeric._affine"),
])
def test_a_divergence_prints_one_stderr_line_from_a_real_interpreter(dataset, checkpoint, tmp_path, argv, line):
    # a fresh interpreter, not pytest, decides what reaches stderr: numpy's RuntimeWarnings would
    out = tmp_path / "out"
    if argv[0] == "train":
        argv = (*argv, "--data", str(dataset), "--out", str(out), "--epochs", "1", "--d-model", "8", "--heads", "2",
                "--enc-layers", "1", "--dec-layers", "1", "--queries", "4")
    else:  # finite weights, committed by their manifest, whose forward overflows
        ckpt = shutil.copytree(checkpoint, tmp_path / "ckpt")
        params, config = load_checkpoint(ckpt)
        for name, p in params.items():
            if name.startswith("box_head."):
                p.data[...] *= 1e300
        save_checkpoint(ckpt, params, config)
        argv = (*argv, "--data", str(dataset), "--checkpoint", str(ckpt), "--json", str(out / "r.json"))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "reldet.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (done.returncode, done.stderr) == (3, f"numeric divergence: {line}\n")
    assert not out.exists()


def test_predict_outputs(dataset, checkpoint, tmp_path):
    prefix = tmp_path / "pred"
    assert run("predict", "--image", str(dataset / "scene_00000.ppm"),
               "--checkpoint", str(checkpoint), "--out", str(prefix)) == 0
    doc = json.loads(prefix.with_suffix(".json").read_text())
    assert doc["width"] == 16 and doc["height"] == 16
    for obj in doc["objects"]:
        assert set(obj) == {"class_id", "class_name", "cx", "cy", "w", "h", "confidence"}
        assert 0.0 < obj["confidence"] <= 1.0

    rendered = read_ppm(prefix.with_suffix(".ppm"))
    base = read_ppm(dataset / "scene_00000.ppm")
    if doc["objects"]:
        assert not np.array_equal(rendered, base)
        # outline pixels sit on the detection's corner rows/columns (+-1 px)
        from reldet.data import class_color
        d = doc["objects"][0]
        color = np.array(class_color(d["class_id"]))
        diff = np.abs(rendered - base).sum(axis=0) > 0
        rows, cols = np.nonzero(diff)
        x1 = (d["cx"] - d["w"] / 2) * 16
        y1 = (d["cy"] - d["h"] / 2) * 16
        x2 = (d["cx"] + d["w"] / 2) * 16
        y2 = (d["cy"] + d["h"] / 2) * 16
        assert rows.min() >= np.floor(y1) - 1 and rows.max() <= np.ceil(y2) + 1
        assert cols.min() >= np.floor(x1) - 1 and cols.max() <= np.ceil(x2) + 1


def test_predict_deterministic(dataset, checkpoint, tmp_path):
    for name in ("p1", "p2"):
        assert run("predict", "--image", str(dataset / "scene_00001.ppm"),
                   "--checkpoint", str(checkpoint), "--out", str(tmp_path / name)) == 0
    assert (tmp_path / "p1.json").read_bytes() == (tmp_path / "p2.json").read_bytes()
    assert (tmp_path / "p1.ppm").read_bytes() == (tmp_path / "p2.ppm").read_bytes()


def test_predict_dotted_prefix_keeps_its_tail(dataset, checkpoint, tmp_path):
    prefix = tmp_path / "runs" / "pred_0.5"
    assert run("predict", "--image", str(dataset / "scene_00000.ppm"),
               "--checkpoint", str(checkpoint), "--out", str(prefix)) == 0
    assert sorted(f.name for f in prefix.parent.iterdir()) == ["pred_0.5.json", "pred_0.5.ppm"]
    assert json.loads((tmp_path / "runs" / "pred_0.5.json").read_text())["width"] == 16
    assert read_ppm(tmp_path / "runs" / "pred_0.5.ppm").shape == (3, 16, 16)


def test_predict_image_of_another_size_exits_4_naming_it(checkpoint, tmp_path, capsys):
    assert run("gen-data", "--seed", "3", "--count", "1", "--out", str(tmp_path / "big"), "--img-size", "32") == 0
    image = tmp_path / "big" / "scene_00000.ppm"
    assert run("predict", "--image", str(image), "--checkpoint", str(checkpoint), "--out", str(tmp_path / "p")) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"checkpoint mismatch: image {image}") and "images are 32x32" in err
    assert not (tmp_path / "p.json").exists()


def test_eval_on_another_catalog_exits_4_naming_both(checkpoint, tmp_path, capsys):
    # as many classes as the checkpoint's, under other names: a class id would score another class
    other = tmp_path / "other"
    assert run("gen-data", "--seed", "1", "--count", "2", "--out", str(other), "--img-size", "16",
               "--classes", "a,b,c,d,e") == 0
    capsys.readouterr()
    assert run("eval", "--data", str(other), "--checkpoint", str(checkpoint), "--json", str(tmp_path / "r.json")) == 4
    err = capsys.readouterr().err
    assert err == (f"checkpoint mismatch: dataset {other}: classes a, b, c, d, e but the checkpoint has "
                   "transformer, insulator, bushing, robot, uav\n")
    assert not (tmp_path / "r.json").exists()


def test_predict_unreadable_image_exits_2(checkpoint, tmp_path):
    assert run("predict", "--image", str(tmp_path / "missing.ppm"),
               "--checkpoint", str(checkpoint), "--out", str(tmp_path / "p")) == 2


def test_predict_image_with_a_5000_digit_width_exits_2_in_one_line(checkpoint, tmp_path, capsys):
    image = tmp_path / "wide.ppm"
    image.write_bytes(b"P6\n" + b"9" * 5000 + b" 16\n255\n")
    assert run("predict", "--image", str(image), "--checkpoint", str(checkpoint), "--out", str(tmp_path / "p")) == 2
    err = capsys.readouterr().err
    assert err == "error: bad PPM header token b'999999999999999999' (5000 bytes) at byte 3\n"


def test_selftest_passes_and_reports_suites(capsys):
    assert run("selftest", "--seed", "0") == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 5
    assert "0 failed" in out


@pytest.mark.parametrize("block", ["backbone", "attention_block", "ffn_block", "relation", "mlp", "set_loss"])
def test_selftest_broken_gradient_exits_1(monkeypatch, capsys, block):
    # a 0.1% error in one block's rule fails that block's gradient cases and no other's
    real_record = numeric._record

    def record(op, out, inputs, rule):
        if op == block:  # the forward is kept, every gradient of the backward is 0.1% off
            return real_record(op, out, inputs, lambda g, ids: tuple(None if ig is None else 1.001 * ig for ig in rule(g, ids)))
        return real_record(op, out, inputs, rule)

    monkeypatch.setattr(numeric, "_record", record)
    assert run("selftest", "--seed", "0") == 1
    assert "FAIL gradient_ops" in capsys.readouterr().out
    _, failures = checks.gradient_ops(np.random.default_rng(0))
    blocks = {re.match(r"[a-z_]+", message).group() for message in failures}
    assert failures and blocks == {block}, failures


def test_selftest_negative_seed_exits_2():
    code, err = run_captured("selftest", "--seed", "-1")
    assert code == 2 and "Traceback" not in err, err
    assert err.startswith("error: selftest: --seed must be nonnegative")


def test_each_error_type_is_one_exit_code(monkeypatch):
    defined = {name for name, value in vars(errors).items() if isinstance(value, type) and issubclass(value, Exception)}
    assert defined == {"ContractError", "NumericError", "IntegrityError"}
    for error, code, prefix in ((errors.ContractError, 2, "error:"), (errors.NumericError, 3, "numeric divergence:"),
                                (errors.IntegrityError, 4, "checkpoint mismatch:")):
        def fail(args):
            raise error("raised by the command")

        monkeypatch.setattr(cli, "cmd_selftest", fail)
        assert run_captured("selftest") == (code, f"{prefix} raised by the command\n")


def test_train_zero_heads_exits_2(dataset, tmp_path, capsys):
    # the last --heads wins
    assert run("train", "--data", str(dataset), "--out", str(tmp_path / "ck"), *TRAIN_FLAGS, "--heads", "0") == 2
    assert "head" in capsys.readouterr().err


def test_eval_manifest_with_zero_heads_exits_4(dataset, checkpoint, tmp_path, capsys):
    ckpt = shutil.copytree(checkpoint, tmp_path / "ckpt")
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["config"]["num_heads"] = 0
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    assert run("eval", "--data", str(dataset), "--checkpoint", str(ckpt)) == 4
    assert capsys.readouterr().err.startswith("checkpoint mismatch")


@pytest.mark.parametrize("field", ["num_encoder_layers", "num_decoder_layers"])
def test_eval_manifest_with_a_huge_layer_count_exits_4(dataset, checkpoint, tmp_path, capsys, field):
    # refused by ModelConfig's layer cap, without walking 10**400 layers
    ckpt = shutil.copytree(checkpoint, tmp_path / "ckpt")
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["config"][field] = 10**400
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    assert run("eval", "--data", str(dataset), "--checkpoint", str(ckpt)) == 4
    err = capsys.readouterr().err
    assert err.startswith("checkpoint mismatch: bad config") and f"layer counts must lie in [0, {MAX_LAYERS}]" in err


def test_eval_manifest_whose_arena_overflows_int64_exits_4(dataset, tmp_path, capsys):
    # 2**59 queries make a layout of more than 2**64 entries; an int64 count
    # wraps to a small one, so weights.bin holds exactly that many zeros
    config = ModelConfig(num_queries=2**59)
    layout = training._layout(config)
    wrapped = sum(math.prod(shape) for _, shape in layout) % 2**64
    blob = bytes(8 * wrapped)
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    (ckpt / "weights.bin").write_bytes(blob)
    manifest = {"config": dataclasses.asdict(config), "tensors": [{"name": n, "shape": list(s)} for n, s in layout],
                "weights_sha256": hashlib.sha256(blob).hexdigest()}
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    assert run("eval", "--data", str(dataset), "--checkpoint", str(ckpt)) == 4
    err = capsys.readouterr().err
    assert err.startswith("checkpoint mismatch: weights.bin holds") and err.count("\n") == 1, err


def test_eval_of_a_per_projection_checkpoint_exits_4(dataset, checkpoint, tmp_path, capsys):
    # the layout before each attention sublayer stacked its projections lists the
    # same weights.bin bytes, so its sha256 still holds, as wq, wk, wv, wo [d, d]
    # and bq, bk, bv, bo [d]
    ckpt = shutil.copytree(checkpoint, tmp_path / "ckpt")
    manifest = json.loads((ckpt / "manifest.json").read_text())
    tensors = []
    for t in manifest["tensors"]:
        prefix, _, name = t["name"].rpartition(".")
        if prefix.endswith("attn") and name in ("w", "b"):
            tensors += [{"name": f"{prefix}.{name}{proj}", "shape": t["shape"][1:]} for proj in "qkvo"]
        else:
            tensors.append(t)
    manifest["tensors"] = tensors
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    assert run("eval", "--data", str(dataset), "--checkpoint", str(ckpt)) == 4
    assert capsys.readouterr().err == \
        "checkpoint mismatch: manifest tensor list does not match the model layout for its config\n"


def test_eval_undecodable_manifest_exits_4(dataset, checkpoint, tmp_path):
    ckpt = shutil.copytree(checkpoint, tmp_path / "ckpt")
    (ckpt / "manifest.json").write_bytes(b"\xff\xfe{")
    code, err = run_captured("eval", "--data", str(dataset), "--checkpoint", str(ckpt))
    assert code == 4 and "Traceback" not in err, err
    assert err.startswith("checkpoint mismatch: bad manifest.json")


@pytest.mark.parametrize("target, code", [("scene_00001.json", 2), ("catalog.json", 2), ("manifest.json", 4)])
def test_deeply_nested_json_exits_cleanly(dataset, checkpoint, tmp_path, target, code):
    # 200,000 nested arrays exceed the JSON decoder's recursion limit
    ds, ckpt = shutil.copytree(dataset, tmp_path / "ds"), shutil.copytree(checkpoint, tmp_path / "ckpt")
    ((ckpt if target == "manifest.json" else ds) / target).write_text("[" * 200_000 + "]" * 200_000)
    got, err = run_captured("eval", "--data", str(ds), "--checkpoint", str(ckpt))
    assert got == code and "Traceback" not in err and target in err, f"exit {got}: {err}"


def poison_weight(ckpt, index):
    """Set entry ``index`` of ``ckpt``'s weights.bin to NaN and commit the
    file in its manifest, as a writer other than ``save_checkpoint``, which
    refuses non-finite weights, could leave it; returns the manifest."""
    ckpt = Path(ckpt)
    weights = np.frombuffer((ckpt / "weights.bin").read_bytes(), dtype="<f8").copy()
    weights[index % weights.size] = np.nan
    (ckpt / "weights.bin").write_bytes(weights.tobytes())
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["weights_sha256"] = hashlib.sha256(weights.tobytes()).hexdigest()
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def test_eval_weights_holding_a_nan_exit_4(dataset, checkpoint, tmp_path, capsys):
    ckpt = shutil.copytree(checkpoint, tmp_path / "ckpt")
    manifest = poison_weight(ckpt, -1)
    assert run("eval", "--data", str(dataset), "--checkpoint", str(ckpt)) == 4
    assert f"non-finite values (first in {manifest['tensors'][-1]['name']})" in capsys.readouterr().err


def test_interrupted_resave_exits_4_at_load(dataset, checkpoint, tmp_path, monkeypatch, capsys):
    # a second train into an existing checkpoint dies between its weights and its manifest
    ckpt = shutil.copytree(checkpoint, tmp_path / "ckpt")
    real_replace = os.replace

    def replace(src, dst):
        if str(dst).endswith("manifest.json"):
            raise KeyboardInterrupt
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(KeyboardInterrupt):
        run("train", "--data", str(dataset), "--out", str(ckpt), *TRAIN_FLAGS, "--knn-k", "0", "--lr", "0.01")
    monkeypatch.undo()
    assert (ckpt / "weights.bin").read_bytes() != (checkpoint / "weights.bin").read_bytes()
    assert (ckpt / "manifest.json").read_bytes() == (checkpoint / "manifest.json").read_bytes()
    capsys.readouterr()
    for argv in (["eval", "--data", str(dataset)],
                 ["predict", "--image", str(dataset / "scene_00000.ppm"), "--out", str(tmp_path / "p")]):
        assert run(*argv, "--checkpoint", str(ckpt)) == 4
        assert capsys.readouterr().err == (f"checkpoint mismatch: weights.bin in {ckpt} is not the one its "
                                           "manifest.json commits (sha256 differs)\n")


@pytest.mark.parametrize("thresh", ["2", "0", "-0.5", "nan", "1.0000001"])
def test_eval_iou_threshold_outside_unit_interval_exits_2(dataset, checkpoint, capsys, thresh):
    assert run("eval", "--data", str(dataset), "--checkpoint", str(checkpoint), "--iou-thresh", thresh) == 2
    assert "--iou-thresh" in capsys.readouterr().err


def test_train_whose_matching_cost_overflows_exits_3(tmp_path, capsys):
    # legal loss weights whose product overflows the cost matrix: a numeric divergence, not an argument error
    ds, out = tmp_path / "ds", tmp_path / "ck"
    assert run("gen-data", "--seed", "1", "--count", "3", "--out", str(ds), "--img-size", "16",
               "--max-objects", "2") == 0
    capsys.readouterr()
    code = run("train", "--data", str(ds), "--out", str(out), "--epochs", "1", "--d-model", "8", "--heads", "2",
               "--enc-layers", "1", "--dec-layers", "1", "--queries", "4", "--lambda-iou", "1e308",
               "--lambda-l1", "1e308")
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("numeric divergence:") and "Traceback" not in err, err
    assert not out.exists()


def test_bad_arguments_exit_2():
    assert run("train", "--no-such-flag") == 2
    assert run() == 2


# ---------------------------------------------------------------------------
# fuzzing: corrupted annotations, manifests and flags end with a documented
# exit code and a one-line error, never a traceback

FUZZ_FLAGS = ["--epochs", "1", "--d-model", "8", "--heads", "2", "--enc-layers", "1",
              "--dec-layers", "1", "--queries", "4", "--seed", "0"]

# JSON values a corrupted field may hold: numbers around the valid ones,
# non-finite floats, an integer beyond float range, and values of the wrong type
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 20), st.floats(-2.0, 2.0),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, 10**400]),
    st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2), st.just({"a": 1}),
)
DROP = object()  # deletes the field instead of overwriting it


def run_captured(*argv):
    """Exit code and standard error of one command, as the console script
    would give them: an exception that escapes ``main`` prints a traceback
    and exits 1."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except Exception:
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def assert_clean_exit(code, err, allowed):
    """A documented exit code of the fuzzed boundary, and no traceback."""
    assert code in allowed and "Traceback" not in err, f"exit {code}: {err}"


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert run("gen-data", "--seed", "5", "--count", "2", "--out", str(root / "ds"), "--img-size", "16") == 0
    assert run("train", "--data", str(root / "ds"), "--out", str(root / "ckpt"), *FUZZ_FLAGS) == 0
    return root


def _corrupt(doc, path, value):
    """``doc`` with the field at ``path`` (keys and list indices) set to
    ``value`` or deleted; an empty path replaces the whole document."""
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


ANNOTATION_PATHS = [(), ("width",), ("objects",), ("objects", 0)] + [
    ("objects", 0, field) for field in ("class_id", "cx", "cy", "w", "h")
]


@given(st.sampled_from(ANNOTATION_PATHS), st.one_of(JUNK, st.just(DROP)), st.sampled_from(["train", "eval"]))
def test_fuzzed_annotation_exits_cleanly(fuzz_base, path, value, command):
    if value is DROP and not path:
        value = None
    with tempfile.TemporaryDirectory() as tmp:
        ds = shutil.copytree(fuzz_base / "ds", os.path.join(tmp, "ds"))
        target = os.path.join(ds, "scene_00001.json")
        with open(target) as fh:
            doc = _corrupt(json.load(fh), path, value)
        with open(target, "w") as fh:
            json.dump(doc, fh)
        if command == "train":
            argv = ["train", "--data", ds, "--out", os.path.join(tmp, "ck"), *FUZZ_FLAGS]
        else:
            argv = ["eval", "--data", ds, "--checkpoint", str(fuzz_base / "ckpt")]
        assert_clean_exit(*run_captured(*argv), allowed=(0, 2))


# paths under the manifest's config: the whole object, then each field
CONFIG_PATHS = [()] + [(f.name,) for f in dataclasses.fields(ModelConfig)]


@given(st.sampled_from(CONFIG_PATHS), st.one_of(JUNK, st.just(DROP), st.lists(st.integers(-8, 24), max_size=3)),
       st.integers(-1, 300))
@example(("catalog",), "abc", -1)  # tuple("abc") would pass as three class names
@example(("catalog",), [], -1)
@example(("catalog",), ["a", "a"], -1)
@example(("catalog",), [1], -1)
@example(("catalog",), None, -1)
@example(("knn_k",), DROP, -1)  # changes no tensor shape
@example((), [], -1)
@example((), {"a": 1}, -1)
def test_fuzzed_checkpoint_exits_cleanly(fuzz_base, path, value, nan_at):
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = shutil.copytree(fuzz_base / "ckpt", os.path.join(tmp, "ckpt"))
        if nan_at >= 0:  # also poison one weight, committed by the manifest
            poison_weight(ckpt, nan_at)
        manifest_path = os.path.join(ckpt, "manifest.json")
        with open(manifest_path) as fh:
            manifest = _corrupt(json.load(fh), ("config", *path), value)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        # only junk in one field other than the catalog may still load: no default fills a dropped
        # field, no junk catalog names the dataset's five classes, and no NaN weight loads
        may_load = path not in [(), ("catalog",)] and value is not DROP and nan_at < 0
        assert_clean_exit(*run_captured("eval", "--data", str(fuzz_base / "ds"), "--checkpoint", ckpt),
                          allowed=(0, 4) if may_load else (4,))


FLAGS = {
    "train": ["--lr", "--d-model", "--heads", "--enc-layers", "--dec-layers", "--queries", "--knn-k",
              "--lambda-iou", "--lambda-l1", "--null-weight", "--seed", "--epochs"],
    "eval": ["--iou-thresh"],
    "gen-data": ["--seed", "--count", "--img-size", "--max-objects", "--classes"],
}
FLAG_VALUES = st.sampled_from(["-1", "0", "1", "2", "3", "7", "nan", "inf", "-inf", "0.5", "x", "", ",a,a"])


@given(st.data())
def test_fuzzed_flags_exit_cleanly(fuzz_base, data):
    command = data.draw(st.sampled_from(sorted(FLAGS)))
    edits = data.draw(st.lists(st.tuples(st.sampled_from(FLAGS[command]), FLAG_VALUES), min_size=1, max_size=3))
    with tempfile.TemporaryDirectory() as tmp:
        if command == "train":
            argv = ["train", "--data", str(fuzz_base / "ds"), "--out", os.path.join(tmp, "ck"), *FUZZ_FLAGS]
        elif command == "eval":
            argv = ["eval", "--data", str(fuzz_base / "ds"), "--checkpoint", str(fuzz_base / "ckpt")]
        else:
            argv = ["gen-data", "--count", "1", "--img-size", "8", "--out", os.path.join(tmp, "ds")]
        for flag, value in edits:  # a repeated flag overrides the earlier one
            if flag in ("--epochs", "--count") and value == "7":
                value = "2"  # keep the run short
            argv += [flag, value]
        code, err = run_captured(*argv)
        assert_clean_exit(code, err, allowed=(0, 2, 3) if command == "train" else (0, 2))
        if command == "train" and code == 0:  # save refuses what load would refuse
            load_checkpoint(os.path.join(tmp, "ck"))
