"""Command-line entry point: gen-data, train, eval, predict, selftest.

Every command is deterministic given its flags. ``selftest`` runs the
``reldet.checks`` routines behind acceptance criteria A1-A3, A6 and A7 at
smaller sizes. Exit codes: 0 success, 1 selftest failure, 2 I/O or argument
error, 3 numeric divergence, 4 checkpoint mismatch.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import checks, evaluation
from .data import (
    SceneConfig,
    annotations_to_json,
    class_color,
    encode_json,
    encode_ppm,
    generate_scene,
    load_dataset,
    read_ppm,
    save_dataset,
    write_atomic,
)
from .errors import ContractError, IntegrityError, NumericError
from .geometry import Box, LossWeights
from .matching import DEFAULT_NULL_WEIGHT, GroundTruth
from .model import ModelConfig, forward
from .numeric import Tensor
from .training import DEFAULT_LR, load_checkpoint, save_checkpoint, train, write_log

# train's model flags, by dest, and the ModelConfig field each sets: ModelConfig()
# gives their defaults, and cmd_train builds the config from this table
_MODEL_FIELDS = {"d_model": "model_dim", "heads": "num_heads", "enc_layers": "num_encoder_layers",
                 "dec_layers": "num_decoder_layers", "queries": "num_queries", "knn_k": "knn_k", "seed": "seed"}


def _build_parser() -> argparse.ArgumentParser:
    """The five subcommands. Each default of a setting is read from the code
    that uses it (SceneConfig, ModelConfig, LossWeights and the lr, null weight
    and IoU constants); the literals here are the CLI's own."""
    parser = argparse.ArgumentParser(prog="reldet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    scene, model, loss = SceneConfig(), ModelConfig(), LossWeights()

    g = sub.add_parser("gen-data", help="write a synthetic scene dataset")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--count", type=int, default=20)
    g.add_argument("--out", required=True)
    g.add_argument("--img-size", type=int, default=scene.image_size[0])  # square images
    g.add_argument("--max-objects", type=int, default=scene.max_objects)
    g.add_argument("--classes", default=",".join(scene.catalog), help="comma-separated class names")
    g.set_defaults(run=cmd_gen_data)

    t = sub.add_parser("train", help="train a detector on a dataset directory")
    t.add_argument("--data", required=True)
    t.add_argument("--epochs", type=int, default=300)
    t.add_argument("--lr", type=float, default=DEFAULT_LR)
    t.add_argument("--d-model", type=int)
    t.add_argument("--heads", type=int)
    t.add_argument("--enc-layers", type=int)
    t.add_argument("--dec-layers", type=int)
    t.add_argument("--queries", type=int)
    t.add_argument("--knn-k", type=int)
    t.add_argument("--lambda-iou", type=float, default=loss.lambda_iou)
    t.add_argument("--lambda-l1", type=float, default=loss.lambda_l1)
    t.add_argument("--null-weight", type=float, default=DEFAULT_NULL_WEIGHT)
    t.add_argument("--seed", type=int)
    t.add_argument("--out", required=True, help="checkpoint directory")
    t.add_argument("--log", default=None, help="CSV loss log path (default: <out>/train_log.csv)")
    t.set_defaults(run=cmd_train, **{dest: getattr(model, field) for dest, field in _MODEL_FIELDS.items()})

    e = sub.add_parser("eval", help="score a checkpoint on a dataset")
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--iou-thresh", type=float, default=evaluation.DEFAULT_IOU_THRESH)
    e.add_argument("--json", default=None, help="also write the report as JSON to this path")
    e.set_defaults(run=cmd_eval)

    p = sub.add_parser("predict", help="run one image and render detections")
    p.add_argument("--image", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output prefix; writes <out>.json and <out>.ppm")
    p.set_defaults(run=cmd_predict)

    s = sub.add_parser("selftest", help="run the built-in verification suites")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(run=cmd_selftest)
    return parser


@contextmanager
def _directories_for_run(*directories: Path):
    """Make ``directories`` before the run, so a path that cannot be made
    fails before any work; if the run then fails, remove again the topmost
    directory of each that the run made, and nothing that was there before."""
    created = []
    try:
        for directory in directories:
            missing = [d for d in (directory, *directory.parents) if not d.exists()]
            created += missing[-1:]
            directory.mkdir(parents=True, exist_ok=True)
        yield
    except BaseException:
        for directory in created:
            shutil.rmtree(directory, ignore_errors=True)
        raise


def cmd_gen_data(args) -> int:
    if args.count <= 0:
        raise ContractError("gen-data: --count must be positive (nothing to generate)")
    if args.seed < 0:
        raise ContractError("gen-data: --seed must be nonnegative")
    catalog = tuple(name.strip() for name in args.classes.split(",") if name.strip())
    cfg = SceneConfig(image_size=(args.img_size, args.img_size), max_objects=args.max_objects, catalog=catalog)
    scenes = (generate_scene(args.seed + i, cfg) for i in range(args.count))
    with _directories_for_run(Path(args.out)):
        objects = save_dataset(scenes, args.out, catalog)
    print(f"wrote {args.count} scenes ({objects} objects, {len(catalog)} classes) to {args.out}")
    return 0


def cmd_train(args) -> int:
    if args.epochs < 1:
        raise ContractError("train: --epochs must be positive (nothing to train)")
    out = Path(args.out)
    log_path = Path(args.log) if args.log else out / "train_log.csv"
    with _directories_for_run(out, log_path.parent):
        scenes, catalog = load_dataset(args.data, max_objects=args.queries)
        h, w = scenes[0].image.shape[1:]
        config = ModelConfig(image_size=(h, w), catalog=tuple(catalog),
                             **{field: getattr(args, dest) for dest, field in _MODEL_FIELDS.items()})
        weights = LossWeights(args.lambda_iou, args.lambda_l1)
        params, rows = train(scenes, config, args.epochs, weights, args.null_weight, args.lr)
        save_checkpoint(out, params, config)
        write_log(rows, log_path)
    print(f"trained {args.epochs} epochs on {len(scenes)} scenes; "
          f"final loss {rows[-1].total:.4f}; checkpoint in {out}")
    return 0


def _check_image_size(config: ModelConfig, image, source: str) -> None:
    """IntegrityError (exit 4) unless ``image``'s size is the checkpoint's;
    ``source`` names where the image came from."""
    (h, w), (hc, wc) = image.shape[1:], config.image_size
    if (h, w) != (hc, wc):
        raise IntegrityError(f"{source}: images are {h}x{w} but the checkpoint expects {hc}x{wc}")


def cmd_eval(args) -> int:
    if not 0.0 < args.iou_thresh <= 1.0:
        raise ContractError(f"eval: --iou-thresh {args.iou_thresh} must lie in (0, 1]")
    with _directories_for_run(*([Path(args.json).parent] if args.json else [])):
        params, config = load_checkpoint(args.checkpoint)
        scenes, catalog = load_dataset(args.data)
        _check_image_size(config, scenes[0].image, f"dataset {args.data}")  # one size: load_dataset checks
        if tuple(catalog) != config.catalog:  # the class ids of both must name the same classes
            raise IntegrityError(f"dataset {args.data}: classes {', '.join(catalog)} but the checkpoint has "
                                 f"{', '.join(config.catalog)}")
        report = evaluation.evaluate_dataset(scenes, params, config, args.iou_thresh)
        print(report.to_table())
        if args.json:
            write_atomic(args.json, encode_json(report.to_json_dict()))
    return 0


def _draw_outline(img: np.ndarray, box: Box, color) -> None:
    h, w = img.shape[1:]
    x1, y1, x2, y2 = box.to_corners()
    c1 = min(max(int(round(x1 * w)), 0), w - 1)
    c2 = min(max(int(round(x2 * w)) - 1, 0), w - 1)
    r1 = min(max(int(round(y1 * h)), 0), h - 1)
    r2 = min(max(int(round(y2 * h)) - 1, 0), h - 1)
    for ch in range(3):
        img[ch, r1, c1 : c2 + 1] = color[ch]
        img[ch, r2, c1 : c2 + 1] = color[ch]
        img[ch, r1 : r2 + 1, c1] = color[ch]
        img[ch, r1 : r2 + 1, c2] = color[ch]


def cmd_predict(args) -> int:
    prefix = Path(args.out)
    json_path, ppm_path = prefix.with_name(prefix.name + ".json"), prefix.with_name(prefix.name + ".ppm")
    with _directories_for_run(prefix.parent):
        params, config = load_checkpoint(args.checkpoint)
        image = read_ppm(args.image)
        _check_image_size(config, image, f"image {args.image}")
        dets = evaluation.extract_detections(forward(Tensor(image), params, config))
        doc = annotations_to_json(Path(args.image).name, image, dets, config.catalog)
        for rec, d in zip(doc["objects"], dets):
            rec["confidence"] = d.confidence
        write_atomic(json_path, encode_json(doc))
        rendered = image.copy()
        for d in dets:
            _draw_outline(rendered, d.box, class_color(d.class_id))
        write_atomic(ppm_path, encode_ppm(rendered))
    print(f"{len(dets)} detections; wrote {json_path.name} and {ppm_path.name}")
    return 0


# ---------------------------------------------------------------------------
# selftest: the reldet.checks routines behind the acceptance criteria, at
# sizes that run in about a second


_TINY = ModelConfig(image_size=(16, 16), backbone_channels=4, model_dim=8, num_heads=2,
                    num_encoder_layers=1, num_decoder_layers=1, num_queries=5, catalog=("a", "b"),
                    knn_k=2, seed=0)

# (suite name, checks routine, sizes); every routine draws from one shared rng
SELFTEST_SUITES = (
    ("hungarian_vs_brute_force", checks.hungarian_oracle, {"max_n": 6, "trials_per_n": 30}),
    ("rectangular_vs_padded", checks.rectangular_oracle, {"max_n": 6, "trials_per_shape": 6}),
    ("gradient_ops", checks.gradient_ops, {}),
    ("gradient_end_to_end", checks.gradient_end_to_end,
     {"config": _TINY, "targets": [GroundTruth(0, Box(0.4, 0.4, 0.3, 0.3))], "samples": 3}),
    ("giou_invariants", checks.giou_invariants, {"pairs": 2000}),
    ("softmax_properties", checks.softmax_properties, {"trials": 300}),
    ("ap_oracle", checks.ap_oracle, {"fixtures": 100, "max_gt": 6, "max_detections": 9}),
    ("permutation_equivariance", checks.query_equivariance, {"config": _TINY, "trials": 5}),
)


def cmd_selftest(args) -> int:
    if args.seed < 0:
        raise ContractError("selftest: --seed must be nonnegative")
    rng = np.random.default_rng(args.seed)
    failed = 0
    for name, suite, sizes in SELFTEST_SUITES:
        count, failures = suite(rng, **sizes)
        if failures:
            failed += 1
            print(f"FAIL {name} ({count} checks): {failures[0]}")
        else:
            print(f"PASS {name} ({count} checks)")
    print(f"{len(SELFTEST_SUITES) - failed} suites passed, {failed} failed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # underflow stays ignored
            return args.run(args)
    except (ContractError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric divergence: {e}", file=sys.stderr)
        return 3
    except FloatingPointError as e:  # numpy's text, and the innermost function of this package that raised it
        codes = [frame.f_code for frame, _ in traceback.walk_tb(e.__traceback__)]
        code = [c for c in codes if Path(c.co_filename).parent == Path(__file__).parent][-1]
        print(f"numeric divergence: {e} in {Path(code.co_filename).stem}.{code.co_name}", file=sys.stderr)
        return 3
    except IntegrityError as e:
        print(f"checkpoint mismatch: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
