"""Optimization loop: forward, match, Hungarian loss, Adam; checkpoints.

The bipartite assignment is recomputed per step from detached prediction
values and held constant through backward. One scene per step keeps tape
memory trivial and makes runs bit-deterministic given (seed, dataset, config).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import numeric
from .data import Scene
from .errors import IntegrityError, NumericError
from .geometry import LossWeights
from .matching import build_cost_matrix, hungarian, hungarian_loss_terms, pad_targets
from .model import ModelConfig, forward, init_params, param_spec
from .numeric import Tape, Tensor


@dataclass
class OptimizerState:
    """Adam moments keyed by parameter name, plus the shared step counter."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TrainLogRow:
    epoch: int
    scene: int
    total: float
    cls: float
    box: float


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: OptimizerState):
    """Standard bias-corrected first/second-moment update, in place."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m += (1.0 - state.beta1) * (g - m)
        v += (1.0 - state.beta2) * (g * g - v)
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params, state


def train_step(
    scene: Scene,
    params: dict[str, Tensor],
    state: OptimizerState,
    weights: LossWeights,
    null_weight: float,
    config: ModelConfig,
):
    """One optimization step on one scene; returns the loss breakdown."""
    with Tape():
        out = forward(scene.image, params, config)
        if not (np.all(np.isfinite(out.class_probs.data)) and np.all(np.isfinite(out.boxes.data))):
            raise NumericError("non-finite model outputs (class probabilities or boxes)")
        # matching runs on detached floats; sigma is a constant to the tape
        gt_padded = pad_targets(scene.objects, config.num_queries)
        cost = build_cost_matrix(gt_padded, out.predictions, weights)
        assign = hungarian(cost)
        parts = hungarian_loss_terms(gt_padded, out, assign, weights, null_weight)
    numeric.backward(parts.total)
    grads = {name: p.grad for name, p in params.items()}
    adam_step(params, grads, state)
    return parts


def train(
    dataset: list[Scene],
    config: ModelConfig,
    epochs: int,
    weights: LossWeights = LossWeights(),
    null_weight: float = 0.1,
    lr: float = 1e-3,
    seed: int | None = None,
) -> tuple[dict[str, Tensor], OptimizerState, list[TrainLogRow]]:
    """Train from a fresh init over the dataset in order; deterministic."""
    params = init_params(config, seed)
    state = OptimizerState(lr=lr)
    rows: list[TrainLogRow] = []
    for epoch in range(epochs):
        for idx, scene in enumerate(dataset):
            parts = train_step(scene, params, state, weights, null_weight, config)
            total = float(parts.total.data)
            if not np.isfinite(total):
                raise NumericError(f"non-finite loss at epoch {epoch}, scene {idx}")
            rows.append(TrainLogRow(epoch, idx, total, parts.cls, parts.box))
    return params, state, rows


def write_log(rows: list[TrainLogRow], path) -> None:
    """CSV loss log; floats via repr so reruns are byte-identical."""
    lines = ["epoch,scene,total,cls,box"]
    for r in rows:
        lines.append(f"{r.epoch},{r.scene},{r.total!r},{r.cls!r},{r.box!r}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# checkpoints: manifest.json + weights.bin (little-endian float64)


def _config_to_dict(config: ModelConfig) -> dict:
    d = asdict(config)
    d["image_size"] = list(config.image_size)
    return d


def _config_from_dict(d: dict) -> ModelConfig:
    d = dict(d)
    d["image_size"] = tuple(d["image_size"])
    return ModelConfig(**d)


def save_checkpoint(ckpt_dir, params: dict[str, Tensor], config: ModelConfig) -> None:
    out = Path(ckpt_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": _config_to_dict(config),
        "tensors": [{"name": name, "shape": list(p.shape)} for name, p in params.items()],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    with open(out / "weights.bin", "wb") as fh:
        for p in params.values():
            fh.write(p.data.astype("<f8").tobytes())


def load_checkpoint(ckpt_dir) -> tuple[dict[str, Tensor], ModelConfig]:
    """Restore bit-identical tensors; any manifest inconsistency is an error."""
    root = Path(ckpt_dir)
    try:
        manifest = json.loads((root / "manifest.json").read_text())
    except FileNotFoundError:
        raise IntegrityError(f"no manifest.json in {root}") from None
    except json.JSONDecodeError as e:
        raise IntegrityError(f"bad manifest.json in {root}: {e}") from e
    try:
        config = _config_from_dict(manifest["config"])
        listed = [(t["name"], tuple(t["shape"])) for t in manifest["tensors"]]
    except (KeyError, TypeError, ValueError) as e:
        raise IntegrityError(f"bad config or tensors in {root / 'manifest.json'}: {e!r}") from e
    expected = [(name, tuple(shape)) for name, shape, _ in param_spec(config)]
    if listed != expected:
        raise IntegrityError("manifest tensor list does not match the model layout for its config")
    try:
        blob = (root / "weights.bin").read_bytes()
    except FileNotFoundError:
        raise IntegrityError(f"no weights.bin in {root}") from None
    total = sum(int(np.prod(shape)) for _, shape in expected)
    if len(blob) != total * 8:
        raise IntegrityError(f"weights.bin holds {len(blob)} bytes, expected {total * 8}")
    flat = np.frombuffer(blob, dtype="<f8")
    params: dict[str, Tensor] = {}
    offset = 0
    for name, shape in expected:
        size = int(np.prod(shape))
        params[name] = Tensor(flat[offset : offset + size].reshape(shape).copy(), requires_grad=True)
        offset += size
    return params, config
