"""Optimization loop: forward, match, Hungarian loss, Adam; checkpoints.

The bipartite assignment is recomputed per step from detached prediction
values and held constant through backward. One scene per step keeps tape
memory trivial and makes runs bit-deterministic given (seed, dataset, config).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import numeric
from .data import Scene, _read_json, encode_json, write_atomic
from .errors import ContractError, IntegrityError, NumericError
from .geometry import LossWeights
from .matching import DEFAULT_NULL_WEIGHT, build_cost_matrix, hungarian, hungarian_loss_terms
from .model import ModelConfig, arena_of, arena_views, forward, init_params, param_spec
from .numeric import Tape, Tensor

# Adam's first- and second-moment decays and the floor added to its denominator
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
DEFAULT_LR = 1e-3  # Adam's learning rate unless train is given another


@dataclass
class OptimizerState:
    """Adam's learning rate, the shared step counter, and the first and
    second moments ``m``/``v`` as flat arrays over the parameter arena; the
    decays and the floor are the module constants ``BETA1``, ``BETA2`` and
    ``ADAM_EPS``.

    The moments are allocated at the first step, sized to the arena of the
    parameters it is given; the update's scratch is allocated per step.
    """

    lr: float = DEFAULT_LR
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def _first_non_finite(flat: np.ndarray, params: dict[str, Tensor], attr: str = "data") -> str | None:
    """The finiteness rule of Adam, save and load: None when ``flat``, which
    holds the values of every parameter's ``attr``, is finite (one pass),
    else the first parameter's name that holds a non-finite value."""
    if np.isfinite(flat).all():
        return None
    return next(n for n, p in params.items() if not np.isfinite(getattr(p, attr)).all())


@dataclass(frozen=True)
class TrainLogRow:
    epoch: int
    scene: int
    total: float
    cls: float
    box: float


def adam_step(params: dict[str, Tensor], state: OptimizerState) -> None:
    """Standard bias-corrected first/second-moment update from each
    parameter's ``grad``, in place.

    One pass over the whole parameter arena (``model.arena_of``) with
    ``out=`` ufuncs into two scratch rows allocated per step, so a step makes
    no other arena-sized temporaries. Every operation is elementwise, so the
    result is bit-identical to updating each tensor on its own with the
    expressions ``m += (1 - BETA1) * (g - m)``, ``v += (1 - BETA2) * (g * g - v)``,
    ``p -= lr * (m / bc1) / (sqrt(v / bc2) + ADAM_EPS)``; written that way the
    step was 6-8% slower end to end. A non-finite gradient raises NumericError
    naming the parameter (``_first_non_finite``), before anything is updated.
    """
    p = arena_of(params, "data")
    g = arena_of(params, "grad")
    if state.m is None:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
    name = _first_non_finite(g, params, "grad")
    if name is not None:
        raise NumericError(f"non-finite gradient for parameter {name}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    m, v = state.m, state.v
    a, b = np.empty((2, p.size))
    np.subtract(g, m, out=a)
    a *= 1.0 - BETA1
    m += a
    np.multiply(g, g, out=a)
    a -= v
    a *= 1.0 - BETA2
    v += a
    np.divide(v, bc2, out=a)
    np.sqrt(a, out=a)
    a += ADAM_EPS
    np.divide(m, bc1, out=b)
    b *= state.lr
    b /= a
    p -= b


def train_step(
    scene: Scene,
    params: dict[str, Tensor],
    state: OptimizerState,
    weights: LossWeights,
    null_weight: float,
    config: ModelConfig,
):
    """One optimization step on one scene; returns the loss breakdown. NumericError (divergence) moves no parameter."""
    with Tape():
        out = forward(scene.image, params, config)
        # matching runs on detached floats; sigma is a constant to the tape
        cost = build_cost_matrix(scene.objects, out.class_probs.data, out.boxes.data, weights)
        assign = hungarian(cost)
        parts = hungarian_loss_terms(scene.objects, out, assign, weights, null_weight)
    numeric.backward(parts.total)
    adam_step(params, state)
    return parts


def train(
    dataset: list[Scene],
    config: ModelConfig,
    epochs: int,
    weights: LossWeights = LossWeights(),
    null_weight: float = DEFAULT_NULL_WEIGHT,
    lr: float = DEFAULT_LR,
) -> tuple[dict[str, Tensor], list[TrainLogRow]]:
    """Train from a fresh init (seeded by ``config.seed``) over the dataset
    in order; deterministic. Returns the trained parameters and one loss row
    per step.

    Raises ContractError before the first step unless ``0 < lr < inf`` and
    ``0 <= null_weight < inf``: a NaN or infinite value, which could only
    end in non-finite weights, is refused as a negative one is.
    """
    if not (0 < lr < np.inf and 0 <= null_weight < np.inf):
        raise ContractError(f"train needs a finite positive learning rate and a finite nonnegative null weight, "
                            f"got lr {lr} and null weight {null_weight}")
    params = init_params(config)
    state = OptimizerState(lr=lr)
    rows: list[TrainLogRow] = []
    for epoch in range(epochs):
        for idx, scene in enumerate(dataset):
            parts = train_step(scene, params, state, weights, null_weight, config)
            rows.append(TrainLogRow(epoch, idx, float(parts.total.data), parts.cls, parts.box))
    return params, rows


def write_log(rows: list[TrainLogRow], path) -> None:
    """CSV loss log; floats via repr so reruns are byte-identical."""
    lines = ["epoch,scene,total,cls,box"]
    for r in rows:
        lines.append(f"{r.epoch},{r.scene},{r.total!r},{r.cls!r},{r.box!r}")
    write_atomic(path, ("\n".join(lines) + "\n").encode())


# ---------------------------------------------------------------------------
# checkpoints: weights.bin (little-endian float64) + manifest.json, the commit record


def _layout(config: ModelConfig) -> list[tuple[str, tuple]]:
    """The checkpoint's tensor list, (name, shape) in ``param_spec`` order: the
    one layout rule that save and load both check."""
    return [(name, shape) for name, shape, _ in param_spec(config)]


def save_checkpoint(ckpt_dir, params: dict[str, Tensor], config: ModelConfig) -> None:
    """Write ``weights.bin`` (each tensor as little-endian float64, in manifest
    order), then ``manifest.json``, each atomically: a save that fails part
    way leaves any earlier file of the same name whole and no temporary file.

    The manifest holds the config, class catalog included, the tensor list
    and the sha256 of ``weights.bin``. It is written last and commits the
    weights: after a save that fails between the two writes, the earlier
    manifest no longer vouches for the new weights, and ``load_checkpoint``
    refuses them.

    Before any directory is made: ContractError unless the names and shapes
    of ``params``, in dict order, are the layout of ``config`` that
    ``load_checkpoint`` checks, and NumericError naming the first tensor that
    holds a non-finite value, which ``load_checkpoint`` would refuse.
    """
    layout = _layout(config)
    if [(name, p.shape) for name, p in params.items()] != layout:
        raise ContractError("parameters do not match the model layout for the config they are saved with")
    blob = b"".join(p.data.astype("<f8", copy=False).tobytes() for p in params.values())
    name = _first_non_finite(np.frombuffer(blob, dtype="<f8"), params)
    if name is not None:
        raise NumericError(f"refusing to save non-finite weights (first in {name})")
    out = Path(ckpt_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"config": asdict(config), "tensors": [{"name": name, "shape": list(shape)} for name, shape in layout],
                "weights_sha256": hashlib.sha256(blob).hexdigest()}
    write_atomic(out / "weights.bin", blob)
    write_atomic(out / "manifest.json", encode_json(manifest))


def load_checkpoint(ckpt_dir) -> tuple[dict[str, Tensor], ModelConfig]:
    """Restore bit-identical tensors and their config; IntegrityError for a
    manifest config that is not an object of exactly ``ModelConfig``'s fields
    (no default fills one; JSON lists become tuples) or that ``ModelConfig``
    refuses, any other manifest inconsistency, a ``weights.bin`` whose sha256 is
    not the one the manifest records, or non-finite weights."""
    root = Path(ckpt_dir)
    try:
        manifest = _read_json(root / "manifest.json")
    except FileNotFoundError:
        raise IntegrityError(f"no manifest.json in {root}") from None
    except ContractError as e:
        raise IntegrityError(f"bad manifest.json in {root}: {e.__cause__}") from e
    try:
        d = manifest["config"]
        if not isinstance(d, dict):
            raise TypeError(f"config must be a JSON object, got a {type(d).__name__}")
        odd = d.keys() ^ {f.name for f in fields(ModelConfig)}
        if odd:
            raise KeyError(f"config must name every ModelConfig field and no other: {', '.join(sorted(odd))}")
        config = ModelConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})
        listed = [(t["name"], tuple(t["shape"])) for t in manifest["tensors"]]
        sha = manifest["weights_sha256"]
    except (KeyError, TypeError, ValueError) as e:
        raise IntegrityError(f"bad config or tensors in {root / 'manifest.json'}: {e!r}") from e
    expected = _layout(config)
    if listed != expected:
        raise IntegrityError("manifest tensor list does not match the model layout for its config")
    try:
        blob = (root / "weights.bin").read_bytes()
    except FileNotFoundError:
        raise IntegrityError(f"no weights.bin in {root}") from None
    total = sum(int(np.prod(shape)) for _, shape in expected)
    if len(blob) != total * 8:
        raise IntegrityError(f"weights.bin holds {len(blob)} bytes, expected {total * 8}")
    if hashlib.sha256(blob).hexdigest() != sha:
        raise IntegrityError(f"weights.bin in {root} is not the one its manifest.json commits (sha256 differs)")
    # one copy of the blob is the arena; the parameters are views of it
    arena = np.frombuffer(blob, dtype="<f8").copy()
    params = arena_views(expected, arena)
    name = _first_non_finite(arena, params)
    if name is not None:
        raise IntegrityError(f"weights.bin holds non-finite values (first in {name})")
    return params, config
