"""The detector forward pass: conv backbone, encoder, two-pass decoder, heads.

A backbone of three stride-2 3x3 conv + ReLU stages, one ``numeric.backbone``
record, hands its last map's pixels as rows to a 1x1 channel reduction that
turns them into encoder tokens, and a transformer encoder/decoder transforms
N learned query embeddings into N predictions. The decoder runs in two
passes: a standard stack and the box head decode preliminary boxes, a kNN
graph over their centers mixes each query's features with its neighbors'
(one ``numeric.relation`` record), and one further decoder layer refines the
relation-fixed embeddings before the prediction heads.

Encoder and decoder layers are post-norm, each sublayer ``LN(x +
Sublayer(x))`` one tape record: a ``numeric.attention_block``, which adds the
positional encodings to queries and keys, never to values, and runs every
head (column blocks of width d / num_heads; per head softmax(Q K^T /
sqrt(d / num_heads)) V, batched over heads), or a ``numeric.ffn_block``. The
box head is one ``numeric.mlp`` ending in a sigmoid, the class head one
ending in a softmax. The encoder's encodings are computed once per token
count and width and shared read-only; the decoder's are its learned query
embeddings. So the first decoder layer's self-attention reads those
embeddings alone and depends on parameters only: a tape-less forward takes
its output from a one-entry cache, shared read-only, keyed by the head count
and the shapes and bytes of the query embeddings and of that sublayer's eight
projection tensors. Any changed byte, an in-place edit or a rebound tensor
alike, recomputes it. A forward under a tape bypasses the cache, because its
record must be on the tape for gradients to reach those parameters.

Parameters live in an ordered name -> Tensor dict whose tensors are views
into one C-contiguous float64 buffer, the parameter arena, laid out in
``param_spec`` order; their ``grad`` arrays are views into a matching
gradient buffer. Adam works on the two buffers whole (``arena_of``). A
checkpoint does not read the arena: it writes the tensors one after another
in ``param_spec`` order, which save and load both check. The config names
the classes the heads score (``catalog``; ``num_classes`` is its length),
so a checkpoint's manifest carries the class names with the rest of the
config. Rebinding a dict
entry to a fresh Tensor takes that parameter out of the arena: a forward
(such as the query permutation in ``checks.equivariance_deviations``) or a
save accepts it, ``arena_of`` and so Adam refuses it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import numeric
from .data import SceneConfig, check_catalog, check_image_size
from .errors import CapacityError, ContractError, NumericError, ShapeError
from .numeric import Tensor
from .relation import aggregate, build_knn_graph

_FFN_MULT = 2  # feed-forward hidden width, in units of model_dim

# The most encoder or decoder layers a config may ask for. ``param_spec`` lists
# each layer's tensors one by one, so a count such as 10**400 would grow that
# list until memory ran out; 1024 layers, like ``data.MAX_OBJECTS`` objects,
# already cost seconds per training step.
MAX_LAYERS = 1024


@dataclass(frozen=True)
class ModelConfig:
    image_size: tuple[int, int] = SceneConfig().image_size
    backbone_channels: int = 16
    model_dim: int = 32
    num_heads: int = 4
    num_encoder_layers: int = 2
    num_decoder_layers: int = 2  # first decode pass; the relation refine pass adds one more layer
    num_queries: int = 16
    catalog: tuple[str, ...] = SceneConfig().catalog  # the class names, in class id order
    knn_k: int = 3
    seed: int = 3

    def __post_init__(self):
        """The one validation of a model config, for ``train``'s flags and for
        checkpoint manifests alike; raises ContractError."""
        check_image_size(self.image_size)
        if any(type(getattr(self, f.name)) is not int for f in fields(self) if f.name not in ("image_size", "catalog")):
            raise ContractError(f"model config fields must be integers: {self}")
        check_catalog(self.catalog)
        if self.num_heads < 1:
            raise ContractError(f"need at least one attention head, got {self.num_heads}")
        if self.model_dim < 2 or self.model_dim % 2:
            raise ContractError(f"model_dim {self.model_dim} must be positive and even (sin/cos encodings)")
        if self.model_dim % self.num_heads:
            raise ContractError(f"model_dim {self.model_dim} not divisible by {self.num_heads} heads")
        if self.backbone_channels < 1:
            raise ContractError("need at least one backbone channel")
        if not (0 <= self.num_encoder_layers <= MAX_LAYERS and 0 <= self.num_decoder_layers <= MAX_LAYERS):
            raise ContractError(f"layer counts must lie in [0, {MAX_LAYERS}], got {self.num_encoder_layers} encoder "
                                f"and {self.num_decoder_layers} decoder layers")
        if self.num_queries < 1:
            raise ContractError("need at least one query")
        if self.knn_k < 0 or self.seed < 0:
            raise ContractError("knn_k and seed must be nonnegative")

    @property
    def num_classes(self) -> int:
        return len(self.catalog)

    @property
    def num_tokens(self) -> int:
        return (self.image_size[0] // 8) * (self.image_size[1] // 8)


@dataclass
class DetectionOutput:
    """N decoded slots: class probabilities [N, K+1] and boxes [N, 4], on tape."""

    class_probs: Tensor
    boxes: Tensor


_ATTN_PROJ = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")  # the order numeric.attention_block takes them in
_FFN_LAYERS = ("w1", "b1", "w2", "b2")
_BOX_LAYERS = ("w0", "b0", "w1", "b1", "w2", "b2")
_BACKBONE_LAYERS = tuple(f"conv{stage}.{name}" for stage in range(3) for name in ("weight", "bias"))


@lru_cache(maxsize=64)
def _param_getter(prefix: str, names: tuple) -> operator.itemgetter:
    """Reads the parameters ``prefix.name`` for ``names``, in order, from a parameter dict as a tuple."""
    return operator.itemgetter(*(f"{prefix}.{name}" for name in names))


def _attention_param_names(prefix: str, d: int):
    for proj in ("wq", "wk", "wv", "wo"):
        yield f"{prefix}.{proj}", (d, d), d
    for bias in ("bq", "bk", "bv", "bo"):
        yield f"{prefix}.{bias}", (d,), None


def _ffn_param_names(prefix: str, d: int):
    hidden = _FFN_MULT * d
    yield f"{prefix}.w1", (d, hidden), d
    yield f"{prefix}.b1", (hidden,), None
    yield f"{prefix}.w2", (hidden, d), hidden
    yield f"{prefix}.b2", (d,), None


def param_spec(config: ModelConfig):
    """Canonical (name, shape, fan_in) list; fan_in None means zero-init bias.

    Checkpoints and optimizer state follow this exact order.
    """
    c, d, k = config.backbone_channels, config.model_dim, config.num_classes
    spec: list[tuple[str, tuple, object]] = []
    in_ch = 3
    for stage in range(3):
        spec.append((f"backbone.conv{stage}.weight", (in_ch * 9, c), in_ch * 9))
        spec.append((f"backbone.conv{stage}.bias", (c,), None))
        in_ch = c
    spec.append(("reduce.weight", (c, d), c))
    spec.append(("reduce.bias", (d,), None))
    for layer in range(config.num_encoder_layers):
        spec.extend(_attention_param_names(f"encoder.{layer}.attn", d))
        spec.extend(_ffn_param_names(f"encoder.{layer}.ffn", d))
    for layer in range(config.num_decoder_layers):
        spec.extend(_attention_param_names(f"decoder.{layer}.self_attn", d))
        spec.extend(_attention_param_names(f"decoder.{layer}.cross_attn", d))
        spec.extend(_ffn_param_names(f"decoder.{layer}.ffn", d))
    spec.extend(_attention_param_names("refine.0.self_attn", d))
    spec.extend(_attention_param_names("refine.0.cross_attn", d))
    spec.extend(_ffn_param_names("refine.0.ffn", d))
    spec.append(("query_embed", (config.num_queries, d), "query"))
    spec.append(("relation.weight", (d, 2 * d), 2 * d))
    spec.append(("relation.bias", (d,), None))
    spec.append(("class_head.weight", (d, k + 1), d))
    spec.append(("class_head.bias", (k + 1,), None))
    for i, (w_shape, fan) in enumerate((((d, d), d), ((d, d), d), ((d, 4), d))):
        spec.append((f"box_head.w{i}", w_shape, fan))
        spec.append((f"box_head.b{i}", (w_shape[1],), None))
    return spec


def arena_views(layout, flat: np.ndarray) -> dict[str, Tensor]:
    """Name -> requires_grad Tensor views of consecutive blocks of ``flat``.

    ``layout`` lists (name, shape) in arena order; ``flat`` must be a 1-d
    float64 array that owns its memory and holds exactly the layout's
    entries. Each tensor's ``grad`` is the matching view of a fresh zeroed
    gradient buffer of the same size.
    """
    if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64 and flat.ndim == 1 and flat.base is None):
        raise ContractError("a parameter arena must be a 1-d float64 array owning its memory")
    sizes = [math.prod(shape) for _, shape in layout]
    if sum(sizes) != flat.size:
        raise ContractError(f"parameter arena holds {flat.size} entries, layout needs {sum(sizes)}")
    grad = np.zeros_like(flat)
    params: dict[str, Tensor] = {}
    offset = 0
    for (name, shape), size in zip(layout, sizes):
        block = slice(offset, offset + size)
        p = Tensor(flat[block].reshape(shape), requires_grad=True)
        p.grad = grad[block].reshape(shape)
        params[name] = p
        offset += size
    return params


def arena_of(params: dict[str, Tensor], attr: str = "data") -> np.ndarray:
    """The one buffer that every parameter's ``attr`` ("data" or "grad") views.

    Raises ContractError when some parameter's array is not a view of it (a
    rebound entry, say) or the buffer holds entries no parameter covers.
    Order is not checked: ``arena_views`` makes the only views, in dict order.
    """
    arena = getattr(next(iter(params.values())), attr)
    arena = None if arena is None else arena.base
    size = 0
    for name, p in params.items():
        a = getattr(p, attr)
        if a is None or a.base is not arena:
            raise ContractError(f"{attr} of parameter {name} is not a view of the parameter arena")
        size += a.size
    if arena is None or arena.size != size:
        raise ContractError("parameter arena holds entries that no parameter views")
    return arena


def init_params(config: ModelConfig) -> dict[str, Tensor]:
    """Deterministic init from ``config.seed``: affine weights uniform
    +-1/sqrt(fan_in), biases zero, query embeddings 0.02 * standard normal;
    views into one fresh arena."""
    rng = np.random.default_rng(config.seed)
    spec = param_spec(config)
    size = sum(math.prod(shape) for _, shape, _ in spec)
    try:
        arena = np.zeros(size)
    except (MemoryError, ValueError) as e:  # ValueError: more entries or bytes than one array can address
        raise CapacityError(f"the model's {size} parameters do not fit in memory ({e})") from e
    params = arena_views([(name, shape) for name, shape, _ in spec], arena)
    for name, shape, fan in spec:
        if fan == "query":
            params[name].data[...] = 0.02 * rng.standard_normal(shape)
        elif fan is not None:
            bound = 1.0 / math.sqrt(fan)
            params[name].data[...] = rng.uniform(-bound, bound, shape)
    return params


# ---------------------------------------------------------------------------
# stages


def backbone_forward(image: Tensor, params, config: ModelConfig) -> Tensor:
    """Three stride-2 3x3 conv + ReLU stages of a [3, H, W] image, one record:
    the [C, H/8, W/8] map's pixels as [H/8 * W/8, C] rows, in row-major order."""
    if image.shape != (3, *config.image_size):
        raise ShapeError(f"image shape {image.shape} does not match configured {(3, *config.image_size)}")
    return numeric.backbone(image, _param_getter("backbone", _BACKBONE_LAYERS)(params))


def channel_reduce(pixels: Tensor, params) -> Tensor:
    """Per-pixel affine map C -> d (a 1x1 convolution) of [H'W', C] pixel
    rows into the encoder tokens [H'W', d]."""
    return numeric.mlp(pixels, (params["reduce.weight"], params["reduce.bias"]))


def sinusoidal_pe(num_positions: int, d: int) -> Tensor:
    """Fixed sin/cos positional encodings over a flat position index, as a
    constant tensor over the read-only table that ``_pe_table`` shares."""
    return Tensor(_pe_table(num_positions, d))


@lru_cache(maxsize=16)
def _pe_table(num_positions: int, d: int) -> np.ndarray:
    if d % 2:
        raise ContractError(f"positional encoding width must be even, got {d}")
    pos = np.arange(num_positions)[:, None]
    i = np.arange(d // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d)
    pe = np.empty((num_positions, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    pe.flags.writeable = False
    return pe


def _encoder_layer(x: Tensor, pe: Tensor, params, prefix: str, heads: int) -> Tensor:
    x = numeric.attention_block(x, pe, x, pe, _param_getter(f"{prefix}.attn", _ATTN_PROJ)(params), heads)
    return numeric.ffn_block(x, _param_getter(f"{prefix}.ffn", _FFN_LAYERS)(params))


def encoder_forward(tokens: Tensor, pe: Tensor, params, config: ModelConfig) -> Tensor:
    x = tokens
    for layer in range(config.num_encoder_layers):
        x = _encoder_layer(x, pe, params, f"encoder.{layer}", config.num_heads)
    return x


# The last tape-less self-attention over the query embeddings alone: (key, read-only output).
# One tuple, read and replaced whole, so forwards in two threads at worst recompute it.
_query_attention_entry: tuple = (None, None)


def _query_attention(queries: Tensor, proj, heads: int) -> Tensor:
    """``attention_block(queries, queries, queries, queries, proj, heads)``
    for a tape-less forward, reused while ``heads`` and the shape and bytes
    of the queries and of every tensor in ``proj`` stay those of the last
    call; any other value recomputes it and replaces the entry."""
    global _query_attention_entry
    key = (heads, *[(t.data.shape, t.data.tobytes()) for t in (queries, *proj)])
    cached_key, y = _query_attention_entry
    if key != cached_key:
        y = numeric.attention_block(queries, queries, queries, queries, proj, heads).data
        y.flags.writeable = False
        _query_attention_entry = key, y
    return Tensor(y)


def _decoder_layer(x: Tensor, qe: Tensor, memory: Tensor, mem_pe: Tensor, params, prefix: str, heads: int) -> Tensor:
    proj = _param_getter(f"{prefix}.self_attn", _ATTN_PROJ)(params)
    if x is qe and numeric.Tape.active is None:  # the layer reads the queries alone: parameters only
        x = _query_attention(qe, proj, heads)
    else:
        x = numeric.attention_block(x, qe, x, qe, proj, heads)
    x = numeric.attention_block(x, qe, memory, mem_pe, _param_getter(f"{prefix}.cross_attn", _ATTN_PROJ)(params), heads)
    return numeric.ffn_block(x, _param_getter(f"{prefix}.ffn", _FFN_LAYERS)(params))


def decode_stack(x: Tensor, queries: Tensor, memory: Tensor, mem_pe: Tensor, params, prefixes, heads: int) -> Tensor:
    for prefix in prefixes:
        x = _decoder_layer(x, queries, memory, mem_pe, params, prefix, heads)
    return x


def decoder_forward(memory: Tensor, queries: Tensor, pe: Tensor, params, config: ModelConfig):
    """Two-pass decode: standard stack, relation fix-up, one refining layer.

    Returns (final embeddings [N, d], preliminary boxes [N, 4]). The first
    pass runs only the box head, with the tape suspended: its centers build
    the kNN graph as plain structure, so no gradient flows through them and
    the preliminary boxes are a constant.
    """
    x0 = queries
    prefixes = [f"decoder.{layer}" for layer in range(config.num_decoder_layers)]
    x1 = decode_stack(x0, queries, memory, pe, params, prefixes, config.num_heads)
    with numeric.tape_suspended():
        prelim_boxes = box_head(x1, params)
    graph = build_knn_graph(prelim_boxes.data[:, :2], config.knn_k)
    fixed = aggregate(x1, graph, params["relation.weight"], params["relation.bias"])
    x2 = decode_stack(fixed, queries, memory, pe, params, ["refine.0"], config.num_heads)
    return x2, prelim_boxes


def box_head(embeddings: Tensor, params) -> Tensor:
    """3-layer MLP with hidden width d, sigmoid into (0, 1)^4."""
    return numeric.mlp(embeddings, _param_getter("box_head", _BOX_LAYERS)(params), "sigmoid")


def predict_heads(embeddings: Tensor, params) -> DetectionOutput:
    """Class head: one affine map to K+1 logits and their softmax (last class
    = no object), one record; then ``box_head``."""
    probs = numeric.mlp(embeddings, (params["class_head.weight"], params["class_head.bias"]), "softmax")
    return DetectionOutput(probs, box_head(embeddings, params))


def forward(image: Tensor, params, config: ModelConfig) -> DetectionOutput:
    """Full pipeline; deterministic given (image, params, config); NumericError on a non-finite output, taped or not."""
    tokens = channel_reduce(backbone_forward(image, params, config), params)
    pe = sinusoidal_pe(config.num_tokens, config.model_dim)
    memory = encoder_forward(tokens, pe, params, config)
    embeddings, _ = decoder_forward(memory, params["query_embed"], pe, params, config)
    out = predict_heads(embeddings, params)
    if not (np.isfinite(out.class_probs.data).all() and np.isfinite(out.boxes.data).all()):
        raise NumericError("non-finite model outputs (class probabilities or boxes)")
    return out
