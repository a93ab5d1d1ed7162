"""The computations the fused primitives replace, kept as test oracles.

- the elementwise tape primitives the set loss, the positional adds and the
  residual layer norms used to be built from (``add`` and ``mul``, ``sub``,
  ``div``, ``maximum`` and ``minimum``, each over two tensors of one shape or
  a tensor and a python scalar, and ``neg``, ``absolute``, ``log``,
  ``sum_all``, ``mean``, ``layer_norm``, ``narrow``, ``take_rows``,
  ``take_pairs``), each with its own backward rule, and the generic ones the
  backbone, the relation step and the class head were glued from: ``relu``,
  ``softmax``, ``matmul``, ``transpose``, ``reshape`` and ``concat``;
- ``hungarian_loss_chain``: the set loss as a chain of those ops (55 tape
  records on a 5-object scene); ``numeric.set_loss`` must equal it bit for
  bit, forward and backward. ``add_layer_norm_chain`` is the residual layer
  norm ``layer_norm(add(x, r))``;
- ``linear``, the affine tape primitive the model used before a one-layer
  ``numeric.mlp`` took its place: ``x @ w + b[None, :]`` with the backward
  ``(g @ w.T, x.T @ g, np.add.reduce(g, axis=0))``, each gradient skipped
  for an input without a node id. The chains below are built from it, so
  they do not depend on ``numeric.mlp``;
- ``im2col``, the general unfold the backbone used first, with its nine
  strided slice copies and its backward's nine strided ``+=`` fold;
  ``conv3x3_chain``, a backbone stage as
  ``reshape(transpose(linear(im2col(x, 3, 2, 1), w, b)))``; and ``conv3x3``,
  the stage as one record, a gather and an ordered ``bincount``
  scatter-add, which must equal ``conv3x3_chain`` bit for bit;
- ``backbone_chain``, the backbone as the model recorded it before
  ``numeric.backbone``: ``relu(conv3x3(.))`` per stage, then the reshape and
  transpose of the last map into ``pixel_rows``, and ``relation_chain``, the
  relation step before ``numeric.relation``: ``matmul``, ``concat``,
  ``transpose`` of the weight, ``linear`` and ``relu``. The two ops must
  equal them bit for bit, forward and backward;
- scalar ``iou``/``giou``/``box_loss`` over ``Box`` values, the oracle for
  ``geometry.box_pairs``, and ``from_corners``, a ``Box`` from its corners;
- ``sigmoid`` and ``attention``, the tape primitives the transformer was
  built from before its fused ops: ``sigmoid`` by boolean-mask indexing,
  ``attention`` over projected queries, keys and values with an
  out-of-place max-shifted softmax. ``mha_chain`` is four ``linear`` around
  ``attention``, and ``mlp_chain`` is ``linear`` and ``relu``, then
  ``sigmoid``, ``softmax`` or nothing; ``numeric.mlp`` must equal the latter
  bit for bit, forward and backward;
- ``attention_block_chain`` and ``ffn_block_chain``, the post-norm
  transformer sublayers as the model recorded them before
  ``numeric.attention_block`` and ``numeric.ffn_block``: the positional
  ``add``s, ``mha_chain`` or ``mlp_chain``, then ``add_layer_norm_chain``.
  The two ops must equal them bit for bit, forward and backward.
"""

import math

import numpy as np

from reldet.errors import ContractError, DomainError, ShapeError
from reldet.geometry import Box, LossWeights
from reldet.matching import LossBreakdown
from reldet.numeric import (Tensor, _affine, _affine_grads, _conv3x3_indices, _record, _softmax, _softmax_grad,
                            _tensor_args)

_TINY = 1e-12


def _tensor_arg(x, op: str) -> Tensor:
    return _tensor_args(op, x)[0]


def _as_pair(a, b, op: str):
    at, bt = isinstance(a, Tensor), isinstance(b, Tensor)
    if at and bt:
        if a.data.shape != b.data.shape:
            raise ShapeError(
                f"{op}: shapes {a.data.shape} and {b.data.shape} differ "
                "(only exact-shape tensors or a python scalar are supported)"
            )
        return a, b, a.data, b.data
    if at and isinstance(b, (int, float, np.floating, np.integer)):
        return a, None, a.data, float(b)
    if bt and isinstance(a, (int, float, np.floating, np.integer)):
        return None, b, float(a), b.data
    raise ContractError(f"{op}: expected Tensor operands, got {type(a).__name__} and {type(b).__name__}")


def add(a, b) -> Tensor:
    ta, tb, da, db = _as_pair(a, b, "add")
    out = Tensor(da + db)
    if ta is not None and tb is not None:
        return _record("add", out, (ta, tb), lambda g, ids: (
            g if ids[0] is not None else None, g if ids[1] is not None else None))
    return _record("add", out, (ta if ta is not None else tb,), lambda g, ids: (g,))


def mul(a, b) -> Tensor:
    ta, tb, da, db = _as_pair(a, b, "mul")
    out = Tensor(da * db)
    if ta is not None and tb is not None:
        return _record("mul", out, (ta, tb), lambda g, ids: (
            g * db if ids[0] is not None else None, g * da if ids[1] is not None else None))
    if ta is not None:
        return _record("mul", out, (ta,), lambda g, ids: (g * db,))
    return _record("mul", out, (tb,), lambda g, ids: (g * da,))


def sub(a, b) -> Tensor:
    ta, tb, da, db = _as_pair(a, b, "sub")
    out = Tensor(da - db)
    if ta is not None and tb is not None:
        return _record("sub", out, (ta, tb), lambda g, ids: (
            g if ids[0] is not None else None, -g if ids[1] is not None else None))
    if ta is not None:
        return _record("sub", out, (ta,), lambda g, ids: (g,))
    return _record("sub", out, (tb,), lambda g, ids: (-g,))


def div(a, b) -> Tensor:
    ta, tb, da, db = _as_pair(a, b, "div")
    out = Tensor(da / db)
    if ta is not None and tb is not None:
        return _record("div", out, (ta, tb), lambda g, ids: (
            g / db if ids[0] is not None else None, -g * da / (db * db) if ids[1] is not None else None))
    if ta is not None:
        return _record("div", out, (ta,), lambda g, ids: (g / db,))
    return _record("div", out, (tb,), lambda g, ids: (-g * da / (db * db),))


def maximum(a, b) -> Tensor:
    """Elementwise max; ties route the gradient to the first operand."""
    ta, tb, da, db = _as_pair(a, b, "maximum")
    out = Tensor(np.maximum(da, db))
    mask = da >= db
    if ta is not None and tb is not None:
        return _record("maximum", out, (ta, tb), lambda g, ids: (
            g * mask if ids[0] is not None else None, g * ~mask if ids[1] is not None else None))
    if ta is not None:
        return _record("maximum", out, (ta,), lambda g, ids: (g * mask,))
    return _record("maximum", out, (tb,), lambda g, ids: (g * ~mask,))


def minimum(a, b) -> Tensor:
    """Elementwise min; ties route the gradient to the first operand."""
    ta, tb, da, db = _as_pair(a, b, "minimum")
    out = Tensor(np.minimum(da, db))
    mask = da <= db
    if ta is not None and tb is not None:
        return _record("minimum", out, (ta, tb), lambda g, ids: (
            g * mask if ids[0] is not None else None, g * ~mask if ids[1] is not None else None))
    if ta is not None:
        return _record("minimum", out, (ta,), lambda g, ids: (g * mask,))
    return _record("minimum", out, (tb,), lambda g, ids: (g * ~mask,))


def neg(x: Tensor) -> Tensor:
    x = _tensor_arg(x, "neg")
    return _record("neg", Tensor(-x.data), (x,), lambda g, ids: (-g,))


def absolute(x: Tensor) -> Tensor:
    """|x| with subgradient sign(x), 0 at the kink."""
    x = _tensor_arg(x, "absolute")
    s = np.sign(x.data)
    return _record("absolute", Tensor(np.abs(x.data)), (x,), lambda g, ids: (g * s,))


def log(x: Tensor) -> Tensor:
    x = _tensor_arg(x, "log")
    if np.any(x.data <= 0):
        raise DomainError(f"log of non-positive value (min entry {x.data.min()!r})")
    d = x.data
    return _record("log", Tensor(np.log(d)), (x,), lambda g, ids: (g / d,))


def sum_all(x: Tensor) -> Tensor:
    x = _tensor_arg(x, "sum_all")
    shape = x.data.shape
    out = Tensor(x.data.sum())
    return _record("sum_all", out, (x,), lambda g, ids: (np.full(shape, float(g)),))


def mean(x: Tensor) -> Tensor:
    x = _tensor_arg(x, "mean")
    shape, size = x.data.shape, x.data.size
    out = Tensor(x.data.mean())
    return _record("mean", out, (x,), lambda g, ids: (np.full(shape, float(g) / size),))


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to zero mean, unit variance (no affine)."""
    x = _tensor_arg(x, "layer_norm")
    if x.data.ndim < 1:
        raise ShapeError("layer_norm needs rank >= 1")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv

    def bwd(g, ids):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - y * gym),)

    return _record("layer_norm", Tensor(y), (x,), bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along ``axis``."""
    x = _tensor_arg(x, "narrow")
    rank = x.data.ndim
    if not -rank <= axis < rank:
        raise ShapeError(f"narrow axis {axis} out of range for rank {rank}")
    axis = axis % rank
    dim = x.data.shape[axis]
    if start < 0 or length < 0 or start + length > dim:
        raise ShapeError(f"narrow [{start}:{start + length}] on axis {axis} exceeds extent {dim}")
    sl = [slice(None)] * rank
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    shape = x.data.shape
    out = Tensor(x.data[sl].copy())

    def bwd(g, ids):
        z = np.zeros(shape)
        z[sl] = g
        return (z,)

    return _record("narrow", out, (x,), bwd)


def take_rows(x: Tensor, rows) -> Tensor:
    """Gather rows of a matrix by index; backward scatter-adds."""
    x = _tensor_arg(x, "take_rows")
    if x.data.ndim != 2:
        raise ShapeError(f"take_rows needs a rank-2 tensor, got shape {x.data.shape}")
    idx = np.asarray(rows, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("take_rows needs a 1-d index list")
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise ShapeError(f"take_rows index out of range for {x.data.shape[0]} rows")
    shape = x.data.shape
    out = Tensor(x.data[idx])

    def bwd(g, ids):
        z = np.zeros(shape)
        np.add.at(z, idx, g)
        return (z,)

    return _record("take_rows", out, (x,), bwd)


def take_pairs(x: Tensor, rows, cols) -> Tensor:
    """Gather entries x[rows[i], cols[i]] into a vector; backward scatter-adds."""
    x = _tensor_arg(x, "take_pairs")
    if x.data.ndim != 2:
        raise ShapeError(f"take_pairs needs a rank-2 tensor, got shape {x.data.shape}")
    ri = np.asarray(rows, dtype=np.intp)
    ci = np.asarray(cols, dtype=np.intp)
    if ri.shape != ci.shape or ri.ndim != 1:
        raise ShapeError("take_pairs needs matching 1-d row and column index lists")
    m, n = x.data.shape
    if ri.size and (ri.min() < 0 or ri.max() >= m or ci.min() < -1 or ci.max() >= n):
        raise ShapeError(f"take_pairs index out of range for shape {x.data.shape}")
    shape = x.data.shape
    out = Tensor(x.data[ri, ci])

    def bwd(g, ids):
        z = np.zeros(shape)
        np.add.at(z, (ri, ci), g)
        return (z,)

    return _record("take_pairs", out, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    x = _tensor_arg(x, "relu")
    mask = x.data > 0
    return _record("relu", Tensor(x.data * mask), (x,), lambda g, ids: (g * mask,))


def softmax(x: Tensor) -> Tensor:
    """Max-shifted softmax over the last axis; each slice sums to 1."""
    x = _tensor_arg(x, "softmax")
    y = _softmax(x.data)
    return _record("softmax", Tensor(y), (x,), lambda g, ids: (_softmax_grad(y, g),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a = _tensor_arg(a, "matmul")
    b = _tensor_arg(b, "matmul")
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner extents disagree for shapes {a.data.shape} and {b.data.shape}")
    da, db = a.data, b.data
    out = Tensor(da @ db)
    return _record("matmul", out, (a, b), lambda g, ids: (
        g @ db.T if ids[0] is not None else None, da.T @ g if ids[1] is not None else None))


def transpose(x: Tensor) -> Tensor:
    x = _tensor_arg(x, "transpose")
    if x.data.ndim != 2:
        raise ShapeError(f"transpose needs a rank-2 tensor, got shape {x.data.shape}")
    return _record("transpose", Tensor(x.data.T), (x,), lambda g, ids: (g.T,))


def reshape(x: Tensor, shape) -> Tensor:
    x = _tensor_arg(x, "reshape")
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.data.size:
        raise ShapeError(f"reshape from {x.data.shape} to {shape} changes the element count")
    old = x.data.shape
    return _record("reshape", Tensor(x.data.reshape(shape)), (x,), lambda g, ids: (g.reshape(old),))


def concat(tensors) -> Tensor:
    """Join tensors along their last axis; every other extent must agree."""
    ts = [_tensor_arg(t, "concat") for t in tensors]
    if not ts:
        raise ContractError("concat needs at least one tensor")
    lead = ts[0].data.shape[:-1]
    for t in ts:
        if t.data.ndim != len(lead) + 1 or t.data.shape[:-1] != lead:
            raise ShapeError(f"concat needs rank >= 1 and equal leading extents: {ts[0].data.shape}, {t.data.shape}")
    out = Tensor(np.concatenate([t.data for t in ts], axis=-1))
    bounds = [0]
    for t in ts:
        bounds.append(bounds[-1] + t.data.shape[-1])
    return _record("concat", out, tuple(ts), lambda g, ids: tuple(
        g[..., a:b] if nid is not None else None for nid, a, b in zip(ids, bounds, bounds[1:])))


# scalar oracles over Box values


def from_corners(x1: float, y1: float, x2: float, y2: float) -> Box:
    return Box((x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1)


def _areas(a: Box, b: Box):
    ax1, ay1, ax2, ay2 = a.to_corners()
    bx1, by1, bx2, by2 = b.to_corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    inter = iw * ih if (iw > 0 and ih > 0) else 0.0
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    union = area_a + area_b - inter
    enclose = (max(ax2, bx2) - min(ax1, bx1)) * (max(ay2, by2) - min(ay1, by1))
    return inter, union, enclose


def iou(a: Box, b: Box) -> float:
    """Intersection over union in [0, 1]; 0 when the union is empty."""
    inter, union, _ = _areas(a, b)
    if union <= 0:
        return 0.0
    return inter / union


def giou(a: Box, b: Box) -> float:
    """Generalized IoU in (-1, 1]: IoU minus the enclosing-box slack.

    Degenerate corners: a degenerate enclosing box means both boxes collapsed
    to the same geometry up to a point or segment, so the value is 1 when the
    boxes coincide and 0 otherwise.
    """
    inter, union, enclose = _areas(a, b)
    if enclose <= 0:
        return 1.0 if a == b else 0.0
    iou_val = inter / union if union > 0 else 0.0
    return iou_val - (enclose - union) / enclose


def box_loss(b: Box, bhat: Box, w: LossWeights) -> float:
    """lambda_iou * (1 - GIoU) + lambda_l1 * L1 over the 4 center coordinates.

    The scalar form of an entry's box term in ``matching.build_cost_matrix``.
    """
    l1 = abs(b.cx - bhat.cx) + abs(b.cy - bhat.cy) + abs(b.w - bhat.w) + abs(b.h - bhat.h)
    return w.lambda_iou * (1.0 - giou(b, bhat)) + w.lambda_l1 * l1


# the set loss's box term as a chain of tape ops


def _corner_cols(t: Tensor):
    cx = narrow(t, 1, 0, 1)
    cy = narrow(t, 1, 1, 1)
    hw = mul(narrow(t, 1, 2, 1), 0.5)
    hh = mul(narrow(t, 1, 3, 1), 0.5)
    return (
        sub(cx, hw),
        sub(cy, hh),
        add(cx, hw),
        add(cy, hh),
    )


def giou_pairwise(a, b) -> Tensor:
    """Row-wise GIoU of two [M, 4] stacks; differentiable through both."""
    at = a if isinstance(a, Tensor) else Tensor(np.asarray(a, dtype=np.float64))
    bt = b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=np.float64))
    if at.shape != bt.shape or len(at.shape) != 2 or at.shape[1] != 4:
        raise ContractError(f"giou_pairwise expects matching [M, 4] stacks, got {at.shape} and {bt.shape}")
    ax1, ay1, ax2, ay2 = _corner_cols(at)
    bx1, by1, bx2, by2 = _corner_cols(bt)
    iw = relu(sub(minimum(ax2, bx2), maximum(ax1, bx1)))
    ih = relu(sub(minimum(ay2, by2), maximum(ay1, by1)))
    inter = mul(iw, ih)
    area_a = mul(sub(ax2, ax1), sub(ay2, ay1))
    area_b = mul(sub(bx2, bx1), sub(by2, by1))
    union = sub(add(area_a, area_b), inter)
    iou_col = div(inter, maximum(union, _TINY))
    ew = sub(maximum(ax2, bx2), minimum(ax1, bx1))
    eh = sub(maximum(ay2, by2), minimum(ay1, by1))
    enclose = mul(ew, eh)
    slack = div(sub(enclose, union), maximum(enclose, _TINY))
    return reshape(sub(iou_col, slack), (at.shape[0],))


def box_loss_pairwise(b, bhat: Tensor, w: LossWeights) -> Tensor:
    """Row-wise box loss of ground-truth rows against predicted rows."""
    b_arr = np.asarray(b, dtype=np.float64)
    if b_arr.shape != bhat.shape:
        raise ContractError(f"box_loss_pairwise shapes differ: {b_arr.shape} vs {bhat.shape}")
    g = giou_pairwise(Tensor(b_arr), bhat)
    giou_term = mul(sub(1.0, g), w.lambda_iou)
    diffs = absolute(sub(bhat, Tensor(b_arr)))
    l1 = reshape(matmul(diffs, Tensor(np.ones((4, 1)))), (bhat.shape[0],))
    return add(giou_term, mul(l1, w.lambda_l1))


def hungarian_loss_chain(gt, preds, assign, w: LossWeights, null_weight: float = 0.1) -> LossBreakdown:
    """``matching.hungarian_loss_terms`` as a chain of elementwise tape ops."""
    probs, boxes = preds.class_probs, preds.boxes
    n, g = probs.shape[0], len(gt)
    rows = np.asarray(assign.perm, dtype=np.intp)
    cols = np.full(n, -1, dtype=np.intp)
    cols[:g] = [y.class_id for y in gt]
    slot_w = np.full(n, float(null_weight))
    slot_w[:g] = 1.0
    picked = take_pairs(probs, rows, cols)
    logp = log(maximum(picked, 1e-12))
    cls_term = neg(sum_all(mul(logp, Tensor(slot_w))))
    if g:
        gt_rows = np.array([[y.box.cx, y.box.cy, y.box.w, y.box.h] for y in gt])
        box_term = sum_all(box_loss_pairwise(gt_rows, take_rows(boxes, rows[:g]), w))
    else:
        box_term = Tensor(0.0)
    total = add(cls_term, box_term)
    return LossBreakdown(total, float(cls_term.data), float(box_term.data))


def add_layer_norm_chain(x, r):
    return layer_norm(add(x, r))


def im2col(x: Tensor, kernel: int, stride: int = 1, pad: int = 0) -> Tensor:
    """Unfold a [C,H,W] tensor into rows of k*k patches.

    Output row t corresponds to output pixel (t div W', t mod W'); column
    (c*k + i)*k + j holds channel c of kernel offset (i, j). A convolution is
    then a plain matmul against a [C*k*k, C_out] weight.
    """
    x = _tensor_arg(x, "im2col")
    if x.data.ndim != 3:
        raise ShapeError(f"im2col needs a rank-3 tensor, got shape {x.data.shape}")
    if kernel < 1 or stride < 1 or pad < 0:
        raise ContractError(f"im2col: bad kernel/stride/pad ({kernel}, {stride}, {pad})")
    c, h, w = x.data.shape
    ho = (h + 2 * pad - kernel) // stride + 1
    wo = (w + 2 * pad - kernel) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"im2col: kernel {kernel} does not fit input {x.data.shape} with pad {pad}")
    padded = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad)))
    patches = np.empty((c, kernel, kernel, ho, wo))
    for i in range(kernel):
        for j in range(kernel):
            patches[:, i, j] = padded[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
    out = Tensor(patches.reshape(c * kernel * kernel, ho * wo).T)

    def bwd(g, ids):
        gp = np.ascontiguousarray(g.T).reshape(c, kernel, kernel, ho, wo)
        dp = np.zeros_like(padded)
        for i in range(kernel):
            for j in range(kernel):
                dp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += gp[:, i, j]
        if pad:
            dp = dp[:, pad:-pad, pad:-pad]
        return (dp,)

    return _record("im2col", out, (x,), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of an [m, k] matrix; the length-n bias b is
    added to every row of the [m, n] product."""
    x = _tensor_arg(x, "linear")
    w = _tensor_arg(w, "linear")
    b = _tensor_arg(b, "linear")
    dx, dw, db = x.data, w.data, b.data
    if dx.ndim != 2 or dw.ndim != 2 or db.ndim != 1 or dw.shape != (dx.shape[1], db.shape[0]):
        raise ShapeError(f"linear: incompatible shapes {dx.shape}, {dw.shape} and {db.shape}")
    y = dx @ dw
    y += db
    return _record("linear", Tensor(y), (x, w, b), lambda g, ids: (
        g @ dw.T if ids[0] is not None else None,
        dx.T @ g if ids[1] is not None else None,
        np.add.reduce(g, axis=0) if ids[2] is not None else None,
    ))


def conv3x3_chain(x, w, b):
    _, h, wd = x.shape
    out = linear(im2col(x, 3, stride=2, pad=1), w, b)
    return reshape(transpose(out), (b.shape[0], (h + 1) // 2, (wd + 1) // 2))


def conv3x3(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """3x3 convolution at stride 2 and zero padding 1: [C, H, W] -> [C_out,
    ceil(H/2), ceil(W/2)], as one record: ``conv3x3_chain`` with the unfold
    and the fold as one gather and one ``bincount`` through
    ``numeric._conv3x3_indices``."""
    x = _tensor_arg(x, "conv3x3")
    w = _tensor_arg(w, "conv3x3")
    b = _tensor_arg(b, "conv3x3")
    dx, dw = x.data, w.data
    if dx.ndim != 3 or 0 in dx.shape or b.data.ndim != 1 or dw.shape != (9 * dx.shape[0], b.data.size):
        raise ShapeError(f"conv3x3: incompatible shapes {dx.shape}, {dw.shape} and {b.data.shape}")
    (c, h, wd), c_out = dx.shape, b.data.size
    ho, wo = (h + 1) // 2, (wd + 1) // 2
    gather, scatter = _conv3x3_indices(c, h, wd)
    padded = np.zeros((c, h + 2, wd + 2))
    padded[:, 1:-1, 1:-1] = dx
    cols = padded.take(gather)
    out = Tensor(_affine(cols, dw, b.data).T.reshape(c_out, ho, wo))

    def bwd(g, ids):
        gy = g.reshape(c_out, ho * wo).T
        gp, gw, gb = _affine_grads(cols, dw, gy, ids)
        if gp is not None:
            gp = np.bincount(scatter, weights=gp.T.ravel(), minlength=c * (h + 2) * (wd + 2))
            gp = gp.reshape(c, h + 2, wd + 2)[:, 1:-1, 1:-1]
        return (gp, gw, gb)

    return _record("conv3x3", out, (x, w, b), bwd)


def pixel_rows(f):
    """A [C, H, W] map's pixels as [H*W, C] rows, as the model's reduction read them."""
    c, fh, fw = f.shape
    return transpose(reshape(f, (c, fh * fw)))


def backbone_chain(image, layers):
    """``numeric.backbone`` as the chain it replaces: ``relu(conv3x3(.))`` per
    (w, b) pair of ``layers``, then the last map's ``pixel_rows``."""
    x = image
    for i in range(0, len(layers), 2):
        x = relu(conv3x3(x, layers[i], layers[i + 1]))
    return pixel_rows(x)


def relation_chain(x, m, w, b):
    """``numeric.relation`` as the chain it replaces, for a constant array m."""
    nbr = matmul(Tensor(m), x)
    return relu(linear(concat([x, nbr]), transpose(w), b))


def sigmoid(x: Tensor) -> Tensor:
    x = _tensor_arg(x, "sigmoid")
    d = x.data
    y = np.empty_like(d)
    pos = d >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    y[~pos] = e / (1.0 + e)
    return _record("sigmoid", Tensor(y), (x,), lambda g, ids: (g * y * (1.0 - y),))


def attention(qp: Tensor, kp: Tensor, vp: Tensor, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of [n, d] queries over [m, d]
    keys and values.

    Head h owns columns [h*dh, (h+1)*dh) with dh = d / num_heads, and writes
    softmax(Q_h K_h^T / sqrt(dh)) V_h into the same columns of the [n, d]
    output; the scale multiplies the product and the softmax over the keys
    is max-shifted. All heads run as one batched product each way.
    """
    qp = _tensor_arg(qp, "attention")
    kp = _tensor_arg(kp, "attention")
    vp = _tensor_arg(vp, "attention")
    if qp.data.ndim != 2 or kp.data.ndim != 2 or kp.data.shape != vp.data.shape or qp.data.shape[1] != kp.data.shape[1]:
        raise ShapeError(f"attention shapes disagree: q {qp.data.shape}, k {kp.data.shape}, v {vp.data.shape}")
    (n, d), m = qp.data.shape, kp.data.shape[0]
    if num_heads < 1 or d % num_heads:
        raise ShapeError(f"attention: width {d} not divisible by {num_heads} heads")
    dh = d // num_heads
    scale = 1.0 / math.sqrt(dh)
    # per-head operands, each head's matrix C-contiguous: q [h,n,dh], k^T [h,dh,m], v [h,m,dh]
    q = np.ascontiguousarray(qp.data.reshape(n, num_heads, dh).transpose(1, 0, 2))
    kt = np.ascontiguousarray(kp.data.reshape(m, num_heads, dh).transpose(1, 2, 0))
    v = np.ascontiguousarray(vp.data.reshape(m, num_heads, dh).transpose(1, 0, 2))
    z = (q @ kt) * scale
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor((p @ v).transpose(1, 0, 2).reshape(n, d))

    def bwd(g, ids):
        go = g.reshape(n, num_heads, dh).transpose(1, 0, 2)
        dq = dk = dv = None
        if ids[0] is not None or ids[1] is not None:
            ds = _softmax_grad(p, go @ v.transpose(0, 2, 1)) * scale
            if ids[0] is not None:
                dq = (ds @ kt.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(n, d)
            if ids[1] is not None:
                # dk in C order: the reshape of dk^T is an F-order view, which would change
                # the summation order of the bias sum and of the BLAS products downstream
                dk = np.ascontiguousarray((q.transpose(0, 2, 1) @ ds).transpose(2, 0, 1).reshape(m, d))
        if ids[2] is not None:
            dv = (p.transpose(0, 2, 1) @ go).transpose(1, 0, 2).reshape(m, d)
        return (dq, dk, dv)

    return _record("attention", out, (qp, kp, vp), bwd)


def mha_chain(q, k, v, proj, num_heads):
    """Multi-head attention as the chain the fused op replaced, the attention of
    ``attention_block_chain``; ``proj`` is (wq, bq, wk, bk, wv, bv, wo, bo)."""
    wq, bq, wk, bk, wv, bv, wo, bo = proj
    mixed = attention(linear(q, wq, bq), linear(k, wk, bk), linear(v, wv, bv), num_heads)
    return linear(mixed, wo, bo)


def mlp_chain(x, layers, output=None):
    """``numeric.mlp`` as the chain it replaces; ``layers`` is (w0, b0, w1, b1, ...)."""
    for i in range(0, len(layers), 2):
        x = linear(relu(x) if i else x, layers[i], layers[i + 1])
    return {None: lambda t: t, "sigmoid": sigmoid, "softmax": softmax}[output](x)


def attention_block_chain(x, pos, kv, kv_pos, proj, num_heads):
    """``numeric.attention_block`` as the chain it replaces. Self-attention
    (``kv is x and kv_pos is pos``) reads queries and keys from one add;
    otherwise the keys' add is recorded before the queries', as the decoder
    recorded them."""
    if kv is x and kv_pos is pos:
        q = k = add(x, pos)
    else:
        k = add(kv, kv_pos)
        q = add(x, pos)
    return add_layer_norm_chain(x, mha_chain(q, k, kv, proj, num_heads))


def ffn_block_chain(x, layers):
    """``numeric.ffn_block`` as the chain it replaces."""
    return add_layer_norm_chain(x, mlp_chain(x, layers))
