"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Every model and loss operation downstream is composed from the primitives
here, so each primitive carries its own backward rule, which ``checks``
compares with central differences. Tapes are rebuilt per forward pass
(define-by-run) and are used up by one ``backward``. At most one tape records
at a time in a process: ``Tape.active``, set by ``with Tape():``.

A tape keeps two lists: its records, each (op name, output node id, input
node ids, backward rule), and the requires_grad leaves it has seen. A rule is
a closure over the arrays it needs; ``backward`` calls ``rule(g, in_ids)``
and gets one gradient per input, None for an input whose node id is None (a
constant), for which the rule computes nothing. The tape keeps no op output,
so an intermediate tensor is freed by reference counting as soon as the
forward drops it, and a training step leaves the cyclic garbage collector
next to nothing to track. ``tape_suspended`` runs code that must not record,
such as the probes of a central difference.

There are six primitives, the fused blocks below that the model and its loss
are built from. No op broadcasts. Each activation, the layer norm and the
affine map ``x @ w + b[None, :]`` (backward ``(g @ w.T, x.T @ g,
np.add.reduce(g, axis=0))``, and nothing for an input without a node id)
have one implementation, which every block that needs it shares. A product
of two 2-D arrays runs through ``np.dot``, which makes the BLAS call that
``@`` makes, with the same bytes, at less call overhead; the batched 3-D
per-head products stay ``@``, because ``np.dot`` on an N-D operand is a
tensor contraction that folds the batch into rows, which changes bits.

Each fused primitive records one tape entry with the forward and gradient
bits of the chain of small ops it replaces (``tests/tape_chains.py`` keeps
those chains). A tensor that the chain used twice is listed once per use,
in the order in which the chain's backward added its gradients:

- ``backbone(image, layers)``: stride-2 3x3 conv + ReLU stages, handing
  over the last map's pixels as rows.
- ``attention_block(x, pos, kv, kv_pos, (w, b), num_heads)``: the post-norm
  attention sublayer ``LN(x + MHA(x + pos, kv + kv_pos, kv))``.
- ``ffn_block(x, layers)``: the post-norm feed-forward sublayer
  ``LN(x + mlp(x, layers))``.
- ``relation(x, m, w, b)``: the relation step ``relu(concat(x, m @ x) @ w.T
  + b)``.
- ``mlp(x, layers, output)``: ``affine (relu affine)*``, then a sigmoid, a
  row softmax or nothing: the box and class heads and the 1x1 reduction.
- ``set_loss(probs, boxes, ...)``: DETR's set-prediction loss under a fixed
  assignment, the class NLL over every slot plus GIoU and L1 on the matched
  boxes (through ``geometry.box_pairs``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError
from .geometry import box_pairs

_LN_EPS = 1e-5  # added to the variance in _layer_norm


class Tensor:
    """A dense float64 array plus gradient metadata.

    ``node_id``/``tape`` locate the tensor on the tape that recorded it (or
    are None for constants and fresh leaves). A leaf is a requires_grad
    tensor that no op on the tape produced; op outputs are created without
    ``requires_grad``, and only leaves receive ``grad``. After ``backward``,
    every leaf that took part in the pass holds ``grad`` with the same shape
    as ``data``.
    """

    __slots__ = ("data", "requires_grad", "grad", "node_id", "tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node_id: Optional[int] = None
        self.tape: Optional[Tape] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape


class Tape:
    """Ordered record of executed ops; backward replays it exactly reversed.

    The tape holds its records and the leaves it has seen, never an op
    output: an intermediate tensor is freed as soon as the forward drops it,
    and only the arrays its backward rule needs live on in the record.
    Usable as a context manager. ``Tape.active`` is the one tape that records
    in this process, or None; entering a tape while another is active, from
    any thread, raises ContractError.
    """

    active: Optional["Tape"] = None

    def __init__(self):
        # each record is (op name, output node id, input node ids, backward rule)
        self.records: list[tuple[str, int, tuple, Callable]] = []
        self.leaves: list[Tensor] = []
        self._n = 0

    def __enter__(self) -> "Tape":
        if Tape.active is not None:
            raise ContractError("a tape is already active")
        Tape.active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape.active = None
        return False

    def _node(self, t: Tensor) -> int:
        nid = self._n
        self._n += 1
        t.tape = self
        t.node_id = nid
        return nid

    def __len__(self) -> int:
        return len(self.records)


def _record(op: str, out: Tensor, inputs: Sequence[Tensor], rule: Callable) -> Tensor:
    tape = Tape.active
    if tape is None:
        return out
    ids = []
    for t in inputs:
        if t.tape is tape:
            ids.append(t.node_id)
        elif t.requires_grad:
            ids.append(tape._node(t))
            tape.leaves.append(t)
        else:
            ids.append(None)
    if ids.count(None) == len(ids):  # nothing to differentiate: the output is a constant
        return out
    tape.records.append((op, tape._node(out), tuple(ids), rule))
    return out


@contextmanager
def tape_suspended():
    """Run the body with no active tape, and restore the tape even if it raises."""
    saved = Tape.active
    Tape.active = None
    try:
        yield
    finally:
        Tape.active = saved


def backward(y: Tensor, grad=None) -> None:
    """Carry the seed ``grad`` at y back to every leaf on y's tape, into the leaf's ``.grad``.

    The seed is an array of y's shape, ones by default, which only a
    one-entry y (a loss) may take: each leaf then gets d(y)/d(leaf). A probe
    array r as the seed gives the vector-Jacobian product d(sum(y * r))/d(leaf),
    which is how ``checks`` compares each block's rule with central
    differences. The walk starts from a copy of the seed, so the caller's
    array is never written.

    Walks the tape in exact reverse recording order, accumulating (+=) across
    fan-out; the gradients live in a list indexed by node id. Leaves recorded
    on the tape but unreachable from y get a zero gradient. A leaf's ``.grad``
    is overwritten, not accumulated, across calls: a leaf without a ``grad``
    array first gets a fresh one laid out like its ``data`` (C order), and
    the new gradient (or the zeros) is then written into the leaf's array in
    place. So parameter gradients land in the model's gradient arena, and a
    rule's transposed gradient view still leaves a C-ordered ``grad``. An op
    output is not a leaf and gets no ``grad``, even if its ``requires_grad``
    was set after the op.

    ``backward`` consumes the tape: it ends by detaching the leaves and y
    from the tape and dropping every record, so the closures and the arrays
    they saved are freed by reference counting. A second ``backward`` on the
    same tape raises ``ContractError``.
    """
    tape = y.tape
    if tape is None or y.node_id is None or not tape.records:
        raise ContractError("backward needs an output recorded on a non-empty tape (backward consumes its tape)")
    if grad is None:
        if y.data.size != 1:
            raise ContractError(f"backward without a seed needs a scalar loss, got shape {y.data.shape}")
        grad = np.ones_like(y.data)
    else:
        grad = np.array(grad, dtype=np.float64)
        if grad.shape != y.data.shape:
            raise ContractError(f"backward seed of shape {grad.shape} for an output of shape {y.data.shape}")
    grads: list[Optional[np.ndarray]] = [None] * tape._n
    grads[y.node_id] = grad
    for _, out_id, in_ids, rule in reversed(tape.records):
        g = grads[out_id]
        if g is None:
            continue
        grads[out_id] = None
        for nid, ig in zip(in_ids, rule(g, in_ids)):
            if ig is None:  # the rule skips an input without a node id
                continue
            acc = grads[nid]
            grads[nid] = ig if acc is None else acc + ig
    for t in tape.leaves:
        g = grads[t.node_id]
        if t.grad is None:
            t.grad = np.empty_like(t.data)
        if g is None:
            t.grad.fill(0.0)  # unreachable from the loss
        else:
            t.grad[...] = g
        t.tape = None
        t.node_id = None
    y.tape = None
    y.node_id = None
    tape.records.clear()
    tape.leaves.clear()


# ---------------------------------------------------------------------------
# array helpers: the activations, the layer norm and the affine map


def _tensor_args(op: str, *ts) -> tuple:
    """``ts`` as a tuple, once each is checked to be a Tensor; ContractError naming ``op`` otherwise."""
    for t in ts:
        if not isinstance(t, Tensor):
            raise ContractError(f"{op}: expected a Tensor, got {type(t).__name__}")
    return ts


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 (-0.0 included) and exp(z) / (1 + exp(z))
    below, both from one e = exp(-|z|), so neither branch overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _relu(h: np.ndarray) -> np.ndarray:
    """Rectify h in place, ``h * (h > 0)`` (-0.0 for a negative entry), and
    return the mask, which is the rule's factor for the gradient."""
    mask = h > 0
    h *= mask
    return mask


def _softmax(z: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis; ``np.add.reduce`` is
    ``ndarray.sum``'s IEEE operations at less call overhead.

    The shift is ``np.fmax.reduce``, which is faster than ``np.maximum.reduce``
    and returns the same values. On a row without NaN both give the row's
    largest entry, at most with the other sign of a zero: x - 0.0 and x -
    (-0.0) differ only for a zero x, and exp(+0) = exp(-0) = 1. On a row with
    a NaN, fmax skips it where maximum propagates it, but the NaN entry stays
    NaN through the shift and the exp, so the row's sum and then every entry
    are NaN under either shift."""
    e = z - np.fmax.reduce(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the input of a softmax with output y, given the gradient g at y."""
    return y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))


def _layer_norm(s: np.ndarray) -> tuple:
    """(y, inv): s normalized over the last axis to zero mean and unit
    variance (no affine), 1e-5 added to the variance, and the inverse
    deviation. Means are ``np.add.reduce(., axis=-1, keepdims=True) / n``:
    ``ndarray.mean``'s IEEE operations at less call overhead."""
    n = s.shape[-1]
    xc = s - np.add.reduce(s, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / n + _LN_EPS)
    return xc * inv, inv


def _layer_norm_grad(y: np.ndarray, inv: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the input of a ``_layer_norm`` with outputs (y, inv), given the gradient g at y."""
    n = y.shape[-1]
    gm = np.add.reduce(g, axis=-1, keepdims=True) / n
    gym = np.add.reduce(g * y, axis=-1, keepdims=True) / n
    return inv * (g - gm - y * gym)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b[None, :]`` for 2-D x and w, the product through ``np.dot``
    and the bias added in place: the same IEEE operations."""
    y = np.dot(x, w)
    y += b
    return y


def _affine_grads(x: np.ndarray, w: np.ndarray, g: np.ndarray, ids) -> tuple:
    """Gradients at (x, w, b) of ``_affine(x, w, b)`` given the gradient g at
    its output; None for each of the three whose entry in ``ids`` is None
    (an input without a node id)."""
    return (
        np.dot(g, w.T) if ids[0] is not None else None,
        np.dot(x.T, g) if ids[1] is not None else None,
        np.add.reduce(g, axis=0) if ids[2] is not None else None,
    )


def _check_affine(op: str, width: int, w: np.ndarray, b: np.ndarray) -> None:
    """ContractError unless (w, b) is an affine map of ``width``-wide rows."""
    if w.ndim != 2 or b.ndim != 1 or w.shape[0] != width or w.shape[1] != b.shape[0]:
        raise ContractError(f"{op}: a weight {w.shape} and bias {b.shape} do not map {width}-wide rows")


# ---------------------------------------------------------------------------
# the model's blocks


def backbone(image: Tensor, layers: Sequence[Tensor]) -> Tensor:
    """Stride-2 3x3 convolutions with zero padding 1 of a [C, H, W] image, each
    with its ReLU, as one record: a stage per weight [C*9, C_out] and bias
    [C_out] of ``layers`` (w0, b0, w1, b1, ...), whose row (c*3 + i)*3 + j
    weights channel c at kernel offset (i, j), maps [C, H, W] to [C_out,
    ceil(H/2), ceil(W/2)]. Returns the last map's pixels as [H'W', C_out]
    rows, row t = pixel (t div W', t mod W').

    A stage is the affine map of its patch matrix, one gather through
    ``_conv3x3_indices``; its input gradient is one ``np.bincount`` over the
    same pixels. The forward and backward keep the array layouts of the
    chain of conv, ReLU, reshape and transpose records that this replaces.
    """
    x, *ts = _tensor_args("backbone", image, *layers)
    if not ts or len(ts) % 2:
        raise ContractError(f"backbone needs a weight and a bias per stage, got {len(ts)} tensors")
    y = x.data
    stages = []  # per stage: patch matrix, weight, ReLU mask [C_out, H', W'], scatter indices, input shape
    for w, b in zip(ts[0::2], ts[1::2]):
        dw, db = w.data, b.data
        if y.ndim != 3 or 0 in y.shape or db.ndim != 1 or dw.shape != (9 * y.shape[0], db.size):
            raise ContractError(f"backbone: a weight {dw.shape} and bias {db.shape} do not convolve a {y.shape} map")
        (c, h, wd), c_out = y.shape, db.size
        gather, scatter = _conv3x3_indices(c, h, wd)
        padded = np.zeros((c, h + 2, wd + 2))
        padded[:, 1:-1, 1:-1] = y
        cols = padded.take(gather)
        y = np.ascontiguousarray(_affine(cols, dw, db).T.reshape(c_out, (h + 1) // 2, (wd + 1) // 2))
        mask = _relu(y)
        stages.append((cols, dw, mask, scatter, (c, h, wd)))
    c_out, ho, wo = y.shape

    def bwd(g, ids):
        grads = [None] * len(ids)
        g = g.T.reshape(c_out, ho, wo)  # the map view that the chain's transpose and reshape rules made
        for s in range(len(stages) - 1, -1, -1):
            cols, dw, mask, scatter, (c, h, wd) = stages[s]
            gy = (g * mask).reshape(len(mask), -1).T  # an F-order view: the bias sum's bits depend on it
            # True: a later stage's input always needs its gradient
            g, grads[2 * s + 1], grads[2 * s + 2] = _affine_grads(
                cols, dw, gy, (True if s else ids[0], *ids[2 * s + 1:2 * s + 3]))
            if g is not None:  # fold the patch gradient, copied in [C, 3, 3, H', W'] order as ``scatter`` lists them
                g = np.bincount(scatter, weights=g.T.ravel(), minlength=c * (h + 2) * (wd + 2))
                g = g.reshape(c, h + 2, wd + 2)[:, 1:-1, 1:-1]
        grads[0] = g
        return grads

    return _record("backbone", Tensor(y.reshape(c_out, ho * wo).T), (x, *ts), bwd)


@lru_cache(maxsize=16)
def _conv3x3_indices(c: int, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into a zero-padded [c, h+2, w+2] map of the 3x3, stride-2
    patches of a ``backbone`` stage, read-only: (gather, scatter).

    ``gather`` [H'W', C*9] lists the patch matrix: row oy*W' + ox, column
    (ci*3 + i)*3 + j reads padded pixel (ci, 2*oy + i, 2*ox + j). ``scatter``
    lists the same pixels in [C, 3, 3, H', W'] order, so a ``bincount`` over
    it adds each padded pixel's terms, from +0.0, in the order of the
    nine-slice fold ``for i: for j: dp[:, i::2, j::2] += gp[:, i, j]``.
    """
    ho, wo = (h + 1) // 2, (w + 1) // 2
    ci, i, j, oy, ox = np.ix_(np.arange(c), np.arange(3), np.arange(3), np.arange(ho), np.arange(wo))
    idx = (ci * (h + 2) + i + 2 * oy) * (w + 2) + j + 2 * ox
    scatter = idx.reshape(-1)
    gather = np.ascontiguousarray(idx.reshape(c * 9, -1).T)
    scatter.flags.writeable = gather.flags.writeable = False
    return gather, scatter


def attention_block(x: Tensor, pos: Tensor, kv: Tensor, kv_pos: Tensor, proj: Sequence[Tensor], num_heads: int) -> Tensor:
    """The post-norm attention sublayer ``LN(x + MHA(x + pos, kv + kv_pos,
    kv))`` of [n, d] rows x over [m, d] rows kv, as one record.

    ``proj`` is (w, b), w [4, d, d] and b [4, d]: the query, key, value and
    output projections in that order, each read as a C-contiguous view. Head
    h owns columns [h*dh, (h+1)*dh) of the projections, dh = d / num_heads,
    and writes softmax(Q_h K_h^T / sqrt(dh)) V_h into the same columns of
    the map that the output projection maps; the scale multiplies the
    product and all heads run as one batched product each way. Forward and
    backward keep the IEEE operations, operand layouts and BLAS shapes of
    the chain of adds, affine records, attention and layer norm this
    replaces, so the output and every gradient are its bits, w's and b's the
    four projections' joined. Self-attention is the call with ``kv is x and
    kv_pos is pos``: queries and keys read one array x + pos, and the record
    lists (x, x, x, pos, w, b), x taking the layer norm's, the value's and
    then the query-plus-key gradient, in the chain's order; otherwise it
    lists (x, kv, x, pos, kv, kv_pos, w, b).
    """
    x, pos, kv, kv_pos, *proj = _tensor_args("attention_block", x, pos, kv, kv_pos, *proj)
    if len(proj) != 2:
        raise ContractError(f"attention_block needs a stacked projection weight and bias, got {len(proj)} tensors")
    xx, xv = x.data, kv.data
    if xx.ndim != 2 or xv.ndim != 2 or xx.shape[1] != xv.shape[1] or pos.shape != xx.shape or kv_pos.shape != xv.shape:
        raise ContractError(f"attention_block shapes disagree: x {xx.shape}, pos {pos.shape}, kv {xv.shape}, "
                         f"kv_pos {kv_pos.shape}")
    (n, d), m = xx.shape, xv.shape[0]
    if num_heads < 1 or d % num_heads:
        raise ContractError(f"attention_block: width {d} not divisible by {num_heads} heads")
    w, b = proj[0].data, proj[1].data
    if w.shape != (4, d, d) or b.shape != (4, d):
        raise ContractError(f"attention_block: weight {w.shape} and bias {b.shape} are not 4 width-{d} projections")
    (wq, wk, wv, wo), (bq, bk, bv, bo) = w, b
    self_attn = kv is x and kv_pos is pos
    xq = xx + pos.data
    xk = xq if self_attn else xv + kv_pos.data
    dh = d // num_heads
    scale = 1.0 / math.sqrt(dh)
    # per-head operands, each head's matrix C-contiguous: q [h,n,dh], k^T [h,dh,m], v [h,m,dh]
    qh = np.ascontiguousarray(_affine(xq, wq, bq).reshape(n, num_heads, dh).transpose(1, 0, 2))
    kt = np.ascontiguousarray(_affine(xk, wk, bk).reshape(m, num_heads, dh).transpose(1, 2, 0))
    vh = np.ascontiguousarray(_affine(xv, wv, bv).reshape(m, num_heads, dh).transpose(1, 0, 2))
    s = qh @ kt
    s *= scale
    p = _softmax(s)
    mixed = (p @ vh).transpose(1, 0, 2).reshape(n, d)
    y, inv = _layer_norm(xx + _affine(mixed, wo, bo))
    inputs = (x, x, x, pos) if self_attn else (x, kv, x, pos, kv, kv_pos)

    def bwd(g, ids):
        either = lambda i: ids[i] if ids[i] is not None else ids[i + 1]  # an id of slot i or i + 1
        g = _layer_norm_grad(y, inv, g)
        go = np.dot(g, wo.T).reshape(n, num_heads, dh).transpose(1, 0, 2)
        ds = _softmax_grad(p, go @ vh.transpose(0, 2, 1)) * scale
        gqp = (ds @ kt.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(n, d)
        gq = _affine_grads(xq, wq, gqp, (either(2), *ids[-2:]))
        # in C order: the reshape of dk^T is an F-order view, which would change
        # the summation order of the bias sum and of the BLAS products downstream
        gkp = np.ascontiguousarray((qh.transpose(0, 2, 1) @ ds).transpose(2, 0, 1).reshape(m, d))
        gk = _affine_grads(xk, wk, gkp, (either(2 if self_attn else 4), *ids[-2:]))  # slot of k's first input
        gvp = (p.transpose(0, 2, 1) @ go).transpose(1, 0, 2).reshape(m, d)
        gv = _affine_grads(xv, wv, gvp, (ids[1], *ids[-2:]))
        _, gwo, gbo = _affine_grads(mixed, wo, g, (None, *ids[-2:]))
        if self_attn:  # queries and keys are one array: the chain summed their gradients before its add
            gqk = None if gq[0] is None else gq[0] + gk[0]
            slots = (g, gv[0], gqk, gqk)
        else:
            slots = (g, gv[0], gq[0], gq[0], gk[0], gk[0])
        gw = None if ids[-2] is None else np.concatenate([gq[1], gk[1], gv[1], gwo]).reshape(w.shape)
        gb = None if ids[-1] is None else np.concatenate([gq[2], gk[2], gv[2], gbo]).reshape(b.shape)
        return (*(gi if nid is not None else None for gi, nid in zip(slots, ids)), gw, gb)

    return _record("attention_block", Tensor(y), (*inputs, *proj), bwd)


def _mlp_core(op: str, h: np.ndarray, ts: list) -> tuple:
    """The affine map of each layer of ``ts`` (w0, b0, w1, b1, ...) in turn
    over [m, k] rows h, with a ReLU ``h * (h > 0)`` (-0.0 for a negative
    entry) between two layers: (output, rule), where ``rule(g, ids)`` gives
    the gradients at (h, *ts) from the gradient g at the output."""
    if not ts or len(ts) % 2:
        raise ContractError(f"{op} needs a weight and a bias per layer, got {len(ts)} tensors")
    if h.ndim != 2:
        raise ContractError(f"{op} needs a rank-2 input, got shape {h.shape}")
    layers = []  # each layer's input, weight and the ReLU mask of that input (None at the first layer)
    for k in range(0, len(ts), 2):
        w, b = ts[k].data, ts[k + 1].data
        _check_affine(op, h.shape[1], w, b)
        mask = _relu(h) if layers else None  # rectifies h in place
        layers.append((h, w, mask))
        h = _affine(h, w, b)

    def rule(g, ids):
        grads = [None] * len(ids)
        for i in range(len(layers) - 1, -1, -1):  # True: a hidden layer's input always needs its gradient
            x, w, mask = layers[i]
            g, grads[2 * i + 1], grads[2 * i + 2] = _affine_grads(x, w, g, (True if i else ids[0], *ids[2 * i + 1:2 * i + 3]))
            if mask is not None:
                g *= mask
        grads[0] = g
        return grads

    return h, rule


_OUTPUTS = {  # mlp's output functions: (forward, gradient at the input given the output y and its gradient g)
    None: (lambda h: h, lambda y, g: g),
    "sigmoid": (_sigmoid, lambda y, g: g * y * (1.0 - y)),
    "softmax": (_softmax, _softmax_grad),
}


def mlp(x: Tensor, layers: Sequence[Tensor], output: Optional[str] = None) -> Tensor:
    """``_mlp_core`` over [m, k] rows x and ``layers`` (w0, b0, w1, b1, ...),
    then ``output``: None for the last affine map as it is, ``"sigmoid"``,
    or ``"softmax"`` over each row. One record with the bits of the chain of
    affine, relu and sigmoid or softmax records. One layer, ``mlp(x, (w,
    b))``, is ``x @ w + b[None, :]`` alone."""
    x, *ts = _tensor_args("mlp", x, *layers)
    if output not in _OUTPUTS:
        raise ContractError(f"mlp output must be None, 'sigmoid' or 'softmax', got {output!r}")
    squash, squash_grad = _OUTPUTS[output]
    h, rule = _mlp_core("mlp", x.data, ts)
    y = squash(h)
    return _record("mlp", Tensor(y), (x, *ts), lambda g, ids: rule(squash_grad(y, g), ids))


def ffn_block(x: Tensor, layers: Sequence[Tensor]) -> Tensor:
    """The post-norm feed-forward sublayer ``LN(x + mlp(x, layers))`` of
    [m, d] rows, as one record with the bits of that chain. The record lists
    x twice, (x, x, *layers), for the layer norm's gradient and then the
    perceptron's, the order in which the chain added them."""
    x, *ts = _tensor_args("ffn_block", x, *layers)
    h, rule = _mlp_core("ffn_block", x.data, ts)
    if h.shape != x.shape:
        raise ContractError(f"ffn_block: the layers map {x.shape} rows to {h.shape}, not to the residual's shape")
    y, inv = _layer_norm(x.data + h)

    def bwd(g, ids):
        g = _layer_norm_grad(y, inv, g)
        return (g if ids[0] is not None else None, *rule(g, ids[1:]))

    return _record("ffn_block", Tensor(y), (x, x, *ts), bwd)


def relation(x: Tensor, m, w: Tensor, b: Tensor) -> Tensor:
    """The relation step ``relu(concat(x, m @ x) @ w.T + b[None, :])`` of
    [n, d] rows x, for a constant [n, n] array m, w [d_out, 2d] and b
    [d_out], as one record with the bits of the chain of matmul, concat,
    transpose, affine and relu records it replaces. The record lists x twice,
    (x, x, w, b), for the concat's slice of the gradient and then the
    product's ``m.T @ g``, the order in which the chain added them."""
    x, w, b = _tensor_args("relation", x, w, b)
    xx, m = x.data, np.asarray(m, dtype=np.float64)
    if xx.ndim != 2 or m.shape != (xx.shape[0],) * 2:
        raise ContractError(f"relation: rows {xx.shape} and a mixing matrix {m.shape} disagree")
    d = xx.shape[1]
    wt = np.ascontiguousarray(w.data.T)  # C order, as the chain held it: the BLAS bits depend on the layout
    _check_affine("relation", 2 * d, wt, b.data)
    h = np.concatenate([xx, np.dot(m, xx)], axis=-1)
    y = _affine(h, wt, b.data)
    mask = _relu(y)

    def bwd(g, ids):
        gh, gwt, gb = _affine_grads(h, wt, g * mask, (ids[0], *ids[2:]))
        gw = None if gwt is None else gwt.T
        return (None, None, gw, gb) if gh is None else (gh[:, :d], np.dot(m.T, gh[:, d:]), gw, gb)

    return _record("relation", Tensor(y), (x, x, w, b), bwd)


# ---------------------------------------------------------------------------
# the set-prediction loss

_FLOOR = 1e-12  # probability clamp before the log; floor of the GIoU denominators
_ONES4 = np.ones((4, 1))  # sums |delta| over cx, cy, w, h as one BLAS product


def set_loss(probs: Tensor, boxes: Tensor, perm, classes, targets, null_weight: float, weights):
    """DETR's set loss under a fixed assignment, as one record.

    Slot i is answered by prediction ``perm[i]``. Slots 0..G-1 hold the G
    targets (``classes`` [G] ids, ``targets`` [G, 4] boxes), the other slots
    the no-object class, the last column of ``probs`` [N, K+1]. The class
    term is -sum_i w_i log max(p, 1e-12) over all N slots, w_i = 1 on target
    slots and ``null_weight`` on the rest. The box term sums, over the target
    slots, lambda_iou * (1 - GIoU) + lambda_l1 * L1 of the target against
    ``boxes`` [N, 4] row ``perm[i]`` (``weights`` carries the lambdas). GIoU
    floors its denominators at 1e-12 and L1 is |delta| times a ones vector.

    Returns (class term + box term as a tensor, class term, box term). The
    forward runs the IEEE operations of the chain of elementwise tape ops it
    replaces; the backward replays that chain's backward rules, including
    the order in which fan-out gradients are summed and the tie masks of the
    min/max and relu ops, so the gradients are the chain's bit for bit.
    """
    probs, boxes = _tensor_args("set_loss", probs, boxes)
    rows = np.asarray(perm, dtype=np.intp)
    cls_ids = np.asarray(classes, dtype=np.intp)
    t = np.asarray(targets, dtype=np.float64)
    n, g = rows.size, cls_ids.size
    if probs.data.ndim != 2 or probs.data.shape[0] != n or boxes.data.shape != (n, 4) \
            or rows.shape != (n,) or t.shape != (g, 4) or g > n:
        raise ContractError(f"set_loss shapes disagree: probs {probs.data.shape}, boxes {boxes.data.shape}, "
                         f"perm {rows.shape}, classes {cls_ids.shape}, targets {t.shape}")
    if sorted(rows.tolist()) != list(range(n)):
        raise ContractError(f"set_loss needs a permutation of the {n} predictions")
    if g and (cls_ids.min() < 0 or cls_ids.max() >= probs.data.shape[1] - 1):
        raise ContractError(f"target class ids {cls_ids.tolist()} outside [0, {probs.data.shape[1] - 1})")
    cols = np.full(n, -1, dtype=np.intp)  # -1 is the no-object column
    cols[:g] = cls_ids
    slot_w = np.full(n, float(null_weight))
    slot_w[:g] = 1.0
    picked = probs.data[rows, cols]
    clamped = np.maximum(picked, _FLOOR)
    cls = -(np.log(clamped) * slot_w).sum()
    box = 0.0
    if g:
        p = box_pairs(t, boxes.data[rows[:g]])
        umx = np.maximum(p.union, _FLOOR)
        den = np.maximum(p.enclose, _FLOOR)
        num = p.enclose - p.union
        giou = p.inter / umx - num / den
        l1 = (np.abs(p.delta) @ _ONES4).reshape(g)
        box = ((1.0 - giou) * weights.lambda_iou + l1 * weights.lambda_l1).sum()
    out = Tensor(cls + box)

    def bwd(go, ids):
        gp = None
        if ids[0] is not None:
            gp = np.zeros(probs.data.shape)
            np.add.at(gp, (rows, cols), np.full(n, float(-go)) * slot_w / clamped * (picked >= _FLOOR))
        if not g or ids[1] is None:
            return (gp, None)
        gv = np.full(g, float(go))
        g_delta = ((gv * weights.lambda_l1).reshape(g, 1) @ _ONES4.T) * np.sign(p.delta)
        # GIoU = inter / umx - num / den, one line per backward rule of the
        # elementwise chain in reverse record order, over [2, G] x/y pairs
        # ([::-1] crosses axes: d(ew * eh)/d(ew) = eh): a fan-out sum adds each
        # new term to the earlier sum, min/max route a tie to the target's
        # corner (the prediction's gets g * ~mask), relu passes nothing at 0
        g_iou = -(gv * weights.lambda_iou)
        g_num = -g_iou / den
        g_enc = g_iou * num / (den * den) * (p.enclose >= _FLOOR) + g_num
        g_e = g_enc * p.e[::-1]
        g_lo = -g_e * ~(p.lo_a <= p.lo_b)
        g_hi = g_e * ~(p.hi_a >= p.hi_b)
        g_union = -g_num + -g_iou * p.inter / (umx * umx) * (p.union >= _FLOOR)
        g_inter = g_iou / umx + -g_union
        g_side = g_union * (p.hi_b - p.lo_b)[::-1]
        g_hi = g_hi + g_side
        g_lo = g_lo + -g_side
        pos = p.i > 0
        g_i = g_inter * (p.i * pos)[::-1] * pos
        g_lo = g_lo + -g_i * ~(p.lo_a >= p.lo_b)
        g_hi = g_hi + g_i * ~(p.hi_a <= p.hi_b)
        g_corner = np.concatenate([g_hi + g_lo, (g_hi + -g_lo) * 0.5]).T
        gb = np.zeros(boxes.data.shape)
        np.add.at(gb, rows[:g], g_delta + g_corner)
        return (gp, gb)

    return _record("set_loss", out, (probs, boxes), bwd), float(cls), float(box)
