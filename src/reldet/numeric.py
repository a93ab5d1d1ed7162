"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Every model and loss operation downstream is composed from the primitives
here, so each primitive carries its own backward rule and can be checked
against ``finite_diff_grad``. Tapes are rebuilt per forward pass
(define-by-run), are used up by one ``backward`` and are confined to one
thread; distinct tapes may run on distinct threads.

Broadcasting is deliberately restricted: binary ops accept two tensors of
identical shape, or one tensor and one python scalar. Row-vector bias adds
happen only inside ``linear``, never by silent broadcasting.

Two fused primitives record one tape entry for what would otherwise be a
chain of small ops, with the same forward bits as that chain:

- ``linear(x, w, b)``: ``x @ w + b[None, :]`` for x [m, k], w [k, n], b [n];
  backward ``(g @ w.T, x.T @ g, g.sum(axis=0))``.
- ``attention(qp, kp, vp, num_heads)``: multi-head scaled dot-product
  attention of projected queries [n, d] over projected keys and values
  [m, d]. The heads are column blocks of width d / num_heads, computed as one
  batched ``Q K^T``, scaled by 1/sqrt(d / num_heads) after the product, a
  max-shifted softmax over the keys and one batched product with V.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DomainError, ShapeError

_TLS = threading.local()


def _active_tape() -> Optional["Tape"]:
    return getattr(_TLS, "tape", None)


class Tensor:
    """A dense float64 array plus gradient metadata.

    ``node_id``/``tape`` locate the tensor on the tape that recorded it (or
    are None for constants and fresh leaves). After ``backward``, every
    requires_grad tensor that participated in the pass holds ``grad`` with
    the same shape as ``data``.
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

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    # arithmetic sugar; python scalars allowed on either side
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __float__(self) -> float:
        return self.item()

    def sum(self) -> "Tensor":
        return sum_all(self)

    def mean(self) -> "Tensor":
        return mean(self)

    def abs(self) -> "Tensor":
        return absolute(self)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def transpose(self) -> "Tensor":
        return transpose(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed ops; backward replays it exactly reversed.

    Usable as a context manager; only one tape may be active per thread.
    """

    def __init__(self):
        # each record is (output node id, input node ids, backward rule)
        self.records: list[tuple[int, tuple, Callable]] = []
        self._tensors: dict[int, Tensor] = {}
        self._n = 0

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise ContractError("a tape is already active on this thread")
        _TLS.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _TLS.tape = None
        return False

    def _node(self, t: Tensor) -> int:
        if t.tape is self and t.node_id is not None:
            return t.node_id
        nid = self._n
        self._n += 1
        t.tape = self
        t.node_id = nid
        self._tensors[nid] = t
        return nid

    def __len__(self) -> int:
        return len(self.records)


def _record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    tape = getattr(_TLS, "tape", None)
    if tape is None:
        return out
    tracked = False
    for t in inputs:
        if t.requires_grad or (t.tape is tape and t.node_id is not None):
            tracked = True
            break
    if not tracked:
        return out
    ids = tuple(
        tape._node(t) if (t.requires_grad or (t.tape is tape and t.node_id is not None)) else None
        for t in inputs
    )
    tape.records.append((tape._node(out), ids, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every requires_grad tensor.

    Walks the tape in exact reverse recording order, accumulating (+=) across
    fan-out. Leaves recorded on the tape but unreachable from the loss get a
    zero gradient. ``grad`` is overwritten, not accumulated, across calls: a
    leaf that already holds a ``grad`` array gets the new gradient (or the
    zeros) written into it in place, so parameter gradients land in the
    model's gradient arena; any other leaf gets a fresh array.

    ``backward`` consumes the tape: it ends by dropping every record and
    detaching every tensor from the tape, so the tape, its closures and its
    intermediate arrays are freed by reference counting as soon as the caller
    lets go of them. A second ``backward`` on the same tape raises
    ``ContractError``.
    """
    tape = loss.tape
    if tape is None or loss.node_id is None or not tape.records:
        raise ContractError("backward needs a loss recorded on a non-empty tape (backward consumes its tape)")
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    tensors = tape._tensors
    for out_id, in_ids, fn in reversed(tape.records):
        # a requires_grad output keeps its gradient for the final pass
        g = grads.get(out_id) if tensors[out_id].requires_grad else grads.pop(out_id, None)
        if g is None:
            continue
        for nid, ig in zip(in_ids, fn(g)):
            if nid is None or ig is None:
                continue
            acc = grads.get(nid)
            grads[nid] = ig if acc is None else acc + ig
    for nid, t in tensors.items():
        if t.requires_grad:
            g = grads.get(nid)
            if t.grad is None:
                t.grad = np.zeros_like(t.data) if g is None else np.array(g, copy=True)
            elif g is None:
                t.grad.fill(0.0)  # unreachable from the loss; stays a view of its buffer
            else:
                np.copyto(t.grad, g)
        # a tensor pointing at the tape that holds it is a reference cycle
        t.tape = None
        t.node_id = None
    tape.records.clear()
    tensors.clear()


def finite_diff_grad(f, x: Tensor, eps: float = 1e-5) -> Tensor:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    The independent oracle for every backward rule in this module. Any tape
    active on the calling thread is suspended while ``f`` is evaluated so the
    probe evaluations never pollute it.
    """
    if eps <= 0:
        raise ContractError("finite_diff_grad needs eps > 0")
    saved = _active_tape()
    _TLS.tape = None
    try:
        base = x.data
        g = np.zeros_like(base)
        flat = g.reshape(-1)
        for i in range(base.size):
            up = base.reshape(-1).copy()
            up[i] += eps
            dn = base.reshape(-1).copy()
            dn[i] -= eps
            fu = float(f(Tensor(up.reshape(base.shape))))
            fl = float(f(Tensor(dn.reshape(base.shape))))
            flat[i] = (fu - fl) / (2.0 * eps)
    finally:
        _TLS.tape = saved
    return Tensor(g)


# ---------------------------------------------------------------------------
# binary elementwise ops (exact shape or python scalar)


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
        return _record(out, (ta, tb), lambda g: (g, g))
    t = ta if ta is not None else tb
    return _record(out, (t,), lambda g: (g,))


def sub(a, b) -> Tensor:
    ta, tb, da, db = _as_pair(a, b, "sub")
    out = Tensor(da - db)
    if ta is not None and tb is not None:
        return _record(out, (ta, tb), lambda g: (g, -g))
    if ta is not None:
        return _record(out, (ta,), lambda g: (g,))
    return _record(out, (tb,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    ta, tb, da, db = _as_pair(a, b, "mul")
    out = Tensor(da * db)
    if ta is not None and tb is not None:
        return _record(out, (ta, tb), lambda g: (g * db, g * da))
    if ta is not None:
        return _record(out, (ta,), lambda g: (g * db,))
    return _record(out, (tb,), lambda g: (g * da,))


def div(a, b) -> Tensor:
    ta, tb, da, db = _as_pair(a, b, "div")
    out = Tensor(da / db)
    if ta is not None and tb is not None:
        return _record(out, (ta, tb), lambda g: (g / db, -g * da / (db * db)))
    if ta is not None:
        return _record(out, (ta,), lambda g: (g / db,))
    return _record(out, (tb,), lambda g: (-g * da / (db * db),))


def maximum(a, b) -> Tensor:
    """Elementwise max; ties route the gradient to the first operand."""
    ta, tb, da, db = _as_pair(a, b, "maximum")
    out = Tensor(np.maximum(da, db))
    mask = da >= db
    if ta is not None and tb is not None:
        return _record(out, (ta, tb), lambda g: (g * mask, g * ~mask))
    if ta is not None:
        return _record(out, (ta,), lambda g: (g * mask,))
    return _record(out, (tb,), lambda g: (g * ~mask,))


def minimum(a, b) -> Tensor:
    """Elementwise min; ties route the gradient to the first operand."""
    ta, tb, da, db = _as_pair(a, b, "minimum")
    out = Tensor(np.minimum(da, db))
    mask = da <= db
    if ta is not None and tb is not None:
        return _record(out, (ta, tb), lambda g: (g * mask, g * ~mask))
    if ta is not None:
        return _record(out, (ta,), lambda g: (g * mask,))
    return _record(out, (tb,), lambda g: (g * ~mask,))


# ---------------------------------------------------------------------------
# unary elementwise ops


def _tensor_arg(x, op: str) -> Tensor:
    if not isinstance(x, Tensor):
        raise ContractError(f"{op}: expected a Tensor, got {type(x).__name__}")
    return x


def neg(x: Tensor) -> Tensor:
    x = _tensor_arg(x, "neg")
    return _record(Tensor(-x.data), (x,), lambda g: (-g,))


def absolute(x: Tensor) -> Tensor:
    """|x| with subgradient sign(x), 0 at the kink."""
    x = _tensor_arg(x, "absolute")
    s = np.sign(x.data)
    return _record(Tensor(np.abs(x.data)), (x,), lambda g: (g * s,))


def relu(x: Tensor) -> Tensor:
    x = _tensor_arg(x, "relu")
    mask = x.data > 0
    return _record(Tensor(x.data * mask), (x,), lambda g: (g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    x = _tensor_arg(x, "sigmoid")
    d = x.data
    y = np.empty_like(d)
    pos = d >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    y[~pos] = e / (1.0 + e)
    return _record(Tensor(y), (x,), lambda g: (g * y * (1.0 - y),))


def log(x: Tensor) -> Tensor:
    x = _tensor_arg(x, "log")
    if np.any(x.data <= 0):
        raise DomainError(f"log of non-positive value (min entry {x.data.min()!r})")
    d = x.data
    return _record(Tensor(np.log(d)), (x,), lambda g: (g / d,))


# ---------------------------------------------------------------------------
# reductions and normalizations


def mean(x: Tensor) -> Tensor:
    x = _tensor_arg(x, "mean")
    shape, size = x.data.shape, x.data.size
    out = Tensor(x.data.mean())
    return _record(out, (x,), lambda g: (np.full(shape, float(g) / size),))


def sum_all(x: Tensor) -> Tensor:
    x = _tensor_arg(x, "sum_all")
    shape = x.data.shape
    out = Tensor(x.data.sum())
    return _record(out, (x,), lambda g: (np.full(shape, float(g)),))


def softmax(x: Tensor, axis: int) -> Tensor:
    """Max-shifted softmax along ``axis``; each slice sums to 1."""
    x = _tensor_arg(x, "softmax")
    rank = x.data.ndim
    if not -rank <= axis < rank:
        raise ContractError(f"softmax axis {axis} out of range for rank {rank}")
    axis = axis % rank
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        s = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - s),)

    return _record(Tensor(y), (x,), bwd)


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

    def bwd(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - y * gym),)

    return _record(Tensor(y), (x,), bwd)


# ---------------------------------------------------------------------------
# structural ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a = _tensor_arg(a, "matmul")
    b = _tensor_arg(b, "matmul")
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner extents disagree for shapes {a.data.shape} and {b.data.shape}")
    da, db = a.data, b.data
    out = Tensor(da @ db)
    return _record(out, (a, b), lambda g: (g @ db.T, da.T @ g))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of an [m, k] matrix; the length-n bias b is
    added to every row of the [m, n] product."""
    x = _tensor_arg(x, "linear")
    w = _tensor_arg(w, "linear")
    b = _tensor_arg(b, "linear")
    dx, dw = x.data, w.data
    if dx.ndim != 2 or dw.ndim != 2 or b.data.ndim != 1 or dx.shape[1] != dw.shape[0] or dw.shape[1] != b.data.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {dx.shape}, {dw.shape} and {b.data.shape}")
    out = Tensor(dx @ dw + b.data[None, :])
    return _record(out, (x, w, b), lambda g: (g @ dw.T, dx.T @ g, g.sum(axis=0)))


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
    s = (q @ kt) * scale
    e = np.exp(s - s.max(axis=2, keepdims=True))
    p = e / e.sum(axis=2, keepdims=True)
    out = Tensor((p @ v).transpose(1, 0, 2).reshape(n, d))

    def bwd(g):
        go = g.reshape(n, num_heads, dh).transpose(1, 0, 2)
        dp = go @ v.transpose(0, 2, 1)
        ds = p * (dp - (dp * p).sum(axis=2, keepdims=True)) * scale
        dq = ds @ kt.transpose(0, 2, 1)
        dkt = q.transpose(0, 2, 1) @ ds
        dv = p.transpose(0, 2, 1) @ go
        # dk in C order: the reshape of dk^T is an F-order view, which would change
        # the summation order of the bias sum and of the BLAS products downstream
        return (
            dq.transpose(1, 0, 2).reshape(n, d),
            np.ascontiguousarray(dkt.transpose(2, 0, 1).reshape(m, d)),
            dv.transpose(1, 0, 2).reshape(m, d),
        )

    return _record(out, (qp, kp, vp), bwd)


def transpose(x: Tensor) -> Tensor:
    x = _tensor_arg(x, "transpose")
    if x.data.ndim != 2:
        raise ShapeError(f"transpose needs a rank-2 tensor, got shape {x.data.shape}")
    return _record(Tensor(x.data.T), (x,), lambda g: (g.T,))


def reshape(x: Tensor, shape) -> Tensor:
    x = _tensor_arg(x, "reshape")
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise ShapeError(f"reshape from {x.data.shape} to {shape} changes the element count")
    old = x.data.shape
    return _record(Tensor(x.data.reshape(shape)), (x,), lambda g: (g.reshape(old),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_tensor_arg(t, "concat") for t in tensors]
    if not ts:
        raise ContractError("concat needs at least one tensor")
    rank = ts[0].data.ndim
    if not -rank <= axis < rank:
        raise ShapeError(f"concat axis {axis} out of range for rank {rank}")
    axis = axis % rank
    for t in ts[1:]:
        if t.data.ndim != rank:
            raise ShapeError(f"concat: ranks differ ({ts[0].data.shape} vs {t.data.shape})")
        for ax in range(rank):
            if ax != axis and t.data.shape[ax] != ts[0].data.shape[ax]:
                raise ShapeError(f"concat: shapes {ts[0].data.shape} and {t.data.shape} differ off-axis")
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    sizes = np.cumsum([t.data.shape[axis] for t in ts])[:-1]

    def bwd(g):
        return tuple(np.split(g, sizes, axis=axis))

    return _record(out, tuple(ts), bwd)


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

    def bwd(g):
        z = np.zeros(shape)
        z[sl] = g
        return (z,)

    return _record(out, (x,), bwd)


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

    def bwd(g):
        z = np.zeros(shape)
        np.add.at(z, idx, g)
        return (z,)

    return _record(out, (x,), bwd)


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

    def bwd(g):
        z = np.zeros(shape)
        np.add.at(z, (ri, ci), g)
        return (z,)

    return _record(out, (x,), bwd)


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

    def bwd(g):
        gp = np.ascontiguousarray(g.T).reshape(c, kernel, kernel, ho, wo)
        dp = np.zeros_like(padded)
        for i in range(kernel):
            for j in range(kernel):
                dp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += gp[:, i, j]
        if pad:
            dp = dp[:, pad:-pad, pad:-pad]
        return (dp,)

    return _record(out, (x,), bwd)
