"""Bounding boxes in center format, IoU/GIoU, and the combined box loss.

Boxes are (cx, cy, w, h). Detector outputs live in the unit square, but the
math here works at any scale, so the functions only require w >= 0, h >= 0.
Each scoring function exists in two forms: a scalar float path over ``Box``
values (used by evaluation, never differentiated) and a tensor path over
[M, 4] rows (used inside the training loss). The two are cross-checked in the
test suite; the scalar path is also the oracle for the array form of the
matching cost in ``matching.build_cost_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numeric
from .errors import ContractError, DomainError
from .numeric import Tensor

_TINY = 1e-12  # denominator guard on the tensor path; scalar path handles degenerates exactly


@dataclass(frozen=True)
class Box:
    """A bounding box as center, size: (cx, cy, w, h)."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        vals = (self.cx, self.cy, self.w, self.h)
        if not all(np.isfinite(v) for v in vals):
            raise DomainError(f"box has non-finite fields {vals}")
        if self.w < 0 or self.h < 0:
            raise DomainError(f"box has negative size (w={self.w}, h={self.h})")

    def to_corners(self) -> tuple[float, float, float, float]:
        return to_corners(self)

    def inside_unit(self) -> bool:
        x1, y1, x2, y2 = self.to_corners()
        return 0.0 <= x1 and x2 <= 1.0 and 0.0 <= y1 and y2 <= 1.0

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h])


@dataclass(frozen=True)
class LossWeights:
    """Mixing weights for the GIoU and L1 terms of the box loss."""

    lambda_iou: float = 2.0
    lambda_l1: float = 5.0

    def __post_init__(self):
        if not (np.isfinite(self.lambda_iou) and np.isfinite(self.lambda_l1)):
            raise ContractError("loss weights must be finite")
        if self.lambda_iou < 0 or self.lambda_l1 < 0:
            raise ContractError("loss weights must be nonnegative")
        if self.lambda_iou == 0 and self.lambda_l1 == 0:
            raise ContractError("at least one loss weight must be positive")


def to_corners(b: Box) -> tuple[float, float, float, float]:
    """(x1, y1, x2, y2) with x1 <= x2 and y1 <= y2."""
    return (b.cx - b.w / 2, b.cy - b.h / 2, b.cx + b.w / 2, b.cy + b.h / 2)


def from_corners(x1: float, y1: float, x2: float, y2: float) -> Box:
    return Box((x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1)


def _areas(a: Box, b: Box):
    ax1, ay1, ax2, ay2 = to_corners(a)
    bx1, by1, bx2, by2 = to_corners(b)
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

    The scalar form; box_loss_pairwise is the differentiable one, and
    matching.build_cost_matrix computes it for all target/prediction pairs.
    """
    l1 = abs(b.cx - bhat.cx) + abs(b.cy - bhat.cy) + abs(b.w - bhat.w) + abs(b.h - bhat.h)
    return w.lambda_iou * (1.0 - giou(b, bhat)) + w.lambda_l1 * l1


# ---------------------------------------------------------------------------
# tensor path: rows of (cx, cy, w, h)


def _corner_cols(t: Tensor):
    cx = numeric.narrow(t, 1, 0, 1)
    cy = numeric.narrow(t, 1, 1, 1)
    hw = numeric.mul(numeric.narrow(t, 1, 2, 1), 0.5)
    hh = numeric.mul(numeric.narrow(t, 1, 3, 1), 0.5)
    return (
        numeric.sub(cx, hw),
        numeric.sub(cy, hh),
        numeric.add(cx, hw),
        numeric.add(cy, hh),
    )


def giou_pairwise(a, b) -> Tensor:
    """Row-wise GIoU of two [M, 4] stacks; differentiable through both."""
    at = a if isinstance(a, Tensor) else Tensor(np.asarray(a, dtype=np.float64))
    bt = b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=np.float64))
    if at.shape != bt.shape or len(at.shape) != 2 or at.shape[1] != 4:
        raise ContractError(f"giou_pairwise expects matching [M, 4] stacks, got {at.shape} and {bt.shape}")
    ax1, ay1, ax2, ay2 = _corner_cols(at)
    bx1, by1, bx2, by2 = _corner_cols(bt)
    iw = numeric.relu(numeric.sub(numeric.minimum(ax2, bx2), numeric.maximum(ax1, bx1)))
    ih = numeric.relu(numeric.sub(numeric.minimum(ay2, by2), numeric.maximum(ay1, by1)))
    inter = numeric.mul(iw, ih)
    area_a = numeric.mul(numeric.sub(ax2, ax1), numeric.sub(ay2, ay1))
    area_b = numeric.mul(numeric.sub(bx2, bx1), numeric.sub(by2, by1))
    union = numeric.sub(numeric.add(area_a, area_b), inter)
    iou_col = numeric.div(inter, numeric.maximum(union, _TINY))
    ew = numeric.sub(numeric.maximum(ax2, bx2), numeric.minimum(ax1, bx1))
    eh = numeric.sub(numeric.maximum(ay2, by2), numeric.minimum(ay1, by1))
    enclose = numeric.mul(ew, eh)
    slack = numeric.div(numeric.sub(enclose, union), numeric.maximum(enclose, _TINY))
    return numeric.reshape(numeric.sub(iou_col, slack), (at.shape[0],))


def box_loss_pairwise(b, bhat: Tensor, w: LossWeights) -> Tensor:
    """Row-wise box loss of ground-truth rows against predicted rows."""
    b_arr = np.asarray(b, dtype=np.float64)
    if b_arr.shape != bhat.shape:
        raise ContractError(f"box_loss_pairwise shapes differ: {b_arr.shape} vs {bhat.shape}")
    g = giou_pairwise(Tensor(b_arr), bhat)
    giou_term = numeric.mul(numeric.sub(1.0, g), w.lambda_iou)
    diffs = numeric.absolute(numeric.sub(bhat, Tensor(b_arr)))
    l1 = numeric.reshape(numeric.matmul(diffs, Tensor(np.ones((4, 1)))), (bhat.shape[0],))
    return numeric.add(giou_term, numeric.mul(l1, w.lambda_l1))
