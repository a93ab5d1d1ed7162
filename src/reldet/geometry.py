"""Bounding boxes in center format and the one box-pair kernel.

Boxes are (cx, cy, w, h). Detector outputs live in the unit square, but the
math here works at any scale, so boxes only require w >= 0, h >= 0.

``box_pairs`` is the only implementation of box overlap geometry: one array
computation over two stacks of boxes, either over the grid of every first box
against every second box or over aligned rows. It returns the corners, the
intersection, union and enclosing-box areas and the per-coordinate
difference. Each caller applies its own degenerate-box guards and its own L1
reduction:

- ``matching.build_cost_matrix``: GIoU with the exact degenerate branches of
  ``BoxPairs.giou`` and L1 summed cx, cy, w, h from left to right, on the
  [G, N] grid of targets against predictions;
- ``numeric.set_loss``: GIoU with 1e-12 denominator floors and L1 as a
  product with a ones vector, on the G matched rows, with an analytic
  backward;
- ``evaluation.match_detections``: ``BoxPairs.iou`` on the [D, G] grid of a
  scene's detections against its ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DomainError


@dataclass(frozen=True)
class Box:
    """A bounding box as center, size: (cx, cy, w, h)."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        vals = (self.cx, self.cy, self.w, self.h)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError(f"box has non-finite fields {vals}")
        if self.w < 0 or self.h < 0:
            raise DomainError(f"box has negative size (w={self.w}, h={self.h})")

    def to_corners(self) -> tuple[float, float, float, float]:
        """(x1, y1, x2, y2) with x1 <= x2 and y1 <= y2."""
        return (self.cx - self.w / 2, self.cy - self.h / 2, self.cx + self.w / 2, self.cy + self.h / 2)

    def inside_unit(self) -> bool:
        x1, y1, x2, y2 = self.to_corners()
        return 0.0 <= x1 and x2 <= 1.0 and 0.0 <= y1 and y2 <= 1.0


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


def box_rows(boxes) -> np.ndarray:
    """[M, 4] float64 rows (cx, cy, w, h) of a sequence of ``Box``."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


class BoxPairs(NamedTuple):
    """Overlap terms of box pairs; every array has the pair shape.

    ``a`` and ``b`` are the corners (x1, y1, x2, y2) of the first and second
    boxes, as c -+ w/2. ``iw``/``ih`` are the overlap extents
    min(x2) - max(x1) and min(y2) - max(y1), negative when the boxes are
    apart; ``inter`` is iw * ih when both are positive, else 0. ``ew``/``eh``
    are the sides of the enclosing box and ``enclose`` = ew * eh. ``delta`` is
    b - a per coordinate (cx, cy, w, h), with a trailing axis of 4.
    """

    a: tuple
    b: tuple
    iw: np.ndarray
    ih: np.ndarray
    inter: np.ndarray
    union: np.ndarray
    ew: np.ndarray
    eh: np.ndarray
    enclose: np.ndarray
    delta: np.ndarray

    def iou(self) -> np.ndarray:
        """Intersection over union in [0, 1]; 0 where the union is empty."""
        ok = self.union > 0
        return np.where(ok, self.inter / np.where(ok, self.union, 1.0), 0.0)

    def giou(self) -> np.ndarray:
        """Generalized IoU in (-1, 1]: IoU minus the enclosing-box slack.

        A degenerate enclosing box means both boxes collapsed to the same
        point or segment, so the value is 1 where the boxes are identical and
        0 otherwise.
        """
        ok = self.enclose > 0
        slack = (self.enclose - self.union) / np.where(ok, self.enclose, 1.0)
        return np.where(ok, self.iou() - slack, np.where(np.all(self.delta == 0, axis=-1), 1.0, 0.0))


def box_pairs(a, b, grid: bool = False) -> BoxPairs:
    """Overlap terms of boxes ``a`` [G, 4] against ``b`` [N, 4].

    With ``grid`` the pairs are every row of ``a`` against every row of ``b``,
    shape [G, N]; otherwise ``a`` and ``b`` have the same row count M and row
    i pairs with row i, shape [M].
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != 4 or b.shape[1] != 4 or not (grid or a.shape == b.shape):
        raise ContractError(f"box_pairs needs [G, 4] and [N, 4] boxes (equal row counts unless grid), "
                            f"got {a.shape} and {b.shape}")
    if grid:
        a = a[:, None, :]  # first boxes down the rows, second boxes across the columns
    acx, acy, aw, ah = (a[..., k] for k in range(4))
    bcx, bcy, bw, bh = (b[..., k] for k in range(4))
    ahw, ahh, bhw, bhh = aw / 2, ah / 2, bw / 2, bh / 2
    ax1, ay1, ax2, ay2 = acx - ahw, acy - ahh, acx + ahw, acy + ahh
    bx1, by1, bx2, by2 = bcx - bhw, bcy - bhh, bcx + bhw, bcy + bhh
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    ew = np.maximum(ax2, bx2) - np.minimum(ax1, bx1)
    eh = np.maximum(ay2, by2) - np.minimum(ay1, by1)
    return BoxPairs((ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2), iw, ih, inter, union, ew, eh, ew * eh, b - a)
