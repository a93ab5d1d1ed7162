"""Bounding boxes in center format and the one box-pair kernel.

Boxes are (cx, cy, w, h). Detector outputs live in the unit square, but the
math here works at any scale, so boxes only require w >= 0, h >= 0.

``box_pairs`` is the only implementation of box overlap geometry: one array
computation over two stacks of boxes, either over the grid of every first box
against every second box or over aligned rows. It returns the corners, the
overlap extents and the enclosing box's sides, each with x and y on one
leading axis of 2, so a rule is stated once for both axes; the intersection,
union and enclosing-box areas; and the per-coordinate difference. Each caller
applies its own degenerate-box guards and its own L1 reduction:

- ``matching.build_cost_matrix``: GIoU with the exact degenerate branches of
  ``BoxPairs.giou`` and L1 summed cx, cy, w, h from left to right, on the
  [G, N] grid of targets against predictions;
- ``numeric.set_loss``: GIoU with 1e-12 denominator floors and L1 as a
  product with a ones vector, on the G matched rows, with an analytic
  backward;
- ``evaluation._scene_overlaps``: ``BoxPairs.iou`` on aligned rows, every
  detection of a scene against every ground truth of that scene, for all
  scenes of a pass at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError


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
            raise ContractError(f"box has non-finite fields {vals}")
        if self.w < 0 or self.h < 0:
            raise ContractError(f"box has negative size (w={self.w}, h={self.h})")

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
    """Overlap terms of box pairs.

    Each per-axis term is one array with a leading axis of 2, x then y: the
    corners ``lo_a``/``hi_a`` of the first boxes and ``lo_b``/``hi_b`` of the
    second, as c -+ size/2; the overlap extents ``i`` = min(hi) - max(lo),
    negative when the boxes are apart; and the enclosing box's sides ``e`` =
    max(hi) - min(lo). The corners broadcast against the pair shape, the
    extents have it after the axis of 2. ``inter`` is i[0] * i[1] when both
    are positive, else 0, ``union`` the union area and ``enclose`` = e[0] *
    e[1], each of the pair shape. ``delta`` is b - a per coordinate (cx, cy,
    w, h), with a trailing axis of 4.
    """

    lo_a: np.ndarray
    hi_a: np.ndarray
    lo_b: np.ndarray
    hi_b: np.ndarray
    i: np.ndarray
    inter: np.ndarray
    union: np.ndarray
    e: np.ndarray
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
    i pairs with row i, shape [M]. The terms come from C-contiguous [4, rows]
    copies, so each axis row is contiguous: interleaved x/y is only slower.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != 4 or b.shape[1] != 4 or not (grid or a.shape == b.shape):
        raise ContractError(f"box_pairs needs [G, 4] and [N, 4] boxes (equal row counts unless grid), "
                            f"got {a.shape} and {b.shape}")
    # in a grid the first boxes run down the rows, the second boxes across the columns
    ta, tb = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    if grid:
        a, ta, tb = a[:, None, :], ta[:, :, None], tb[:, None, :]
    half_a, half_b = ta[2:] / 2, tb[2:] / 2
    lo_a, hi_a, lo_b, hi_b = ta[:2] - half_a, ta[:2] + half_a, tb[:2] - half_b, tb[:2] + half_b
    i = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    inter = np.where((i[0] > 0) & (i[1] > 0), i[0] * i[1], 0.0)
    side_a, side_b = hi_a - lo_a, hi_b - lo_b
    union = side_a[0] * side_a[1] + side_b[0] * side_b[1] - inter
    e = np.maximum(hi_a, hi_b) - np.minimum(lo_a, lo_b)
    return BoxPairs(lo_a, hi_a, lo_b, hi_b, i, inter, union, e, e[0] * e[1], b - a)
