"""Bipartite matching between predictions and ground truth, and the set loss.

Targets are padded with no-object slots to the query count N, a square cost
matrix is built from class probability and box distance, and an exact
assignment solver picks the permutation of minimum total cost. The training
loss then scores log-probabilities and box terms under that fixed assignment.
Matching itself runs on detached floats and never touches the gradient tape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import numeric
from .errors import CapacityError, ContractError, ShapeError
from .geometry import Box, LossWeights, box_loss, box_loss_pairwise
from .numeric import Tensor

# class id reserved for the no-object slot; predictions keep its probability
# in their last column, so python's negative indexing lines up for free
NULL_CLASS = -1


@dataclass(frozen=True)
class GroundTruth:
    """One annotated object: class id and box (NULL_CLASS marks a padded slot)."""

    class_id: int
    box: Box


@dataclass(frozen=True)
class Prediction:
    """One decoded query: probabilities over K+1 classes (last = no object) and a box."""

    class_probs: np.ndarray
    box: Box

    def __post_init__(self):
        p = np.asarray(self.class_probs, dtype=np.float64)
        object.__setattr__(self, "class_probs", p)
        if p.ndim != 1 or p.size < 2:
            raise ContractError(f"class_probs must be a vector over at least 2 classes, got shape {p.shape}")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ContractError("class_probs must be nonnegative and sum to 1")


@dataclass(frozen=True)
class Assignment:
    """A permutation sigma: target slot i is matched to prediction sigma(i)."""

    perm: tuple
    total_cost: float

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ContractError(f"perm {self.perm} is not a permutation")


def pad_targets(gt: list[GroundTruth], n: int) -> list[GroundTruth]:
    """Extend the target list to n slots with no-object entries."""
    if len(gt) > n:
        raise CapacityError(f"{len(gt)} ground-truth objects exceed {n} prediction slots")
    padding = [GroundTruth(NULL_CLASS, Box(0.0, 0.0, 0.0, 0.0)) for _ in range(n - len(gt))]
    return list(gt) + padding


def match_cost(y: GroundTruth, yhat: Prediction, w: LossWeights) -> float:
    """Pairwise matching cost: -p(class) + box distance, zero for no-object slots.

    Uses the raw class probability (not its log); padded slots cost 0 against
    every prediction, which keeps square padding cost-neutral.
    """
    if y.class_id == NULL_CLASS:
        return 0.0
    return -float(yhat.class_probs[y.class_id]) + box_loss(y.box, yhat.box, w)


def build_cost_matrix(gt_padded: list[GroundTruth], preds: list[Prediction], w: LossWeights) -> np.ndarray:
    """Square matrix with entry (i, j) = match_cost(target i, prediction j)."""
    if len(gt_padded) != len(preds):
        raise ShapeError(f"need equal counts, got {len(gt_padded)} targets and {len(preds)} predictions")
    n = len(preds)
    c = np.zeros((n, n))
    for i, y in enumerate(gt_padded):
        if y.class_id == NULL_CLASS:
            continue  # whole row stays 0
        for j, p in enumerate(preds):
            c[i, j] = match_cost(y, p, w)
    return c


def _check_square_finite(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ContractError(f"cost matrix must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ContractError("cost matrix must be finite")
    return c


def hungarian(c: np.ndarray) -> Assignment:
    """Exact minimum-cost assignment via shortest augmenting paths.

    The classic O(n^3) potentials formulation: rows are inserted one at a
    time and each insertion grows the matching along a shortest augmenting
    path in the reduced-cost graph. Handles negative entries.
    """
    c = _check_square_finite(c)
    n = c.shape[0]
    inf = float("inf")
    u = [0.0] * (n + 1)  # row potentials (index 0 is a virtual row)
    v = [0.0] * (n + 1)  # column potentials
    match_col = [0] * (n + 1)  # match_col[j] = row matched to column j, 1-based
    way = [0] * (n + 1)

    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = inf
            j1 = 0
            row = c[i0 - 1]
            ui0 = u[i0]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - ui0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1

    perm = [0] * n
    for j in range(1, n + 1):
        perm[match_col[j] - 1] = j - 1
    total = sum(c[i, perm[i]] for i in range(n))
    return Assignment(tuple(perm), total)


def brute_force_assign(c: np.ndarray) -> Assignment:
    """Exhaustive minimum over all n! permutations; the oracle for hungarian."""
    c = _check_square_finite(c)
    n = c.shape[0]
    if n > 9:
        raise CapacityError(f"brute force over {n}! permutations is off the table")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    totals = c[np.arange(n), perms].sum(axis=1)
    best = perms[int(np.argmin(totals))]
    total = sum(c[i, best[i]] for i in range(n))  # resummed in row order, same as hungarian
    return Assignment(tuple(int(j) for j in best), total)


@dataclass
class LossBreakdown:
    """Scalar training loss plus its detached class/box components."""

    total: Tensor
    cls: float = 0.0
    box: float = 0.0


def hungarian_loss_terms(gt_padded, preds, assign: Assignment, w: LossWeights, null_weight: float = 0.1) -> LossBreakdown:
    """Set-prediction loss under a fixed assignment; differentiable through preds.

    ``preds`` carries tensors: ``class_probs`` of shape [N, K+1] and ``boxes``
    of shape [N, 4]. Every slot contributes -log p(class) (down-weighted by
    ``null_weight`` on no-object slots); real slots add the box loss.
    Probabilities are clamped to 1e-12 before the log as a numeric guard.
    """
    probs: Tensor = preds.class_probs
    boxes: Tensor = preds.boxes
    n = len(gt_padded)
    if len(assign.perm) != n or probs.shape[0] != n:
        raise ContractError(
            f"assignment covers {len(assign.perm)} slots but got {n} targets and {probs.shape[0]} predictions"
        )
    rows = np.asarray(assign.perm, dtype=np.intp)
    cols = np.array([y.class_id for y in gt_padded], dtype=np.intp)  # NULL_CLASS=-1 hits the last column
    slot_w = np.where(cols == NULL_CLASS, float(null_weight), 1.0)

    picked = numeric.take_pairs(probs, rows, cols)
    logp = numeric.log(numeric.maximum(picked, 1e-12))
    cls_term = numeric.neg(numeric.sum_all(numeric.mul(logp, Tensor(slot_w))))

    real = np.flatnonzero(cols != NULL_CLASS)
    if real.size:
        gt_rows = np.stack([gt_padded[i].box.as_array() for i in real])
        pred_rows = numeric.take_rows(boxes, rows[real])
        box_term = numeric.sum_all(box_loss_pairwise(gt_rows, pred_rows, w))
    else:
        box_term = Tensor(0.0)
    total = numeric.add(cls_term, box_term)
    return LossBreakdown(total, float(cls_term.data), float(box_term.data))
