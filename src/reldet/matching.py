"""Bipartite matching between predictions and ground truth, and the set loss.

A scene's G real targets are matched to the model's N >= G predictions: a
[G, N] cost matrix is built from class probability and box distance, and an
exact assignment solver picks the G distinct predictions of minimum total
cost. The other N - G predictions answer the no-object slots, which take the
unmatched predictions in ascending index order. That is the assignment the
DETR-style square problem gives when the targets are padded to N with
no-object rows of cost zero, without solving the zero rows. The training loss
then scores log-probabilities and box terms under that fixed assignment.
Matching itself runs on detached floats and never touches the gradient tape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import numeric
from .errors import CapacityError, ContractError, DomainError, NumericError, ShapeError
from .geometry import Box, LossWeights, box_pairs, box_rows
from .numeric import Tensor

DEFAULT_NULL_WEIGHT = 0.1  # the weight of a no-object slot's class term, as in DETR


@dataclass(frozen=True)
class GroundTruth:
    """One annotated object: class id and box."""

    class_id: int
    box: Box


@dataclass(frozen=True)
class Assignment:
    """A permutation sigma over the N slots: slot i is answered by prediction
    sigma(i). Slots 0..G-1 are the real targets, the rest no-object slots. The
    solvers build valid ones; ``numeric.set_loss`` alone refuses any other."""

    perm: tuple
    total_cost: float


def build_cost_matrix(gt: list[GroundTruth], probs: np.ndarray, boxes: np.ndarray, w: LossWeights) -> np.ndarray:
    """[G, N] matrix with entry (i, j) = -p_j(class of target i) + box loss(target i, prediction j).

    ``probs`` [N, K+1] holds each prediction's class probabilities (last
    column = no object) and ``boxes`` [N, 4] its (cx, cy, w, h). The raw
    probability is used, not its log. The box loss is lambda_iou * (1 - GIoU)
    + lambda_l1 * L1 on the ``geometry.box_pairs`` grid, with the exact
    degenerate-box branches of ``BoxPairs.giou`` and L1 summed cx, cy, w, h
    from left to right.
    """
    probs = np.asarray(probs, dtype=np.float64)
    boxes = np.asarray(boxes, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] < 2 or boxes.shape != (probs.shape[0], 4):
        raise ShapeError(f"need probs [N, K+1] with K >= 1 and boxes [N, 4], got {probs.shape} and {boxes.shape}")
    n = probs.shape[0]
    if len(gt) > n:
        raise CapacityError(f"{len(gt)} ground-truth objects exceed {n} prediction slots")
    if not np.isfinite(boxes).all():
        raise DomainError("predicted boxes have non-finite fields")
    if (boxes[:, 2:] < 0).any():
        raise DomainError("predicted boxes have negative size")
    if (probs < 0).any() or (np.abs(probs.sum(axis=1) - 1.0) > 1e-9).any():
        raise ContractError("class probabilities must be nonnegative and sum to 1")
    cls = np.array([y.class_id for y in gt], dtype=np.intp)
    if ((cls < 0) | (cls >= probs.shape[1] - 1)).any():
        raise ContractError(f"target class ids {cls.tolist()} outside [0, {probs.shape[1] - 1})")
    pairs = box_pairs(box_rows(y.box for y in gt), boxes, grid=True)
    d = np.abs(pairs.delta)
    l1 = d[..., 0] + d[..., 1] + d[..., 2] + d[..., 3]
    return -probs[:, cls].T + (w.lambda_iou * (1.0 - pairs.giou()) + w.lambda_l1 * l1)


def _finite_matrix(c: np.ndarray) -> np.ndarray:
    """Float64 ``c``: ContractError unless 2-d, NumericError (a numeric divergence) unless finite."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2:
        raise ContractError(f"cost matrix must be 2-d, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise NumericError("cost matrix must be finite")
    return c


def hungarian(c: np.ndarray) -> Assignment:
    """Exact minimum-cost assignment of the n rows of an [n, m] matrix,
    n <= m, to distinct columns, via shortest augmenting paths.

    The classic potentials formulation, O(n^2 m): rows are inserted one at a
    time and each insertion grows the matching along a shortest augmenting
    path in the reduced-cost graph. Handles negative entries. The returned
    permutation covers all m columns: row i takes column perm[i], and the
    m - n unassigned columns follow in ascending order, as zero rows padding
    the matrix to a square would take them. ``total_cost`` sums the n rows'
    entries in row order.
    """
    c = _finite_matrix(c)
    n, m = c.shape
    if n > m:
        raise ContractError(f"cost matrix has more rows than columns: shape {c.shape}")
    cost = c.tolist()  # python floats: the scalar loop below runs faster on them than on numpy scalars
    inf = float("inf")
    u = [0.0] * (n + 1)  # row potentials (index 0 is a virtual row)
    v = [0.0] * (m + 1)  # column potentials
    match_col = [0] * (m + 1)  # match_col[j] = row matched to column j, 1-based; 0 = free
    way = [0] * (m + 1)

    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = inf
            j1 = 0
            row = cost[i0 - 1]
            ui0 = u[i0]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - ui0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
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
    for j in range(1, m + 1):
        if match_col[j]:
            perm[match_col[j] - 1] = j - 1
    perm += [j - 1 for j in range(1, m + 1) if not match_col[j]]
    total = sum((cost[i][perm[i]] for i in range(n)), 0.0)
    return Assignment(tuple(perm), total)


def brute_force_assign(c: np.ndarray) -> Assignment:
    """Exhaustive minimum over all n! permutations of a square matrix; the
    oracle for hungarian."""
    c = _finite_matrix(c)
    n = c.shape[0]
    if c.shape[1] != n:
        raise ContractError(f"brute force needs a square matrix, got shape {c.shape}")
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


def hungarian_loss_terms(gt: list[GroundTruth], preds, assign: Assignment, w: LossWeights,
                         null_weight: float = DEFAULT_NULL_WEIGHT) -> LossBreakdown:
    """Set-prediction loss under a fixed assignment; differentiable through preds.

    ``gt`` lists the G real targets; ``preds`` carries tensors:
    ``class_probs`` of shape [N, K+1] and ``boxes`` of shape [N, 4]; ``assign``
    covers all N slots, the G real ones first. Every slot contributes
    -log p(class) (down-weighted by ``null_weight`` on the N - G no-object
    slots); real slots add the box loss. Probabilities are clamped to 1e-12
    before the log as a numeric guard. The loss is one ``numeric.set_loss``
    record; ``set_loss`` raises ShapeError when ``assign`` does not cover N
    slots or G > N, and ContractError when it repeats a prediction.
    """
    total, cls, box = numeric.set_loss(preds.class_probs, preds.boxes, assign.perm, [y.class_id for y in gt],
                                       box_rows(y.box for y in gt), null_weight, w)
    return LossBreakdown(total, cls, box)
