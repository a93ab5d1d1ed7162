"""Object-relationship modeling: kNN graph over centers, neighbor aggregation.

Each object links to its k nearest peers by Euclidean center distance and the
edge set is symmetrized, so "neighbor" is mutual. The aggregation layer mixes
an object's own features with the mean of its neighbors' features through one
affine map and a ReLU; isolated nodes see a zero neighbor mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numeric
from .errors import ContractError, ShapeError
from .numeric import Tensor


@dataclass(frozen=True)
class RelationGraph:
    """Undirected kNN graph: node count, neighbor budget, canonical edge pairs."""

    n: int
    k: int
    edges: frozenset  # of (i, j) tuples with i < j

    def neighbors(self, i: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return sorted(out)


@dataclass(frozen=True)
class RelationLayerParams:
    """Affine map applied to concat(self, neighbor mean): weight [d, 2d], bias [d]."""

    weight: Tensor
    bias: Tensor

    def __post_init__(self):
        w, b = self.weight.shape, self.bias.shape
        if len(w) != 2 or w[1] != 2 * w[0] or b != (w[0],):
            raise ShapeError(f"relation layer needs weight [d, 2d] and bias [d], got {w} and {b}")


def build_knn_graph(centers, k: int) -> RelationGraph:
    """Link every node to its k nearest others; ties broken by lower index.

    k >= n-1 yields the complete graph, n <= 1 an empty edge set. Directed
    nearest-neighbor picks are symmetrized by union.
    """
    if k < 0:
        raise ContractError(f"neighbor budget k must be nonnegative, got {k}")
    pts = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    edges = set()
    if n > 1 and k > 0:
        deltas = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((deltas * deltas).sum(axis=2))
        take = min(k, n - 1)
        for i in range(n):
            order = sorted(j for j in range(n) if j != i)
            order.sort(key=lambda j: dist[i, j])  # stable, so index order breaks ties
            for j in order[:take]:
                edges.add((i, j) if i < j else (j, i))
    return RelationGraph(n, k, frozenset(edges))


def neighbor_mean_matrix(g: RelationGraph) -> np.ndarray:
    """Row-stochastic-by-neighborhood matrix M with (M f)_i = mean of f over N(i)."""
    m = np.zeros((g.n, g.n))
    degree = np.zeros(g.n)
    for a, b in g.edges:
        m[a, b] = 1.0
        m[b, a] = 1.0
        degree[a] += 1
        degree[b] += 1
    nz = degree > 0
    m[nz] /= degree[nz, None]
    return m


def aggregate(features: Tensor, g: RelationGraph, p: RelationLayerParams) -> Tensor:
    """relu(W @ concat(self, neighbor mean) + b) per node, differentiable."""
    if len(features.shape) != 2 or features.shape[0] != g.n:
        raise ShapeError(f"features {features.shape} do not match graph with {g.n} nodes")
    if p.weight.shape != (features.shape[1], 2 * features.shape[1]):
        raise ShapeError(f"relation weight {p.weight.shape} does not match feature width {features.shape[1]}")
    nbr = numeric.matmul(Tensor(neighbor_mean_matrix(g)), features)
    h = numeric.concat([features, nbr], axis=1)
    return numeric.relu(numeric.linear(h, numeric.transpose(p.weight), p.bias))
