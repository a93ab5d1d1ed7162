"""Object-relationship modeling: kNN graph over centers, neighbor aggregation.

Each object links to its k nearest peers by Euclidean center distance and the
edge set is symmetrized, so "neighbor" is mutual. The aggregation layer mixes
an object's own features with the mean of its neighbors' features through one
affine map and a ReLU, one ``numeric.relation`` record; isolated nodes see a
zero neighbor mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numeric
from .errors import ContractError
from .numeric import Tensor


@dataclass(frozen=True, eq=False)
class RelationGraph:
    """Undirected kNN graph: the symmetric boolean adjacency [n, n] (False on
    the diagonal); ``n``, the node count, is its side."""

    adjacency: np.ndarray

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def neighbors(self, i: int) -> list[int]:
        return np.flatnonzero(self.adjacency[i]).tolist()


def build_knn_graph(centers, k: int) -> RelationGraph:
    """Link every node to its k nearest others; ties broken by lower index.

    k >= n-1 yields the complete graph, n <= 1 an empty edge set. Directed
    nearest-neighbor picks are symmetrized by union.
    """
    if k < 0:
        raise ContractError(f"neighbor budget k must be nonnegative, got {k}")
    pts = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    adj = np.zeros((n, n), dtype=bool)
    if n > 1 and k > 0:
        dx = pts[:, 0, None] - pts[None, :, 0]
        dy = pts[:, 1, None] - pts[None, :, 1]
        dist = np.sqrt(dx * dx + dy * dy)
        np.fill_diagonal(dist, np.inf)  # a node is never its own neighbor
        row_start = np.arange(0, n * n, n)  # node i's pick j is entry i*n + j of the flat [n, n] arrays
        flat_adj, flat_dist = adj.reshape(-1), dist.reshape(-1)  # views: both arrays are C-contiguous
        for _ in range(min(k, n - 1)):
            # argmin returns the first of equal minima, so ties go to the lower index
            nearest = dist.argmin(axis=1)
            nearest += row_start
            flat_adj[nearest] = True
            flat_dist[nearest] = np.inf
        adj |= adj.T
    return RelationGraph(adj)


def neighbor_mean_matrix(g: RelationGraph) -> np.ndarray:
    """Row-stochastic-by-neighborhood matrix M with (M f)_i = mean of f over N(i)."""
    degree = g.adjacency.sum(axis=1)
    return g.adjacency / np.maximum(degree, 1)[:, None]


def aggregate(features: Tensor, g: RelationGraph, weight: Tensor, bias: Tensor) -> Tensor:
    """relu(weight @ concat(self, neighbor mean) + bias) per node, differentiable;
    weight [d, 2d] and bias [d] for features [n, d]. ``numeric.relation``
    checks the shapes; the neighbor-mean matrix is a constant."""
    return numeric.relation(features, neighbor_mean_matrix(g), weight, bias)
