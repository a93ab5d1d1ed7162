import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reldet.errors import ContractError
from reldet.numeric import Tensor
from reldet.relation import RelationGraph, aggregate, build_knn_graph, neighbor_mean_matrix

from conftest import gradcheck


def params_from(w, b):
    """aggregate's (weight, bias) tensors from arrays."""
    return Tensor(w), Tensor(b)


def knn_adjacency_oracle(centers, k):
    """The reference for ``build_knn_graph``, one sort per node: each node
    links to its k nearest others by a stable sort over the other indices."""
    pts = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    adj = np.zeros((n, n), dtype=bool)
    if n > 1 and k > 0:
        deltas = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((deltas * deltas).sum(axis=2))
        for i in range(n):
            order = sorted(j for j in range(n) if j != i)
            order.sort(key=lambda j: dist[i, j])  # stable, so index order breaks ties
            for j in order[: min(k, n - 1)]:
                adj[i, j] = adj[j, i] = True
    return adj


def test_complete_and_empty_graphs(rng):
    pts = rng.uniform(0, 1, (5, 2))
    g = build_knn_graph(pts, 4)
    np.testing.assert_array_equal(g.adjacency, ~np.eye(5, dtype=bool))  # all 5 choose 2 edges
    np.testing.assert_array_equal(build_knn_graph(pts, 99).adjacency, g.adjacency)
    assert not build_knn_graph(pts[:1], 3).adjacency.any()
    assert not build_knn_graph(pts, 0).adjacency.any()
    assert build_knn_graph(np.zeros((0, 2)), 3).adjacency.shape == (0, 0)


@pytest.mark.parametrize("seed", range(6))
def test_knn_adjacency_matches_sort_per_node_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 65))
    pts = rng.uniform(0, 1, (n, 2))
    if seed % 2:
        # a coarse grid and repeated rows make equal distances and duplicate centers
        pts = np.round(pts * 3) / 3
        pts[n // 2 :] = pts[: n - n // 2]
    for k in (1, 2, 3, 5, n - 1, n + 2):
        np.testing.assert_array_equal(build_knn_graph(pts, k).adjacency, knn_adjacency_oracle(pts, k))


@pytest.mark.parametrize("n", [16, 64])
def test_knn_adjacency_matches_the_oracle_on_duplicate_centers(n):
    # the query counts of the default and the crowded config; every center repeats another
    # and sits on a coarse grid, so equal distances occur in every row
    rng = np.random.default_rng(n)
    for _ in range(5):
        pts = (np.round(rng.uniform(0, 1, (n // 2, 2)) * 4) / 4)[rng.permutation(n) % (n // 2)]
        for k in (1, 2, 3, 5, n - 1):
            np.testing.assert_array_equal(build_knn_graph(pts, k).adjacency, knn_adjacency_oracle(pts, k))


def test_knn_duplicate_centers_tie_to_lower_index():
    pts = [(0.5, 0.5), (0.5, 0.5), (0.5, 0.5), (0.9, 0.9)]
    g = build_knn_graph(pts, 1)
    # nodes 1 and 2 pick node 0 (distance 0, lowest index); node 0 picks 1; node 3 picks 0
    assert [g.neighbors(i) for i in range(4)] == [[1, 2, 3], [0], [0], [0]]
    np.testing.assert_array_equal(g.adjacency, knn_adjacency_oracle(pts, 1))


def test_neighbor_mean_matrix_rows():
    adj = np.array([[False, True, True], [True, False, False], [True, False, False]])
    m = neighbor_mean_matrix(RelationGraph(3, adj))
    np.testing.assert_array_equal(m, [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert not neighbor_mean_matrix(RelationGraph(2, np.zeros((2, 2), dtype=bool))).any()


def test_knn_fixed_example():
    g = build_knn_graph([(0.0, 0.0), (0.0, 0.1), (0.9, 0.9)], 1)
    np.testing.assert_array_equal(g.adjacency, [[False, True, False], [True, False, True], [False, True, False]])
    assert g.neighbors(1) == [0, 2]


def test_knn_rejects_negative_k():
    with pytest.raises(ContractError):
        build_knn_graph([(0.0, 0.0)], -1)


def test_directed_out_degree_before_symmetrization(rng):
    # every node contributes min(k, n-1) directed picks; each pick appears
    # as an undirected edge, so each node's degree is at least that
    pts = rng.uniform(0, 1, (7, 2))
    for k in (1, 2, 3, 6, 8):
        g = build_knn_graph(pts, k)
        for i in range(7):
            assert len(g.neighbors(i)) >= min(k, 6)


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 4))
@settings(max_examples=40)
def test_graph_symmetry_canonical_pairs(seed, n, k):
    pts = np.random.default_rng(seed).uniform(0, 1, (n, 2))
    g = build_knn_graph(pts, k)
    assert g.adjacency.shape == (n, n) and g.adjacency.dtype == bool
    np.testing.assert_array_equal(g.adjacency, g.adjacency.T)
    assert not g.adjacency.diagonal().any()
    for a in range(n):
        for b in g.neighbors(a):
            assert 0 <= b < n and b != a
            assert a in g.neighbors(b)


def test_node_permutation_equivariance(rng):
    n, d, k = 6, 4, 2
    pts = rng.uniform(0, 1, (n, 2))
    feats = rng.standard_normal((n, d))
    p = params_from(rng.standard_normal((d, 2 * d)), rng.standard_normal(d))
    out = aggregate(Tensor(feats), build_knn_graph(pts, k), *p).data

    perm = rng.permutation(n)
    out_p = aggregate(Tensor(feats[perm]), build_knn_graph(pts[perm], k), *p).data
    np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


def test_aggregate_degenerate_weights(rng):
    n, d = 4, 3
    feats = np.abs(rng.standard_normal((n, d)))  # nonnegative, ReLU transparent
    g = build_knn_graph(rng.uniform(0, 1, (n, 2)), 2)

    zero = params_from(np.zeros((d, 2 * d)), np.zeros(d))
    np.testing.assert_array_equal(aggregate(Tensor(feats), g, *zero).data, np.zeros((n, d)))

    self_only = params_from(np.hstack([np.eye(d), np.zeros((d, d))]), np.zeros(d))
    np.testing.assert_allclose(aggregate(Tensor(feats), g, *self_only).data, feats, atol=1e-15)


def test_aggregate_neighbor_mean_example():
    # node 0 sees neighbors [1, 1] and [3, 3]; picking only the neighbor half
    # of the concat returns their mean [2, 2]
    feats = np.array([[2.0, 2.0], [1.0, 1.0], [3.0, 3.0]])
    g = RelationGraph(3, np.array([[False, True, True], [True, False, False], [True, False, False]]))
    nbr_only = params_from(np.hstack([np.zeros((2, 2)), np.eye(2)]), np.zeros(2))
    out = aggregate(Tensor(feats), g, *nbr_only).data
    np.testing.assert_allclose(out[0], [2.0, 2.0], atol=1e-15)


def test_isolated_nodes_use_zero_neighbor_mean(rng):
    n, d = 3, 2
    feats = np.abs(rng.standard_normal((n, d))) + 0.1
    g = build_knn_graph(rng.uniform(0, 1, (n, 2)), 0)  # k=0 isolates everyone
    w = rng.standard_normal((d, 2 * d))
    b = rng.standard_normal(d)
    out = aggregate(Tensor(feats), g, *params_from(w, b)).data
    expected = np.maximum(np.hstack([feats, np.zeros((n, d))]) @ w.T + b, 0.0)
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_aggregate_shape_mismatch():
    g = build_knn_graph([(0.1, 0.1), (0.9, 0.9)], 1)
    p = params_from(np.zeros((3, 6)), np.zeros(3))
    with pytest.raises(ContractError):
        aggregate(Tensor(np.zeros((4, 3))), g, *p)
    with pytest.raises(ContractError):
        aggregate(Tensor(np.zeros((2, 5))), g, *p)
    with pytest.raises(ContractError):  # a bias of the wrong length fails the affine map's check
        aggregate(Tensor(np.zeros((2, 3))), g, p[0], Tensor(np.zeros(6)))


def test_aggregate_gradients_match_fd(rng):
    n, d = 5, 3
    g = build_knn_graph(rng.uniform(0, 1, (n, 2)), 2)
    feats0 = rng.standard_normal((n, d)) + 0.3
    w0 = rng.standard_normal((d, 2 * d))
    b0 = rng.standard_normal(d)
    gradcheck(lambda f: aggregate(f, g, Tensor(w0), Tensor(b0)), feats0, rng, label="aggregate/features")
    gradcheck(lambda w: aggregate(Tensor(feats0), g, w, Tensor(b0)), w0, rng, label="aggregate/weight")
    gradcheck(lambda b: aggregate(Tensor(feats0), g, Tensor(w0), b), b0, rng, label="aggregate/bias")
