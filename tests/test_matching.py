import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reldet import numeric
from reldet.errors import CapacityError, ContractError
from reldet.geometry import Box, LossWeights
from reldet.matching import (
    NULL_CLASS,
    Assignment,
    GroundTruth,
    Prediction,
    brute_force_assign,
    build_cost_matrix,
    hungarian,
    hungarian_loss_terms,
    match_cost,
    pad_targets,
)
from reldet.numeric import Tape, Tensor

from conftest import assert_grad_close

W = LossWeights(2.0, 5.0)


def make_pred(rng, k=3):
    logits = rng.standard_normal(k + 1)
    p = np.exp(logits - logits.max())
    p /= p.sum()
    w, h = rng.uniform(0.05, 0.4, 2)
    return Prediction(p, Box(rng.uniform(w / 2, 1 - w / 2), rng.uniform(h / 2, 1 - h / 2), w, h))


class FakeOutput:
    """Prediction tensors shaped like a detector output."""

    def __init__(self, probs, boxes):
        self.class_probs = probs
        self.boxes = boxes


def test_pad_targets():
    gts = [GroundTruth(0, Box(0.3, 0.3, 0.2, 0.2)), GroundTruth(1, Box(0.6, 0.6, 0.2, 0.2))]
    padded = pad_targets(gts, 4)
    assert len(padded) == 4
    assert padded[:2] == gts
    assert all(g.class_id == NULL_CLASS for g in padded[2:])

    assert all(g.class_id == NULL_CLASS for g in pad_targets([], 3))
    assert pad_targets(gts, 2) == gts
    with pytest.raises(CapacityError):
        pad_targets(gts, 1)


def test_match_cost_null_is_zero(rng):
    null = GroundTruth(NULL_CLASS, Box(0, 0, 0, 0))
    for _ in range(50):
        assert match_cost(null, make_pred(rng), W) == 0.0


def test_match_cost_perfect_and_mixed():
    b = Box(0.25, 0.25, 0.5, 0.5)
    perfect = Prediction(np.array([1.0, 0.0]), b)
    assert match_cost(GroundTruth(0, b), perfect, W) == -1.0

    # box pair with box_loss 2.5 under weights (1, 1), probability 1/2
    half = Prediction(np.array([0.5, 0.5]), Box(0.75, 0.75, 0.5, 0.5))
    assert match_cost(GroundTruth(0, b), half, LossWeights(1.0, 1.0)) == pytest.approx(2.0, abs=1e-12)


def test_cost_matrix_entries(rng):
    preds = [make_pred(rng) for _ in range(3)]
    gts = pad_targets([GroundTruth(0, Box(0.3, 0.3, 0.2, 0.2)), GroundTruth(2, Box(0.7, 0.7, 0.2, 0.2))], 3)
    c = build_cost_matrix(gts, preds, W)
    for i in range(3):
        for j in range(3):
            assert c[i, j] == match_cost(gts[i], preds[j], W)
    # all-null targets give the zero matrix
    zero = build_cost_matrix(pad_targets([], 3), preds, W)
    np.testing.assert_array_equal(zero, np.zeros((3, 3)))
    # a single pair reduces to match_cost itself
    single = build_cost_matrix(gts[:1], preds[:1], W)
    assert single.shape == (1, 1) and single[0, 0] == match_cost(gts[0], preds[0], W)


def test_hungarian_fixed_cases():
    a = hungarian(np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert a.perm == (0, 1) and a.total_cost == 2.0
    b = hungarian(np.array([[4.0, 1.0], [2.0, 3.0]]))
    assert b.perm == (1, 0) and b.total_cost == 3.0
    z = hungarian(np.zeros((4, 4)))
    assert z.total_cost == 0.0


def test_hungarian_rejects_bad_matrices():
    with pytest.raises(ContractError):
        hungarian(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        hungarian(np.array([[np.inf, 1.0], [1.0, 2.0]]))


def test_brute_force_basics():
    assert brute_force_assign(np.array([[7.0]])).perm == (0,)
    # unique row minima in distinct columns dominate
    c = np.array([[0.1, 5.0, 5.0], [5.0, 5.0, 0.2], [5.0, 0.3, 5.0]])
    assert brute_force_assign(c).perm == (0, 2, 1)
    with pytest.raises(CapacityError):
        brute_force_assign(np.zeros((10, 10)))


@pytest.mark.parametrize("n", range(2, 8))
def test_hungarian_matches_brute_force(n):
    rng = np.random.default_rng(50 + n)
    for _ in range(60):
        c = rng.uniform(-1, 1, (n, n))
        assert hungarian(c).total_cost == brute_force_assign(c).total_cost


def test_hungarian_matches_brute_force_integer_ties():
    rng = np.random.default_rng(7)
    for _ in range(60):
        c = rng.integers(0, 4, (5, 5)).astype(np.float64)
        assert hungarian(c).total_cost == brute_force_assign(c).total_cost


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_hungarian_beats_random_permutations(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    c = rng.standard_normal((n, n))
    best = hungarian(c).total_cost
    for _ in range(100):
        perm = rng.permutation(n)
        assert best <= sum(c[i, perm[i]] for i in range(n)) + 1e-12


def test_row_constant_shift_preserves_optimum(rng):
    c = rng.standard_normal((5, 5))
    base = hungarian(c)
    shifted = c.copy()
    shifted[2] += 3.5
    after = hungarian(shifted)
    assert after.total_cost == pytest.approx(base.total_cost + 3.5, abs=1e-12)
    # the original optimal permutation is still optimal for the shifted matrix
    assert sum(shifted[i, base.perm[i]] for i in range(5)) == pytest.approx(after.total_cost, abs=1e-12)


def test_assignment_validates_permutation():
    with pytest.raises(ContractError):
        Assignment((0, 0, 1), 0.0)


def test_hungarian_loss_perfect_prediction_is_zero():
    b = Box(0.25, 0.25, 0.5, 0.5)
    probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    boxes = Tensor(np.array([b.as_array(), [0.0, 0.0, 0.0, 0.0]]))
    gts = pad_targets([GroundTruth(0, b)], 2)
    loss = hungarian_loss_terms(gts, FakeOutput(probs, boxes), Assignment((0, 1), 0.0), W, null_weight=1.0).total
    # p = 1 on both slots is clamped log(1) = 0; matched box is exact
    assert float(loss) == 0.0


def test_hungarian_loss_single_null_slot():
    probs = Tensor(np.array([[0.5, 0.5]]))
    boxes = Tensor(np.zeros((1, 4)))
    gts = pad_targets([], 1)
    loss = hungarian_loss_terms(gts, FakeOutput(probs, boxes), Assignment((0,), 0.0), W, null_weight=1.0).total
    assert float(loss) == pytest.approx(np.log(2.0), abs=1e-12)
    # scaling null_weight to zero removes the only contribution
    gone = hungarian_loss_terms(gts, FakeOutput(probs, boxes), Assignment((0,), 0.0), W, null_weight=0.0).total
    assert float(gone) == 0.0


def test_hungarian_loss_parts_add_up(rng):
    probs_data = np.stack([make_pred(rng, 2).class_probs for _ in range(4)])
    boxes_data = np.stack([make_pred(rng, 2).box.as_array() for _ in range(4)])
    gts = pad_targets([GroundTruth(0, Box(0.3, 0.3, 0.2, 0.2)), GroundTruth(1, Box(0.7, 0.6, 0.3, 0.2))], 4)
    out = FakeOutput(Tensor(probs_data), Tensor(boxes_data))
    parts = hungarian_loss_terms(gts, out, Assignment((2, 0, 1, 3), 0.0), W, null_weight=0.1)
    assert float(parts.total) == pytest.approx(parts.cls + parts.box, abs=1e-12)


def test_hungarian_loss_gradient_matches_fd(rng):
    k = 2
    n = 3
    gts = pad_targets([GroundTruth(1, Box(0.4, 0.4, 0.3, 0.3)), GroundTruth(0, Box(0.7, 0.6, 0.2, 0.25))], n)
    assign = Assignment((1, 2, 0), 0.0)
    logits0 = rng.standard_normal((n, k + 1))
    boxes0 = np.stack([make_pred(rng, k).box.as_array() for _ in range(n)])

    def loss_from_logits(lg):
        probs = numeric.softmax(lg, 1)
        return hungarian_loss_terms(gts, FakeOutput(probs, Tensor(boxes0)), assign, W, null_weight=0.3).total

    lg = Tensor(logits0, requires_grad=True)
    with Tape():
        loss = loss_from_logits(lg)
    numeric.backward(loss)
    fd = numeric.finite_diff_grad(loss_from_logits, Tensor(logits0))
    assert_grad_close(lg.grad, fd.data, rtol=1e-4, label="loss/logits")

    def loss_from_boxes(bx):
        probs = Tensor(numeric.softmax(Tensor(logits0), 1).data)
        return hungarian_loss_terms(gts, FakeOutput(probs, bx), assign, W).total

    bx = Tensor(boxes0, requires_grad=True)
    with Tape():
        loss = loss_from_boxes(bx)
    numeric.backward(loss)
    fd = numeric.finite_diff_grad(loss_from_boxes, Tensor(boxes0))
    assert_grad_close(bx.grad, fd.data, rtol=1e-4, label="loss/boxes")
