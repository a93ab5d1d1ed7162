import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reldet import numeric
from reldet.checks import finite_diff_grad
from reldet.errors import ContractError, NumericError
from reldet.geometry import Box, LossWeights, box_rows
from reldet.matching import (
    Assignment,
    GroundTruth,
    brute_force_assign,
    build_cost_matrix,
    hungarian,
    hungarian_loss_terms,
)
from reldet.numeric import Tape, Tensor

import tape_chains as chain
from conftest import assert_grad_close
from tape_chains import box_loss

W = LossWeights(2.0, 5.0)


def random_probs(rng, n, k=3):
    logits = rng.standard_normal((n, k + 1))
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def random_boxes(rng, n):
    w, h = rng.uniform(0.05, 0.4, (2, n))
    return np.stack([rng.uniform(w / 2, 1 - w / 2), rng.uniform(h / 2, 1 - h / 2), w, h], axis=1)


def scalar_cost(y, probs_row, box_row, w):
    """One cost entry through the scalar geometry, pair by pair: the oracle
    for the array form of build_cost_matrix."""
    return -float(probs_row[y.class_id]) + box_loss(y.box, Box(*box_row), w)


def scalar_cost_matrix(gt, probs, boxes, w):
    return np.array([[scalar_cost(y, probs[j], boxes[j], w) for j in range(len(boxes))] for y in gt]).reshape(
        len(gt), len(boxes))


class FakeOutput:
    """Prediction tensors shaped like a detector output."""

    def __init__(self, probs, boxes):
        self.class_probs = probs
        self.boxes = boxes


def test_more_targets_than_predictions_is_capacity_error(rng):
    gts = [GroundTruth(0, Box(0.3, 0.3, 0.2, 0.2)), GroundTruth(1, Box(0.6, 0.6, 0.2, 0.2))]
    assert build_cost_matrix(gts, random_probs(rng, 2), random_boxes(rng, 2), W).shape == (2, 2)
    with pytest.raises(ContractError):
        build_cost_matrix(gts, random_probs(rng, 1), random_boxes(rng, 1), W)


def test_match_cost_perfect_and_mixed():
    b = Box(0.25, 0.25, 0.5, 0.5)
    perfect = build_cost_matrix([GroundTruth(0, b)], np.array([[1.0, 0.0]]), box_rows([b]), W)
    assert perfect.tolist() == [[-1.0]]

    # box pair with box_loss 2.5 under weights (1, 1), probability 1/2
    half = build_cost_matrix([GroundTruth(0, b)], np.array([[0.5, 0.5]]), np.array([[0.75, 0.75, 0.5, 0.5]]),
                             LossWeights(1.0, 1.0))
    assert half[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_cost_matrix_entries(rng):
    probs, boxes = random_probs(rng, 3), random_boxes(rng, 3)
    gts = [GroundTruth(0, Box(0.3, 0.3, 0.2, 0.2)), GroundTruth(2, Box(0.7, 0.7, 0.2, 0.2))]
    c = build_cost_matrix(gts, probs, boxes, W)
    assert c.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert c[i, j] == scalar_cost(gts[i], probs[j], boxes[j], W)
    # no targets give an empty [0, N] matrix
    assert build_cost_matrix([], probs, boxes, W).shape == (0, 3)
    # a single pair reduces to the scalar cost itself
    single = build_cost_matrix(gts[:1], probs[:1], boxes[:1], W)
    assert single.shape == (1, 1) and single[0, 0] == scalar_cost(gts[0], probs[0], boxes[0], W)


@pytest.mark.parametrize("seed", range(5))
def test_cost_matrix_equals_scalar_oracle_bit_for_bit_on_random_boxes(seed):
    rng = np.random.default_rng(seed)
    g, n = int(rng.integers(1, 13)), 64
    gts = [GroundTruth(int(c), Box(*row)) for c, row in zip(rng.integers(0, 3, g), random_boxes(rng, g))]
    probs, boxes = random_probs(rng, n), random_boxes(rng, n)
    # predictions that repeat a target exactly
    boxes[:g] = box_rows(y.box for y in gts)
    for w in (W, LossWeights(1.0, 0.0), LossWeights(0.0, 3.0)):
        assert build_cost_matrix(gts, probs, boxes, w).tobytes() == scalar_cost_matrix(gts, probs, boxes, w).tobytes()


def test_cost_matrix_equals_scalar_oracle_bit_for_bit_on_degenerate_boxes(rng):
    rows = [
        (0.5, 0.5, 0.2, 0.2),  # plain
        (0.5, 0.5, 0.2, 0.2),  # identical to the first
        (0.7, 0.5, 0.2, 0.2),  # touches the first along a side
        (0.7, 0.7, 0.2, 0.2),  # touches the first at a corner
        (0.1, 0.9, 0.1, 0.1),  # disjoint
        (0.5, 0.5, 0.0, 0.2),  # zero width, inside the first
        (0.5, 0.5, 0.2, 0.0),  # zero height
        (0.5, 0.5, 0.0, 0.0),  # a point at the first's center
        (0.5, 0.5, 0.0, 0.0),  # the same point again
        (0.3, 0.6, 0.0, 0.0),  # another point
        (0.5, 0.8, 0.0, 0.4),  # a vertical segment on the same line as the width-0 box
        (0.0, 0.0, 0.0, 0.0),  # a point at the origin
    ]
    boxes = np.array(rows)
    gts = [GroundTruth(i % 3, Box(*r)) for i, r in enumerate(rows)]
    probs = random_probs(rng, len(rows))
    probs[0] = [1.0, 0.0, 0.0, 0.0]
    c = build_cost_matrix(gts, probs, boxes, W)
    assert c.tobytes() == scalar_cost_matrix(gts, probs, boxes, W).tobytes()
    # identical boxes, points included, cost only the negated probability
    assert c[0, 0] == -1.0 and c[7, 8] == -probs[8, 1] and c[8, 7] == -probs[7, 2]


def test_cost_matrix_validates_inputs(rng):
    gts = [GroundTruth(0, Box(0.3, 0.3, 0.2, 0.2))]
    probs, boxes = random_probs(rng, 3), random_boxes(rng, 3)
    with pytest.raises(ContractError):
        build_cost_matrix(gts, probs, boxes[:2], W)
    with pytest.raises(ContractError):
        build_cost_matrix(gts, probs[:, :1] / probs[:, :1], boxes, W)  # no no-object column
    bad = boxes.copy()
    bad[1, 2] = -0.1
    with pytest.raises(ContractError):
        build_cost_matrix(gts, probs, bad, W)
    bad[1, 2] = np.nan
    with pytest.raises(ContractError):
        build_cost_matrix(gts, probs, bad, W)
    skewed = probs.copy()
    skewed[2, 0] += 1e-6
    with pytest.raises(ContractError):
        build_cost_matrix(gts, skewed, boxes, W)
    for class_id in (-1, 3):  # the no-object column is no target class
        with pytest.raises(ContractError):
            build_cost_matrix([GroundTruth(class_id, Box(0.3, 0.3, 0.2, 0.2))], probs, boxes, W)


def test_hungarian_fixed_cases():
    a = hungarian(np.array([[1.0, 2.0], [3.0, 1.0]]))
    assert a.perm == (0, 1) and a.total_cost == 2.0
    b = hungarian(np.array([[4.0, 1.0], [2.0, 3.0]]))
    assert b.perm == (1, 0) and b.total_cost == 3.0
    z = hungarian(np.zeros((4, 4)))
    assert z.total_cost == 0.0


def test_hungarian_rejects_bad_matrices():
    with pytest.raises(ContractError):
        hungarian(np.zeros((3, 2)))  # more rows than columns
    with pytest.raises(ContractError):
        hungarian(np.zeros(3))
    with pytest.raises(ContractError):
        brute_force_assign(np.zeros(3))
    # a non-finite cost is a numeric divergence, as any other non-finite value in a step
    for bad in (np.inf, -np.inf, np.nan):
        for solve in (hungarian, brute_force_assign):
            with pytest.raises(NumericError, match="cost matrix must be finite"):
                solve(np.array([[bad, 1.0], [1.0, 2.0]]))


def test_brute_force_basics():
    assert brute_force_assign(np.array([[7.0]])).perm == (0,)
    # unique row minima in distinct columns dominate
    c = np.array([[0.1, 5.0, 5.0], [5.0, 5.0, 0.2], [5.0, 0.3, 5.0]])
    assert brute_force_assign(c).perm == (0, 2, 1)
    with pytest.raises(ContractError):
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


def test_rectangular_null_slots_take_unmatched_columns_in_order():
    c = np.array([[5.0, 5.0, 0.0, 5.0, 5.0], [5.0, 5.0, 5.0, 5.0, 1.0]])
    a = hungarian(c)
    assert a.perm == (2, 4, 0, 1, 3) and a.total_cost == 1.0
    # no rows: every slot is a null slot, in order
    assert hungarian(np.zeros((0, 3))) == Assignment((0, 1, 2), 0.0)


def test_rectangular_matches_zero_padded_square_solve():
    rng = np.random.default_rng(11)
    for trial in range(600):
        n = int(rng.integers(2, 20))
        g = int(rng.integers(0, n + 1))
        ties = trial % 3 == 2
        c = rng.integers(-3, 4, (g, n)).astype(np.float64) if ties else rng.uniform(-2.0, 2.0, (g, n))
        rect = hungarian(c)
        square = hungarian(np.vstack([c, np.zeros((n - g, n))]))
        assert rect.total_cost == square.total_cost
        if not ties:
            assert rect.perm == square.perm


@pytest.mark.parametrize("g, n", [(1, 1), (3, 7), (6, 64), (12, 64), (16, 16), (16, 100), (16, 256)])
def test_rectangular_total_matches_scipy(g, n):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(1000 * g + n)
    for trial in range(4):
        c = rng.integers(-3, 4, (g, n)).astype(np.float64) if trial == 3 else rng.uniform(-1.0, 3.0, (g, n))
        got = hungarian(c)
        rows, cols = optimize.linear_sum_assignment(c)
        ref = float(c[rows, cols].sum())
        assert got.total_cost == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert len(set(got.perm[:g])) == g and got.total_cost == sum(c[i, got.perm[i]] for i in range(g))


def test_hungarian_loss_perfect_prediction_is_zero():
    b = Box(0.25, 0.25, 0.5, 0.5)
    probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    boxes = Tensor(np.vstack([box_rows([b]), np.zeros((1, 4))]))
    gts = [GroundTruth(0, b)]
    loss = hungarian_loss_terms(gts, FakeOutput(probs, boxes), Assignment((0, 1), 0.0), W, null_weight=1.0).total
    # p = 1 on both slots is clamped log(1) = 0; matched box is exact
    assert loss.data == 0.0


def test_hungarian_loss_single_null_slot():
    probs = Tensor(np.array([[0.5, 0.5]]))
    boxes = Tensor(np.zeros((1, 4)))
    gts = []
    loss = hungarian_loss_terms(gts, FakeOutput(probs, boxes), Assignment((0,), 0.0), W, null_weight=1.0).total
    assert loss.data == pytest.approx(np.log(2.0), abs=1e-12)
    # scaling null_weight to zero removes the only contribution
    gone = hungarian_loss_terms(gts, FakeOutput(probs, boxes), Assignment((0,), 0.0), W, null_weight=0.0).total
    assert gone.data == 0.0


def test_hungarian_loss_parts_add_up(rng):
    probs_data, boxes_data = random_probs(rng, 4, 2), random_boxes(rng, 4)
    gts = [GroundTruth(0, Box(0.3, 0.3, 0.2, 0.2)), GroundTruth(1, Box(0.7, 0.6, 0.3, 0.2))]
    out = FakeOutput(Tensor(probs_data), Tensor(boxes_data))
    parts = hungarian_loss_terms(gts, out, Assignment((2, 0, 1, 3), 0.0), W, null_weight=0.1)
    assert parts.total.data == pytest.approx(parts.cls + parts.box, abs=1e-12)


def test_hungarian_loss_rejects_an_assignment_that_misses_slots(rng):
    gts = [GroundTruth(0, Box(0.3, 0.3, 0.2, 0.2)), GroundTruth(1, Box(0.7, 0.6, 0.3, 0.2))]
    out = FakeOutput(Tensor(random_probs(rng, 3, 2)), Tensor(random_boxes(rng, 3)))
    with pytest.raises(ContractError):  # a short permutation
        hungarian_loss_terms(gts, out, Assignment((1, 0), 0.0), W)
    one = FakeOutput(Tensor(random_probs(rng, 1, 2)), Tensor(random_boxes(rng, 1)))
    with pytest.raises(ContractError):  # more targets than predictions
        hungarian_loss_terms(gts, one, Assignment((0,), 0.0), W)
    with pytest.raises(ContractError, match="set_loss needs a permutation"):  # a slot repeated: set_loss owns the rule
        hungarian_loss_terms(gts, out, Assignment((0, 0, 1), 0.0), W)


def test_hungarian_loss_gradient_matches_fd(rng):
    k = 2
    n = 3
    gts = [GroundTruth(1, Box(0.4, 0.4, 0.3, 0.3)), GroundTruth(0, Box(0.7, 0.6, 0.2, 0.25))]
    assign = Assignment((1, 2, 0), 0.0)
    logits0 = rng.standard_normal((n, k + 1))
    boxes0 = random_boxes(rng, n)

    def loss_from_logits(lg):
        probs = chain.softmax(lg)
        return hungarian_loss_terms(gts, FakeOutput(probs, Tensor(boxes0)), assign, W, null_weight=0.3).total

    lg = Tensor(logits0, requires_grad=True)
    with Tape():
        loss = loss_from_logits(lg)
    numeric.backward(loss)
    fd = finite_diff_grad(lambda: loss_from_logits(Tensor(logits0)).data, logits0)
    assert_grad_close(lg.grad, fd, rtol=1e-4, label="loss/logits")

    def loss_from_boxes(bx):
        probs = Tensor(chain.softmax(Tensor(logits0)).data)
        return hungarian_loss_terms(gts, FakeOutput(probs, bx), assign, W).total

    bx = Tensor(boxes0, requires_grad=True)
    with Tape():
        loss = loss_from_boxes(bx)
    numeric.backward(loss)
    fd = finite_diff_grad(lambda: loss_from_boxes(Tensor(boxes0)).data, boxes0)
    assert_grad_close(bx.grad, fd, rtol=1e-4, label="loss/boxes")
