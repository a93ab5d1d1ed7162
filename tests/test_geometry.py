import numpy as np
import pytest
from hypothesis import given, strategies as st

from reldet import numeric
from reldet.errors import ContractError, DomainError
from reldet.geometry import Box, BoxPairs, LossWeights, box_pairs, box_rows
from reldet.numeric import Tensor

from conftest import gradcheck
from tape_chains import box_loss, from_corners, giou, iou


def random_box(rng, lo=0.02, hi=0.45):
    w = rng.uniform(lo, hi)
    h = rng.uniform(lo, hi)
    cx = rng.uniform(w / 2, 1 - w / 2)
    cy = rng.uniform(h / 2, 1 - h / 2)
    return Box(cx, cy, w, h)


def test_to_corners_cases():
    assert Box(0.5, 0.5, 1.0, 1.0).to_corners() == (0.0, 0.0, 1.0, 1.0)
    assert Box(0.5, 0.5, 0.0, 0.0).to_corners() == (0.5, 0.5, 0.5, 0.5)
    assert Box(0.25, 0.25, 0.5, 0.5).to_corners() == (0.0, 0.0, 0.5, 0.5)


def test_box_rejects_negative_size():
    with pytest.raises(DomainError):
        Box(0.5, 0.5, -0.1, 0.1)


def test_loss_weights_validation():
    with pytest.raises(ContractError):
        LossWeights(0.0, 0.0)
    with pytest.raises(ContractError):
        LossWeights(-1.0, 1.0)


def test_iou_identical_disjoint_and_sevenths():
    a = Box(0.3, 0.3, 0.2, 0.2)
    assert iou(a, a) == 1.0
    assert iou(Box(0.1, 0.1, 0.1, 0.1), Box(0.9, 0.9, 0.1, 0.1)) == 0.0
    # corner rectangles (0,0,2,2) and (1,1,3,3): intersection 1, union 7
    assert iou(from_corners(0, 0, 2, 2), from_corners(1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-15)


def test_giou_fixed_cases():
    a = from_corners(0, 0, 2, 2)
    b = from_corners(1, 1, 3, 3)
    assert giou(a, a) == 1.0
    # 1/7 - (9 - 7)/9 = -5/63
    assert giou(a, b) == pytest.approx(-5 / 63, abs=1e-15)
    # side-touching unit boxes: intersection 0, union 2, enclosing box 2
    assert giou(from_corners(0, 0, 1, 1), from_corners(1, 0, 2, 1)) == 0.0


def test_giou_degenerate_points():
    p = Box(0.5, 0.5, 0.0, 0.0)
    q = Box(0.2, 0.7, 0.0, 0.0)
    assert giou(p, p) == 1.0
    assert iou(p, q) == 0.0
    # distinct points on a vertical segment: degenerate enclosing box
    assert giou(Box(0.5, 0.2, 0.0, 0.0), Box(0.5, 0.8, 0.0, 0.0)) == 0.0


@given(st.integers(0, 2**32 - 1))
def test_giou_range_order_symmetry(seed):
    rng = np.random.default_rng(seed)
    a, b = random_box(rng), random_box(rng)
    g = giou(a, b)
    assert -1.0 < g <= 1.0
    assert g <= iou(a, b) + 1e-15
    assert g == giou(b, a)


def test_giou_equals_iou_iff_enclose_equals_union():
    # perfect tiling: union fills the enclosing box exactly
    left = from_corners(0.0, 0.0, 0.5, 1.0)
    right = from_corners(0.5, 0.0, 1.0, 1.0)
    assert giou(left, right) == iou(left, right)
    # with a gap the enclosing box is strictly larger
    gapped = from_corners(0.6, 0.0, 1.0, 1.0)
    assert giou(left, gapped) < iou(left, gapped)


def test_box_loss_values():
    w11 = LossWeights(1.0, 1.0)
    b = Box(0.25, 0.25, 0.5, 0.5)
    bh = Box(0.75, 0.75, 0.5, 0.5)
    assert box_loss(b, b, w11) == 0.0
    # giou = -0.5 and L1 = 1.0, so 1*(1.5) + 1*(1.0)
    assert giou(b, bh) == pytest.approx(-0.5, abs=1e-15)
    assert box_loss(b, bh, w11) == pytest.approx(2.5, abs=1e-12)
    assert box_loss(b, bh, LossWeights(0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_box_loss_zero_on_self(seed):
    rng = np.random.default_rng(seed)
    b = random_box(rng)
    w = LossWeights(rng.uniform(0.1, 3.0), rng.uniform(0.1, 6.0))
    assert box_loss(b, b, w) == 0.0


def _box_term(target: Box, pred_rows, w: LossWeights) -> Tensor:
    """The set loss's box term for one target matched to prediction 0 of
    ``pred_rows``, with the class term switched off."""
    n = pred_rows.shape[0]
    probs = Tensor(np.tile([1.0, 0.0], (n, 1)))
    perm = list(range(n))
    return numeric.set_loss(probs, pred_rows, perm, [0], box_rows([target]), 0.0, w)[0]


def test_tensor_path_matches_scalar_path(rng):
    # the kernel's GIoU equals the scalar oracle's bit for bit; the set loss's
    # box term (1e-12 floors, L1 as a BLAS product) equals it to rounding
    w = LossWeights(2.0, 5.0)
    for _ in range(200):
        a, b = random_box(rng), random_box(rng)
        assert box_pairs(box_rows([a]), box_rows([b])).giou()[0] == giou(a, b)
        l_tensor = _box_term(a, Tensor(box_rows([b])), w)
        assert l_tensor.data == pytest.approx(box_loss(a, b, w), abs=1e-12)


def test_box_loss_gradient_matches_fd(rng):
    w = LossWeights(2.0, 5.0)
    for trial in range(10):
        b = random_box(rng)
        bh_data = box_rows([random_box(rng)])
        gradcheck(lambda t: _box_term(b, t, w), bh_data, rng=rng,
                  label=f"box_loss trial {trial}")


PER_AXIS = ("lo_a", "hi_a", "lo_b", "hi_b", "i", "e")  # the BoxPairs fields with x and y on a leading axis


@pytest.mark.parametrize("g, n", [(5, 7), (6, 3), (0, 4), (3, 0)])
def test_box_pairs_put_x_and_y_on_one_contiguous_leading_axis(rng, g, n):
    # every per-axis term is [2, ...], C-contiguous, so each axis row is one
    # contiguous array, in both modes and for empty inputs; the aligned pairs
    # equal the grid's diagonal bit for bit
    a = box_rows([random_box(rng) for _ in range(g)])
    b = box_rows([random_box(rng) for _ in range(n)])
    m = min(g, n)
    grid, rows = box_pairs(a, b, grid=True), box_pairs(a[:m], b[:m])
    diag = np.arange(m)
    for name in BoxPairs._fields:
        full, got = getattr(grid, name), getattr(rows, name)
        if name in PER_AXIS:
            assert full.shape[0] == 2 and np.broadcast_shapes(full.shape, (2, g, n)) == (2, g, n), name
            assert got.shape == (2, m) and full.flags.c_contiguous and got.flags.c_contiguous, name
            full = np.broadcast_to(full, (2, g, n))[:, diag, diag]
        else:
            assert full.shape[:2] == (g, n) and got.shape[:1] == (m,), name
            full = full[diag, diag]
        assert got.tobytes() == np.ascontiguousarray(full).tobytes(), name


def test_giou_pairwise_batch_consistency(rng):
    a = box_rows([random_box(rng) for _ in range(64)])
    b = box_rows([random_box(rng) for _ in range(64)])
    rows, grid = box_pairs(a, b), box_pairs(a, b, grid=True)
    for i in range(64):
        assert rows.giou()[i] == giou(Box(*a[i]), Box(*b[i]))
        assert rows.iou()[i] == iou(Box(*a[i]), Box(*b[i]))
        for j in range(0, 64, 7):
            assert grid.giou()[i, j] == giou(Box(*a[i]), Box(*b[j]))
            assert grid.iou()[i, j] == iou(Box(*a[i]), Box(*b[j]))
