import inspect
import re
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reldet import checks, numeric
from reldet.checks import finite_diff_grad
from reldet.errors import ContractError
from reldet.geometry import Box, LossWeights, box_rows
from reldet.matching import Assignment, GroundTruth, hungarian_loss_terms
from reldet.model import DetectionOutput
from reldet.numeric import Tape, Tensor, backward
from reldet.relation import build_knn_graph, neighbor_mean_matrix

import tape_chains as chain
from conftest import assert_grad_close, gradcheck, op_names


def test_tensor_shape_matches_buffer():
    t = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert t.shape == (2, 3)
    assert t.data.size == 6
    assert t.data.dtype == np.float64


def test_matmul_hand_product():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(chain.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_identity_and_annihilator(rng):
    a = Tensor(rng.standard_normal((3, 3)))
    eye = Tensor(np.eye(3))
    zero = Tensor(np.zeros((3, 3)))
    np.testing.assert_array_equal(chain.matmul(a, eye).data, a.data)
    np.testing.assert_array_equal(chain.matmul(a, zero).data, np.zeros((3, 3)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ContractError, match=r"\(2, 3\).*\(2, 3\)"):
        chain.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_matmul_associativity(m, k, n, p, seed):
    r = np.random.default_rng(seed)
    a, b, c = r.standard_normal((m, k)), r.standard_normal((k, n)), r.standard_normal((n, p))
    left = chain.matmul(chain.matmul(Tensor(a), Tensor(b)), Tensor(c)).data
    right = chain.matmul(Tensor(a), chain.matmul(Tensor(b), Tensor(c))).data
    np.testing.assert_allclose(left, right, atol=1e-9)


def test_softmax_symmetry_and_shift():
    np.testing.assert_allclose(chain.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=1e-15)
    big = chain.softmax(Tensor([1000.0, 1000.0])).data
    assert np.all(np.isfinite(big))
    np.testing.assert_allclose(big, [0.5, 0.5], atol=1e-15)


def test_softmax_derived_quarter_three_quarters():
    # exp(0) = 1 and exp(ln 3) = 3, so the slice normalizes to [1/4, 3/4]
    y = chain.softmax(Tensor([0.0, np.log(3.0)])).data
    np.testing.assert_allclose(y, [0.25, 0.75], atol=1e-15)


@given(
    # gaps above ~36 make the winning probability round to exactly 1.0 in
    # float64, so keep entries close enough that strict (0, 1) is representable
    st.lists(st.floats(-15, 15), min_size=2, max_size=6),
    st.floats(-100, 100),
)
def test_softmax_shift_invariance_and_normalization(xs, c):
    base = chain.softmax(Tensor(xs)).data
    shifted = chain.softmax(Tensor(np.asarray(xs) + c)).data
    np.testing.assert_allclose(base, shifted, atol=1e-12)
    assert abs(base.sum() - 1.0) < 1e-12
    assert np.all(base > 0) and np.all(base < 1)


def test_softmax_fmax_shift_returns_the_max_shift_values():
    # every row of 4 drawn from NaN, +-inf, +-0, +-1e308 and ordinary values; np.fmax skips a NaN
    # where np.maximum propagates it, but a NaN entry makes the row's sum NaN under either shift
    pool = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 1.0, -2.5]
    z = np.array(np.meshgrid(*[pool] * 4, indexing="ij")).reshape(4, -1).T
    with np.errstate(invalid="ignore", over="ignore"):
        got = numeric._softmax(z.copy())
        e = z - np.maximum.reduce(z, axis=-1, keepdims=True)
        np.exp(e, out=e)
        want = e / np.add.reduce(e, axis=-1, keepdims=True)
        np.testing.assert_array_equal(numeric._softmax(z.reshape(-1, 9, 4).copy()), got.reshape(-1, 9, 4))
    has_nan = np.isnan(z).any(axis=1)
    assert has_nan.sum() == len(pool) ** 4 - (len(pool) - 1) ** 4
    assert _bits(got[~has_nan]) == _bits(want[~has_nan])
    assert np.isnan(got[has_nan]).all() and np.isnan(want[has_nan]).all()


def _valid_block_calls():
    """(block name, call taking a list of the block's Tensor arguments, those arguments) for each
    of the six blocks, with arguments that the block accepts."""
    z = lambda *shape: Tensor(np.full(shape, 0.25))
    probs, boxes = Tensor(np.full((2, 3), 1 / 3)), Tensor(np.full((2, 4), 0.5))
    return [
        ("backbone", lambda ts: numeric.backbone(ts[0], ts[1:]), [z(3, 8, 8), z(27, 4), z(4), z(36, 2), z(2)]),
        ("attention_block", lambda ts: numeric.attention_block(*ts[:4], ts[4:], 2),
         [z(2, 4), z(2, 4), z(3, 4), z(3, 4), z(4, 4, 4), z(4, 4)]),
        ("ffn_block", lambda ts: numeric.ffn_block(ts[0], ts[1:]), [z(2, 4), z(4, 5), z(5), z(5, 4), z(4)]),
        ("mlp", lambda ts: numeric.mlp(ts[0], ts[1:], "softmax"), [z(2, 4), z(4, 3), z(3), z(3, 2), z(2)]),
        ("relation", lambda ts: numeric.relation(ts[0], np.eye(3), *ts[1:]), [z(3, 2), z(4, 4), z(4)]),
        ("set_loss", lambda ts: numeric.set_loss(*ts, [1, 0], [0], [[0.4, 0.4, 0.2, 0.2]], 0.1, LossWeights()),
         [probs, boxes]),
    ]


@pytest.mark.parametrize("block", range(6), ids=[name for name, _, _ in _valid_block_calls()])
def test_each_block_refuses_a_bare_array_at_any_tensor_position(block):
    name, call, tensors = _valid_block_calls()[block]
    call(tensors)
    for i in sorted({0, len(tensors) // 2, len(tensors) - 1}):
        args = [*tensors[:i], tensors[i].data, *tensors[i + 1:]]
        with pytest.raises(ContractError, match=f"^{name}: expected a Tensor, got ndarray$"):
            call(args)


def test_relu_sigmoid_layernorm_definitions():
    np.testing.assert_array_equal(chain.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    assert chain.sigmoid(Tensor([0.0])).data[0] == 0.5
    # zero variance is absorbed by eps, output is exactly zero: in the oracle
    # and in a feed-forward sublayer whose zero weights leave the residual alone
    np.testing.assert_array_equal(chain.add_layer_norm_chain(Tensor([1.0, 1.0, 1.0]), Tensor([0.5, 0.5, 0.5])).data,
                                  [0.0, 0.0, 0.0])
    zeros = [Tensor(np.zeros(shape)) for shape in [(3, 2), (2,), (2, 3), (3,)]]
    np.testing.assert_array_equal(numeric.ffn_block(Tensor([[1.5, 1.5, 1.5]]), zeros).data, [[0.0, 0.0, 0.0]])


def test_sigmoid_stable_at_extremes():
    y = chain.sigmoid(Tensor([-800.0, 800.0])).data
    assert np.all(np.isfinite(y))
    assert y[0] == pytest.approx(0.0, abs=1e-300)
    assert y[1] == pytest.approx(1.0)


def test_log_domain_error():
    with pytest.raises(ContractError):
        chain.log(Tensor([1.0, 0.0]))


def test_backward_product_rule():
    x = Tensor([2.0], requires_grad=True)
    y = Tensor([3.0], requires_grad=True)
    with Tape():
        f = chain.sum_all(chain.mul(x, y))
    backward(f)
    assert x.grad[0] == 3.0
    assert y.grad[0] == 2.0


def test_backward_sum_is_all_ones(rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    with Tape():
        f = chain.sum_all(x)
    backward(f)
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_accumulates_across_fanout():
    x = Tensor([5.0], requires_grad=True)
    with Tape():
        f = chain.sum_all(chain.mul(x, x))  # d(x^2)/dx = 2x
    backward(f)
    assert x.grad[0] == 10.0


def test_backward_requires_scalar_loss():
    # without a seed
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        y = chain.mul(x, 2.0)
    with pytest.raises(ContractError, match="scalar"):
        backward(y)


def test_backward_refuses_a_seed_of_another_shape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    for seed in [np.ones(3), np.ones((2, 1)), 1.0]:
        with Tape():
            y = chain.mul(x, 2.0)
        with pytest.raises(ContractError, match="seed"):
            backward(y, seed)


def test_backward_leaves_the_callers_seed_unchanged():
    # a pass-through rule hands the seed on as it is, and every block's rule reads it
    cases = [("add", lambda x: chain.add(x, 0.0), np.ones((2, 3)))] + checks.op_cases(np.random.default_rng(0))
    for name, op, x_data in cases:
        x = Tensor(x_data, requires_grad=True)
        with Tape():
            y = op(x)
        seed = np.random.default_rng(1).standard_normal(y.shape)
        kept = seed.copy()
        backward(y, seed)
        x.grad += 1.0
        assert _bits(seed) == _bits(kept), name


def _probe_loss(y, probe):
    """sum(y * probe) as a one-layer ``mlp`` of y flattened to [1, n]: the
    scalar loss the gradient checks built before ``backward`` took a seed."""
    n = y.data.size
    return numeric.mlp(chain.reshape(y, (1, n)), (Tensor(np.reshape(probe, (n, 1))), Tensor(np.zeros(1))))


def test_seeded_backward_equals_the_probe_loss_route_bit_for_bit():
    # on every case of every block's gradient check
    for name, op, x_data in checks.op_cases(np.random.default_rng(0)):
        probe = np.random.default_rng(1).standard_normal(op(Tensor(x_data)).shape)
        grads = []
        for seed in (probe, None):
            x = Tensor(x_data, requires_grad=True)
            with Tape():
                y = op(x)
                if seed is None:
                    y = _probe_loss(y, probe)
            backward(y, seed)
            grads.append(_bits(x.grad))
        assert grads[0] == grads[1], name


def test_backward_requires_tape():
    x = Tensor([1.0], requires_grad=True)
    y = chain.mul(x, 2.0)  # no active tape, nothing recorded
    with pytest.raises(ContractError):
        backward(y)


def test_backward_consumes_the_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = chain.sum_all(chain.mul(x, x))
    backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    assert len(tape) == 0 and x.tape is None and loss.tape is None
    with pytest.raises(ContractError, match="consumes"):
        backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_writes_an_existing_grad_in_place():
    x = Tensor([3.0], requires_grad=True)
    held = x.grad = np.zeros(1)
    with Tape():
        loss = chain.sum_all(chain.mul(x, x))
    backward(loss)
    assert x.grad is held
    np.testing.assert_array_equal(held, [6.0])


def test_unreached_leaf_with_a_grad_is_zeroed_in_place():
    x = Tensor([1.0], requires_grad=True)
    with Tape():
        loss = chain.sum_all(chain.mul(x, 3.0))
    backward(loss)
    held = x.grad
    np.testing.assert_array_equal(held, [3.0])
    y = Tensor([2.0], requires_grad=True)
    with Tape():
        _ = chain.mul(x, 1.0)  # x is on the tape but not part of the loss
        loss = chain.sum_all(chain.mul(y, y))
    backward(loss)
    assert x.grad is held
    np.testing.assert_array_equal(x.grad, [0.0])


def test_fresh_leaf_gets_a_c_ordered_grad_from_a_transposed_rule_gradient(rng):
    # relation's rule hands back w's gradient as a transposed view
    x, m = Tensor(rng.standard_normal((3, 2))), np.full((3, 3), 1 / 3)
    w_data, b = rng.standard_normal((5, 4)), Tensor(rng.standard_normal(5))
    probe = rng.standard_normal((3, 5))
    fresh, held = Tensor(w_data, requires_grad=True), Tensor(w_data, requires_grad=True)
    held.grad = np.zeros_like(w_data)
    for w in (fresh, held):
        with Tape():
            y = numeric.relation(x, m, w, b)
        backward(y, probe)
    assert fresh.grad.flags.c_contiguous
    assert fresh.grad.tobytes() == held.grad.tobytes()


def test_grad_shape_matches_data(rng):
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    with Tape():
        loss = chain.mean(chain.relu(x))
    backward(loss)
    assert x.grad.shape == x.data.shape


def test_unused_leaf_gets_zero_grad(rng):
    x = Tensor(rng.standard_normal(3), requires_grad=True)
    unused = Tensor(rng.standard_normal(3), requires_grad=True)
    with Tape():
        _ = chain.mul(unused, 1.0)  # on tape but not part of the loss
        loss = chain.sum_all(x)
    backward(loss)
    np.testing.assert_array_equal(unused.grad, np.zeros(3))


def test_tape_frees_a_dropped_intermediate_before_backward():
    x = Tensor([1.0, -2.0], requires_grad=True)
    with Tape():
        h = chain.mul(x, 3.0)  # the rules of mul(x, 3.0) and relu(h) keep no reference to h
        alive = weakref.ref(h.data)
        loss = chain.sum_all(chain.relu(h))
        del h
        assert alive() is None
    backward(loss)
    np.testing.assert_array_equal(x.grad, [3.0, 0.0])


def test_leaf_on_two_tapes_in_a_row_gets_each_tapes_gradient():
    x = Tensor([2.0], requires_grad=True)
    with Tape():
        loss = chain.sum_all(chain.mul(x, x))
    backward(loss)
    assert x.grad[0] == 4.0
    with Tape():
        loss = chain.sum_all(chain.mul(x, 3.0))
    backward(loss)
    assert x.grad[0] == 3.0


def test_op_output_marked_requires_grad_is_not_a_leaf():
    x = Tensor([2.0], requires_grad=True)
    with Tape():
        h = chain.mul(x, 3.0)
        h.requires_grad = True  # set after the op: h stays an intermediate
        loss = chain.sum_all(chain.mul(h, h))
    backward(loss)
    assert h.grad is None
    assert x.grad[0] == 36.0


def test_backward_random_composite_matches_fd(rng):
    w = rng.standard_normal((4, 3))

    def f(t):
        h = chain.matmul(t, Tensor(w))
        h = chain.relu(h)
        h = chain.add(h, 0.5)
        return chain.mean(chain.mul(h, h))

    x = Tensor(rng.standard_normal((2, 4)) + 0.1, requires_grad=True)
    with Tape():
        loss = f(x)
    backward(loss)
    xs = x.data.copy()
    fd = finite_diff_grad(lambda: f(Tensor(xs)).data, xs)
    assert_grad_close(x.grad, fd, rtol=1e-6, label="composite")


def test_finite_diff_on_quadratic():
    x = np.array([1.0, 2.0])
    fd = finite_diff_grad(lambda: chain.sum_all(chain.mul(Tensor(x), Tensor(x))).data, x)
    np.testing.assert_allclose(fd, [2.0, 4.0], atol=1e-6)
    # the one formula: base +- 1e-5 in place, then (up - dn) / (2 * 1e-5); x is restored
    up, dn = (np.sum(np.array([1.0, 2.0 + step]) ** 2) for step in (1e-5, -1e-5))
    assert finite_diff_grad(lambda: np.sum(x ** 2), x[1:]).tolist() == [(up - dn) / (2 * 1e-5)]
    assert x.tolist() == [1.0, 2.0]


def test_finite_diff_refuses_a_strided_x():
    # reshape(-1) of a transposed or strided view is a copy f never reads: every entry would read 0
    a = np.arange(6.0).reshape(2, 3)
    for view in [a.T, a[:, ::2]]:
        with pytest.raises(ContractError, match="C-contiguous"):
            finite_diff_grad(lambda: float(np.sum(a * a)), view)
    assert a.tolist() == np.arange(6.0).reshape(2, 3).tolist()


def test_finite_diff_constant_and_linear(rng):
    x = rng.standard_normal(4)
    zero = finite_diff_grad(lambda: 3.5, x)
    np.testing.assert_allclose(zero, np.zeros(4), atol=1e-12)
    ones = finite_diff_grad(lambda: np.sum(x), x)
    np.testing.assert_allclose(ones, np.ones(4), atol=1e-9)


def test_nested_tape_rejected():
    with Tape():
        with pytest.raises(ContractError):
            with Tape():
                pass


def test_tape_on_a_second_thread_is_rejected():
    errors = []

    def open_tape():
        try:
            with Tape():
                pass
        except ContractError as e:
            errors.append(e)

    with Tape():
        worker = threading.Thread(target=open_tape)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive() and len(errors) == 1


def test_tape_is_inactive_after_its_body_raises():
    with pytest.raises(ValueError):
        with Tape():
            raise ValueError("body fails")
    assert Tape.active is None


def test_finite_diff_restores_the_active_tape_when_f_raises():
    # and the entry it moved
    def f():
        raise ValueError("probe fails")

    x = np.array([1.0])
    with Tape() as tape:
        with pytest.raises(ValueError):
            finite_diff_grad(f, x)
        assert Tape.active is tape
    assert x.tolist() == [1.0]


def test_exact_shape_rule_rejects_general_broadcast():
    # a positional encoding must have the shape of the rows it is added to,
    # in the attention sublayer as in the oracle's add
    with pytest.raises(ContractError):
        chain.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
    x, proj = Tensor(np.zeros((2, 4))), [Tensor(np.zeros((4, 4, 4))), Tensor(np.zeros((4, 4)))]
    numeric.attention_block(x, Tensor(np.zeros((2, 4))), x, Tensor(np.zeros((2, 4))), proj, 2)
    for pos, kv_pos in [(Tensor(np.zeros(4)), x), (x, Tensor(np.zeros(4))), (x, Tensor(np.zeros((1, 4))))]:
        with pytest.raises(ContractError):
            numeric.attention_block(x, pos, x, kv_pos, proj, 2)
    with pytest.raises(ContractError):
        numeric.attention_block(x, 1.0, x, x, proj, 2)
    with pytest.raises(ContractError):
        numeric.attention_block(x, x, x, 1.0, proj, 2)


def test_narrow_out_of_range():
    with pytest.raises(ContractError):
        chain.narrow(Tensor(np.zeros((2, 3))), 1, 2, 2)


def test_linear_and_attention_shape_errors():
    # the affine map is a one-layer mlp
    z = lambda *shape: Tensor(np.zeros(shape))
    with pytest.raises(ContractError):
        numeric.mlp(z(2, 3), (z(2, 3), z(3)))
    with pytest.raises(ContractError):
        numeric.mlp(z(2, 3), (z(3, 4), z(3)))
    with pytest.raises(ContractError):
        chain.attention(z(2, 4), z(3, 4), z(2, 4), 2)
    with pytest.raises(ContractError):
        chain.attention(z(2, 4), z(3, 4), z(3, 4), 3)


def test_mha_and_mlp_shape_errors():
    # the attention and the perceptron inside the sublayer ops check their widths
    z = lambda *shape: Tensor(np.zeros(shape))
    proj = [z(4, 4, 4), z(4, 4)]
    attend = lambda x, kv, heads, proj=proj: numeric.attention_block(x, z(*x.shape), kv, z(*kv.shape), proj, heads)
    attend(z(2, 4), z(3, 4), 2)
    for x, kv, heads in [
        (z(2, 4), z(3, 4), 3),  # 4 columns do not split into 3 heads
        (z(2, 6), z(3, 4), 2),  # query and key widths disagree
        (z(2, 4), z(3, 6), 2),
        (z(4), z(3, 4), 2),  # not rows
        (z(2, 4), z(1, 3, 4), 2),
    ]:
        with pytest.raises(ContractError):
            attend(x, kv, heads)
    for i, bad in [(0, z(4, 4, 3)), (0, z(3, 4, 4)), (0, z(4, 4)), (0, z(4, 4, 4, 1)), (1, z(4, 3)), (1, z(3, 4)),
                   (1, z(4))]:
        with pytest.raises(ContractError, match=r"^attention_block: weight .* are not 4 width-4 projections$"):
            attend(z(2, 4), z(3, 4), 2, [*proj[:i], bad, *proj[i + 1:]])
    for tensors in [proj[:1], [*proj, z(4, 4)], [z(4, 4), z(4)] * 4]:  # the last: one tensor per projection
        with pytest.raises(ContractError, match=r"^attention_block needs a stacked projection weight and bias"):
            attend(z(2, 4), z(3, 4), 2, tensors)
    numeric.mlp(z(2, 4), [z(4, 5), z(5), z(5, 3), z(3)])
    numeric.ffn_block(z(2, 4), [z(4, 5), z(5), z(5, 4), z(4)])
    for layers in [[z(3, 5), z(5)], [z(4, 5), z(5), z(4, 3), z(3)], [z(4, 5), z(4)]]:
        for op in (numeric.mlp, numeric.ffn_block):
            with pytest.raises(ContractError):  # layer widths that do not chain
                op(z(2, 4), layers)
    with pytest.raises(ContractError):  # a feed-forward sublayer maps its rows back to their width
        numeric.ffn_block(z(2, 4), [z(4, 5), z(5), z(5, 3), z(3)])
    with pytest.raises(ContractError):  # the output functions are None, "sigmoid" and "softmax"
        numeric.mlp(z(2, 4), [z(4, 5), z(5)], "tanh")


def test_concat_roundtrip(rng):
    a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 2))
    cat = chain.concat([Tensor(a), Tensor(b)])
    np.testing.assert_array_equal(cat.data[:, :3], a)
    np.testing.assert_array_equal(cat.data[:, 3:], b)


def test_concat_rejects_leading_extents_that_disagree():
    with pytest.raises(ContractError):
        chain.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))])
    with pytest.raises(ContractError):
        chain.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros(3))])


def test_conv3x3_matches_direct_convolution(rng):
    # two channels into three, stride 2 and zero padding 1, by hand; odd
    # extents round the output up: [2, 5, 6] -> [3, 3, 3]. The oracle's stage
    # is the map, a one-stage backbone its ReLU as [9, 3] pixel rows
    x = rng.standard_normal((2, 5, 6))
    w = rng.standard_normal((18, 3))
    b = rng.standard_normal(3)
    out = chain.conv3x3(Tensor(x), Tensor(w), Tensor(b)).data
    assert out.shape == (3, 3, 3)
    kernels = w.reshape(2, 3, 3, 3)  # [c, i, j, c_out] from rows (c*3 + i)*3 + j
    expected = np.zeros((3, 3, 3))
    for co in range(3):
        for oy in range(3):
            for ox in range(3):
                acc = b[co]
                for c in range(2):
                    for i in range(3):
                        for j in range(3):
                            y, z = 2 * oy + i - 1, 2 * ox + j - 1
                            if 0 <= y < 5 and 0 <= z < 6:
                                acc += x[c, y, z] * kernels[c, i, j, co]
                expected[co, oy, ox] = acc
    np.testing.assert_allclose(out, expected, atol=1e-12)
    rows = numeric.backbone(Tensor(x), (Tensor(w), Tensor(b))).data
    np.testing.assert_allclose(rows, np.maximum(expected, 0.0).reshape(3, 9).T, atol=1e-12)


def test_conv3x3_rejects_shapes_that_disagree():
    # each backbone stage checks its input map against its weight and bias
    x, w, b = Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((18, 3))), Tensor(np.zeros(3))
    numeric.backbone(x, (w, b))
    numeric.backbone(x, (w, b, Tensor(np.zeros((27, 5))), Tensor(np.zeros(5))))
    for bad in [(Tensor(np.zeros((3, 4, 4))), w, b),  # 27 patch rows, 18 weight rows
                (x, w, Tensor(np.zeros(2))),
                (Tensor(np.zeros((2, 16))), w, b),
                (Tensor(np.zeros((2, 0, 4))), w, b),
                (x, w, b, Tensor(np.zeros((18, 5))), Tensor(np.zeros(5)))]:  # stage 1 reads 3 channels
        with pytest.raises(ContractError):
            numeric.backbone(bad[0], bad[1:])
    with pytest.raises(ContractError):
        numeric.backbone(x, (w, b, w))


# ---------------------------------------------------------------------------
# gradient suite: every differentiable primitive against the fd oracle


def _away_from_kinks(arr, gap=0.05):
    # keep relu/abs/max inputs away from their non-differentiable points
    arr = np.asarray(arr)
    return arr + np.sign(arr + 0.5) * gap


UNARY_CASES = [
    ("neg", chain.neg, None),
    ("absolute", chain.absolute, _away_from_kinks),
    ("relu", chain.relu, _away_from_kinks),
    ("sigmoid", chain.sigmoid, None),
    ("log", chain.log, lambda a: np.abs(a) + 0.5),
    ("mean", chain.mean, None),
    ("sum_all", chain.sum_all, None),
    ("softmax", chain.softmax, None),
    ("layer_norm", lambda x: chain.add_layer_norm_chain(x, Tensor(np.zeros((3, 4)))), None),
    ("transpose", chain.transpose, None),
    ("reshape", lambda x: chain.reshape(x, (6, 2)), None),
    ("narrow", lambda x: chain.narrow(x, 1, 1, 2), None),
    ("take_rows", lambda x: chain.take_rows(x, [2, 0, 2]), None),
    ("take_pairs", lambda x: chain.take_pairs(x, [0, 2, 1], [3, 0, 0]), None),
    ("im2col", lambda x: chain.im2col(chain.reshape(x, (1, 3, 4)), 2, stride=1, pad=1), None),
]


@pytest.mark.parametrize("name,op,prep", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
@pytest.mark.parametrize("draw", range(4))
def test_unary_gradients_match_fd(name, op, prep, draw):
    rng = np.random.default_rng(100 + draw)
    x = rng.standard_normal((3, 4))
    if prep is not None:
        x = prep(x)
    gradcheck(op, x, rtol=1e-4, rng=rng, label=name)


BINARY_CASES = [
    ("add", chain.add),
    ("sub", chain.sub),
    ("mul", chain.mul),
    ("div", lambda a, b: chain.div(a, chain.add(chain.mul(b, 0.1), 2.0))),
    ("maximum", chain.maximum),
    ("minimum", chain.minimum),
]


@pytest.mark.parametrize("name,op", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
@pytest.mark.parametrize("draw", range(4))
def test_binary_gradients_match_fd(name, op, draw):
    rng = np.random.default_rng(200 + draw)
    a = rng.standard_normal((2, 5))
    b = rng.standard_normal((2, 5))
    # separate the operands so max/min never sit on a tie
    b = b + np.where(np.abs(a - b) < 0.1, 0.3, 0.0)

    for side, data in (("lhs", a), ("rhs", b)):
        other = Tensor(b if side == "lhs" else a)
        wrapped = (lambda x: op(x, other)) if side == "lhs" else (lambda x: op(other, x))
        gradcheck(wrapped, data, rtol=1e-4, rng=rng, label=f"{name}/{side}")


@pytest.mark.parametrize("draw", range(4))
def test_matmul_gradients_match_fd(draw):
    rng = np.random.default_rng(300 + draw)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    gradcheck(lambda x: chain.matmul(x, Tensor(b)), a, rtol=1e-4, rng=rng, label="matmul/lhs")
    gradcheck(lambda x: chain.matmul(Tensor(a), x), b, rtol=1e-4, rng=rng, label="matmul/rhs")


@pytest.mark.parametrize("draw", range(4))
def test_structural_gradients_match_fd(draw):
    rng = np.random.default_rng(400 + draw)
    other = Tensor(rng.standard_normal((3, 2)))
    gradcheck(lambda x: chain.concat([x, other]), rng.standard_normal((3, 4)), rng=rng, label="concat")
    x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)
    gradcheck(lambda t: numeric.mlp(t, (Tensor(w), Tensor(b))), x, rng=rng, label="mlp1/x")
    gradcheck(lambda t: numeric.mlp(Tensor(x), (t, Tensor(b))), w, rng=rng, label="mlp1/w")
    gradcheck(lambda t: numeric.mlp(Tensor(x), (Tensor(w), t)), b, rng=rng, label="mlp1/b")
    x, w, b = rng.standard_normal((2, 5, 4)), rng.standard_normal((18, 3)), rng.standard_normal(3)
    gradcheck(lambda t: chain.conv3x3(t, Tensor(w), Tensor(b)), x, rng=rng, label="conv3x3/x")
    gradcheck(lambda t: chain.conv3x3(Tensor(x), t, Tensor(b)), w, rng=rng, label="conv3x3/w")
    gradcheck(lambda t: chain.conv3x3(Tensor(x), Tensor(w), t), b, rng=rng, label="conv3x3/b")
    gradcheck(lambda t: numeric.backbone(t, (Tensor(w), Tensor(b))), x, rng=rng, label="backbone/x")
    gradcheck(lambda t: numeric.backbone(Tensor(x), (t, Tensor(b))), w, rng=rng, label="backbone/w")
    gradcheck(lambda t: numeric.backbone(Tensor(x), (Tensor(w), t)), b, rng=rng, label="backbone/b")


# ---------------------------------------------------------------------------
# fused primitives against the chains of elementwise ops they replace


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize("rows", [16, 64])
def test_add_layer_norm_equals_the_chain_bit_for_bit(rows):
    # the one layer norm pair both sublayer ops use, over a residual sum,
    # against the oracle: both operands take the layer norm's input gradient
    for seed in range(20):
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((rows, 32)), rng.standard_normal((rows, 32)) * 3
        probe = rng.standard_normal((rows, 32))
        x, r = Tensor(xs[0], requires_grad=True), Tensor(xs[1], requires_grad=True)
        with Tape():
            y = chain.add_layer_norm_chain(x, r)
        backward(y, probe)
        assert _bits(x.grad) == _bits(r.grad)
        fused, inv = numeric._layer_norm(xs[0] + xs[1])
        assert _bits(fused) == _bits(y.data)
        assert _bits(numeric._layer_norm_grad(fused, inv, probe)) == _bits(x.grad)


@pytest.mark.parametrize(
    "shape",
    [(3, 32, 32), (16, 16, 16), (16, 8, 8), (2, 7, 9), (1, 8, 8), (3, 8, 40)],
    ids=["stage0", "stage1", "stage2", "odd7x9", "one_channel", "8x40"],
)
def test_conv3x3_equals_the_chain_bit_for_bit(shape):
    # a one-stage backbone, and the oracle's one-record stage and its im2col
    # chain with a ReLU and the pixel rows after them: the three backbone
    # stages and odd, one-channel and wide maps. On even seeds the input is a
    # constant to the tape, as the image is to the first stage, on odd seeds
    # it takes a gradient. Seed 0 draws a flat map, so every patch is equal
    # inside the border; seed 1 switches every ReLU off under a negative
    # probe, so -0.0 reaches every entry of the conv's gradient
    c, h, wd = shape
    ops = (lambda x, w, b: numeric.backbone(x, (w, b)),
           lambda x, w, b: chain.pixel_rows(chain.relu(chain.conv3x3(x, w, b))),
           lambda x, w, b: chain.pixel_rows(chain.relu(chain.conv3x3_chain(x, w, b))))
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x0 = np.full(shape, rng.uniform()) if seed == 0 else rng.uniform(-1, 1, shape)
        w0, b0 = rng.uniform(-1, 1, (c * 9, 16)) / 3, rng.standard_normal(16)
        probe = rng.standard_normal((((h + 1) // 2) * ((wd + 1) // 2), 16))
        if seed == 1:
            b0, probe = np.full(16, -1e3), -np.abs(probe)
        got = []
        for op in ops:
            x = Tensor(x0, requires_grad=seed % 2 == 1)
            w, b = Tensor(w0, requires_grad=True), Tensor(b0, requires_grad=True)
            with Tape():
                y = op(x, w, b)
            backward(y, probe)
            got.append((_bits(y.data), _bits(w.grad), _bits(b.grad), None if x.grad is None else _bits(x.grad)))
        assert got[0] == got[1] == got[2], f"seed {seed}: {[a == b for a, b in zip(*got)]}"


@pytest.mark.parametrize(
    "shape, stages",
    [((3, 32, 32), 3), ((3, 16, 16), 3), ((2, 7, 9), 2), ((1, 40, 8), 3)],
    ids=["default", "tiny", "odd7x9", "one_channel"],
)
def test_backbone_equals_the_chain_bit_for_bit(shape, stages):
    # the stages against the chain the model recorded before the backbone was
    # one record; seed 1 switches every last-stage ReLU off, as above
    c = shape[0]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(0, 1, shape)
        layers0 = [a for i in range(stages)
                   for a in (rng.uniform(-1, 1, ((c if i == 0 else 16) * 9, 16)) / 6, rng.standard_normal(16) / 4)]
        if seed == 1:
            layers0[-1] = np.full(16, -1e3)
        got = []
        for op in (numeric.backbone, chain.backbone_chain):
            x = Tensor(x0, requires_grad=seed % 2 == 1)
            layers = [Tensor(a, requires_grad=True) for a in layers0]
            with Tape():
                y = op(x, layers)
            backward(y, np.random.default_rng(seed).standard_normal(y.shape))
            got.append([_bits(y.data), None if x.grad is None else _bits(x.grad)] + [_bits(t.grad) for t in layers])
        assert got[0] == got[1], f"seed {seed}: {[a == b for a, b in zip(*got)]}"


@pytest.mark.parametrize("nodes", [16, 64])
def test_relation_equals_the_chain_bit_for_bit(nodes):
    # the relation step over a kNN graph's neighbour-mean matrix, isolated
    # nodes included; x takes the concat's gradient, then the product's
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x0, w0, b0 = rng.standard_normal((nodes, 32)), rng.uniform(-1, 1, (32, 64)) / 8, rng.standard_normal(32) / 4
        m = neighbor_mean_matrix(build_knn_graph(rng.uniform(0, 1, (nodes, 2)), seed % 4))
        probe = rng.standard_normal((nodes, 32))
        got = []
        for op in (numeric.relation, chain.relation_chain):
            x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
            with Tape():
                y = op(x, m, w, b)
            backward(y, probe)
            got.append([_bits(a) for a in (y.data, x.grad, w.grad, b.grad)])
        assert got[0] == got[1], f"seed {seed}: {[a == b for a, b in zip(*got)]}"


def _set_loss_problem(rng, n, ties):
    """A random scene of up to 12 targets on n queries; with ``ties`` the
    matched predictions repeat their targets, boxes sit on a 1/8 grid (shared
    edges, min/max and relu ties) and some predictions have zero size."""
    g = int(rng.integers(0, min(n, 12) + 1))
    logits = rng.standard_normal((n, 6)) * 3
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    probs[0] = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]  # zeros reach the 1e-12 clamp
    boxes = np.column_stack([rng.uniform(0, 1, (n, 2)), rng.uniform(0, 0.5, (n, 2))])
    gts = []
    for _ in range(g):
        w, h = rng.uniform(0.05, 0.4, 2)
        box = Box(rng.uniform(w / 2, 1 - w / 2), rng.uniform(h / 2, 1 - h / 2), w, h)
        gts.append(GroundTruth(int(rng.integers(0, 5)), box))
    perm = tuple(int(j) for j in rng.permutation(n))
    if ties:
        boxes = np.round(boxes * 8) / 8
        boxes[n // 2 :, 2:] = 0.0
        gts = [GroundTruth(y.class_id, Box(*(np.round(box_rows([y.box])[0] * 8) / 8))) for y in gts]
        for i, y in enumerate(gts[::2]):
            boxes[perm[2 * i]] = box_rows([y.box])[0]
    return gts, probs, boxes, Assignment(perm, 0.0)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("ties", [False, True])
def test_set_loss_equals_the_chain_bit_for_bit(n, ties):
    for seed in range(40):
        rng = np.random.default_rng(seed)
        gts, probs, boxes, assign = _set_loss_problem(rng, n, ties)
        w, null_weight, scale = LossWeights(*rng.uniform(0.5, 6.0, 2)), rng.uniform(0.0, 1.0), rng.uniform(0.5, 2.0)
        got = []
        for loss_fn in (hungarian_loss_terms, chain.hungarian_loss_chain):
            # softmax and sigmoid outputs on the tape, as in training
            lg, bl = Tensor(np.log(probs + 1e-300), requires_grad=True), Tensor(boxes, requires_grad=True)
            with Tape():
                out = DetectionOutput(chain.softmax(lg), chain.add(bl, 0.0))
                parts = loss_fn(gts, out, assign, w, null_weight)
                loss = chain.mul(parts.total, scale)
            backward(loss)
            got.append((_bits(parts.total.data), parts.cls, parts.box, _bits(lg.grad), _bits(bl.grad)))
        assert got[0] == got[1], f"seed {seed}: {[a == b for a, b in zip(*got)]}"


@pytest.mark.parametrize("queries", [16, 64])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("kind", ["self", "cross", "query"])
def test_mha_equals_the_chain_bit_for_bit(kind, heads, queries):
    # the attention sublayer against its chain, as the model wires it: "self"
    # is an encoder layer's (x attends to itself, with constant encodings);
    # "cross" a decoder layer's second sublayer (queries x + qe, keys memory +
    # pe, values memory); "query" decoder layer 0's two attention sublayers,
    # the first with x, both encodings and kv all the query embeddings qe, so
    # qe sums the gradients of four uses in one record and one in the next
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x0, q0, m0, pe = (rng.standard_normal(shape) for shape in [(queries, 32), (queries, 32), (16, 32), (16, 32)])
        if kind == "self":
            pe = rng.standard_normal((queries, 32))
        proj0 = [rng.standard_normal(shape) / 6 for shape in [(32, 32), (32,)] * 4]  # wq, bq, ..., wo, bo
        stacked = [np.stack(proj0[0::2]), np.stack(proj0[1::2])]
        probe = rng.standard_normal((queries, 32))
        got = []
        for op, arrays in ((numeric.attention_block, stacked), (chain.attention_block_chain, proj0)):
            x, qe, memory = (Tensor(a, requires_grad=True) for a in (x0, q0, m0))
            proj = [Tensor(a, requires_grad=True) for a in arrays]
            with Tape():
                if kind == "self":
                    y = op(x, Tensor(pe), x, Tensor(pe), proj, heads)
                elif kind == "cross":
                    y = op(x, qe, memory, Tensor(pe), proj, heads)
                else:
                    y = op(op(qe, qe, qe, qe, proj, heads), qe, memory, Tensor(pe), proj, heads)
            backward(y, probe)
            inputs = {"self": [x], "cross": [x, qe, memory], "query": [qe, memory]}[kind]
            grads = [t.grad for t in proj]
            if len(grads) == 8:  # the chain's one leaf per projection, joined as the op stacks them
                grads = [np.concatenate(grads[0::2]), np.concatenate(grads[1::2])]
            got.append([_bits(y.data)] + [_bits(t.grad) for t in inputs] + [_bits(g) for g in grads])
        assert got[0] == got[1], f"seed {seed}: {[a == b for a, b in zip(*got)]}"


@pytest.mark.parametrize("rows", [16, 64])
def test_ffn_block_equals_the_chain_bit_for_bit(rows):
    # the FFN sublayer (32 -> 64 -> 32): x takes the layer norm's gradient,
    # then the perceptron's
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((rows, 32))
        layers0 = [rng.uniform(-1, 1, (32, 64)) / np.sqrt(32), rng.standard_normal(64) / 4,
                   rng.uniform(-1, 1, (64, 32)) / 8, rng.standard_normal(32) / 4]
        probe = rng.standard_normal((rows, 32))
        got = []
        for op in (numeric.ffn_block, chain.ffn_block_chain):
            x = Tensor(x0, requires_grad=True)
            layers = [Tensor(a, requires_grad=True) for a in layers0]
            with Tape():
                y = op(x, layers)
            backward(y, probe)
            got.append([_bits(y.data), _bits(x.grad)] + [_bits(t.grad) for t in layers])
        assert got[0] == got[1], f"seed {seed}: {[a == b for a, b in zip(*got)]}"


SQUASH_SWEEP = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 800.0, -800.0]


def test_sigmoid_equals_the_chain_bit_for_bit():
    z = np.array(SQUASH_SWEEP + [np.inf, -np.inf, 36.0, -36.0, 710.0, -710.0])
    assert _bits(numeric._sigmoid(z)) == _bits(chain.sigmoid(Tensor(z)).data)


@pytest.mark.parametrize("rows", [16, 64])
@pytest.mark.parametrize("head", ["ffn", "box", "class"])
def test_mlp_equals_the_chain_bit_for_bit(head, rows):
    # the FFN (32 -> 64 -> 32), the box head (32 -> 32 -> 32 -> 4, sigmoid)
    # and the class head (32 -> 6, softmax); the last two box-head draws zero
    # the top weight and sweep the sigmoid's input through SQUASH_SWEEP by the
    # top bias (a product of zeros is +0.0, so -0.0 arrives as +0.0;
    # test_sigmoid_equals_the_chain_bit_for_bit has it)
    widths, output = {"ffn": ([32, 64, 32], None), "box": ([32, 32, 32, 4], "sigmoid"),
                      "class": ([32, 6], "softmax")}[head]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((rows, 32))
        layers0 = [a for n, m in zip(widths, widths[1:]) for a in (rng.uniform(-1, 1, (n, m)) / np.sqrt(n), rng.standard_normal(m) / 4)]
        if head == "box" and seed >= 8:
            layers0[-2:] = np.zeros((32, 4)), np.array(SQUASH_SWEEP[seed % 2::2])
        probe = rng.standard_normal((rows, widths[-1]))
        got = []
        for op in (numeric.mlp, chain.mlp_chain):
            x = Tensor(x0, requires_grad=True)
            layers = [Tensor(a, requires_grad=True) for a in layers0]
            with Tape():
                y = op(x, layers, output)
            backward(y, probe)
            got.append([_bits(y.data), _bits(x.grad)] + [_bits(t.grad) for t in layers])
        assert got[0] == got[1], f"seed {seed}: {[a == b for a, b in zip(*got)]}"
        # a ReLU sends -0.0 for every negative pre-activation: the first layer has some
        assert (x0 @ layers0[0] + layers0[1] < 0).any()


@pytest.mark.parametrize("rows", [16, 64])
@pytest.mark.parametrize("width_in, width_out", [(16, 32), (32, 6), (64, 32)], ids=["reduce", "class_head", "relation"])
def test_one_layer_mlp_equals_linear_bit_for_bit(width_in, width_out, rows):
    # at the shapes of the model's affine maps: the 1x1 reduction, the class head and the relation step
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x0, w0 = rng.standard_normal((rows, width_in)), rng.standard_normal((width_in, width_out))
        b0 = rng.standard_normal(width_out)
        probe = rng.standard_normal((rows, width_out))
        got = []
        for op in (lambda x, w, b: numeric.mlp(x, (w, b)), chain.linear):
            x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
            with Tape():
                y = op(x, w, b)
            backward(y, probe)
            got.append([_bits(y.data), _bits(x.grad), _bits(w.grad), _bits(b.grad)])
        assert got[0] == got[1], f"seed {seed}: {[a == b for a, b in zip(*got)]}"


def _rule_grads(op, *args):
    """The gradients one record's backward rule returns for a ones output gradient."""
    with Tape() as tape:
        y = op(*args)
    _, _, in_ids, rule = tape.records[-1]
    return rule(np.ones_like(y.data), in_ids)


def test_mha_and_mlp_skip_the_gradients_of_constant_inputs(rng):
    # a slot whose input has no node id gets None: backward indexes by id
    param = lambda *shape: Tensor(rng.standard_normal(shape), requires_grad=True)
    const = lambda *shape: Tensor(rng.standard_normal(shape))
    proj = [param(4, 4, 4), param(4, 4)]
    # cross-attention slots: x, kv, x, pos, kv, kv_pos, w, b
    grads = _rule_grads(numeric.attention_block, const(2, 4), const(2, 4), const(3, 4), const(3, 4), proj, 2)
    assert grads[:6] == (None,) * 6
    assert [g.shape for g in grads[6:]] == [(4, 4, 4), (4, 4)]
    grads = _rule_grads(numeric.attention_block, param(2, 4), const(2, 4), param(3, 4), const(3, 4),
                        [const(4, 4, 4), proj[1]], 2)
    assert grads[6] is None and grads[7].shape == (4, 4)
    grads = _rule_grads(numeric.attention_block, param(2, 4), const(2, 4), param(3, 4), const(3, 4), proj, 2)
    assert [g is None for g in grads[:6]] == [False, False, False, True, False, True]
    grads = _rule_grads(numeric.attention_block, const(2, 4), param(2, 4), const(3, 4), param(3, 4), proj, 2)
    assert [g is None for g in grads[:6]] == [True, True, True, False, True, False]
    # self-attention slots: x, x, x, pos
    x, pe = param(3, 4), const(3, 4)
    grads = _rule_grads(numeric.attention_block, x, pe, x, pe, proj, 2)
    assert [g is None for g in grads[:4]] == [False, False, False, True]
    x, pos = const(3, 4), param(3, 4)
    grads = _rule_grads(numeric.attention_block, x, pos, x, pos, proj, 2)
    assert [g is None for g in grads[:4]] == [True, True, True, False]
    layers = [param(4, 5), param(5), param(5, 2), param(2)]
    grads = _rule_grads(numeric.mlp, const(3, 4), layers)
    assert grads[0] is None and all(g is not None for g in grads[1:])
    grads = _rule_grads(numeric.mlp, const(3, 4), [const(4, 5), const(5), *layers[2:]])
    assert [g is None for g in grads] == [True, True, True, False, False]
    grads = _rule_grads(numeric.ffn_block, const(3, 4), [*layers[:2], param(5, 4), param(4)])
    assert [g is None for g in grads] == [True, True, False, False, False, False]
    # the image, which has no node id, takes no gradient; a later stage's input always does
    grads = _rule_grads(numeric.backbone, const(2, 5, 3), [param(18, 3), param(3), const(27, 2), param(2)])
    assert [g is None for g in grads] == [True, False, False, True, False]
    grads = _rule_grads(numeric.backbone, const(2, 5, 3), [const(18, 3), const(3), param(27, 2), const(2)])
    assert [g is None for g in grads] == [True, True, True, False, True]
    # relation slots: x, x, w, b
    nbr_mean = np.full((3, 3), 0.5) - 0.5 * np.eye(3)
    grads = _rule_grads(numeric.relation, const(3, 2), nbr_mean, param(2, 4), const(2))
    assert [g is None for g in grads] == [True, True, False, True]
    grads = _rule_grads(numeric.relation, param(3, 2), nbr_mean, const(2, 4), param(2))
    assert [g is None for g in grads] == [False, False, True, False]


def test_docstring_lists_every_primitive():
    # numeric's surface is the six fused blocks plus backward and tape_suspended:
    # the module docstring's bullets, the op names it records and its public
    # functions are one set
    doc = numeric.__doc__
    assert re.search(r"There are six primitives", doc)
    bullets = set(re.findall(r"^- ``(\w+)\(", doc, re.MULTILINE))
    recorded = set(re.findall(r'_record\("(\w+)"', inspect.getsource(numeric)))
    public = {name for name, obj in vars(numeric).items()
              if inspect.isfunction(obj) and obj.__module__ == numeric.__name__ and not name.startswith("_")}
    assert len(bullets) == 6 and bullets == recorded == public - {"backward", "tape_suspended"}


def test_fused_backward_rules_are_named_after_their_ops():
    x = Tensor(np.ones((2, 4)), requires_grad=True)
    probs, boxes = Tensor(np.full((2, 2), 0.5), requires_grad=True), Tensor(np.full((2, 4), 0.5), requires_grad=True)
    with Tape() as tape:
        layer = [Tensor(np.eye(4)), Tensor(np.zeros(4))]
        numeric.attention_block(x, x, x, x, [Tensor(np.stack([np.eye(4)] * 4)), Tensor(np.zeros((4, 4)))], 2)
        numeric.ffn_block(x, layer)
        numeric.set_loss(probs, boxes, [1, 0], [0], [[0.4, 0.4, 0.2, 0.2]], 0.1, LossWeights())
        kernel = Tensor(np.ones((9, 4)), requires_grad=True)
        numeric.backbone(Tensor(np.ones((1, 2, 2))), (kernel, Tensor(np.zeros(4))))
        numeric.relation(x, np.eye(2), Tensor(np.ones((4, 8))), Tensor(np.zeros(4)))
    assert op_names(tape) == ["attention_block", "ffn_block", "set_loss", "backbone", "relation"]


def test_set_loss_validates_its_inputs():
    probs, boxes = Tensor(np.full((3, 3), 1 / 3)), Tensor(np.full((3, 4), 0.5))
    target = [[0.5, 0.5, 0.2, 0.2]]
    w = LossWeights()
    with pytest.raises(ContractError):
        numeric.set_loss(probs, Tensor(np.zeros((2, 4))), [0, 1, 2], [0], target, 0.1, w)
    with pytest.raises(ContractError):
        numeric.set_loss(probs, boxes, [0, 1, 2], [0, 1], target, 0.1, w)
    with pytest.raises(ContractError):
        numeric.set_loss(probs, boxes, [0, 0, 2], [0], target, 0.1, w)
    with pytest.raises(ContractError):
        numeric.set_loss(probs, boxes, [0, 1, 2], [2], target, 0.1, w)
