import contextlib
import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from reldet import checks, data, model, numeric, training
from reldet.errors import ContractError, NumericError, ShapeError
from reldet.geometry import Box, LossWeights
from reldet.matching import GroundTruth, build_cost_matrix, hungarian, hungarian_loss_terms
from reldet.model import (
    MAX_LAYERS,
    ModelConfig,
    backbone_forward,
    box_head,
    channel_reduce,
    decode_stack,
    decoder_forward,
    encoder_forward,
    forward,
    init_params,
    param_spec,
    predict_heads,
    sinusoidal_pe,
)
from reldet.numeric import Tensor
from reldet.training import OptimizerState, train_step

import tape_chains as chain
from conftest import op_names


def multi_head_attention(q, k, v, params, prefix, num_heads):
    """The multi-head attention inside ``numeric.attention_block``, through its
    oracle ``tape_chains.mha_chain``, with the projections ``prefix.wq`` .. ``prefix.bo``."""
    return chain.mha_chain(q, k, v, [params[f"{prefix}.{name}"] for name in model._ATTN_PROJ], num_heads)


TINY = ModelConfig(image_size=(16, 16), backbone_channels=4, model_dim=8, num_heads=2,
                   num_encoder_layers=1, num_decoder_layers=1, num_queries=4, catalog=("a", "b"),
                   knn_k=1, seed=3)


def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(image_size=(20, 32))
    with pytest.raises(ContractError):
        ModelConfig(model_dim=30, num_heads=4)
    with pytest.raises(ContractError):
        ModelConfig(num_queries=0)


@pytest.mark.parametrize("config", [data.SceneConfig, ModelConfig])
@pytest.mark.parametrize("size", [[32, 32], (32, 32.0), (32,)])
def test_scene_and_model_configs_refuse_an_image_size_that_is_not_two_ints_alike(config, size):
    with pytest.raises(ContractError, match=r"^image_size must be a tuple of two integers, got "):
        config(image_size=size)


def test_config_catalog_names_the_classes():
    assert ModelConfig(catalog=("a", "b")).num_classes == 2
    assert len(dataclasses.fields(ModelConfig)) == 10  # catalog took num_classes' place
    for catalog in ["abc", ["a", "b"], ("a", 1), ("a", "a"), ()]:
        with pytest.raises(ContractError, match="catalog must be a nonempty tuple of distinct class names"):
            ModelConfig(catalog=catalog)


@pytest.mark.parametrize("field", ["num_encoder_layers", "num_decoder_layers"])
def test_config_caps_the_layer_counts(field):
    # param_spec lists every layer's tensors, so an uncapped count would grow that list without bound
    assert len(param_spec(ModelConfig(**{field: MAX_LAYERS}))) > MAX_LAYERS
    for count in (MAX_LAYERS + 1, 10**400, -1):
        with pytest.raises(ContractError, match=rf"layer counts must lie in \[0, {MAX_LAYERS}\]"):
            ModelConfig(**{field: count})


def test_model_defaults_read_the_default_scenes():
    scene, cfg = data.SceneConfig(), ModelConfig()
    assert cfg.image_size == scene.image_size == (32, 32)
    assert cfg.num_classes == len(scene.catalog) == len(data.DEFAULT_CLASSES) == 5


def test_init_params_deterministic_and_finite():
    cfg = TINY
    a = init_params(cfg)
    b = init_params(cfg)
    assert list(a) == [name for name, _, _ in param_spec(cfg)]
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)
        assert np.all(np.isfinite(a[name].data))
        assert a[name].requires_grad
    c = init_params(dataclasses.replace(cfg, seed=99))
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


def test_backbone_shape_and_zero_image():
    cfg = ModelConfig(image_size=(32, 32), backbone_channels=16)
    params = init_params(cfg)
    out = backbone_forward(Tensor(np.zeros((3, 32, 32))), params, cfg)
    assert out.shape == (16, 16)  # the 4x4 last map's pixels as rows of its 16 channels
    # zero input with zero-initialized biases stays exactly zero
    np.testing.assert_array_equal(out.data, np.zeros((16, 16)))
    with pytest.raises(ShapeError):
        backbone_forward(Tensor(np.zeros((3, 16, 16))), params, cfg)


def test_backbone_stage_matches_hand_convolution(rng):
    # a one-stage backbone call, a stride-2 3x3 conv and its ReLU, against an
    # explicit loop oracle: pixel (oy, ox) of the map is row oy*8 + ox
    cfg = TINY
    params = init_params(cfg)
    img = rng.standard_normal((3, 16, 16))
    w = params["backbone.conv0.weight"].data  # [27, C] with rows (c*3 + i)*3 + j
    b = params["backbone.conv0.bias"].data
    rows = numeric.backbone(Tensor(img), (params["backbone.conv0.weight"], params["backbone.conv0.bias"]))
    padded = np.pad(img, ((0, 0), (1, 1), (1, 1)))
    expected = np.empty((64, cfg.backbone_channels))
    for co in range(cfg.backbone_channels):
        for oy in range(8):
            for ox in range(8):
                patch = padded[:, 2 * oy : 2 * oy + 3, 2 * ox : 2 * ox + 3]
                expected[oy * 8 + ox, co] = max((patch.reshape(-1) * w[:, co]).sum() + b[co], 0.0)
    np.testing.assert_allclose(rows.data, expected, atol=1e-12)


def test_channel_reduce_identity_and_oracle(rng):
    cfg = ModelConfig(image_size=(32, 32), backbone_channels=8, model_dim=8, num_heads=2)
    params = init_params(cfg)
    f = rng.standard_normal((8, 4, 4))
    pixels = Tensor(f.reshape(8, 16).T)  # the backbone's rows: pixel (1, 2) with W' = 4 is row 6
    params["reduce.weight"] = Tensor(np.eye(8), requires_grad=True)
    params["reduce.bias"] = Tensor(np.zeros(8), requires_grad=True)
    tokens = channel_reduce(pixels, params).data
    np.testing.assert_array_equal(tokens[6], f[:, 1, 2])
    np.testing.assert_array_equal(tokens, pixels.data)

    wr = rng.standard_normal((8, 8))
    params["reduce.weight"] = Tensor(wr, requires_grad=True)
    out = channel_reduce(pixels, params).data
    expected = np.einsum("chw,cd->hwd", f, wr).reshape(16, 8)
    np.testing.assert_allclose(out, expected, atol=1e-12)

    with pytest.raises(ShapeError):
        channel_reduce(Tensor(np.zeros((16, 4))), params)
    with pytest.raises(ShapeError):
        channel_reduce(Tensor(f), params)


@pytest.mark.parametrize("cfg", [ModelConfig(), TINY], ids=["default", "tiny"])
def test_channel_reduce_equals_the_chain_bit_for_bit(cfg):
    # the backbone's rows and the reduction's tokens, against the chain of
    # conv3x3, relu, reshape, transpose and linear records they replace; the
    # tokens feed the encoder as in forward: the attention input and the
    # residual both read them, so two gradients meet at the reduction. On
    # odd seeds the image takes a gradient too
    pe = sinusoidal_pe(cfg.num_tokens, cfg.model_dim)
    def chained(image, p):
        stages = [p[f"backbone.conv{stage}.{name}"] for stage in range(3) for name in ("weight", "bias")]
        return chain.linear(chain.backbone_chain(image, stages), p["reduce.weight"], p["reduce.bias"])

    for seed in range(5):
        rng = np.random.default_rng(seed)
        image0 = rng.uniform(0, 1, (3, *cfg.image_size))
        probe = rng.standard_normal((cfg.num_tokens, cfg.model_dim))
        got = []
        for reduce in (lambda image, p: channel_reduce(backbone_forward(image, p, cfg), p), chained):
            params = init_params(cfg)
            image = Tensor(image0, requires_grad=seed % 2 == 1)
            with numeric.Tape():
                tokens = reduce(image, params)
                memory = encoder_forward(tokens, pe, params, cfg)
            numeric.backward(memory, probe)
            got.append([a.tobytes() for a in (tokens.data, memory.data, model.arena_of(params, "grad"))]
                       + [None if image.grad is None else image.grad.tobytes()])
        assert got[0] == got[1], f"seed {seed}: {[a == b for a, b in zip(*got)]}"


def test_sinusoidal_pe_values():
    pe = sinusoidal_pe(4, 6).data
    np.testing.assert_array_equal(pe[0, 0::2], np.zeros(3))
    np.testing.assert_array_equal(pe[0, 1::2], np.ones(3))
    assert pe[1, 0] == pytest.approx(np.sin(1.0))
    assert pe[1, 1] == pytest.approx(np.cos(1.0))
    assert np.all(pe >= -1) and np.all(pe <= 1)
    with pytest.raises(ContractError):
        sinusoidal_pe(4, 5)


def test_forwards_share_one_read_only_pe_table(rng, monkeypatch):
    cfg = TINY
    params = init_params(cfg)
    seen = []
    real = model.encoder_forward

    def spy(tokens, pe, params, config):
        seen.append(pe.data)
        return real(tokens, pe, params, config)

    monkeypatch.setattr(model, "encoder_forward", spy)
    image = Tensor(rng.uniform(0, 1, (3, *cfg.image_size)))
    forward(image, params, cfg)
    forward(image, params, cfg)
    assert len(seen) == 2 and seen[0] is seen[1]
    with pytest.raises(ValueError):
        seen[0][0, 0] = 1.0
    np.testing.assert_array_equal(seen[0][0, 1::2], np.ones(cfg.model_dim // 2))


def _bits(out) -> tuple:
    return out.class_probs.data.tobytes(), out.boxes.data.tobytes()


def _taped_bits(image, params, cfg) -> tuple:
    with numeric.Tape():
        return _bits(forward(image, params, cfg))


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("name", ["class_head.bias", "box_head.b2"])
def test_forward_refuses_non_finite_outputs(rng, taped, name):
    # a NaN parameter diverges the forward whether or not a tape records it
    params = init_params(TINY)
    params[name].data[0] = np.nan
    image = Tensor(rng.uniform(0, 1, (3, *TINY.image_size)))
    with numeric.Tape() if taped else contextlib.nullcontext():
        with pytest.raises(NumericError, match=r"^non-finite model outputs \(class probabilities or boxes\)$"):
            forward(image, params, TINY)


@pytest.mark.parametrize("edit", ["query_embed entry in place", "bq +0.0 to -0.0", "rebound query_embed"])
def test_tapeless_forward_follows_every_edit_of_the_query_attention_parameters(rng, edit):
    # the first decoder self-attention is reused only while its inputs keep every byte
    cfg = TINY
    params = init_params(cfg)
    image = Tensor(rng.uniform(0, 1, (3, *cfg.image_size)))
    before = _bits(forward(image, params, cfg))
    entry = model._query_attention_entry
    if edit == "query_embed entry in place":
        params["query_embed"].data[1, 2] += 0.25
    elif edit == "bq +0.0 to -0.0":
        bq = params["decoder.0.self_attn.bq"].data
        assert bq[0] == 0.0 and not np.signbit(bq[0])
        bq[0] = -0.0
    else:  # as checks.equivariance_deviations permutes the queries
        perm = np.roll(np.arange(cfg.num_queries), 1)
        params["query_embed"] = Tensor(params["query_embed"].data[perm])
    after = _bits(forward(image, params, cfg))
    assert model._query_attention_entry[0] != entry[0]
    assert after == _taped_bits(image, params, cfg)
    assert (after == before) == (edit == "bq +0.0 to -0.0")  # a signed zero bias adds the same values


def test_reloaded_checkpoint_reuses_the_query_attention(rng, tmp_path):
    cfg = TINY
    params = init_params(cfg)
    image = Tensor(rng.uniform(0, 1, (3, *cfg.image_size)))
    first = _bits(forward(image, params, cfg))
    entry = model._query_attention_entry
    training.save_checkpoint(tmp_path, params, cfg)
    loaded, loaded_cfg = training.load_checkpoint(tmp_path)
    assert model.arena_of(loaded) is not model.arena_of(params)
    assert _bits(forward(image, loaded, loaded_cfg)) == first == _taped_bits(image, loaded, loaded_cfg)
    assert model._query_attention_entry is entry


def test_head_counts_never_share_a_query_attention_entry(rng):
    # num_heads changes no parameter, only how the attention splits them
    cfgs = [TINY, dataclasses.replace(TINY, num_heads=1)]
    image = Tensor(rng.uniform(0, 1, (3, *TINY.image_size)))
    params = init_params(TINY)
    outs, keys = [], []
    for cfg in cfgs + cfgs:
        outs.append(_bits(forward(image, params, cfg)))
        keys.append(model._query_attention_entry[0])
        assert outs[-1] == _taped_bits(image, params, cfg)
    assert outs[0] != outs[1] and outs[:2] == outs[2:]
    assert keys[0] != keys[1] and keys[:2] == keys[2:]


def test_query_attention_entry_is_read_only_and_handed_on(rng, monkeypatch):
    cfg = TINY
    params = init_params(cfg)
    seen = []
    real = model._query_attention

    def spy(queries, proj, heads):
        seen.append(real(queries, proj, heads).data)
        return Tensor(seen[-1])

    monkeypatch.setattr(model, "_query_attention", spy)
    image = Tensor(rng.uniform(0, 1, (3, *cfg.image_size)))
    forward(image, params, cfg)
    forward(image, params, cfg)
    assert len(seen) == 2 and seen[0] is seen[1] is model._query_attention_entry[1]
    with pytest.raises(ValueError):
        seen[0][0, 0] = 1.0


def test_taped_forward_neither_reads_nor_writes_the_query_attention_entry(rng, monkeypatch):
    cfg = TINY
    params = init_params(cfg)
    calls = []
    real = model._query_attention

    def counter(queries, proj, heads):
        calls.append(heads)
        return real(queries, proj, heads)

    monkeypatch.setattr(model, "_query_attention", counter)
    monkeypatch.setattr(model, "_query_attention_entry", (None, None))
    image = Tensor(rng.uniform(0, 1, (3, *cfg.image_size)))
    with numeric.Tape() as tape:
        forward(image, params, cfg)
    assert calls == [] and model._query_attention_entry == (None, None)
    assert Counter(op_names(tape))["attention_block"] == cfg.num_encoder_layers + 2 * (cfg.num_decoder_layers + 1)
    forward(image, params, cfg)
    assert calls == [cfg.num_heads] and model._query_attention_entry[1] is not None


def test_attention_single_position_is_value_projection(rng):
    cfg = TINY
    params = init_params(cfg)
    x = rng.standard_normal((1, 8))
    out = multi_head_attention(Tensor(x), Tensor(x), Tensor(x), params, "encoder.0.attn", cfg.num_heads)
    v = x @ params["encoder.0.attn.wv"].data + params["encoder.0.attn.bv"].data
    expected = v @ params["encoder.0.attn.wo"].data + params["encoder.0.attn.bo"].data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_attention_bad_width_raises_shape_error(rng):
    params = init_params(TINY)
    proj = [params[f"encoder.0.attn.{name}"] for name in model._ATTN_PROJ]
    x = Tensor(rng.standard_normal((3, 8)))
    with pytest.raises(ShapeError):  # 8 columns do not split into 3 heads
        numeric.attention_block(x, x, x, x, proj, 3)
    narrow = Tensor(rng.standard_normal((3, 6)))
    with pytest.raises(ShapeError):  # 6-wide rows meet an 8-wide projection
        numeric.attention_block(narrow, narrow, narrow, narrow, proj, 2)


def test_attention_matches_hand_computation(rng):
    d = 2
    names = {}
    for proj in ("wq", "wk", "wv", "wo"):
        names[f"a.{proj}"] = Tensor(rng.standard_normal((d, d)))
    for bias in ("bq", "bk", "bv", "bo"):
        names[f"a.{bias}"] = Tensor(rng.standard_normal(d))
    x = rng.standard_normal((2, d))
    out = multi_head_attention(Tensor(x), Tensor(x), Tensor(x), names, "a", 1).data

    q = x @ names["a.wq"].data + names["a.bq"].data
    k = x @ names["a.wk"].data + names["a.bk"].data
    v = x @ names["a.wv"].data + names["a.bv"].data
    s = q @ k.T / np.sqrt(d)
    s = np.exp(s - s.max(axis=1, keepdims=True))
    s /= s.sum(axis=1, keepdims=True)
    expected = (s @ v) @ names["a.wo"].data + names["a.bo"].data
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_attention_invariant_to_joint_kv_permutation(rng):
    cfg = TINY
    params = init_params(cfg)
    q = rng.standard_normal((3, 8))
    kv = rng.standard_normal((5, 8))
    perm = rng.permutation(5)
    base = multi_head_attention(Tensor(q), Tensor(kv), Tensor(kv), params, "decoder.0.cross_attn", 2).data
    permuted = multi_head_attention(Tensor(q), Tensor(kv[perm]), Tensor(kv[perm]), params, "decoder.0.cross_attn", 2).data
    np.testing.assert_allclose(permuted, base, atol=1e-12)


def _per_head_attention(q, k, v, params, prefix, num_heads):
    """Reference: each head as its own column slices, matmuls and softmax,
    concatenated, composed from unfused primitives."""
    dh = q.shape[1] // num_heads
    qp = chain.linear(q, params[f"{prefix}.wq"], params[f"{prefix}.bq"])
    kp = chain.linear(k, params[f"{prefix}.wk"], params[f"{prefix}.bk"])
    vp = chain.linear(v, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
    heads = []
    for h in range(num_heads):
        qh = chain.narrow(qp, 1, h * dh, dh)
        kh = chain.narrow(kp, 1, h * dh, dh)
        vh = chain.narrow(vp, 1, h * dh, dh)
        scores = chain.mul(chain.matmul(qh, chain.transpose(kh)), 1.0 / math.sqrt(dh))
        heads.append(chain.matmul(chain.softmax(scores), vh))
    mixed = heads[0] if num_heads == 1 else chain.concat(heads)
    return chain.linear(mixed, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


@pytest.mark.parametrize("num_queries", [16, 64])
@pytest.mark.parametrize("num_heads", [1, 2, 4])
def test_attention_matches_per_head_reference_bit_for_bit(num_heads, num_queries):
    rng = np.random.default_rng(40 + num_heads + num_queries)
    cfg = ModelConfig()
    x = rng.standard_normal((num_queries, cfg.model_dim))
    memory = rng.standard_normal((16, cfg.model_dim))
    probe = rng.standard_normal((num_queries, cfg.model_dim))
    prefix = "decoder.0.cross_attn"
    biases = {f"{prefix}.{b}": 0.1 * rng.standard_normal(cfg.model_dim) for b in ("bq", "bk", "bv", "bo")}
    results = []
    for attend in (_per_head_attention, multi_head_attention):
        params = init_params(cfg)
        for name, bias in biases.items():
            params[name].data[:] = bias
        q, kv = Tensor(x, requires_grad=True), Tensor(memory, requires_grad=True)
        with numeric.Tape():
            out = attend(q, kv, kv, params, prefix, num_heads)
        numeric.backward(out, probe)
        grads = {name: p.grad for name, p in params.items() if name.startswith(prefix)}
        results.append({"out": out.data, "q": q.grad, "kv": kv.grad, **grads})
    reference, fused = results
    for name in reference:
        np.testing.assert_array_equal(fused[name], reference[name], err_msg=name)


def test_default_step_tape_record_count():
    # one record per model stage or transformer sublayer, and one for the set loss
    cfg = ModelConfig()
    params = init_params(cfg)
    scene = data.generate_scene(1)
    w = LossWeights()
    with numeric.Tape() as tape:
        out = forward(scene.image, params, cfg)
        forward_ops = Counter(op_names(tape))
        cost = build_cost_matrix(scene.objects, out.class_probs.data, out.boxes.data, w)
        hungarian_loss_terms(scene.objects, out, hungarian(cost), w, 0.1)
        ops = Counter(op_names(tape))
    assert len(tape) == 19
    assert forward_ops == Counter(attention_block=8, ffn_block=5, mlp=3, backbone=1, relation=1)
    assert ops - forward_ops == Counter(set_loss=1)


def test_op_cases_check_exactly_the_ops_a_training_step_records(monkeypatch):
    # both ways: every op a default train_step records keeps a
    # finite-difference check in checks.op_cases, and op_cases checks no
    # primitive that only selftest would call (selftest runs op_cases, so
    # test_call_trace cannot see one)
    checked = set()
    for _, op, x_data in checks.op_cases(np.random.default_rng(0)):
        with numeric.Tape() as tape:
            op(Tensor(x_data, requires_grad=True))
        checked.update(op_names(tape))
    recorded = set()
    real = numeric.backward

    def spy(loss):
        recorded.update(op_names(loss.tape))
        real(loss)

    monkeypatch.setattr(numeric, "backward", spy)
    cfg = ModelConfig()
    train_step(data.generate_scene(1), init_params(cfg), OptimizerState(), LossWeights(), 0.1, cfg)
    assert len(recorded) == 6
    assert checked == recorded


def _taped_step(queries: int, max_objects: int):
    """The tape and loss of one training step's forward and set loss."""
    cfg = ModelConfig(num_queries=queries)
    params = init_params(cfg)
    scene = data.generate_scene(7, data.SceneConfig(max_objects=max_objects))
    w = LossWeights()
    with numeric.Tape() as tape:
        out = forward(scene.image, params, cfg)
        cost = build_cost_matrix(scene.objects, out.class_probs.data, out.boxes.data, w)
        loss = hungarian_loss_terms(scene.objects, out, hungarian(cost), w, 0.1).total
    return tape, loss


def test_every_record_of_a_default_step_is_reached_from_the_loss():
    tape, loss = _taped_step(16, 3)
    reached = {loss.node_id}
    for _, out_id, in_ids, _ in reversed(tape.records):
        if out_id in reached:
            reached.update(nid for nid in in_ids if nid is not None)
    assert [op for op, out_id, _, _ in tape.records if out_id not in reached] == []
    numeric.backward(loss)


@pytest.mark.parametrize("queries, max_objects", [(16, 3), (64, 12)], ids=["default", "crowded"])
def test_no_rule_computes_a_gradient_for_an_input_without_a_node_id(queries, max_objects):
    tape, loss = _taped_step(queries, max_objects)
    skipped = Counter()

    def checked(op, rule):
        def wrapped(g, in_ids):
            grads = rule(g, in_ids)
            assert len(grads) == len(in_ids), op
            for nid, ig in zip(in_ids, grads):
                if nid is None:
                    assert ig is None, f"{op} returned a gradient for an input without a node id"
                    skipped[op] += 1
            return grads

        return wrapped

    tape.records[:] = [(op, out_id, in_ids, checked(op, rule)) for op, out_id, in_ids, rule in tape.records]
    numeric.backward(loss)
    # the image into the backbone, and the positional encodings of the encoder's
    # self-attention (2 layers) and of the decoder's memory keys (3 layers)
    assert skipped == Counter(backbone=1, attention_block=5)


def test_encoder_shape_token_equivariance_and_degenerate(rng):
    cfg = TINY
    params = init_params(cfg)
    tokens = rng.standard_normal((cfg.num_tokens, cfg.model_dim))
    pe = sinusoidal_pe(cfg.num_tokens, cfg.model_dim)
    out = encoder_forward(Tensor(tokens), pe, params, cfg)
    assert out.shape == tokens.shape

    perm = rng.permutation(cfg.num_tokens)
    out_p = encoder_forward(Tensor(tokens[perm]), Tensor(pe.data[perm]), params, cfg).data
    np.testing.assert_allclose(out_p, out.data[perm], atol=1e-9)

    # zero-weight sublayers leave only the residual path and the norms
    degen = dict(params)
    for name in params:
        if name.startswith("encoder.0"):
            degen[name] = Tensor(np.zeros_like(params[name].data))
    expected = chain.layer_norm(chain.layer_norm(Tensor(tokens))).data
    np.testing.assert_allclose(encoder_forward(Tensor(tokens), pe, degen, cfg).data, expected, atol=1e-12)


def test_encoder_single_layer_matches_primitive_composition(rng):
    cfg = TINY
    params = init_params(cfg)
    tokens = rng.standard_normal((cfg.num_tokens, cfg.model_dim))
    pe = sinusoidal_pe(cfg.num_tokens, cfg.model_dim)
    out = encoder_forward(Tensor(tokens), pe, params, cfg).data

    x = Tensor(tokens)
    qk = chain.add(x, pe)
    x = chain.layer_norm(chain.add(x, multi_head_attention(qk, qk, x, params, "encoder.0.attn", cfg.num_heads)))
    h = chain.relu(chain.linear(x, params["encoder.0.ffn.w1"], params["encoder.0.ffn.b1"]))
    f = chain.linear(h, params["encoder.0.ffn.w2"], params["encoder.0.ffn.b2"])
    composed = chain.layer_norm(chain.add(x, f)).data
    np.testing.assert_allclose(out, composed, atol=1e-12)


def _run_decoder(cfg, params, image_rng):
    image = Tensor(image_rng.uniform(0, 1, (3, *cfg.image_size)))
    tokens = channel_reduce(backbone_forward(image, params, cfg), params)
    pe = sinusoidal_pe(cfg.num_tokens, cfg.model_dim)
    memory = encoder_forward(tokens, pe, params, cfg)
    return memory, pe


def test_decoder_output_shapes(rng):
    cfg = TINY
    params = init_params(cfg)
    memory, pe = _run_decoder(cfg, params, rng)
    emb, prelim_boxes = decoder_forward(memory, params["query_embed"], pe, params, cfg)
    assert emb.shape == (cfg.num_queries, cfg.model_dim)
    # the preliminary boxes are the box head over the first decode pass
    x1 = decode_stack(params["query_embed"], params["query_embed"], memory, pe, params, ["decoder.0"], 2)
    np.testing.assert_array_equal(prelim_boxes.data, box_head(x1, params).data)


def test_decoder_query_permutation_equivariance(rng):
    cfg = TINY
    params = init_params(cfg)
    memory, pe = _run_decoder(cfg, params, rng)
    emb, prelim = decoder_forward(memory, params["query_embed"], pe, params, cfg)

    perm = rng.permutation(cfg.num_queries)
    emb_p, prelim_p = decoder_forward(memory, Tensor(params["query_embed"].data[perm]), pe, params, cfg)
    np.testing.assert_allclose(emb_p.data, emb.data[perm], atol=1e-9)
    np.testing.assert_allclose(prelim_p.data, prelim.data[perm], atol=1e-9)


def test_decoder_relation_ablation_equivalence(rng):
    # knn_k = 0 plus an identity-on-self relation layer reduces the relation
    # step to relu, so the refine pass runs directly on the (rectified)
    # pass-1 embeddings
    cfg = ModelConfig(image_size=(16, 16), backbone_channels=4, model_dim=8, num_heads=2,
                      num_encoder_layers=1, num_decoder_layers=1, num_queries=4, catalog=("a", "b"),
                      knn_k=0, seed=3)
    params = init_params(cfg)
    d = cfg.model_dim
    params["relation.weight"] = Tensor(np.hstack([np.eye(d), np.zeros((d, d))]), requires_grad=True)
    params["relation.bias"] = Tensor(np.zeros(d), requires_grad=True)
    memory, pe = _run_decoder(cfg, params, rng)

    emb, _ = decoder_forward(memory, params["query_embed"], pe, params, cfg)
    # the pass-1 stack consumes the query embeddings as its input sequence
    x1 = decode_stack(params["query_embed"], params["query_embed"], memory, pe, params, ["decoder.0"], 2)
    expected = decode_stack(chain.relu(x1), params["query_embed"], memory, pe, params, ["refine.0"], 2)
    np.testing.assert_allclose(emb.data, expected.data, atol=1e-12)

    # on nonnegative embeddings the identity relation layer is exactly transparent
    nonneg = Tensor(np.abs(rng.standard_normal((4, d))))
    via_relation = decode_stack(chain.relu(nonneg), params["query_embed"], memory, pe, params, ["refine.0"], 2)
    direct = decode_stack(nonneg, params["query_embed"], memory, pe, params, ["refine.0"], 2)
    np.testing.assert_allclose(via_relation.data, direct.data, atol=1e-15)


def test_predict_heads_rows(rng):
    cfg = TINY
    params = init_params(cfg)
    emb = rng.standard_normal((cfg.num_queries, cfg.model_dim))
    out = predict_heads(Tensor(emb), params)
    np.testing.assert_allclose(out.class_probs.data.sum(axis=1), np.ones(cfg.num_queries), atol=1e-9)
    assert np.all(out.boxes.data > 0) and np.all(out.boxes.data < 1)

    # zero logits mean uniform class probabilities
    params["class_head.weight"] = Tensor(np.zeros((cfg.model_dim, cfg.num_classes + 1)), requires_grad=True)
    params["class_head.bias"] = Tensor(np.zeros(cfg.num_classes + 1), requires_grad=True)
    uniform = predict_heads(Tensor(emb), params).class_probs.data
    np.testing.assert_allclose(uniform, np.full_like(uniform, 1.0 / (cfg.num_classes + 1)), atol=1e-12)


def test_forward_returns_n_deterministic_predictions(rng):
    cfg = TINY
    params = init_params(cfg)
    image = Tensor(rng.uniform(0, 1, (3, 16, 16)))
    out1 = forward(image, params, cfg)
    out2 = forward(image, params, cfg)
    assert out1.class_probs.shape == (cfg.num_queries, cfg.num_classes + 1)
    assert out1.boxes.shape == (cfg.num_queries, 4)
    np.testing.assert_array_equal(out1.class_probs.data, out2.class_probs.data)
    np.testing.assert_array_equal(out1.boxes.data, out2.boxes.data)


def test_end_to_end_gradient_on_sampled_params(rng):
    gts = [GroundTruth(0, Box(0.4, 0.4, 0.3, 0.3)), GroundTruth(1, Box(0.7, 0.3, 0.2, 0.2))]
    count, failures = checks.gradient_end_to_end(rng, TINY, gts, samples=10)
    assert count == 10 and not failures, failures
