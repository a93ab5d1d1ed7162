import dataclasses
import gc
import hashlib
import json
import os
import re
import weakref

import numpy as np
import pytest

from reldet import numeric, training
from reldet.data import DEFAULT_CLASSES, SceneConfig, generate_scene
from reldet.errors import ContractError, IntegrityError, NumericError
from reldet.geometry import LossWeights
from reldet.model import ModelConfig, arena_of, arena_views, forward, init_params, param_spec
from reldet.numeric import Tensor
from reldet.training import (
    ADAM_EPS,
    BETA1,
    BETA2,
    OptimizerState,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    train,
    train_step,
    write_log,
)

import tape_chains as chain

CFG = ModelConfig(image_size=(16, 16), backbone_channels=4, model_dim=8, num_heads=2,
                  num_encoder_layers=1, num_decoder_layers=1, num_queries=6, catalog=DEFAULT_CLASSES,
                  knn_k=2, seed=0)


def small_scene(seed=2):
    return generate_scene(seed, SceneConfig(image_size=(16, 16), max_objects=3))


def arena(**arrays):
    """Parameters name -> array copied into one arena, as init_params makes them."""
    layout = [(name, np.shape(a)) for name, a in arrays.items()]
    return arena_views(layout, np.concatenate([np.ravel(np.asarray(a, dtype=float)) for a in arrays.values()]))


def adam_per_tensor(params, grads, state):
    """The per-tensor Adam loop, kept as the bit-for-bit oracle of adam_step."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m += (1.0 - BETA1) * (g - m)
        v += (1.0 - BETA2) * (g * g - v)
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def test_adam_zero_grads_keep_params():
    params = arena(w=[1.0, -2.0])
    state = OptimizerState()
    adam_step(params, state)
    np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_is_signed_lr():
    params = arena(w=[0.5, -0.5])
    params["w"].grad[...] = [0.3, -4.0]
    adam_step(params, OptimizerState(lr=1e-3))
    # bias-corrected first step is -lr * g / (|g| + eps), about -lr * sign(g)
    np.testing.assert_allclose(params["w"].data, [0.5 - 1e-3, -0.5 + 1e-3], atol=1e-8)


def test_adam_descends_quadratic():
    params = arena(x=[1.0])
    state = OptimizerState(lr=1e-2)
    prev = 1.0
    for _ in range(100):
        params["x"].grad[...] = 2.0 * params["x"].data
        adam_step(params, state)
        cur = abs(float(params["x"].data[0]))
        assert cur <= prev + 1e-12
        prev = cur
    assert prev < 1.0


def test_adam_rejects_non_finite_gradients():
    params = arena(a=[1.0, 2.0], w=[1.0], z=[3.0])
    params["w"].grad[...] = np.nan
    state = OptimizerState()
    with pytest.raises(NumericError, match="parameter w$"):
        adam_step(params, state)
    # nothing moved: the check runs over the whole arena before the update
    np.testing.assert_array_equal(arena_of(params), [1.0, 2.0, 1.0, 3.0])
    assert state.step == 0


def test_adam_state_is_its_step_and_two_moments():
    # the update's scratch lives for one step; the state keeps only what the next step reads
    params = arena(w=[0.5, -0.5])
    params["w"].grad[...] = [0.3, -4.0]
    state = OptimizerState()
    adam_step(params, state)
    assert [f.name for f in dataclasses.fields(OptimizerState)] == ["lr", "step", "m", "v"]
    assert vars(state).keys() == {"lr", "step", "m", "v"}


def test_adam_matches_per_tensor_oracle_bit_for_bit():
    rng = np.random.default_rng(7)
    flat_params, loop_params = init_params(CFG), init_params(CFG)
    flat_state = OptimizerState(lr=3e-3)
    loop_state = OptimizerState(lr=3e-3, m={}, v={})
    names = list(flat_params)
    for step in range(50):
        grads = {}
        for name, p in flat_params.items():
            scale = 10.0 ** rng.integers(-6, 3)
            grads[name] = scale * rng.standard_normal(p.shape)
        grads[names[3]] = np.zeros(flat_params[names[3]].shape)  # a parameter that never gets a gradient
        if step % 10 == 4:
            grads = {name: np.zeros(g.shape) for name, g in grads.items()}  # an all-zero step
        for name, g in grads.items():
            flat_params[name].grad[...] = g
        adam_step(flat_params, flat_state)
        adam_per_tensor(loop_params, grads, loop_state)
    assert flat_state.step == loop_state.step == 50
    for name in names:
        assert flat_params[name].data.tobytes() == loop_params[name].data.tobytes(), name
    assert flat_state.m.tobytes() == np.concatenate([loop_state.m[n].ravel() for n in names]).tobytes()
    assert flat_state.v.tobytes() == np.concatenate([loop_state.v[n].ravel() for n in names]).tobytes()


def test_train_step_finite_loss_and_progress():
    params = init_params(CFG)
    state = OptimizerState()
    scene = small_scene()
    parts = train_step(scene, params, state, LossWeights(), 0.1, CFG)
    assert np.isfinite(float(parts.total.data))
    assert state.step == 1


def test_train_step_zero_weights_reduce_to_classification():
    # lambda weights cannot both be zero, but a tiny lambda with no box
    # mismatch shows the split: cls + box parts always sum to the total
    params = init_params(CFG)
    parts = train_step(small_scene(), params, OptimizerState(), LossWeights(1e-9, 1e-9), 0.5, CFG)
    assert float(parts.total.data) == pytest.approx(parts.cls + parts.box, abs=1e-9)
    assert parts.box == pytest.approx(0.0, abs=1e-6)


def test_overfit_single_scene_decreases_loss():
    scene = small_scene(5)
    params, rows = train([scene], CFG, epochs=200, lr=1e-3)
    assert rows[-1].total < rows[0].total


def test_training_deterministic():
    scenes = [small_scene(s) for s in range(3)]
    cfg = dataclasses.replace(CFG, seed=1)
    _, rows_a = train(scenes, cfg, epochs=2)
    _, rows_b = train(scenes, cfg, epochs=2)
    assert rows_a == rows_b


def test_write_log_format(tmp_path):
    rows = [training.TrainLogRow(0, 0, 1.25, 1.0, 0.25)]
    path = tmp_path / "log.csv"
    write_log(rows, path)
    text = path.read_text().splitlines()
    assert text[0] == "epoch,scene,total,cls,box"
    assert text[1] == "0,0,1.25,1.0,0.25"


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    params = init_params(CFG)
    save_checkpoint(tmp_path / "ckpt", params, CFG)
    loaded, config = load_checkpoint(tmp_path / "ckpt")
    assert config == CFG
    for name in params:
        np.testing.assert_array_equal(loaded[name].data, params[name].data)

    image = Tensor(np.random.default_rng(0).uniform(0, 1, (3, 16, 16)))
    out_before = forward(image, params, CFG)
    out_after = forward(image, loaded, CFG)
    np.testing.assert_array_equal(out_before.class_probs.data, out_after.class_probs.data)
    np.testing.assert_array_equal(out_before.boxes.data, out_after.boxes.data)


def test_checkpoint_truncated_weights_rejected(tmp_path):
    params = init_params(CFG)
    save_checkpoint(tmp_path / "ckpt", params, CFG)
    blob = (tmp_path / "ckpt" / "weights.bin").read_bytes()
    (tmp_path / "ckpt" / "weights.bin").write_bytes(blob[:-8])
    with pytest.raises(IntegrityError, match="bytes"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_manifest_names_the_classes_and_commits_the_weights(tmp_path):
    cfg = dataclasses.replace(CFG, catalog=("transformer", "bušing", "uav", "robot", "insulator"))
    save_checkpoint(tmp_path / "ckpt", init_params(cfg), cfg)
    assert sorted(f.name for f in (tmp_path / "ckpt").iterdir()) == ["manifest.json", "weights.bin"]
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    assert manifest["config"]["catalog"] == list(cfg.catalog)
    blob = (tmp_path / "ckpt" / "weights.bin").read_bytes()
    assert manifest["weights_sha256"] == hashlib.sha256(blob).hexdigest()
    assert load_checkpoint(tmp_path / "ckpt")[1] == cfg
    # one flipped bit keeps the byte count, and the manifest no longer commits the file
    (tmp_path / "ckpt" / "weights.bin").write_bytes(blob[:100] + bytes([blob[100] ^ 1]) + blob[101:])
    with pytest.raises(IntegrityError, match="weights.bin"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_permuted_manifest_rejected(tmp_path):
    params = init_params(CFG)
    save_checkpoint(tmp_path / "ckpt", params, CFG)
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    manifest["tensors"][0], manifest["tensors"][1] = manifest["tensors"][1], manifest["tensors"][0]
    (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(IntegrityError, match="manifest"):
        load_checkpoint(tmp_path / "ckpt")


def test_step_with_identically_zero_gradient_keeps_params():
    # a loss that ignores the parameters leaves them untouched through adam
    params = arena(w=[1.5])
    state = OptimizerState()
    with numeric.Tape():
        probe = Tensor(np.array([2.0]), requires_grad=True)
        _ = chain.mul(params["w"], 1.0)  # on tape, but unused by the loss
        loss = chain.sum_all(chain.mul(probe, probe))
    numeric.backward(loss)
    adam_step(params, state)
    np.testing.assert_array_equal(params["w"].data, [1.5])


def test_step_tape_freed_without_the_cyclic_collector(monkeypatch):
    tapes = []

    class WatchedTape(numeric.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(training, "Tape", WatchedTape)
    params, state = init_params(CFG), OptimizerState()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for seed in (2, 3):
            train_step(small_scene(seed), params, state, LossWeights(), 0.1, CFG)
            assert tapes[-1]() is None
    finally:
        if was_enabled:
            gc.enable()
    assert len(tapes) == 2


def assert_arena_in_spec_order(params, config):
    spec = [(name, shape) for name, shape, _ in param_spec(config)]
    assert [(name, p.shape) for name, p in params.items()] == spec
    for attr in ("data", "grad"):
        flat = arena_of(params, attr)
        assert flat.flags.c_contiguous and flat.dtype == np.float64
        start, offset = flat.__array_interface__["data"][0], 0
        for name, p in params.items():
            view = getattr(p, attr)
            assert view.base is flat, (attr, name)
            assert view.__array_interface__["data"][0] == start + 8 * offset, (attr, name)
            offset += view.size
        assert offset == flat.size


def test_params_are_views_of_one_arena_in_spec_order(tmp_path):
    params = init_params(CFG)
    assert_arena_in_spec_order(params, CFG)
    save_checkpoint(tmp_path / "ckpt", params, CFG)
    loaded, config = load_checkpoint(tmp_path / "ckpt")
    assert_arena_in_spec_order(loaded, config)


def rebound_query_embed(params):
    """``params`` with ``query_embed`` rebound to a fresh Tensor outside the arena."""
    params["query_embed"] = Tensor(params["query_embed"].data + 1.0, requires_grad=True)
    params["query_embed"].grad = np.zeros(params["query_embed"].shape)
    return params


def test_rebound_parameter_is_refused_by_adam():
    with pytest.raises(ContractError, match="query_embed"):
        adam_step(rebound_query_embed(init_params(CFG)), OptimizerState())


def test_rebound_parameter_is_saved_and_loads_back(tmp_path):
    params = rebound_query_embed(init_params(CFG))
    save_checkpoint(tmp_path / "ckpt", params, CFG)
    loaded, config = load_checkpoint(tmp_path / "ckpt")
    assert config == CFG
    for name, p in params.items():
        assert loaded[name].data.tobytes() == p.data.tobytes(), name


@pytest.mark.parametrize("case", ["other config", "missing entry", "reordered"])
def test_save_refuses_parameters_off_the_config_layout_before_making_a_directory(tmp_path, case):
    params = init_params(CFG)
    if case == "other config":
        config = dataclasses.replace(CFG, num_queries=CFG.num_queries + 2)
    else:
        config, names = CFG, list(params)
        names = names[1:] if case == "missing entry" else [names[1], names[0], *names[2:]]
        params = {name: params[name] for name in names}
    with pytest.raises(ContractError, match="layout"):
        save_checkpoint(tmp_path / "ckpt" / "deep", params, config)
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "last"])
def test_save_refuses_non_finite_weights_before_making_a_directory(tmp_path, value, where):
    # load refuses non-finite weights, so save does not write them
    params = init_params(CFG)
    name = next(iter(params)) if where == "first" else list(params)[-1]
    params[name].data.flat[0 if where == "first" else -1] = value
    with pytest.raises(NumericError, match=rf"non-finite weights \(first in {re.escape(name)}\)"):
        save_checkpoint(tmp_path / "ckpt" / "deep", params, CFG)
    assert not (tmp_path / "ckpt").exists()
    # aimed at an earlier checkpoint, it leaves both files as they were
    ckpt = tmp_path / "old"
    old = init_params(dataclasses.replace(CFG, seed=1))
    save_checkpoint(ckpt, old, CFG)
    before = {f.name: f.read_bytes() for f in ckpt.iterdir()}
    with pytest.raises(NumericError, match=re.escape(name)):
        save_checkpoint(ckpt, params, CFG)
    assert {f.name: f.read_bytes() for f in ckpt.iterdir()} == before
    loaded, _ = load_checkpoint(ckpt)
    assert arena_of(loaded).tobytes() == arena_of(old).tobytes()


def write_checkpoint_per_tensor(ckpt_dir, params, config):
    """The checkpoint writer before the arena: one write per tensor, and the
    sha256 of the bytes written."""
    ckpt_dir.mkdir(parents=True)
    sha = hashlib.sha256()
    with open(ckpt_dir / "weights.bin", "wb") as fh:
        for p in params.values():
            blob = p.data.astype("<f8").tobytes()
            fh.write(blob)
            sha.update(blob)
    manifest = {
        "config": dataclasses.asdict(config),
        "tensors": [{"name": name, "shape": list(p.shape)} for name, p in params.items()],
        "weights_sha256": sha.hexdigest(),
    }
    (ckpt_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


def test_per_tensor_checkpoint_loads_and_resaves_byte_identical(tmp_path):
    cfg = dataclasses.replace(CFG, seed=4)
    params, _ = train([small_scene()], cfg, epochs=3)
    write_checkpoint_per_tensor(tmp_path / "old", params, cfg)
    loaded, config = load_checkpoint(tmp_path / "old")
    assert config == cfg
    for name, p in params.items():
        assert loaded[name].data.tobytes() == p.data.tobytes(), name
    save_checkpoint(tmp_path / "new", loaded, config)
    for fname in ("weights.bin", "manifest.json"):
        assert (tmp_path / "new" / fname).read_bytes() == (tmp_path / "old" / fname).read_bytes(), fname


@pytest.mark.parametrize("fail_at", ["weights write", "manifest rename"])
def test_failed_save_leaves_previous_checkpoint_loadable(tmp_path, monkeypatch, fail_at):
    ckpt = tmp_path / "ckpt"
    old = init_params(dataclasses.replace(CFG, seed=1))
    save_checkpoint(ckpt, old, CFG)
    before = {f.name: f.read_bytes() for f in ckpt.iterdir()}

    if fail_at == "weights write":
        def fsync(fd):
            raise OSError("disk full")
        monkeypatch.setattr(os, "fsync", fsync)
    else:
        real_replace = os.replace

        def replace(src, dst):
            if str(dst).endswith("manifest.json"):
                raise OSError("disk full")
            real_replace(src, dst)
        monkeypatch.setattr(os, "replace", replace)
    new = init_params(dataclasses.replace(CFG, seed=2))
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ckpt, new, CFG)
    monkeypatch.undo()

    assert sorted(f.name for f in ckpt.iterdir()) == sorted(before)  # no temporary file left
    if fail_at == "manifest rename":
        # the weights rename happens before the manifest's, and the earlier
        # manifest does not commit the new weights
        assert (ckpt / "manifest.json").read_bytes() == before["manifest.json"]
        with pytest.raises(IntegrityError, match="weights.bin .* is not the one its manifest.json commits"):
            load_checkpoint(ckpt)
        return
    assert {f.name: f.read_bytes() for f in ckpt.iterdir()} == before
    loaded, config = load_checkpoint(ckpt)
    assert config == CFG
    for name, p in old.items():
        assert loaded[name].data.tobytes() == p.data.tobytes(), name


@pytest.mark.parametrize("num_queries,max_objects", [(16, 3), (64, 12)])
def test_fused_training_equals_the_chains_bit_for_bit(num_queries, max_objects, monkeypatch):
    # 200 steps with the fused backbone, transformer sublayers, relation step,
    # heads and set loss, against the same steps with the chains of ops they
    # replace: the reduction and the heads as linear, relu, sigmoid and
    # softmax records, and the reduction's linear reading the rows of the
    # backbone chain's last map
    scenes = [generate_scene(50 + i, SceneConfig(max_objects=max_objects)) for i in range(20)]
    cfg = ModelConfig(num_queries=num_queries)

    def run():
        params, state = init_params(cfg), OptimizerState()
        losses = [train_step(scenes[k % 20], params, state, LossWeights(), 0.1, cfg) for k in range(200)]
        rows = [(float(p.total.data), p.cls, p.box) for p in losses]
        return rows, arena_of(params).tobytes(), arena_of(params, "grad").tobytes()

    fused = run()
    monkeypatch.setattr(numeric, "backbone", chain.backbone_chain)
    # each sublayer's stacked weight and bias is read once per forward, so one set of leaves per call
    monkeypatch.setattr(numeric, "attention_block", lambda x, pos, kv, kv_pos, proj, heads: chain.attention_block_chain(
        x, pos, kv, kv_pos, chain.projection_leaves(*proj), heads))
    monkeypatch.setattr(numeric, "ffn_block", chain.ffn_block_chain)
    monkeypatch.setattr(numeric, "relation", chain.relation_chain)
    monkeypatch.setattr(numeric, "mlp", chain.mlp_chain)
    monkeypatch.setattr(training, "hungarian_loss_terms", chain.hungarian_loss_chain)
    assert run() == fused
