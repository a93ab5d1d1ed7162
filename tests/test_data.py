import ast
import collections
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from reldet import data
from reldet.errors import ContractError
from reldet.data import (
    DEFAULT_CLASSES,
    Scene,
    SceneConfig,
    encode_ppm,
    generate_scene,
    load_dataset,
    load_scene,
    read_ppm,
    save_dataset,
    save_scene,
)
from reldet.geometry import Box
from reldet.matching import GroundTruth
from reldet.numeric import Tensor

import oracles


def test_generate_scene_deterministic():
    cfg = SceneConfig()
    a = generate_scene(42, cfg)
    b = generate_scene(42, cfg)
    np.testing.assert_array_equal(a.image.data, b.image.data)
    assert a.objects == b.objects
    c = generate_scene(43, cfg)
    assert not np.array_equal(a.image.data, c.image.data)


def test_generated_boxes_inside_bounds_and_classes_real():
    cfg = SceneConfig(max_objects=5)
    for seed in range(1000):
        scene = generate_scene(seed, cfg)
        assert 1 <= len(scene.objects) <= 5
        for g in scene.objects:
            assert 0 <= g.class_id < len(cfg.catalog)
            assert g.box.inside_unit()
            assert g.box.w >= 0.1 and g.box.h >= 0.1


def test_scene_pixels_in_unit_interval():
    scene = generate_scene(3, SceneConfig())
    assert scene.image.data.min() >= 0.0
    assert scene.image.data.max() <= 1.0


def test_box_center_pixels_differ_from_background():
    # direct pixel inspection on seed 7: each object center is painted with
    # its class color, far from the noise background's mean level
    cfg = SceneConfig()
    scene = generate_scene(7, cfg)
    img = scene.image.data
    h, w = img.shape[1:]
    occupied = np.zeros((h, w), dtype=bool)
    for g in scene.objects:
        occupied |= data._shape_mask("rectangle", g.box, h, w)
    bg_mean = img[:, ~occupied].mean(axis=1)
    assert np.all(np.abs(bg_mean - 0.25) < 0.05)  # noise is uniform(0.15, 0.35)
    for g in scene.objects:
        py = min(int(g.box.cy * h), h - 1)
        px = min(int(g.box.cx * w), w - 1)
        assert np.abs(img[:, py, px] - bg_mean).max() > 0.1


def test_scene_config_validation():
    with pytest.raises(ContractError):
        SceneConfig(max_objects=0)
    with pytest.raises(ContractError):
        SceneConfig(catalog=("a", "a"))
    for size in [(0, 8), (8, -8), (8,), (8.0, 8), 32, [32, 32]]:
        with pytest.raises(ContractError):
            SceneConfig(image_size=size)
    for catalog in ["abc", ["a", "b"], ("a", 1), ()]:
        with pytest.raises(ContractError):
            SceneConfig(catalog=catalog)
    for size in [(12, 12), (8, 20), (4, 8)]:  # no model reads these: the one image-size rule refuses them
        with pytest.raises(ContractError, match="multiple of 8"):
            SceneConfig(image_size=size)


@pytest.mark.parametrize("max_objects", [2**63, 10**30, float("nan")])
def test_scene_config_rejects_an_object_count_no_int64_draw_reaches(max_objects):
    # generate_scene draws the count from [1, max_objects + 1), which must fit an int64
    with pytest.raises(ContractError, match="max_objects"):
        SceneConfig(max_objects=max_objects)
    assert SceneConfig(max_objects=data.MAX_OBJECTS).max_objects == data.MAX_OBJECTS  # constructed, never drawn from


@pytest.mark.parametrize("max_objects", [2.5, True, "3", None])
def test_scene_config_refuses_an_object_count_that_is_not_an_int(max_objects):
    with pytest.raises(ContractError, match=r"max_objects must be an integer, got"):
        SceneConfig(max_objects=max_objects)


def test_scene_config_caps_the_object_count():
    with pytest.raises(ContractError, match=r"max_objects must lie in \[1, 1024\], got 1025"):
        SceneConfig(max_objects=data.MAX_OBJECTS + 1)


ORACLE_CONFIGS = [
    SceneConfig(),
    SceneConfig(max_objects=12),
    SceneConfig(image_size=(16, 24)),
    SceneConfig(image_size=(64, 64), catalog=tuple(f"class_{c}" for c in range(10))),
]


@pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=["default", "crowded", "16x24", "64x64_10_classes"])
def test_generate_scene_equals_the_per_object_meshgrid_renderer(config):
    # the shared pixel grid changes no RNG draw, mask or fill: image bytes,
    # box fields and their python types are the old renderer's
    field_types = lambda scene: [type(v) for g in scene.objects for v in (g.class_id, *dataclasses.astuple(g.box))]
    for seed in range(400):
        got, want = generate_scene(seed, config), oracles.generate_scene(seed, config)
        assert got.image.data.tobytes() == want.image.data.tobytes(), seed
        assert got.objects == want.objects and field_types(got) == field_types(want), seed


def test_pixel_grid_is_shared_and_read_only():
    yy, xx = data._pixel_grid(16, 24)
    again = data._pixel_grid(16, 24)
    assert again[0] is yy and again[1] is xx
    want_yy, want_xx = oracles._pixel_grid(16, 24)
    assert np.array_equal(yy, want_yy) and np.array_equal(xx, want_xx)
    for grid in (yy, xx):
        with pytest.raises(ValueError):
            grid[0, 0] = 2.0
        with pytest.raises(ValueError):
            grid += 1.0
    generate_scene(5, SceneConfig(image_size=(16, 24), max_objects=12))
    assert np.array_equal(yy, want_yy) and np.array_equal(xx, want_xx)


def test_ppm_roundtrip(tmp_path, rng):
    img = rng.uniform(0, 1, (3, 5, 7))
    path = tmp_path / "img.ppm"
    path.write_bytes(encode_ppm(img))
    back = read_ppm(path)
    assert back.shape == (3, 5, 7)
    assert np.abs(back - img).max() <= 1.0 / 255.0


def test_ppm_deterministic_bytes(tmp_path):
    scene = generate_scene(5, SceneConfig())
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    p1.write_bytes(encode_ppm(scene.image))
    p2.write_bytes(encode_ppm(scene.image))
    assert p1.read_bytes() == p2.read_bytes()


def test_hand_written_white_pixel_ppm(tmp_path):
    path = tmp_path / "white.ppm"
    path.write_bytes(b"P6\n# comment\n1 1\n255\n\xff\xff\xff")
    np.testing.assert_array_equal(read_ppm(path), np.ones((3, 1, 1)))


@pytest.mark.parametrize(
    "payload",
    [
        b"P5\n1 1\n255\n\xff",  # wrong magic
        b"P6\n1 1\n127\n\xff\xff\xff",  # unsupported maxval
        b"P6\n2 2\n255\n\xff\xff\xff",  # truncated raster
        b"P6\nx 1\n255\n\xff\xff\xff",  # non-numeric field
        # header numbers past int()'s digit limit
        pytest.param(b"P6\n" + b"9" * 5000 + b" 1\n255\n\xff\xff\xff", id="5000-digit width"),
        pytest.param(b"P6\n1 1\n" + b"2" * 5000 + b"\n\xff\xff\xff", id="5000-digit maxval"),
    ],
)
def test_malformed_ppm_raises_parse_error(tmp_path, payload):
    path = tmp_path / "bad.ppm"
    path.write_bytes(payload)
    with pytest.raises(ContractError, match="byte") as caught:
        read_ppm(path)
    assert len(str(caught.value)) < 100  # names the token, does not echo all of it


def test_scene_roundtrip_exact_boxes(tmp_path):
    scene = generate_scene(11, SceneConfig())
    save_scene(scene, tmp_path / "scene_00000")
    back = load_scene(tmp_path / "scene_00000")
    assert back.objects == scene.objects  # JSON floats round-trip exactly via repr
    assert np.abs(back.image.data - scene.image.data).max() <= 1.0 / 255.0


def test_empty_object_annotation_rejected(tmp_path):
    scene = generate_scene(1, SceneConfig())
    save_scene(scene, tmp_path / "scene_00000")
    doc = json.loads((tmp_path / "scene_00000.json").read_text())
    doc["objects"] = []
    (tmp_path / "scene_00000.json").write_text(json.dumps(doc))
    with pytest.raises(ContractError, match=r"scene_00000\.json: scene has no objects"):
        load_scene(tmp_path / "scene_00000")


def test_out_of_bounds_annotation_rejected(tmp_path):
    scene = Scene(Tensor(np.zeros((3, 8, 8))), [GroundTruth(0, Box(0.5, 0.5, 0.2, 0.2))])
    save_scene(scene, tmp_path / "scene_00000")
    doc = json.loads((tmp_path / "scene_00000.json").read_text())
    doc["objects"][0]["cx"] = 0.99
    (tmp_path / "scene_00000.json").write_text(json.dumps(doc))
    with pytest.raises(ContractError, match=r"scene_00000\.json: object 0 box .* leaves the unit square"):
        load_scene(tmp_path / "scene_00000")


def test_dataset_roundtrip(tmp_path):
    scenes = [generate_scene(s, SceneConfig()) for s in range(4)]
    save_dataset(scenes, tmp_path / "ds")
    loaded, catalog = load_dataset(tmp_path / "ds")
    assert catalog == list(DEFAULT_CLASSES)
    assert len(loaded) == 4
    for orig, back in zip(scenes, loaded):
        assert back.objects == orig.objects


def test_save_dataset_returns_the_number_of_objects_it_wrote(tmp_path):
    scenes = [generate_scene(s, SceneConfig(max_objects=5)) for s in range(6)]
    assert save_dataset(iter(scenes), tmp_path) == sum(len(scene.objects) for scene in scenes)
    assert [s.objects for s in load_dataset(tmp_path)[0]] == [s.objects for s in scenes]


def test_dotted_scene_names_load_their_own_files(tmp_path):
    # scene_1.5 is read from scene_1.5.ppm and scene_1.5.json, not from scene_1's pair
    scenes = [generate_scene(s, SceneConfig()) for s in range(4)]
    save_dataset(scenes[:2], tmp_path)
    for name, scene in zip(("scene_1", "scene_1.5"), scenes[2:]):
        (tmp_path / f"{name}.ppm").write_bytes(encode_ppm(scene.image))
        doc = data.annotations_to_json(f"{name}.ppm", scene.image, scene.objects, DEFAULT_CLASSES)
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    loaded, _ = load_dataset(tmp_path)
    assert [s.objects for s in loaded] == [s.objects for s in scenes]

    doc["objects"][0]["class_id"] = len(DEFAULT_CLASSES)
    (tmp_path / "scene_1.5.json").write_text(json.dumps(doc))
    with pytest.raises(ContractError, match=r"scene_1\.5\.json: class_id"):
        load_dataset(tmp_path)


def test_save_scene_keeps_a_dotted_tail(tmp_path):
    scene = generate_scene(2, SceneConfig())
    save_scene(scene, tmp_path / "scene_1.5")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene_1.5.json", "scene_1.5.ppm"]
    assert json.loads((tmp_path / "scene_1.5.json").read_text())["image"] == "scene_1.5.ppm"
    assert load_scene(tmp_path / "scene_1.5").objects == scene.objects


def test_load_dataset_rejects_mixed_image_sizes_naming_the_first_odd_file(tmp_path):
    small = [generate_scene(s, SceneConfig(image_size=(16, 16))) for s in range(3)]
    save_dataset(small, tmp_path)
    for i in (3, 4):
        save_scene(generate_scene(i, SceneConfig(image_size=(32, 32))), tmp_path / f"scene_{i:05d}")
    with pytest.raises(ContractError, match=r"scene_00003\.ppm: image shape \(3, 32, 32\) differs from scene_00000\.ppm"):
        load_dataset(tmp_path)


def test_data_is_the_only_module_that_encodes_or_decodes_json():
    # one owner of the JSON file format: encode_json writes, _read_json reads
    src = Path(data.__file__).resolve().parent
    importers, calls = set(), collections.Counter()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import) and any(a.name == "json" for a in node.names):
                importers.add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                importers.add(path.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "json":
                calls[path.name, node.attr] += 1
    assert importers == {"data.py"}
    assert calls == {("data.py", "dumps"): 1, ("data.py", "loads"): 1}


def test_encode_json_is_the_dataset_file_format(tmp_path):
    catalog = ("transformer", "bušing")
    scene = generate_scene(3, SceneConfig(catalog=catalog))
    save_dataset([scene], tmp_path, catalog)
    assert (tmp_path / "catalog.json").read_bytes() == b'[\n "transformer",\n "bu\\u0161ing"\n]\n'
    doc = data.annotations_to_json("scene_00000.ppm", scene.image, scene.objects, catalog)
    assert (tmp_path / "scene_00000.json").read_bytes() == data.encode_json(doc)


def test_load_dataset_requires_catalog_and_scenes(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(ContractError):
        load_dataset(tmp_path / "empty")


def _edited_scene(tmp_path, edit):
    scene = generate_scene(1, SceneConfig())
    save_scene(scene, tmp_path / "scene_00000")
    path = tmp_path / "scene_00000.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return tmp_path / "scene_00000"


def _set_first(field, value):
    def edit(doc):
        doc["objects"][0][field] = value
        return doc

    return edit


def _drop_first_cx(doc):
    del doc["objects"][0]["cx"]
    return doc


@pytest.mark.parametrize("edit", [
    lambda doc: [doc],  # a top-level list, not an object
    _drop_first_cx,
    _set_first("class_id", "x"),
    _set_first("w", "big"),
    _set_first("class_id", True),
    lambda doc: {**doc, "objects": {"cx": 0.5}},
    lambda doc: {**doc, "objects": [3]},
], ids=["list", "no-cx", "class-id-x", "w-big", "class-id-bool", "objects-not-list", "object-not-dict"])
def test_malformed_annotation_raises_parse_error_naming_the_file(tmp_path, edit):
    stem = _edited_scene(tmp_path, edit)
    with pytest.raises(ContractError, match="scene_00000.json"):
        load_scene(stem)


def test_non_finite_annotation_box_raises_parse_error(tmp_path):
    stem = _edited_scene(tmp_path, _set_first("h", float("nan")))
    with pytest.raises(ContractError, match="non-finite"):
        load_scene(stem)


@pytest.mark.parametrize("field", ["cx", "cy", "w", "h"])
def test_annotation_box_field_beyond_float_range_raises_parse_error(tmp_path, field):
    # 10**400 is a valid JSON number that no float64 holds
    stem = _edited_scene(tmp_path, _set_first(field, 10**400))
    with pytest.raises(ContractError, match=r"scene_00000\.json: object 0 .*float range"):
        load_scene(stem)
