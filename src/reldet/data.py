"""Deterministic synthetic scene generator and annotation I/O.

Scenes are noisy backgrounds with class-colored filled primitives (rectangle,
ellipse or triangle per class), each annotated with a normalized center-format
box. Images round-trip through binary PPM (P6, 8-bit), annotations through a
small JSON schema; a dataset directory holds scene_%05d.ppm / .json pairs and
a catalog.json naming the classes. ``encode_json`` encodes every JSON file the
package writes, and ``_read_json`` reads those it loads back.

A PPM file opens with ``P6``; width, height and maxval 255 follow, each after
whitespace and ``#`` comments to the end of their line. A comment starts only
where a token could (``1#c`` is one bad token); a number has at most 18
digits. ``read_ppm`` errors name their byte, ``load_scene`` the file's path.

Every object's mask reads one grid of pixel centres per image size, built
once and shared: ``_pixel_grid`` caches it read-only, so no caller can write
to the grid that later scenes are drawn from.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ContractError
from .geometry import Box
from .matching import GroundTruth
from .numeric import Tensor

DEFAULT_CLASSES = ("transformer", "insulator", "bushing", "robot", "uav")

# fill/outline color per default class (index-aligned); extra classes cycle
CLASS_COLORS = (
    (0.90, 0.10, 0.10),  # transformer: red
    (0.55, 0.10, 0.80),  # insulator: purple
    (0.95, 0.85, 0.10),  # bushing: yellow
    (0.15, 0.25, 0.95),  # robot: blue
    (0.10, 0.80, 0.20),  # uav: green
    (0.10, 0.85, 0.85),
    (0.95, 0.50, 0.10),
)

_SHAPES = ("rectangle", "ellipse", "triangle")

# The most objects a scene may ask for. Training matches each object to a
# query of its own, and the Hungarian assignment's time grows as the cube of
# the query count (about 240 ms at 256 queries on a 2-vCPU container), so a
# scene of 1024 objects already costs seconds per training step. The cap also
# bounds the masks that rendering one scene draws.
MAX_OBJECTS = 1024


def class_color(class_id: int) -> tuple[float, float, float]:
    return CLASS_COLORS[class_id % len(CLASS_COLORS)]


def check_catalog(names) -> None:
    """The one rule on class catalogs, for scene configs, model configs and
    catalog files alike: ContractError unless ``names`` is a nonempty tuple of
    distinct strings."""
    if not isinstance(names, tuple) or not all(isinstance(n, str) for n in names) or not names \
            or len(set(names)) != len(names):
        raise ContractError(f"catalog must be a nonempty tuple of distinct class names, got {names!r}")


def check_image_size(size) -> None:
    """The one rule on image sizes, for scene configs and model configs alike:
    ContractError unless ``size`` is a tuple of two integers (h, w), each a
    positive multiple of 8."""
    if not isinstance(size, tuple) or len(size) != 2 or any(type(v) is not int for v in size):
        raise ContractError(f"image_size must be a tuple of two integers, got {size!r}")
    h, w = size
    if h % 8 or w % 8 or h < 8 or w < 8:
        raise ContractError(f"image size {h}x{w} must be a positive multiple of 8 in both extents "
                            "(the model downsamples images by 8)")


@dataclass(frozen=True)
class SceneConfig:
    """A scene's image size (``check_image_size``), object cap (``MAX_OBJECTS``) and catalog (``check_catalog``)."""

    image_size: tuple[int, int] = (32, 32)
    max_objects: int = 3
    catalog: tuple[str, ...] = DEFAULT_CLASSES

    def __post_init__(self):
        check_image_size(self.image_size)
        if type(self.max_objects) is not int:
            raise ContractError(f"max_objects must be an integer, got {self.max_objects!r}")
        if not 1 <= self.max_objects <= MAX_OBJECTS:
            raise ContractError(f"max_objects must lie in [1, {MAX_OBJECTS}], got {self.max_objects}")
        check_catalog(self.catalog)


@dataclass
class Scene:
    image: Tensor  # [3, H, W] in [0, 1]
    objects: list[GroundTruth]


@lru_cache(maxsize=16)
def _pixel_grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The [h, w] pixel-centre coordinates (yy, xx) in the unit square, read-only."""
    ys = (np.arange(h) + 0.5) / h
    xs = (np.arange(w) + 0.5) / w
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    yy.flags.writeable = False
    xx.flags.writeable = False
    return yy, xx


def _shape_mask(kind: str, box: Box, h: int, w: int) -> np.ndarray:
    yy, xx = _pixel_grid(h, w)
    x1, y1, x2, y2 = box.to_corners()
    if kind == "rectangle":
        return (xx >= x1) & (xx <= x2) & (yy >= y1) & (yy <= y2)
    if kind == "ellipse":
        nx = (xx - box.cx) / (box.w / 2)
        ny = (yy - box.cy) / (box.h / 2)
        return nx * nx + ny * ny <= 1.0
    # triangle: base on the bottom edge, apex at the top center
    t = np.clip((y2 - yy) / (y2 - y1), 0.0, 1.0)  # 0 at base, 1 at apex
    half = (box.w / 2) * (1.0 - t)
    return (yy >= y1) & (yy <= y2) & (np.abs(xx - box.cx) <= half)


def generate_scene(seed: int, config: SceneConfig = SceneConfig()) -> Scene:
    """Pure function of (seed, config): background noise plus colored objects."""
    rng = np.random.default_rng(seed)
    h, w = config.image_size
    k = len(config.catalog)
    try:
        img = rng.uniform(0.15, 0.35, (3, h, w))
    except (MemoryError, ValueError) as e:  # ValueError: more bytes than one array can address
        raise ContractError(f"a {h}x{w} image does not fit in memory ({e})") from e
    count = int(rng.integers(1, config.max_objects + 1))
    objects = []
    for _ in range(count):
        class_id = int(rng.integers(0, k))
        bw = rng.uniform(0.1, 0.4)
        bh = rng.uniform(0.1, 0.4)
        cx = rng.uniform(bw / 2, 1 - bw / 2)
        cy = rng.uniform(bh / 2, 1 - bh / 2)
        box = Box(cx, cy, bw, bh)
        mask = _shape_mask(_SHAPES[class_id % len(_SHAPES)], box, h, w)
        color = class_color(class_id)
        for ch in range(3):
            img[ch][mask] = color[ch]
        objects.append(GroundTruth(class_id, box))
    return Scene(Tensor(img), objects)


# ---------------------------------------------------------------------------
# atomic file writes


def write_atomic(path, blob: bytes) -> None:
    """Write ``blob`` to a temporary file beside ``path``, flush it to disk
    and rename it over ``path``; on any failure remove the temporary file, so
    an earlier file at ``path`` stays whole. Checkpoints and reports are
    written this way.

    The file is created by ``open`` (not ``mkstemp``, which makes it private),
    so it gets the same permissions as a plain write."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# PPM codec (P6, 8-bit)


def encode_ppm(image: np.ndarray | Tensor) -> bytes:
    """The P6 file bytes of a [3, H, W] image in [0, 1], rounded to 8 bits."""
    arr = image.data if isinstance(image, Tensor) else np.asarray(image)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ContractError(f"expected a [3, H, W] image, got shape {arr.shape}")
    _, h, w = arr.shape
    raster = np.rint(np.clip(arr, 0.0, 1.0) * 255).astype(np.uint8)
    return f"P6\n{w} {h}\n255\n".encode("ascii") + raster.transpose(1, 2, 0).tobytes()


# whitespace, then '#' comments (each to its line's end, with the whitespace after it), then one token, empty at the end
_HEADER_TOKEN = re.compile(rb"\s*(?:#[^\n]*\s*)*(\S*)")


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    m = _HEADER_TOKEN.match(buf, pos)
    if not m[1]:
        raise ContractError(f"unexpected end of PPM header at byte {m.end()}")
    return m[1], m.end()


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 PPM into a [3, H, W] float64 array in [0, 1]."""
    buf = Path(path).read_bytes()
    magic, pos = _next_token(buf, 0)
    if magic != b"P6" or pos != 2:  # nothing, not even whitespace or a comment, comes before the magic
        raise ContractError(f"not a binary PPM (magic {magic[:18]!r} at byte {pos - len(magic)}, not b'P6' at byte 0)")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(buf, pos)
        if not tok.isdigit() or len(tok) > 18:  # 18 digits overflow no int64 and outsize any raster
            raise ContractError(f"bad PPM header token {tok[:18]!r} ({len(tok)} bytes) at byte {pos - len(tok)}")
        fields.append(int(tok))
    w, h, maxval = fields
    if maxval != 255:
        raise ContractError(f"unsupported maxval {maxval} at byte {pos - len(tok)}")
    expected = w * h * 3
    raster = buf[pos + 1 : pos + 1 + expected]  # one whitespace byte ends the header
    if len(raster) != expected:
        raise ContractError(f"raster truncated at byte {len(buf)} (expected {expected} bytes)")
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3).transpose(2, 0, 1)
    return arr.astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# JSON files, annotations and scene/dataset round trips


def encode_json(doc) -> bytes:
    """A JSON document's file bytes: one-space indent, ASCII escapes, a closing newline."""
    return (json.dumps(doc, indent=1) + "\n").encode()


def annotations_to_json(image_name: str, image, objects, catalog) -> dict:
    """The annotation document of a [3, H, W] image; ``objects`` are any records
    with a ``class_id`` and a ``box``, ground truths and detections alike."""
    h, w = image.shape[1:]
    return {
        "image": image_name,
        "width": int(w),
        "height": int(h),
        "objects": [
            {
                "class_id": g.class_id,
                "class_name": catalog[g.class_id],
                "cx": g.box.cx,
                "cy": g.box.cy,
                "w": g.box.w,
                "h": g.box.h,
            }
            for g in objects
        ],
    }


def save_scene(scene: Scene, stem, catalog=DEFAULT_CLASSES) -> None:
    """Write <stem>.ppm and <stem>.json."""
    stem = Path(stem)
    stem.with_name(stem.name + ".ppm").write_bytes(encode_ppm(scene.image))
    doc = annotations_to_json(stem.name + ".ppm", scene.image, scene.objects, catalog)
    stem.with_name(stem.name + ".json").write_bytes(encode_json(doc))


def _read_json(path: Path):
    """The JSON document of an annotation, ``catalog.json`` or ``manifest.json``; ContractError names the file."""
    try:
        return json.loads(path.read_text())
    except (ValueError, RecursionError) as e:  # JSONDecodeError, bytes that are not UTF-8, or nesting too deep
        raise ContractError(f"bad JSON in {path}: {e}") from e


def _annotation_object(rec, path: Path, i: int) -> GroundTruth:
    """One entry of an annotation's ``objects`` list; ContractError names the file."""
    fields = ("class_id", "cx", "cy", "w", "h")
    if not isinstance(rec, dict) or any(k not in rec for k in fields):
        raise ContractError(f"{path}: object {i} is not an object with fields {', '.join(fields)}")
    cid, vals = rec["class_id"], [rec[k] for k in fields[1:]]
    if type(cid) is not int or any(type(v) not in (int, float) for v in vals):
        raise ContractError(f"{path}: object {i} needs an integer class_id and numeric cx, cy, w, h")
    try:
        box = Box(*map(float, vals))
    except OverflowError as e:  # an integer beyond float range, such as 10**400
        raise ContractError(f"{path}: object {i} has a box field beyond float range") from e
    except ContractError as e:
        raise ContractError(f"{path}: object {i}: {e}") from e
    if not box.inside_unit():
        raise ContractError(f"{path}: object {i} box {box} leaves the unit square")
    return GroundTruth(cid, box)


def load_scene(stem) -> Scene:
    """Read a <stem>.ppm / <stem>.json pair back into a Scene."""
    stem = Path(stem)
    ppm, path = (stem.with_name(stem.name + suffix) for suffix in (".ppm", ".json"))
    try:
        image = read_ppm(ppm)
    except ContractError as e:
        raise ContractError(f"{ppm}: {e}") from e
    doc = _read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("objects", []), list):
        raise ContractError(f"{path} is not an annotation object with an objects list")
    h, w = image.shape[1:]
    if doc.get("width") != w or doc.get("height") != h:
        raise ContractError(f"{path}: annotation size {doc.get('width')}x{doc.get('height')} mismatches image {w}x{h}")
    objects = [_annotation_object(rec, path, i) for i, rec in enumerate(doc.get("objects", []))]
    if not objects:
        raise ContractError(f"{path}: scene has no objects")
    return Scene(Tensor(image), objects)


def save_dataset(scenes: Iterable[Scene], out_dir, catalog=DEFAULT_CLASSES) -> int:
    """Write each scene as it comes, then ``catalog.json``, and return the
    number of objects written; ``scenes`` is read once, so a generator keeps
    one scene in memory at a time."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    objects = 0
    for i, scene in enumerate(scenes):
        save_scene(scene, out / f"scene_{i:05d}", catalog)
        objects += len(scene.objects)
    (out / "catalog.json").write_bytes(encode_json(list(catalog)))
    return objects


def load_catalog(path) -> list[str]:
    """Class names from a catalog.json: a nonempty JSON list of distinct strings."""
    catalog = _read_json(Path(path))
    if not isinstance(catalog, list):  # tuple("abc") would pass as three class names
        raise ContractError(f"{path} is not a JSON list of class names")
    try:
        check_catalog(tuple(catalog))
    except ContractError as e:
        raise ContractError(f"{path}: {e}") from e
    return catalog


def load_dataset(data_dir, max_objects: int | None = None) -> tuple[list[Scene], list[str]]:
    """The scenes of a dataset directory, in file name order, and its catalog.

    A scene with more objects than ``max_objects``, when given, raises
    ContractError naming its annotation file: ``train`` passes its query
    count, so no scene fails at its first step after earlier ones trained.
    """
    root = Path(data_dir)
    cat_path = root / "catalog.json"
    if not cat_path.exists():
        raise ContractError(f"no catalog.json in {root}")
    catalog = load_catalog(cat_path)
    stems = sorted(p.with_suffix("") for p in root.glob("scene_*.ppm"))
    if not stems:
        raise ContractError(f"no scene_*.ppm files in {root}")
    scenes = [load_scene(stem) for stem in stems]
    for stem, scene in zip(stems, scenes):
        if scene.image.shape != scenes[0].image.shape:
            raise ContractError(f"{stem.with_name(stem.name + '.ppm')}: image shape {scene.image.shape} differs from "
                             f"{stems[0].name}.ppm's {scenes[0].image.shape}; a dataset holds one image size")
        path = stem.with_name(stem.name + ".json")
        for g in scene.objects:
            if not 0 <= g.class_id < len(catalog):
                raise ContractError(f"{path}: class_id {g.class_id} is outside the {len(catalog)}-class catalog")
        if max_objects is not None and len(scene.objects) > max_objects:
            raise ContractError(f"{path}: {len(scene.objects)} objects exceed the model's {max_objects} queries "
                                "(one prediction slot each)")
    return scenes, catalog
