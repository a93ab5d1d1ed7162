#!/usr/bin/env python3
"""Bit-identity digest of reldet's training and inference, part by part.

Each part is the sha256 of float64 bytes, or of file bytes for ``checkpoint``:

- ``scenes``: the images, class ids and boxes (cx, cy, w, h) of every scene
  the parts below train on or run, so a renderer change that alters a scene
  is named directly;
- ``q16.losses``, ``q16.params``, ``q16.grads``: 60 ``train_step`` losses
  (total, class and box term) of the default config on 20 scenes of up to 3
  objects over 3 epochs, then the final parameter and gradient arenas;
- ``q64.*``: the same at 64 queries on scenes of up to 12 objects;
- ``tapeless``: the class probabilities and boxes of a tape-less ``forward``
  of the trained 16-query model on 5 further scenes;
- ``checkpoint``: the file bytes of that model's ``manifest.json``, as
  ``save_checkpoint`` writes it, and of its ``write_log`` loss log. Its
  ``weights.bin`` holds the bytes of the arena ``q16.params`` hashes, so a
  change of the manifest's format alone differs in this part only.

Usage:

    python scripts/bit_digest.py src             # print each part's digest
    python scripts/bit_digest.py src OTHER/src   # print equal or differ per part
    python scripts/bit_digest.py src --stamp tests/golden_digest.json

With two source trees each runs in its own interpreter; the exit code is 1
when any part differs. ``--stamp FILE`` records one tree's parts in FILE
under this machine's env stamp (numpy's version and the OpenBLAS build and
CPU core it runs on), replacing an earlier entry of the same env; the
tier-1 test ``tests/test_bit_digest.py`` checks the tree against the entry
of the env it runs on.
"""

import argparse
import ctypes
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SCENES, EPOCHS, TAPELESS_SCENES = 20, 3, 5
RUNS = (("q16", 16, 3), ("q64", 64, 12))  # (part prefix, queries, max objects per scene)


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def env_stamp() -> dict[str, str]:
    """What the digest's bits rest on besides the source: numpy's version,
    the BLAS build numpy was linked against, and the kernel family (core)
    OpenBLAS picked for this CPU, read from the library loaded here."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}", "blas_core": _blas_core()}


def _blas_core() -> str:
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)  # numpy's loaded copy
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            return get().decode()
    return "unknown"


def write_stamp(path: Path, parts: dict[str, str]) -> None:
    """Record ``parts`` in the golden file ``path`` under this env's stamp."""
    env = env_stamp()
    stamps = json.loads(path.read_text())["stamps"] if path.exists() else []
    stamps = [s for s in stamps if s["env"] != env] + [{"env": env, "parts": parts}]
    doc = {"command": f"python scripts/bit_digest.py src --stamp {path.as_posix()}", "stamps": stamps}
    path.write_text(json.dumps(doc, indent=1) + "\n")


def digest(src: str) -> dict[str, str]:
    """Part name -> sha256 for the reldet package under ``src``."""
    root = Path(src).resolve()
    sys.path.insert(0, str(root))
    try:
        import reldet
        from reldet import data, model, training
    except ImportError:
        reldet = None
    if reldet is None or not Path(reldet.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"no reldet package under {root}")
    trained = {prefix: [data.generate_scene(i, data.SceneConfig(max_objects=max_objects)) for i in range(SCENES)]
               for prefix, _, max_objects in RUNS}
    held = [data.generate_scene(seed) for seed in range(SCENES, SCENES + TAPELESS_SCENES)]
    every = [scene for scenes in trained.values() for scene in scenes] + held
    boxes = [(g.class_id, g.box.cx, g.box.cy, g.box.w, g.box.h) for s in every for g in s.objects]
    parts = {"scenes": _sha(*(s.image.data for s in every), boxes)}
    tapeless = []
    for prefix, queries, _ in RUNS:
        config = model.ModelConfig(num_queries=queries)
        params, rows = training.train(trained[prefix], config, EPOCHS)
        parts[f"{prefix}.losses"] = _sha([(r.total, r.cls, r.box) for r in rows])
        parts[f"{prefix}.params"] = _sha(model.arena_of(params, "data"))
        parts[f"{prefix}.grads"] = _sha(model.arena_of(params, "grad"))
        if not tapeless:  # the first run trains the 16-query model
            for scene in held:
                out = model.forward(scene.image, params, config)
                tapeless += [out.class_probs.data, out.boxes.data]
            with tempfile.TemporaryDirectory() as tmp:
                training.save_checkpoint(tmp, params, config)
                training.write_log(rows, Path(tmp) / "train_log.csv")
                files = [Path(tmp) / name for name in ("manifest.json", "train_log.csv")]
                checkpoint = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
    parts["tapeless"] = _sha(*tapeless)
    parts["checkpoint"] = checkpoint
    return parts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("src", nargs="+", help="one or two source trees holding the reldet package")
    ap.add_argument("--json", action="store_true", help="print one source tree's parts as JSON")
    ap.add_argument("--stamp", type=Path, metavar="FILE", help="record one source tree's parts in FILE under this env")
    args = ap.parse_args()
    if len(args.src) > 2 or (args.stamp and len(args.src) > 1):
        ap.error("give one or two source trees, and one with --stamp")
    if len(args.src) == 1:
        parts = digest(args.src[0])
        if args.stamp:
            write_stamp(args.stamp, parts)
            print(f"stamped {len(parts)} parts for {json.dumps(env_stamp())} in {args.stamp}")
        elif args.json:
            print(json.dumps(parts))
        else:
            for name, sha in parts.items():
                print(f"{name:<12} {sha}")
        return 0
    runs = []
    for src in args.src:
        child = subprocess.run([sys.executable, __file__, "--json", src], stdout=subprocess.PIPE, text=True)
        if child.returncode:
            return child.returncode
        runs.append(json.loads(child.stdout))
    differ = 0
    for name in runs[0]:
        same = runs[0][name] == runs[1].get(name)
        differ += not same
        print(f"{name:<12} {'equal' if same else 'differ'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
