"""Every function and method that ``src/reldet`` defines runs on a CLI path.

The five commands run in-process under ``sys.setprofile`` on a 3-scene
dataset. A definition that none of them calls is code that only the tests
use, which belongs in the tests. The only exceptions are the names the
benchmark's tracer reads, and the test checks that it still reads them.
"""

import ast
import importlib
import os
import sys
from pathlib import Path

import reldet
from reldet import cli

SRC = Path(reldet.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# (file, qualified name) -> the text by which perfbench/tracing.py reads it
READ_BY_TRACING = {
    ("numeric.py", "Tape.__len__"): "len(loss.tape)",
    ("relation.py", "RelationGraph.n"): "g.n",
    ("relation.py", "RelationGraph.neighbors"): ".neighbors(",
}


def defined_functions() -> dict:
    """{(resolved file, first line): (file name, qualified name)} of every
    module-level function and every method of a module-level class in
    ``src/reldet``; functions nested in a function are left out.

    The first line is the one a code object reports as ``co_firstlineno``:
    the first decorator's line for a decorated function.
    """
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            prefix, members = ("", [node]) if not isinstance(node, ast.ClassDef) else (f"{node.name}.", node.body)
            for fn in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    found[(str(path), first)] = (path.name, prefix + fn.name)
    return found


def called_functions(commands) -> set:
    """{(resolved file, first line)} of every Python function the commands call."""
    for path in SRC.glob("*.py"):  # a cache warmed by an earlier test would hide the calls behind it
        for obj in vars(importlib.import_module(f"reldet.{path.stem}")).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        exits = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    assert exits == [0] * len(commands)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def test_every_src_function_is_called_by_a_cli_command(tmp_path):
    ds, ck = str(tmp_path / "ds"), str(tmp_path / "ck")
    called = called_functions([
        ["gen-data", "--seed", "1", "--count", "3", "--out", ds, "--img-size", "16", "--max-objects", "2"],
        ["train", "--data", ds, "--out", ck, "--epochs", "2", "--d-model", "8", "--heads", "2",
         "--enc-layers", "1", "--dec-layers", "1", "--queries", "6", "--seed", "0"],
        ["eval", "--data", ds, "--checkpoint", ck, "--json", str(tmp_path / "report.json")],
        ["predict", "--image", str(tmp_path / "ds" / "scene_00000.ppm"), "--checkpoint", ck,
         "--out", str(tmp_path / "pred")],
        ["selftest", "--seed", "0"],
    ])
    defined = defined_functions()
    assert len(defined) > 100  # the walk found the package
    uncalled = sorted(name for key, name in defined.items() if key not in called)
    unexpected = [name for name in uncalled if name not in READ_BY_TRACING]
    assert not unexpected, f"src/reldet defines functions no CLI command calls: {unexpected}"
    assert uncalled == sorted(READ_BY_TRACING), "a CLI command now calls a name on the allow-list; drop it there"
    tracing = TRACING.read_text()
    for name, text in READ_BY_TRACING.items():
        assert text in tracing, f"perfbench/tracing.py no longer reads {name}; drop it from src/reldet"
