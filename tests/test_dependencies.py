"""numpy stays reldet's only runtime dependency: every import in
``src/reldet`` names the standard library, numpy or the package itself, and
``pyproject.toml`` declares numpy alone."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "reldet"


def test_src_imports_only_the_standard_library_and_numpy():
    imported = {}  # top-level module name -> where it is first imported
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0 is a relative import
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], f"{path.name}:{node.lineno}")
    assert "numpy" in imported
    outside = {name: at for name, at in imported.items() if name not in sys.stdlib_module_names | {"numpy"}}
    assert not outside, f"third-party imports in src/reldet: {outside}"


def test_pyproject_declares_numpy_as_the_only_dependency():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert [line for line in lines if line.startswith("dependencies")] == ['dependencies = ["numpy>=1.24"]']
