"""The benchmark's tracer wraps reldet attributes by name from outside the
program; a renamed or removed attribute would silently drop its span."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_span_names_a_reldet_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # the standard library is all it imports
    missing = [f"reldet.{module}.{attribute} (span {span})" for module, attribute, span in tracing.SPANS
               if not callable(getattr(importlib.import_module(f"reldet.{module}"), attribute, None))]
    assert tracing.SPANS
    assert not missing, f"perfbench traces attributes reldet does not have: {missing}"
