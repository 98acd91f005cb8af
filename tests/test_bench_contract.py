"""The benchmark's traced run wraps gia functions by name; keep those names resolvable.

``bench/spans.py`` lists, per layer, the public functions it replaces with
timing wrappers via ``getattr``.  A rename in ``gia`` would otherwise only
surface when the traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"gia.{layer}.{name}"
        for layer, names in spans.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"gia.{layer}"), name, None))
    ]
    assert spans.LAYERS and not missing
