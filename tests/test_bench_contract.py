"""The benchmark must keep running against the package it measures.

``bench/spans.py`` lists, per layer, the public functions it replaces with
timing wrappers via ``getattr``, and ``bench/selftest.py`` drives every
workload at tiny sizes (it builds ``RunTrace`` positionally and checks the
metric tables against ``BENCHMARK.json``).  A rename or a signature change
in ``gia`` would otherwise only surface when the benchmark runs.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


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


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
