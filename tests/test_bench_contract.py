"""The benchmark must keep running against the package it measures.

``bench/spans.py`` lists, per layer, the public functions it replaces with
timing wrappers via ``getattr``, and ``bench/selftest.py`` drives every
workload at tiny sizes (it builds ``RunTrace`` positionally and checks the
metric tables against ``BENCHMARK.json``).  A rename or a signature change
in ``gia`` would otherwise only surface when the benchmark runs.  So would a
refactor that routes a verdict around a public function the traced run times.
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


def test_traced_feasibility_sees_every_step(monkeypatch):
    # the tiny traced run of bench/selftest.py; it writes nothing under bench/out/
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    before = set(sys.modules)
    try:
        run = importlib.import_module("run")
        workloads = importlib.import_module("workloads")
        report = run.measure(workloads.Feasibility(3, per_k=1, scales=(1, 2)), seconds=0.0,
                             trace=True, min_passes=2)
    finally:
        for name in ("run", "workloads", "spans"):
            if name not in before:
                sys.modules.pop(name, None)
    assert report["correct"], report["problems"]
    samples = report["per_layer_samples"]
    for name in ("feasibility.feasibility_check.calls", "feasibility.check_proper.us_per_call",
                 "feasibility.check_symmetric_formula.self_s",
                 "network.generate_channel.us_per_call", "linalg.numerical_rank.calls"):
        assert samples[name] > 0, name
