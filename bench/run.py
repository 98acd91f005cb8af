"""Benchmark of gia: one command, three workloads, an untraced and a traced run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload fig6 --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout; there is nothing to
build.  The run

1. records the environment and absorbs OpenBLAS's one-time first-call stall
   (``blas_warmup_s``) before anything is timed,
2. sets the workload up ``SETUP_REPS`` times and reports the median
   (``setup_s``),
3. runs whole passes of the workload until they add up to ``--seconds`` (and
   at least ``TRACE_PASSES`` passes), timing each operation; for workloads
   bound by Python speed, a probe between passes adjusts the times for the
   host's current speed (``speed_probe``),
4. checks each pass's outputs right after it, outside the timing,
5. with ``--trace 1``, replays the first ``TRACE_PASSES`` passes with every
   layer wrapped (see ``spans.py``), requires identical outputs, and reports
   the per-layer metrics,
6. prints a report, writes it with the spans under ``bench/out/``, and ends
   with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

It exits 1 when an output check fails and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPS = 5
TRACE_PASSES = 3

#: Loop count of ``speed_probe`` and its median time on the reference box
#: (2-vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6).  Only the ratio of the
#: two probe times matters; the constant just keeps adjusted times in seconds.
PROBE_LOOPS = 1000
PROBE_REF_S = 0.034

#: (name, unit) of the end-to-end metrics, printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics, printed with ``--trace 1``.
PER_LAYER = (
    ("network.generate_channel.us_per_call", "us"),
    ("network.canonical_alignment.calls_per_round", "calls/round"),
    ("network.check_channel.calls_per_round", "calls/round"),
    ("linalg.pseudo_inverse.calls", "count"),
    ("linalg.pseudo_inverse.us_per_call", "us"),
    ("linalg.pseudo_inverse.self_s", "s"),
    ("linalg.frobenius_norm_sq.calls", "count"),
    ("linalg.frobenius_norm_sq.self_s", "s"),
    ("linalg.numerical_rank.calls", "count"),
    ("linalg.numerical_rank.us_per_call", "us"),
    ("linalg.numerical_rank.self_s", "s"),
    ("linalg.numerical_rank.margin_min", "ratio"),
    ("linalg.numerical_rank.dropped_max", "ratio"),
    ("feasibility.feasibility_check.calls", "count"),
    ("feasibility.feasibility_check.ms_p50", "ms"),
    ("feasibility.feasibility_check.ms_p90", "ms"),
    ("feasibility.feasibility_check.self_s", "s"),
    ("feasibility.check_proper.us_per_call", "us"),
    ("feasibility.check_proper.self_s", "s"),
    ("feasibility.build_coefficient_matrix.us_per_call", "us"),
    ("feasibility.build_coefficient_matrix.self_s", "s"),
    ("feasibility.check_symmetric_formula.self_s", "s"),
    ("feasibility.check_divisible_formula.self_s", "s"),
    ("feasibility.method.hall_rank", "count"),
    ("feasibility.method.proper_fail", "count"),
    ("feasibility.method.symmetric_formula", "count"),
    ("feasibility.method.divisible_formula", "count"),
    ("aligner.receiver_update.calls", "count"),
    ("aligner.receiver_update.us_per_call", "us"),
    ("aligner.receiver_update.self_s", "s"),
    ("aligner.transmitter_update.calls", "count"),
    ("aligner.transmitter_update.us_per_call", "us"),
    ("aligner.transmitter_update.self_s", "s"),
    ("aligner.leakage.calls", "count"),
    ("aligner.leakage.us_per_call", "us"),
    ("aligner.leakage.self_s", "s"),
    ("aligner.gia.rounds", "count"),
    ("aligner.gia.us_per_round", "us"),
    ("aligner.classical.rounds", "count"),
    ("aligner.classical.us_per_round", "us"),
    ("aligner.stop.tolerance", "count"),
    ("aligner.stop.stalled", "count"),
    ("aligner.stop.max_iters", "count"),
    ("aligner.wasted_rounds_fraction", "ratio"),
    ("harness.run_trial.ms_p50", "ms"),
    ("harness.run_trial.ms_p90", "ms"),
    ("harness.run_trial.self_s", "s"),
    ("harness.tail_share", "ratio"),
    ("harness.run_fig6.self_s", "s"),
    ("trace.overhead_fraction", "ratio"),
)


def import_gia():
    """Import ``gia`` from this checkout's ``src/``; never from anywhere else."""
    src = ROOT / "src"
    if not (src / "gia" / "__init__.py").is_file():
        print(f"error: no gia package under {src}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import gia
    import_s = time.perf_counter() - t0
    if Path(gia.__file__).resolve().parent != (src / "gia").resolve():
        print(f"error: imported gia from {gia.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return import_s


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_env": {v: os.environ.get(v, "unset") for v in thread_vars},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def absorb_blas_stall() -> float:
    """Repeat a 54x207 complex SVD until the last three calls are as fast as the best.

    In some fresh processes OpenBLAS takes 0.1-0.3 s for each of its first
    few SVDs and about 2 ms afterwards.  This runs before set-up, so the
    stall lands neither in ``setup_s`` nor in a timed phase.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((54, 207)) + 1j * rng.standard_normal((54, 207))
    t_start = time.perf_counter()
    times = []
    while time.perf_counter() - t_start < 5.0:
        t0 = time.perf_counter()
        np.linalg.svd(a, compute_uv=False)
        times.append(time.perf_counter() - t0)
        best = min(times)
        if len(times) >= 5 and all(t <= 2 * best + 0.002 for t in times[-3:]):
            break
    return time.perf_counter() - t_start


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    import numpy as np

    return float(np.percentile(values, q))


def run_ops(workload, ops):
    """Run operations in order; an exception fails that operation only."""
    done = []
    perf = time.perf_counter
    for op in ops:
        t0 = perf()
        try:
            result, error = workload.call(op), None
        except Exception as exc:  # one failed operation must not end the workload
            result, error = None, f"{type(exc).__name__}: {exc}"
        done.append((op, result, error, perf() - t0))
    return done


def speed_probe() -> float:
    """Seconds for a fixed loop of small complex numpy calls, like those of an ALS round.

    The probe runs no ``gia`` code, so no change to the package moves it.
    It tracks how fast the host runs Python-bound code at the moment.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    b = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(PROBE_LOOPS):
            c = a @ b
            np.linalg.svd(c, full_matrices=False)
            float(np.sum(c.real * c.real + c.imag * c.imag))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_phase(workload, seconds: float, min_passes: int):
    """Run whole passes until ``seconds`` of pass time have elapsed, and at least ``min_passes``.

    Each pass is checked as soon as it ends, outside its timing, and the
    outputs of every pass after the first ``min_passes`` are then dropped, so
    memory does not grow with the number of passes a run fits in.  Returns
    ``(passes, problems)``; a pass is ``(ops done, seconds, host-speed
    factor, failed units)``.
    """
    adjust = workload.host_speed_adjusted
    probe = speed_probe() if adjust else 0.0
    passes, problems = [], []
    timed = 0.0
    i = 0
    while i < min_passes or timed < seconds:
        t0 = time.perf_counter()
        done = run_ops(workload, workload.pass_ops(i))
        dt = time.perf_counter() - t0
        timed += dt
        factor = 1.0
        if adjust:
            after = speed_probe()
            factor = PROBE_REF_S / ((probe + after) / 2.0)
            probe = after
        ok = [(op, result) for op, result, error, _ in done if error is None]
        problems += workload.check(ok)
        failed = sum(workload.failures(op, result) for op, result in ok)
        if i >= min_passes:
            done = [(op, None, error, t) for op, _, error, t in done]
        passes.append((done, dt, factor, failed))
        i += 1
    return passes, problems


def per_layer_metrics(tracer, rounds_done, wasted, overhead) -> tuple[dict, dict]:
    """Per-layer values and the number of samples behind each."""
    values, samples = {}, {}

    def put(name, value, n):
        values[name] = float(value)
        samples[name] = int(n)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    als_rounds = tracer.rounds["gia"]
    n, tot, _ = tracer.stat("network.generate_channel")
    put("network.generate_channel.us_per_call", ratio(tot, n, 1e6), n)
    for fn in ("canonical_alignment", "check_channel"):
        n, _, _ = tracer.stat(f"network.{fn}")
        put(f"network.{fn}.calls_per_round", ratio(n, als_rounds), als_rounds)
    for layer, fn, fields in (
        ("linalg", "pseudo_inverse", ("calls", "us_per_call", "self_s")),
        ("linalg", "frobenius_norm_sq", ("calls", "self_s")),
        ("linalg", "numerical_rank", ("calls", "us_per_call", "self_s")),
        ("feasibility", "feasibility_check", ("calls", "self_s")),
        ("feasibility", "check_proper", ("us_per_call", "self_s")),
        ("feasibility", "build_coefficient_matrix", ("us_per_call", "self_s")),
        ("feasibility", "check_symmetric_formula", ("self_s",)),
        ("feasibility", "check_divisible_formula", ("self_s",)),
        ("aligner", "receiver_update", ("calls", "us_per_call", "self_s")),
        ("aligner", "transmitter_update", ("calls", "us_per_call", "self_s")),
        ("aligner", "leakage", ("calls", "us_per_call", "self_s")),
        ("harness", "run_trial", ("self_s",)),
        ("harness", "run_fig6", ("self_s",)),
    ):
        n, tot, self_s = tracer.stat(f"{layer}.{fn}")
        got = {"calls": n, "us_per_call": ratio(tot, n, 1e6), "self_s": self_s}
        for field in fields:
            put(f"{layer}.{fn}.{field}", got[field], n)
    n_rank = tracer.rank_results
    put("linalg.numerical_rank.margin_min", tracer.margin_min if n_rank else 0.0, n_rank)
    put("linalg.numerical_rank.dropped_max", tracer.dropped_max, n_rank)
    verdict_ms = [d * 1e3 for d in tracer.durations["feasibility.feasibility_check"]]
    put("feasibility.feasibility_check.ms_p50", percentile(verdict_ms, 50), len(verdict_ms))
    put("feasibility.feasibility_check.ms_p90", percentile(verdict_ms, 90), len(verdict_ms))
    n_verdicts = sum(tracer.methods.values())
    for method in ("hall_rank", "proper_fail", "symmetric_formula", "divisible_formula"):
        put(f"feasibility.method.{method}", tracer.methods.get(method, 0), n_verdicts)
    for algo in ("gia", "classical"):
        r = tracer.rounds[algo]
        put(f"aligner.{algo}.rounds", r, r)
        put(f"aligner.{algo}.us_per_round", ratio(tracer.algorithm_s[algo], r, 1e6), r)
    n_runs = sum(tracer.stops.values())
    for reason in ("tolerance", "stalled", "max_iters"):
        put(f"aligner.stop.{reason}", tracer.stops.get(reason, 0), n_runs)
    put("aligner.wasted_rounds_fraction", ratio(*wasted), wasted[1])
    trial_ms = [d * 1e3 for d in tracer.durations["harness.run_trial"]]
    put("harness.run_trial.ms_p50", percentile(trial_ms, 50), len(trial_ms))
    put("harness.run_trial.ms_p90", percentile(trial_ms, 90), len(trial_ms))
    slow = sorted(trial_ms, reverse=True)[: math.ceil(len(trial_ms) / 10)]
    put("harness.tail_share", ratio(sum(slow), sum(trial_ms)), len(trial_ms))
    put("trace.overhead_fraction", overhead, rounds_done)
    return values, samples


def measure(workload, seconds: float, trace: bool, min_passes: int = TRACE_PASSES) -> dict:
    """Set up, time, check and (optionally) trace one workload; return the report."""
    import gia
    import spans

    report = {"workload": workload.name, "seed": workload.seed, "seconds": seconds,
              "trace": int(trace), "unit": workload.unit}
    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.prepare()
        workload.warm()
        setup.append(time.perf_counter() - t0)
    report["setup_all_s"] = setup

    gc.collect()
    passes, problems = timed_phase(workload, seconds, min_passes)
    ops = [(op, error, dt, factor) for done, _, factor, _ in passes for op, _, error, dt in done]
    attempted = sum(workload.units(op) for op, _, _, _ in ops)
    failed = sum(workload.units(op) for op, error, _, _ in ops if error is not None)
    failed += sum(f for _, _, _, f in passes)
    raw_op_ms = [dt * 1e3 / workload.units(op) for op, error, dt, _ in ops if error is None]
    op_ms = [dt * f * 1e3 / workload.units(op) for op, error, dt, f in ops if error is None]
    pass_s = [dt for _, dt, _, _ in passes]
    factors = [f for _, _, f, _ in passes]
    adjusted_s = [dt * f for dt, f in zip(pass_s, factors)]
    report.update(
        passes=len(passes), pass_s=pass_s, speed_factor=factors, ops=len(ops),
        timed_s=sum(pass_s), attempted=attempted, failed=failed,
        errors=[f"{op}: {error}" for op, error, _, _ in ops if error is not None],
        op_ms_p90=percentile(op_ms, 90), op_ms_samples=len(op_ms),
        raw={"wall_s": statistics.median(pass_s),
             "ops_per_s": (attempted - failed) / sum(pass_s),
             "op_ms_p50": percentile(raw_op_ms, 50)},
    )
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(adjusted_s),
        "ops_per_s": (attempted - failed) / sum(adjusted_s),
        "op_ms_p50": percentile(op_ms, 50),
    }

    if trace:
        replay = [rec for done, _, _, _ in passes[:min_passes] for rec in done]
        untraced_s = sum(dt * f for _, dt, f, _ in passes[:min_passes])
        modules = {"network": gia.network, "linalg": gia.linalg,
                   "feasibility": gia.feasibility, "aligner": gia.aligner,
                   "harness": gia.harness, "package": gia}
        tracer = spans.Tracer()
        gc.collect()
        probe = speed_probe() if workload.host_speed_adjusted else 0.0
        with spans.traced(modules, tracer):
            t0 = time.perf_counter()
            again = run_ops(workload, [op for op, _, _, _ in replay])
            traced_s = time.perf_counter() - t0
        if workload.host_speed_adjusted:
            # Compare with the untraced passes at the same host speed.
            traced_s *= PROBE_REF_S / ((probe + speed_probe()) / 2.0)
        mismatched = 0
        for (op, r1, e1, _), (_, r2, e2, _) in zip(replay, again):
            same = (e1 == e2) if (e1 or e2) else (workload.fingerprint(r1) == workload.fingerprint(r2))
            mismatched += not same
        if mismatched:
            problems.append(f"traced run changed the output of {mismatched} of {len(replay)} operations")
        replay_ok = [(op, result) for op, result, error, _ in replay if error is None]
        layer, samples = per_layer_metrics(
            tracer, len(replay), workload.wasted_rounds(replay_ok),
            traced_s / untraced_s - 1.0)
        report.update(per_layer=layer, per_layer_samples=samples, traced_s=traced_s,
                      untraced_replay_s=untraced_s, spans=tracer.n_spans)
        report["_tracer"] = tracer

    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["end_to_end"] = end_to_end
    report["problems"] = problems
    report["correct"] = not problems
    return report


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": report["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_report(report: dict) -> None:
    env = report["env"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {report['trace']}")
    print(f"env python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"nproc {env['nproc']}  cpu {env['cpu']}")
    print("env blas thread variables (the benchmark pins none): "
          + " ".join(f"{k}={v}" for k, v in env["blas_thread_env"].items()))
    print(f"import_s = {report['import_s']:.4f} s")
    print(f"blas_warmup_s = {report['blas_warmup_s']:.4f} s (first-call stall absorbed here, before set-up)")
    e = report["end_to_end"]
    setup = report["setup_all_s"]
    print(f"setup_s = {e['setup_s']:.6f} s (median of {len(setup)}; first {setup[0]:.6f} s)")
    print(f"wall_s = {e['wall_s']:.6f} s (median of {report['passes']} passes)")
    print(f"ops_per_s = {e['ops_per_s']:.6f} 1/s ({report['unit']}; "
          f"{report['ops']} calls in {report['timed_s']:.3f} s)")
    n = report["op_ms_samples"]
    print(f"op_ms_p50 = {e['op_ms_p50']:.4f} ms (n={n})")
    if any(f != 1.0 for f in report["speed_factor"]):
        raw = report["raw"]
        print(f"  host-speed adjusted; unadjusted wall_s = {raw['wall_s']:.6f} s, "
              f"ops_per_s = {raw['ops_per_s']:.6f} 1/s, op_ms_p50 = {raw['op_ms_p50']:.4f} ms; "
              f"factor median {statistics.median(report['speed_factor']):.4f} "
              f"(range {min(report['speed_factor']):.4f}-{max(report['speed_factor']):.4f})")
    if n >= 100:
        print(f"op_ms_p90 = {report['op_ms_p90']:.4f} ms (n={n}, {n - math.ceil(0.9 * n)} beyond)")
    else:
        print(f"op_ms_p90 = n/a (n={n}; fewer than 10 samples beyond p90)")
    frac = report["failed"] / report["attempted"] if report["attempted"] else 0.0
    print(f"failed_fraction = {frac:.6f} ({report['failed']} failed / {report['attempted']} attempted)")
    for err in report["errors"]:
        print(f"  error: {err}")
    print(f"peak_rss_mb = {e['peak_rss_mb']:.1f} MB")
    if report["trace"]:
        adjusted = " (host-speed adjusted)" if any(f != 1.0 for f in report["speed_factor"]) else ""
        print(f"traced replay: {report['spans']} spans, {report['traced_s']:.3f} s traced "
              f"vs {report['untraced_replay_s']:.3f} s untraced{adjusted}")
        for name, unit in PER_LAYER:
            print(f"  {name:52s} {report['per_layer'][name]:>16.6g} {unit:12s} "
                  f"n={report['per_layer_samples'][name]}")
    for p in report["problems"]:
        print(f"CHECK FAILED: {p}")
    print(f"checks: {'all passed' if report['correct'] else 'FAILED'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    import_s = import_gia()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    env = environment()
    blas_warmup_s = absorb_blas_stall()
    report = measure(workloads.WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    report.update(env=env, import_s=import_s, blas_warmup_s=blas_warmup_s)

    tracer = report.pop("_tracer", None)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.save(OUT_DIR / f"{stem}.spans.npz")
    line = result_line(report)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**report, "result": line}, indent=1) + "\n")
    print_report(report)
    print(json.dumps(line))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
