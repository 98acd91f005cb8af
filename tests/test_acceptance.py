"""Acceptance suite: one test per acceptance criterion.

Every criterion prints a single ``[acceptance] criterion N (<label>): PASS|FAIL``
line (run ``pytest -s tests/test_acceptance.py`` to watch them live).  All
seeds are fixed; the whole suite is deterministic.  Expect roughly ten
minutes of wall time, dominated by the randomized convergence trials.
"""

import math
import time

import numpy as np

from conftest import CONFIG_ASYM, CONFIG_INFEASIBLE, CONFIG_SYM, fd_jacobian, random_point
from gia.aligner import run_gia, verify_solution
from gia.feasibility import (
    build_coefficient_matrix,
    build_jacobian,
    check_divisible_formula,
    check_proper,
    check_symmetric_formula,
    feasibility_check,
)
from gia.harness import SamplingBounds, run_fig6, run_test1, sample_random_config
from gia.linalg import numerical_rank
from gia.network import (
    NetworkConfig,
    Problem,
    TransceiverSet,
    alignment_all,
    generate_channel,
    scale_config,
)

BENCHMARKS = {1: CONFIG_SYM, 2: CONFIG_ASYM, 3: CONFIG_INFEASIBLE}

SMALL_BOUNDS = SamplingBounds(K_choices=(2, 3, 4), d_choices=(1, 2, 3), max_antennas=9)


def report(criterion, label, ok):
    print(f"\n[acceptance] criterion {criterion} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({label}) failed"


def rank_feasible(cfg, pairs, channel):
    hall = build_coefficient_matrix(cfg, pairs, channel)
    return numerical_rank(hall.matrix).rank == hall.n_constraints


def sample_formula_applicable(count=200, seed=20240809):
    """Random small configurations where a closed-form verdict applies.

    Yields (cfg, pairs, applicable_formula_verdict, channel_seed) tuples;
    dims are at most 9 and K at most 4.
    """
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        K = int(rng.integers(2, 5))
        J = int(rng.integers(0, 2))
        if rng.random() < 0.5:
            d = int(rng.integers(1, 4))
            M = int(rng.integers(2 * d, 10))
            N = int(rng.integers(2 * d, 10))
            if max(M, N) > 9:
                continue
            dj = tuple(int(rng.integers(1, 4)) for _ in range(J))
            Mj = tuple(int(rng.integers(x, 10)) for x in dj)
            cfg = NetworkConfig(K, J, (M,) * K + Mj, (N,) * K, (d,) * K + dj)
        else:
            d = int(rng.integers(1, 4))
            if rng.random() < 0.5:
                N = tuple(int(d * rng.integers(1, 9 // d + 1)) for _ in range(K))
                M = tuple(int(rng.integers(d, 10)) for _ in range(K + J))
            else:
                M = tuple(int(d * rng.integers(1, 9 // d + 1)) for _ in range(K + J))
                N = tuple(int(rng.integers(d, 10)) for _ in range(K))
            cfg = NetworkConfig(K, J, M, N, (d,) * (K + J))
        pairs = alignment_all(cfg)
        sym_app, sym_verdict = check_symmetric_formula(cfg, pairs)
        div_app, div_verdict = check_divisible_formula(cfg, pairs)
        if not (sym_app or div_app):
            continue
        verdict = sym_verdict if sym_app else div_verdict
        out.append((cfg, pairs, verdict, 10_000 + len(out)))
    assert len(out) == count, "formula-applicable sampler fell short"
    return out


def test_criterion_1_benchmark_verdicts():
    expected = {1: True, 2: True, 3: False}
    start = time.perf_counter()
    ok = True
    for cid, cfg in BENCHMARKS.items():
        pairs = alignment_all(cfg)
        for seed in range(10):
            ok &= feasibility_check(cfg, pairs, seed=seed).feasible == expected[cid]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    print(f"\n  30 verdicts in {elapsed * 1000:.0f} ms")
    report(1, "benchmark feasibility verdicts", ok)


def test_criterion_2_convergence_traces():
    ok = True
    # feasible networks: both algorithms suppress interference past -60 dB
    for cid, seeds in ((1, (11, 13, 7)), (2, (1, 3, 5))):
        for seed, trace_gia, trace_classical in run_fig6(
            cid, seeds=seeds, rounds=5000, target_db=-60.0
        ):
            for name, trace in (("gia", trace_gia), ("classical", trace_classical)):
                reached = trace.final_i_db <= -60.0 and trace.rounds_used <= 5000
                if not reached:
                    print(f"  config {cid} seed {seed} {name}: {trace.final_i_db:.1f} dB")
                ok &= reached
    # infeasible network: both plateau above -60 dB, proposed below classical
    for seed, trace_gia, trace_classical in run_fig6(3, seeds=(0, 1, 2), rounds=1000):
        above = trace_gia.i_db.min() > -60.0 and trace_classical.i_db.min() > -60.0
        ordered = trace_gia.final_i_db < trace_classical.final_i_db
        print(
            f"  config 3 seed {seed}: gia {trace_gia.final_i_db:.1f} dB, "
            f"classical {trace_classical.final_i_db:.1f} dB"
        )
        ok &= above and ordered
    report(2, "benchmark trace reproduction", ok)


def test_criterion_3_randomized_trials():
    # The -60 dB pass criterion has no round bound in the underlying test
    # definition; 30000 rounds covers the slowest tightly-proper samples.
    records_gia, summary_gia = run_test1(1000, algorithm="gia", seed=0, budget=30000)
    records_classical, summary_classical = run_test1(
        1000, algorithm="classical", seed=0, budget=5000
    )
    ok = summary_gia["pass_rate_among_feasible"] == 1.0
    ok &= summary_classical["pass_rate_among_feasible"] == 1.0
    ok &= summary_gia["feasible_count"] == summary_classical["feasible_count"]
    ok &= not any(r.passed for r in records_gia + records_classical if not r.feasible)
    frac = summary_gia["feasible_fraction"]
    soft_ok = abs(frac - 0.66) <= 0.05
    print(f"\n  pass rate gia {summary_gia['pass_rate_among_feasible']:.4f}, "
          f"classical {summary_classical['pass_rate_among_feasible']:.4f}")
    print(f"  [acceptance] criterion 3 soft check (feasible fraction {frac:.3f} "
          f"within 0.66±0.05): {'PASS' if soft_ok else 'FAIL'} "
          "(soft: depends on the assumed sampling distribution, reported only)")
    report(3, "randomized convergence trials", ok)


def test_criterion_4_formula_oracle_equivalence():
    sample = sample_formula_applicable()
    mismatches = 0
    for cfg, pairs, formula_verdict, channel_seed in sample:
        channel = generate_channel(cfg, channel_seed)
        if formula_verdict != rank_feasible(cfg, pairs, channel):
            mismatches += 1
    print(f"\n  {len(sample)} applicable configurations, {mismatches} mismatches")
    report(4, "closed-form verdicts equal rank verdicts", mismatches == 0)


def test_criterion_5_properness_necessity():
    sample = sample_formula_applicable()
    ok = True
    for cfg, pairs, _, channel_seed in sample:
        channel = generate_channel(cfg, channel_seed)
        if rank_feasible(cfg, pairs, channel):
            ok &= check_proper(cfg, pairs)[0]
    # constructed improper instance: one constraint, zero free variables
    cfg = NetworkConfig(K=2, J=0, M=(1, 3), N=(3, 1), d=(1, 1))
    pairs = ((2, 1),)
    proper, violating = check_proper(cfg, pairs)
    ok &= not proper and violating == pairs
    ok &= not feasibility_check(cfg, pairs).feasible
    ok &= not rank_feasible(cfg, pairs, generate_channel(cfg, 0))
    report(5, "properness necessary for feasibility", ok)


def test_criterion_6_invariance_suite():
    ok = True
    # channel dominance: one verdict per configuration across 10 seeds
    probes = list(BENCHMARKS.values())
    for i in range(5):
        cfg, _ = sample_random_config(SMALL_BOUNDS, 600 + i)
        probes.append(cfg)
    for cfg in probes:
        pairs = alignment_all(cfg)
        verdicts = {rank_feasible(cfg, pairs, generate_channel(cfg, s)) for s in range(10)}
        ok &= len(verdicts) == 1
    # scalability: doubling every dimension preserves the verdict
    flips = 0
    for i in range(50):
        cfg, pairs = sample_random_config(SMALL_BOUNDS, 700 + i)
        doubled = scale_config(cfg, 2)
        if feasibility_check(cfg, pairs).feasible != feasibility_check(doubled, pairs).feasible:
            flips += 1
    ok &= flips == 0
    # Jacobian at the identity point is exactly the coefficient matrix
    for cfg in probes:
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 3)
        hall = build_coefficient_matrix(cfg, pairs, channel)
        jac = build_jacobian(cfg, pairs, channel, TransceiverSet.identity(cfg))
        ok &= np.array_equal(jac, hall.matrix)
    # Jacobian matches central finite differences at 20 random points
    fd_cfgs = [
        CONFIG_SYM,
        CONFIG_INFEASIBLE,
        NetworkConfig(K=2, J=1, M=(4, 3, 4), N=(3, 4), d=(1, 2, 1)),
        NetworkConfig(K=3, J=0, M=(3, 4, 5), N=(4, 3, 5), d=(2, 1, 2)),
    ]
    worst = 0.0
    for idx, cfg in enumerate(fd_cfgs):
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 800 + idx)
        for point_seed in range(5):
            point = random_point(cfg, 900 + 10 * idx + point_seed)
            jac = build_jacobian(cfg, pairs, channel, point)
            fd = fd_jacobian(Problem(cfg, pairs, channel), point)
            err = float((np.abs(fd - jac) / np.maximum(np.abs(jac), 1.0)).max())
            worst = max(worst, err)
    ok &= worst <= 1e-5
    print(f"\n  scalability flips {flips}/50, worst FD relative error {worst:.2e}")
    report(6, "invariance suite", ok)


def test_criterion_7_monotone_descent():
    violations = 0
    for i in range(100):
        cfg, pairs = sample_random_config(SamplingBounds(), 5000 + i)
        channel = generate_channel(cfg, 6000 + i)
        _, trace = run_gia(cfg, pairs, channel, max_iters=250, seed=i)
        leaks = trace.leakages
        # ignore wobble at the roundoff floor of the squared residuals
        active = leaks[:-1] > 1e-24
        bad = (np.diff(leaks) > 1e-12 * leaks[:-1]) & active
        violations += int(bad.sum())
    print(f"\n  {violations} violations over 100 runs")
    report(7, "monotone interference descent", violations == 0)


def test_criterion_8_solution_validity():
    checked = 0
    failures = 0
    i = 0
    from gia.harness import _split_trial_seed, trial_seed

    while checked < 100:
        seed = trial_seed(42, i)
        i += 1
        cfg_seed, ch_seed, algo_seed = _split_trial_seed(seed)
        cfg, pairs = sample_random_config(SamplingBounds(), cfg_seed)
        channel = generate_channel(cfg, ch_seed)
        if not feasibility_check(cfg, pairs, channel).feasible:
            continue
        checked += 1
        ts, trace = run_gia(
            cfg, pairs, channel, max_iters=100000, leak_tol=1e-12, seed=algo_seed
        )
        reached = bool((trace.i_db <= -60.0).any())
        verdict = verify_solution(cfg, pairs, channel, ts, tol=1e-6)
        if not (reached and verdict.passed):
            failures += 1
            print(f"  instance {checked}: reached={reached} failures={verdict.failures}")
    print(f"\n  {checked} feasible instances, {failures} failures")
    report(8, "aligned solutions verify", failures == 0)
