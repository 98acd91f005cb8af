import math

import numpy as np
import pytest

from conftest import CONFIG_ASYM, CONFIG_INFEASIBLE, CONFIG_SYM
from gia.harness import (
    BENCHMARK_CONFIGS,
    TRIAL_CSV_HEADER,
    SamplingBounds,
    benchmark_config,
    run_fig6,
    run_test1,
    run_trial,
    sample_random_config,
    summary_lines,
    sweep_feasibility,
    trial_seed,
    write_trial_csv,
)
from gia.feasibility import feasibility_check
from gia.network import ConfigError, NetworkConfig, alignment_all, scale_config

SMALL_BOUNDS = SamplingBounds(K_choices=(2, 3), d_choices=(1, 2), max_antennas=6)

#: ``(M, N, d)`` of the benchmark's ``feasibility`` family, drawn with seed
#: words ``[0, K, i]`` from ``SamplingBounds(K_choices=(K,))`` for i = 0..7.
FAMILY = {
    3: [((14, 12, 7), (10, 7, 15), (2, 3, 3)), ((13, 9, 4), (9, 10, 9), (3, 1, 2)),
        ((4, 10, 14), (6, 8, 14), (2, 3, 1)), ((6, 15, 4), (11, 13, 5), (3, 1, 3)),
        ((11, 7, 5), (4, 3, 12), (3, 2, 3)), ((4, 15, 7), (5, 3, 8), (1, 2, 2)),
        ((6, 1, 10), (11, 10, 3), (1, 1, 2)), ((12, 11, 12), (8, 4, 10), (3, 3, 1))],
    4: [((13, 8, 10, 7), (2, 13, 4, 4), (2, 3, 2, 1)),
        ((6, 14, 13, 10), (11, 14, 6, 9), (2, 3, 2, 2)),
        ((1, 10, 3, 12), (11, 13, 12, 13), (1, 2, 3, 3)),
        ((11, 12, 2, 13), (5, 12, 9, 4), (3, 2, 2, 3)),
        ((2, 12, 7, 5), (10, 11, 11, 15), (1, 3, 2, 3)),
        ((12, 1, 12, 13), (14, 13, 8, 9), (1, 1, 3, 2)),
        ((10, 14, 15, 12), (3, 8, 7, 8), (2, 2, 1, 1)),
        ((12, 14, 14, 10), (14, 13, 5, 12), (2, 3, 2, 1))],
    5: [((8, 6, 7, 7, 3), (12, 10, 6, 3, 7), (3, 2, 3, 2, 2)),
        ((5, 13, 15, 14, 5), (15, 4, 11, 4, 9), (2, 2, 3, 3, 3)),
        ((1, 15, 11, 7, 15), (11, 7, 7, 5, 8), (1, 1, 2, 2, 2)),
        ((6, 7, 9, 12, 13), (10, 9, 8, 3, 3), (1, 1, 1, 2, 3)),
        ((9, 13, 13, 9, 4), (7, 12, 14, 9, 2), (2, 3, 3, 1, 1)),
        ((13, 4, 6, 13, 9), (15, 2, 9, 11, 11), (1, 1, 1, 3, 3)),
        ((5, 7, 1, 4, 13), (12, 6, 7, 4, 11), (3, 1, 1, 2, 1)),
        ((10, 12, 12, 7, 13), (12, 12, 9, 11, 10), (1, 2, 2, 2, 2))],
}


class TestBenchmarkConfigs:
    def test_reference_tuples(self):
        assert BENCHMARK_CONFIGS[1] == NetworkConfig(3, 0, (6, 6, 6), (6, 6, 6), (3, 3, 3))
        assert BENCHMARK_CONFIGS[2] == NetworkConfig(3, 0, (5, 5, 5), (6, 6, 9), (3, 3, 3))
        assert BENCHMARK_CONFIGS[3] == NetworkConfig(3, 0, (5, 5, 5), (5, 7, 9), (3, 3, 3))

    def test_bad_id(self):
        with pytest.raises(ValueError):
            benchmark_config(4)

    def test_id_is_an_integer(self):
        for bad in (1.0, 2.0):
            with pytest.raises(ValueError, match=f"config_id must be an integer, got {bad!r}"):
                benchmark_config(bad)
        with pytest.raises(ValueError, match="config_id must be an integer, got '1'"):
            benchmark_config("1")
        with pytest.raises(ValueError, match="config_id must be an integer"):
            run_fig6(2.0, seeds=(0,), rounds=1)
        assert benchmark_config(np.int64(2)) is BENCHMARK_CONFIGS[2]


class TestSampleRandomConfig:
    def test_deterministic(self):
        a = sample_random_config(SamplingBounds(), 123)
        b = sample_random_config(SamplingBounds(), 123)
        assert a == b

    def test_constraints_hold_by_construction(self):
        bounds = SamplingBounds()
        for seed in range(1000):
            cfg, pairs = sample_random_config(bounds, seed)
            assert cfg.K in bounds.K_choices
            assert cfg.J == 0
            assert all(1 <= dk <= 3 for dk in cfg.d)
            assert all(dk <= m <= 15 for dk, m in zip(cfg.d, cfg.M))
            assert all(dk <= n <= 15 for dk, n in zip(cfg.d, cfg.N))
            assert len(pairs) == cfg.K * (cfg.K - 1)

    def test_family_draws_pinned(self):
        # the seed-word lists of the benchmark's feasibility family
        for K, rows in FAMILY.items():
            for i, (M, N, d) in enumerate(rows):
                cfg, _ = sample_random_config(SamplingBounds(K_choices=(K,)), [0, K, i])
                assert cfg == NetworkConfig(K=K, J=0, M=M, N=N, d=d)

    def test_seed_checked(self):
        # None would draw a different network on every call; 2**64 is out
        # of the package's seed range
        for seed in (None, 0.5, -1, 2**64, [0, 3, -7], [0, 2.5]):
            with pytest.raises(ValueError, match="seed must be"):
                sample_random_config(SamplingBounds(), seed)
        assert sample_random_config(SamplingBounds(), np.uint64(2**64 - 1)) == \
            sample_random_config(SamplingBounds(), [2**64 - 1])

    @pytest.mark.parametrize("field, kwargs", [
        ("max_antennas", {"max_antennas": 2}),
        ("max_antennas", {"max_antennas": 15.0}),
        ("K_choices", {"K_choices": ()}),
        ("K_choices", {"K_choices": (3, 0)}),
        ("d_choices", {"d_choices": ()}),
        ("d_choices", {"d_choices": (1, 2.5)}),
        ("d_choices", {"d_choices": (-1,), "max_antennas": 4}),
    ], ids=["antennas-below-d", "antennas-float", "K-empty", "K-zero", "d-empty", "d-float",
            "d-negative"])
    def test_bounds_checked(self, field, kwargs):
        # SamplingBounds(max_antennas=2) used to be accepted and then fail
        # inside numpy on 19 of seeds 0-19
        with pytest.raises(ValueError, match=field):
            SamplingBounds(**kwargs)

    def test_K_distribution_uniform(self):
        counts = {3: 0, 4: 0, 5: 0}
        n = 10**4
        for seed in range(n):
            cfg, _ = sample_random_config(SamplingBounds(), seed)
            counts[cfg.K] += 1
        for K, c in counts.items():
            assert abs(c / n - 1 / 3) <= 0.03


class TestTrials:
    def test_trial_reproducible(self):
        seed = trial_seed(7, 3)
        a = run_trial(3, seed, "gia", SMALL_BOUNDS, budget=400)
        b = run_trial(3, seed, "gia", SMALL_BOUNDS, budget=400)
        assert a == b

    def test_trial_seed_rejects_non_integers(self):
        # a float is not truncated onto another seed's trials
        for master, trial in ((0.5, 1), (0, 1.7)):
            with pytest.raises(ValueError, match="must be an integer"):
                trial_seed(master, trial)
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_test1(2, seed=0.5, budget=10, bounds=SMALL_BOUNDS)
        assert trial_seed(np.int64(7), np.int64(3)) == trial_seed(7, 3)

    def test_counts_checked_before_work(self, monkeypatch):
        import gia.harness as harness

        def no_work(*_args):
            raise AssertionError("a trial started")

        monkeypatch.setattr(harness, "sample_random_config", no_work)
        for call, name in ((lambda: run_test1(2.5, budget=10), "n_trials"),
                           (lambda: run_test1(0, budget=10), "n_trials must be at least 1"),
                           (lambda: run_test1(2, budget=2.5), "budget"),
                           (lambda: run_test1(2, budget=-1), "budget"),
                           (lambda: run_trial(0, 1, "gia", budget=1.5), "budget")):
            with pytest.raises(ValueError, match=name):
                call()

    def test_records_independent_of_batch(self):
        records, _ = run_test1(5, algorithm="gia", seed=11, budget=400, bounds=SMALL_BOUNDS)
        lone = run_trial(2, trial_seed(11, 2), "gia", SMALL_BOUNDS, budget=400)
        assert records[2] == lone

    def test_infeasible_trials_skip_algorithm(self):
        records, summary = run_test1(40, algorithm="gia", seed=0, budget=400, bounds=SMALL_BOUNDS)
        for r in records:
            if not r.feasible:
                assert not r.passed
                assert r.rounds_used == 0
                assert math.isnan(r.final_i_db)
        assert summary["feasible_count"] == sum(r.feasible for r in records)

    def test_passed_implies_minus_60(self):
        records, _ = run_test1(25, algorithm="classical", seed=5, budget=2000, bounds=SMALL_BOUNDS)
        for r in records:
            if r.passed:
                assert r.final_i_db <= -60.0

    def test_bad_algorithm(self):
        with pytest.raises(ValueError):
            run_trial(0, 1, "genie", SMALL_BOUNDS)

    def test_csv_format(self, tmp_path):
        records, _ = run_test1(4, algorithm="gia", seed=2, budget=400, bounds=SMALL_BOUNDS)
        path = tmp_path / "trials.csv"
        write_trial_csv(path, records)
        lines = path.read_text().splitlines()
        assert lines[0] == TRIAL_CSV_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[2] in ("true", "false")

    def test_summary_lines(self):
        _, summary = run_test1(3, algorithm="gia", seed=1, budget=400, bounds=SMALL_BOUNDS)
        lines = summary_lines(summary)
        assert any(line.startswith("n_trials = 3") for line in lines)


class TestFig6:
    def test_returns_paired_traces(self):
        results = run_fig6(1, seeds=(0,), rounds=25)
        assert len(results) == 1
        seed, trace_gia, trace_classical = results[0]
        assert seed == 0
        assert len(trace_gia.points) == 26
        assert len(trace_classical.points) == 26
        assert trace_gia.i_db[0] == 0.0

    def test_bad_config_id(self):
        with pytest.raises(ValueError):
            run_fig6(9)

    @pytest.mark.xfail(strict=True, reason="known defect: ALS reports -60.0006 dB on this "
                       "channel of the infeasible config 3 (see ROADMAP)")
    def test_infeasible_config3_stays_above_minus_60(self):
        (_, trace_gia, _), = run_fig6(3, seeds=(920615091,), rounds=1000, target_db=-60)
        assert trace_gia.final_i_db > -60


class TestSweep:
    def test_boundary_flip_symmetric_family(self):
        # K=4, d=1, all cross pairs: threshold is M + N >= 5
        family = [
            NetworkConfig(4, 0, (2,) * 4, (2,) * 4, (1,) * 4),  # 4 < 5: infeasible
            NetworkConfig(4, 0, (2,) * 4, (3,) * 4, (1,) * 4),  # 5: feasible
            NetworkConfig(4, 0, (3,) * 4, (3,) * 4, (1,) * 4),  # 6: feasible
        ]
        verdicts = [report.feasible
                    for cfg in family
                    for _, _, report in sweep_feasibility(cfg, alignment_all(cfg), scales=(1,))]
        assert verdicts == [False, True, True]

    def test_scaling_preserves_verdict(self):
        for cfg, feasible in ((CONFIG_SYM, True), (CONFIG_INFEASIBLE, False)):
            rows = sweep_feasibility(cfg, alignment_all(cfg), channel_seeds=(0,), scales=(1, 2))
            assert [(c, s) for c, s, _ in rows] == [(1, 0), (2, 0)]
            assert {report.feasible for _, _, report in rows} == {feasible}

    def test_verdict_independent_of_seed(self):
        rows = sweep_feasibility(CONFIG_INFEASIBLE, alignment_all(CONFIG_INFEASIBLE),
                                 channel_seeds=tuple(range(10)), scales=(1,))
        assert {report.feasible for _, _, report in rows} == {False}
        assert [s for _, s, _ in rows] == list(range(10))

    def test_rows_are_scale_major_feasibility_reports(self):
        pairs = alignment_all(CONFIG_INFEASIBLE)
        rows = sweep_feasibility(CONFIG_INFEASIBLE, pairs, channel_seeds=(3, 1), scales=(2, 1))
        assert rows == [(c, s, feasibility_check(scale_config(CONFIG_INFEASIBLE, c), pairs, seed=s))
                        for c in (2, 1) for s in (3, 1)]

    def test_one_shot_iterator_alignment(self):
        # the first verdict must not use up the alignment set for the rest
        pairs = alignment_all(CONFIG_INFEASIBLE)
        expected = sweep_feasibility(CONFIG_INFEASIBLE, pairs, channel_seeds=(0, 1), scales=(1, 2))
        assert sweep_feasibility(CONFIG_INFEASIBLE, iter(pairs), channel_seeds=iter((0, 1)),
                                 scales=iter((1, 2))) == expected
        assert {report.n_constraints for _, _, report in expected} == {54, 216}

    @pytest.mark.parametrize("alignment, seeds, scales, error", [
        (((1, 2), (3, 3)), (0, 1), (1, 2), ConfigError),
        (((1, 2), (4, 1)), (0, 1), (1, 2), ConfigError),
        (((1, 2),), (0, -1), (1, 2), ValueError),
        (((1, 2),), (0, 2**64), (1, 2), ValueError),
        (((1, 2),), (0, 1.0), (1, 2), ValueError),
        (((1, 2),), (0, 1), (1, 0), ConfigError),
        (((1, 2),), (0, 1), (1, 1.5), ConfigError),
    ], ids=["direct-pair", "receiver-out-of-range", "negative-seed", "seed-too-large",
            "float-seed", "zero-scale", "float-scale"])
    def test_bad_input_raises_before_any_verdict(self, alignment, seeds, scales, error,
                                                 monkeypatch):
        import gia.harness as harness

        calls = []
        monkeypatch.setattr(harness, "feasibility_check",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(error):
            sweep_feasibility(CONFIG_INFEASIBLE, alignment, channel_seeds=seeds, scales=scales)
        assert calls == []
