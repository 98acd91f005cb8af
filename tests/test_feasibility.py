import itertools

import numpy as np
import pytest

from conftest import CONFIG_ASYM, CONFIG_INFEASIBLE, CONFIG_SYM, fd_jacobian, gauss_rank
from gia.aligner import random_reduced, zero_reduced
from gia.feasibility import (
    build_coefficient_matrix,
    build_jacobian,
    check_divisible_formula,
    check_proper,
    check_symmetric_formula,
    feasibility_check,
)
from gia.linalg import numerical_rank
from gia.network import ConfigError, NetworkConfig, Problem, alignment_all, generate_channel


def violates(cfg, sub):
    """True when the subset ``sub`` alone has fewer free variables than constraints."""
    rxs = {k for k, _ in sub}
    txs = {j for _, j in sub}
    free = sum(cfg.d[k - 1] * (cfg.N[k - 1] - cfg.d[k - 1]) for k in rxs)
    free += sum(cfg.d[j - 1] * (cfg.M[j - 1] - cfg.d[j - 1]) for j in txs)
    need = sum(cfg.d[k - 1] * cfg.d[j - 1] for k, j in sub)
    return free < need


def brute_force_proper(cfg, pairs):
    """Independent subset check via itertools (no flow, no bitmask tricks)."""
    return not any(
        violates(cfg, sub)
        for r in range(1, len(pairs) + 1)
        for sub in itertools.combinations(pairs, r)
    )


def brute_force_divisible(cfg, pairs):
    d = cfg.d[0]
    for r in range(1, len(pairs) + 1):
        for sub in itertools.combinations(pairs, r):
            rxs = {k for k, _ in sub}
            txs = {j for _, j in sub}
            lhs = sum(cfg.N[k - 1] - d for k in rxs) + sum(cfg.M[j - 1] - d for j in txs)
            if lhs < d * len(sub):
                return False
    return True


def rank_feasible(cfg, pairs, channel):
    hall = build_coefficient_matrix(cfg, pairs, channel)
    return numerical_rank(hall.matrix).rank == hall.n_constraints


def random_alignment(rng, cfg, max_pairs=10):
    """Random partial alignment set of at most ``max_pairs`` pairs (brute force stays cheap)."""
    every = alignment_all(cfg)
    size = int(rng.integers(0, min(len(every), max_pairs) + 1))
    return tuple(every[i] for i in sorted(rng.choice(len(every), size=size, replace=False)))


def random_closed_form_instance(rng):
    """Random network, with jammers, on which a closed form may apply.

    Half the draws have symmetric legitimate pairs and often a regular
    alignment set (cyclic shifts plus some jammer pairs); the other half
    share one stream count that divides every receive or every transmit
    antenna count.  The other alignment sets are all cross pairs or a random
    subset.
    """
    K = int(rng.integers(2, 6))
    J = int(rng.integers(0, 3))
    d = int(rng.integers(1, 4))
    symmetric = rng.random() < 0.5
    if symmetric:
        dj = tuple(int(rng.integers(1, 4)) for _ in range(J))
        ds = (d,) * K + dj
        M = (int(rng.integers(d, 4 * d + 2)),) * K + tuple(int(rng.integers(x, x + 7)) for x in dj)
        N = (int(rng.integers(d, 4 * d + 2)),) * K
    else:
        ds = (d,) * (K + J)
        multiples = [int(d * rng.integers(1, 4)) for _ in range(K + J)]
        others = [int(rng.integers(d, d + 7)) for _ in range(K + J)]
        M, N = (multiples, others[:K]) if rng.random() < 0.5 else (others, multiples[:K])
    cfg = NetworkConfig(K=K, J=J, M=tuple(M), N=tuple(N), d=ds)
    every = alignment_all(cfg)
    draw = rng.random()
    if draw < 0.3:
        return cfg, every
    if symmetric and draw < 0.7:
        shifts = [s for s in range(1, K) if rng.random() < 0.5]
        pairs = [(k, (k - 1 + s) % K + 1) for k in range(1, K + 1) for s in shifts]
        return cfg, tuple(pairs + [p for p in every if p[1] > K and rng.random() < 0.5])
    size = int(rng.integers(0, len(every) + 1))
    return cfg, tuple(every[i] for i in sorted(rng.choice(len(every), size=size, replace=False)))


def coeff_block(cfg, channel, k, j, side):
    """Rows of pair ``(k, j)`` in the coefficient matrix, restricted to the
    column block of receiver ``k`` (``side="U"``) or transmitter ``j`` (``"V"``)."""
    hall = build_coefficient_matrix(cfg, [(k, j)], channel)
    node, antennas = (k, cfg.N) if side == "U" else (j, cfg.M)
    c0 = hall.col_index[(side, node)]
    width = cfg.d[node - 1] * (antennas[node - 1] - cfg.d[node - 1])
    return hall.matrix[:, c0 : c0 + width]


class TestCoefficientBlocks:
    def test_decoder_block_single_entry(self):
        cfg = NetworkConfig(K=2, J=0, M=(2, 2), N=(2, 2), d=(1, 1))
        channel = generate_channel(cfg, 3)
        block = coeff_block(cfg, channel, 1, 2, "U")
        assert block.shape == (1, 1)
        assert block[0, 0] == channel[(1, 2)][1, 0]

    def test_decoder_block_no_free_rows(self):
        cfg = NetworkConfig(K=2, J=0, M=(4, 4), N=(2, 4), d=(2, 2))
        channel = generate_channel(cfg, 0)
        assert coeff_block(cfg, channel, 1, 2, "U").shape == (4, 0)

    def test_decoder_block_matches_linearization(self):
        # oracle: finite differences of the residual map at the zero point
        cfg = NetworkConfig(K=2, J=0, M=(3, 2), N=(3, 4), d=(2, 1))
        pairs = ((1, 2),)
        channel = generate_channel(cfg, 8)
        fd = fd_jacobian(Problem(cfg, pairs, channel), zero_reduced(cfg))
        hall = build_coefficient_matrix(cfg, pairs, channel)
        c0 = hall.col_index[("U", 1)]
        block = coeff_block(cfg, channel, 1, 2, "U")
        assert block.shape == (2, 2)
        np.testing.assert_allclose(fd[:, c0 : c0 + block.shape[1]], block, atol=1e-8)

    def test_precoder_block_single_entry(self):
        cfg = NetworkConfig(K=2, J=0, M=(2, 2), N=(2, 2), d=(1, 1))
        channel = generate_channel(cfg, 3)
        block = coeff_block(cfg, channel, 1, 2, "V")
        assert block.shape == (1, 1)
        assert block[0, 0] == channel[(1, 2)][0, 1]

    def test_precoder_block_no_free_rows(self):
        cfg = NetworkConfig(K=2, J=0, M=(2, 2), N=(3, 3), d=(2, 2))
        channel = generate_channel(cfg, 0)
        assert coeff_block(cfg, channel, 1, 2, "V").shape == (4, 0)

    def test_precoder_block_matches_linearization(self):
        cfg = NetworkConfig(K=2, J=0, M=(3, 4), N=(2, 3), d=(1, 2))
        pairs = ((1, 2),)
        channel = generate_channel(cfg, 9)
        fd = fd_jacobian(Problem(cfg, pairs, channel), zero_reduced(cfg))
        hall = build_coefficient_matrix(cfg, pairs, channel)
        c0 = hall.col_index[("V", 2)]
        block = coeff_block(cfg, channel, 1, 2, "V")
        assert block.shape == (2, 4)
        np.testing.assert_allclose(fd[:, c0 : c0 + block.shape[1]], block, atol=1e-8)

    def test_invalid_pair_rejected(self):
        cfg = NetworkConfig(K=2, J=0, M=(2, 2), N=(2, 2), d=(1, 1))
        channel = generate_channel(cfg, 0)
        with pytest.raises(ConfigError):
            build_coefficient_matrix(cfg, [(1, 1)], channel)
        with pytest.raises(ConfigError):
            build_coefficient_matrix(cfg, [(2, 3)], channel)


class TestCoefficientMatrix:
    def test_config1_shape(self):
        channel = generate_channel(CONFIG_SYM, 0)
        hall = build_coefficient_matrix(CONFIG_SYM, alignment_all(CONFIG_SYM), channel)
        assert (hall.n_constraints, hall.n_variables) == (54, 54)

    def test_config3_shape(self):
        channel = generate_channel(CONFIG_INFEASIBLE, 0)
        hall = build_coefficient_matrix(CONFIG_INFEASIBLE, alignment_all(CONFIG_INFEASIBLE), channel)
        assert (hall.n_constraints, hall.n_variables) == (54, 54)

    def test_empty_alignment(self):
        channel = generate_channel(CONFIG_SYM, 0)
        hall = build_coefficient_matrix(CONFIG_SYM, (), channel)
        assert hall.matrix.shape == (0, 54)

    def test_block_sparsity_structure(self):
        cfg = NetworkConfig(K=3, J=1, M=(4, 4, 4, 5), N=(4, 4, 4), d=(2, 2, 2, 1))
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 1)
        hall = build_coefficient_matrix(cfg, pairs, channel)
        widths = {}
        for k in range(1, cfg.K + 1):
            widths[("U", k)] = cfg.d[k - 1] * (cfg.N[k - 1] - cfg.d[k - 1])
        for j in range(1, cfg.n_tx + 1):
            widths[("V", j)] = cfg.d[j - 1] * (cfg.M[j - 1] - cfg.d[j - 1])
        for (k, j), r0 in hall.row_index.items():
            rows = slice(r0, r0 + cfg.d[k - 1] * cfg.d[j - 1])
            mask = np.zeros(hall.n_variables, dtype=bool)
            for key in (("U", k), ("V", j)):
                c0 = hall.col_index[key]
                mask[c0 : c0 + widths[key]] = True
            assert np.all(hall.matrix[rows][:, ~mask] == 0)

    def test_row_restriction_matches_subset_build(self):
        cfg = CONFIG_ASYM
        channel = generate_channel(cfg, 4)
        full = build_coefficient_matrix(cfg, alignment_all(cfg), channel)
        sub_pairs = ((1, 2), (2, 3), (3, 1))
        sub = build_coefficient_matrix(cfg, sub_pairs, channel)
        for pair in sub_pairs:
            r_full = full.row_index[pair]
            r_sub = sub.row_index[pair]
            n = cfg.d[pair[0] - 1] * cfg.d[pair[1] - 1]
            np.testing.assert_array_equal(
                full.matrix[r_full : r_full + n], sub.matrix[r_sub : r_sub + n]
            )


class TestCheckProper:
    def test_zero_free_variable_instance_improper(self):
        cfg = NetworkConfig(K=2, J=0, M=(1, 3), N=(3, 1), d=(1, 1))
        ok, violating = check_proper(cfg, [(2, 1)])
        assert not ok
        assert violating == ((2, 1),)

    def test_config1_proper(self):
        assert check_proper(CONFIG_SYM, alignment_all(CONFIG_SYM)) == (True, None)

    def test_three_user_minimal_proper(self):
        cfg = NetworkConfig(K=3, J=0, M=(2, 2, 2), N=(2, 2, 2), d=(1, 1, 1))
        assert check_proper(cfg, alignment_all(cfg))[0] is True

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        improper = 0
        for _ in range(120):
            K = int(rng.integers(2, 5))
            J = int(rng.integers(0, 3))
            d = tuple(int(rng.integers(1, 3)) for _ in range(K + J))
            M = tuple(int(rng.integers(dj, 5)) for dj in d)
            N = tuple(int(rng.integers(dk, 5)) for dk in d[:K])
            cfg = NetworkConfig(K=K, J=J, M=M, N=N, d=d)
            pairs = random_alignment(rng, cfg)
            ok, violating = check_proper(cfg, pairs)
            assert ok == brute_force_proper(cfg, pairs)
            if ok:
                assert violating is None
            else:
                improper += 1
                assert set(violating) <= set(pairs)
                assert violates(cfg, violating)
        assert improper > 0

    def test_violating_subset_actually_violates(self):
        cfg = NetworkConfig(K=3, J=0, M=(2, 1, 2), N=(1, 2, 2), d=(1, 1, 1))
        ok, violating = check_proper(cfg, alignment_all(cfg))
        if not ok:
            assert not brute_force_proper(cfg, violating)

    def test_large_alignment_set_decided(self):
        # 30 pairs, 2^30 subsets: only a polynomial check decides this
        cfg = NetworkConfig(K=6, J=0, M=(4, 5, 6, 4, 5, 6), N=(6, 5, 4, 6, 5, 4),
                            d=(1, 2, 1, 1, 2, 1))
        pairs = alignment_all(cfg)
        assert len(pairs) == 30
        ok, violating = check_proper(cfg, pairs)
        assert ok == (violating is None)
        if not ok:
            assert violates(cfg, violating)
        channel = generate_channel(cfg, 5)
        report = feasibility_check(cfg, pairs, channel)
        assert report.feasible == rank_feasible(cfg, pairs, channel)


class TestSymmetricFormula:
    def test_classic_three_user(self):
        cfg = NetworkConfig(K=3, J=0, M=(2, 2, 2), N=(2, 2, 2), d=(1, 1, 1))
        assert check_symmetric_formula(cfg, alignment_all(cfg)) == (True, True)

    def test_config1_applicable_feasible(self):
        # boundary case: M + N - (L+2)d = 0
        assert check_symmetric_formula(CONFIG_SYM, alignment_all(CONFIG_SYM)) == (True, True)

    def test_config2_not_applicable(self):
        applicable, verdict = check_symmetric_formula(CONFIG_ASYM, alignment_all(CONFIG_ASYM))
        assert not applicable
        assert verdict is None

    def test_infeasible_below_boundary(self):
        cfg = NetworkConfig(K=4, J=0, M=(2,) * 4, N=(2,) * 4, d=(1,) * 4)
        assert check_symmetric_formula(cfg, alignment_all(cfg)) == (True, False)

    def test_min_antennas_condition(self):
        cfg = NetworkConfig(K=3, J=0, M=(3, 3, 3), N=(2, 2, 2), d=(2, 2, 2))
        applicable, _ = check_symmetric_formula(cfg, alignment_all(cfg))
        assert not applicable

    def test_irregular_alignment_not_applicable(self):
        cfg = NetworkConfig(K=3, J=0, M=(4, 4, 4), N=(4, 4, 4), d=(1, 1, 1))
        applicable, _ = check_symmetric_formula(cfg, [(1, 2), (2, 1), (1, 3)])
        assert not applicable

    def test_jammer_load_condition(self):
        # jammer with enough spare antennas keeps the formula applicable
        light = NetworkConfig(K=2, J=1, M=(4, 4, 5), N=(4, 4), d=(1, 1, 1))
        assert check_symmetric_formula(light, alignment_all(light)) == (True, True)
        # overloaded jammer: load 2 > floor((2-1)/1)
        heavy = NetworkConfig(K=2, J=1, M=(4, 4, 2), N=(4, 4), d=(1, 1, 1))
        applicable, _ = check_symmetric_formula(heavy, alignment_all(heavy))
        assert not applicable


class TestDivisibleFormula:
    def test_config1_applicable_feasible(self):
        assert check_divisible_formula(CONFIG_SYM, alignment_all(CONFIG_SYM)) == (True, True)

    def test_config2_applicable_feasible(self):
        pairs = alignment_all(CONFIG_ASYM)
        assert check_divisible_formula(CONFIG_ASYM, pairs) == (True, True)
        assert brute_force_divisible(CONFIG_ASYM, pairs)

    def test_config3_not_applicable(self):
        applicable, verdict = check_divisible_formula(CONFIG_INFEASIBLE, alignment_all(CONFIG_INFEASIBLE))
        assert not applicable
        assert verdict is None

    def test_matches_brute_force_when_applicable(self):
        rng = np.random.default_rng(21)
        verdicts = set()
        for _ in range(60):
            K = int(rng.integers(2, 5))
            J = int(rng.integers(0, 3))
            d = int(rng.integers(1, 3))
            N = tuple(int(d * rng.integers(1, 4)) for _ in range(K))
            M = tuple(int(rng.integers(d, 7)) for _ in range(K + J))
            cfg = NetworkConfig(K=K, J=J, M=M, N=N, d=(d,) * (K + J))
            pairs = random_alignment(rng, cfg)
            applicable, verdict = check_divisible_formula(cfg, pairs)
            assert applicable
            assert verdict == brute_force_divisible(cfg, pairs)
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestClosedFormsRestateProperness:
    def test_verdicts_equal_check_proper(self):
        # feasibility_check decides both classes by properness alone
        rng = np.random.default_rng(31)
        verdicts = {check_symmetric_formula: set(), check_divisible_formula: set()}
        jammers = partial = 0
        for _ in range(300):
            cfg, pairs = random_closed_form_instance(rng)
            proper = check_proper(cfg, pairs)[0]
            for formula, seen in verdicts.items():
                applicable, verdict = formula(cfg, pairs)
                if applicable:
                    assert verdict == proper, (formula.__name__, cfg, pairs)
                    seen.add(verdict)
                    jammers += cfg.J > 0
                    partial += len(pairs) < len(alignment_all(cfg))
        assert all(seen == {True, False} for seen in verdicts.values())
        assert jammers > 0 and partial > 0


class TestFeasibilityCheck:
    def test_benchmark_verdicts(self):
        assert feasibility_check(CONFIG_SYM, alignment_all(CONFIG_SYM)).feasible
        assert feasibility_check(CONFIG_ASYM, alignment_all(CONFIG_ASYM)).feasible
        assert not feasibility_check(CONFIG_INFEASIBLE, alignment_all(CONFIG_INFEASIBLE)).feasible

    def test_methods(self):
        assert feasibility_check(CONFIG_SYM, alignment_all(CONFIG_SYM)).method == "symmetric_formula"
        assert feasibility_check(CONFIG_ASYM, alignment_all(CONFIG_ASYM)).method == "divisible_formula"
        report = feasibility_check(CONFIG_INFEASIBLE, alignment_all(CONFIG_INFEASIBLE))
        assert report.method == "hall_rank"
        assert report.rank == 52
        assert not report.feasible

    def test_proper_fail_method(self):
        cfg = NetworkConfig(K=2, J=0, M=(1, 3), N=(3, 1), d=(1, 1))
        report = feasibility_check(cfg, [(2, 1)])
        assert report.method == "proper_fail"
        assert not report.feasible

    def test_report_line_format(self):
        report = feasibility_check(CONFIG_INFEASIBLE, alignment_all(CONFIG_INFEASIBLE))
        fields = report.to_line().split(",")
        assert fields[0] == "false"
        assert fields[1] == "hall_rank"
        assert fields[2:5] == ["54", "54", "52"]
        assert float(fields[5]) > 0

    def test_rank_consistency_when_hall_rank(self):
        report = feasibility_check(CONFIG_INFEASIBLE, alignment_all(CONFIG_INFEASIBLE))
        assert report.feasible == (report.rank == report.n_constraints)

    def test_empty_alignment_feasible(self):
        report = feasibility_check(CONFIG_SYM, ())
        assert report.feasible

    def test_negative_seed_rejected_before_fast_paths(self):
        # the symmetric formula decides this network without drawing a channel;
        # a fractional seed is rejected too, not truncated
        for seed in (-1, 0.5):
            with pytest.raises(ValueError):
                feasibility_check(CONFIG_SYM, alignment_all(CONFIG_SYM), seed=seed)
        assert feasibility_check(CONFIG_SYM, alignment_all(CONFIG_SYM), seed=np.int64(0)).feasible

    @pytest.mark.parametrize("cfg", [CONFIG_SYM, CONFIG_INFEASIBLE], ids=["fast-path", "rank-test"])
    def test_supplied_channel_checked_before_fast_paths(self, cfg):
        pairs = alignment_all(cfg)
        nan_link = generate_channel(cfg, 0)
        nan_link[(1, 2)][0, 0] = np.nan
        for channel in ({}, nan_link):
            with pytest.raises(ConfigError):
                feasibility_check(cfg, pairs, channel)

    def test_fast_paths_agree_with_rank_test(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            K = int(rng.integers(2, 5))
            d = tuple(int(rng.integers(1, 4)) for _ in range(K))
            M = tuple(int(rng.integers(dk, 10)) for dk in d)
            N = tuple(int(rng.integers(dk, 10)) for dk in d)
            cfg = NetworkConfig(K=K, J=0, M=M, N=N, d=d)
            pairs = alignment_all(cfg)
            channel = generate_channel(cfg, int(rng.integers(2**32)))
            assert feasibility_check(cfg, pairs, channel).feasible == rank_feasible(cfg, pairs, channel)


class TestJacobian:
    def test_zero_point_equals_coefficient_matrix_exactly(self):
        for cfg in (CONFIG_SYM, CONFIG_INFEASIBLE):
            pairs = alignment_all(cfg)
            channel = generate_channel(cfg, 2)
            hall = build_coefficient_matrix(cfg, pairs, channel)
            jac = build_jacobian(cfg, pairs, channel, zero_reduced(cfg))
            np.testing.assert_array_equal(jac, hall.matrix)

    def test_matches_finite_differences_at_random_point(self):
        cfg = NetworkConfig(K=2, J=1, M=(4, 3, 4), N=(3, 4), d=(1, 2, 1))
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 5)
        point = random_reduced(cfg, 17)
        jac = build_jacobian(cfg, pairs, channel, point)
        fd = fd_jacobian(Problem(cfg, pairs, channel), point)
        err = np.abs(fd - jac) / np.maximum(np.abs(jac), 1.0)
        assert err.max() <= 1e-6

    def test_empty_alignment(self):
        channel = generate_channel(CONFIG_SYM, 0)
        jac = build_jacobian(CONFIG_SYM, (), channel, zero_reduced(CONFIG_SYM))
        assert jac.shape == (0, 54)


class TestVerdictInvariance:
    def test_channel_dominance(self):
        # one verdict per configuration across independent channel draws
        for cfg, expected in ((CONFIG_SYM, True), (CONFIG_ASYM, True), (CONFIG_INFEASIBLE, False)):
            pairs = alignment_all(cfg)
            verdicts = {rank_feasible(cfg, pairs, generate_channel(cfg, s)) for s in range(10)}
            assert verdicts == {expected}

    def test_scale_invariance(self):
        from gia.network import scale_config

        for cfg in (CONFIG_SYM, CONFIG_INFEASIBLE):
            pairs = alignment_all(cfg)
            base = feasibility_check(cfg, pairs).feasible
            doubled = scale_config(cfg, 2)
            assert feasibility_check(doubled, alignment_all(doubled)).feasible == base

    def test_row_reduction_oracle_agrees_on_infeasible(self):
        channel = generate_channel(CONFIG_INFEASIBLE, 1)
        hall = build_coefficient_matrix(CONFIG_INFEASIBLE, alignment_all(CONFIG_INFEASIBLE), channel)
        assert gauss_rank(hall.matrix) == numerical_rank(hall.matrix).rank == 52
