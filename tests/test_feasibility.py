import itertools
import math
import re
import sys

import numpy as np
import pytest

from conftest import (
    CONFIG_ASYM,
    CONFIG_INFEASIBLE,
    CONFIG_SYM,
    fd_jacobian,
    gauss_rank,
    random_point,
)
from gia.feasibility import (
    _eliminate,
    _plan,
    build_coefficient_matrix,
    build_jacobian,
    check_divisible_formula,
    check_proper,
    check_symmetric_formula,
    feasibility_check,
)
from gia.linalg import column_complement, numerical_rank
from gia.network import (
    ConfigError,
    NetworkConfig,
    Problem,
    TransceiverSet,
    _complex_normal,
    alignment_all,
    check_channel,
    generate_channel,
    scale_config,
)


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
        # oracle: finite differences of the residual map at the identity point
        cfg = NetworkConfig(K=2, J=0, M=(3, 2), N=(3, 4), d=(2, 1))
        pairs = ((1, 2),)
        channel = generate_channel(cfg, 8)
        fd = fd_jacobian(Problem(cfg, pairs, channel), TransceiverSet.identity(cfg))
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
        fd = fd_jacobian(Problem(cfg, pairs, channel), TransceiverSet.identity(cfg))
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
        improper = self_covering = no_free_node = improper_with_jammer = 0
        for _ in range(300):
            K = int(rng.integers(2, 5))
            J = int(rng.integers(0, 3))
            d = tuple(int(rng.integers(1, 4)) for _ in range(K + J))
            M = tuple(int(rng.integers(dj, 8)) for dj in d)
            N = tuple(int(rng.integers(dk, 8)) for dk in d[:K])
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
                improper_with_jammer += any(j > K for _, j in pairs)
            # the draws include a transmitter that covers all its pairs alone
            # and a node without free variables
            load = {}
            for k, j in pairs:
                load[j] = load.get(j, 0) + d[k - 1] * d[j - 1]
            self_covering += any(d[j - 1] * (M[j - 1] - d[j - 1]) >= c for j, c in load.items())
            no_free_node += any(d[j - 1] == M[j - 1] or d[k - 1] == N[k - 1] for k, j in pairs)
        assert improper > 0
        assert self_covering > 0 and no_free_node > 0 and improper_with_jammer > 0

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


    def test_names_the_smallest_minimum_cut(self):
        # Every cut puts transmitters A and receivers B on the source side;
        # the pairs named lie between the A and B that all minimum cuts share,
        # so the subset does not depend on the order the flow searches in.
        rng = np.random.default_rng(28)
        improper = with_jammer = several_minimum_cuts = 0
        for _ in range(300):
            K = int(rng.integers(2, 4))
            J = int(rng.integers(0, 3))
            d = tuple(int(rng.integers(1, 4)) for _ in range(K + J))
            M = tuple(int(rng.integers(dj, 8)) for dj in d)
            N = tuple(int(rng.integers(dk, 8)) for dk in d[:K])
            cfg = NetworkConfig(K=K, J=J, M=M, N=N, d=d)
            pairs = random_alignment(rng, cfg)
            c = {(k, j): d[k - 1] * d[j - 1] for k, j in pairs}
            need = {j: max(0, sum(c[k, i] for k, i in pairs if i == j) - d[j - 1] * (M[j - 1] - d[j - 1]))
                    for j in range(1, cfg.n_tx + 1)}
            cuts = {}
            for A in itertools.product((False, True), repeat=cfg.n_tx):
                for B in itertools.product((False, True), repeat=K):
                    cuts[A, B] = (sum(need[j] for j in need if not A[j - 1])
                                  + sum(c[k, j] for k, j in pairs if A[j - 1] and not B[k - 1])
                                  + sum(d[k - 1] * (N[k - 1] - d[k - 1]) for k in range(1, K + 1) if B[k - 1]))
            least = min(cuts.values())
            minimum = [cut for cut, capacity in cuts.items() if capacity == least]
            A = [all(a[i] for a, _ in minimum) for i in range(cfg.n_tx)]
            B = [all(b[i] for _, b in minimum) for i in range(K)]
            ok, violating = check_proper(cfg, pairs)
            assert ok == (least == sum(need.values()))
            assert set(violating or ()) == {(k, j) for k, j in pairs if A[j - 1] and B[k - 1]}
            if not ok:
                improper += 1
                with_jammer += any(j > K for _, j in violating)
                several_minimum_cuts += len(minimum) > 1
        assert improper >= 50 and with_jammer > 0 and several_minimum_cuts > 0


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


# every receiver zero-forces its aligned pairs alone (N_k - d_k >= sum_j d_j),
# and, with a jammer, every transmitter alone (M_j - d_j >= sum_k d_k)
RX_ZERO_FORCING = NetworkConfig(K=2, J=0, M=(1, 2), N=(3, 3), d=(1, 2))
TX_ZERO_FORCING = NetworkConfig(K=2, J=1, M=(3, 3, 4), N=(1, 2), d=(1, 2, 1))


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

    @pytest.mark.parametrize("cfg, pairs, method", [
        (CONFIG_SYM, alignment_all(CONFIG_SYM), "symmetric_formula"),
        (CONFIG_ASYM, alignment_all(CONFIG_ASYM), "divisible_formula"),
        (NetworkConfig(K=2, J=0, M=(1, 3), N=(3, 1), d=(1, 1)), ((2, 1),), "proper_fail"),
        (CONFIG_INFEASIBLE, alignment_all(CONFIG_INFEASIBLE), "hall_rank"),
        (RX_ZERO_FORCING, alignment_all(RX_ZERO_FORCING), "hall_rank"),
    ], ids=["symmetric", "divisible", "improper", "rank-test", "zero-forcing"])
    def test_supplied_channel_checked_once(self, monkeypatch, cfg, pairs, method):
        calls = []

        def counted(*args):
            calls.append(args)
            return check_channel(*args)

        for name, module in list(sys.modules.items()):  # every binding in the package
            if name.split(".")[0] == "gia" and getattr(module, "check_channel", None) is check_channel:
                monkeypatch.setattr(module, "check_channel", counted)
        channel = generate_channel(cfg, 0)
        assert feasibility_check(cfg, pairs, channel).method == method
        assert len(calls) == 1
        bad = [{**channel, (1, 2): channel[1, 2][:, 1:]}, {**channel, (1, 2): channel[1, 2].tolist()},
               {k: v for k, v in channel.items() if k != (2, 1)}, {**channel, (2, 1): channel[2, 1] * np.inf}]
        for link in bad:
            with pytest.raises(ConfigError) as expected:
                check_channel(cfg, link)
            with pytest.raises(ConfigError, match=f"^{re.escape(str(expected.value))}$"):
                feasibility_check(cfg, pairs, link)

    @pytest.mark.parametrize("cfg, line", [(RX_ZERO_FORCING, "true,hall_rank,4,4,4,0.0"),
                                           (TX_ZERO_FORCING, "true,hall_rank,7,7,7,0.0")],
                             ids=["receivers", "transmitters"])
    def test_zero_forcing_side_decided_without_a_channel(self, monkeypatch, cfg, line):
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 0)
        assert full_rank(cfg, pairs, channel) == int(line.split(",")[2])

        def no_draw(*args):
            raise AssertionError("channel drawn")

        monkeypatch.setattr("gia.feasibility.generate_channel", no_draw)
        # the rank test's record for an empty R: rank C, the cutoff of an empty spectrum
        for report in (feasibility_check(cfg, pairs, seed=5), feasibility_check(cfg, pairs, channel)):
            assert report.to_line() == line

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
            jac = build_jacobian(cfg, pairs, channel, TransceiverSet.identity(cfg))
            np.testing.assert_array_equal(jac, hall.matrix)

    def test_matches_finite_differences_at_random_point(self):
        cfg = NetworkConfig(K=2, J=1, M=(4, 3, 4), N=(3, 4), d=(1, 2, 1))
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 5)
        point = random_point(cfg, 17)
        jac = build_jacobian(cfg, pairs, channel, point)
        fd = fd_jacobian(Problem(cfg, pairs, channel), point)
        err = np.abs(fd - jac) / np.maximum(np.abs(jac), 1.0)
        assert err.max() <= 1e-6

    def test_empty_alignment(self):
        channel = generate_channel(CONFIG_SYM, 0)
        jac = build_jacobian(CONFIG_SYM, (), channel, TransceiverSet.identity(CONFIG_SYM))
        assert jac.shape == (0, 54)

    def test_point_checked(self):
        # each of these used to give a 54 x 54 matrix or an IndexError
        cfg = CONFIG_SYM
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 0)
        ts = random_point(cfg, 3)
        nan_V = ts.V[0].copy()
        nan_V[4, 1] = np.nan
        for bad, message in (
            (TransceiverSet(ts.U, (ts.V[0][:, :1],) + ts.V[1:]),
             r"precoder 1 has shape \(6, 1\), expected \(6, 3\)"),
            (TransceiverSet(ts.U[:2], ts.V), "transceivers have 2 decoders, expected 3"),
            (TransceiverSet(ts.U, (nan_V,) + ts.V[1:]), "precoder 1 has non-finite entries"),
        ):
            with pytest.raises(ValueError, match=message):
                build_jacobian(cfg, pairs, channel, bad)


class TestVerdictInvariance:
    def test_channel_dominance(self):
        # one verdict per configuration across independent channel draws
        for cfg, expected in ((CONFIG_SYM, True), (CONFIG_ASYM, True), (CONFIG_INFEASIBLE, False)):
            pairs = alignment_all(cfg)
            verdicts = {rank_feasible(cfg, pairs, generate_channel(cfg, s)) for s in range(10)}
            assert verdicts == {expected}

    def test_scale_invariance(self):
        for cfg in (CONFIG_SYM, CONFIG_INFEASIBLE):
            pairs = alignment_all(cfg)
            base = feasibility_check(cfg, pairs).feasible
            doubled = scale_config(cfg, 2)
            assert feasibility_check(doubled, alignment_all(doubled)).feasible == base

    def test_row_reduction_oracle_agrees_on_infeasible(self):
        channel = generate_channel(CONFIG_INFEASIBLE, 1)
        hall = build_coefficient_matrix(CONFIG_INFEASIBLE, alignment_all(CONFIG_INFEASIBLE), channel)
        assert gauss_rank(hall.matrix) == numerical_rank(hall.matrix).rank == 52


def full_rank(cfg, pairs, channel):
    """The oracle: SVD rank of the whole coefficient matrix."""
    return numerical_rank(build_coefficient_matrix(cfg, pairs, channel).matrix).rank


DECODERS, PRECODERS = 0, 1  # indices into sides(cfg, pairs)


def sides(cfg, pairs):
    """Either side's elimination plan, decoder side first."""
    return _plan(cfg, pairs), _plan(cfg, pairs, precoders=True)


def eliminated_rank(cfg, pairs, channel, side=DECODERS):
    eliminated, reduced = _eliminate(sides(cfg, pairs)[side], channel, cfg.d)
    return eliminated + numerical_rank(reduced).rank


def linked_free_variables(cfg, pairs):
    """Free variables of the linked transmitters and of the linked receivers:
    the widths of the decoder side's and of the precoder side's ``R``."""
    tx, rx = {j for _, j in pairs}, {k for k, _ in pairs}
    return (sum(cfg.d[j - 1] * (cfg.M[j - 1] - cfg.d[j - 1]) for j in tx),
            sum(cfg.d[k - 1] * (cfg.N[k - 1] - cfg.d[k - 1]) for k in rx))


def svd_cost(shape):
    return min(shape) ** 2 * max(shape)


def chosen_side(cfg, pairs):
    """The side the rank test eliminates, by the definitions: node ``n`` adds
    ``d_n (load_n - rank A_n)`` rows, with ``load_n`` its partners' streams and
    ``rank A_n = min(a_n - d_n, load_n)`` for a generic channel.  Returns the
    side, its nodes that add rows and its nodes that zero-force alone."""
    load = ({}, {})
    for k, j in pairs:
        load[DECODERS][k] = load[DECODERS].get(k, 0) + cfg.d[j - 1]
        load[PRECODERS][j] = load[PRECODERS].get(j, 0) + cfg.d[k - 1]
    rows = [{n: cfg.d[n - 1] * (ln - min(a[n - 1] - cfg.d[n - 1], ln)) for n, ln in side_load.items()}
            for side_load, a in zip(load, (cfg.N, cfg.M))]
    shapes = [(sum(r.values()), width) for r, width in zip(rows, linked_free_variables(cfg, pairs))]
    side = PRECODERS if svd_cost(shapes[PRECODERS]) < svd_cost(shapes[DECODERS]) else DECODERS
    return (side, {n for n, r in rows[side].items() if r},
            {n for n, r in rows[side].items() if not r})


def node_of(side, pair):
    """The node of ``side`` in an aligned pair ``(k, j)``."""
    return pair[side == PRECODERS]


def random_elimination_instance(rng, max_J=2):
    """Random network with up to ``max_J`` jammers, mixed stream counts,
    receivers with ``N_k = d_k``, transmitters with ``M_j = d_j``, partial
    alignment sets and some x2 scalings."""
    K = int(rng.integers(2, 6))
    J = int(rng.integers(0, max_J + 1))
    d = tuple(int(rng.integers(1, 4)) for _ in range(K + J))
    M = tuple(dj if rng.random() < 0.1 else int(rng.integers(dj, dj + 7)) for dj in d)
    N = tuple(dk if rng.random() < 0.15 else int(rng.integers(dk, dk + 7)) for dk in d[:K])
    cfg = NetworkConfig(K=K, J=J, M=M, N=N, d=d)
    every = alignment_all(cfg)
    if rng.random() < 0.5:
        pairs = every
    else:
        size = int(rng.integers(0, len(every) + 1))
        pairs = tuple(every[i] for i in sorted(rng.choice(len(every), size=size, replace=False)))
    scaled = rng.random() < 0.2
    if scaled:
        cfg = scale_config(cfg, 2)
        if pairs == every:
            pairs = alignment_all(cfg)
    return cfg, pairs, scaled


def with_unlinked_jammer(rng, cfg, pairs, channel):
    """The instance with a jammer appended that has free variables and no
    aligned pair, its links fresh; also returns the free variables added."""
    dJ = int(rng.integers(1, 4))
    MJ = int(rng.integers(dJ + 1, dJ + 5))
    grown = NetworkConfig(K=cfg.K, J=cfg.J + 1, M=cfg.M + (MJ,), N=cfg.N, d=cfg.d + (dJ,))
    return grown, pairs, {**generate_channel(grown, int(rng.integers(2**32))), **channel}, dJ * (MJ - dJ)


def with_unlinked_pair(rng, cfg, pairs, channel):
    """The instance with a (K+1)-th pair inserted before the jammers, neither
    node aligned, the jammers shifted by one and the new links fresh; also
    returns the free variables added."""
    K, dn = cfg.K, int(rng.integers(1, 4))
    Mn, Nn = (int(rng.integers(dn + 1, dn + 5)) for _ in range(2))
    grown = NetworkConfig(K=K + 1, J=cfg.J, M=cfg.M[:K] + (Mn,) + cfg.M[K:], N=cfg.N + (Nn,),
                          d=cfg.d[:K] + (dn,) + cfg.d[K:])
    shift = {j: j + (j > K) for j in range(1, cfg.n_tx + 1)}
    moved = {(k, shift[j]): H for (k, j), H in channel.items()}
    return (grown, tuple((k, shift[j]) for k, j in pairs),
            {**generate_channel(grown, int(rng.integers(2**32))), **moved}, dn * (Mn - dn + Nn - dn))


class TestDecoderElimination:
    """The rank test eliminates one side's variable blocks in closed form, the
    side that leaves the smaller reduced matrix; the whole coefficient matrix
    is the oracle."""

    def test_matches_full_matrix_on_random_instances(self):
        rng = np.random.default_rng(2024)
        seen = {"jammers": 0, "partial": 0, "mixed d": 0, "N_k = d_k": 0, "M_j = d_j": 0,
                "node without pair": 0, "scaled": 0, "hall_rank": 0, "precoder side": 0,
                "feasible": 0, "infeasible": 0}
        for _ in range(300):
            cfg, pairs, scaled = random_elimination_instance(rng)
            channel = generate_channel(cfg, int(rng.integers(2**32)))
            hall = build_coefficient_matrix(cfg, pairs, channel)
            n_constraints, rank = hall.n_constraints, numerical_rank(hall.matrix).rank
            costs, cutoffs = [], []
            widths = linked_free_variables(cfg, pairs)
            for plan, width in zip(sides(cfg, pairs), widths):
                eliminated, reduced = _eliminate(plan, channel, cfg.d)
                rr = numerical_rank(reduced)
                assert eliminated + rr.rank == rank, (cfg, pairs)
                assert plan.shape == reduced.shape, (cfg, pairs)
                assert reduced.shape[1] == width, (cfg, pairs)
                # one contiguous column block per linked node, in node order, spanning R
                columns = [block for _, block in sorted(plan.columns.items())]
                bounds = [0] + [block.stop for block in columns]
                assert [block.start for block in columns] == bounds[:-1], (cfg, pairs)
                assert bounds[-1] == reduced.shape[1], (cfg, pairs)
                costs.append(svd_cost(reduced.shape))
                cutoffs.append(rr.tolerance_used)
            report = feasibility_check(cfg, pairs, channel)
            if report.method == "hall_rank":
                assert (report.feasible, report.rank) == (rank == n_constraints, rank)
                # the tolerance is the cutoff of the cheaper side's matrix, the decoder side's on a tie
                chosen = PRECODERS if costs[PRECODERS] < costs[DECODERS] else DECODERS
                assert report.tolerance == cutoffs[chosen]
                seen["hall_rank"] += 1
                seen["precoder side"] += chosen == PRECODERS
            seen["feasible" if rank == n_constraints else "infeasible"] += 1
            seen["jammers"] += cfg.J > 0
            seen["partial"] += pairs != alignment_all(cfg)
            seen["mixed d"] += len(set(cfg.d)) > 1
            seen["N_k = d_k"] += any(cfg.N[k - 1] == cfg.d[k - 1] for k, _ in pairs)
            seen["M_j = d_j"] += any(cfg.M[j - 1] == cfg.d[j - 1] for _, j in pairs)
            seen["node without pair"] += (len({k for k, _ in pairs}) < cfg.K
                                          or len({j for _, j in pairs}) < cfg.n_tx)
            seen["scaled"] += scaled
        assert min(seen.values()) >= 20, seen

    def test_no_channel_drawn_exactly_when_a_reduced_matrix_has_no_rows(self, monkeypatch):
        draws = []

        def counted(cfg, seed, *, alignment=None):
            draws.append(seed)
            return generate_channel(cfg, seed, alignment=alignment)

        monkeypatch.setattr("gia.feasibility.generate_channel", counted)
        rng = np.random.default_rng(2030)
        seen = {"no draw": 0, "drawn": 0}
        for i in range(300):
            cfg, pairs, _ = random_elimination_instance(rng)
            draws.clear()
            report = feasibility_check(cfg, pairs, seed=i)
            if report.method != "hall_rank":
                continue
            channel = generate_channel(cfg, i)
            empty = any(plan.shape[0] == 0 for plan in sides(cfg, pairs))
            assert draws == ([] if empty else [i]), (cfg, pairs)
            if empty:
                assert full_rank(cfg, pairs, channel) == report.n_constraints, (cfg, pairs)
                assert (report.feasible, report.rank, report.tolerance) == (True, report.n_constraints, 0.0)
            seen["no draw" if empty else "drawn"] += 1
        assert min(seen.values()) >= 20, seen

    def test_only_the_links_of_nodes_that_add_rows_drawn(self, monkeypatch):
        # a node that zero-forces its pairs alone adds no row to R and reads no
        # link, so the rank test draws the links of the side's other nodes only
        drawn = []

        def recorded(cfg, seed, *, alignment=None):
            drawn.append(alignment)
            return generate_channel(cfg, seed, alignment=alignment)

        monkeypatch.setattr("gia.feasibility.generate_channel", recorded)
        rng = np.random.default_rng(2041)
        seen = {"mixed": 0, "precoder side": 0}
        for i in range(400):
            cfg, pairs, _ = random_elimination_instance(rng)
            drawn.clear()
            report = feasibility_check(cfg, pairs, seed=i)
            side, kept, zero_forcing = chosen_side(cfg, pairs)
            if report.method != "hall_rank" or not kept:
                assert drawn == [], (cfg, pairs)
                continue
            assert len(drawn) == 1, (cfg, pairs)
            assert sorted(drawn[0]) == [pair for pair in pairs if node_of(side, pair) in kept], (cfg, pairs)
            # each drawn link is the full draw's, so the record is too
            assert report.to_line() == feasibility_check(cfg, pairs, generate_channel(cfg, i)).to_line()
            if zero_forcing:
                seen["mixed"] += 1
                seen["precoder side"] += side == PRECODERS
        assert min(seen.values()) >= 20, seen

    def test_zero_forcing_nodes_counted_at_their_generic_rank(self):
        # The record of a supplied channel does not read the links of a node
        # that zero-forces alone: zeroing them keeps the generic channel's
        # record, though the full matrix of the zeroed channel loses rank.
        rng = np.random.default_rng(2042)
        seen = {"mixed": 0, "no rows": 0, "rank lost": 0}
        for _ in range(400):
            cfg, pairs, _ = random_elimination_instance(rng)
            side, kept, zero_forcing = chosen_side(cfg, pairs)
            if not zero_forcing:
                continue
            channel = generate_channel(cfg, int(rng.integers(2**32)))
            report = feasibility_check(cfg, pairs, channel)
            if report.method != "hall_rank":
                continue
            zeroed = {**channel, **{pair: np.zeros_like(channel[pair]) for pair in pairs
                                    if node_of(side, pair) in zero_forcing}}
            assert feasibility_check(cfg, pairs, zeroed).to_line() == report.to_line(), (cfg, pairs)
            seen["mixed" if kept else "no rows"] += 1
            seen["rank lost"] += full_rank(cfg, pairs, zeroed) < full_rank(cfg, pairs, channel)
        assert min(seen.values()) >= 20, seen

    def test_reduced_matrix_is_the_projected_precoder_columns(self):
        # Rows W_k^H applied to receiver k's rows of the coefficient matrix
        # vanish on the decoder columns and equal R on the precoder columns.
        # The rank alone cannot show this: W_k depends only on the links'
        # bottom-left blocks and the precoder columns only on their top-right
        # blocks, so any basis of the right size gives the same generic rank.
        cfg = NetworkConfig(K=3, J=1, M=(4, 5, 3, 4), N=(4, 3, 5), d=(1, 2, 1, 2))
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 4)
        hall = build_coefficient_matrix(cfg, pairs, channel)
        problem = Problem(cfg, pairs, channel)
        rows = []
        for k, links in problem.by_rx.items():
            dk = cfg.d[k - 1]
            _, W = column_complement(np.hstack([H[dk:, : cfg.d[j - 1]] for j, H in links]).T)
            for p in range(dk):
                for w in W.conj().T:
                    row = np.zeros(hall.n_constraints, dtype=np.complex128)
                    q0 = 0
                    for j, _ in links:
                        start, dj = hall.row_index[(k, j)] + p * cfg.d[j - 1], cfg.d[j - 1]
                        row[start : start + dj] = w[q0 : q0 + dj]
                        q0 += dj
                    rows.append(row)
        projected = np.array(rows) @ hall.matrix
        _, reduced = _eliminate(sides(cfg, pairs)[DECODERS], channel, cfg.d)
        v0 = hall.col_index[("V", 1)]
        assert reduced.shape == (len(rows), hall.n_variables - v0) and len(rows) > 0
        np.testing.assert_allclose(projected[:, :v0], 0, atol=1e-12)
        np.testing.assert_allclose(projected[:, v0:], reduced, atol=1e-12)

    def test_reduced_matrix_is_the_projected_decoder_columns(self):
        # The transmit-side twin.  Transmitter j's rows of its own columns are
        # I_{d_j} (x) B_j with B_j = [H_kj[:d_k, d_j:]]_k, and the W_j computed
        # from its reciprocal links H_kj^H satisfies W_j^T B_j = 0.  Rows
        # combined by W_j's columns, one combination per stream q of j, vanish
        # on the precoder columns and equal the complex conjugate of R on the
        # decoder columns.
        cfg = NetworkConfig(K=3, J=1, M=(4, 5, 3, 4), N=(4, 3, 5), d=(1, 2, 1, 2))
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 4)
        hall = build_coefficient_matrix(cfg, pairs, channel)
        problem = Problem(cfg, pairs, channel)
        rows = []
        for j, links in problem.by_tx.items():
            dj = cfg.d[j - 1]
            _, W = column_complement(np.hstack([G[dj:, : cfg.d[k - 1]] for k, G in links]).T)
            for q in range(dj):
                for w in W.T:
                    row = np.zeros(hall.n_constraints, dtype=np.complex128)
                    p0 = 0
                    for k, _ in links:
                        dk = cfg.d[k - 1]
                        # the rows (p, q) of pair (k, j) sit at row_index + p * d_j + q
                        start = hall.row_index[(k, j)] + q
                        row[start : start + dk * dj : dj] = w[p0 : p0 + dk]
                        p0 += dk
                    rows.append(row)
        projected = np.array(rows) @ hall.matrix
        _, reduced = _eliminate(sides(cfg, pairs)[PRECODERS], channel, cfg.d)
        v0 = hall.col_index[("V", 1)]
        assert reduced.shape == (len(rows), v0) and len(rows) > 0
        np.testing.assert_allclose(projected[:, v0:], 0, atol=1e-12)
        np.testing.assert_allclose(projected[:, :v0], reduced.conj(), atol=1e-12)

    @pytest.mark.parametrize("cfg, pairs, reduced_shape, method", [
        # receiver 1 has N_1 = d_1: no free decoder block, so W_1 = I
        (NetworkConfig(K=3, J=0, M=(3, 4, 3), N=(1, 3, 3), d=(1, 2, 1)), None, (6, 8),
         "hall_rank"),
        # every receiver's decoder block covers its rows: R has none
        (NetworkConfig(K=2, J=0, M=(2, 3), N=(3, 3), d=(1, 2)), ((1, 2), (2, 1)), (0, 3),
         "hall_rank"),
        # receiver 2 and transmitter 3 have no aligned pair: R has no columns
        # for transmitter 3's three free variables
        (NetworkConfig(K=3, J=1, M=(4, 3, 4, 3), N=(3, 4, 4), d=(1, 2, 1, 1)),
         ((1, 2), (1, 4), (3, 1), (3, 2), (3, 4)), (2, 7), "hall_rank"),
        # no free precoder columns, and R has no rows either
        (NetworkConfig(K=2, J=0, M=(1, 2), N=(4, 4), d=(1, 2)), ((1, 2), (2, 1)), (0, 0),
         "hall_rank"),
        # no free precoder columns, and rows left over
        (NetworkConfig(K=3, J=0, M=(1, 1, 1), N=(2, 2, 2), d=(1, 1, 1)), None, (3, 0),
         "proper_fail"),
    ], ids=["no-free-decoder", "no-reduced-rows", "receiver-without-pair",
            "no-free-precoder", "no-free-precoder-rows-left"])
    def test_edge_cases(self, cfg, pairs, reduced_shape, method):
        pairs = alignment_all(cfg) if pairs is None else pairs
        channel = generate_channel(cfg, 0)
        both = sides(cfg, pairs)
        _, reduced = _eliminate(both[DECODERS], channel, cfg.d)
        assert reduced.shape == reduced_shape
        rank = full_rank(cfg, pairs, channel)
        assert eliminated_rank(cfg, pairs, channel) == rank
        assert eliminated_rank(cfg, pairs, channel, PRECODERS) == rank
        shapes = [_eliminate(plan, channel, cfg.d)[1].shape for plan in both]
        assert [plan.shape for plan in both] == shapes
        report = feasibility_check(cfg, pairs, channel)
        assert report.method == method
        if method == "hall_rank":
            assert report.rank == rank
            assert report.feasible == (rank == report.n_constraints)
            # the tolerance is the decomposed matrix's cutoff, 0.0 when it is empty
            decomposed = min(shapes, key=svd_cost)
            assert (report.tolerance == 0.0) == (math.prod(decomposed) == 0)

    @pytest.mark.parametrize("grow", [with_unlinked_jammer, with_unlinked_pair],
                             ids=["jammer", "pair"])
    def test_unlinked_node_changes_nothing(self, grow):
        # A node without an aligned pair adds free variables and no
        # constraint: it is in neither side's links, so R, and with it the
        # rank and the cutoff, stay as they were.
        rng = np.random.default_rng(5)
        compared = 0
        for _ in range(400):
            cfg, pairs, _ = random_elimination_instance(rng)
            channel = generate_channel(cfg, int(rng.integers(2**32)))
            report = feasibility_check(cfg, pairs, channel)
            grown, grown_pairs, grown_channel, added = grow(rng, cfg, pairs, channel)
            other = feasibility_check(grown, grown_pairs, grown_channel)
            if report.method != "hall_rank" or other.method != "hall_rank":
                continue
            assert (other.feasible, other.n_constraints, other.rank) == (
                report.feasible, report.n_constraints, report.rank), (cfg, pairs)
            assert other.n_variables == report.n_variables + added > report.n_variables
            assert other.tolerance == pytest.approx(report.tolerance, rel=1e-12), (cfg, pairs)
            compared += 1
        assert compared >= 100

    @pytest.mark.parametrize("cfg", [CONFIG_SYM, CONFIG_ASYM, CONFIG_INFEASIBLE],
                             ids=["config1", "config2", "config3"])
    @pytest.mark.parametrize("times", [1, 3])
    def test_channel_magnitude_does_not_matter(self, cfg, times):
        cfg = scale_config(cfg, times)
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 0)
        rank = full_rank(cfg, pairs, channel)
        for factor in (1e-150, 1e150):
            scaled = {link: factor * H for link, H in channel.items()}
            for side in (DECODERS, PRECODERS):
                assert eliminated_rank(cfg, pairs, scaled, side) == rank
            report = feasibility_check(cfg, pairs, scaled)
            assert report.feasible == (rank == report.n_constraints)
            if report.method == "hall_rank":
                assert report.rank == rank


def verdict(report):
    """The fields of a report that reciprocity, relabeling and rotation keep:
    all but ``tolerance``, the cutoff of whichever matrix was decomposed."""
    return report.feasible, report.method, report.n_constraints, report.n_variables, report.rank


def reciprocal(rng, cfg, pairs, channel):
    """The reciprocal of a network without jammers: ``M <-> N``, pair
    ``(k, j) -> (j, k)`` and links ``H_kj^H``."""
    return (NetworkConfig(K=cfg.K, J=0, M=cfg.N, N=cfg.M, d=cfg.d),
            tuple((j, k) for k, j in pairs),
            {(j, k): H.conj().T for (k, j), H in channel.items()})


def relabeled(rng, cfg, pairs, channel):
    """The instance under a random relabeling of the pairs, and of the jammers among themselves."""
    order = [int(o) for o in rng.permutation(cfg.K)] + [cfg.K + int(o) for o in rng.permutation(cfg.J)]
    label = {o + 1: i + 1 for i, o in enumerate(order)}  # old node -> new node
    return (NetworkConfig(K=cfg.K, J=cfg.J, M=tuple(cfg.M[o] for o in order),
                          N=tuple(cfg.N[o] for o in order[: cfg.K]),
                          d=tuple(cfg.d[o] for o in order)),
            tuple((label[k], label[j]) for k, j in pairs),
            {(label[k], label[j]): H for (k, j), H in channel.items()})


def rotated(rng, cfg, pairs, channel):
    """The instance with every link ``H_kj`` replaced by ``Q_k H_kj P_j``, for random unitaries."""
    Q = [np.linalg.qr(_complex_normal(rng, (n, n)))[0] for n in cfg.N]
    P = [np.linalg.qr(_complex_normal(rng, (m, m)))[0] for m in cfg.M]
    return cfg, pairs, {(k, j): Q[k - 1] @ H @ P[j - 1] for (k, j), H in channel.items()}


class TestRelations:
    """Transforms of an instance that keep every verdict field but ``tolerance``.

    They need no second implementation, so they also check what the oracle
    shares with the rank test: ``_layout``, ``Problem`` and the channel.  The
    reciprocal network swaps the sides of the elimination, and runs
    ``check_proper``'s oriented max-flow the other way round.
    """

    @pytest.mark.parametrize("transform, max_J", [(reciprocal, 0), (relabeled, 2), (rotated, 2)],
                             ids=["reciprocity", "relabeling", "rotation"])
    def test_verdict_unchanged(self, transform, max_J):
        rng = np.random.default_rng(14)
        # proper networks of deficient rank are rare in the draws: reference 3 is one
        instances = [(scale_config(cfg, c), None)
                     for cfg in (CONFIG_SYM, CONFIG_ASYM, CONFIG_INFEASIBLE) for c in (1, 2)]
        instances += [random_elimination_instance(rng, max_J)[:2] for _ in range(300)]
        seen = {"hall_rank": 0, "feasible": 0, "infeasible": 0, "precoder side": 0,
                "proper_fail": 0, "partial": 0}
        for cfg, pairs in instances:
            pairs = alignment_all(cfg) if pairs is None else pairs
            channel = generate_channel(cfg, int(rng.integers(2**32)))
            report = feasibility_check(cfg, pairs, channel)
            other = feasibility_check(*transform(rng, cfg, pairs, channel))
            assert verdict(other) == verdict(report), (cfg, pairs)
            if report.method == "hall_rank":
                seen["hall_rank"] += 1
                seen["feasible" if report.feasible else "infeasible"] += 1
                costs = [svd_cost(plan.shape) for plan in sides(cfg, pairs)]
                seen["precoder side"] += costs[PRECODERS] < costs[DECODERS]
            seen["proper_fail"] += report.method == "proper_fail"
            seen["partial"] += pairs != alignment_all(cfg)
        assert min(seen.values()) >= 5, seen


# to_line() on channel seed 0 of the reference networks at x1-x3, of two
# networks that reach the rank test with equal costs on both sides (the
# decoder side is kept) and with the precoder side cheaper, and of a partial
# alignment set that leaves transmitter 3 and its four free variables
# unlinked on the decomposed (precoder) columns.  A change of side changes
# the decomposed matrix and with it the tolerance; so would a column for an
# unlinked node.  ``None`` aligns every cross pair.
GOLDEN = [
    (CONFIG_SYM, 1, None, "true,symmetric_formula,54,54,-1,0.0"),
    (CONFIG_SYM, 2, None, "true,symmetric_formula,216,216,-1,0.0"),
    (CONFIG_SYM, 3, None, "true,symmetric_formula,486,486,-1,0.0"),
    (CONFIG_ASYM, 1, None, "true,divisible_formula,54,54,-1,0.0"),
    (CONFIG_ASYM, 2, None, "true,divisible_formula,216,216,-1,0.0"),
    (CONFIG_ASYM, 3, None, "true,divisible_formula,486,486,-1,0.0"),
    (CONFIG_INFEASIBLE, 1, None, "false,hall_rank,54,54,52,4.2058327322722375e-09"),
    (CONFIG_INFEASIBLE, 2, None, "false,hall_rank,216,216,208,2.779061200690992e-08"),
    (CONFIG_INFEASIBLE, 3, None, "false,hall_rank,486,486,468,9.356886860997335e-08"),
    (NetworkConfig(K=2, J=0, M=(3, 4), N=(3, 4), d=(2, 2)), 1, None,
     "true,hall_rank,8,12,8,1.0804032669143438e-09"),
    (NetworkConfig(K=2, J=0, M=(5, 1), N=(3, 1), d=(2, 1)), 1, None,
     "true,hall_rank,4,8,4,2.9153958524105767e-10"),
    (NetworkConfig(K=3, J=0, M=(2, 4, 5), N=(4, 3, 2), d=(1, 2, 1)), 1,
     ((1, 2), (2, 1), (3, 1), (3, 2)), "true,hall_rank,7,15,7,7.588769778149881e-10"),
]


@pytest.mark.parametrize("cfg, times, pairs, line", GOLDEN, ids=[
    "config1-x1", "config1-x2", "config1-x3", "config2-x1", "config2-x2", "config2-x3",
    "config3-x1", "config3-x2", "config3-x3", "tie", "precoder-side", "unlinked-transmitter"])
def test_golden_record(cfg, times, pairs, line):
    cfg = scale_config(cfg, times)
    pairs = alignment_all(cfg) if pairs is None else pairs
    fields = feasibility_check(cfg, pairs, seed=0).to_line().split(",")
    golden = line.split(",")
    assert fields[:5] == golden[:5]
    # the last digits of the cutoff follow the BLAS thread count
    assert float(fields[5]) == pytest.approx(float(golden[5]), rel=1e-12)
