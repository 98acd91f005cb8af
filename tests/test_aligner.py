import math

import numpy as np
import pytest

from conftest import CONFIG_ASYM, CONFIG_INFEASIBLE, CONFIG_SYM
from gia.aligner import (
    AlreadyAlignedError,
    ReducedTransceivers,
    leakage,
    lift_transceivers,
    normalized_interference_db,
    random_reduced,
    receiver_update,
    residual_matrix,
    residual_vector,
    run_classical_baseline,
    run_gia,
    transmitter_update,
    verify_solution,
    zero_reduced,
)
from gia.linalg import frobenius_norm_sq
from gia.network import NetworkConfig, Problem, alignment_all, generate_channel


def zero_cross_channel(cfg, seed=0):
    channel = generate_channel(cfg, seed)
    for (k, j) in list(channel):
        if k != j:
            channel[(k, j)] = np.zeros_like(channel[(k, j)])
    return channel


class TestLift:
    def test_zero_rows_gives_identity(self):
        rt = ReducedTransceivers(
            (np.zeros((0, 2)),), (np.zeros((0, 2)), np.zeros((1, 1)))
        )
        ts = lift_transceivers(rt)
        np.testing.assert_array_equal(ts.U[0], np.eye(2))
        np.testing.assert_array_equal(ts.V[0], np.eye(2))

    def test_single_free_entry(self):
        rt = ReducedTransceivers((np.array([[2 + 1j]]),), (np.array([[0j]]),))
        ts = lift_transceivers(rt)
        np.testing.assert_array_equal(ts.U[0], np.array([[1.0], [2 + 1j]]))

    def test_round_trip_bottom_block(self):
        cfg = CONFIG_SYM
        rt = random_reduced(cfg, 3)
        ts = lift_transceivers(rt)
        for k in range(cfg.K):
            dk = cfg.d[k]
            np.testing.assert_array_equal(ts.U[k][:dk], np.eye(dk))
            np.testing.assert_array_equal(ts.U[k][dk:], rt.U[k])


def residual_entries(problem, rt):
    """``(k, j, p, q) -> residual``, read from :func:`residual_vector` at offset
    ``(p-1) d_j + (q-1)`` inside the block of pair ``(k, j)``."""
    vec = residual_vector(problem, rt)
    d = problem.cfg.d
    out = {}
    start = 0
    for k, j in problem.pairs:
        dk, dj = d[k - 1], d[j - 1]
        for p in range(1, dk + 1):
            for q in range(1, dj + 1):
                out[(k, j, p, q)] = vec[start + (p - 1) * dj + (q - 1)]
        start += dk * dj
    assert start == vec.shape[0]
    return out


class TestResiduals:
    def test_zero_point_gives_channel_entries(self):
        cfg = CONFIG_SYM
        channel = generate_channel(cfg, 1)
        res = residual_entries(Problem(cfg, alignment_all(cfg), channel), zero_reduced(cfg))
        for (k, j, p, q), value in res.items():
            assert value == channel[(k, j)][p - 1, q - 1]

    def test_zero_cross_channel_gives_zero(self):
        cfg = CONFIG_SYM
        problem = Problem(cfg, alignment_all(cfg), zero_cross_channel(cfg))
        res = residual_entries(problem, random_reduced(cfg, 4))
        assert all(v == 0 for v in res.values())

    def test_matches_lifted_product(self):
        # oracle: direct product of the lifted transceivers
        cfg = NetworkConfig(K=2, J=1, M=(4, 3, 5), N=(3, 4), d=(2, 1, 2))
        channel = generate_channel(cfg, 6)
        rt = random_reduced(cfg, 8)
        ts = lift_transceivers(rt)
        res = residual_entries(Problem(cfg, alignment_all(cfg), channel), rt)
        for (k, j, p, q), value in res.items():
            direct = (ts.U[k - 1].conj().T @ channel[(k, j)] @ ts.V[j - 1])[p - 1, q - 1]
            assert abs(value - direct) <= 1e-12

    def test_vector_order_matches_residual_matrix(self):
        cfg = NetworkConfig(K=2, J=0, M=(3, 4), N=(4, 3), d=(2, 1))
        problem = Problem(cfg, alignment_all(cfg), generate_channel(cfg, 2))
        rt = random_reduced(cfg, 2)
        vec = residual_vector(problem, rt)
        flat = [
            residual_matrix(problem, rt, k, j)[p - 1, q - 1]
            for (k, j) in problem.pairs
            for p in range(1, cfg.d[k - 1] + 1)
            for q in range(1, cfg.d[j - 1] + 1)
        ]
        np.testing.assert_array_equal(vec, np.array(flat))

    def test_point_shape_checked(self):
        cfg = CONFIG_SYM
        problem = Problem(cfg, alignment_all(cfg), generate_channel(cfg, 0))
        bad = ReducedTransceivers(zero_reduced(cfg).U, zero_reduced(CONFIG_INFEASIBLE).V)
        for fn in (residual_vector, leakage, receiver_update, transmitter_update):
            with pytest.raises(ValueError, match="reduced precoder 1"):
                fn(problem, bad)


class TestLeakage:
    def test_zero(self):
        cfg = CONFIG_SYM
        problem = Problem(cfg, alignment_all(cfg), zero_cross_channel(cfg))
        assert leakage(problem, random_reduced(cfg, 1)) == 0.0

    def test_single_pair_value(self):
        cfg = NetworkConfig(K=2, J=0, M=(1, 1), N=(1, 1), d=(1, 1))
        channel = {
            (1, 1): np.array([[1.0 + 0j]]),
            (1, 2): np.array([[3.0 + 4.0j]]),
            (2, 1): np.array([[0j]]),
            (2, 2): np.array([[1.0 + 0j]]),
        }
        rt = zero_reduced(cfg)
        assert leakage(Problem(cfg, [(1, 2)], channel), rt) == pytest.approx(25.0)

    def test_recomposition(self):
        cfg = NetworkConfig(K=3, J=0, M=(4, 4, 4), N=(3, 5, 4), d=(2, 2, 1))
        problem = Problem(cfg, alignment_all(cfg), generate_channel(cfg, 3))
        rt = random_reduced(cfg, 9)
        total = sum(
            frobenius_norm_sq(residual_matrix(problem, rt, k, j)) for k, j in problem.pairs
        )
        assert leakage(problem, rt) == pytest.approx(total, rel=1e-12)


class TestReceiverUpdate:
    def test_receiver_without_pairs_unchanged(self):
        cfg = NetworkConfig(K=2, J=0, M=(3, 3), N=(3, 3), d=(1, 1))
        rt = random_reduced(cfg, 5)
        out = receiver_update(Problem(cfg, [(1, 2)], generate_channel(cfg, 0)), rt)
        np.testing.assert_array_equal(out.U[1], rt.U[1])
        assert not np.array_equal(out.U[0], rt.U[0])

    def test_scalar_least_squares_oracle(self):
        # d=1, one pair, N_k=2: minimize |B + conj(u) A| over u, solved by hand
        cfg = NetworkConfig(K=2, J=0, M=(2, 2), N=(2, 2), d=(1, 1))
        channel = generate_channel(cfg, 11)
        problem = Problem(cfg, [(1, 2)], channel)
        rt = random_reduced(cfg, 7)
        H = channel[(1, 2)]
        v = rt.V[1]
        A = H[1, 0] + H[1, 1] * v[0, 0]
        B = H[0, 0] + H[0, 1] * v[0, 0]
        expected = -np.conj(B / A)
        out = receiver_update(problem, rt)
        assert abs(out.U[0][0, 0] - expected) <= 1e-12
        # square system: the single constraint is solved exactly
        assert abs(residual_matrix(problem, out, 1, 2)[0, 0]) <= 1e-12

    def test_first_update_strictly_decreases(self):
        cfg = CONFIG_SYM
        problem = Problem(cfg, alignment_all(cfg), generate_channel(cfg, 0))
        rt = ReducedTransceivers(zero_reduced(cfg).U, random_reduced(cfg, 1).V)
        before = leakage(problem, rt)
        after = leakage(problem, receiver_update(problem, rt))
        assert after < before

    def test_exact_minimizer_first_order_optimality(self):
        cfg = CONFIG_SYM
        problem = Problem(cfg, alignment_all(cfg), generate_channel(cfg, 2))
        rt = receiver_update(problem, random_reduced(cfg, 3))
        base = leakage(problem, rt)
        rng = np.random.default_rng(4)
        for _ in range(25):
            delta = tuple(
                u + 1e-5 * (rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))
                for u in rt.U
            )
            assert leakage(problem, ReducedTransceivers(delta, rt.V)) >= base - 1e-12


class TestTransmitterUpdate:
    def test_transmitter_without_pairs_unchanged(self):
        cfg = NetworkConfig(K=2, J=0, M=(3, 3), N=(3, 3), d=(1, 1))
        rt = random_reduced(cfg, 5)
        out = transmitter_update(Problem(cfg, [(1, 2)], generate_channel(cfg, 0)), rt)
        np.testing.assert_array_equal(out.V[0], rt.V[0])
        assert not np.array_equal(out.V[1], rt.V[1])

    def test_exact_minimizer_first_order_optimality(self):
        cfg = CONFIG_SYM
        problem = Problem(cfg, alignment_all(cfg), generate_channel(cfg, 2))
        rt = transmitter_update(problem, random_reduced(cfg, 3))
        base = leakage(problem, rt)
        rng = np.random.default_rng(4)
        for _ in range(25):
            delta = tuple(
                v + 1e-5 * (rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape))
                for v in rt.V
            )
            assert leakage(problem, ReducedTransceivers(rt.U, delta)) >= base - 1e-12

    @pytest.mark.parametrize("partial", [False, True], ids=["all-pairs", "partial"])
    def test_is_receiver_update_of_reciprocal_network(self, partial):
        # reciprocal network: M and N swapped, pairs transposed, H'_jk = H_kj^H;
        # its decoders are the original precoders and vice versa
        cfg = NetworkConfig(K=3, J=0, M=(4, 5, 3), N=(5, 3, 4), d=(2, 1, 1))
        pairs = ((1, 2), (2, 1), (3, 2)) if partial else alignment_all(cfg)
        channel = generate_channel(cfg, 21)
        recip = NetworkConfig(K=3, J=0, M=cfg.N, N=cfg.M, d=cfg.d)
        recip_channel = {(j, k): h.conj().T for (k, j), h in channel.items()}
        recip_pairs = [(j, k) for k, j in pairs]
        rt = random_reduced(cfg, 22)
        out = transmitter_update(Problem(cfg, pairs, channel), rt)
        mirror = receiver_update(Problem(recip, recip_pairs, recip_channel),
                                 ReducedTransceivers(rt.V, rt.U))
        for v, u in zip(out.V, mirror.U):
            assert np.linalg.norm(v - u) <= 1e-12 * np.linalg.norm(v)
        for a, b in zip(out.U, mirror.V):
            np.testing.assert_array_equal(a, b)

    def test_jammer_underdetermined_exact_solve(self):
        # jammer with M_j - d_j >= d_k d_j zeroes its pair in one update
        cfg = NetworkConfig(K=1, J=1, M=(2, 4), N=(2,), d=(2, 1))
        problem = Problem(cfg, [(1, 2)], generate_channel(cfg, 13))
        rt = random_reduced(cfg, 14)
        out = transmitter_update(problem, rt)
        assert np.abs(residual_matrix(problem, out, 1, 2)).max() <= 1e-10

    def test_monotone_over_alternating_updates(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            K = int(rng.integers(2, 4))
            d = tuple(int(rng.integers(1, 3)) for _ in range(K))
            M = tuple(int(rng.integers(dk, 6)) for dk in d)
            N = tuple(int(rng.integers(dk, 6)) for dk in d)
            cfg = NetworkConfig(K=K, J=0, M=M, N=N, d=d)
            problem = Problem(cfg, alignment_all(cfg), generate_channel(cfg, trial))
            rt = random_reduced(cfg, trial)
            prev = leakage(problem, rt)
            for _ in range(10):
                rt = receiver_update(problem, rt)
                rt = transmitter_update(problem, rt)
                cur = leakage(problem, rt)
                # below ~1e-24 the leakage is roundoff noise (entries are
                # computed to ~1e-16 absolute and then squared)
                assert cur <= max(prev * (1 + 1e-12), 1e-24)
                prev = cur


class TestRunGia:
    def test_zero_cross_channel_converges_immediately(self):
        cfg = CONFIG_SYM
        channel = zero_cross_channel(cfg)
        rt, trace = run_gia(cfg, alignment_all(cfg), channel, seed=0)
        assert trace.points == ((0, 0.0, 0.0),)
        assert trace.converged and trace.stop_reason == "tolerance"

    def test_feasible_symmetric_reaches_minus_60(self):
        cfg = CONFIG_SYM
        channel = generate_channel(cfg, 13)
        _, trace = run_gia(cfg, alignment_all(cfg), channel, max_iters=5000, seed=13, target_db=-60.0)
        assert trace.final_i_db <= -60.0
        assert trace.rounds_used <= 5000

    def test_infeasible_stays_above_minus_60(self):
        cfg = CONFIG_INFEASIBLE
        channel = generate_channel(cfg, 0)
        _, trace = run_gia(cfg, alignment_all(cfg), channel, max_iters=400, seed=0)
        assert trace.i_db.min() > -60.0

    def test_budget_zero_gives_initial_row_only(self):
        cfg = CONFIG_SYM
        channel = generate_channel(cfg, 0)
        _, trace = run_gia(cfg, alignment_all(cfg), channel, max_iters=0, seed=0)
        assert len(trace.points) == 1
        assert trace.points[0][0] == 0
        assert not trace.converged
        assert trace.stop_reason == "max_iters"

    def test_trace_invariants(self):
        cfg = CONFIG_INFEASIBLE
        channel = generate_channel(cfg, 1)
        _, trace = run_gia(cfg, alignment_all(cfg), channel, max_iters=60, seed=1)
        assert trace.i_db[0] == 0.0
        leaks = trace.leakages
        assert np.all(np.diff(leaks) <= 1e-12 * leaks[:-1])
        lines = trace.csv_lines()
        assert lines[0] == "t,leakage,I_dB"
        assert lines[1].startswith("0,")
        assert len(lines) == len(trace.points) + 1

    def test_deterministic_given_seed(self):
        cfg = CONFIG_SYM
        channel = generate_channel(cfg, 3)
        rt1, tr1 = run_gia(cfg, alignment_all(cfg), channel, max_iters=20, seed=5)
        rt2, tr2 = run_gia(cfg, alignment_all(cfg), channel, max_iters=20, seed=5)
        assert tr1.points == tr2.points
        for a, b in zip(rt1.V, rt2.V):
            np.testing.assert_array_equal(a, b)

    def test_trace_is_the_public_round_loop(self):
        cfg = CONFIG_ASYM
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 3)
        rt, trace = run_gia(cfg, pairs, channel, max_iters=30, seed=3)
        start, _ = run_gia(cfg, pairs, channel, max_iters=0, seed=3)
        problem = Problem(cfg, pairs, channel)
        hand = start
        leaks = [leakage(problem, hand)]
        for _ in range(30):
            hand = transmitter_update(problem, receiver_update(problem, hand))
            leaks.append(leakage(problem, hand))
        assert trace.rounds_used == 30
        np.testing.assert_array_equal(trace.leakages, leaks)
        for a, b in zip(rt.U + rt.V, hand.U + hand.V):
            np.testing.assert_array_equal(a, b)

    def test_validates_once_per_run(self, monkeypatch):
        import gia.network as network

        calls = {"canonical_alignment": 0, "check_channel": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(network, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(network, name, counted)
        cfg = CONFIG_INFEASIBLE
        channel = generate_channel(cfg, 0)
        per_run = []
        for budget in (5, 50):
            before = dict(calls)
            _, trace = run_gia(cfg, alignment_all(cfg), channel, max_iters=budget, seed=0)
            assert trace.rounds_used == budget
            per_run.append({name: calls[name] - before[name] for name in calls})
        assert per_run[0] == per_run[1]
        assert min(per_run[0].values()) >= 1

    @pytest.mark.parametrize("run", [run_gia, run_classical_baseline])
    def test_negative_budget_rejected(self, run):
        # also a NaN or negative leak_tol and a NaN target_db, which would
        # otherwise never stop the run and read as unset
        cfg = CONFIG_SYM
        channel = generate_channel(cfg, 0)
        for stop in ({"max_iters": -1}, {"leak_tol": math.nan}, {"leak_tol": -1.0},
                     {"target_db": math.nan}):
            with pytest.raises(ValueError, match=next(iter(stop))):
                run(cfg, alignment_all(cfg), channel, **stop)


class TestClassicalBaseline:
    def test_zero_cross_channel(self):
        cfg = CONFIG_SYM
        channel = zero_cross_channel(cfg)
        _, trace = run_classical_baseline(cfg, alignment_all(cfg), channel, seed=0)
        assert trace.points[0][1] == 0.0

    def test_feasible_reaches_minus_60(self):
        cfg = CONFIG_SYM
        channel = generate_channel(cfg, 0)
        _, trace = run_classical_baseline(
            cfg, alignment_all(cfg), channel, max_iters=5000, seed=0, target_db=-60.0
        )
        assert trace.final_i_db <= -60.0

    def test_infeasible_plateaus(self):
        cfg = CONFIG_INFEASIBLE
        channel = generate_channel(cfg, 0)
        _, trace = run_classical_baseline(cfg, alignment_all(cfg), channel, max_iters=500, seed=0)
        assert trace.i_db.min() > -60.0

    def test_transceivers_stay_orthonormal(self):
        cfg = CONFIG_INFEASIBLE
        channel = generate_channel(cfg, 2)
        ts, _ = run_classical_baseline(cfg, alignment_all(cfg), channel, max_iters=30, seed=2)
        for u in ts.U:
            np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-10)
        for v in ts.V:
            np.testing.assert_allclose(v.conj().T @ v, np.eye(v.shape[1]), atol=1e-10)


class TestVerifySolution:
    def test_converged_run_passes(self):
        # end-to-end: deep run on the feasible symmetric network
        cfg = CONFIG_SYM
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 13)
        rt, trace = run_gia(cfg, pairs, channel, max_iters=100000, leak_tol=1e-12, seed=13)
        assert trace.stop_reason == "tolerance"
        report = verify_solution(cfg, pairs, channel, lift_transceivers(rt), tol=1e-6)
        assert report.passed, report.failures
        assert report.max_residual <= 1e-6

    def test_identity_lifted_zeros_fail_residual_check(self):
        cfg = CONFIG_SYM
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 4)
        report = verify_solution(cfg, pairs, channel, lift_transceivers(zero_reduced(cfg)))
        assert not report.passed
        assert any("residual" in f for f in report.failures)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-6])
    def test_bad_tolerance_rejected(self, tol):
        cfg = CONFIG_SYM
        channel = generate_channel(cfg, 4)
        with pytest.raises(ValueError, match="tol"):
            verify_solution(cfg, alignment_all(cfg), channel,
                            lift_transceivers(zero_reduced(cfg)), tol=tol)

    def test_single_user_no_alignment_passes(self):
        cfg = NetworkConfig(K=1, J=0, M=(3,), N=(3,), d=(2,))
        channel = generate_channel(cfg, 5)
        report = verify_solution(cfg, (), channel, lift_transceivers(zero_reduced(cfg)))
        assert report.passed

    def test_rank_deficient_jammer_precoder_fails(self):
        cfg = NetworkConfig(K=1, J=1, M=(2, 3), N=(2,), d=(1, 2))
        channel = generate_channel(cfg, 6)
        ts = lift_transceivers(zero_reduced(cfg))
        bad_V = (ts.V[0], np.hstack([ts.V[1][:, :1], ts.V[1][:, :1]]))
        from gia.network import TransceiverSet

        report = verify_solution(cfg, (), channel, TransceiverSet(ts.U, bad_V))
        assert not report.passed
        assert any("jammer" in f for f in report.failures)


class TestNormalizedInterference:
    def test_equal_is_zero(self):
        assert normalized_interference_db(2.5, 2.5) == 0.0

    def test_minus_60(self):
        assert normalized_interference_db(1.0, 1e-6) == pytest.approx(-60.0)

    def test_plus_10(self):
        assert normalized_interference_db(1.0, 10.0) == pytest.approx(10.0)

    def test_zero_leakage_is_minus_inf(self):
        assert normalized_interference_db(1.0, 0.0) == -math.inf

    def test_zero_initial_raises(self):
        with pytest.raises(AlreadyAlignedError):
            normalized_interference_db(0.0, 1.0)
