import math

import numpy as np
import pytest

from conftest import CONFIG_ASYM, CONFIG_INFEASIBLE, CONFIG_SYM, random_point
from gia.aligner import (
    leakage,
    receiver_update,
    residual_vector,
    run_classical_baseline,
    run_gia,
    transmitter_update,
    verify_solution,
)
from gia.linalg import frobenius_norm_sq
from gia.network import NetworkConfig, Problem, TransceiverSet, alignment_all, generate_channel


def zero_cross_channel(cfg, seed=0):
    channel = generate_channel(cfg, seed)
    for (k, j) in list(channel):
        if k != j:
            channel[(k, j)] = np.zeros_like(channel[(k, j)])
    return channel


def shift_free(X, rng, scale):
    """Copy of ``X`` with its free block ``X[d:]`` shifted by ``scale`` times
    complex Gaussian noise."""
    Y = X.copy()
    free = Y[Y.shape[1]:]
    free += scale * (rng.standard_normal(free.shape) + 1j * rng.standard_normal(free.shape))
    return Y


def residual_entries(problem, ts):
    """``(k, j, p, q) -> residual``, read from :func:`residual_vector` at offset
    ``(p-1) d_j + (q-1)`` inside the block of pair ``(k, j)``."""
    vec = residual_vector(problem, ts)
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
        res = residual_entries(Problem(cfg, alignment_all(cfg), channel),
                               TransceiverSet.identity(cfg))
        for (k, j, p, q), value in res.items():
            assert value == channel[(k, j)][p - 1, q - 1]

    def test_zero_cross_channel_gives_zero(self):
        cfg = CONFIG_SYM
        problem = Problem(cfg, alignment_all(cfg), zero_cross_channel(cfg))
        res = residual_entries(problem, random_point(cfg, 4))
        assert all(v == 0 for v in res.values())

    def test_matches_lifted_product(self):
        # oracle: direct product of the transceivers
        cfg = NetworkConfig(K=2, J=1, M=(4, 3, 5), N=(3, 4), d=(2, 1, 2))
        channel = generate_channel(cfg, 6)
        ts = random_point(cfg, 8)
        res = residual_entries(Problem(cfg, alignment_all(cfg), channel), ts)
        for (k, j, p, q), value in res.items():
            direct = (ts.U[k - 1].conj().T @ channel[(k, j)] @ ts.V[j - 1])[p - 1, q - 1]
            assert abs(value - direct) <= 1e-12

    def test_point_shape_checked(self):
        cfg = CONFIG_SYM
        problem = Problem(cfg, alignment_all(cfg), generate_channel(cfg, 0))
        bad = TransceiverSet(TransceiverSet.identity(cfg).U,
                             TransceiverSet.identity(CONFIG_INFEASIBLE).V)
        for fn in (residual_vector, leakage, receiver_update, transmitter_update):
            with pytest.raises(ValueError,
                               match=r"precoder 1 has shape \(5, 3\), expected \(6, 3\)"):
                fn(problem, bad)

    def test_non_finite_point_rejected(self):
        # a NaN entry would otherwise turn 6 of the 54 residuals into NaN
        # without complaint, and fail in leakage naming no block
        cfg = CONFIG_SYM
        problem = Problem(cfg, alignment_all(cfg), generate_channel(cfg, 0))
        ts = random_point(cfg, 1)
        ts.V[0][4, 1] = np.nan
        for fn in (residual_vector, leakage, receiver_update, transmitter_update):
            with pytest.raises(ValueError, match="precoder 1 has non-finite entries"):
                fn(problem, ts)


class TestLeakage:
    def test_zero(self):
        cfg = CONFIG_SYM
        problem = Problem(cfg, alignment_all(cfg), zero_cross_channel(cfg))
        assert leakage(problem, random_point(cfg, 1)) == 0.0

    def test_single_pair_value(self):
        cfg = NetworkConfig(K=2, J=0, M=(1, 1), N=(1, 1), d=(1, 1))
        channel = {
            (1, 1): np.array([[1.0 + 0j]]),
            (1, 2): np.array([[3.0 + 4.0j]]),
            (2, 1): np.array([[0j]]),
            (2, 2): np.array([[1.0 + 0j]]),
        }
        ts = TransceiverSet.identity(cfg)
        assert leakage(Problem(cfg, [(1, 2)], channel), ts) == pytest.approx(25.0)

    def test_recomposition(self):
        cfg = NetworkConfig(K=3, J=0, M=(4, 4, 4), N=(3, 5, 4), d=(2, 2, 1))
        problem = Problem(cfg, alignment_all(cfg), generate_channel(cfg, 3))
        ts = random_point(cfg, 9)
        total = float(np.sum(np.abs(residual_vector(problem, ts)) ** 2))
        assert leakage(problem, ts) == pytest.approx(total, rel=1e-12)


class TestReceiverUpdate:
    def test_receiver_without_pairs_unchanged(self):
        cfg = NetworkConfig(K=2, J=0, M=(3, 3), N=(3, 3), d=(1, 1))
        ts = random_point(cfg, 5)
        out = receiver_update(Problem(cfg, [(1, 2)], generate_channel(cfg, 0)), ts)
        np.testing.assert_array_equal(out.U[1], ts.U[1])
        assert not np.array_equal(out.U[0], ts.U[0])

    def test_scalar_least_squares_oracle(self):
        # d=1, one pair, N_k=2: minimize |B + conj(u) A| over u, solved by hand
        cfg = NetworkConfig(K=2, J=0, M=(2, 2), N=(2, 2), d=(1, 1))
        channel = generate_channel(cfg, 11)
        problem = Problem(cfg, [(1, 2)], channel)
        ts = random_point(cfg, 7)
        H = channel[(1, 2)]
        v = ts.V[1]
        A = H[1, 0] + H[1, 1] * v[1, 0]
        B = H[0, 0] + H[0, 1] * v[1, 0]
        expected = -np.conj(B / A)
        out = receiver_update(problem, ts)
        assert abs(out.U[0][1, 0] - expected) <= 1e-12
        # square system: the single constraint is solved exactly
        assert abs(residual_entries(problem, out)[(1, 2, 1, 1)]) <= 1e-12

    def test_first_update_strictly_decreases(self):
        cfg = CONFIG_SYM
        problem = Problem(cfg, alignment_all(cfg), generate_channel(cfg, 0))
        ts = TransceiverSet(TransceiverSet.identity(cfg).U, random_point(cfg, 1).V)
        before = leakage(problem, ts)
        after = leakage(problem, receiver_update(problem, ts))
        assert after < before

    def test_exact_minimizer_first_order_optimality(self):
        cfg = CONFIG_SYM
        problem = Problem(cfg, alignment_all(cfg), generate_channel(cfg, 2))
        ts = receiver_update(problem, random_point(cfg, 3))
        base = leakage(problem, ts)
        rng = np.random.default_rng(4)
        for _ in range(25):
            delta = tuple(shift_free(u, rng, 1e-5) for u in ts.U)
            assert leakage(problem, TransceiverSet(delta, ts.V)) >= base - 1e-12


class TestTransmitterUpdate:
    def test_transmitter_without_pairs_unchanged(self):
        cfg = NetworkConfig(K=2, J=0, M=(3, 3), N=(3, 3), d=(1, 1))
        ts = random_point(cfg, 5)
        out = transmitter_update(Problem(cfg, [(1, 2)], generate_channel(cfg, 0)), ts)
        np.testing.assert_array_equal(out.V[0], ts.V[0])
        assert not np.array_equal(out.V[1], ts.V[1])

    def test_exact_minimizer_first_order_optimality(self):
        cfg = CONFIG_SYM
        problem = Problem(cfg, alignment_all(cfg), generate_channel(cfg, 2))
        ts = transmitter_update(problem, random_point(cfg, 3))
        base = leakage(problem, ts)
        rng = np.random.default_rng(4)
        for _ in range(25):
            delta = tuple(shift_free(v, rng, 1e-5) for v in ts.V)
            assert leakage(problem, TransceiverSet(ts.U, delta)) >= base - 1e-12

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
        ts = random_point(cfg, 22)
        out = transmitter_update(Problem(cfg, pairs, channel), ts)
        mirror = receiver_update(Problem(recip, recip_pairs, recip_channel),
                                 TransceiverSet(ts.V, ts.U))
        for v, u, d in zip(out.V, mirror.U, cfg.d):
            np.testing.assert_array_equal(v[:d], u[:d])
            assert np.linalg.norm(v[d:] - u[d:]) <= 1e-12 * np.linalg.norm(v[d:])
        for a, b in zip(out.U, mirror.V):
            np.testing.assert_array_equal(a, b)

    def test_jammer_underdetermined_exact_solve(self):
        # jammer with M_j - d_j >= d_k d_j zeroes its pair in one update
        cfg = NetworkConfig(K=1, J=1, M=(2, 4), N=(2,), d=(2, 1))
        problem = Problem(cfg, [(1, 2)], generate_channel(cfg, 13))
        out = transmitter_update(problem, random_point(cfg, 14))
        assert max(map(abs, residual_entries(problem, out).values())) <= 1e-10

    def test_monotone_over_alternating_updates(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            K = int(rng.integers(2, 4))
            d = tuple(int(rng.integers(1, 3)) for _ in range(K))
            M = tuple(int(rng.integers(dk, 6)) for dk in d)
            N = tuple(int(rng.integers(dk, 6)) for dk in d)
            cfg = NetworkConfig(K=K, J=0, M=M, N=N, d=d)
            problem = Problem(cfg, alignment_all(cfg), generate_channel(cfg, trial))
            ts = random_point(cfg, trial)
            prev = leakage(problem, ts)
            for _ in range(10):
                ts = receiver_update(problem, ts)
                ts = transmitter_update(problem, ts)
                cur = leakage(problem, ts)
                # below ~1e-24 the leakage is roundoff noise (entries are
                # computed to ~1e-16 absolute and then squared)
                assert cur <= max(prev * (1 + 1e-12), 1e-24)
                prev = cur


class TestRunGia:
    def test_zero_cross_channel_converges_immediately(self):
        cfg = CONFIG_SYM
        channel = zero_cross_channel(cfg)
        _, trace = run_gia(cfg, alignment_all(cfg), channel, seed=0)
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
        ts1, tr1 = run_gia(cfg, alignment_all(cfg), channel, max_iters=20, seed=5)
        ts2, tr2 = run_gia(cfg, alignment_all(cfg), channel, max_iters=20, seed=5)
        assert tr1.points == tr2.points
        for a, b in zip(ts1.U + ts1.V, ts2.U + ts2.V):
            np.testing.assert_array_equal(a, b)

    def test_trace_is_the_public_round_loop(self):
        cfg = CONFIG_ASYM
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 3)
        ts, trace = run_gia(cfg, pairs, channel, max_iters=30, seed=3)
        hand, _ = run_gia(cfg, pairs, channel, max_iters=0, seed=3)
        problem = Problem(cfg, pairs, channel)
        leaks = [leakage(problem, hand)]
        for _ in range(30):
            hand = transmitter_update(problem, receiver_update(problem, hand))
            leaks.append(leakage(problem, hand))
        assert trace.rounds_used == 30
        np.testing.assert_array_equal(trace.leakages, leaks)
        for a, b in zip(ts.U + ts.V, hand.U + hand.V):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("run", [run_gia, run_classical_baseline])
    def test_returns_full_transceivers(self, run):
        cfg = NetworkConfig(K=2, J=1, M=(4, 3, 5), N=(3, 4), d=(2, 1, 2))
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 6)
        ts, _ = run(cfg, pairs, channel, max_iters=10, seed=7)
        assert isinstance(ts, TransceiverSet)
        assert [u.shape for u in ts.U] == [(3, 2), (4, 1)]
        assert [v.shape for v in ts.V] == [(4, 2), (3, 1), (5, 2)]
        if run is run_gia:
            for x, d in zip(ts.U + ts.V, cfg.d[: cfg.K] + cfg.d):
                np.testing.assert_array_equal(x[:d], np.eye(d))
            # this network aligns to roundoff (leakage 1.8e-30) within the 10 rounds
            assert verify_solution(cfg, pairs, channel, ts).passed

    @pytest.mark.parametrize("run", [run_gia, run_classical_baseline])
    def test_validates_once_per_run(self, monkeypatch, run):
        # the problem is checked when the run starts, and no round checks
        # its point again
        import gia.aligner as aligner
        import gia.network as network

        calls = {"canonical_alignment": 0, "check_channel": 0, "check_transceivers": 0}
        for name, module in (("canonical_alignment", network), ("check_channel", network),
                             ("check_transceivers", aligner)):
            def counted(*args, _name=name, _fn=getattr(module, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        cfg = CONFIG_INFEASIBLE
        channel = generate_channel(cfg, 0)
        per_run = []
        for budget in (5, 50):
            before = dict(calls)
            _, trace = run(cfg, alignment_all(cfg), channel, max_iters=budget, seed=0)
            assert trace.rounds_used == budget
            per_run.append({name: calls[name] - before[name] for name in calls})
        assert per_run[0] == per_run[1]
        assert per_run[0]["canonical_alignment"] >= 1 and per_run[0]["check_channel"] >= 1

    @pytest.mark.parametrize("run", [run_gia, run_classical_baseline])
    def test_negative_budget_rejected(self, run):
        # also a float budget, a NaN target_db and, for ALS, a NaN or negative
        # leak_tol, which would otherwise never stop the run or read as unset
        cfg = CONFIG_SYM
        channel = generate_channel(cfg, 0)
        stops = [{"max_iters": -1}, {"max_iters": 2.5}, {"target_db": math.nan}]
        if run is run_gia:
            stops += [{"leak_tol": math.nan}, {"leak_tol": -1.0}]
        for stop in stops:
            with pytest.raises(ValueError, match=next(iter(stop))):
                run(cfg, alignment_all(cfg), channel, **stop)
            # the stop rules are checked before the problem is built
            with pytest.raises(ValueError, match=next(iter(stop))):
                run(cfg, alignment_all(cfg), {}, **stop)

    @pytest.mark.parametrize("run", [run_gia, run_classical_baseline])
    def test_overflowing_leakage_rejected(self, run):
        # a finite channel passes the boundary check, but its round-0 leakage
        # squares past the float range; the run stops before its first round
        # instead of recording inf and nan rows
        cfg = CONFIG_SYM
        channel = {link: 1e160 * H for link, H in generate_channel(cfg, 0).items()}
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(
                ValueError, match="round-0 leakage overflows to inf"):
            run(cfg, alignment_all(cfg), channel, max_iters=2)


class TestClassicalBaseline:
    def test_zero_cross_channel(self):
        cfg = CONFIG_SYM
        channel = zero_cross_channel(cfg)
        _, trace = run_classical_baseline(cfg, alignment_all(cfg), channel, seed=0)
        assert trace.points == ((0, 0.0, 0.0),)
        assert trace.converged and trace.stop_reason == "tolerance"

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
        ts, trace = run_gia(cfg, pairs, channel, max_iters=100000, leak_tol=1e-12, seed=13)
        assert trace.stop_reason == "tolerance"
        report = verify_solution(cfg, pairs, channel, ts, tol=1e-6)
        assert report.passed, report.failures
        assert report.max_residual <= 1e-6

    def test_identity_lifted_zeros_fail_residual_check(self):
        cfg = CONFIG_SYM
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 4)
        report = verify_solution(cfg, pairs, channel, TransceiverSet.identity(cfg))
        assert not report.passed
        assert any("residual" in f for f in report.failures)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-6])
    def test_bad_tolerance_rejected(self, tol):
        cfg = CONFIG_SYM
        channel = generate_channel(cfg, 4)
        with pytest.raises(ValueError, match="tol"):
            verify_solution(cfg, alignment_all(cfg), channel,
                            TransceiverSet.identity(cfg), tol=tol)

    def test_transceiver_shapes_checked(self):
        cfg = CONFIG_SYM
        channel = generate_channel(cfg, 4)
        ts = TransceiverSet.identity(cfg)
        for bad, message in (
            (TransceiverSet(ts.U[:2], ts.V), "transceivers have 2 decoders, expected 3"),
            (TransceiverSet(ts.U, ts.V + ts.V[:1]), "transceivers have 4 precoders, expected 3"),
            (TransceiverSet((ts.U[0][:5],) + ts.U[1:], ts.V),
             r"decoder 1 has shape \(5, 3\), expected \(6, 3\)"),
            (TransceiverSet(ts.U, ts.V[:2] + (ts.V[2][:, :2],)),
             r"precoder 3 has shape \(6, 2\), expected \(6, 3\)"),
            (TransceiverSet(ts.U[:1] + (ts.U[1] + np.inf,) + ts.U[2:], ts.V),
             "decoder 2 has non-finite entries"),
        ):
            with pytest.raises(ValueError, match=message):
                verify_solution(cfg, alignment_all(cfg), channel, bad)

    def test_single_user_no_alignment_passes(self):
        cfg = NetworkConfig(K=1, J=0, M=(3,), N=(3,), d=(2,))
        channel = generate_channel(cfg, 5)
        report = verify_solution(cfg, (), channel, TransceiverSet.identity(cfg))
        assert report.passed

    def test_rank_deficient_direct_link_fails(self):
        cfg = NetworkConfig(K=1, J=0, M=(3,), N=(3,), d=(2,))
        channel = generate_channel(cfg, 5)
        ts = TransceiverSet.identity(cfg)
        bad_U = (np.hstack([ts.U[0][:, :1], ts.U[0][:, :1]]),)
        report = verify_solution(cfg, (), channel, TransceiverSet(bad_U, ts.V))
        assert not report.passed
        assert report.failures == ("direct link 1: rank 1 != d_1=2",)

    def test_rank_deficient_jammer_precoder_fails(self):
        cfg = NetworkConfig(K=1, J=1, M=(2, 3), N=(2,), d=(1, 2))
        channel = generate_channel(cfg, 6)
        ts = TransceiverSet.identity(cfg)
        bad_V = (ts.V[0], np.hstack([ts.V[1][:, :1], ts.V[1][:, :1]]))
        report = verify_solution(cfg, (), channel, TransceiverSet(ts.U, bad_V))
        assert not report.passed
        assert any("jammer" in f for f in report.failures)


def als_power_db(cfg, ts):
    """ALS's power rule, in the round loop's operation order: the dB product of
    each side's total power, the identity blocks contributing ``d``."""
    return 10.0 * math.log10(
        (sum(cfg.d[: cfg.K]) + sum(frobenius_norm_sq(u[d:]) for u, d in zip(ts.U, cfg.d)))
        * (sum(cfg.d) + sum(frobenius_norm_sq(v[d:]) for v, d in zip(ts.V, cfg.d))))


class TestNormalizedInterference:
    """The one ``I_dB`` rule of the round loop, checked from the runs' own points."""

    def test_equal_is_zero(self):
        cfg = CONFIG_INFEASIBLE
        for run in (run_gia, run_classical_baseline):
            _, trace = run(cfg, alignment_all(cfg), generate_channel(cfg, 3), max_iters=0, seed=3)
            assert trace.points[0][2] == 0.0 and trace.points[0][1] > 0.0

    def test_als_rows_follow_the_rule(self):
        # I_dB = 10 log10(leak / leak0) + (norm0 - norm_t), with the power of
        # the point each run of max_iters = t returns
        cfg = CONFIG_INFEASIBLE
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, 4)
        problem = Problem(cfg, pairs, channel)
        runs = [run_gia(cfg, pairs, channel, max_iters=t, seed=4) for t in range(6)]
        leak0, norm0 = runs[0][1].points[0][1], als_power_db(cfg, runs[0][0])
        for t, (ts, trace) in enumerate(runs):
            assert trace.points == runs[-1][1].points[: t + 1]
            _, leak, idb = trace.points[-1]
            assert leak == leakage(problem, ts)
            if t:
                assert idb == 10.0 * math.log10(leak / leak0) + (norm0 - als_power_db(cfg, ts))
        # the power correction is not zero: ALS's iterates change their power
        assert runs[-1][1].final_i_db != 10.0 * math.log10(runs[-1][1].leakages[-1] / leak0)

    def test_classical_rows_are_the_leakage_ratio(self):
        cfg = CONFIG_INFEASIBLE
        _, trace = run_classical_baseline(cfg, alignment_all(cfg), generate_channel(cfg, 4),
                                          max_iters=40, seed=4)
        leak0 = trace.points[0][1]
        assert len(trace.points) == 41
        for _, leak, idb in trace.points[1:]:
            assert idb == 10.0 * math.log10(leak / leak0)

    def test_zero_leakage_is_minus_inf(self):
        # one aligned pair (receiver 1, jammer 2) with H_12 = [1; 1] and
        # M_2 = d_2: the receive sweep solves it exactly, U_1 = [1; -1]
        cfg = NetworkConfig(K=1, J=1, M=(1, 1), N=(2,), d=(1, 1))
        channel = generate_channel(cfg, 0)
        channel[(1, 2)] = np.ones((2, 1), dtype=np.complex128)
        ts, trace = run_gia(cfg, alignment_all(cfg), channel, max_iters=10, seed=0)
        assert trace.points == ((0, 1.0, 0.0), (1, 0.0, -math.inf))
        assert trace.stop_reason == "tolerance" and trace.converged
        np.testing.assert_array_equal(ts.U[0], [[1.0], [-1.0]])
