import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_ASYM, CONFIG_INFEASIBLE, CONFIG_SYM
from gia.feasibility import build_coefficient_matrix, feasibility_check
from gia.linalg import numerical_rank
from gia.network import (
    ConfigError,
    ConfigParseError,
    NetworkConfig,
    Problem,
    TransceiverSet,
    alignment_all,
    canonical_alignment,
    free_shapes,
    generate_channel,
    load_config,
    save_config,
    scale_config,
)


class TestValidateConfig:
    """A NetworkConfig is checked when it is built, so an invalid one cannot exist."""

    def test_benchmark_configs_valid(self):
        for cfg in (CONFIG_SYM, CONFIG_ASYM, CONFIG_INFEASIBLE):
            assert NetworkConfig(cfg.K, cfg.J, cfg.M, cfg.N, cfg.d) == cfg

    def test_jammer_config_valid(self):
        cfg = NetworkConfig(K=3, J=1, M=(5, 5, 5, 4), N=(6, 6, 9), d=(3, 3, 3, 2))
        assert cfg.n_tx == 4
        # numpy integers are integers
        i64 = np.int64
        assert NetworkConfig(K=i64(3), J=i64(1), M=(5, 5, 5, i64(4)), N=(6, 6, i64(9)),
                             d=(3, 3, 3, i64(2))) == cfg

    def test_stream_exceeds_antennas(self):
        with pytest.raises(ConfigError, match="d_1"):
            NetworkConfig(K=2, J=0, M=(3, 5), N=(5, 5), d=(4, 1))

    @pytest.mark.parametrize("field, bad", [("K", {"K": 2.5}), ("M_1", {"M": (2.9, 2)}),
                                            ("d_2", {"d": (1, 1.0)})], ids=["K", "M", "d"])
    def test_non_integer_rejected(self, field, bad):
        # a float is not truncated to an integer
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            NetworkConfig(**{"K": 2, "J": 0, "M": (2, 2), "N": (2, 2), "d": (1, 1), **bad})

    @pytest.mark.parametrize("bad, message", [
        ({"K": 0, "M": (), "N": (), "d": ()}, "K must be positive, got 0"),
        ({"J": -1, "M": (2,), "d": (1,)}, "J must be nonnegative, got -1"),
        ({"M": (2,)}, r"M must list K\+J=2 values, got 1"),
        ({"d": (1, 1, 1)}, r"d must list K\+J=2 values, got 3"),
        ({"M": (2, 0), "d": (1, 0)}, "M_2 must be positive, got 0"),
        ({"d": (0, 1)}, "d_1 must be positive, got 0"),
        ({"N": (2, 0)}, "N_2 must be positive, got 0"),
        ({"N": (2, 1), "d": (1, 2)}, "d_2=2 exceeds receive antennas N_2=1"),
    ], ids=["K-zero", "J-negative", "M-length", "d-length", "M-zero", "d-zero", "N-zero",
            "d-above-N"])
    def test_out_of_range_rejected(self, bad, message):
        with pytest.raises(ConfigError, match=message):
            NetworkConfig(**{"K": 2, "J": 0, "M": (2, 2), "N": (2, 2), "d": (1, 1), **bad})

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match="N must list"):
            NetworkConfig(K=3, J=0, M=(2, 2, 2), N=(2, 2), d=(1, 1, 1))

    def test_jammer_stream_bound(self):
        with pytest.raises(ConfigError, match="d_2"):
            NetworkConfig(K=1, J=1, M=(2, 2), N=(2,), d=(1, 3))


class TestAlignment:
    def test_all_pairs_count(self):
        assert len(alignment_all(CONFIG_SYM)) == 6

    def test_single_user_empty(self):
        cfg = NetworkConfig(K=1, J=0, M=(2,), N=(2,), d=(1,))
        assert alignment_all(cfg) == ()

    def test_with_jammer(self):
        cfg = NetworkConfig(K=2, J=1, M=(2, 2, 2), N=(2, 2), d=(1, 1, 1))
        assert alignment_all(cfg) == ((1, 2), (1, 3), (2, 1), (2, 3))

    def test_canonical_sorts_and_dedupes(self):
        pairs = canonical_alignment(CONFIG_SYM, [(2, 1), (1, 3), (2, 1)])
        assert pairs == ((1, 3), (2, 1))
        assert canonical_alignment(CONFIG_SYM, [(np.int64(2), 1), (1, np.int64(3))]) == pairs

    def test_canonical_rejects_direct_link(self):
        with pytest.raises(ConfigError, match="direct"):
            canonical_alignment(CONFIG_SYM, [(1, 1)])

    def test_canonical_rejects_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            canonical_alignment(CONFIG_SYM, [(1, 4)])
        # a fractional index is not truncated into range
        with pytest.raises(ConfigError, match="alignment pair entry must be an integer"):
            canonical_alignment(CONFIG_SYM, [(1.9, 2)])

    @pytest.mark.parametrize("alignment, named", [
        ([1, 2], "1"), ([(1, 2, 3)], "(1, 2, 3)"), ([None], "None"), (5, "5")],
        ids=["int-entry", "triple", "None-entry", "not-iterable"])
    def test_malformed_alignment_rejected(self, alignment, named):
        # an entry that is not a (k, j) pair, or an alignment that is not
        # iterable, is a ConfigError naming it on every path in
        channel = generate_channel(CONFIG_SYM, 0)
        for call in (lambda: canonical_alignment(CONFIG_SYM, alignment),
                     lambda: Problem(CONFIG_SYM, alignment, channel),
                     lambda: feasibility_check(CONFIG_SYM, alignment)):
            with pytest.raises(ConfigError, match=rf"got {re.escape(named)}$"):
                call()


class TestProblem:
    def test_pairs_canonical_and_grouped_in_order(self):
        cfg = NetworkConfig(K=3, J=1, M=(2, 2, 2, 3), N=(2, 2, 2), d=(1, 1, 1, 1))
        channel = generate_channel(cfg, 0)
        problem = Problem(cfg, [(3, 1), (1, 4), (2, 1), (1, 3), (1, 3)], channel)
        assert problem.pairs == ((1, 3), (1, 4), (2, 1), (3, 1))
        assert [(k, tuple(j for j, _ in links)) for k, links in problem.by_rx.items()] == [
            (1, (3, 4)), (2, (1,)), (3, (1,))]
        assert [(j, tuple(k for k, _ in links)) for j, links in problem.by_tx.items()] == [
            (3, (1,)), (4, (1,)), (1, (2, 3))]
        # the receive links are the channel's, the transmit links their conjugate transposes
        for k, links in problem.by_rx.items():
            for j, H in links:
                np.testing.assert_array_equal(H, channel[k, j])
                np.testing.assert_array_equal(dict(problem.by_tx[j])[k], H.conj().T)

    def test_out_of_range_pair_rejected(self):
        cfg = CONFIG_SYM
        with pytest.raises(ConfigError, match="out of range"):
            Problem(cfg, [(1, 4)], generate_channel(cfg, 0))

    def test_missing_channel_entry_rejected(self):
        cfg = CONFIG_SYM
        channel = generate_channel(cfg, 0)
        del channel[(2, 2)]
        with pytest.raises(ConfigError, match=r"missing pair \(2,2\)"):
            Problem(cfg, [(1, 2)], channel)

    def test_non_finite_channel_rejected(self):
        cfg = CONFIG_SYM
        for spoil, message in (
            (lambda h: h * np.nan, r"channel \(1,2\) has non-finite entries"),
            (lambda h: h.tolist(), r"channel \(1,2\) is a list, expected a numpy array"),
            (lambda h: h.astype(object), r"channel \(1,2\) has non-numeric entries of dtype object"),
            (lambda h: h[:, :-1], r"channel \(1,2\) has shape \(6, 5\), expected \(6, 6\)"),
        ):
            channel = generate_channel(cfg, 0)
            channel[(1, 2)] = spoil(channel[(1, 2)])
            with pytest.raises(ConfigError, match=message):
                Problem(cfg, [(1, 2)], channel)
            with pytest.raises(ConfigError, match=message):
                feasibility_check(cfg, alignment_all(cfg), channel)

    def test_free_shapes(self):
        cfg = NetworkConfig(K=2, J=1, M=(4, 3, 5), N=(3, 4), d=(2, 1, 2))
        assert free_shapes(cfg) == (((1, 2), (3, 1)), ((2, 2), (2, 1), (3, 2)))


class TestTransceiverSet:
    def test_identity_without_free_rows(self):
        # d == N or d == M leaves an empty free block, so the node is the identity
        cfg = NetworkConfig(K=1, J=1, M=(2, 2), N=(2,), d=(2, 1))
        ts = TransceiverSet.identity(cfg)
        np.testing.assert_array_equal(ts.U[0], np.eye(2))
        np.testing.assert_array_equal(ts.V[0], np.eye(2))
        np.testing.assert_array_equal(ts.V[1], [[1], [0]])
        assert all(x.dtype == np.complex128 for x in ts.U + ts.V)

    def test_equality_is_identity(self):
        # Values that hold arrays compare and hash by identity; the generated
        # __eq__ raised on the arrays' elementwise comparison.
        cfg = NetworkConfig(K=2, J=0, M=(3, 3), N=(3, 3), d=(1, 1))
        channel = generate_channel(cfg, 0)
        values = [(TransceiverSet.identity(cfg), TransceiverSet.identity(cfg)),
                  (numerical_rank(channel[1, 2]), numerical_rank(channel[1, 2])),
                  (build_coefficient_matrix(cfg, alignment_all(cfg), channel),
                   build_coefficient_matrix(cfg, alignment_all(cfg), channel))]
        for a, b in values:
            assert a == a and a != b and a in [b, a] and b not in [a]
            assert len({a, b, a}) == 2


class TestScaleConfig:
    def test_double_symmetric(self):
        scaled = scale_config(CONFIG_SYM, 2)
        assert scaled.M == (12, 12, 12)
        assert scaled.N == (12, 12, 12)
        assert scaled.d == (6, 6, 6)

    def test_identity(self):
        assert scale_config(CONFIG_ASYM, 1) == CONFIG_ASYM
        assert scale_config(CONFIG_ASYM, np.int64(1)) == CONFIG_ASYM

    def test_triple_asymmetric(self):
        scaled = scale_config(CONFIG_ASYM, 3)
        assert scaled.M == (15, 15, 15)
        assert scaled.N == (18, 18, 27)
        assert scaled.d == (9, 9, 9)

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            scale_config(CONFIG_SYM, 0)
        # and a fractional factor is not truncated to 1
        with pytest.raises(ConfigError, match="scale factor must be an integer"):
            scale_config(CONFIG_SYM, 1.5)


class TestGenerateChannel:
    def test_deterministic(self):
        a = generate_channel(CONFIG_SYM, 123)
        b = generate_channel(CONFIG_SYM, 123)
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_shapes_include_direct_links(self):
        cfg = NetworkConfig(K=3, J=0, M=(2, 2, 2), N=(2, 2, 2), d=(1, 1, 1))
        channel = generate_channel(cfg, 0)
        assert len(channel) == 9
        assert all(h.shape == (2, 2) for h in channel.values())

    def test_unit_variance(self):
        # Monte-Carlo moment check on ~2e4 entries
        cfg = NetworkConfig(K=1, J=1, M=(100, 100), N=(100,), d=(1, 1))
        channel = generate_channel(cfg, 5)
        entries = np.concatenate([h.reshape(-1) for h in channel.values()])
        assert entries.size == 2 * 10**4
        power = float(np.mean(np.abs(entries) ** 2))
        assert 0.95 <= power <= 1.05

    def test_substream_keyed_by_pair(self):
        # adding a jammer must not change existing links
        base = NetworkConfig(K=2, J=0, M=(3, 4), N=(2, 5), d=(1, 1))
        extended = NetworkConfig(K=2, J=1, M=(3, 4, 6), N=(2, 5), d=(1, 1, 2))
        ch_base = generate_channel(base, 99)
        ch_ext = generate_channel(extended, 99)
        for key, h in ch_base.items():
            np.testing.assert_array_equal(h, ch_ext[key])

    def test_partial_draw_is_the_full_draw_restricted(self):
        cfg = NetworkConfig(K=3, J=1, M=(2, 3, 4, 2), N=(3, 2, 4), d=(1, 1, 2, 1))
        full = generate_channel(cfg, 7)
        for alignment in ([(1, 2)], [(3, 4), (1, 2), (2, 1), (1, 2)], alignment_all(cfg), []):
            partial = generate_channel(cfg, 7, alignment=alignment)
            assert list(partial) == list(canonical_alignment(cfg, alignment))
            for link, h in partial.items():  # bit for bit
                assert (h.dtype, h.shape, h.tobytes()) == (full[link].dtype, full[link].shape,
                                                           full[link].tobytes())
        with pytest.raises(TypeError):
            generate_channel(cfg, 7, [(1, 2)])  # keyword-only

    @pytest.mark.parametrize("entry, named", [
        ((1, 1), "(1,1)"), ((4, 2), "(4,2)"), ((1, 5), "(1,5)"), ((1,), "(1,)"), ((1.5, 2), "1.5")],
        ids=["direct", "receiver", "transmitter", "not-a-pair", "fractional"])
    def test_bad_alignment_entry_named(self, entry, named):
        cfg = NetworkConfig(K=3, J=1, M=(2, 3, 4, 2), N=(3, 2, 4), d=(1, 1, 2, 1))
        with pytest.raises(ConfigError, match=re.escape(named)):
            generate_channel(cfg, 0, alignment=[(1, 2), entry])

    def test_seed_changes_draw(self):
        a = generate_channel(CONFIG_SYM, 0)
        b = generate_channel(CONFIG_SYM, 1)
        assert not np.array_equal(a[(1, 2)], b[(1, 2)])
        np.testing.assert_array_equal(generate_channel(CONFIG_SYM, np.int64(1))[(1, 2)], b[(1, 2)])
        # a fractional seed is not truncated to another seed's draw
        with pytest.raises(ValueError, match="seed must be an integer"):
            generate_channel(CONFIG_SYM, 2.9)


class TestConfigFiles:
    def test_round_trip_alignment_all(self, tmp_path):
        path = tmp_path / "net.cfg"
        save_config(path, CONFIG_INFEASIBLE, alignment_all(CONFIG_INFEASIBLE), seed=42)
        cfg, pairs, seed = load_config(path)
        assert cfg == CONFIG_INFEASIBLE
        assert pairs == alignment_all(CONFIG_INFEASIBLE)
        assert seed == 42
        assert "alignment = all" in path.read_text()

    def test_round_trip_explicit_pairs(self, tmp_path):
        path = tmp_path / "net.cfg"
        pairs_in = ((1, 2), (3, 1))
        save_config(path, CONFIG_SYM, pairs_in)
        cfg, pairs, seed = load_config(path)
        assert (cfg, pairs, seed) == (CONFIG_SYM, pairs_in, None)

    def test_round_trip_empty_alignment(self, tmp_path):
        path = tmp_path / "net.cfg"
        save_config(path, CONFIG_SYM, ())
        _, pairs, _ = load_config(path)
        assert pairs == ()

    def test_alignment_all_alias_expands(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text("K = 2\nJ = 0\nM = 2, 2\nN = 2, 2\nd = 1, 1\nalignment = all\n")
        _, pairs, _ = load_config(path)
        assert pairs == ((1, 2), (2, 1))

    def test_wrong_n_length_rejected(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text("K = 3\nJ = 0\nM = 2, 2, 2\nN = 2, 2\nd = 1, 1, 1\nalignment = all\n")
        with pytest.raises(ConfigError, match="N must list"):
            load_config(path)

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text("K = 2\nJ = 0\nM = 2, 2\nN = 2, 2\nd = 1, 1\nalignment = all\nbogus = 3\n")
        with pytest.raises(ConfigParseError, match="line 7"):
            load_config(path)

    def test_bad_integer_names_line_and_key(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text("K = two\nJ = 0\nM = 2, 2\nN = 2, 2\nd = 1, 1\nalignment = all\n")
        with pytest.raises(ConfigParseError, match="line 1"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text("K = 2\nK = 2\nJ = 0\nM = 2, 2\nN = 2, 2\nd = 1, 1\nalignment = all\n")
        with pytest.raises(ConfigParseError, match="duplicate"):
            load_config(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text("K = 2\nJ = 0\nM = 2, 2\nN = 2, 2\nd = 1, 1\n")
        with pytest.raises(ConfigParseError, match="alignment"):
            load_config(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text(
            "# network\nK = 2\nJ = 0\n\nM = 2, 2  # antennas\nN = 2, 2\nd = 1, 1\nalignment = 1,2\n"
        )
        _, pairs, _ = load_config(path)
        assert pairs == ((1, 2),)

    @given(
        K=st.integers(1, 4),
        J=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        use_all=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random_configs(self, tmp_path_factory, K, J, seed, use_all):
        rng = np.random.default_rng(seed)
        d = tuple(int(rng.integers(1, 4)) for _ in range(K + J))
        M = tuple(int(rng.integers(dj, 10)) for dj in d)
        N = tuple(int(rng.integers(d[k], 10)) for k in range(K))
        cfg = NetworkConfig(K=K, J=J, M=M, N=N, d=d)
        full = alignment_all(cfg)
        if use_all or not full:
            pairs_in = full
        else:
            take = int(rng.integers(0, len(full) + 1))
            pairs_in = canonical_alignment(cfg, [full[i] for i in rng.permutation(len(full))[:take]])
        path = tmp_path_factory.mktemp("cfg") / "r.cfg"
        save_config(path, cfg, pairs_in, seed=seed)
        cfg2, pairs2, seed2 = load_config(path)
        assert (cfg2, pairs2, seed2) == (cfg, pairs_in, seed)
