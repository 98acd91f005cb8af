import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_SYM, gauss_rank
from gia.feasibility import build_coefficient_matrix
from gia.linalg import (
    DEFAULT_REL_TOL,
    column_complement,
    frobenius_norm_sq,
    numerical_rank,
    pseudo_inverse,
)
from gia.network import alignment_all, generate_channel


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def empty_matrices():
    """Every shape ``(r, 0)`` and ``(0, c)`` with ``r, c <= 11``, as a real array
    and as the transposed view of a complex one."""
    shapes = [(r, 0) for r in range(12)] + [(0, c) for c in range(1, 12)]
    for shape in shapes:
        yield np.zeros(shape)
        yield np.zeros(shape[::-1], dtype=np.complex128).T


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 5))).rank == 0

    def test_proportional_rows(self):
        assert numerical_rank([[1, 2], [2, 4]]).rank == 1

    def test_config1_coefficient_matrix_vs_row_reduction(self):
        # independent oracle: Gaussian elimination with pivot threshold
        cfg = CONFIG_SYM
        channel = generate_channel(cfg, 7)
        hall = build_coefficient_matrix(cfg, alignment_all(cfg), channel)
        assert hall.matrix.shape == (54, 54)
        oracle = gauss_rank(hall.matrix)
        assert oracle == 54
        assert numerical_rank(hall.matrix).rank == oracle

    def test_result_invariants(self):
        rng = np.random.default_rng(3)
        m = crandn(rng, 6, 4)
        res = numerical_rank(m)
        assert res.rank <= min(m.shape)
        sv = res.singular_values
        assert np.all(np.diff(sv) <= 0)
        assert np.all(sv[: res.rank] > res.tolerance_used)
        assert res.tolerance_used == pytest.approx(DEFAULT_REL_TOL * sv[0] * 6)

    def test_zero_dimensional(self):
        for a in empty_matrices():
            res = numerical_rank(a)
            assert res.rank == 0
            assert res.singular_values.dtype == np.float64
            assert res.singular_values.shape == (0,)
            assert res.tolerance_used == 0.0

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_conjugate_transpose_invariant(self, m, n, seed):
        a = crandn(np.random.default_rng(seed), m, n)
        assert numerical_rank(a).rank == numerical_rank(a.conj().T).rank

    @given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_gaussian_full_rank(self, m, n, seed):
        a = crandn(np.random.default_rng(seed), m, n)
        assert numerical_rank(a).rank == min(m, n)


class TestColumnComplement:
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rank_and_basis(self, m, n, r, seed):
        # a product of Gaussian factors has rank min(m, n, r)
        rng = np.random.default_rng(seed)
        a = crandn(rng, m, r) @ crandn(rng, r, n)
        rank, basis = column_complement(a)
        assert rank == numerical_rank(a).rank == min(m, n, r)
        assert basis.shape == (m, m - rank)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(m - rank), atol=1e-12)
        assert np.linalg.norm(basis.conj().T @ a) <= 1e-12 * max(np.linalg.norm(a), 1.0)

    def test_proportional_rows(self):
        rank, basis = column_complement([[1, 2], [2, 4]])
        assert rank == 1
        np.testing.assert_allclose(np.abs(basis[:, 0]), np.array([2, 1]) / np.sqrt(5), atol=1e-12)

    def test_zero_dimensional(self):
        # the complement is everything: the exact identity, (0, 0) without rows
        for a in empty_matrices():
            rank, basis = column_complement(a)
            assert rank == 0
            np.testing.assert_array_equal(
                basis, np.eye(a.shape[0], dtype=np.complex128), strict=True)


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal_with_zero(self):
        x = pseudo_inverse(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(x, np.diag([0.5, 0.0]), atol=1e-14)

    def test_full_column_rank_left_inverse(self):
        a = crandn(np.random.default_rng(11), 5, 3)
        x = pseudo_inverse(a)
        np.testing.assert_allclose(x @ a, np.eye(3), atol=1e-10)

    def test_moore_penrose_identities(self):
        a = crandn(np.random.default_rng(5), 6, 4)
        x = pseudo_inverse(a)
        np.testing.assert_allclose(a @ x @ a, a, atol=1e-12)
        np.testing.assert_allclose(x @ a @ x, x, atol=1e-12)
        np.testing.assert_allclose((a @ x).conj().T, a @ x, atol=1e-12)
        np.testing.assert_allclose((x @ a).conj().T, x @ a, atol=1e-12)

    def test_rank_deficient(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        x = pseudo_inverse(a)
        np.testing.assert_allclose(a @ x @ a, a, atol=1e-12)

    def test_zero_dimensional(self):
        for a in empty_matrices():
            np.testing.assert_array_equal(
                pseudo_inverse(a), np.zeros(a.shape[::-1], dtype=np.complex128), strict=True)

    @given(st.integers(1, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_involution_on_full_rank(self, n, seed):
        a = crandn(np.random.default_rng(seed), n, n)
        back = pseudo_inverse(pseudo_inverse(a))
        assert np.linalg.norm(back - a) <= 1e-8 * np.linalg.norm(a)


class TestFrobeniusNormSq:
    def test_zero(self):
        assert frobenius_norm_sq(np.zeros((2, 3))) == 0.0

    def test_three_four(self):
        assert frobenius_norm_sq([[3.0, 4.0]]) == pytest.approx(25.0)

    def test_trace_identity(self):
        m = crandn(np.random.default_rng(2), 4, 4)
        trace = float(np.trace(m.conj().T @ m).real)
        assert frobenius_norm_sq(m) == pytest.approx(trace, abs=1e-12)

    def test_empty(self):
        assert frobenius_norm_sq(np.zeros((0, 5))) == 0.0
