"""Dense complex linear-algebra kernel, internal to the package.

The kernel takes finite 2-D arrays that the package built and checks
nothing.  Finiteness is checked once, where input enters the package: by
:func:`~gia.network.check_channel` (through :class:`~gia.network.Problem` and
:func:`~gia.feasibility.feasibility_check`) and by
:func:`~gia.network.check_transceivers`.

Numerical rank, the complement of a column space and the Moore-Penrose
pseudo-inverse use one fixed, scale-invariant singular-value cutoff so that
feasibility verdicts are reproducible across the package: a singular value
counts toward the rank iff it exceeds
``DEFAULT_REL_TOL * sigma_max * max(rows, cols)``.  No caller can override
it; every rank decision goes through here.

Empty matrices, as from a node without free entries (``d_k == N_k`` or
``d_j == M_j``), take the general path: numpy's SVD gives them empty factors
and, with no columns, the identity ``U``; an empty spectrum's cutoff is 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_REL_TOL",
    "RankResult",
    "numerical_rank",
    "column_complement",
    "pseudo_inverse",
    "frobenius_norm_sq",
]

#: Relative tolerance of the shared singular-value cutoff.
DEFAULT_REL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class RankResult:
    """Numerical rank of a matrix together with the evidence behind it.

    Attributes
    ----------
    rank : int
        Number of singular values strictly above ``tolerance_used``.
    singular_values : np.ndarray
        All singular values, nonincreasing.
    tolerance_used : float
        The absolute cutoff that was applied.
    """

    rank: int
    singular_values: np.ndarray
    tolerance_used: float


def _cutoff(s: np.ndarray, shape: tuple[int, int]) -> float:
    """The shared cutoff for the spectrum ``s`` of a ``shape`` matrix; 0.0 if ``s`` is empty."""
    return DEFAULT_REL_TOL * float(s[0]) * max(shape) if s.size else 0.0


def numerical_rank(m) -> RankResult:
    """Numerical rank of the finite 2-D matrix ``m`` via SVD with the shared
    scale-invariant cutoff ``DEFAULT_REL_TOL * sigma_max * max(rows, cols)``."""
    a = np.asarray(m, dtype=np.complex128)
    s = np.linalg.svd(a, compute_uv=False)
    tol = _cutoff(s, a.shape)
    return RankResult(int(np.count_nonzero(s > tol)), s, tol)


def column_complement(m) -> tuple[int, np.ndarray]:
    """Numerical rank of the finite 2-D matrix ``m`` and an orthonormal basis
    of the orthogonal complement of its column space.

    The rank is decided by the shared cutoff, as in :func:`numerical_rank`;
    the basis is the ``rows x (rows - rank)`` block of left singular vectors
    past it, so ``basis^H m`` vanishes to within the cutoff.  An empty matrix
    has rank 0, and the SVD gives it the identity as its basis.
    """
    a = np.asarray(m, dtype=np.complex128)
    u, s, _ = np.linalg.svd(a)
    rank = int(np.count_nonzero(s > _cutoff(s, a.shape)))
    return rank, u[:, rank:]


def pseudo_inverse(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of the finite 2-D matrix ``m``.

    Singular values at or below the shared rank cutoff are inverted as zero,
    so the result is consistent with :func:`numerical_rank` on the same
    matrix.

    Returns
    -------
    np.ndarray
        ``cols x rows`` complex matrix satisfying the four Moore-Penrose
        identities to within roundoff.
    """
    a = np.asarray(m, dtype=np.complex128)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    tol = _cutoff(s, a.shape)
    inv = np.zeros_like(s)
    keep = s > tol
    inv[keep] = 1.0 / s[keep]
    return (vh.conj().T * inv) @ u.conj().T


def frobenius_norm_sq(m) -> float:
    """Squared Frobenius norm: sum of squared entry magnitudes."""
    a = np.asarray(m, dtype=np.complex128)
    return float(np.sum(a.real * a.real + a.imag * a.imag))
