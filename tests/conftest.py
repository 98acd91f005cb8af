"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: the rank
oracle is Gaussian elimination (not SVD) and the Jacobian oracle is central
finite differences over the residual map.
"""

import numpy as np
import pytest

from gia.aligner import residual_vector
from gia.network import NetworkConfig, TransceiverSet, _complex_normal, free_shapes

# The three reference networks: feasible symmetric, feasible asymmetric, infeasible.
CONFIG_SYM = NetworkConfig(K=3, J=0, M=(6, 6, 6), N=(6, 6, 6), d=(3, 3, 3))
CONFIG_ASYM = NetworkConfig(K=3, J=0, M=(5, 5, 5), N=(6, 6, 9), d=(3, 3, 3))
CONFIG_INFEASIBLE = NetworkConfig(K=3, J=0, M=(5, 5, 5), N=(5, 7, 9), d=(3, 3, 3))


@pytest.fixture
def config_sym():
    return CONFIG_SYM


@pytest.fixture
def config_infeasible():
    return CONFIG_INFEASIBLE


def gauss_rank(matrix, rel_tol=1e-10):
    """Rank by row reduction with a pivot-magnitude threshold (no SVD)."""
    a = np.array(matrix, dtype=np.complex128)
    if a.size == 0:
        return 0
    rows, cols = a.shape
    thresh = rel_tol * max(rows, cols) * np.abs(a).max()
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = r + int(np.argmax(np.abs(a[r:, c])))
        if np.abs(a[piv, c]) <= thresh:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] / a[r, c]
        mult = a[r + 1 :, c].copy()
        a[r + 1 :] -= np.outer(mult, a[r])
        r += 1
    return r


def random_point(cfg, seed):
    """Transceivers ``[I; X]`` whose free blocks ``X`` are i.i.d. standard
    complex Gaussian, drawn from ``default_rng(seed)``, decoders before precoders."""
    rng = np.random.default_rng(seed)
    free = [[_complex_normal(rng, s) for s in shapes] for shapes in free_shapes(cfg)]
    U, V = ([np.vstack([np.eye(x.shape[1], dtype=np.complex128), x]) for x in blocks]
            for blocks in free)
    return TransceiverSet(tuple(U), tuple(V))


def perturbed(ts, side, node, row, col, delta):
    """Copy of ``ts`` with entry ``(row, col)`` of one free block ``X[d:]``
    shifted by ``delta``."""
    U = [u.copy() for u in ts.U]
    V = [v.copy() for v in ts.V]
    block = (U if side == "U" else V)[node - 1]
    block[block.shape[1] + row, col] += delta
    return TransceiverSet(tuple(U), tuple(V))


def variable_order(cfg):
    """Canonical variable order: decoder blocks then precoder blocks, column-major."""
    out = []
    for k in range(1, cfg.K + 1):
        for p in range(cfg.d[k - 1]):
            for s in range(cfg.N[k - 1] - cfg.d[k - 1]):
                out.append(("U", k, s, p))
    for j in range(1, cfg.n_tx + 1):
        for q in range(cfg.d[j - 1]):
            for s in range(cfg.M[j - 1] - cfg.d[j - 1]):
                out.append(("V", j, s, q))
    return out


def fd_jacobian(problem, ts, step=1e-6):
    """Jacobian of the residual vector at ``ts`` by central differences in its free blocks.

    The variables are the bottom entries ``X[d + s, q]`` of each transceiver
    ``X``, the free blocks viewed in place.  A real step in a
    conjugated-decoder variable shifts the decoder entry by the same real
    amount, so plain entry perturbations probe the canonical variables
    directly.  The residuals are quadratic, so central differences are exact
    up to roundoff.
    """
    columns = []
    for side, node, row, col in variable_order(problem.cfg):
        plus = residual_vector(problem, perturbed(ts, side, node, row, col, step))
        minus = residual_vector(problem, perturbed(ts, side, node, row, col, -step))
        columns.append((plus - minus) / (2.0 * step))
    n_rows = residual_vector(problem, ts).shape[0]
    if not columns:
        return np.zeros((n_rows, 0), dtype=np.complex128)
    return np.column_stack(columns)
