"""Feasibility analysis of the alignment problem.

The zero-forcing constraints, written in the reduced transceiver variables,
are polynomials whose first-order coefficient vectors assemble into one
structured block matrix: one row block per aligned pair ``(k, j)`` (in
canonical order, ``d_k d_j`` rows each) and one column block per node's free
variables (reduced decoders first, then reduced precoders, column-major
within a block; derivatives are taken with respect to the conjugated decoder
blocks, which is what makes the residuals jointly polynomial).  The problem
is solvable for almost every channel iff this matrix has full row rank, so a
single random channel realization decides feasibility for the whole
configuration/alignment-set class.

The coefficient matrix is the Jacobian of the residuals at the all-zero
point, so one assembly serves both.

Besides the generic rank test this module implements the cheap necessary
counting condition (properness) and two closed-form special cases (symmetric
and stream-divisible configurations) that bypass the rank computation when
they apply.  Properness quantifies over every subset of the alignment set and
is decided by one max-flow/min-cut computation, whose minimum cut names a
violating subset.  It is the only subset condition: on the classes where the
closed forms apply they are equivalent to it, so they name the class that
makes properness sufficient rather than decide anything new.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .aligner import ReducedTransceivers, zero_reduced
from .linalg import numerical_rank
from .network import (
    Channel,
    NetworkConfig,
    Pair,
    Problem,
    _check_seed,
    canonical_alignment,
    check_channel,
    free_shapes,
    generate_channel,
)

__all__ = [
    "CoefficientMatrix",
    "FeasibilityReport",
    "build_coefficient_matrix",
    "check_proper",
    "check_symmetric_formula",
    "check_divisible_formula",
    "feasibility_check",
    "build_jacobian",
]

@dataclass(frozen=True)
class CoefficientMatrix:
    """First-order coefficient matrix with its block layout.

    ``row_index[(k, j)]`` is the offset of the ``d_k d_j`` rows of pair
    ``(k, j)``; ``col_index[("U", k)]`` / ``col_index[("V", j)]`` are the
    offsets of the ``d_k (N_k - d_k)`` / ``d_j (M_j - d_j)`` wide variable
    blocks.  Column blocks exist for every node, aligned or not.
    """

    matrix: np.ndarray
    row_index: dict[Pair, int]
    col_index: dict[tuple[str, int], int]

    @property
    def n_constraints(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_variables(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class FeasibilityReport:
    """Feasibility verdict with the evidence that produced it.

    ``method`` names the deciding path: ``hall_rank`` (generic rank test),
    ``proper_fail`` (counting condition violated), ``symmetric_formula`` or
    ``divisible_formula`` (closed-form special case).  ``rank`` is -1 and
    ``tolerance`` 0.0 when the rank test was not run.
    """

    feasible: bool
    n_constraints: int
    n_variables: int
    rank: int
    method: str
    tolerance: float

    def to_line(self) -> str:
        """Single-line record: ``feasible,method,C,V,rank,tolerance``."""
        return (
            f"{'true' if self.feasible else 'false'},{self.method},"
            f"{self.n_constraints},{self.n_variables},{self.rank},{self.tolerance!r}"
        )


def _layout(cfg: NetworkConfig, pairs) -> tuple[dict[Pair, int], dict[tuple[str, int], int], int, int]:
    col_index: dict[tuple[str, int], int] = {}
    off = 0
    for side, shapes in zip("UV", free_shapes(cfg)):
        for node, shape in enumerate(shapes, start=1):
            col_index[(side, node)] = off
            off += math.prod(shape)
    n_vars = off
    row_index: dict[Pair, int] = {}
    off = 0
    for k, j in pairs:
        row_index[(k, j)] = off
        off += cfg.d[k - 1] * cfg.d[j - 1]
    return row_index, col_index, off, n_vars


def _jacobian(problem: Problem, point: ReducedTransceivers) -> CoefficientMatrix:
    cfg = problem.cfg
    row_index, col_index, n_rows, n_vars = _layout(cfg, problem.pairs)
    mat = np.zeros((n_rows, n_vars), dtype=np.complex128)
    for k, j in problem.pairs:
        dk, dj = cfg.d[k - 1], cfg.d[j - 1]
        H = problem.channel[(k, j)]
        A = H[dk:, :dj] + H[dk:, dj:] @ point.V[j - 1]
        C = H[:dk, dj:] + point.U[k - 1].conj().T @ H[dk:, dj:]
        bu = np.kron(np.eye(dk), A.T)
        bv = np.vstack([np.kron(np.eye(dj), C[p : p + 1, :]) for p in range(dk)])
        r, cu, cv = row_index[(k, j)], col_index[("U", k)], col_index[("V", j)]
        mat[r : r + bu.shape[0], cu : cu + bu.shape[1]] = bu
        mat[r : r + bv.shape[0], cv : cv + bv.shape[1]] = bv
    return CoefficientMatrix(mat, row_index, col_index)


def build_coefficient_matrix(cfg: NetworkConfig, alignment, channel: Channel) -> CoefficientMatrix:
    """Assemble the full first-order coefficient matrix for an alignment set.

    This is the Jacobian of the residuals at the all-zero point: the block of
    pair ``(k, j)`` w.r.t. receiver ``k`` is block diagonal with ``d_k``
    copies of ``H_kj[d_k:, :d_j].T``, and its row block ``p`` w.r.t.
    transmitter ``j`` is block diagonal with ``d_j`` copies of the row
    ``H_kj[p, d_j:]``.
    """
    return _jacobian(Problem(cfg, alignment, channel), zero_reduced(cfg))


def build_jacobian(cfg: NetworkConfig, alignment, channel: Channel,
                   point: ReducedTransceivers) -> np.ndarray:
    """Jacobian of the residuals at ``point``, w.r.t. (conjugated decoder, precoder) variables.

    Same block layout as :func:`build_coefficient_matrix`; the channel
    entries inside each block gain the first-order correction induced by the
    other side's current value.  At the all-zero point this equals the
    coefficient matrix exactly.
    """
    return _jacobian(Problem(cfg, alignment, channel), point).matrix


def check_proper(cfg: NetworkConfig, alignment):
    """Necessary counting condition: free variables must cover constraints on every subset.

    For each nonempty subset of the alignment set, the free-variable count of
    the involved nodes must be at least the constraint count,
    ``sum d_j (M_j - d_j) + sum d_k (N_k - d_k) >= sum d_k d_j``.
    This is the one subset condition of the package; the closed forms below
    restate it on their classes.

    All subsets are decided by one max-flow, in polynomial time: source ->
    pair (capacity ``d_k d_j``) -> its receiver and transmitter node
    (uncapped) -> sink (capacity ``d_k (N_k - d_k)`` / ``d_j (M_j - d_j)``).
    The condition holds iff the flow saturates the source; otherwise the
    pairs left reachable from the source by the last search form the source
    side of a minimum cut, and that subset violates the condition.

    Returns
    -------
    (bool, tuple of pairs or None)
        Verdict plus one violating subset (a minimum-cut side) when improper.
    """
    pairs = canonical_alignment(cfg, alignment)
    rx, tx = free_shapes(cfg)
    rx_cap = {k: math.prod(rx[k - 1]) for k, _ in pairs}
    tx_cap = {j: math.prod(tx[j - 1]) for _, j in pairs}
    demand = [cfg.d[k - 1] * cfg.d[j - 1] for k, j in pairs]
    n = len(pairs)
    rx_node = {k: n + 1 + i for i, k in enumerate(rx_cap)}
    tx_node = {j: n + 1 + len(rx_cap) + i for i, j in enumerate(tx_cap)}
    sink = n + 1 + len(rx_cap) + len(tx_cap)
    residual: list[dict[int, int]] = [{} for _ in range(sink + 1)]

    def edge(a, b, cap):
        residual[a][b] = cap
        residual[b].setdefault(a, 0)

    total = sum(demand)
    uncapped = total + 1
    for i, (k, j) in enumerate(pairs, start=1):
        edge(0, i, demand[i - 1])
        edge(i, rx_node[k], uncapped)
        edge(i, tx_node[j], uncapped)
    for k, node in rx_node.items():
        edge(node, sink, rx_cap[k])
    for j, node in tx_node.items():
        edge(node, sink, tx_cap[j])

    flow = 0
    while True:  # Edmonds-Karp: augment along shortest residual paths
        parent = {0: 0}
        queue = deque([0])
        while queue and sink not in parent:
            a = queue.popleft()
            for b, cap in residual[a].items():
                if cap > 0 and b not in parent:
                    parent[b] = a
                    queue.append(b)
        if sink not in parent:
            break
        path = []
        b = sink
        while b != 0:
            path.append((parent[b], b))
            b = parent[b]
        push = min(residual[a][b] for a, b in path)
        for a, b in path:
            residual[a][b] -= push
            residual[b][a] += push
        flow += push
    if flow == total:
        return True, None
    return False, tuple(p for i, p in enumerate(pairs, start=1) if i in parent)


def check_symmetric_formula(cfg: NetworkConfig, alignment):
    """Closed-form verdict for symmetric networks with a regular alignment set.

    Applicable when (1) the K legitimate pairs share ``d, M, N`` with
    ``min(M, N) >= 2d``, (2) the alignment set restricted to legitimate
    transmitters is L-regular, and (3) every jammer serves at most
    ``floor((M_j - d_j) / d)`` receivers.  Then the problem is feasible iff
    ``M + N - (L + 2) d >= 0``.

    Returns
    -------
    (applicable, feasible or None)
    """
    pairs = canonical_alignment(cfg, alignment)
    d, M, N = cfg.d[0], cfg.M[0], cfg.N[0]
    for k in range(1, cfg.K + 1):
        if cfg.d[k - 1] != d or cfg.M[k - 1] != M or cfg.N[k - 1] != N:
            return False, None
    if min(M, N) < 2 * d:
        return False, None

    rx_deg = {k: 0 for k in range(1, cfg.K + 1)}
    tx_deg = {j: 0 for j in range(1, cfg.K + 1)}
    jam_load = {j: 0 for j in range(cfg.K + 1, cfg.n_tx + 1)}
    for k, j in pairs:
        if j <= cfg.K:
            rx_deg[k] += 1
            tx_deg[j] += 1
        else:
            jam_load[j] += 1
    degrees = set(rx_deg.values()) | set(tx_deg.values())
    if len(degrees) != 1:
        return False, None
    L = degrees.pop()
    for j, load in jam_load.items():
        if load > (cfg.M[j - 1] - cfg.d[j - 1]) // d:
            return False, None
    return True, M + N - (L + 2) * d >= 0


def _divisible(cfg: NetworkConfig) -> bool:
    d = cfg.d[0]
    return all(x == d for x in cfg.d) and (
        all(n % d == 0 for n in cfg.N) or all(m % d == 0 for m in cfg.M))


def check_divisible_formula(cfg: NetworkConfig, alignment):
    """Closed-form verdict when all stream counts are equal and divide one antenna side.

    Applicable when ``d_k = d`` for every node and either ``d | N_k`` for all
    receivers or ``d | M_j`` for all transmitters.  Then the problem is
    feasible iff, for every subset of the alignment set,
    ``sum (M_j - d) + sum (N_k - d) >= d * |subset|`` over the involved nodes.
    With one ``d`` everywhere that is the properness condition divided by
    ``d``, so the verdict is :func:`check_proper`'s: on this class properness
    is sufficient as well as necessary.

    Returns
    -------
    (applicable, feasible or None)
    """
    pairs = canonical_alignment(cfg, alignment)
    if not _divisible(cfg):
        return False, None
    return True, check_proper(cfg, pairs)[0]


def feasibility_check(cfg: NetworkConfig, alignment, channel: Channel | None = None,
                      seed: int = 0) -> FeasibilityReport:
    """Decide feasibility for a configuration and alignment set.

    Properness is checked first: it is necessary everywhere, and on the
    symmetric and divisible classes it is also sufficient (their closed
    forms restate it), so there it decides and the report names the class.
    The generic rank test of the coefficient matrix decides the rest.
    Because the verdict depends only on the configuration and alignment set
    (not the channel draw), a single random channel is generated from
    ``seed`` when none is supplied.  The seed and a supplied channel are
    validated even when a fast path decides.
    """
    seed = _check_seed(seed)
    pairs = canonical_alignment(cfg, alignment)
    if channel is not None:
        check_channel(cfg, channel)

    proper, _ = check_proper(cfg, pairs)
    if not proper:
        method = "proper_fail"
    elif check_symmetric_formula(cfg, pairs)[0]:
        method = "symmetric_formula"
    elif _divisible(cfg):
        method = "divisible_formula"
    else:
        if channel is None:
            channel = generate_channel(cfg, seed)
        hall = build_coefficient_matrix(cfg, pairs, channel)
        rr = numerical_rank(hall.matrix)
        return FeasibilityReport(rr.rank == hall.n_constraints, hall.n_constraints,
                                 hall.n_variables, rr.rank, "hall_rank", rr.tolerance_used)
    _, _, n_constraints, n_variables = _layout(cfg, pairs)
    return FeasibilityReport(proper, n_constraints, n_variables, -1, method, 0.0)

