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
they apply.  Properness and the subset condition of the divisible formula
quantify over every subset of the alignment set; each is decided by one
max-flow/min-cut computation, whose minimum cut names a violating subset.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .aligner import ReducedTransceivers, hv_blocks, random_reduced, uh_blocks, zero_reduced
from .linalg import DEFAULT_REL_TOL, numerical_rank
from .network import (
    Channel,
    NetworkConfig,
    Pair,
    _check_seed,
    canonical_alignment,
    check_channel,
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
    "independence_probe",
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
    for k in range(1, cfg.K + 1):
        col_index[("U", k)] = off
        off += cfg.d[k - 1] * (cfg.N[k - 1] - cfg.d[k - 1])
    for j in range(1, cfg.n_tx + 1):
        col_index[("V", j)] = off
        off += cfg.d[j - 1] * (cfg.M[j - 1] - cfg.d[j - 1])
    n_vars = off
    row_index: dict[Pair, int] = {}
    off = 0
    for k, j in pairs:
        row_index[(k, j)] = off
        off += cfg.d[k - 1] * cfg.d[j - 1]
    return row_index, col_index, off, n_vars


def _assemble(cfg: NetworkConfig, pairs, u_block, v_block) -> CoefficientMatrix:
    row_index, col_index, n_rows, n_vars = _layout(cfg, pairs)
    mat = np.zeros((n_rows, n_vars), dtype=np.complex128)
    for k, j in pairs:
        r = row_index[(k, j)]
        bu = u_block(k, j)
        bv = v_block(k, j)
        cu = col_index[("U", k)]
        cv = col_index[("V", j)]
        mat[r : r + bu.shape[0], cu : cu + bu.shape[1]] = bu
        mat[r : r + bv.shape[0], cv : cv + bv.shape[1]] = bv
    return CoefficientMatrix(mat, row_index, col_index)


def _jacobian(cfg: NetworkConfig, pairs, channel: Channel,
              point: ReducedTransceivers) -> CoefficientMatrix:
    def u_block(k, j):
        dk, dj = cfg.d[k - 1], cfg.d[j - 1]
        _, A = hv_blocks(channel[(k, j)], dk, dj, point.V[j - 1])
        return np.kron(np.eye(dk), A.T)

    def v_block(k, j):
        dk, dj = cfg.d[k - 1], cfg.d[j - 1]
        _, C = uh_blocks(channel[(k, j)], dk, dj, point.U[k - 1])
        eye = np.eye(dj)
        return np.vstack([np.kron(eye, C[p : p + 1, :]) for p in range(dk)])

    return _assemble(cfg, pairs, u_block, v_block)


def build_coefficient_matrix(cfg: NetworkConfig, alignment, channel: Channel) -> CoefficientMatrix:
    """Assemble the full first-order coefficient matrix for an alignment set.

    This is the Jacobian of the residuals at the all-zero point: the block of
    pair ``(k, j)`` w.r.t. receiver ``k`` is block diagonal with ``d_k``
    copies of ``H_kj[d_k:, :d_j].T``, and its row block ``p`` w.r.t.
    transmitter ``j`` is block diagonal with ``d_j`` copies of the row
    ``H_kj[p, d_j:]``.
    """
    pairs = canonical_alignment(cfg, alignment)
    check_channel(cfg, channel)
    return _jacobian(cfg, pairs, channel, zero_reduced(cfg))


def build_jacobian(cfg: NetworkConfig, alignment, channel: Channel,
                   point: ReducedTransceivers) -> np.ndarray:
    """Jacobian of the residuals at ``point``, w.r.t. (conjugated decoder, precoder) variables.

    Same block layout as :func:`build_coefficient_matrix`; the channel
    entries inside each block gain the first-order correction induced by the
    other side's current value.  At the all-zero point this equals the
    coefficient matrix exactly.
    """
    pairs = canonical_alignment(cfg, alignment)
    check_channel(cfg, channel)
    return _jacobian(cfg, pairs, channel, point).matrix


def _covered(pairs, demand: list[int], rx_cap: dict[int, int], tx_cap: dict[int, int]):
    """Decide ``sum demand(S) <= sum cap(nodes touched by S)`` for every subset S of ``pairs``.

    One max-flow: source -> pair (capacity ``demand``) -> its receiver and
    transmitter node (uncapped) -> sink (capacity ``rx_cap`` / ``tx_cap``).
    The condition holds iff the flow saturates the source; otherwise the
    pairs left reachable from the source by the last search form the source
    side of a minimum cut, and that subset violates the condition.

    Returns (ok, violating subset or None).
    """
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


def check_proper(cfg: NetworkConfig, alignment):
    """Necessary counting condition: free variables must cover constraints on every subset.

    For each nonempty subset of the alignment set, the free-variable count of
    the involved nodes must be at least the constraint count,
    ``sum d_j (M_j - d_j) + sum d_k (N_k - d_k) >= sum d_k d_j``.
    All subsets are decided by one max-flow, in polynomial time.

    Returns
    -------
    (bool, tuple of pairs or None)
        Verdict plus one violating subset (a minimum-cut side) when improper.
    """
    pairs = canonical_alignment(cfg, alignment)
    rx_val = {k: cfg.d[k - 1] * (cfg.N[k - 1] - cfg.d[k - 1]) for k, _ in pairs}
    tx_val = {j: cfg.d[j - 1] * (cfg.M[j - 1] - cfg.d[j - 1]) for _, j in pairs}
    demand = [cfg.d[k - 1] * cfg.d[j - 1] for k, j in pairs]
    return _covered(pairs, demand, rx_val, tx_val)


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


def check_divisible_formula(cfg: NetworkConfig, alignment):
    """Closed-form verdict when all stream counts are equal and divide one antenna side.

    Applicable when ``d_k = d`` for every node and either ``d | N_k`` for all
    receivers or ``d | M_j`` for all transmitters.  Then the problem is
    feasible iff, for every subset of the alignment set,
    ``sum (M_j - d) + sum (N_k - d) >= d * |subset|`` over the involved nodes,
    which is decided by the same max-flow as :func:`check_proper`.

    Returns
    -------
    (applicable, feasible or None)
    """
    pairs = canonical_alignment(cfg, alignment)
    d = cfg.d[0]
    if any(x != d for x in cfg.d):
        return False, None
    div_n = all(n % d == 0 for n in cfg.N)
    div_m = all(m % d == 0 for m in cfg.M)
    if not (div_n or div_m):
        return False, None
    rx_val = {k: cfg.N[k - 1] - d for k, _ in pairs}
    tx_val = {j: cfg.M[j - 1] - d for _, j in pairs}
    ok, _ = _covered(pairs, [d] * len(pairs), rx_val, tx_val)
    return True, ok


def _rank_report(cfg: NetworkConfig, pairs, channel: Channel) -> FeasibilityReport:
    hall = build_coefficient_matrix(cfg, pairs, channel)
    rr = numerical_rank(hall.matrix, DEFAULT_REL_TOL)
    return FeasibilityReport(
        feasible=rr.rank == hall.n_constraints,
        n_constraints=hall.n_constraints,
        n_variables=hall.n_variables,
        rank=rr.rank,
        method="hall_rank",
        tolerance=rr.tolerance_used,
    )


def feasibility_check(cfg: NetworkConfig, alignment, channel: Channel | None = None,
                      seed: int = 0) -> FeasibilityReport:
    """Decide feasibility for a configuration and alignment set.

    Fast paths run in order - properness, symmetric formula, divisible
    formula - and the generic rank test of the coefficient matrix decides
    the rest.  Because the verdict depends only on the configuration and
    alignment set (not the channel draw), a single random channel is
    generated from ``seed`` when none is supplied; the seed is validated
    even when a fast path decides.
    """
    seed = _check_seed(seed)
    pairs = canonical_alignment(cfg, alignment)
    _, _, n_constraints, n_variables = _layout(cfg, pairs)

    proper, _ = check_proper(cfg, pairs)
    if not proper:
        return FeasibilityReport(False, n_constraints, n_variables, -1, "proper_fail", 0.0)

    applicable, feasible = check_symmetric_formula(cfg, pairs)
    if applicable:
        return FeasibilityReport(feasible, n_constraints, n_variables, -1, "symmetric_formula", 0.0)

    applicable, feasible = check_divisible_formula(cfg, pairs)
    if applicable:
        return FeasibilityReport(feasible, n_constraints, n_variables, -1, "divisible_formula", 0.0)

    if channel is None:
        channel = generate_channel(cfg, seed)
    return _rank_report(cfg, pairs, channel)


def independence_probe(cfg: NetworkConfig, alignment, channel: Channel,
                       trials: int = 3, seed: int = 0) -> bool:
    """Randomized constraint-independence test via the Jacobian rank.

    Full row rank is an open condition, so finding a single random point
    where the Jacobian has full row rank certifies independence; ``trials``
    points are sampled before giving up.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    pairs = canonical_alignment(cfg, alignment)
    check_channel(cfg, channel)
    _, _, n_constraints, _ = _layout(cfg, pairs)
    if n_constraints == 0:
        return True
    for t in range(trials):
        point = random_reduced(cfg, np.random.SeedSequence([int(seed), t]))
        jac = build_jacobian(cfg, pairs, channel, point)
        if numerical_rank(jac).rank == n_constraints:
            return True
    return False
