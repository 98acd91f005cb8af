"""Feasibility analysis of the alignment problem.

The zero-forcing constraints, written in the normalized transceivers
``U_k = [I; U~_k]`` and ``V_j = [I; V~_j]``, are polynomials in the free
blocks, the views ``U_k[d_k:]`` and ``V_j[d_j:]`` of a
:class:`~gia.network.TransceiverSet`.  Their first-order coefficient vectors
assemble into one structured block matrix: one row block per aligned pair
``(k, j)`` (in canonical order, ``d_k d_j`` rows each) and one column block
per node's free variables (free decoder blocks first, then free precoder
blocks, column-major within a block; derivatives are taken with respect to
the conjugated decoder blocks, which is what makes the residuals jointly
polynomial).  The problem
is solvable for almost every channel iff this matrix has full row rank, so a
single random channel realization decides feasibility for the whole
configuration/alignment-set class.

The coefficient matrix is the Jacobian of the residuals at
:meth:`TransceiverSet.identity <gia.network.TransceiverSet.identity>`, where
every free block is zero, so one assembly serves both.

The rank test never forms that matrix.  Its decoder columns are block
diagonal per receiver, ``I_{d_k} (x) A_k^T`` with
``A_k = [H_kj[d_k:, :d_j]]_j`` up to row order, so each receiver's decoder
block is eliminated in closed form: it contributes ``d_k rank(A_k)`` to the
rank, and projecting its rows off the range of ``A_k^T`` leaves a reduced
matrix ``R`` with far fewer rows, one column per free precoder variable of
a linked transmitter (the reference keeps a block for every node).  The
coefficient matrix has rank ``sum_k d_k rank(A_k) + rank R``, and it has
full row rank iff ``R`` does; only ``R`` goes to an SVD.  By uplink-downlink
reciprocity the precoder blocks can be eliminated instead: that is the
decoder elimination of the reciprocal network (``M <-> N``, pair
``(k, j) -> (j, k)``, links ``H_kj^H``), whose coefficient matrix is the
original's complex conjugate up to row and column order, and it leaves a
reduced decoder matrix.  For a generic channel
``rank A_k = min(N_k - d_k, sum_j d_j)``, so both shapes are known before
any SVD, and the rank test eliminates the side whose ``R`` is cheaper to
decompose, by ``min(rows, cols)^2 max(rows, cols)``; on a tie it eliminates
the decoders.  A node ``n`` whose ``rank A_n`` is its partners' stream count
``sum_o d_o`` for a generic channel zero-forces all its aligned pairs by
itself: it adds no row to ``R``, so it is counted at its generic rank
``d_n sum_o d_o`` and neither its links nor an SVD of them are needed, for a
supplied channel too.  Only the other nodes' links are drawn.  When every
node of a side zero-forces alone, that side's ``R`` has no rows, the rank is
the row count for every generic channel, and the verdict needs neither a
channel nor an SVD.
:func:`build_coefficient_matrix` stays the reference the elimination is
tested against.

Besides the generic rank test this module implements the cheap necessary
counting condition (properness) and two closed-form special cases (symmetric
and stream-divisible configurations) that bypass the rank computation when
they apply.  Properness quantifies over every subset of the alignment set and
is decided by one max-flow from transmitters to receivers, whose minimum cut
names a violating subset.  It is the only subset condition: on the classes
where the closed forms apply they are equivalent to it, so they name the
class that makes properness sufficient rather than decide anything new.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .linalg import column_complement, numerical_rank
from .network import (
    Channel,
    NetworkConfig,
    Pair,
    Problem,
    TransceiverSet,
    _check_seed,
    canonical_alignment,
    check_channel,
    check_transceivers,
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

@dataclass(frozen=True, eq=False)
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
    ``divisible_formula`` (closed-form special case).  After the rank test,
    ``rank`` is the rank of the coefficient matrix: the rank
    ``sum_n d_n rank(A_n)`` of the eliminated side's blocks plus the rank of
    the reduced matrix that is left, one column per free variable of the
    other side's linked nodes.  A node that zero-forces its pairs alone
    counts at its generic rank ``d_n sum_o d_o``, its partners' streams
    times its own, and its links are not read, on a supplied channel too:
    the report is the verdict for almost every channel, not the rank of that
    one.  ``tolerance`` is the singular-value cutoff
    applied to that reduced matrix, the one that was decomposed, and 0.0 when
    it has no entries.  So ``rank`` does not depend on the side, and
    ``tolerance`` does; its last digits also follow the BLAS thread count.
    When one side zero-forces alone, its reduced matrix has no rows, and
    ``hall_rank`` is decided from the dimensions: ``rank`` is
    ``n_constraints`` and ``tolerance`` 0.0, with no channel drawn.
    ``rank`` is -1 and ``tolerance`` 0.0 when the rank test was not run.
    """

    feasible: bool
    n_constraints: int
    n_variables: int
    rank: int
    method: str
    tolerance: float
    FIELDS = "feasible,method,C,V,rank,tolerance"  # the names of to_line()'s fields

    def to_line(self) -> str:
        """Single-line record with the fields named by ``FIELDS``, in that order."""
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


def _jacobian(problem: Problem, ts: TransceiverSet) -> CoefficientMatrix:
    """Derivatives of the residuals ``U_k^H H_kj V_j`` w.r.t. the free blocks at ``ts``.

    ``A = H_kj[d_k:] V_j`` multiplies the conjugated decoder block and
    ``C = U_k^H H_kj[:, d_j:]`` the precoder block, whatever the top blocks are.
    """
    cfg = problem.cfg
    row_index, col_index, n_rows, n_vars = _layout(cfg, problem.pairs)
    mat = np.zeros((n_rows, n_vars), dtype=np.complex128)
    for k, j in problem.pairs:
        dk, dj = cfg.d[k - 1], cfg.d[j - 1]
        H = problem.channel[(k, j)]
        A = H[dk:] @ ts.V[j - 1]
        C = ts.U[k - 1].conj().T @ H[:, dj:]
        r, cu, cv = row_index[(k, j)], col_index[("U", k)], col_index[("V", j)]
        rows = mat[r : r + dk * dj].reshape(dk, dj, n_vars)  # row (p, q) of the pair, a view
        nu, nv = A.shape[0], C.shape[1]
        for p in range(dk):  # decoder column p of U_k[dk:]
            rows[p, :, cu + p * nu : cu + (p + 1) * nu] = A.T
        for q in range(dj):  # precoder column q of V_j[dj:]
            rows[:, q, cv + q * nv : cv + (q + 1) * nv] = C
    return CoefficientMatrix(mat, row_index, col_index)


def build_coefficient_matrix(cfg: NetworkConfig, alignment, channel: Channel) -> CoefficientMatrix:
    """Assemble the full first-order coefficient matrix for an alignment set.

    This is the Jacobian of the residuals at
    :meth:`TransceiverSet.identity <gia.network.TransceiverSet.identity>`,
    where every free block is zero: the block of
    pair ``(k, j)`` w.r.t. receiver ``k`` is block diagonal with ``d_k``
    copies of ``H_kj[d_k:, :d_j].T``, and its row block ``p`` w.r.t.
    transmitter ``j`` is block diagonal with ``d_j`` copies of the row
    ``H_kj[p, d_j:]``.
    """
    return _jacobian(Problem(cfg, alignment, channel), TransceiverSet.identity(cfg))


def _rows(dn: int, an: int, load: int) -> int:
    """Rows of ``R`` left by eliminating a node with ``dn`` streams and ``an``
    antennas whose aligned partners carry ``load = sum_o d_o`` streams, for a
    generic channel, where ``rank A_n = min(an - dn, load)``:
    ``dn (load - rank A_n) = dn max(0, dn + load - an)``, none iff the node
    zero-forces all its pairs by itself."""
    return dn * max(0, dn + load - an)


@dataclass(frozen=True)
class _Plan:
    """One side's elimination, planned by :func:`_plan` from the dimensions alone.

    ``kept[n]`` lists, in pair order, the aligned partners of each node ``n``
    that adds rows to ``R``; ``generic`` is ``sum_n d_n sum_o d_o`` over the
    nodes that zero-force alone, their rank for a generic channel.
    ``columns[o]`` is the column slice of ``R`` of each other-side node ``o``
    that any node of the side is aligned with, and ``shape`` is ``R``'s.
    """

    precoders: bool
    kept: dict[int, tuple[int, ...]]
    generic: int
    columns: dict[int, slice]
    shape: tuple[int, int]

    @property
    def pairs(self) -> tuple[Pair, ...]:
        """The aligned pairs ``(k, j)`` whose links the kept nodes read."""
        return tuple((o, n) if self.precoders else (n, o)
                     for n, partners in self.kept.items() for o in partners)


def _plan(cfg: NetworkConfig, pairs, precoders: bool = False) -> _Plan:
    """The elimination of the decoder side, or of the precoder side, from the dimensions alone.

    The decoder side's nodes are the receivers, with links ``G_kj = H_kj``;
    the precoder side's are the transmitters, with the reciprocal links
    ``G_jk = H_kj^H``.  Both list their partners in canonical pair order, as
    :class:`~gia.network.Problem`'s ``by_rx`` and ``by_tx`` do.  ``R`` has one
    column block per other-side node ``o`` that the pairs reach, in node
    order, ``d_o (a_o - d_o)`` wide, where ``a_o`` is its antenna count, and
    node ``n`` adds :func:`_rows` rows.  A node that adds none zero-forces
    its pairs alone: it counts at its generic rank and reads no link.
    """
    d = cfg.d
    own, other = (cfg.M, cfg.N) if precoders else (cfg.N, cfg.M)
    partners: dict[int, list[int]] = {}
    for k, j in pairs:
        n, o = (j, k) if precoders else (k, j)
        partners.setdefault(n, []).append(o)
    reached = sorted({o for node_partners in partners.values() for o in node_partners})
    starts = list(itertools.accumulate((d[o - 1] * (other[o - 1] - d[o - 1]) for o in reached),
                                       initial=0))
    kept, generic, rows = {}, 0, 0
    for n, node_partners in partners.items():
        load = sum(d[o - 1] for o in node_partners)
        added = _rows(d[n - 1], own[n - 1], load)
        if added:
            kept[n], rows = tuple(node_partners), rows + added
        else:
            generic += d[n - 1] * load
    columns = {o: slice(a, b) for o, a, b in zip(reached, starts, starts[1:])}
    return _Plan(precoders, kept, generic, columns, (rows, starts[-1]))


def _eliminate(plan: _Plan, channel: Channel, d) -> tuple[int, np.ndarray]:
    """One side's variable blocks of the coefficient matrix, eliminated in closed form.

    ``plan`` is the decoder side's or the precoder side's (the decoder side
    of the reciprocal network, whose constraints are the originals
    conjugate-transposed), and ``d`` the stream counts; ``channel`` needs
    only the links of ``plan.pairs``.  Up to row order, node ``n``'s rows of
    its own columns are ``I_{d_n} (x) A_n^T``, with
    ``A_n = [G_no[d_n:, :d_o]]_o`` over its links ``G_no``, and no other rows
    touch its columns.  With ``r_n = rank A_n`` and ``W_n`` an orthonormal basis of the complement of
    the range of ``A_n^T``, the rows ``W_n^H [kron(I_{d_o}, G_no[p, d_o:])]_o``
    over the streams ``p`` of each node form the reduced matrix ``R``: the
    projected precoder columns on the decoder side, and the complex conjugate
    of the projected decoder columns on the precoder side.  A node that
    zero-forces alone has ``r_n = sum_o d_o`` for a generic channel and an
    empty ``W_n``: it is counted at that rank and not decomposed.  ``R`` has one
    column per free variable of the other side's linked nodes, laid out by
    the plan.  Returns ``(sum_n d_n r_n, R)``: the coefficient matrix has rank
    ``sum_n d_n r_n + rank R``, so it has full row rank iff ``R`` does.
    """
    n_cols = plan.shape[1]
    eliminated, blocks = plan.generic, [np.zeros((0, n_cols), dtype=np.complex128)]
    for n, partners in plan.kept.items():
        dn = d[n - 1]
        links = [(o, channel[o, n].conj().T if plan.precoders else channel[n, o]) for o in partners]
        r, W = column_complement(np.hstack([G[dn:, : d[o - 1]] for o, G in links]).T)
        eliminated += dn * r
        Wh = W.conj().T
        block = np.zeros((dn * Wh.shape[0], n_cols), dtype=np.complex128)
        q0 = 0
        for o, G in links:
            do, cols = d[o - 1], plan.columns[o]
            # row (p, w), column (q, m) holds Wh[w, q0 + q] * G[p, do + m]
            block[:, cols] = np.einsum(
                "wq,pm->pwqm", Wh[:, q0 : q0 + do], G[:dn, do:]).reshape(block[:, cols].shape)
            q0 += do
        blocks.append(block)
    return eliminated, np.concatenate(blocks)


def build_jacobian(cfg: NetworkConfig, alignment, channel: Channel,
                   ts: TransceiverSet) -> np.ndarray:
    """Jacobian of the residuals at ``ts`` w.r.t. its free blocks.

    The variables are the conjugated free decoder blocks ``U_k[d_k:]`` and
    the free precoder blocks ``V_j[d_j:]``, views of the one transceiver
    type, in the block layout of :func:`build_coefficient_matrix`.  At
    :meth:`TransceiverSet.identity <gia.network.TransceiverSet.identity>` this
    equals the coefficient matrix exactly.  A block of ``ts`` of the wrong
    shape or with a non-finite entry raises ``ValueError`` naming it.
    """
    problem = Problem(cfg, alignment, channel)
    check_transceivers(cfg, ts)
    return _jacobian(problem, ts).matrix


def check_proper(cfg: NetworkConfig, alignment):
    """Necessary counting condition: free variables must cover constraints on every subset.

    For each nonempty subset of the alignment set, the free-variable count of
    the involved nodes must be at least the constraint count,
    ``sum d_j (M_j - d_j) + sum d_k (N_k - d_k) >= sum d_k d_j``.
    This is the one subset condition of the package; the closed forms below
    restate it on their classes.

    One max-flow from transmitters to receivers decides every subset.  With
    ``c_jk = d_k d_j`` per aligned pair, ``t_j = d_j (M_j - d_j)`` and
    ``r_k = d_k (N_k - d_k)``: only a pair's own two nodes can cover its
    constraints, so transmitter ``j`` covers what it can and only
    ``need_j = max(0, sum_k c_jk - t_j)`` enters the network, source -> ``j``
    (capacity ``need_j``) -> ``k`` (``c_jk``) -> sink (``r_k``).  A cut with
    transmitters ``A`` of positive need and receivers ``B`` on the source side
    falls short of ``sum_j need_j`` by the excess of the pairs between them,
    ``sum_{j in A, k in B} c_jk - sum_A t_j - sum_B r_k``.  So a violating
    subset (its receivers, its transmitters of positive need) makes the flow
    short, and a short flow's last search reaches only transmitters of
    positive need, so its minimum cut names pairs that violate the condition.
    The nodes that search reaches are the source side of the smallest minimum
    cut, the same for every maximum flow, so neither the search order nor
    the greedy flow that starts it (each pair's own path, in canonical
    order) changes the subset named.

    Returns
    -------
    (bool, tuple of pairs or None)
        Verdict plus one violating subset (named by a minimum cut) when improper.
    """
    pairs = canonical_alignment(cfg, alignment)
    rx, tx = free_shapes(cfg)
    n_tx, d = cfg.n_tx, cfg.d
    sink = n_tx + cfg.K + 1  # source 0, transmitter j at j, receiver k at n_tx + k
    residual = [[0] * (sink + 1) for _ in range(sink + 1)]
    for k, j in pairs:
        residual[0][j] += d[k - 1] * d[j - 1]
        residual[j][n_tx + k] = d[k - 1] * d[j - 1]
        residual[n_tx + k][sink] = math.prod(rx[k - 1])
    for j in range(1, n_tx + 1):
        residual[0][j] = max(0, residual[0][j] - math.prod(tx[j - 1]))

    for k, j in pairs:  # warm start: a greedy flow along each pair's own path
        push = min(residual[0][j], residual[j][n_tx + k], residual[n_tx + k][sink])
        for a, b in ((0, j), (j, n_tx + k), (n_tx + k, sink)):
            residual[a][b] -= push
            residual[b][a] += push
    while True:  # Edmonds-Karp: augment along shortest residual paths
        parent = [0] + [-1] * sink
        queue = deque([0])
        while queue and parent[sink] < 0:
            a = queue.popleft()
            for b, cap in enumerate(residual[a]):
                if cap > 0 and parent[b] < 0:
                    parent[b] = a
                    queue.append(b)
        if parent[sink] < 0:
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
    if not any(residual[0]):  # every need carried
        return True, None
    return False, tuple((k, j) for k, j in pairs if parent[j] >= 0 and parent[n_tx + k] >= 0)


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

    degree = [0] * (cfg.n_tx + cfg.K + 1)  # transmitter j at j, receiver k at n_tx + k
    for k, j in pairs:
        degree[j] += 1
        if j <= cfg.K:  # a jammer's pairs load only the jammer
            degree[cfg.n_tx + k] += 1
    degrees = set(degree[1 : cfg.K + 1] + degree[cfg.n_tx + 1 :])
    if len(degrees) != 1:
        return False, None
    L = degrees.pop()
    if any(degree[j] > (cfg.M[j - 1] - cfg.d[j - 1]) // d for j in range(cfg.K + 1, cfg.n_tx + 1)):
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
    The generic rank test of the coefficient matrix decides the rest, with
    the variable blocks of one side eliminated in closed form: the side that
    leaves the cheaper reduced matrix, the decoders on a tie, both planned
    from the dimensions.  A node that zero-forces its aligned pairs by itself
    adds no row to that matrix and counts at its generic rank; when every
    node of a side does, the reduced matrix has no rows, and ``hall_rank``
    is decided from the dimensions.
    Because the verdict depends only on the configuration and alignment set
    (not the channel draw), a random channel is generated from ``seed`` when
    the rank test needs one, and only the links of the nodes it decomposes
    are drawn.  The seed and a supplied channel are validated even when a
    fast path or the dimensions decide; a supplied channel is checked once,
    by :func:`~gia.network.check_channel`, and the rank test reads only
    those links from it.
    """
    seed = _check_seed(seed)
    pairs = canonical_alignment(cfg, alignment)
    if channel is not None:
        check_channel(cfg, channel)

    _, _, n_constraints, n_variables = _layout(cfg, pairs)
    proper, _ = check_proper(cfg, pairs)
    if not proper:
        method = "proper_fail"
    elif check_symmetric_formula(cfg, pairs)[0]:
        method = "symmetric_formula"
    elif _divisible(cfg):
        method = "divisible_formula"
    else:
        # an r x c SVD costs min(r, c)^2 max(r, c), 0 with no rows; min keeps the first of
        # equal costs, the decoders
        plan = min(_plan(cfg, pairs), _plan(cfg, pairs, precoders=True),
                   key=lambda side: min(side.shape) ** 2 * max(side.shape))
        if not plan.shape[0]:
            # R has no rows: rank C for any generic channel, the cutoff of an empty spectrum
            return FeasibilityReport(True, n_constraints, n_variables, n_constraints, "hall_rank", 0.0)
        if channel is None:
            channel = generate_channel(cfg, seed, alignment=plan.pairs)
        eliminated, reduced = _eliminate(plan, channel, cfg.d)
        rr = numerical_rank(reduced)
        rank = eliminated + rr.rank
        return FeasibilityReport(rank == n_constraints, n_constraints, n_variables, rank,
                                 "hall_rank", rr.tolerance_used)
    return FeasibilityReport(proper, n_constraints, n_variables, -1, method, 0.0)
