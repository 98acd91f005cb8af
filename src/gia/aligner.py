"""Transceiver design by alternating interference-leakage minimization.

ALS normalizes every decoder and precoder as an identity block stacked on a
free block, ``U_k = [I; U~_k]``, ``V_j = [I; V~_j]``, which turns the
zero-forcing constraints into polynomials in the free blocks.  One *round*
is a full receiver sweep followed by a full transmitter sweep; each sweep is
an exact least-squares minimizer of the total leakage in its own variables,
so leakage is nonincreasing along the iteration.

The classical iterative baseline (alternating eigenvector updates under
orthonormality, exploiting uplink-downlink reciprocity) is included for
comparison runs.

Every point is a :class:`~gia.network.TransceiverSet`, and the free blocks
are its views ``U_k[d_k:]`` and ``V_j[d_j:]``; there is no second
transceiver type.  Both algorithms run one round loop, :func:`_alternate`,
which alone computes ``I_dB``; each brings a start, a power rule and a
per-node solve.  ALS's is :func:`_als_solve`, which the public reference
sweeps (:func:`receiver_update`, :func:`transmitter_update`) share.  Every
sweep is :func:`_update_side` over the links :class:`~gia.network.Problem`
stores: ``by_rx`` for the receive sweep and ``by_tx``, the links ``H_kj^H``
of the reciprocal network, for the transmit sweep.  One residual routine
forms every ``U_k^H H_kj V_j``; leakage, the residual vector, the round loop
and solution verification all take their products from it.  The public
functions check their point with :func:`~gia.network.check_transceivers`;
the round loop checks none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import frobenius_norm_sq, numerical_rank, pseudo_inverse
from .network import (
    Channel,
    NetworkConfig,
    Problem,
    TransceiverSet,
    _check_seed,
    _complex_normal,
    _index,
    check_transceivers,
)

__all__ = [
    "RunTrace",
    "VerificationReport",
    "PASS_THRESHOLD_DB",
    "STALL_REL_CHANGE",
    "residual_vector",
    "leakage",
    "receiver_update",
    "transmitter_update",
    "run_gia",
    "run_classical_baseline",
    "verify_solution",
]

#: Interference-suppression level that counts as "aligned" in the randomized test.
PASS_THRESHOLD_DB = -60.0

#: Relative leakage change per round below which a run is declared stalled.
STALL_REL_CHANGE = 1e-12


def _lift(block: np.ndarray) -> np.ndarray:
    """``[I; block]``: the identity stacked on top of a free block."""
    return np.vstack([np.eye(block.shape[1], dtype=np.complex128), block])


def _full_residuals(problem: Problem, ts: TransceiverSet):
    """``U_k^H H_kj V_j`` of the full transceivers, per aligned pair in canonical order."""
    for k, links in problem.by_rx.items():
        for j, H in links:
            yield ts.U[k - 1].conj().T @ H @ ts.V[j - 1]


def residual_vector(problem: Problem, ts: TransceiverSet) -> np.ndarray:
    """All residuals stacked in canonical order.

    Pairs are taken lexicographically and the block for ``(k, j)`` is laid
    out row-major in ``(p, q)``, i.e. constraint ``(p, q)`` sits at offset
    ``(p-1) d_j + (q-1)``.  This matches the row order of the first-order
    coefficient matrix and of the Jacobian.
    """
    check_transceivers(problem.cfg, ts)
    return np.concatenate([np.zeros(0, dtype=np.complex128)] + [
        R.reshape(-1) for R in _full_residuals(problem, ts)])


def leakage(problem: Problem, ts: TransceiverSet) -> float:
    """Total interference leakage: sum of squared residual magnitudes over the alignment set."""
    check_transceivers(problem.cfg, ts)
    return sum(frobenius_norm_sq(R) for R in _full_residuals(problem, ts))


def _update_side(links, partners, own, solve) -> tuple[np.ndarray, ...]:
    """One sweep: node ``n`` of ``links`` gets ``solve(parts, own[n-1])``.

    ``parts`` is ``[L @ partners[p-1] for p, L in links[n]]``.  ``links`` is
    ``Problem.by_rx`` (links ``H_kj``, partners the precoders) or
    ``Problem.by_tx`` (the reciprocal network's links ``H_kj^H``, partners the
    decoders).  Nodes without links keep their block of ``own``.
    """
    new = list(own)
    for n, node_links in links.items():
        new[n - 1] = solve([L @ partners[p - 1] for p, L in node_links], own[n - 1])
    return tuple(new)


def _als_solve(parts, block: np.ndarray) -> np.ndarray:
    """``[I; X]`` with ``X = -(G_top G_bot^+)^H`` and ``G = [parts]`` split at
    row ``d = block.shape[1]``: ``X`` is the least-squares minimizer of the
    node's residuals ``G_top + X^H G_bot``."""
    d = block.shape[1]
    G = np.hstack(parts)
    return _lift(-(G[:d] @ pseudo_inverse(G[d:])).conj().T)


def receiver_update(problem: Problem, ts: TransceiverSet) -> TransceiverSet:
    """Exact leakage minimizer over every free decoder block, precoders held fixed.

    For each receiver ``k`` with at least one aligned pair, ``G_k`` stacks
    ``H_kj V_j`` horizontally over the aligned transmitters and the decoder
    becomes ``U_k = [I; U~_k]`` with ``U~_k = -(B_k A_k^+)^H``, ``B_k`` the
    top ``d_k`` rows of ``G_k`` and ``A_k`` the rest; the pseudo-inverse
    makes the update well defined even when ``A_k`` is rank deficient.
    Receivers with no aligned pair keep their block.
    """
    check_transceivers(problem.cfg, ts)
    return TransceiverSet(_update_side(problem.by_rx, ts.V, ts.U, _als_solve), ts.V)


def transmitter_update(problem: Problem, ts: TransceiverSet) -> TransceiverSet:
    """Exact leakage minimizer over every free precoder block, decoders held fixed.

    :func:`receiver_update` on the reciprocal network: ``G_j`` stacks
    ``H_kj^H U_k`` over the aligned receivers and ``V~_j = -(B_j A_j^+)^H``.
    """
    check_transceivers(problem.cfg, ts)
    return TransceiverSet(ts.U, _update_side(problem.by_tx, ts.U, ts.V, _als_solve))


@dataclass(frozen=True)
class RunTrace:
    """Per-round convergence record of one alignment run.

    ``points`` holds ``(t, leakage, I_dB)`` with a mandatory ``t = 0`` row at
    the initial transceivers (``I_dB`` is 0 there by definition).
    ``stop_reason`` is one of ``tolerance``, ``stalled``, ``max_iters``.
    """

    points: tuple[tuple[int, float, float], ...]
    converged: bool
    stop_reason: str

    @property
    def leakages(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])

    @property
    def i_db(self) -> np.ndarray:
        return np.array([p[2] for p in self.points])

    @property
    def final_i_db(self) -> float:
        return self.points[-1][2]

    @property
    def rounds_used(self) -> int:
        return self.points[-1][0]

    def csv_lines(self) -> list[str]:
        lines = ["t,leakage,I_dB"]
        lines.extend(f"{t},{leak!r},{idb!r}" for t, leak, idb in self.points)
        return lines

    def write_csv(self, path) -> None:
        Path(path).write_text("\n".join(self.csv_lines()) + "\n", encoding="utf-8")


def _alternate(cfg: NetworkConfig, alignment, channel: Channel, *, seed, start, solve,
               power_db, max_iters, leak_tol, target_db):
    """The round loop of both algorithms, on full transceivers.

    An algorithm brings three rules.  Precoder ``j`` starts at
    ``start(rng, M_j, d_j)``, with ``rng`` seeded by ``seed`` and decoders at
    ``[I; 0]``.  A round is a receive then a transmit :func:`_update_side` by
    ``solve``.  It records the raw leakage, which the stall test and
    ``leak_tol`` act on, and ``I_dB = 10 log10(leak / leak0) + (power_db(ts0)
    - power_db(ts))``, ``-inf`` at zero leakage.  The run stops at tolerance,
    stall or budget; its stop rules are checked before any work.  A round-0
    leakage that is not finite, the overflow of a finite but huge channel,
    raises ``ValueError`` before the first round.
    """
    max_iters = _index(max_iters, "max_iters", ValueError)
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    if not leak_tol >= 0:
        raise ValueError(f"leak_tol must be nonnegative, got {leak_tol}")
    if target_db is not None and math.isnan(target_db):
        raise ValueError("target_db must not be NaN")
    problem = Problem(cfg, alignment, channel)
    rng = np.random.default_rng(np.random.SeedSequence([_check_seed(seed)]))
    ts = TransceiverSet(TransceiverSet.identity(cfg).U,
                        tuple(start(rng, m, d) for m, d in zip(cfg.M, cfg.d)))
    leak0 = sum(frobenius_norm_sq(R) for R in _full_residuals(problem, ts))
    if not math.isfinite(leak0):
        raise ValueError(f"the round-0 leakage overflows to {leak0}; scale the channel down")
    norm0 = power_db(ts)
    points = [(0, leak0, 0.0)]
    if leak0 == 0.0:
        return ts, RunTrace(tuple(points), True, "tolerance")
    prev = leak0
    stop = "max_iters"
    for t in range(1, max_iters + 1):
        U = _update_side(problem.by_rx, ts.V, ts.U, solve)
        ts = TransceiverSet(U, _update_side(problem.by_tx, U, ts.V, solve))
        leak = sum(frobenius_norm_sq(R) for R in _full_residuals(problem, ts))
        idb = (10.0 * math.log10(leak / leak0) if leak else -math.inf) + (norm0 - power_db(ts))
        points.append((t, leak, idb))
        if leak < leak_tol or leak == 0.0 or (target_db is not None and idb <= target_db):
            stop = "tolerance"
            break
        if abs(prev - leak) < STALL_REL_CHANGE * prev:
            stop = "stalled"
            break
        prev = leak
    return ts, RunTrace(tuple(points), stop != "max_iters", stop)


def run_gia(cfg: NetworkConfig, alignment, channel: Channel, *,
            max_iters: int = 5000, leak_tol: float = 0.0, seed: int = 0,
            target_db: float | None = None):
    """Alternating least-squares alignment in the free blocks ``U_k[d_k:]``, ``V_j[d_j:]``.

    Starts from random Gaussian free precoder blocks (decoders start at
    ``[I; 0]``) and alternates the sweeps of
    :func:`receiver_update` / :func:`transmitter_update` until the leakage
    drops below ``leak_tol``, the run reaches ``target_db`` relative
    suppression, the relative leakage change over a round falls below
    ``STALL_REL_CHANGE``, or ``max_iters`` rounds elapse.

    The trace's leakage column is the raw objective (nonincreasing every
    round).  Its ``I_dB`` column reports the suppression of the *rescaled*
    transceivers: ALS's power rule is the product of the two sides' total
    power, and ``I_dB`` adds its fall since round 0 to the raw leakage ratio.
    That makes traces comparable with algorithms that keep orthonormal
    transceivers; lifted identity-block iterates are not power normalized, so
    the raw ratio alone would conflate suppression with transceiver growth.

    Returns
    -------
    (TransceiverSet, RunTrace)
        The full transceivers: every block has the identity on top of its
        free block, ``U_k = [I; U~_k]`` and ``V_j = [I; V~_j]``.
    """
    def norm_db(ts):
        # the identity block contributes d to trace(X^H X); x[d:] is the free block
        return 10.0 * math.log10(
            (sum(cfg.d[: cfg.K]) + sum(frobenius_norm_sq(u[d:]) for u, d in zip(ts.U, cfg.d)))
            * (sum(cfg.d) + sum(frobenius_norm_sq(v[d:]) for v, d in zip(ts.V, cfg.d))))

    return _alternate(cfg, alignment, channel, seed=seed,
                      start=lambda rng, m, d: _lift(_complex_normal(rng, (m - d, d))),
                      solve=_als_solve, power_db=norm_db, max_iters=max_iters,
                      leak_tol=leak_tol, target_db=target_db)


def _least_dominant(parts, block: np.ndarray) -> np.ndarray:
    """``block.shape[1]`` least-dominant eigenvectors of ``Q = sum P P^H`` over ``parts``."""
    # Q must be summed pair by pair in canonical order, not formed as one
    # product G G^H of the stacked parts: the classical traces depend on the
    # operation order.  Forming G G^H changed final_I_dB on all 88 feasible
    # trials of `gia test1 -n 120 --seed 0 --algorithm classical` (by up to
    # 16 dB) and rounds_used on 33.  The likely cause: when a node's
    # interference has rank below n - d, its least-dominant eigenspace has
    # more than d dimensions, and roundoff picks the basis.
    n, d = block.shape
    Q = np.zeros((n, n), dtype=np.complex128)
    for P in parts:
        Q += P @ P.conj().T
    return np.linalg.eigh(Q)[1][:, :d]


def run_classical_baseline(cfg: NetworkConfig, alignment, channel: Channel, *,
                           max_iters: int = 5000, seed: int = 0,
                           target_db: float | None = None):
    """Classical alternating leakage minimization with orthonormal transceivers.

    Each receiver sets its decoder to the ``d_k`` least-dominant eigenvectors
    of the interference covariance it sees; precoders are updated the same
    way in the reciprocal network.  Columns stay orthonormal throughout, so
    the power rule is a constant and ``I_dB`` is the raw leakage ratio.

    Returns
    -------
    (TransceiverSet, RunTrace)
    """
    return _alternate(cfg, alignment, channel, seed=seed,
                      start=lambda rng, m, d: np.linalg.qr(_complex_normal(rng, (m, d)))[0],
                      solve=_least_dominant, power_db=lambda _ts: 0.0, max_iters=max_iters,
                      leak_tol=0.0, target_db=target_db)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a candidate solution against the design constraints."""

    passed: bool
    max_residual: float
    failures: tuple[str, ...]


def verify_solution(cfg: NetworkConfig, alignment, channel: Channel,
                    ts: TransceiverSet, tol: float = 1e-6) -> VerificationReport:
    """Check a full transceiver set solves the alignment problem.

    Verifies (a) every aligned-pair residual magnitude is at most ``tol``
    (absolute, on unit-variance channels), (b) each direct link
    ``U_k^H H_kk V_k`` has numerical rank ``d_k``, and (c) each jammer
    precoder has numerical rank ``d_j``.  Failures are reported
    individually.  ``tol`` must be finite and nonnegative, and a block of
    ``ts`` of the wrong shape or with a non-finite entry raises
    ``ValueError`` naming it.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite nonnegative number, got {tol}")
    problem = Problem(cfg, alignment, channel)
    check_transceivers(cfg, ts)
    failures: list[str] = []
    max_res = 0.0
    for R in _full_residuals(problem, ts):
        max_res = max(max_res, float(np.abs(R).max()))
    if max_res > tol:
        failures.append(f"max residual {max_res:.3e} exceeds tolerance {tol:.3e}")
    for k in range(1, cfg.K + 1):
        D = ts.U[k - 1].conj().T @ channel[(k, k)] @ ts.V[k - 1]
        r = numerical_rank(D).rank
        if r != cfg.d[k - 1]:
            failures.append(f"direct link {k}: rank {r} != d_{k}={cfg.d[k - 1]}")
    for j in range(cfg.K + 1, cfg.n_tx + 1):
        r = numerical_rank(ts.V[j - 1]).rank
        if r != cfg.d[j - 1]:
            failures.append(f"jammer precoder {j}: rank {r} != d_{j}={cfg.d[j - 1]}")
    return VerificationReport(not failures, max_res, tuple(failures))
