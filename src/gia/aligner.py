"""Transceiver design by alternating interference-leakage minimization.

Works in the reduced variables: every decoder and precoder is normalized as
an identity block stacked on a free block, ``U_k = [I; U~_k]``,
``V_j = [I; V~_j]``, which turns the zero-forcing constraints into
polynomials in the free blocks.  One *round* is a full receiver sweep
followed by a full transmitter sweep; each sweep is an exact least-squares
minimizer of the total leakage in its own variables, so leakage is
nonincreasing along the iteration.

The classical iterative baseline (alternating eigenvector updates under
orthonormality, exploiting uplink-downlink reciprocity) is included for
comparison runs.
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
    free_shapes,
)

__all__ = [
    "AlreadyAlignedError",
    "ReducedTransceivers",
    "RunTrace",
    "VerificationReport",
    "PASS_THRESHOLD_DB",
    "STALL_REL_CHANGE",
    "zero_reduced",
    "random_reduced",
    "hv_blocks",
    "uh_blocks",
    "residual_matrix",
    "residual_vector",
    "leakage",
    "receiver_update",
    "transmitter_update",
    "run_gia",
    "run_classical_baseline",
    "lift_transceivers",
    "verify_solution",
    "normalized_interference_db",
]

#: Interference-suppression level that counts as "aligned" in the randomized test.
PASS_THRESHOLD_DB = -60.0

#: Relative leakage change per round below which a run is declared stalled.
STALL_REL_CHANGE = 1e-12


class AlreadyAlignedError(ValueError):
    """Initial leakage is zero: the instance is degenerate (already aligned)."""


@dataclass(frozen=True)
class ReducedTransceivers:
    """Free transceiver blocks: ``U[k-1]`` is ``(N_k-d_k) x d_k``, ``V[j-1]`` is ``(M_j-d_j) x d_j``."""

    U: tuple[np.ndarray, ...]
    V: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "U", tuple(np.asarray(u, dtype=np.complex128) for u in self.U))
        object.__setattr__(self, "V", tuple(np.asarray(v, dtype=np.complex128) for v in self.V))


def zero_reduced(cfg: NetworkConfig) -> ReducedTransceivers:
    """All-zero reduced transceivers for ``cfg``."""
    rx, tx = free_shapes(cfg)
    return ReducedTransceivers(
        tuple(np.zeros(s, dtype=np.complex128) for s in rx),
        tuple(np.zeros(s, dtype=np.complex128) for s in tx),
    )


def random_reduced(cfg: NetworkConfig, seed) -> ReducedTransceivers:
    """Reduced transceivers with i.i.d. standard complex Gaussian entries.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``.
    """
    rng = np.random.default_rng(seed)
    rx, tx = free_shapes(cfg)
    U = tuple(_complex_normal(rng, s) for s in rx)  # drawn before V: seeds pin this order
    return ReducedTransceivers(U, tuple(_complex_normal(rng, s) for s in tx))


def _check_point(cfg: NetworkConfig, rt: ReducedTransceivers) -> None:
    rx, tx = free_shapes(cfg)
    if len(rt.U) != len(rx) or len(rt.V) != len(tx):
        raise ValueError("reduced transceivers do not match the configuration")
    for name, blocks, shapes in (("decoder", rt.U, rx), ("precoder", rt.V, tx)):
        for node, (block, want) in enumerate(zip(blocks, shapes), start=1):
            if block.shape != want:
                raise ValueError(f"reduced {name} {node} has shape {block.shape}, expected {want}")


def hv_blocks(Hkj: np.ndarray, dk: int, dj: int, Vt: np.ndarray):
    """Split ``H_kj @ [I; V~_j]`` at row ``dk``.

    Returns ``(B, A)`` with ``B`` the top ``dk x dj`` block and ``A`` the
    bottom ``(N_k-dk) x dj`` block.
    """
    B = Hkj[:dk, :dj] + Hkj[:dk, dj:] @ Vt
    A = Hkj[dk:, :dj] + Hkj[dk:, dj:] @ Vt
    return B, A


def uh_blocks(Hkj: np.ndarray, dk: int, dj: int, Ut: np.ndarray):
    """Split ``[I; U~_k]^H @ H_kj`` at column ``dj``.

    Returns ``(D, C)`` with ``D`` the left ``dk x dj`` block and ``C`` the
    right ``dk x (M_j-dj)`` block.
    """
    UtH = Ut.conj().T
    D = Hkj[:dk, :dj] + UtH @ Hkj[dk:, :dj]
    C = Hkj[:dk, dj:] + UtH @ Hkj[dk:, dj:]
    return D, C


def residual_matrix(problem: Problem, rt: ReducedTransceivers, k: int, j: int) -> np.ndarray:
    """The ``d_k x d_j`` post-processing matrix ``U_k^H H_kj V_j`` of the lifted transceivers."""
    d = problem.cfg.d
    B, A = hv_blocks(problem.channel[(k, j)], d[k - 1], d[j - 1], rt.V[j - 1])
    return B + rt.U[k - 1].conj().T @ A


def residual_vector(problem: Problem, rt: ReducedTransceivers) -> np.ndarray:
    """All residuals stacked in canonical order.

    Pairs are taken lexicographically and the block for ``(k, j)`` is laid
    out row-major in ``(p, q)``, i.e. constraint ``(p, q)`` sits at offset
    ``(p-1) d_j + (q-1)``.  This matches the row order of the first-order
    coefficient matrix and of the Jacobian.
    """
    _check_point(problem.cfg, rt)
    parts = [residual_matrix(problem, rt, k, j).reshape(-1) for k, j in problem.pairs]
    if not parts:
        return np.zeros(0, dtype=np.complex128)
    return np.concatenate(parts)


def leakage(problem: Problem, rt: ReducedTransceivers) -> float:
    """Total interference leakage: sum of squared residual magnitudes over the alignment set."""
    _check_point(problem.cfg, rt)
    return sum(
        frobenius_norm_sq(residual_matrix(problem, rt, k, j)) for k, j in problem.pairs
    )


def receiver_update(problem: Problem, rt: ReducedTransceivers) -> ReducedTransceivers:
    """Exact leakage minimizer over every reduced decoder, precoders held fixed.

    For each receiver ``k`` with at least one aligned pair, the per-pair
    blocks ``A_kj`` (bottom) and ``B_kj`` (top) of ``H_kj V_j`` are
    concatenated horizontally over the aligned transmitters and the decoder
    becomes ``U~_k = -(B_k A_k^+)^H``; the pseudo-inverse makes the update
    well defined even when ``A_k`` is rank deficient.  Receivers with no
    aligned pair keep their block.
    """
    cfg, channel = problem.cfg, problem.channel
    _check_point(cfg, rt)
    new_U = list(rt.U)
    for k, js in problem.by_rx.items():
        dk = cfg.d[k - 1]
        A_parts, B_parts = [], []
        for j in js:
            B, A = hv_blocks(channel[(k, j)], dk, cfg.d[j - 1], rt.V[j - 1])
            A_parts.append(A)
            B_parts.append(B)
        A_k = np.hstack(A_parts)
        B_k = np.hstack(B_parts)
        new_U[k - 1] = -(B_k @ pseudo_inverse(A_k)).conj().T
    return ReducedTransceivers(tuple(new_U), rt.V)


def transmitter_update(problem: Problem, rt: ReducedTransceivers) -> ReducedTransceivers:
    """Exact leakage minimizer over every reduced precoder, decoders held fixed.

    Mirror image of :func:`receiver_update`: per-pair blocks ``C_kj``
    (right) and ``D_kj`` (left) of ``U_k^H H_kj`` are stacked vertically
    over the aligned receivers and ``V~_j = -C_j^+ D_j``.
    """
    cfg, channel = problem.cfg, problem.channel
    _check_point(cfg, rt)
    new_V = list(rt.V)
    for j, ks in problem.by_tx.items():
        dj = cfg.d[j - 1]
        C_parts, D_parts = [], []
        for k in ks:
            D, C = uh_blocks(channel[(k, j)], cfg.d[k - 1], dj, rt.U[k - 1])
            C_parts.append(C)
            D_parts.append(D)
        C_j = np.vstack(C_parts)
        D_j = np.vstack(D_parts)
        new_V[j - 1] = -pseudo_inverse(C_j) @ D_j
    return ReducedTransceivers(rt.U, tuple(new_V))


def normalized_interference_db(leakage_initial: float, leakage_t: float) -> float:
    """Leakage at round t relative to round 0, in dB (0 dB at t = 0 by construction)."""
    if leakage_initial <= 0.0:
        raise AlreadyAlignedError(
            "initial leakage is zero; the instance is already aligned and the "
            "normalized interference power is undefined"
        )
    if leakage_t == 0.0:
        return float("-inf")
    return 10.0 * math.log10(leakage_t / leakage_initial)


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


def _trace_driver(state, step, leak_of, *, max_iters, leak_tol, target_db,
                  norm_db_of=None):
    """Shared stopping logic: run ``step`` until tolerance, stall or budget.

    ``norm_db_of(state)`` is the dB correction that rescales the current
    transceivers to their initial total power (the fair-comparison
    convention); omitted for algorithms whose iterates keep constant power.
    The recorded leakage is always the raw objective, which is what the
    stall test and ``leak_tol`` act on.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    if not leak_tol >= 0:
        raise ValueError(f"leak_tol must be nonnegative, got {leak_tol}")
    if target_db is not None and math.isnan(target_db):
        raise ValueError("target_db must not be NaN")
    leak0 = leak_of(state)
    norm0 = norm_db_of(state) if norm_db_of is not None else 0.0
    points = [(0, leak0, 0.0)]
    if leak0 == 0.0:
        return state, RunTrace(tuple(points), True, "tolerance")
    prev = leak0
    stop = "max_iters"
    for t in range(1, max_iters + 1):
        state = step(state)
        leak = leak_of(state)
        idb = normalized_interference_db(leak0, leak)
        if norm_db_of is not None:
            idb += norm0 - norm_db_of(state)
        points.append((t, leak, idb))
        if leak < leak_tol or leak == 0.0:
            stop = "tolerance"
            break
        if target_db is not None and idb <= target_db:
            stop = "tolerance"
            break
        if abs(prev - leak) < STALL_REL_CHANGE * prev:
            stop = "stalled"
            break
        prev = leak
    return state, RunTrace(tuple(points), stop != "max_iters", stop)


def run_gia(cfg: NetworkConfig, alignment, channel: Channel, *,
            max_iters: int = 5000, leak_tol: float = 0.0, seed: int = 0,
            target_db: float | None = None):
    """Alternating least-squares alignment in the reduced variables.

    Starts from random Gaussian reduced precoders (decoders start at zero,
    i.e. identity-lifted) and alternates :func:`receiver_update` /
    :func:`transmitter_update` until the leakage drops below ``leak_tol``,
    the run reaches ``target_db`` relative suppression, the relative leakage
    change over a round falls below ``STALL_REL_CHANGE``, or ``max_iters``
    rounds elapse.

    The trace's leakage column is the raw objective (nonincreasing every
    round).  Its ``I_dB`` column reports the suppression of the *rescaled*
    transceivers - each side scaled so its total power stays at the initial
    value - which makes traces comparable with algorithms that keep
    orthonormal transceivers; lifted identity-block iterates are not power
    normalized, so the raw ratio alone would conflate suppression with
    transceiver growth.

    Returns
    -------
    (ReducedTransceivers, RunTrace)
    """
    problem = Problem(cfg, alignment, channel)
    rng = np.random.default_rng(np.random.SeedSequence([_check_seed(seed)]))
    V0 = tuple(_complex_normal(rng, s) for s in free_shapes(cfg)[1])
    start = ReducedTransceivers(zero_reduced(cfg).U, V0)

    def step(rt):
        return transmitter_update(problem, receiver_update(problem, rt))

    def norm_db(rt):
        # identity block contributes d_k to trace(U^H U)
        power_u = sum(cfg.d[: cfg.K]) + sum(frobenius_norm_sq(u) for u in rt.U)
        power_v = sum(cfg.d) + sum(frobenius_norm_sq(v) for v in rt.V)
        return 10.0 * math.log10(power_u * power_v)

    return _trace_driver(
        start, step, lambda rt: leakage(problem, rt),
        max_iters=max_iters, leak_tol=leak_tol, target_db=target_db,
        norm_db_of=norm_db,
    )


def _full_residuals(problem: Problem, ts: TransceiverSet):
    """``U_k^H H_kj V_j`` of the full transceivers, per aligned pair in canonical order."""
    for k, j in problem.pairs:
        yield ts.U[k - 1].conj().T @ problem.channel[(k, j)] @ ts.V[j - 1]


def _least_dominant(parts, n: int, d: int) -> np.ndarray:
    """The ``d`` least-dominant eigenvectors of ``Q = sum P P^H`` over ``parts`` (``n x n``)."""
    Q = np.zeros((n, n), dtype=np.complex128)
    for P in parts:
        Q += P @ P.conj().T
    return np.linalg.eigh(Q)[1][:, :d]


def run_classical_baseline(cfg: NetworkConfig, alignment, channel: Channel, *,
                           max_iters: int = 5000, leak_tol: float = 0.0,
                           seed: int = 0, target_db: float | None = None):
    """Classical alternating leakage minimization with orthonormal transceivers.

    Each receiver sets its decoder to the ``d_k`` least-dominant eigenvectors
    of the interference covariance it sees; precoders are updated the same
    way in the reciprocal network.  Columns stay orthonormal throughout.

    Returns
    -------
    (TransceiverSet, RunTrace)
    """
    problem = Problem(cfg, alignment, channel)
    rng = np.random.default_rng(np.random.SeedSequence([_check_seed(seed)]))
    U0 = tuple(
        np.eye(cfg.N[k - 1], cfg.d[k - 1], dtype=np.complex128)
        for k in range(1, cfg.K + 1)
    )
    V0 = tuple(
        np.linalg.qr(_complex_normal(rng, (cfg.M[j - 1], cfg.d[j - 1])))[0]
        for j in range(1, cfg.n_tx + 1)
    )

    def step(ts):
        U, V = list(ts.U), list(ts.V)
        for k, js in problem.by_rx.items():
            U[k - 1] = _least_dominant(
                [channel[(k, j)] @ V[j - 1] for j in js], cfg.N[k - 1], cfg.d[k - 1])
        for j, ks in problem.by_tx.items():
            V[j - 1] = _least_dominant(
                [channel[(k, j)].conj().T @ U[k - 1] for k in ks], cfg.M[j - 1], cfg.d[j - 1])
        return TransceiverSet(tuple(U), tuple(V))

    return _trace_driver(
        TransceiverSet(U0, V0), step,
        lambda ts: sum(frobenius_norm_sq(R) for R in _full_residuals(problem, ts)),
        max_iters=max_iters, leak_tol=leak_tol, target_db=target_db,
    )


def lift_transceivers(rt: ReducedTransceivers) -> TransceiverSet:
    """Stack the identity on top of each free block: ``U_k = [I; U~_k]``, ``V_j = [I; V~_j]``."""
    U = tuple(np.vstack([np.eye(u.shape[1], dtype=np.complex128), u]) for u in rt.U)
    V = tuple(np.vstack([np.eye(v.shape[1], dtype=np.complex128), v]) for v in rt.V)
    return TransceiverSet(U, V)


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
    individually.  ``tol`` must be finite and nonnegative.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite nonnegative number, got {tol}")
    problem = Problem(cfg, alignment, channel)
    failures: list[str] = []
    max_res = 0.0
    for R in _full_residuals(problem, ts):
        if R.size:
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
