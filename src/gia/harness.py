"""Randomized experiment drivers: convergence trials, benchmark traces, sweeps.

All randomness is derived from a single master seed through counter-based
seed sequences, so trials are reproducible in isolation and in any
execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aligner import PASS_THRESHOLD_DB, RunTrace, run_classical_baseline, run_gia
from .feasibility import FeasibilityReport, feasibility_check
from .network import (NetworkConfig, _check_seed, _index, alignment_all, canonical_alignment,
                      generate_channel, scale_config)

__all__ = [
    "SamplingBounds",
    "TrialRecord",
    "TRIAL_CSV_HEADER",
    "BENCHMARK_CONFIGS",
    "benchmark_config",
    "sample_random_config",
    "trial_seed",
    "run_trial",
    "run_test1",
    "write_trial_csv",
    "summary_lines",
    "run_fig6",
    "sweep_feasibility",
]

#: The three reference networks of the bundled convergence experiment:
#: 1 feasible symmetric, 2 feasible asymmetric, 3 infeasible.
BENCHMARK_CONFIGS: dict[int, NetworkConfig] = {
    1: NetworkConfig(K=3, J=0, M=(6, 6, 6), N=(6, 6, 6), d=(3, 3, 3)),
    2: NetworkConfig(K=3, J=0, M=(5, 5, 5), N=(6, 6, 9), d=(3, 3, 3)),
    3: NetworkConfig(K=3, J=0, M=(5, 5, 5), N=(5, 7, 9), d=(3, 3, 3)),
}


def benchmark_config(config_id: int) -> NetworkConfig:
    config_id = _index(config_id, "config_id", ValueError)
    if config_id not in BENCHMARK_CONFIGS:
        raise ValueError(f"config_id must be one of {sorted(BENCHMARK_CONFIGS)}, got {config_id!r}")
    return BENCHMARK_CONFIGS[config_id]


@dataclass(frozen=True)
class SamplingBounds:
    """Sampling set for random interference networks (no jammers, all cross pairs).
    Bounds on which a draw would fail raise ``ValueError`` naming the field."""

    K_choices: tuple[int, ...] = (3, 4, 5)
    d_choices: tuple[int, ...] = (1, 2, 3)
    max_antennas: int = 15

    def __post_init__(self):
        for name in ("K_choices", "d_choices"):
            values = getattr(self, name)
            if not len(values) or any(_index(v, name, ValueError) < 1 for v in values):
                raise ValueError(f"{name} must be one or more positive integers, got {values!r}")
        if _index(self.max_antennas, "max_antennas", ValueError) < max(self.d_choices):
            raise ValueError(f"max_antennas must be at least max(d_choices) = "
                             f"{max(self.d_choices)}, got {self.max_antennas}")


def sample_random_config(bounds: SamplingBounds, seed) -> tuple[NetworkConfig, tuple]:
    """Draw a uniform random configuration within ``bounds``.

    ``K`` is uniform over ``K_choices``; each stream count is uniform over
    ``d_choices``; each antenna count is uniform over ``d_k .. max_antennas``
    so the per-node constraints hold by construction.  ``seed`` is an unsigned
    64-bit integer or a sequence of them.  Returns the configuration together
    with the all-cross-pairs alignment set.
    """
    words = [seed] if np.ndim(seed) == 0 else seed
    rng = np.random.default_rng(np.random.SeedSequence([_check_seed(w) for w in words]))
    K = int(rng.choice(bounds.K_choices))
    d = tuple(int(rng.choice(bounds.d_choices)) for _ in range(K))
    M = tuple(int(rng.integers(dk, bounds.max_antennas + 1)) for dk in d)
    N = tuple(int(rng.integers(dk, bounds.max_antennas + 1)) for dk in d)
    cfg = NetworkConfig(K=K, J=0, M=M, N=N, d=d)
    return cfg, alignment_all(cfg)


@dataclass(frozen=True)
class TrialRecord:
    """One randomized convergence trial, reproducible from (seed, bounds)."""

    trial_id: int
    cfg: NetworkConfig
    feasible: bool
    algorithm: str
    passed: bool
    final_i_db: float
    rounds_used: int
    seed: int

    def csv_row(self) -> str:
        return (
            f"{self.trial_id},{self.cfg.K},{'true' if self.feasible else 'false'},"
            f"{self.algorithm},{'true' if self.passed else 'false'},"
            f"{self.final_i_db!r},{self.rounds_used},{self.seed}"
        )


TRIAL_CSV_HEADER = "trial_id,K,feasible,algorithm,passed,final_I_dB,rounds_used,seed"

_ALGORITHMS = {"gia": run_gia, "classical": run_classical_baseline}


def trial_seed(master_seed: int, trial_id: int) -> int:
    """Counter-based per-trial seed: trials may run in any order or in parallel."""
    ss = np.random.SeedSequence([_check_seed(master_seed), _check_seed(trial_id)])
    return int(ss.generate_state(1, np.uint64)[0])


def _split_trial_seed(seed: int) -> tuple[int, int, int]:
    # config draw, channel draw, algorithm initialization
    return trial_seed(seed, 0), trial_seed(seed, 1), trial_seed(seed, 2)


def run_trial(trial_id: int, seed: int, algorithm: str,
              bounds: SamplingBounds = SamplingBounds(),
              budget: int = 5000) -> TrialRecord:
    """Run one convergence trial from its standalone seed.

    Samples a configuration, draws one channel, records feasibility, and -
    only if feasible - runs the chosen algorithm until it either suppresses
    interference past the pass threshold or converges above it.
    """
    if _index(budget, "budget", ValueError) < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if algorithm not in _ALGORITHMS:
        raise ValueError(f"algorithm must be one of {sorted(_ALGORITHMS)}, got {algorithm!r}")
    cfg_seed, ch_seed, algo_seed = _split_trial_seed(seed)
    cfg, pairs = sample_random_config(bounds, cfg_seed)
    channel = generate_channel(cfg, ch_seed)
    report = feasibility_check(cfg, pairs, channel)
    if not report.feasible:
        return TrialRecord(trial_id, cfg, False, algorithm, False, math.nan, 0, seed)
    _, trace = _ALGORITHMS[algorithm](
        cfg, pairs, channel,
        max_iters=budget, seed=algo_seed, target_db=PASS_THRESHOLD_DB,
    )
    passed = trace.final_i_db <= PASS_THRESHOLD_DB
    return TrialRecord(trial_id, cfg, True, algorithm, passed,
                       trace.final_i_db, trace.rounds_used, seed)


def run_test1(n_trials: int, algorithm: str = "gia", seed: int = 0,
              budget: int = 5000, bounds: SamplingBounds = SamplingBounds()):
    """Randomized convergence test over ``n_trials`` sampled networks.

    Returns
    -------
    (list of TrialRecord, dict)
        The summary reports the feasible fraction and the pass rate among
        feasible trials.
    """
    if _index(n_trials, "n_trials", ValueError) < 1:
        raise ValueError("n_trials must be at least 1")
    records = [
        run_trial(i, trial_seed(seed, i), algorithm, bounds, budget)
        for i in range(n_trials)
    ]
    feasible = [r for r in records if r.feasible]
    passed = [r for r in feasible if r.passed]
    summary = {
        "n_trials": n_trials,
        "algorithm": algorithm,
        "feasible_count": len(feasible),
        "feasible_fraction": len(feasible) / n_trials,
        "passed_count": len(passed),
        "pass_rate_among_feasible": len(passed) / len(feasible) if feasible else math.nan,
    }
    return records, summary


def write_trial_csv(path, records) -> None:
    lines = [TRIAL_CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def summary_lines(summary: dict) -> list[str]:
    return [f"{key} = {value}" for key, value in summary.items()]


def run_fig6(config_id: int, seeds=(0,), rounds: int = 5000,
             target_db: float | None = None):
    """Paired convergence traces on a benchmark configuration.

    For each seed one channel is drawn and both algorithms run on it with
    the same initialization seed.  Returns ``[(seed, gia_trace,
    classical_trace), ...]``.
    """
    cfg = benchmark_config(config_id)
    pairs = alignment_all(cfg)
    out: list[tuple[int, RunTrace, RunTrace]] = []
    for seed in seeds:
        channel = generate_channel(cfg, seed)
        _, trace_gia = run_gia(
            cfg, pairs, channel, max_iters=rounds, seed=seed, target_db=target_db
        )
        _, trace_classical = run_classical_baseline(
            cfg, pairs, channel, max_iters=rounds, seed=seed, target_db=target_db
        )
        out.append((int(seed), trace_gia, trace_classical))
    return out


def sweep_feasibility(cfg: NetworkConfig, alignment, channel_seeds=(0,),
                      scales=(1, 2)) -> list[tuple[int, int, FeasibilityReport]]:
    """Feasibility verdicts for one configuration across scalings and channel draws.

    The verdict must not depend on the scale factor ``c`` (every antenna and
    stream count times ``c``) nor on the channel seed.  The alignment set,
    every scale and every seed are checked before the first verdict; scaling
    keeps the pairs valid, so one alignment set serves every scale.  Returns
    ``[(scale, seed, report), ...]``, scale-major.
    """
    pairs = canonical_alignment(cfg, alignment)
    scaled = [(c, scale_config(cfg, c)) for c in scales]
    seeds = [_check_seed(seed) for seed in channel_seeds]
    return [(c, seed, feasibility_check(cfg_c, pairs, seed=seed))
            for c, cfg_c in scaled for seed in seeds]
