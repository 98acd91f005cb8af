"""The benchmark's workloads: seeded inputs, one pass of operations, output checks.

Each workload calls only public drivers (``gia.harness``, ``gia.feasibility``)
and looks them up on their module at call time, so the traced run's wrappers
see every call.  A *pass* is one unit of user work; the timed phase runs
whole passes until its time is up.

* ``fig6``: one ``run_fig6(c, seeds=(s,), rounds=cap, target_db=-60)`` per
  reference network c = 1, 2, 3 on one channel seed s - paired ALS and
  classical runs in the tightly-proper regime, no feasibility work.
* ``feasibility``: one ``feasibility_check`` per (family member, scale
  x1/x2/x3) with a fresh channel seed per pass - the ``gia sweep`` use,
  no ALS.  The family is fixed (the three reference networks plus eight
  networks per K in {3, 4, 5} drawn from ``SamplingBounds``), so every pass
  does the same amount of work and the seed only draws the channels.
* ``test1``: one ``run_test1(n, "gia", s, budget=5000)`` per pass - the
  paper's randomized test.  Its trial time is heavy-tailed; see README.md.
"""

from __future__ import annotations

import numpy as np

import gia.aligner as aligner
import gia.feasibility as feasibility
import gia.harness as harness
import gia.linalg as linalg
import gia.network as network

PASS_DB = aligner.PASS_THRESHOLD_DB

#: Reference networks of ``run_fig6`` that admit a solution (config 3 does not).
FEASIBLE_REFERENCE = {1: True, 2: True, 3: False}

#: Seed of the fixed ``feasibility`` family; ``--seed`` draws only its channels.
FAMILY_SEED = 0


def sub_seed(*words: int) -> int:
    """A 32-bit seed derived from ``words``; the same words give the same seed."""
    return int(np.random.SeedSequence([int(w) for w in words]).generate_state(1, np.uint32)[0])


def leakage_violations(trace) -> int:
    """Rounds where the raw leakage rose; same tolerance as acceptance criterion 7."""
    leaks = trace.leakages
    if leaks.size < 2:
        return 0
    active = leaks[:-1] > 1e-24
    return int(((np.diff(leaks) > 1e-12 * leaks[:-1]) & active).sum())


class Fig6:
    name = "fig6"
    unit = "run_fig6 calls"
    host_speed_adjusted = True

    def __init__(self, seed: int, cap: int = 1000, warm_rounds: int = 30):
        self.seed = seed
        self.cap = cap
        self.warm_rounds = warm_rounds

    def prepare(self) -> None:
        self.warm_seed = sub_seed(self.seed, 6, 0xFFFF)

    def warm(self) -> None:
        for cid in (1, 2, 3):
            harness.run_fig6(cid, seeds=(self.warm_seed,), rounds=self.warm_rounds,
                             target_db=PASS_DB)

    def pass_ops(self, i: int) -> list:
        s = sub_seed(self.seed, 6, i)
        return [(cid, s) for cid in (1, 2, 3)]

    def call(self, op):
        cid, s = op
        return harness.run_fig6(cid, seeds=(s,), rounds=self.cap, target_db=PASS_DB)

    def units(self, op) -> int:
        return 1

    def failures(self, op, result) -> int:
        # A pass claimed on the infeasible network is a failed operation.
        cid, _ = op
        if FEASIBLE_REFERENCE[cid]:
            return 0
        _, tg, tc = result[0]
        return int(tg.final_i_db <= PASS_DB or tc.final_i_db <= PASS_DB)

    def fingerprint(self, result) -> str:
        (s, tg, tc), = result
        return "\n".join([str(s), tg.stop_reason, tc.stop_reason,
                          *tg.csv_lines(), *tc.csv_lines()])

    def check(self, done) -> list[str]:
        errors = []
        for op, result in done:
            (_, tg, tc), = result
            bad = leakage_violations(tg)
            if bad:
                errors.append(f"fig6 {op}: ALS leakage rose in {bad} rounds")
            for algo, tr in (("gia", tg), ("classical", tc)):
                if tr.stop_reason == "tolerance" and not tr.final_i_db <= PASS_DB:
                    errors.append(f"fig6 {op}: {algo} reports a pass at {tr.final_i_db} dB")
        return errors

    def wasted_rounds(self, done) -> tuple[int, int]:
        """(rounds of feasible-network runs that ended above -60 dB, all their rounds)."""
        wasted = total = 0
        for (cid, _), result in done:
            if not FEASIBLE_REFERENCE[cid]:
                continue
            (_, tg, tc), = result
            for tr in (tg, tc):
                total += tr.rounds_used
                if tr.final_i_db > PASS_DB:
                    wasted += tr.rounds_used
        return wasted, total


class Feasibility:
    name = "feasibility"
    unit = "verdicts"
    host_speed_adjusted = False

    def __init__(self, seed: int, per_k: int = 8, scales=(1, 2, 3)):
        self.seed = seed
        self.per_k = per_k
        self.scales = tuple(scales)
        self.verdicts: dict[int, set] = {}   # member -> verdicts seen so far
        self.rank_checked: set = set()       # (member, scale) already put to the rank test

    def prepare(self) -> None:
        family = [harness.benchmark_config(cid) for cid in (1, 2, 3)]
        for K in (3, 4, 5):
            bounds = harness.SamplingBounds(K_choices=(K,))
            for i in range(self.per_k):
                cfg, _ = harness.sample_random_config(bounds, [FAMILY_SEED, K, i])
                family.append(cfg)
        self.networks = {}
        for m, cfg in enumerate(family):
            for c in self.scales:
                scaled = network.scale_config(cfg, c)
                self.networks[(m, c)] = (scaled, network.alignment_all(scaled))
        self.warm_seed = sub_seed(self.seed, 7, 0xFFFF)

    def warm(self) -> None:
        # Reference network 3 goes to the rank test at every scale.
        for c in self.scales:
            scaled, pairs = self.networks[(2, c)]
            feasibility.feasibility_check(scaled, pairs, seed=self.warm_seed)

    def pass_ops(self, i: int) -> list:
        return [(m, c, sub_seed(self.seed, 7, i, m, c)) for (m, c) in self.networks]

    def call(self, op):
        m, c, s = op
        scaled, pairs = self.networks[(m, c)]
        return feasibility.feasibility_check(scaled, pairs, seed=s)

    def units(self, op) -> int:
        return 1

    def failures(self, op, result) -> int:
        return 0

    def fingerprint(self, result) -> str:
        return result.to_line()

    def check(self, done) -> list[str]:
        """Check one pass against every verdict seen so far in this run."""
        errors = []
        for (m, c, s), report in done:
            seen = self.verdicts.setdefault(m, set())
            if seen and report.feasible not in seen:
                errors.append(f"feasibility member {m} x{c} seed {s}: verdict differs "
                              "across scales/seeds")
            seen.add(report.feasible)
            if m < 3 and report.feasible != FEASIBLE_REFERENCE[m + 1]:
                errors.append(f"feasibility reference network {m + 1} x{c}: wrong verdict")
            # A fast path does not read the channel, so one rank test per
            # network covers every verdict on it.
            if report.method == "hall_rank" or (m, c) in self.rank_checked:
                continue
            self.rank_checked.add((m, c))
            scaled, pairs = self.networks[(m, c)]
            hall = feasibility.build_coefficient_matrix(
                scaled, pairs, network.generate_channel(scaled, s))
            full = linalg.numerical_rank(hall.matrix).rank == hall.n_constraints
            if full != report.feasible:
                errors.append(f"feasibility member {m} x{c}: {report.method} says "
                              f"{report.feasible}, rank test says {full}")
        return errors

    def wasted_rounds(self, done) -> tuple[int, int]:
        return 0, 0


class Test1:
    name = "test1"
    unit = "trials"
    host_speed_adjusted = True

    def __init__(self, seed: int, trials: int = 50, budget: int = 5000):
        self.seed = seed
        self.trials = trials
        self.budget = budget

    def prepare(self) -> None:
        self.warm_seed = sub_seed(self.seed, 1, 0xFFFF)

    def warm(self) -> None:
        harness.run_test1(2, "gia", self.warm_seed, budget=50)

    def pass_ops(self, i: int) -> list:
        return [sub_seed(self.seed, 1, i)]

    def call(self, op):
        return harness.run_test1(self.trials, "gia", op, budget=self.budget)

    def units(self, op) -> int:
        return self.trials

    def failures(self, op, result) -> int:
        records, _ = result
        return sum(1 for r in records if r.feasible and not r.passed)

    def fingerprint(self, result) -> str:
        records, _ = result
        return "\n".join(r.csv_row() for r in records)

    def check(self, done) -> list[str]:
        errors = []
        for op, (records, summary) in done:
            for r in records:
                if r.passed and not r.final_i_db <= PASS_DB:
                    errors.append(f"test1 {op} trial {r.trial_id}: pass at {r.final_i_db} dB")
            if summary["n_trials"] != len(records):
                errors.append(f"test1 {op}: summary counts {summary['n_trials']} trials")
        return errors

    def wasted_rounds(self, done) -> tuple[int, int]:
        wasted = total = 0
        for _, (records, _) in done:
            for r in records:
                if r.feasible:
                    total += r.rounds_used
                    if not r.passed:
                        wasted += r.rounds_used
        return wasted, total


WORKLOADS = {w.name: w for w in (Fig6, Feasibility, Test1)}
