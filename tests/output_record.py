"""Print a fixed record of the package's outputs, for comparing two checkouts.

Usage, from anywhere::

    python3 tests/output_record.py > record.txt

A change that should not alter any result prints the same bytes in a checkout
of its parent and in its own; ``cmp`` the two files.  The record is

* ``check_proper(cfg, pairs)``, ``check_symmetric_formula(cfg, pairs)`` and
  ``feasibility_check(...).to_line()`` for channel seeds 0, 1, 2 and for the
  supplied channel ``generate_channel(cfg, 0)`` on the benchmark's
  ``feasibility`` family (``bench/workloads.py``: 27 networks at x1/x2/x3);
* ``check_proper(cfg, pairs)``, ``check_symmetric_formula(cfg, pairs)`` and
  ``feasibility_check(cfg, pairs, seed=i).to_line()`` on 3000 random networks
  from ``random_elimination_instance`` (``tests/test_feasibility.py``) with
  rng ``[2021, i]``;
* the ``run_test1(200, algorithm, seed=0)`` rows of ``gia`` and ``classical``;
* the ``run_fig6`` traces of the three reference networks, channel seeds 0
  and 1, capped at 300 rounds.

That is 13510 lines.  The fast-path lines hold what ``to_line()`` leaves out:
the violating subset ``check_proper`` names and the closed-form verdict.

The package is imported from ``src/`` of the checkout this file lives in, and
OpenBLAS is held to one thread so that its sums run in a fixed order.  The
script takes no options and is not collected by pytest.
"""

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(TESTS)]

import numpy as np  # noqa: E402

from bench.workloads import Feasibility  # noqa: E402
from gia.feasibility import check_proper, check_symmetric_formula, feasibility_check  # noqa: E402
from gia.harness import run_fig6, run_test1  # noqa: E402
from gia.network import generate_channel  # noqa: E402
from test_feasibility import random_elimination_instance  # noqa: E402


def fast_paths(label, cfg, pairs):
    yield f"{label} proper: {check_proper(cfg, pairs)}"
    yield f"{label} symmetric: {check_symmetric_formula(cfg, pairs)}"


def bench_family():
    family = Feasibility(seed=0)
    family.prepare()
    for (m, c), (cfg, pairs) in family.networks.items():
        yield from fast_paths(f"bench {m} x{c}", cfg, pairs)
        for s in (0, 1, 2):
            yield f"bench {m} x{c} seed {s}: {feasibility_check(cfg, pairs, seed=s).to_line()}"
        supplied = feasibility_check(cfg, pairs, generate_channel(cfg, 0))
        yield f"bench {m} x{c} channel 0: {supplied.to_line()}"


def random_instances():
    for i in range(3000):
        cfg, pairs, _ = random_elimination_instance(np.random.default_rng([2021, i]))
        yield from fast_paths(f"random {i}", cfg, pairs)
        yield f"random {i}: {feasibility_check(cfg, pairs, seed=i).to_line()}"


def test1_rows():
    for algorithm in ("gia", "classical"):
        records, _ = run_test1(200, algorithm, seed=0)
        yield from (f"test1 {r.csv_row()}" for r in records)


def fig6_traces():
    for cid in (1, 2, 3):
        for seed, gia, classical in run_fig6(cid, seeds=(0, 1), rounds=300):
            for algorithm, trace in (("gia", gia), ("classical", classical)):
                label = f"fig6 {cid} seed {seed} {algorithm} {trace.stop_reason}"
                yield from (f"{label}: {line}" for line in trace.csv_lines())


def main() -> None:
    for part in (bench_family, random_instances, test1_rows, fig6_traces):
        for line in part():
            print(line)


if __name__ == "__main__":
    main()
