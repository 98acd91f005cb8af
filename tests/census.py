"""Decide every small three-user network and check each verdict against the rank oracle.

Usage, from anywhere::

    python3 tests/census.py > census.txt

The census is every network with K = 3 users, no jammers, ``d <= 3`` and
``d <= M, N <= 6`` for each user, and every cross pair aligned, up to user
permutation: ``C(79, 3) = 79079`` multisets of the 77 user types
``(d, M, N)``, in lexicographic order.  Network ``i`` gets the channel
``generate_channel(cfg, i)``, and that channel goes to both
``feasibility_check`` and the oracle, the full rank of
``build_coefficient_matrix``.  The script prints

* the count of each ``(method, feasible)`` outcome of ``feasibility_check``;
* every conflict, a verdict that differs from the oracle's, with the
  network, the verdict record and the oracle's rank;
* one SHA-256 of all ``to_line()`` records and one of all ``check_proper``
  results, so two checkouts can be compared with ``cmp``.

The package is imported from ``src/`` of the checkout this file lives in, and
OpenBLAS is held to one thread so that its sums run in a fixed order.  The
script takes no options and is not collected by pytest.
"""

import hashlib
import itertools
import os
import sys
from collections import Counter
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gia.feasibility import build_coefficient_matrix, check_proper, feasibility_check  # noqa: E402
from gia.linalg import numerical_rank  # noqa: E402
from gia.network import NetworkConfig, alignment_all, generate_channel  # noqa: E402

USER_TYPES = [(d, M, N) for d in (1, 2, 3) for M in range(d, 7) for N in range(d, 7)]


def networks():
    for users in itertools.combinations_with_replacement(USER_TYPES, 3):
        d, M, N = zip(*users)
        yield NetworkConfig(K=3, J=0, M=M, N=N, d=d)


def main() -> None:
    outcomes = Counter()
    conflicts = 0
    records, proper = hashlib.sha256(), hashlib.sha256()
    for i, cfg in enumerate(networks()):
        pairs = alignment_all(cfg)
        channel = generate_channel(cfg, i)
        report = feasibility_check(cfg, pairs, channel)
        hall = build_coefficient_matrix(cfg, pairs, channel)
        rank = numerical_rank(hall.matrix).rank
        outcomes[report.method, report.feasible] += 1
        if report.feasible != (rank == hall.n_constraints):
            conflicts += 1
            print(f"conflict {i}: M={cfg.M} N={cfg.N} d={cfg.d}: {report.to_line()}, "
                  f"oracle rank {rank} of {hall.n_constraints}")
        records.update(f"{report.to_line()}\n".encode())
        proper.update(f"{check_proper(cfg, pairs)}\n".encode())
    print(f"networks: {sum(outcomes.values())}")
    for (method, feasible), count in sorted(outcomes.items()):
        print(f"{method} {'feasible' if feasible else 'infeasible'}: {count}")
    print(f"conflicts: {conflicts}")
    print(f"sha256 to_line: {records.hexdigest()}")
    print(f"sha256 check_proper: {proper.hexdigest()}")


if __name__ == "__main__":
    main()
