"""Decide every small network and check each verdict against the rank oracle.

Usage, from anywhere::

    python3 tests/census.py > census.txt

The census has two parts, each enumerated in a fixed order:

* **K = 3**: every network with K = 3 users, no jammers, ``d <= 3`` and
  ``d <= M, N <= 6`` for each user, and every cross pair aligned, up to user
  permutation: ``C(79, 3) = 79079`` multisets of the 77 user types
  ``(d, M, N)``, in lexicographic order.
* **K = 2, J <= 1**: every network with K = 2 users, ``d <= 3`` and
  ``d <= M, N <= 4`` for each user, no jammer or one jammer ``(d, M)`` with
  ``d <= M <= 4``, and every nonempty subset of the cross pairs aligned,
  users taken unordered: ``C(30, 2) = 435`` multisets of the 29 user types,
  times 3 subsets without a jammer (1305) or 9 jammers and 15 subsets with
  one (58725), 60030 in all.  This part covers jammer loads and partial
  alignment sets.

Network ``i`` of a part gets the channel ``generate_channel(cfg, i)``, and
that channel goes to both ``feasibility_check`` and the oracle, the full rank
of ``build_coefficient_matrix``.  For each part the script prints

* the count of each ``(method, feasible)`` outcome of ``feasibility_check``;
* every conflict, a verdict that differs from the oracle's, with the
  network, the verdict record and the oracle's rank;
* one SHA-256 each of all ``to_line()`` records, all ``check_proper``
  results and all ``check_symmetric_formula`` results, so two checkouts can
  be compared with ``cmp``.

The package is imported from ``src/`` of the checkout this file lives in, and
OpenBLAS is held to one thread so that its sums run in a fixed order.  The
script takes no options and is not collected by pytest; ``test_census.py``
decides a sample of each part.
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

from gia.feasibility import (  # noqa: E402
    build_coefficient_matrix,
    check_proper,
    check_symmetric_formula,
    feasibility_check,
)
from gia.linalg import numerical_rank  # noqa: E402
from gia.network import NetworkConfig, alignment_all, generate_channel  # noqa: E402


def user_types(max_antennas):
    return [(d, M, N) for d in (1, 2, 3) for M in range(d, max_antennas + 1)
            for N in range(d, max_antennas + 1)]


def three_users():
    for users in itertools.combinations_with_replacement(user_types(6), 3):
        d, M, N = zip(*users)
        cfg = NetworkConfig(K=3, J=0, M=M, N=N, d=d)
        yield cfg, alignment_all(cfg)


def two_users_and_a_jammer():
    for jammer in [()] + [((d, M),) for d in (1, 2, 3) for M in range(d, 5)]:
        for users in itertools.combinations_with_replacement(user_types(4), 2):
            d, M = zip(*[user[:2] for user in users], *jammer)
            cfg = NetworkConfig(K=2, J=len(jammer), M=M, N=tuple(N for *_, N in users), d=d)
            pairs = alignment_all(cfg)
            for size in range(1, len(pairs) + 1):
                yield from ((cfg, subset) for subset in itertools.combinations(pairs, size))


PARTS = {"K = 3": three_users, "K = 2, J <= 1": two_users_and_a_jammer}


def decide(i, cfg, pairs):
    """Network ``i``'s verdict and whether the oracle disagrees with it.

    Returns ``(report, conflict)``, where ``conflict`` is None or a line naming
    the network, the verdict record and the oracle's rank.
    """
    channel = generate_channel(cfg, i)
    report = feasibility_check(cfg, pairs, channel)
    hall = build_coefficient_matrix(cfg, pairs, channel)
    rank = numerical_rank(hall.matrix).rank
    if report.feasible == (rank == hall.n_constraints):
        return report, None
    return report, (f"conflict {i}: M={cfg.M} N={cfg.N} d={cfg.d} pairs={pairs}: "
                    f"{report.to_line()}, oracle rank {rank} of {hall.n_constraints}")


def run_part(networks) -> None:
    outcomes = Counter()
    conflicts = 0
    records, proper, symmetric = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for i, (cfg, pairs) in enumerate(networks()):
        report, conflict = decide(i, cfg, pairs)
        outcomes[report.method, report.feasible] += 1
        if conflict:
            conflicts += 1
            print(conflict)
        records.update(f"{report.to_line()}\n".encode())
        proper.update(f"{check_proper(cfg, pairs)}\n".encode())
        symmetric.update(f"{check_symmetric_formula(cfg, pairs)}\n".encode())
    print(f"networks: {sum(outcomes.values())}")
    for (method, feasible), count in sorted(outcomes.items()):
        print(f"{method} {'feasible' if feasible else 'infeasible'}: {count}")
    print(f"conflicts: {conflicts}")
    print(f"sha256 to_line: {records.hexdigest()}")
    print(f"sha256 check_proper: {proper.hexdigest()}")
    print(f"sha256 check_symmetric_formula: {symmetric.hexdigest()}")


def main() -> None:
    for name, networks in PARTS.items():
        print(f"part {name}")
        run_part(networks)


if __name__ == "__main__":
    main()
