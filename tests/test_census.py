"""The census script must keep running against the package it checks.

``tests/census.py`` is not collected by pytest and takes over a minute,
so a rename or a signature change in ``gia`` would otherwise only surface
when someone runs it.  These tests import it, count each part's networks and
decide every 500th network of each part against the rank oracle.
"""

import importlib.util
import itertools
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

CENSUS = Path(__file__).resolve().parent / "census.py"
SIZES = {"K = 3": 79079, "K = 2, J <= 1": 60030}
STRIDE = 500


def load_census():
    """Import the script, leaving ``os.environ`` and ``sys.path`` as they were.

    On import it sets ``OPENBLAS_NUM_THREADS`` and puts its checkout's ``src``
    first on the path.
    """
    environ, path = os.environ.copy(), sys.path.copy()
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        for name in set(os.environ) - set(environ):
            del os.environ[name]
        os.environ.update(environ)
        sys.path[:] = path
    return module


@pytest.fixture(scope="module")
def census():
    return load_census()


def test_import_leaves_environment_and_path():
    environ, path = dict(os.environ), list(sys.path)
    load_census()
    assert (dict(os.environ), sys.path) == (environ, path)


def test_part_sizes(census):
    assert {name: sum(1 for _ in networks()) for name, networks in census.PARTS.items()} == SIZES


@pytest.mark.parametrize("name", SIZES)
def test_sampled_verdicts_agree_with_the_oracle(census, name):
    outcomes, conflicts = Counter(), []
    sample = itertools.islice(census.PARTS[name](), 0, None, STRIDE)
    for i, (cfg, pairs) in zip(itertools.count(0, STRIDE), sample):
        report, conflict = census.decide(i, cfg, pairs)
        outcomes[report.method, report.feasible] += 1
        if conflict:
            conflicts.append(conflict)
    assert sum(outcomes.values()) == len(range(0, SIZES[name], STRIDE))
    assert conflicts == []
    # the sample reaches the rank test both ways and the properness cut
    assert {("hall_rank", True), ("hall_rank", False), ("proper_fail", False)} <= set(outcomes), outcomes
