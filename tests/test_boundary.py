"""The input checks at the package boundary cover every path into ``gia.linalg``.

``linalg`` checks nothing, so each public function that reaches it must
reject a non-finite channel link (``ConfigError`` naming the link) and, if
it takes a point, a non-finite transceiver block (``ValueError`` naming the
block) before any input gets there.  The test replaces the ``linalg`` names
that ``aligner`` and ``feasibility`` look up by a function that fails if
called.
"""

import numpy as np
import pytest

from conftest import CONFIG_INFEASIBLE, random_point
from gia import aligner, feasibility, linalg
from gia.network import ConfigError, Problem, TransceiverSet, alignment_all, generate_channel

CFG = CONFIG_INFEASIBLE  # config 3: feasibility_check decides it by the rank test
PAIRS = alignment_all(CFG)


def on_problem(fn):
    return lambda channel, ts: fn(Problem(CFG, PAIRS, channel), ts)


#: name -> (call(channel, ts), whether it takes a point, whether it calls linalg itself)
ENTRY_POINTS = {
    "run_gia": (lambda channel, _ts: aligner.run_gia(CFG, PAIRS, channel, max_iters=1),
                False, True),
    "run_classical_baseline": (
        lambda channel, _ts: aligner.run_classical_baseline(CFG, PAIRS, channel, max_iters=1),
        False, True),
    "feasibility_check": (lambda channel, _ts: feasibility.feasibility_check(CFG, PAIRS, channel),
                          False, True),
    "build_coefficient_matrix": (
        lambda channel, _ts: feasibility.build_coefficient_matrix(CFG, PAIRS, channel),
        False, False),
    "build_jacobian": (lambda channel, ts: feasibility.build_jacobian(CFG, PAIRS, channel, ts),
                       True, False),
    "verify_solution": (lambda channel, ts: aligner.verify_solution(CFG, PAIRS, channel, ts),
                        True, True),
    "leakage": (on_problem(aligner.leakage), True, True),
    "residual_vector": (on_problem(aligner.residual_vector), True, False),
    "receiver_update": (on_problem(aligner.receiver_update), True, True),
    "transmitter_update": (on_problem(aligner.transmitter_update), True, True),
}


class ReachedLinalg(Exception):
    pass


@pytest.fixture
def linalg_unreachable(monkeypatch):
    def unreachable(*args):
        raise ReachedLinalg(args)

    for module in (aligner, feasibility):
        names = [name for name in linalg.__all__ if callable(getattr(module, name, None))
                 and getattr(module, name) is getattr(linalg, name)]
        assert names, f"{module.__name__} looks up no linalg function"
        for name in names:
            monkeypatch.setattr(module, name, unreachable)


def spoiled(arrays, index):
    """Copy of the tuple ``arrays`` with one ``inf`` entry in ``arrays[index]``."""
    out = [a.copy() for a in arrays]
    out[index][-1, 0] = np.inf
    return tuple(out)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_nonfinite_input_rejected_before_linalg(name, linalg_unreachable):
    call, takes_point, calls_linalg = ENTRY_POINTS[name]
    channel = generate_channel(CFG, 0)
    ts = random_point(CFG, 1)

    bad_channel = dict(channel)
    bad_channel[(2, 3)] = channel[(2, 3)].copy()
    bad_channel[(2, 3)][0, 1] = np.inf
    with pytest.raises(ConfigError, match=r"channel \(2,3\) has non-finite entries"):
        call(bad_channel, ts)

    if takes_point:
        for bad, message in (
            (TransceiverSet(spoiled(ts.U, 1), ts.V), "decoder 2 has non-finite entries"),
            (TransceiverSet(ts.U, spoiled(ts.V, 2)), "precoder 3 has non-finite entries"),
        ):
            with pytest.raises(ValueError, match=message):
                call(channel, bad)

    # the control: on good input the function does reach linalg, if it calls it
    if calls_linalg:
        with pytest.raises(ReachedLinalg):
            call(channel, ts)
    else:
        call(channel, ts)
