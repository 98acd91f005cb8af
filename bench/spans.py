"""Span tracing of the gia layers from outside the package.

The benchmark never edits ``gia``.  It times a layer by replacing a public
function with a timing wrapper in every namespace where a caller looks the
name up: the module that defines it, each module that imported it with
``from .x import name``, and any module-level dict that holds it (the
harness keeps its algorithms in such a dict).  Python resolves a global
name at call time, so internal calls go through the wrappers too.

Every call becomes a span: name, start, end, parent span and group.  A group
is one verdict, one trial or one ``run_fig6`` call, so the spans of one
operation share an id.  Spans are kept in memory in flat arrays and written
out when the run ends.  Self time is a span's duration minus the time
covered by its direct children, accumulated as spans close.
"""

from __future__ import annotations

import math
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: Layer -> public functions wrapped in the traced run.  Each one is named by
#: a per-layer metric; hot helpers that no metric names stay unwrapped, since
#: a wrapper costs about a microsecond per call.
LAYERS = {
    "network": ("generate_channel", "canonical_alignment", "check_channel"),
    "linalg": ("pseudo_inverse", "frobenius_norm_sq", "numerical_rank"),
    "feasibility": (
        "feasibility_check",
        "check_proper",
        "build_coefficient_matrix",
        "check_symmetric_formula",
        "check_divisible_formula",
    ),
    "aligner": (
        "receiver_update",
        "transmitter_update",
        "leakage",
        "run_gia",
        "run_classical_baseline",
    ),
    "harness": ("run_test1", "run_trial", "run_fig6"),
}

#: A span with one of these names opens a new group unless it is nested in one.
GROUP_STARTERS = frozenset({"harness.run_trial", "harness.run_fig6",
                            "feasibility.feasibility_check"})

#: Spans whose individual durations are kept for percentiles.
KEEP_DURATIONS = frozenset({"harness.run_trial", "feasibility.feasibility_check"})

ALGORITHM_SPANS = {"aligner.run_gia": "gia", "aligner.run_classical_baseline": "classical"}


class Tracer:
    """In-memory span recorder with per-name totals, self times and observations."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.durations: dict[str, list[float]] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.group = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []   # [span index, child seconds, opened a group]
        self._group = -1
        self._group_depth = 0
        self.rounds = {"gia": 0, "classical": 0}
        self.algorithm_s = {"gia": 0.0, "classical": 0.0}
        self.stops = {"tolerance": 0, "stalled": 0, "max_iters": 0}
        self.methods = {"hall_rank": 0, "proper_fail": 0,
                        "symmetric_formula": 0, "divisible_formula": 0}
        self.margin_min = math.inf
        self.dropped_max = 0.0
        self.rank_results = 0

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        if name in KEEP_DURATIONS:
            self.durations[name] = []
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        nid = self._register(name)
        starts_group = name in GROUP_STARTERS
        keep = self.durations.get(name)
        observe = self._observer(name)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            opened = starts_group and self._group_depth == 0
            if opened:
                self._group += 1
            if starts_group:
                self._group_depth += 1
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.group.append(self._group)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            self.start.append(t0)
            self.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if starts_group:
                    self._group_depth -= 1
                dur = t1 - t0
                self.end[idx] = t1
                self.calls[nid] += 1
                self.total_s[nid] += dur
                self.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep is not None:
                    keep.append(dur)
            if observe is not None:
                observe(result, dur)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _observer(self, name: str):
        if name in ALGORITHM_SPANS:
            algo = ALGORITHM_SPANS[name]

            def observe_run(result, dur):
                trace = result[1]
                self.rounds[algo] += trace.rounds_used
                self.algorithm_s[algo] += dur
                self.stops[trace.stop_reason] = self.stops.get(trace.stop_reason, 0) + 1
            return observe_run
        if name == "feasibility.feasibility_check":
            def observe_verdict(report, dur):
                self.methods[report.method] = self.methods.get(report.method, 0) + 1
            return observe_verdict
        if name == "linalg.numerical_rank":
            def observe_rank(rr, dur):
                s, tol, r = rr.singular_values, rr.tolerance_used, rr.rank
                if tol <= 0.0 or s.size == 0:
                    return
                self.rank_results += 1
                if r > 0:
                    self.margin_min = min(self.margin_min, float(s[r - 1]) / tol)
                if r < s.size:
                    self.dropped_max = max(self.dropped_max, float(s[r]) / tol)
            return observe_rank
        return None

    def stat(self, name: str) -> tuple[int, float, float]:
        """``(calls, total seconds, self seconds)`` of one wrapped function."""
        try:
            nid = self.names.index(name)
        except ValueError:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total_s[nid], self.self_s[nid]

    @property
    def n_spans(self) -> int:
        return len(self.start)

    def save(self, path) -> None:
        """Write every span as flat arrays (``.npz``); times are seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            group=np.frombuffer(self.group, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64) - t0,
            end=np.frombuffer(self.end, dtype=np.float64) - t0,
        )


def _function_ids(modules) -> dict[int, tuple[str, object]]:
    targets = {}
    for layer, names in LAYERS.items():
        mod = modules[layer]
        for name in names:
            fn = getattr(mod, name)
            targets[id(fn)] = (f"{layer}.{name}", fn)
    return targets


@contextmanager
def traced(modules, tracer: Tracer):
    """Install wrappers for every function in ``LAYERS``; restore the originals on exit.

    ``modules`` maps each layer name to its module and may hold further
    namespaces (such as the package itself) under other keys; every name
    bound to a wrapped function in any of them is replaced.
    """
    targets = _function_ids(modules)
    wrappers = {fid: tracer.wrap(name, fn) for fid, (name, fn) in targets.items()}
    undo = []
    try:
        for mod in {id(m): m for m in modules.values()}.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    undo.append((vars(mod), attr, value))
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            undo.append((value, key, item))
                            value[key] = wrappers[id(item)]
        yield tracer
    finally:
        for namespace, key, original in reversed(undo):
            namespace[key] = original
