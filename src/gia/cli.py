"""Command-line interface.

Subcommands: ``feasibility`` (verdict for a config file), ``design``
(transceiver design with trace and solution dump), ``test1`` (randomized
convergence trials), ``fig6`` (paired traces on the benchmark
configurations), ``sweep`` (feasibility across seeds and scalings).

Exit codes: 0 success / feasible, 1 negative result, 2 usage, parse or I/O error.
All output is deterministic given the flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .aligner import run_gia, verify_solution
from .feasibility import FeasibilityReport, feasibility_check
from .harness import (
    BENCHMARK_CONFIGS,
    run_fig6,
    run_test1,
    summary_lines,
    sweep_feasibility,
    write_trial_csv,
)
from .network import ConfigError, TransceiverSet, _check_seed, generate_channel, load_config

__all__ = ["main"]


def format_complex(z: complex) -> str:
    """Render one complex entry as ``a+bi`` with round-trippable precision."""
    re = repr(float(z.real))
    im = repr(float(z.imag))
    sign = "" if im.startswith("-") else "+"
    return f"{re}{sign}{im}i"


def dump_transceivers(path, ts: TransceiverSet) -> None:
    """Write a transceiver set as per-matrix text blocks (``U k rows cols`` headers)."""
    lines: list[str] = []
    for k, u in enumerate(ts.U, start=1):
        lines.append(f"U {k} {u.shape[0]} {u.shape[1]}")
        lines.extend(" ".join(format_complex(z) for z in row) for row in u)
    for j, v in enumerate(ts.V, start=1):
        lines.append(f"V {j} {v.shape[0]} {v.shape[1]}")
        lines.extend(" ".join(format_complex(z) for z in row) for row in v)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _seed(text: str) -> int:
    """argparse type: one seed, an unsigned 64-bit integer."""
    try:
        return _check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an unsigned 64-bit integer seed") from None


def _seeds(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated seeds."""
    return tuple(_seed(item) for item in text.split(","))


def _nonnegative(kind):
    """argparse type for a finite, nonnegative ``kind`` (``int`` or ``float``)."""
    def parse(text: str):
        value = kind(text)  # a ValueError here reads "invalid <kind> value"
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite nonnegative number")
        return value
    parse.__name__ = kind.__name__
    return parse


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _ints(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated integers."""
    try:
        return tuple(int(item) for item in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers") from None


def _check_parent(*paths) -> None:
    """Fail before any work if an output path (``None``: none) is a directory
    or its directory is missing."""
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"directory of {path} does not exist")
        if Path(path).is_dir():
            raise IsADirectoryError(f"{path} is a directory")


def _load(path, seed_flag):
    cfg, pairs, file_seed = load_config(path)
    seed = seed_flag if seed_flag is not None else (file_seed if file_seed is not None else 0)
    return cfg, pairs, seed


def _cmd_feasibility(args) -> int:
    cfg, pairs, seed = _load(args.config, args.seed)
    report = feasibility_check(cfg, pairs, seed=seed)
    print(report.to_line())
    return 0 if report.feasible else 1


def _cmd_design(args) -> int:
    solution_path = args.solution or f"{args.out}.solution.txt"
    _check_parent(args.out, solution_path)
    cfg, pairs, seed = _load(args.config, args.seed)
    channel = generate_channel(cfg, seed)
    report = feasibility_check(cfg, pairs, channel, seed=seed)
    if not report.feasible:
        print(f"warning: configuration judged infeasible ({report.to_line()}); running anyway",
              file=sys.stderr)
    # every residual entry is at most sqrt(leakage), so stopping below tol**2
    # leaves each one within the verification tolerance (tol * tol: inf, not OverflowError)
    ts, trace = run_gia(cfg, pairs, channel, max_iters=args.budget,
                        leak_tol=args.tol * args.tol, seed=seed)
    trace.write_csv(args.out)
    verdict = verify_solution(cfg, pairs, channel, ts, tol=args.tol)
    print(f"final_I_dB = {trace.final_i_db!r}")
    print(f"rounds_used = {trace.rounds_used}")
    print(f"stop_reason = {trace.stop_reason}")
    print(f"verification = {'pass' if verdict.passed else 'fail'}")
    for failure in verdict.failures:
        print(f"verification_failure: {failure}")
    if verdict.passed:
        dump_transceivers(solution_path, ts)
        print(f"solution = {solution_path}")
    return 0 if verdict.passed else 1


def _cmd_test1(args) -> int:
    _check_parent(args.out)
    records, summary = run_test1(
        args.trials, algorithm=args.algorithm, seed=args.seed, budget=args.budget
    )
    if args.out:
        write_trial_csv(args.out, records)
    for line in summary_lines(summary):
        print(line)
    all_feasible_passed = all(r.passed for r in records if r.feasible)
    return 0 if all_feasible_passed else 1


def _cmd_fig6(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_fig6(args.id, seeds=(args.seed,), rounds=args.rounds,
                       target_db=args.stop_db)
    _, trace_gia, trace_classical = results[0]
    trace_gia.write_csv(out_dir / "gia.csv")
    trace_classical.write_csv(out_dir / "classical.csv")
    print(f"gia: final_I_dB = {trace_gia.final_i_db!r} after {trace_gia.rounds_used} rounds")
    print(f"classical: final_I_dB = {trace_classical.final_i_db!r} "
          f"after {trace_classical.rounds_used} rounds")
    return 0


def _cmd_sweep(args) -> int:
    _check_parent(args.out)
    cfg, pairs, _ = load_config(args.config)
    lines = [f"scale,seed,{FeasibilityReport.FIELDS}"]
    lines.extend(f"{c},{seed},{report.to_line()}"
                 for c, seed, report in sweep_feasibility(cfg, pairs, args.seeds, args.scales))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gia", allow_abbrev=False,
        description="Interference alignment with jammers: feasibility tests, "
                    "transceiver design and randomized convergence experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_command("feasibility", help="decide feasibility for a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=_cmd_feasibility)

    p = add_command("design", help="design transceivers and verify the solution")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="trace CSV path")
    p.add_argument("--solution", default=None, help="solution dump path (default: <out>.solution.txt)")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--budget", type=_nonnegative(int), default=5000, help="maximum rounds")
    p.add_argument("--tol", type=_nonnegative(float), default=1e-6,
                   help="verification residual tolerance; the run stops once leakage < tol**2")
    p.set_defaults(func=_cmd_design)

    p = add_command("test1", help="randomized convergence trials on sampled networks")
    p.add_argument("-n", "--trials", type=int, required=True)
    p.add_argument("--algorithm", choices=("gia", "classical"), default="gia")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--budget", type=_nonnegative(int), default=5000)
    p.add_argument("--out", default=None, help="trial CSV path")
    p.set_defaults(func=_cmd_test1)

    p = add_command("fig6", help="paired convergence traces on a benchmark configuration")
    p.add_argument("--id", type=int, choices=sorted(BENCHMARK_CONFIGS), required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--rounds", type=_nonnegative(int), default=5000)
    p.add_argument("--stop-db", type=_finite, default=None, dest="stop_db",
                   help="optional early stop: each trace ends once it reaches this level")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=_cmd_fig6)

    p = add_command("sweep", help="feasibility across channel seeds and scalings")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=_seeds, default="0,1,2,3,4,5,6,7,8,9",
                   help="comma-separated channel seeds")
    p.add_argument("--scales", type=_ints, default="1,2", help="comma-separated scale factors")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "test1" and args.trials < 1:
        parser.error("test1 requires at least one trial")
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
