"""Command-line front end.

Subcommands: augment, solve, verify, oracle, bench.  Exit status 0 on
success, 1 when verification fails, 2 on input errors.  Each file named on
the command line is read through `_load` and each output is written through
`_write`, so a path that cannot be read, decoded, parsed or written is an
input error naming that path.  `augment`, `solve` and `bench` check their
output path through `_output` before their main work runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import partial
from pathlib import Path

from .bench import format_summary, rows_to_csv, run_bench, summarize
from .heuristic import solve as solve_heuristic
from .instances import (
    ParseError,
    augment,
    parse_benchmark,
    read_coptw,
    truncate,
    write_coptw,
)
from .oracle import OracleConfig, exact_solve
from .scheduling import check_solution, format_solution, objective, parse_solution

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2


def _load(path: str, parse):
    """`parse` applied to the text of `path`.  A file that cannot be read or
    decoded, or text that `parse` rejects, raises ParseError naming `path`."""
    # UnicodeDecodeError is a ValueError: the read step is caught on its own
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        return parse(text)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _output(path: str | Path) -> Path:
    """`path` if it names a file in a writable directory, else ParseError.
    Checked without creating or truncating the file, so an input error
    found later leaves no output; `_write` still catches what this misses."""
    out = Path(path)
    if out.is_dir() or not os.access(out.parent, os.W_OK):
        raise ParseError(f"cannot write {out}: not a file in a writable directory")
    return out


def _write(path: Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _workers(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_augment(args) -> int:
    raw = _load(args.input, partial(parse_benchmark, layout=args.layout))
    out = _output(args.output or Path(args.input).with_suffix(".coptw"))
    if args.n is not None:
        raw = truncate(raw, args.n)
    instance = augment(
        raw, args.seed, args.r_max, team_size=args.members, velocity=args.velocity
    )
    _write(out, write_coptw(instance))
    print(
        f"wrote {out}: {instance.n_customers} customers, P={instance.team_size}, "
        f"T_max={instance.t_max}, seed={args.seed}, r_max={args.r_max}"
    )
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance = _load(args.instance, read_coptw)
    out = _output(args.output or Path(args.instance).with_suffix(".sol"))
    result = solve_heuristic(instance, workers=args.workers)
    _write(out, format_solution(result.best_solution, result.best_score))
    print(f"score: {result.best_score}")
    print(f"time: {result.wall_time:.2f}s")
    print(f"solution: {out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = _load(args.instance, read_coptw)
    solution, claimed = _load(args.solution, parse_solution)
    # an id outside the instance means the two files do not belong together
    unknown = [v for route in solution.routes for v in route
               if not 0 <= v < instance.n_vertices]
    if unknown:
        raise ParseError(f"{args.solution} does not match {args.instance}: "
                         f"unknown vertex {unknown[0]}")
    report = check_solution(instance, solution)
    score = objective(instance, solution)
    if report.feasible and claimed != score:
        report.feasible = False
        report.violations.append(
            ("requirement", f"file claims score {claimed}, routes collect {score}")
        )
    if report.feasible:
        print(f"feasible, score {score}")
        return EXIT_OK
    print("infeasible:")
    for family, detail in report.violations:
        print(f"  {family}: {detail}")
    return EXIT_INFEASIBLE


def _cmd_oracle(args) -> int:
    instance = _load(args.instance, read_coptw)
    config = OracleConfig(node_limit=args.node_limit, time_limit=args.time_limit)
    t0 = time.perf_counter()
    result = exact_solve(instance, config)
    elapsed = time.perf_counter() - t0
    flag = "proven optimal" if result.proven_optimal else f"not proven ({result.stopped_by})"
    print(f"score: {result.best_score} ({flag})")
    print(f"nodes: {result.explored_nodes}")
    print(f"time: {elapsed:.2f}s")
    return EXIT_OK


def _cmd_bench(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ParseError(f"{directory} is not a directory")
    files = sorted(p for p in directory.iterdir() if p.is_file())
    if not files:
        raise ParseError(f"no instance files in {directory}")
    sizes = [int(s) for s in args.sizes.split(",")]
    members = [int(s) for s in args.members.split(",")]
    out = _output(args.output)
    # built under --no-oracle too, so a bad limit is an input error either way
    oracle = OracleConfig(time_limit=args.oracle_limit)
    rows = run_bench(files, sizes, members, seed=args.seed,
                     oracle=None if args.no_oracle else oracle,
                     r_max=args.r_max, workers=args.workers)
    _write(out, rows_to_csv(rows, times=args.times))
    print(format_summary(summarize(rows)))
    print(f"csv: {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coptw",
        description="Cooperative orienteering with time windows: augment "
        "benchmarks, solve, verify, and measure optimality gaps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", help="attach member requirements to a benchmark file")
    p.add_argument("input", help="benchmark file (Solomon-derived or Cordeau pr layout)")
    p.add_argument("-o", "--output", help="output path (default: input with .coptw suffix)")
    p.add_argument("--layout", choices=["auto", "solomon", "cordeau"], default="auto")
    p.add_argument("--seed", type=int, default=0, help="requirement draw seed")
    p.add_argument("--r-max", type=int, default=3, help="requirements drawn from 1..r_max")
    p.add_argument("-n", type=int, default=None, help="keep only the first n customers")
    p.add_argument("-P", "--members", type=int, default=3, help="team size")
    p.add_argument("-V", "--velocity", type=float, default=1.0, help="travel velocity")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("solve", help="run the savings heuristic on a COPTW file")
    p.add_argument("instance", help="normalized COPTW file")
    p.add_argument("-o", "--output", help="solution path (default: instance with .sol suffix)")
    p.add_argument("--workers", type=_workers, default=1,
                   help="parallel triplet evaluations (capped at the usable CPUs)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a solution file against its instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exact search for the optimum of a COPTW file")
    p.add_argument("instance")
    p.add_argument("--time-limit", type=float, default=300.0)
    p.add_argument("--node-limit", type=int, default=10**9)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="augment+solve+oracle a directory of benchmarks")
    p.add_argument("directory")
    p.add_argument("-o", "--output", required=True, help="CSV output path")
    p.add_argument("--sizes", default="10,11,12", help="comma-separated truncation sizes")
    p.add_argument("--members", default="3,4", help="comma-separated team sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r-max", type=int, default=3)
    p.add_argument("--oracle-limit", type=float, default=300.0)
    p.add_argument("--workers", type=_workers, default=1,
                   help="parallel triplet evaluations (capped at the usable CPUs)")
    p.add_argument("--no-oracle", action="store_true", help="skip the exact search")
    p.add_argument(
        "--times",
        choices=["wall", "zero"],
        default="wall",
        help="'zero' blanks time columns for byte-reproducible CSVs",
    )
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ParseError and ValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
