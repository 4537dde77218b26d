"""Benchmark harness: augment, solve and gap-check a directory of instances.

For every (file, size, team size) combination the harness truncates the
benchmark, attaches requirements with the run's seed, solves it with the
savings heuristic and, given an `OracleConfig`, runs the exact search from
the heuristic's solution under its limits.  Gaps are reported only against
proven optima; rows the search could not finish keep their oracle columns
empty and are flagged, never silently dropped.  Requirement draws are
positional, so every size and team-size variant of the same file shares one
draw per seed.

Row order follows the sorted input files and the given size/member lists.
A fixed seed reproduces the CSV byte for byte (time columns are wall clock;
pass times='zero' to blank them) only when no row's search stops on its time
limit: such a row may be proven on a faster or idler host.  That holds with
no search, and with a node limit under `time_limit=inf`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .heuristic import solve
from .instances import augment, parse_benchmark, truncate
from .oracle import OracleConfig, exact_solve, optimality_gap
from .scheduling import check_solution

CSV_HEADER = (
    "set_name,instance_name,customers,P,mcw_score,oracle_score,"
    "gap_percent,mcw_time,oracle_time,proven_optimal"
)


@dataclass
class BenchRow:
    set_name: str
    instance_name: str
    customers: int
    team_size: int
    # a failed row keeps these defaults: empty numeric columns, not proven
    mcw_score: float | None = None
    oracle_score: float | None = None
    gap_percent: float | None = None
    mcw_time: float | None = None
    oracle_time: float | None = None
    proven_optimal: bool = False

    def to_csv(self, times: str = "wall") -> str:
        def num(x):
            return "" if x is None else repr(float(x))

        def sec(x):
            if x is None:
                return ""
            return "0.00" if times == "zero" else f"{x:.2f}"

        gap = "" if self.gap_percent is None else f"{self.gap_percent:.2f}"
        return ",".join(
            [
                self.set_name,
                self.instance_name,
                str(self.customers),
                str(self.team_size),
                num(self.mcw_score),
                num(self.oracle_score),
                gap,
                sec(self.mcw_time),
                sec(self.oracle_time),
                "true" if self.proven_optimal else "false",
            ]
        )


def bench_one(
    raw,
    set_name: str,
    instance_name: str,
    size: int,
    team_size: int,
    seed: int,
    *,
    oracle: OracleConfig | None,
    r_max: int = 3,
    workers: int = 1,
) -> BenchRow:
    """Solve one augmented truncation and compare against the exact search
    under `oracle`'s limits; `None` runs no search."""
    instance = augment(truncate(raw, size), seed, r_max, team_size=team_size)
    result = solve(instance, workers=workers)
    report = check_solution(instance, result.best_solution)
    if not report.feasible:
        raise AssertionError(
            f"{instance_name} n={size} P={team_size}: infeasible heuristic solution: "
            f"{report.violations}"
        )
    oracle_score = gap = oracle_time = None
    proven = False
    if oracle is not None:
        t0 = time.perf_counter()
        oracle_result = exact_solve(instance, oracle, incumbent=result.best_solution)
        oracle_time = time.perf_counter() - t0
        proven = oracle_result.proven_optimal
        if proven:
            oracle_score = oracle_result.best_score
            gap = optimality_gap(result.best_score, oracle_result.best_score)
    return BenchRow(
        set_name=set_name,
        instance_name=instance_name,
        customers=size,
        team_size=team_size,
        mcw_score=result.best_score,
        oracle_score=oracle_score,
        gap_percent=gap,
        mcw_time=result.wall_time,
        oracle_time=oracle_time,
        proven_optimal=proven,
    )


def run_bench(
    files: list[Path],
    sizes: list[int],
    members: list[int],
    seed: int,
    *,
    oracle: OracleConfig | None,
    r_max: int = 3,
    workers: int = 1,
) -> list[BenchRow]:
    """Benchmark every (file, size, P) combination.  A file that cannot be
    read or parsed, and a row that fails, are reported on stderr and recorded
    as rows with empty numeric columns; the harness moves on."""
    # a bad size, team size or r_max is an input error for the whole run;
    # inside the loop it would only be recorded as a failed row, once per
    # row.  A size above one file's customer count stays a row failure,
    # since the files differ in size, and so does a team size above the sum
    # of one row's drawn requirements (augment rejects it).
    for name, values in (("sizes", sizes), ("team sizes", members), ("r_max", [r_max])):
        if min(values) < 1:
            raise ValueError(f"{name} must be at least 1, got {min(values)}")
    if max(members) > max(sizes) * r_max:
        raise ValueError(f"team size {max(members)} exceeds {max(sizes) * r_max}, "
                         "the largest size times r_max")
    rows: list[BenchRow] = []
    for path in sorted(files):
        name = path.stem
        set_name = name.split("_", 1)[0]
        try:
            raw = parse_benchmark(path.read_text())
        except (OSError, ValueError) as exc:  # a ParseError, ValidationError or bad byte
            print(f"bench: skipping {path}: {exc}", file=sys.stderr)
            rows += [BenchRow(set_name, name, size, team_size)
                     for size in sizes for team_size in members]
            continue
        for size in sizes:
            for team_size in members:
                try:
                    rows.append(bench_one(raw, set_name, name, size, team_size, seed,
                                          oracle=oracle, r_max=r_max, workers=workers))
                except ValueError as exc:
                    print(f"bench: {name} n={size} P={team_size} failed: {exc}",
                          file=sys.stderr)
                    rows.append(BenchRow(set_name, name, size, team_size))
    return rows


def rows_to_csv(rows: list[BenchRow], times: str = "wall") -> str:
    return "\n".join([CSV_HEADER] + [row.to_csv(times) for row in rows]) + "\n"


def summarize(rows: list[BenchRow]) -> dict:
    """Mean gap and share of optima over the proven rows, from row values."""
    solved = [r for r in rows if r.mcw_score is not None]
    proven = [r for r in solved if r.proven_optimal and r.oracle_score is not None]
    optimal = [r for r in proven if r.mcw_score == r.oracle_score]
    mean_gap = (
        sum(r.gap_percent for r in proven) / len(proven) if proven else None
    )
    return {
        "rows": len(rows),
        "solved": len(solved),
        "proven": len(proven),
        "optimal": len(optimal),
        "mean_gap_percent": None if mean_gap is None else round(mean_gap, 2),
        "pct_optimal": (
            None if not proven else round(100.0 * len(optimal) / len(proven), 1)
        ),
        "max_mcw_time": max((r.mcw_time for r in solved), default=0.0),
    }


def format_summary(summary: dict) -> str:
    lines = [
        f"instances: {summary['rows']} ({summary['solved']} solved, "
        f"{summary['proven']} with proven optimum)",
    ]
    if summary["mean_gap_percent"] is None:
        lines.append("mean gap: n/a (no proven optima)")
    else:
        lines.append(
            f"mean gap over proven optima: {summary['mean_gap_percent']:.2f}%"
        )
        lines.append(
            f"solved to optimality: {summary['optimal']}/{summary['proven']} "
            f"({summary['pct_optimal']:.1f}% of proven)"
        )
    lines.append(
        f"slowest heuristic solve: {summary['max_mcw_time']:.2f}s "
        "(wall clock; times depend on this machine)"
    )
    return "\n".join(lines)
