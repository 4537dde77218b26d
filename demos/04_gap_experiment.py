"""A miniature gap experiment: heuristic vs exact search on truncations.

Runs the benchmark harness's row builder at toy scale: for a handful of
sizes and seeds, `bench_one` solves each augmented instance with the savings
heuristic and the branch-and-bound search, and the rows are tabulated with
their optimality gaps.  The CLI command `coptw bench` runs the same rows
over whole directories and writes a CSV.

Run from the repository root:  python demos/04_gap_experiment.py
"""

from pathlib import Path

from coptw import OracleConfig, parse_benchmark
from coptw.bench import bench_one, format_summary, summarize

DATA = Path(__file__).resolve().parent.parent / "data" / "desk"


def main():
    raw = parse_benchmark((DATA / "r100_1.txt").read_text())
    print(f"{'size':>4} {'P':>2} {'seed':>4} {'heuristic':>9} {'optimum':>8} "
          f"{'gap %':>6} {'proven':>6}")
    rows = []
    for size in (8, 10, 12):
        for seed in (1, 2):
            row = bench_one(raw, "r100", "r100_1", size, 3, seed,
                            oracle=OracleConfig(time_limit=30.0))
            rows.append(row)
            opt_str = "n/a" if row.oracle_score is None else f"{row.oracle_score:.0f}"
            gap_str = "n/a" if row.gap_percent is None else f"{row.gap_percent:.2f}"
            print(f"{size:>4} {row.team_size:>2} {seed:>4} {row.mcw_score:9.0f} "
                  f"{opt_str:>8} {gap_str:>6} {str(row.proven_optimal):>6}")
    print()
    print(format_summary(summarize(rows)))


if __name__ == "__main__":
    main()
