"""A miniature gap experiment: heuristic vs exact search on truncations.

Mirrors the benchmark harness at toy scale: for a handful of sizes and
seeds, solve each augmented instance with the savings heuristic and the
branch-and-bound search, then tabulate the optimality gaps.  The CLI
command `coptw bench` runs the same loop over whole directories and writes
a CSV.

Run from the repository root:  python demos/04_gap_experiment.py
"""

from pathlib import Path

from coptw import augment, exact_solve, optimality_gap, parse_benchmark, solve, truncate
from coptw.oracle import OracleConfig

DATA = Path(__file__).resolve().parent.parent / "data" / "desk"


def main():
    raw = parse_benchmark((DATA / "r100_1.txt").read_text())
    print(f"{'size':>4} {'P':>2} {'seed':>4} {'heuristic':>9} {'optimum':>8} "
          f"{'gap %':>6} {'proven':>6}")
    gaps = []
    for size in (8, 10, 12):
        for seed in (1, 2):
            inst = augment(truncate(raw, size), seed, r_max=3, team_size=3)
            heur = solve(inst)
            exact = exact_solve(inst, OracleConfig(time_limit=30.0),
                                incumbent=heur.best_solution)
            if exact.proven_optimal:
                gap = optimality_gap(heur.best_score, exact.best_score)
                gaps.append(gap)
                gap_str, opt_str = f"{gap:6.2f}", f"{exact.best_score:8.0f}"
            else:
                gap_str, opt_str = "   n/a", "     n/a"
            print(f"{size:>4} {3:>2} {seed:>4} {heur.best_score:9.0f} "
                  f"{opt_str} {gap_str} {str(exact.proven_optimal):>6}")
    if gaps:
        print(f"\nmean gap over {len(gaps)} proven instances: "
              f"{sum(gaps) / len(gaps):.2f}%")
        share = 100.0 * sum(1 for g in gaps if g == 0.0) / len(gaps)
        print(f"solved to optimality: {share:.0f}%")


if __name__ == "__main__":
    main()
