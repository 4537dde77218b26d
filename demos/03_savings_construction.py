"""Inspect the saving function and watch one construction trajectory.

The saving of an ordered customer pair mixes three signals: the classical
route-merge distance saving, a sweep-style bonus for pairs at an acute
depot angle, and a reward push.  Changing the three coefficients reshapes
the pair list, which is exactly how the full solver diversifies: each of
the 54 coefficient triplets drives one construction.

Run from the repository root:  python demos/03_savings_construction.py
"""

from pathlib import Path

from coptw import (
    SavingParams,
    augment,
    build_arc_set,
    build_distance_matrix,
    calc_saving_pairs,
    check_solution,
    construct,
    improve,
    mean_customer_reward,
    objective,
    parameter_grid,
    parse_benchmark,
    saving_value,
    solve,
    truncate,
)

DATA = Path(__file__).resolve().parent.parent / "data" / "desk"


def main():
    raw = parse_benchmark((DATA / "pr11_1.txt").read_text())
    inst = augment(truncate(raw, 16), seed=2, r_max=3, team_size=3)
    d = build_distance_matrix(inst)
    arcs = build_arc_set(inst, d)
    d_max, gamma_bar = float(d.max()), mean_customer_reward(inst)

    for params in (SavingParams(0.0, 0.0, 0.0), SavingParams(1.4, 0.7, 3.5)):
        # the pair list is an order only; saving_value gives each pair's value
        pairs = calc_saving_pairs(inst, d, arcs, params)
        top = ", ".join(
            f"({i},{j})={saving_value(i, j, inst, d, params, d_max, gamma_bar):.2f}"
            for i, j in pairs[:4])
        print(f"{params}: {len(pairs)} feasible pairs, top: {top}")

    print("\none trajectory, step by step:")
    params = SavingParams(0.7, 0.7, 1.4)
    built = construct(inst, arcs, d, params)
    print(f"  constructed score {objective(inst, built)}, routes {built.routes}")
    polished = improve(inst, arcs, d, built)
    print(f"  after substitution pass {objective(inst, polished)}, routes {polished.routes}")
    assert check_solution(inst, polished).feasible

    print("\nfull grid search over all 54 triplets:")
    result = solve(inst)
    print(f"  best score {result.best_score} from {result.best_params}")
    print(f"  grid scores min/max: {min(result.triplet_scores)}/{max(result.triplet_scores)}")
    print(f"  wall time {result.wall_time:.2f}s")
    assert len(parameter_grid()) == 54


if __name__ == "__main__":
    main()
