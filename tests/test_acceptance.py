"""Acceptance suite.

Every criterion prints one `ACCEPT pass/FAIL` line (run with `pytest -s` to
see them on success).  The desk suite covers the classic small-instance
shapes: the 100-series-style and first pr-style sets at 10-12 customers,
the second pr-style set at 19-21, the 200-series-style sets at 24-26, each
with team sizes 3 and 4 and four requirement seeds, giving 192 augmented
instances.  Optimality gaps are measured only against proven
optima; rows the exact search cannot finish within its per-group node budget
are flagged and excluded, never dropped silently.  The budgets carry no time
limit, so which rows are proven does not depend on the host's speed or load.

This module is intentionally heavy (minutes of wall time): it runs the full
heuristic and the exact search over the whole desk suite once and shares the
rows across criteria.
"""

import math
import random
import time

import pytest

from coptw import (
    SavingParams,
    ScheduleInfeasible,
    Schedule,
    Solution,
    augment,
    build_distance_matrix,
    check_solution,
    exact_solve,
    mean_customer_reward,
    parse_benchmark,
    propagate_schedule,
    saving_value,
    solve,
    truncate,
)
from coptw.bench import bench_one
from coptw.cli import main
from coptw.oracle import OracleConfig

from bruteforce import best_score_bruteforce
from conftest import make_instance, random_instance
from test_savings import saving_reference

pytestmark = pytest.mark.acceptance

SEEDS = (1, 2, 3, 4)
TEAM_SIZES = (3, 4)
DESK_GROUPS = [
    # (files, sizes, oracle node budget per instance)
    (("c100_1", "r100_1", "rc100_1", "pr01_1"), (10, 11, 12), 2_000_000),
    (("pr11_1",), (19, 20, 21), 200_000),
    (("c200_1", "r200_1", "rc200_1"), (24, 25, 26), 200_000),
]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPT {'pass' if ok else 'FAIL'}: {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def desk_rows(data_dir):
    rows = []
    for files, sizes, budget in DESK_GROUPS:
        oracle = OracleConfig(node_limit=budget, time_limit=math.inf)
        for fname in files:
            raw = parse_benchmark((data_dir / f"{fname}.txt").read_text())
            for size in sizes:
                for team_size in TEAM_SIZES:
                    for seed in SEEDS:
                        rows.append(
                            bench_one(
                                raw,
                                fname.split("_")[0],
                                fname,
                                size,
                                team_size,
                                seed,
                                oracle=oracle,
                            )
                        )
    return rows


def test_criterion_1_oracle_equals_exhaustive_enumeration():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    mismatches = []
    for k in range(30):
        n = rng.randint(3, 6)
        team = rng.choice([2, 3])
        inst = random_instance(rng, n, team_size=team, t_max=300.0)
        res = exact_solve(inst, OracleConfig(time_limit=60.0))
        reference = best_score_bruteforce(inst)
        if not res.proven_optimal or res.best_score != reference:
            mismatches.append((k, res.best_score, reference))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (oracle equivalence at micro scale)",
        not mismatches and elapsed < 60.0,
        f"30 instances, 0 tolerance, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_heuristic_soundness(desk_rows):
    # bench_one asserts checker feasibility for every heuristic solution and
    # optimality_gap fails hard if a score ever exceeds a proven optimum
    solved = [r for r in desk_rows if r.mcw_score is not None]
    proven = [r for r in solved if r.proven_optimal]
    violations = [
        r for r in proven if r.oracle_score is not None and r.mcw_score > r.oracle_score
    ]
    ok = len(solved) == len(desk_rows) >= 150 and not violations
    report(
        "criterion 2 (heuristic soundness on the desk suite)",
        ok,
        f"{len(solved)}/{len(desk_rows)} instances solved and verified, "
        f"{len(proven)} proven optima, {len(violations)} dominance violations",
    )


def test_criterion_3_gap_envelope(desk_rows):
    proven = [r for r in desk_rows if r.proven_optimal and r.oracle_score is not None]
    optimal = [r for r in proven if r.mcw_score == r.oracle_score]
    mean_gap = sum(r.gap_percent for r in proven) / len(proven)
    pct_optimal = 100.0 * len(optimal) / len(proven)
    ok = mean_gap <= 10.0 and pct_optimal >= 40.0
    report(
        "criterion 3 (gap envelope over proven optima)",
        ok,
        f"mean gap {mean_gap:.2f}% (limit 10%), optimal on {pct_optimal:.1f}% "
        f"of {len(proven)} proven instances (floor 40%)",
    )


def test_criterion_4_runtime_shape(desk_rows, data_dir):
    worst_desk = max(r.mcw_time for r in desk_rows if r.mcw_time is not None)
    raw = parse_benchmark((data_dir / "c100_1.txt").read_text())
    inst = augment(raw, seed=1, r_max=3, team_size=12)
    t0 = time.perf_counter()
    result = solve(inst)
    big_time = time.perf_counter() - t0
    feasible = check_solution(inst, result.best_solution).feasible
    ok = worst_desk <= 5.0 and big_time <= 600.0 and feasible
    report(
        "criterion 4 (runtime shape)",
        ok,
        f"slowest desk solve {worst_desk:.2f}s (limit 5s); 100-customer P=12 "
        f"solve {big_time:.1f}s (limit 600s), score {result.best_score}",
    )


def test_criterion_5_saving_arithmetic():
    rng = random.Random(31415)
    worst = 0.0
    for _ in range(1000):
        inst = random_instance(rng, rng.randint(2, 7), team_size=2)
        d = build_distance_matrix(inst)
        d_max = float(d.max())
        if d_max <= 0:
            continue
        gamma_bar = mean_customer_reward(inst)
        params = SavingParams(
            rng.uniform(0, 1.4), rng.uniform(0, 1.4), rng.uniform(0, 3.5)
        )
        i = rng.randrange(1, inst.n_vertices)
        j = rng.randrange(1, inst.n_vertices)
        if i == j:
            continue
        mine = saving_value(i, j, inst, d, params, d_max, gamma_bar)
        ref = saving_reference(i, j, inst, d, params, d_max, gamma_bar)
        scale = max(abs(mine), abs(ref), 1e-12)
        worst = max(worst, abs(mine - ref) / scale)
    hand1 = make_instance(
        [(3.0, 0.0, 0.0, 0.0, 0.0, 100.0, 1), (0.0, 4.0, 0.0, 0.0, 0.0, 100.0, 1)],
        team_size=2, t_max=100.0,
    )
    d1 = build_distance_matrix(hand1)
    exact1 = saving_value(1, 2, hand1, d1, SavingParams(0.0, 0.0, 0.0), 4.0, 1.0)
    hand2 = make_instance(
        [(3.0, 0.0, 0.0, 10.0, 0.0, 100.0, 1), (0.0, 4.0, 0.0, 20.0, 0.0, 100.0, 1)],
        team_size=2, t_max=100.0,
    )
    d2 = build_distance_matrix(hand2)
    exact2 = saving_value(1, 2, hand2, d2, SavingParams(1.4, 0.7, 0.7), 4.0, 15.0)
    ok = worst <= 1e-12 and exact1 == 1.75 and exact2 == 1.4
    report(
        "criterion 5 (saving-function arithmetic)",
        ok,
        f"1000 random evaluations, worst relative error {worst:.2e} "
        f"(limit 1e-12); hand examples {exact1} and {exact2} exact",
    )


def test_criterion_6_scheduler_properties():
    rng = random.Random(271828)
    monotone_checked = windows_checked = 0
    failures = []
    for _ in range(200):
        inst = random_instance(rng, rng.randint(3, 7), team_size=rng.randint(2, 3))
        routes = _random_routes(rng, inst)
        outcome = propagate_schedule(inst, Solution(routes=routes))
        if isinstance(outcome, Schedule):
            for v, s in outcome.starts.items():
                if not inst.vertices[v].open <= s <= inst.vertices[v].close:
                    failures.append(("window bound", v))
            windows_checked += 1
            options = [
                (v, m)
                for v in range(1, inst.n_vertices)
                for m in range(inst.team_size)
                if v not in routes[m]
            ]
            rng.shuffle(options)
            for v, m in options:
                pos = rng.randint(0, len(routes[m]))
                routes[m].insert(pos, v)
                grown = propagate_schedule(inst, Solution(routes=routes))
                if isinstance(grown, Schedule):
                    monotone_checked += 1
                    for u, s in outcome.starts.items():
                        if grown.starts[u] < s:
                            failures.append(("monotonicity", u))
                    break
                routes[m].pop(pos)
        elif outcome.kind == "window":
            if outcome.vertex is None:
                failures.append(("diagnosis without vertex", None))
            windows_checked += 1
    deadlocks = 0
    for _ in range(20):
        dur_a, dur_b = rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)
        inst = make_instance(
            [
                (0.0, 0.0, dur_a, 5.0, 0.0, 1e9, 2),
                (0.0, 0.0, dur_b, 5.0, 0.0, 1e9, 2),
            ],
            team_size=2,
            t_max=1e9,
        )
        diag = propagate_schedule(inst, Solution(routes=[[1, 2], [2, 1]]))
        if (
            isinstance(diag, ScheduleInfeasible)
            and diag.kind == "deadlock"
            and diag.rounds <= 4 + 1
        ):
            deadlocks += 1
    ok = not failures and deadlocks == 20 and monotone_checked >= 50
    report(
        "criterion 6 (scheduler properties)",
        ok,
        f"200 random route sets ({windows_checked} window-checked, "
        f"{monotone_checked} insertion-monotone), {len(failures)} failures, "
        f"{deadlocks}/20 circular waits diagnosed within visits+1 rounds",
    )


def _random_routes(rng, inst):
    routes = [[] for _ in range(inst.team_size)]
    for v in range(1, inst.n_vertices):
        for m in range(inst.team_size):
            if rng.random() < 0.35 and v not in routes[m]:
                routes[m].insert(rng.randint(0, len(routes[m])), v)
    return routes


def test_criterion_7_bench_determinism(data_dir, tmp_path):
    args = [
        "bench", str(data_dir),
        "--sizes", "5,6", "--members", "3", "--seed", "11",
        "--oracle-limit", "60", "--times", "zero",
    ]
    outputs = []
    for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
        path = tmp_path / name
        assert main(args + ["-o", str(path), "--workers", workers]) == 0
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(
        "criterion 7 (bench determinism)",
        ok,
        f"{len(outputs[0].splitlines()) - 1} rows byte-identical across two "
        "runs and across serial vs parallel grid evaluation",
    )


def test_criterion_8_degenerate_toptw(data_dir):
    count = 0
    failures = []
    for fname in ("c100_1", "r100_1", "rc100_1", "pr01_1", "pr11_1"):
        raw = parse_benchmark((data_dir / f"{fname}.txt").read_text())
        for size in (8, 12):
            for seed in (1, 2):
                inst = augment(truncate(raw, size), seed, r_max=1, team_size=2)
                assert all(r == 1 for r in inst.requirements[1:])
                result = solve(inst)
                rep = check_solution(inst, result.best_solution)
                if not rep.feasible:
                    failures.append((fname, size, seed, rep.violations))
                count += 1
    ok = count == 20 and not failures
    report(
        "criterion 8 (plain-TOPTW degenerate reduction)",
        ok,
        f"{count} unit-requirement instances solved, {len(failures)} checker rejections",
    )
