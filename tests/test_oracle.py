import random

import pytest

from coptw import (
    OracleConfig,
    check_solution,
    exact_solve,
    objective,
    optimality_gap,
    solve,
)
from coptw.oracle import _Search

from bruteforce import best_score_bruteforce
from conftest import make_instance, random_instance


class TestExactSolve:
    def test_single_reachable_customer(self):
        inst = make_instance(
            [(5.0, 0.0, 2.0, 17.0, 0.0, 50.0, 1)], team_size=1, t_max=100.0
        )
        res = exact_solve(inst)
        assert res.proven_optimal
        assert res.best_score == 17.0
        assert res.best_solution.routes == [[1]]

    def test_requirement_unmeetable(self):
        inst = make_instance(
            [(5.0, 0.0, 2.0, 17.0, 0.0, 50.0, 2)], team_size=1, t_max=100.0
        )
        res = exact_solve(inst)
        assert res.proven_optimal
        assert res.best_score == 0.0
        assert res.best_solution.routes == [[]]

    def test_cooperative_pair_requires_both_members(self):
        inst = make_instance(
            [
                (6.0, 0.0, 4.0, 5.0, 0.0, 100.0, 1),
                (8.0, 0.0, 1.0, 9.0, 0.0, 100.0, 2),
            ],
            team_size=2,
            t_max=100.0,
        )
        res = exact_solve(inst)
        assert res.proven_optimal
        assert res.best_score == 14.0
        assert check_solution(inst, res.best_solution).feasible

    def test_matches_bruteforce_enumeration(self):
        rng = random.Random(500)
        for _ in range(8):
            inst = random_instance(rng, rng.randint(3, 6), team_size=2, t_max=300.0)
            res = exact_solve(inst, OracleConfig(time_limit=60.0))
            assert res.proven_optimal
            assert res.best_score == best_score_bruteforce(inst)

    def test_bound_drops_customer_that_cannot_return(self):
        # customer 2's window is reachable from the depot and from customer
        # 1, but after its service no member gets back by the horizon
        inst = make_instance(
            [
                (5.0, 0.0, 1.0, 4.0, 0.0, 50.0, 1),
                (40.0, 0.0, 70.0, 30.0, 0.0, 99.0, 1),
            ],
            team_size=2,
            t_max=100.0,
        )
        search = _Search(inst, OracleConfig())
        assert search.bound_candidates == [1]
        res = exact_solve(inst)
        assert res.proven_optimal
        assert res.best_score == best_score_bruteforce(inst) == 4.0

    def test_incumbent_consistency(self):
        rng = random.Random(502)
        for _ in range(6):
            inst = random_instance(rng, rng.randint(4, 6), team_size=3, t_max=300.0)
            res = exact_solve(inst, OracleConfig(time_limit=60.0))
            report = check_solution(inst, res.best_solution)
            assert report.feasible, report.violations
            assert objective(inst, res.best_solution) == res.best_score
            assert len(res.best_solution.routes) == inst.team_size

    def test_node_limit_returns_incumbent_unproven(self):
        rng = random.Random(503)
        inst = random_instance(rng, 6, team_size=2, t_max=300.0)
        res = exact_solve(inst, OracleConfig(node_limit=5))
        assert not res.proven_optimal
        assert res.explored_nodes >= 5
        assert check_solution(inst, res.best_solution).feasible

    def test_heuristic_never_beats_proven_optimum(self):
        rng = random.Random(504)
        for _ in range(6):
            inst = random_instance(rng, rng.randint(4, 6), team_size=2, t_max=300.0)
            opt = exact_solve(inst, OracleConfig(time_limit=60.0))
            assert opt.proven_optimal
            heur = solve(inst)
            assert heur.best_score <= opt.best_score

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(node_limit=0)
        with pytest.raises(ValueError):
            OracleConfig(time_limit=-1.0)
        for limit in (float("nan"), 0.0, float("-inf")):
            with pytest.raises(ValueError):
                OracleConfig(time_limit=limit)
        assert OracleConfig(time_limit=float("inf")).time_limit == float("inf")  # no limit


class TestOptimalityGap:
    def test_perfect(self):
        assert optimality_gap(100.0, 100.0) == 0.0

    def test_three_percent(self):
        assert optimality_gap(97.0, 100.0) == 3.0

    def test_zero_optimum(self):
        assert optimality_gap(0.0, 0.0) == 0.0

    def test_heuristic_above_optimum_fails_hard(self):
        with pytest.raises(AssertionError):
            optimality_gap(101.0, 100.0)

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError):
            optimality_gap(-1.0, 10.0)
