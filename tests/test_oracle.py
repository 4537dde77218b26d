import dataclasses
import math
import random
import re

import pytest

from coptw import (
    OracleConfig,
    Solution,
    check_solution,
    empty_solution,
    exact_solve,
    objective,
    optimality_gap,
    prepare,
    solve,
)
from coptw.oracle import _Search
from coptw.scheduling import TravelTimes

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
        # both starts: from the heuristic's solution and cold
        rng = random.Random(500)
        for _ in range(8):
            inst = random_instance(rng, rng.randint(3, 6), team_size=2, t_max=300.0)
            reference = best_score_bruteforce(inst)
            for incumbent in (None, empty_solution(inst.team_size)):
                res = exact_solve(inst, OracleConfig(time_limit=60.0), incumbent)
                assert res.proven_optimal
                assert res.best_score == reference

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
        search = _Search(prepare(inst), OracleConfig())
        assert search.bound_candidates == [1]
        res = exact_solve(inst)
        assert res.proven_optimal
        assert res.best_score == best_score_bruteforce(inst) == 4.0

    def test_bound_counts_late_customer_only_for_unopened_routes(self):
        # the open route's tail (customer 1, left at 10) reaches customer 2
        # at 10 + sqrt(200) > 15, its close; a route from the depot gets
        # there at 10
        inst = make_instance(
            [
                (10.0, 0.0, 0.0, 6.0, 0.0, 100.0, 2),
                (0.0, 10.0, 0.0, 5.0, 0.0, 15.0, 1),
            ],
            team_size=2,
            t_max=100.0,
        )
        res = exact_solve(inst)
        assert res.proven_optimal
        assert res.best_score == best_score_bruteforce(inst) == 11.0

        search = _Search(prepare(inst), OracleConfig())
        search.routes = [[1]]
        search.open_set = {1}
        search.count[1] = 1
        search.s[1] = 10.0
        assert search._bound() == 11.0  # one unopened route: 2 still counts
        search.routes = [[1], [1]]
        search.count[1] = 2
        search.score = 6.0
        assert search._bound() == 6.0  # none left: 2 is dropped

    def test_bound_has_no_time_capacity(self):
        # the open route [1] leaves at 87 and reaches no other customer by
        # its close; the unopened route still counts all three, although
        # their 40-unit services do not fit into the 113 units of route
        # time left
        inst = make_instance(
            [
                (10.0, 0.0, 2.0, 1.0, 0.0, 100.0, 1),
                (0.0, 10.0, 40.0, 5.0, 0.0, 100.0, 1),
                (-10.0, 0.0, 40.0, 6.0, 0.0, 100.0, 1),
                (0.0, -10.0, 40.0, 7.0, 0.0, 100.0, 1),
            ],
            team_size=2,
            t_max=100.0,
        )
        search = _Search(prepare(inst), OracleConfig())
        search.routes = [[1]]
        search.open_set = {1}
        search.count[1] = 1
        search.s[1] = 85.0
        search.score = 1.0
        assert search._bound() == 1.0 + 5.0 + 6.0 + 7.0

    def test_reach_cut_tolerates_rounding(self):
        # a, b, c collinear; c closes at the float arrival a -> b -> c,
        # which rounds below the direct a -> c arrival, so only the slack
        # keeps c counted once a is the open route's tail.  b and c pay
        # more than a and are tried first, so the incumbent b -> c (4)
        # meets the bound of route [a] (3 without c) before a -> b -> c (5)
        a = (9.7, 34.7)
        b = (a[0] + 7.9, a[1] + 3.3)
        c = (a[0] + 2 * 7.9, a[1] + 2 * 3.3)
        rewards = (1.0, 2.0, 2.0)
        draft = make_instance([(*p, 0.0, 1.0, 0.0, 1000.0, 1) for p in (a, b, c)],
                              team_size=1, t_max=1000.0)
        t = TravelTimes(draft).t
        at_a = t[0][1]
        at_b = at_a + t[1][2]
        at_c = at_b + t[2][3]
        assert at_c < at_a + t[1][3]
        inst = make_instance(
            [
                (*p, 0.0, reward, 0.0, close, 1)
                for p, reward, close in zip((a, b, c), rewards, (at_a, at_b, at_c))
            ],
            team_size=1,
            t_max=1000.0,
        )
        res = exact_solve(inst)
        assert res.proven_optimal
        assert res.best_score == best_score_bruteforce(inst) == 5.0
        assert res.best_solution.routes == [[1, 2, 3]]

    def test_matches_bruteforce_with_tight_windows(self, monkeypatch):
        # narrow windows make the open route's tail miss customers an
        # unopened route could still serve, so the reach cut fires
        bound = _Search._bound
        fired = 0

        def counting(search):
            nonlocal fired
            tight = bound(search)
            reach_close = search.reach_close
            search.reach_close = [math.inf] * len(reach_close)
            loose = bound(search)
            search.reach_close = reach_close
            assert tight <= loose
            fired += tight < loose
            return tight

        monkeypatch.setattr(_Search, "_bound", counting)
        rng = random.Random(510)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(4, 6), team_size=rng.randint(2, 3),
                                   t_max=150.0, window=20.0)
            reference = best_score_bruteforce(inst)
            for incumbent in (None, empty_solution(inst.team_size)):
                res = exact_solve(inst, incumbent=incumbent)
                assert res.proven_optimal
                assert res.best_score == reference
                assert check_solution(inst, res.best_solution).feasible
        assert fired > 0

    def test_incumbent_consistency(self):
        rng = random.Random(502)
        for _ in range(6):
            inst = random_instance(rng, rng.randint(4, 6), team_size=3, t_max=300.0)
            res = exact_solve(inst, OracleConfig(time_limit=60.0))
            report = check_solution(inst, res.best_solution)
            assert report.feasible, report.violations
            assert objective(inst, res.best_solution) == res.best_score
            assert len(res.best_solution.routes) == inst.team_size

    def test_score_is_the_objective_with_fractional_rewards(self):
        # summing 0.1/0.2/0.3/0.7 in search order differs from the
        # objective's sum in the last bits; the reported score is the
        # objective of the reported routes, from either start
        rng = random.Random(530)
        for _ in range(20):
            base = random_instance(rng, rng.randint(4, 6), team_size=2, t_max=300.0)
            inst = dataclasses.replace(base, vertices=[
                dataclasses.replace(v, reward=rng.choice((0.1, 0.2, 0.3, 0.7))) if v.id else v
                for v in base.vertices])
            reference = best_score_bruteforce(inst)
            for incumbent in (None, empty_solution(inst.team_size)):
                res = exact_solve(inst, OracleConfig(time_limit=60.0), incumbent)
                assert res.proven_optimal
                assert res.best_score == objective(inst, res.best_solution)
                assert abs(res.best_score - reference) <= 1e-9

    def test_node_limit_returns_incumbent_unproven(self):
        rng = random.Random(503)
        inst = random_instance(rng, 6, team_size=2, t_max=300.0)
        res = exact_solve(inst, OracleConfig(node_limit=5))
        assert not res.proven_optimal
        assert res.explored_nodes >= 5
        assert check_solution(inst, res.best_solution).feasible

    def test_heuristic_never_beats_proven_optimum(self):
        # cold: an oracle seeded by the heuristic would check it against itself
        rng = random.Random(504)
        for _ in range(6):
            inst = random_instance(rng, rng.randint(4, 6), team_size=2, t_max=300.0)
            opt = exact_solve(inst, OracleConfig(time_limit=60.0),
                              incumbent=empty_solution(inst.team_size))
            assert opt.proven_optimal
            heur = solve(inst)
            assert heur.best_score <= opt.best_score

    @pytest.mark.parametrize("routes, fault", [
        pytest.param([[2], []], "window-close: 2", id="late-window"),
        pytest.param([[1]], "depot-flow: expected 2 routes, got 1", id="route-count"),
    ])
    def test_infeasible_incumbent_rejected(self, routes, fault):
        # customer 2 closes at 10, before anyone can get there
        inst = make_instance(
            [(5.0, 0.0, 2.0, 17.0, 0.0, 50.0, 1), (50.0, 0.0, 1.0, 5.0, 0.0, 10.0, 1)],
            team_size=2,
            t_max=200.0,
        )
        with pytest.raises(ValueError, match=re.escape(f"incumbent is infeasible ({fault})")):
            exact_solve(inst, incumbent=Solution(routes=routes))

    def test_worse_incumbent_is_beaten(self):
        inst = make_instance(
            [
                (6.0, 0.0, 4.0, 5.0, 0.0, 100.0, 1),
                (8.0, 0.0, 1.0, 9.0, 0.0, 100.0, 2),
            ],
            team_size=2,
            t_max=100.0,
        )
        res = exact_solve(inst, incumbent=Solution(routes=[[1], []]))
        assert res.proven_optimal
        assert res.best_score == 14.0
        assert check_solution(inst, res.best_solution).feasible

    def test_optimal_incumbent_comes_back_proven(self):
        rng = random.Random(505)
        for _ in range(4):
            inst = random_instance(rng, rng.randint(4, 6), team_size=2, t_max=300.0)
            cold = exact_solve(inst, incumbent=empty_solution(inst.team_size))
            res = exact_solve(inst, incumbent=cold.best_solution)
            assert res.proven_optimal
            assert res.best_score == cold.best_score
            assert res.best_solution.routes == cold.best_solution.routes
            assert res.explored_nodes <= cold.explored_nodes

    def test_default_incumbent_is_the_heuristic_solution(self):
        # the search keeps its incumbent on a tie, so wherever the heuristic
        # is optimal its routes come back, in no more nodes than cold
        rng = random.Random(506)
        for _ in range(4):
            inst = random_instance(rng, 6, team_size=3, t_max=300.0)
            heur = solve(inst)
            cold = exact_solve(inst, incumbent=empty_solution(inst.team_size))
            assert heur.best_score == cold.best_score
            res = exact_solve(inst)
            assert res.best_score == heur.best_score
            assert ([r for r in res.best_solution.routes if r]
                    == [r for r in heur.best_solution.routes if r])
            assert res.explored_nodes <= cold.explored_nodes

    @pytest.mark.parametrize("seed, n, team_size, score, nodes", [
        (520, 6, 2, 56.0, 93),
        (521, 7, 3, 223.0, 1375),
        (523, 8, 3, 137.0, 1548),
    ])
    def test_empty_incumbent_is_the_cold_search(self, seed, n, team_size, score, nodes):
        # node counts of the search before it took an incumbent
        inst = random_instance(random.Random(seed), n, team_size=team_size)
        res = exact_solve(inst, incumbent=empty_solution(team_size))
        assert res.proven_optimal
        assert (res.best_score, res.explored_nodes) == (score, nodes)

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
