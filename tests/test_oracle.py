import dataclasses
import hashlib
import inspect
import json
import math
import random
import re
import sys

import pytest

from coptw import (
    OracleConfig,
    Solution,
    augment,
    check_solution,
    empty_solution,
    exact_solve,
    objective,
    optimality_gap,
    parse_benchmark,
    prepare,
    solve,
    truncate,
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
        # unopened route could still serve, so the reach cut fires; every
        # node the search expands is checked with and without that cut
        expand = _Search._expand
        fired = 0

        def counting(search, *args):
            nonlocal fired
            tight = search._bound()
            reach_close = search.reach_close
            search.reach_close = [math.inf] * len(reach_close)
            loose = search._bound()
            search.reach_close = reach_close
            assert tight <= loose
            fired += tight < loose
            return expand(search, *args)

        monkeypatch.setattr(_Search, "_expand", counting)
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

    def test_matches_bruteforce_with_high_requirements(self):
        # most customers need P-1 or P members, so the live list often
        # drops a customer the routes left can no longer complete, and the
        # search never branches on it
        rng = random.Random(550)
        for _ in range(20):
            team_size = rng.randint(2, 4)
            base = random_instance(rng, rng.randint(4, 6), team_size=team_size,
                                   t_max=150.0, window=20.0)
            inst = dataclasses.replace(base, requirements=[0] + [
                rng.choice((1, team_size - 1, team_size, team_size))
                for _ in base.vertices[1:]])
            reference = best_score_bruteforce(inst)
            for incumbent in (None, empty_solution(team_size)):
                res = exact_solve(inst, incumbent=incumbent)
                assert res.proven_optimal
                assert res.best_score == reference
                assert check_solution(inst, res.best_solution).feasible

    def test_appends_only_completable_customers(self):
        # a counted node with a visit on its open route is an appended
        # child, or the node that closes that route with the same state;
        # its tail v, counted, must still be completable by the routes
        # left: count[v] + unopened >= req[v]
        tight = []

        class Checked(_Search):
            def _count_node(self):
                route = self.routes[-1]
                if route:
                    v = route[-1]
                    unopened = self.team_size - len(self.routes)
                    assert self.count[v] + unopened >= self.req[v]
                    tight.append(self.count[v] + unopened == self.req[v])
                super()._count_node()

        base = random_instance(random.Random(560), 7, team_size=3)
        inst = dataclasses.replace(base, requirements=[0, 3, 2, 3, 3, 1, 2, 3])
        res = Checked(prepare(inst), OracleConfig()).run()
        cold = exact_solve(inst, incumbent=empty_solution(inst.team_size))
        assert res.proven_optimal
        assert (res.best_score, res.explored_nodes) == (cold.best_score, cold.explored_nodes)
        assert any(tight) and not all(tight)

    def test_inherited_lists_match_the_rule_from_scratch(self, monkeypatch):
        # a node's live list is filtered from its parent's: the root's from
        # every candidate in run, every other node's in its parent's loop,
        # where an appended child and a new route each have one bound line.
        # At each of those nodes the list and the reward it counts must be
        # _live over all candidates, bit for bit
        live = _Search._live
        checked = {"entered": 0, "decided": 0}

        def entering(search, cands):
            # the count rule runs only where the open route is empty: at
            # the root and at a new route's first node
            assert not search.routes[-1]
            got = live(search, cands)
            assert got == live(search, search.bound_candidates)
            checked["entered"] += 1
            return got

        # the decisions are inline, so a line tracer reads their locals
        # where the child's bound is compared
        lines, first = inspect.getsourcelines(_Search._expand)
        marks = {first + i for i, line in enumerate(lines)
                 if "self.score + completable > self.best_score" in line}
        assert len(marks) == 2
        code = _Search._expand.__code__
        hits = set()

        def tracer(frame, event, arg):
            if frame.f_code is not code:
                return None
            if event == "line" and frame.f_lineno in marks:
                search = frame.f_locals["self"]
                got = (frame.f_locals["keep"], frame.f_locals["completable"])
                assert got == live(search, search.bound_candidates)
                checked["decided"] += 1
                hits.add(frame.f_lineno)
            return tracer

        monkeypatch.setattr(_Search, "_live", entering)
        rng = random.Random(540)
        old = sys.gettrace()
        sys.settrace(tracer)
        try:
            for _ in range(24):
                base = random_instance(rng, rng.randint(5, 7), team_size=rng.randint(2, 4),
                                       t_max=150.0, window=20.0)
                inst = dataclasses.replace(base, vertices=[
                    dataclasses.replace(v, reward=rng.choice((0.1, 0.2, 0.3, 0.7)))
                    if v.id else v
                    for v in base.vertices])
                for incumbent in (None, empty_solution(inst.team_size)):
                    assert exact_solve(inst, incumbent=incumbent).proven_optimal
        finally:
            sys.settrace(old)
        assert checked["entered"] > 0 and checked["decided"] > 0
        assert hits == marks

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

    def test_path_deeper_than_the_stack_returns_incumbent_unproven(self):
        # 1,100 customers in a row and one member: the cold search's first
        # path visits them in order, deeper than the recursion limit, so it
        # stops there with the last incumbent it took on that path
        n = 1100
        assert sys.getrecursionlimit() < n
        inst = make_instance(
            [(float(i), 0.0, 0.0, 1.0, 0.0, 10_000.0, 1) for i in range(1, n + 1)],
            team_size=1, t_max=10_000.0)
        res = exact_solve(inst, incumbent=empty_solution(1))
        assert not res.proven_optimal
        assert 0 < res.best_score < n
        assert res.best_score == objective(inst, res.best_solution)
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
        (520, 6, 2, 56.0, 61),
        (521, 7, 3, 223.0, 940),
        (523, 8, 3, 137.0, 1060),
    ])
    def test_empty_incumbent_is_the_cold_search(self, seed, n, team_size, score, nodes):
        # node counts of the search before it took an incumbent
        inst = random_instance(random.Random(seed), n, team_size=team_size)
        res = exact_solve(inst, incumbent=empty_solution(team_size))
        assert res.proven_optimal
        assert (res.best_score, res.explored_nodes) == (score, nodes)

    # (explored_nodes, best_score, routes, proven_optimal) of searches
    # stopped by each node limit, then by a deadline already passed when
    # the search starts (the deadline is read every 512 nodes), on four
    # benchmark rows at requirement seed 1, from the heuristic's solution
    # and cold, with children drawn from each node's live list.
    @pytest.mark.parametrize("name, n, team_size, start, digest", [
        ("r100_1", 12, 4, "seeded",
         "c3db7b4d68c46ceef77208b6d08bb64f145f30415676e7268208eab0d4d67489"),
        ("r100_1", 12, 4, "cold",
         "715b68dc7ed75cedec1ad698678e198e5eda0c83d5bd09c7ade5a7e13893a189"),
        ("rc100_1", 10, 3, "seeded",
         "5754e15d1ed757d6c6c667fdb4e99154e445b472673b18fd210e6d84dadd22b3"),
        ("rc100_1", 10, 3, "cold",
         "6c3bd9910ae1d29539f5a787bf2be0667958bec990a19caf66e34727a6ad2ba9"),
        ("rc100_1", 10, 4, "seeded",
         "632b1b9deb5689cff129d8531ac2c2f539e741c93e77809b3bfa2841d691b324"),
        ("rc100_1", 10, 4, "cold",
         "f83aaeeb11dd52d6d8624d556bd61f0ad1a11c7f07ea9ab28a828331066a3ba5"),
        ("rc100_1", 11, 3, "seeded",
         "67fc8bc430340d130e37d5bc07d1143386a960ba271335dc94e079837b3bcc96"),
        ("rc100_1", 11, 3, "cold",
         "805762bb69fcc67c1a921bb7a2812214e8ea6e3a6aa4c2db012d2005e08795d4"),
    ])
    def test_limited_searches_are_pinned(self, data_dir, name, n, team_size, start, digest):
        raw = truncate(parse_benchmark((data_dir / f"{name}.txt").read_text()), n)
        inst = augment(raw, 1, 3, team_size=team_size)
        if start == "seeded":
            incumbent = solve(inst, workers=1).best_solution
        else:
            incumbent = empty_solution(team_size)
        records = []
        for limit in (1, 2, 3, 511, 512, 513, 5000, None):
            if limit is None:
                res = exact_solve(inst, OracleConfig(time_limit=1e-9), incumbent)
                assert res.explored_nodes == 512
            else:
                res = exact_solve(inst, OracleConfig(node_limit=limit), incumbent)
                assert res.explored_nodes == limit + 1
            assert not res.proven_optimal
            assert check_solution(inst, res.best_solution).feasible
            records.append([limit, res.explored_nodes, res.best_score,
                            res.best_solution.routes, res.proven_optimal])
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == digest

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
