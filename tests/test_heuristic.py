import os
import random

import pytest

from coptw import (
    SavingParams,
    Solution,
    augment,
    build_arc_set,
    build_distance_matrix,
    check_solution,
    construct,
    improve,
    objective,
    parameter_grid,
    parse_benchmark,
    solve,
    truncate,
)
from coptw import heuristic, savings
from coptw.heuristic import _pool_size, _solve_one, _Workspace
from coptw.scheduling import TravelTimes

from conftest import make_instance, random_instance


def prepared(inst):
    d = build_distance_matrix(inst)
    return d, build_arc_set(inst, d)


class TestConstruct:
    def test_nothing_reachable_gives_empty_solution(self):
        inst = make_instance(
            [
                (400.0, 0.0, 5.0, 10.0, 0.0, 50.0, 1),
                (0.0, 400.0, 5.0, 10.0, 10.0, 60.0, 1),
            ],
            team_size=2,
            t_max=100.0,
        )
        d, arcs = prepared(inst)
        sol = construct(inst, arcs, d, SavingParams(0.7, 0.7, 0.7))
        assert sol.routes == [[], []]
        assert sol.served == set()
        assert objective(inst, sol) == 0.0

    def test_pair_requirement_met_by_two_members(self):
        inst = make_instance(
            [(10.0, 0.0, 5.0, 40.0, 0.0, 90.0, 2)], team_size=3, t_max=100.0
        )
        d, arcs = prepared(inst)
        sol = construct(inst, arcs, d, SavingParams(0.0, 0.0, 0.0))
        assert sol.served == {1}
        assert sum(1 for route in sol.routes if 1 in route) == 2
        assert objective(inst, sol) == 40.0

    def test_requirement_above_fleet_never_served(self):
        inst = make_instance(
            [(10.0, 0.0, 5.0, 40.0, 0.0, 90.0, 3)], team_size=2, t_max=100.0
        )
        d, arcs = prepared(inst)
        sol = construct(inst, arcs, d, SavingParams(0.0, 0.0, 0.0))
        assert sol.served == set()
        assert sol.routes == [[], []]

    def test_no_partially_served_vertices_remain(self):
        rng = random.Random(99)
        for _ in range(15):
            inst = random_instance(rng, rng.randint(4, 10), team_size=rng.randint(2, 3))
            d, arcs = prepared(inst)
            sol = construct(inst, arcs, d, SavingParams(0.7, 0.7, 1.4))
            counts = sol.visit_counts(inst.n_vertices)
            for v in range(1, inst.n_vertices):
                assert counts[v] == 0 or counts[v] >= inst.requirements[v]
            assert check_solution(inst, sol).feasible

    def test_every_commit_keeps_feasibility(self, monkeypatch):
        rng = random.Random(123)
        inst = random_instance(rng, 8, team_size=3)
        d, arcs = prepared(inst)
        calls = {"commit": 0, "snapshot": 0}
        commit = _Workspace._commit
        snapshot = _Workspace.snapshot

        def checked_commit(ws, m, pos, v, s_new):
            # mid-construction, a visited vertex may still be short of its
            # requirement; every other violation is a bug
            commit(ws, m, pos, v, s_new)
            calls["commit"] += 1
            report = check_solution(inst, ws.to_solution())
            partial = {
                u for u in range(1, inst.n_vertices)
                if 0 < ws.count[u] < inst.requirements[u]
            }
            rest = [
                (family, u) for family, u in report.violations
                if not (family == "requirement" and u in partial)
            ]
            assert rest == [], rest

        def checked_snapshot(ws):
            # improve snapshots a complete solution before every move
            calls["snapshot"] += 1
            report = check_solution(inst, ws.to_solution())
            assert report.feasible, report.violations
            return snapshot(ws)

        monkeypatch.setattr(_Workspace, "_commit", checked_commit)
        monkeypatch.setattr(_Workspace, "snapshot", checked_snapshot)
        sol = construct(inst, arcs, d, SavingParams(1.4, 0.7, 2.1))
        sol = improve(inst, arcs, d, sol)
        assert calls["commit"] > 0 and calls["snapshot"] > 0
        assert check_solution(inst, sol).feasible

    def test_slot_floors_drop_only_rejected_slots(self):
        # a non-empty-route slot that _slots leaves out must be one the
        # insertion kernel rejects (empty routes are offered once)
        rng = random.Random(8)
        dropped = 0
        for _ in range(20):
            inst = random_instance(rng, rng.randint(4, 9), team_size=rng.randint(2, 4))
            d, arcs = prepared(inst)
            sol = construct(inst, arcs, d, SavingParams(0.7, 0.7, 0.7))
            ws = _Workspace.from_solution(inst, arcs, d, sol)
            for v in range(1, inst.n_vertices):
                offered = {(m, pos) for ends in (True, False) for _, m, pos in ws._slots(v, ends)}
                for m, route in enumerate(ws.routes):
                    if not route or v in route:
                        continue
                    for pos in range(len(route) + 1):
                        if (m, pos) not in offered:
                            dropped += 1
                            assert ws._try_slot(m, pos, v) is None
        assert dropped > 0

    def test_slot_reaching_successor_at_its_close_offered(self):
        # serving 1 ahead of 2 delays 2 to 5 + 2 + 5 = 12, exactly its close
        inst = make_instance(
            [(5.0, 0.0, 2.0, 10.0, 0.0, 50.0, 1), (10.0, 0.0, 0.0, 10.0, 0.0, 12.0, 1)],
            team_size=1,
            t_max=100.0,
        )
        d, arcs = prepared(inst)
        ws = _Workspace.from_solution(inst, arcs, d, Solution(routes=[[2]], served={2}))
        assert [(m, pos) for _, m, pos in ws._slots(1, True)] == [(0, 0), (0, 1)]
        assert ws._try_slot(0, 0, 1)[2] == 12.0

    def test_precomputed_terms_change_nothing(self, data_dir):
        raw = parse_benchmark((data_dir / "rc200_1.txt").read_text())
        inst = augment(truncate(raw, 24), 1, 3, team_size=4)
        d, arcs = prepared(inst)
        tt = TravelTimes(inst, d)
        terms = savings.saving_terms(inst, d, arcs)
        for params in parameter_grid():
            assert construct(inst, arcs, d, params, tt=tt, terms=terms) == construct(
                inst, arcs, d, params
            )


class TestImprove:
    def swap_instance(self, reward_in=10.0, reward_out=30.0):
        # serving both customers is impossible; the outsider is worth a swap
        return make_instance(
            [
                (50.0, 0.0, 15.0, reward_in, 0.0, 60.0, 1),
                (49.0, 0.0, 15.0, reward_out, 0.0, 60.0, 1),
            ],
            team_size=1,
            t_max=120.0,
        )

    def test_substitution_move_commits(self):
        inst = self.swap_instance()
        d, arcs = prepared(inst)
        start = Solution(routes=[[1]], served={1})
        assert check_solution(inst, start).feasible
        out = improve(inst, arcs, d, start)
        assert out.served == {2}
        assert out.routes == [[2]]
        assert objective(inst, out) - objective(inst, start) == 20.0

    def test_worse_newcomer_rolled_back(self):
        inst = self.swap_instance(reward_in=30.0, reward_out=10.0)
        d, arcs = prepared(inst)
        start = Solution(routes=[[1]], served={1})
        out = improve(inst, arcs, d, start)
        assert out.routes == [[1]]
        assert out.served == {1}

    @pytest.mark.parametrize(
        "customers, t_max, routes, violation",
        [
            # 2 is reached at 10 + 1 + 10 = 21, after its close at 12
            ([(10.0, 0.0, 1.0, 5.0, 0.0, 100.0, 1), (20.0, 0.0, 1.0, 5.0, 0.0, 12.0, 1)],
             1000.0, [[1, 2]], ("window-close", 2)),
            # the member is back at 40 + 5 + 40 = 85, after the horizon at 84
            ([(40.0, 0.0, 5.0, 5.0, 0.0, 100.0, 1)], 84.0, [[1]],
             ("horizon", "route 0 returns at 85.0")),
        ],
    )
    def test_infeasible_input_rejected(self, customers, t_max, routes, violation):
        inst = make_instance(customers, team_size=1, t_max=t_max)
        d, arcs = prepared(inst)
        start = Solution(routes=routes, served=set(range(1, inst.n_vertices)))
        assert check_solution(inst, start).violations == [violation]
        with pytest.raises(ValueError):
            improve(inst, arcs, d, start)

    def test_fixed_point_when_nothing_insertable(self):
        inst = make_instance(
            [
                (10.0, 0.0, 5.0, 40.0, 0.0, 90.0, 1),
                (900.0, 0.0, 5.0, 99.0, 0.0, 50.0, 1),  # unreachable
            ],
            team_size=1,
            t_max=100.0,
        )
        d, arcs = prepared(inst)
        start = Solution(routes=[[1]], served={1})
        out = improve(inst, arcs, d, start)
        assert out.routes == start.routes
        assert out.served == start.served

    def test_never_decreases_score(self):
        rng = random.Random(17)
        for _ in range(15):
            inst = random_instance(rng, rng.randint(4, 9), team_size=rng.randint(2, 3))
            d, arcs = prepared(inst)
            before = construct(inst, arcs, d, SavingParams(0.7, 0.0, 0.7))
            after = improve(inst, arcs, d, before)
            assert objective(inst, after) >= objective(inst, before)
            assert check_solution(inst, after).feasible


class TestSolve:
    def test_empty_customer_set(self):
        inst = make_instance([], team_size=2, t_max=50.0)
        res = solve(inst)
        assert res.best_score == 0.0
        assert res.best_solution.routes == [[], []]
        assert len(res.triplet_scores) == 54

    def test_beats_or_matches_any_single_triplet(self):
        rng = random.Random(3)
        inst = random_instance(rng, 8, team_size=3)
        res = solve(inst)
        d, arcs = prepared(inst)
        tt = TravelTimes(inst, d)
        single, _ = _solve_one(inst, SavingParams(0.0, 0.0, 0.0), d, arcs, tt)
        assert res.best_score >= single
        assert res.best_score == max(res.triplet_scores)
        assert res.triplet_scores[0] == single

    def test_deterministic_and_consistent(self):
        rng = random.Random(41)
        inst = random_instance(rng, 7, team_size=3)
        a = solve(inst)
        b = solve(inst)
        assert a.best_score == b.best_score
        assert a.best_solution == b.best_solution
        assert a.best_params == b.best_params
        assert a.triplet_scores == b.triplet_scores
        assert a.best_score == objective(inst, a.best_solution)
        assert check_solution(inst, a.best_solution).feasible

    def test_parallel_equals_serial(self):
        rng = random.Random(42)
        inst = random_instance(rng, 7, team_size=3)
        serial = solve(inst, workers=1)
        parallel = solve(inst, workers=2)
        assert serial.best_score == parallel.best_score
        assert serial.best_solution == parallel.best_solution
        assert serial.triplet_scores == parallel.triplet_scores

    def test_saving_terms_built_once_per_solve(self, monkeypatch):
        calls = {"solve": 0, "fallback": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(heuristic, "saving_terms", counted("solve", savings.saving_terms))
        # calc_saving_pairs rebuilds the terms itself only when none were passed
        monkeypatch.setattr(savings, "saving_terms", counted("fallback", savings.saving_terms))
        solve(random_instance(random.Random(5), 7, team_size=3))
        assert calls == {"solve": 1, "fallback": 0}

    def test_pool_never_exceeds_tasks_or_cpus(self):
        cpus = os.cpu_count() or 1
        assert _pool_size(100000, 54) == min(54, cpus)
        assert _pool_size(2, 54) == min(2, cpus)
        assert _pool_size(8, 1) == 1
        assert _pool_size(1, 54) == 1
        assert _pool_size(0, 54) == 1

    def test_plain_toptw_reduction(self):
        # forcing unit requirements turns the problem into plain TOPTW
        rng = random.Random(29)
        for _ in range(5):
            inst = random_instance(rng, rng.randint(5, 9), team_size=1, r_max=1)
            res = solve(inst)
            report = check_solution(inst, res.best_solution)
            assert report.feasible
            counts = res.best_solution.visit_counts(inst.n_vertices)
            assert all(c <= 1 for c in counts)
