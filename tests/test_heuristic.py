import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coptw import (
    SavingParams,
    Solution,
    augment,
    build_distance_matrix,
    check_solution,
    construct,
    improve,
    objective,
    parameter_grid,
    parse_benchmark,
    prepare,
    solve,
    truncate,
)
from coptw import heuristic, savings
from coptw.heuristic import _pool_size, _Workspace
from coptw.savings import calc_saving_pairs
from coptw.scheduling import RouteScan, TravelTimes

from conftest import make_instance, random_instance


def desk_row(data_dir, name="r100_1", n=11, team_size=4):
    """A desk row as the benchmark builds it at requirement seed 1; the
    default row has 14 distinct constructions and 6 distinct scores."""
    raw = parse_benchmark((data_dir / f"{name}.txt").read_text())
    return augment(truncate(raw, n), 1, 3, team_size=team_size)


def routes_key(sol):
    return tuple(map(tuple, sol.routes))


def per_triplet(inst):
    """construct + improve for every triplet, each on its own Prepared
    instance: the one-phase grid that solve must reproduce.  Returns the
    (score, solution) outcomes and the number of distinct constructions."""
    outcomes, keys = [], set()
    for params in parameter_grid():
        prep = prepare(inst)
        built = construct(prep, params)
        keys.add(routes_key(built))
        sol = improve(prep, built)
        outcomes.append((objective(inst, sol), sol))
    return outcomes, len(keys)


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
        prep = prepare(inst)
        sol = construct(prep, SavingParams(0.7, 0.7, 0.7))
        assert sol.routes == [[], []]
        assert sol.served(inst) == set()
        assert objective(inst, sol) == 0.0

    def test_pair_requirement_met_by_two_members(self):
        inst = make_instance(
            [(10.0, 0.0, 5.0, 40.0, 0.0, 90.0, 2)], team_size=3, t_max=100.0
        )
        prep = prepare(inst)
        sol = construct(prep, SavingParams(0.0, 0.0, 0.0))
        assert sol.served(inst) == {1}
        assert sum(1 for route in sol.routes if 1 in route) == 2
        assert objective(inst, sol) == 40.0

    def test_requirement_above_fleet_never_served(self):
        inst = make_instance(
            [(10.0, 0.0, 5.0, 40.0, 0.0, 90.0, 3)], team_size=2, t_max=100.0
        )
        prep = prepare(inst)
        sol = construct(prep, SavingParams(0.0, 0.0, 0.0))
        assert sol.served(inst) == set()
        assert sol.routes == [[], []]

    def test_no_partially_served_vertices_remain(self):
        rng = random.Random(99)
        for _ in range(15):
            inst = random_instance(rng, rng.randint(4, 10), team_size=rng.randint(2, 3))
            prep = prepare(inst)
            sol = construct(prep, SavingParams(0.7, 0.7, 1.4))
            counts = sol.visit_counts(inst.n_vertices)
            for v in range(1, inst.n_vertices):
                assert counts[v] == 0 or counts[v] >= inst.requirements[v]
            assert check_solution(inst, sol).feasible

    def test_every_commit_keeps_feasibility(self, monkeypatch):
        rng = random.Random(123)
        inst = random_instance(rng, 8, team_size=3)
        prep = prepare(inst)
        calls = {"commit": 0, "substitute": 0}
        commit = _Workspace._commit
        substitute = _Workspace.substitute

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

        def checked_substitute(ws, v):
            # improve starts every move from a complete, feasible solution
            calls["substitute"] += 1
            report = check_solution(inst, ws.to_solution())
            assert report.feasible, report.violations
            return substitute(ws, v)

        monkeypatch.setattr(_Workspace, "_commit", checked_commit)
        monkeypatch.setattr(_Workspace, "substitute", checked_substitute)
        sol = construct(prep, SavingParams(1.4, 0.7, 2.1))
        sol = improve(prep, sol)
        assert calls["commit"] > 0 and calls["substitute"] > 0
        assert check_solution(inst, sol).feasible

    def test_member_index_follows_the_routes(self, monkeypatch):
        # after every change to the routes, links must equal the index read
        # off the routes afresh: [m, pred, succ] per visit, ascending m
        seen = {"_commit": 0, "undo": 0, "trade": 0, "force_place": 0, "from_solution": 0,
                "remove_vertices": 0}
        moving = []  # the vertex of the substitution move in progress

        def check(ws):
            scan = RouteScan(ws.routes)
            assert ws.links == [scan[x] for x in range(ws.tt.n)]
            assert ws.count == Solution(ws.routes).visit_counts(ws.tt.n)

        def checked(name, fn, key=None):
            def wrapper(ws, *args):
                result = fn(ws, *args)
                seen[key(ws, *args) if key else name] += 1
                check(ws)
                return result
            monkeypatch.setattr(_Workspace, name, wrapper)

        substitute = _Workspace.substitute

        def tracked_substitute(ws, v):
            moving.append(v)
            substitute(ws, v)
            moving.pop()

        monkeypatch.setattr(_Workspace, "substitute", tracked_substitute)
        checked("_commit", _Workspace._commit)
        checked("drop", _Workspace.drop,
                lambda ws, v: "trade" if moving and v != moving[-1] else "undo")
        checked("force_place", _Workspace.force_place)
        checked("remove_vertices", _Workspace.remove_vertices)
        from_solution = _Workspace.from_solution.__func__

        def checked_from_solution(cls, *args):
            ws = from_solution(cls, *args)
            seen["from_solution"] += 1
            check(ws)
            return ws

        monkeypatch.setattr(_Workspace, "from_solution", classmethod(checked_from_solution))
        rng = random.Random(2024)
        for _ in range(40):
            team_size = rng.randint(1, 4)
            inst = random_instance(rng, rng.randint(3, 10), team_size=team_size,
                                   r_max=team_size, window=rng.choice([20.0, 60.0]))
            prep = prepare(inst)
            for params in (SavingParams(0.7, 0.7, 0.7), SavingParams(0.0, 1.4, 2.1)):
                sol = improve(prep, construct(prep, params))
                assert check_solution(inst, sol).feasible
        assert all(seen.values()), seen

    def test_slot_floors_drop_only_rejected_slots(self):
        # a non-empty-route slot that _slots leaves out must be one the
        # insertion kernel rejects (empty routes are offered once)
        rng = random.Random(8)
        dropped = 0
        for _ in range(20):
            inst = random_instance(rng, rng.randint(4, 9), team_size=rng.randint(2, 4))
            prep = prepare(inst)
            sol = construct(prep, SavingParams(0.7, 0.7, 0.7))
            ws = _Workspace.from_solution(prep, sol)
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
        prep = prepare(inst)
        ws = _Workspace.from_solution(prep, Solution(routes=[[2]]))
        assert [(m, pos) for _, m, pos in ws._slots(1, True)] == [(0, 0), (0, 1)]
        assert ws._try_slot(0, 0, 1)[2] == 12.0


def walk(ws, prep, params):
    """construct's top-up walk on a given workspace, without the clean-up."""
    for i, j in calc_saving_pairs(prep.terms, params):
        ws.top_up(i)
        ws.top_up(j)
    for v in sorted(range(1, prep.tt.n), key=lambda u: (-prep.tt.reward[u], u)):
        ws.top_up(v)


def full_relaxation(prep):
    """prep with TravelTimes.monotone forced off: every move takes the path
    that decides nothing from the current starts."""
    inst = prep.instance
    tt = TravelTimes(inst, build_distance_matrix(inst))
    tt.monotone = False
    return prep._replace(tt=tt)


@pytest.fixture
def retries(monkeypatch):
    """Every try_place_one call as (final, retry, placed): `final` is the
    workspace's failures_final, `retry` whether v had failed on it before."""
    calls = []
    try_place_one = _Workspace.try_place_one

    def recorded(ws, v):
        final, retry = ws.failures_final, ws.fail_version[v] >= 0
        placed = try_place_one(ws, v)
        calls.append((final, retry, placed))
        return placed

    monkeypatch.setattr(_Workspace, "try_place_one", recorded)
    return calls


class TestRetry:
    """While the routes only grow and every service time clears the
    rounding margin, a vertex that failed is not tried again; otherwise it
    is retried once anything changed."""

    def test_failure_is_final_while_routes_grow(self):
        # a full-retry workspace (monotone forced off) must reach the same
        # routes.  Before a removal none of its retries succeeds; after one
        # some do, so the removal has to end the rule.
        counts = {"grow": [0, 0], "regrow": [0, 0]}  # full retries, successes
        phase = ["grow"]
        try_place_one = _Workspace.try_place_one

        def counted(ws, v):
            retry = ws.fail_version[v] >= 0
            placed = try_place_one(ws, v)
            if retry and not ws.tt.monotone:
                counts[phase[0]][0] += 1
                counts[phase[0]][1] += placed
            return placed

        @settings(max_examples=60, deadline=None)
        @given(
            seed=st.integers(0, 2**32 - 1),
            n=st.integers(4, 14),
            team_size=st.integers(1, 4),
            window=st.sampled_from([10.0, 20.0, 60.0, 400.0]),
            service=st.sampled_from([0.5, 3.0, 8.0]),
        )
        def check(seed, n, team_size, window, service):
            rng = random.Random(seed)
            inst = random_instance(rng, n, team_size=team_size, r_max=team_size,
                                   window=window, service=service)
            prep = prepare(inst)
            full_prep = full_relaxation(prep)
            assert prep.tt.monotone
            for params in rng.sample(parameter_grid(), 4):
                phase[0] = "grow"
                assert construct(prep, params) == construct(full_prep, params)
                fast, slow = _Workspace(prep), _Workspace(full_prep)
                for ws in (fast, slow):
                    walk(ws, prep, params)
                assert fast.routes == slow.routes
                served = sorted({v for route in fast.routes for v in route})
                doomed = set(rng.sample(served, min(2, len(served))))
                phase[0] = "regrow"
                for ws in (fast, slow):
                    ws.remove_vertices(doomed)
                    walk(ws, prep, params)
                assert fast.routes == slow.routes

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Workspace, "try_place_one", counted)
            check()
        assert counts["grow"][0] > 0 and counts["grow"][1] == 0, counts
        assert counts["regrow"][1] > 0, counts

    @pytest.mark.parametrize("service, monotone", [(0.0, False), (1e-12, False), (1e-6, True)])
    def test_monotone_needs_service_above_margin(self, service, monotone):
        # the margin is 1e-9 * (T_max + the longest travel time) = 1e-9 * 105
        inst = make_instance([(3.0, 4.0, service, 5.0, 0.0, 100.0, 1),
                              (0.0, 1.0, 2.0, 5.0, 0.0, 100.0, 1)], t_max=100.0)
        assert TravelTimes(inst).monotone is monotone
        assert TravelTimes(make_instance([], t_max=100.0)).monotone

    def test_zero_service_retries(self, retries):
        # a customer without service time, here two coincident ones, voids
        # the margin: a failed vertex is tried again after a change
        rng = random.Random(12)
        customers = [(10.0, 0.0, 0.0, 5.0, 0.0, 50.0, 2), (10.0, 0.0, 0.0, 5.0, 12.0, 50.0, 2)]
        for _ in range(10):
            inst = random_instance(rng, 10, team_size=3, window=20.0)
            customers += [(v.x, v.y, v.duration, v.reward, v.open, v.close, r)
                          for v, r in zip(inst.vertices[1:], inst.requirements[1:])]
        inst = make_instance(customers, team_size=3, t_max=400.0)
        prep = prepare(inst)
        assert not _Workspace(prep).failures_final
        for params in parameter_grid()[:6]:
            construct(prep, params)
        assert any(retry for _, retry, _ in retries)
        assert not any(final for final, _, _ in retries)

    def test_removal_and_from_solution_retry(self, data_dir, retries):
        inst = desk_row(data_dir)
        prep = prepare(inst)
        params = parameter_grid()[0]
        ws = _Workspace(prep)
        assert ws.failures_final
        walk(ws, prep, params)
        assert max(ws.fail_version) >= 0
        assert not any(retry for _, retry, _ in retries)
        ws.remove_vertices({next(v for route in ws.routes for v in route)})
        assert not ws.failures_final
        start = len(retries)
        walk(ws, prep, params)
        assert any(retry for _, retry, _ in retries[start:])
        # rebuilt without one served vertex x: the vertices that fail now
        # are tried again once x is back
        x = next(v for route in ws.routes for v in route)
        rest = Solution([[v for v in route if v != x] for route in ws.routes])
        again = _Workspace.from_solution(prep, rest)
        assert not again.failures_final
        failed = [v for v in range(1, inst.n_vertices) if v != x and not again.top_up(v)]
        assert failed and again.top_up(x)
        start = len(retries)
        for v in failed:
            again.top_up(v)
        assert retries[start:] and all(retry and not final for final, retry, _ in retries[start:])


class TestDecidedMoves:
    """Under TravelTimes.monotone the heuristic skips the moves whose
    outcome the current starts already decide; the skips change nothing."""

    # service times on both sides of the monotone margin (~6e-7 here)
    SERVICES = (0.0, 1e-12, 3.0, 8.0)

    def test_doomed_substitution_skip_is_exact(self, monkeypatch):
        verdicts = []  # (monotone, doomed) per _doomed call
        doomed = _Workspace._doomed

        def recorded(ws, v):
            verdict = doomed(ws, v)
            verdicts.append((ws.tt.monotone, verdict))
            return verdict

        monkeypatch.setattr(_Workspace, "_doomed", recorded)
        rng = random.Random(31)
        for trial in range(32):
            service = self.SERVICES[trial % 4]
            team_size = rng.randint(1, 4)
            inst = random_instance(rng, rng.randint(5, 12), team_size=team_size,
                                   r_max=team_size, window=rng.choice([20.0, 60.0]),
                                   service=service)
            prep = prepare(inst)
            assert prep.tt.monotone is (service > 1e-9)
            slow_prep = full_relaxation(prep)
            tt = prep.tt
            for params in rng.sample(parameter_grid(), 3):
                built = construct(prep, params)
                fast = _Workspace.from_solution(prep, built)
                slow = _Workspace.from_solution(slow_prep, built)
                unvisited = [v for v in range(1, tt.n)
                             if fast.count[v] == 0 and tt.req[v] <= team_size]
                for v in sorted(unvisited, key=lambda v: (-tt.reward[v], v)):
                    fast.substitute(v)
                    slow.substitute(v)
                    assert fast.routes == slow.routes
                    assert fast.links == slow.links
                    assert fast.count == slow.count
                    assert fast.s == slow.s
                assert fast.to_solution() == improve(prep, built)
        # only monotone instances ask, and the bound decides some moves
        # but not all
        assert all(monotone for monotone, _ in verdicts)
        assert {verdict for _, verdict in verdicts} == {True, False}

    def test_successor_late_on_two_routes_counts_once(self):
        # 2 forced ahead of 1 on both routes reaches 1 at 10 + 10 + 10 = 30,
        # past its close at 25, on each: one late vertex, worth less than
        # 2, so the trade commits
        inst = make_instance([(20.0, 0.0, 5.0, 10.0, 0.0, 25.0, 2),
                              (10.0, 0.0, 10.0, 30.0, 0.0, 30.0, 2)],
                             team_size=2, t_max=200.0)
        prep = prepare(inst)
        start = Solution(routes=[[1], [1]])
        ws = _Workspace.from_solution(prep, start)
        assert ws.tt.monotone and ws.force_place(2)
        assert ws.links[2] == [[0, 0, 1], [1, 0, 1]]
        assert not ws._doomed(2)
        assert improve(prep, start).routes == [[2], [2]]

    def test_settled_walk_is_exact(self, monkeypatch):
        # construct tops up each vertex at most once while failures are
        # final, and gets the routes of the unfiltered walk
        calls = []
        top_up = _Workspace.top_up

        def counted(ws, v):
            calls.append(v)
            return top_up(ws, v)

        monkeypatch.setattr(_Workspace, "top_up", counted)
        rng = random.Random(47)
        for trial in range(24):
            team_size = rng.randint(1, 4)
            inst = random_instance(rng, rng.randint(4, 14), team_size=team_size,
                                   r_max=team_size, window=rng.choice([20.0, 60.0]),
                                   service=self.SERVICES[trial % 4])
            prep = prepare(inst)
            for params in rng.sample(parameter_grid(), 3):
                ws = _Workspace(prep)
                del calls[:]
                walk(ws, prep, params)
                walked = len(calls)
                ws.remove_underserved()
                del calls[:]
                assert construct(prep, params) == ws.to_solution()
                if prep.tt.monotone:
                    assert len(calls) == len(set(calls)) <= walked
                else:
                    assert len(calls) == walked


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
        prep = prepare(inst)
        start = Solution(routes=[[1]])
        assert check_solution(inst, start).feasible
        out = improve(prep, start)
        assert out.served(inst) == {2}
        assert out.routes == [[2]]
        assert objective(inst, out) - objective(inst, start) == 20.0

    def test_worse_newcomer_rolled_back(self):
        inst = self.swap_instance(reward_in=30.0, reward_out=10.0)
        prep = prepare(inst)
        start = Solution(routes=[[1]])
        out = improve(prep, start)
        assert out.routes == [[1]]
        assert out.served(inst) == {1}

    @pytest.mark.parametrize(
        "customers, t_max, routes, violation",
        [
            # 2 is reached at 10 + 1 + 10 = 21, after its close at 12
            ([(10.0, 0.0, 1.0, 5.0, 0.0, 100.0, 1), (20.0, 0.0, 1.0, 5.0, 0.0, 12.0, 1)],
             1000.0, [[1, 2]], ("window-close", 2)),
            # the member is back at 40 + 5 + 40 = 85, after the horizon at 84
            ([(40.0, 0.0, 5.0, 5.0, 0.0, 100.0, 1)], 84.0, [[1]],
             ("horizon", "route 0 returns at 85.0")),
            # on the desk row r100_1/10/P3 (customers None), where the
            # requirements are 3 2 1 3 1 3 1 1 1 2, solve's best routing
            # with a fourth route, a routing short of members on 2, 4 and
            # 10, a route through the depot and an unknown vertex
            pytest.param(None, None, [[9, 5, 4, 7], [3, 2, 10, 4], [2, 10, 4], []],
                         ("depot-flow", "expected 3 routes, got 4"), id="four-routes"),
            pytest.param(None, None, [[9, 5, 4, 7], [3, 2, 10, 4], []],
                         ("requirement", 2), id="short-of-members"),
            pytest.param(None, None, [[0, 9], [], []],
                         ("depot-flow", "route 0 passes through the depot"), id="depot-visit"),
            pytest.param(None, None, [[99], [], []],
                         ("conservation", "route 0 visits unknown vertex 99"),
                         id="unknown-vertex"),
        ],
    )
    def test_infeasible_input_rejected(self, customers, t_max, routes, violation, data_dir):
        if customers is None:
            inst = desk_row(data_dir, n=10, team_size=3)
        else:
            inst = make_instance(customers, team_size=1, t_max=t_max)
        start = Solution(routes=routes)
        violations = check_solution(inst, start).violations
        assert violations[0] == violation
        assert len(violations) == (3 if violation[0] == "requirement" else 1)
        # the error names the checker's first entry, a late start or
        # return included, for improve and for a workspace built directly
        family, detail = violation
        prep = prepare(inst)
        for build in (improve, _Workspace.from_solution):
            with pytest.raises(ValueError, match=re.escape(f"{family}: {detail}")):
                build(prep, start)

    def test_fixed_point_when_nothing_insertable(self):
        inst = make_instance(
            [
                (10.0, 0.0, 5.0, 40.0, 0.0, 90.0, 1),
                (900.0, 0.0, 5.0, 99.0, 0.0, 50.0, 1),  # unreachable
            ],
            team_size=1,
            t_max=100.0,
        )
        prep = prepare(inst)
        start = Solution(routes=[[1]])
        out = improve(prep, start)
        assert out.routes == start.routes
        assert out.served(inst) == start.served(inst) == {1}

    def test_never_decreases_score(self):
        rng = random.Random(17)
        for _ in range(15):
            inst = random_instance(rng, rng.randint(4, 9), team_size=rng.randint(2, 3))
            prep = prepare(inst)
            before = construct(prep, SavingParams(0.7, 0.0, 0.7))
            after = improve(prep, before)
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
        prep = prepare(inst)
        sol = improve(prep, construct(prep, SavingParams(0.0, 0.0, 0.0)))
        single = objective(inst, sol)
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

    def assert_matches_per_triplet(self, inst):
        outcomes, distinct = per_triplet(inst)
        res = solve(inst)
        scores = [score for score, _ in outcomes]
        best = scores.index(max(scores))  # the earliest best triplet
        assert res.triplet_scores == scores
        assert res.best_score == scores[best]
        assert res.best_params == parameter_grid()[best]
        assert res.best_solution == outcomes[best][1]
        return distinct

    def test_equals_per_triplet_construct_and_improve(self):
        rng = random.Random(61)
        distinct = [
            self.assert_matches_per_triplet(
                random_instance(rng, rng.randint(3, 9), team_size=rng.randint(2, 4)))
            for _ in range(6)
        ]
        assert min(distinct) < 54  # some constructions repeat

    def test_equals_per_triplet_on_desk_row(self, data_dir):
        assert self.assert_matches_per_triplet(desk_row(data_dir)) < 54

    def test_improve_runs_once_per_distinct_construction(self, data_dir, monkeypatch):
        inst = desk_row(data_dir)
        built, improved = [], []

        def counted_construct(*args):
            sol = construct(*args)
            built.append(routes_key(sol))
            return sol

        def counted_improve(prep, solution):
            improved.append(routes_key(solution))
            return improve(prep, solution)

        monkeypatch.setattr(heuristic, "construct", counted_construct)
        monkeypatch.setattr(heuristic, "improve", counted_improve)
        solve(inst)
        assert len(built) == 54
        assert improved == list(dict.fromkeys(built))  # first-seen grid order
        assert len(improved) < len(built)

    def test_parallel_equals_serial(self, data_dir):
        # the desk row repeats constructions, so the pool's second phase
        # must map its improved results back onto the grid
        for inst in (random_instance(random.Random(42), 7, team_size=3), desk_row(data_dir)):
            prep = prepare(inst)
            assert len({routes_key(construct(prep, p)) for p in parameter_grid()}) < 54
            serial = solve(inst, workers=1)
            parallel = solve(inst, workers=2)
            assert serial.best_score == parallel.best_score
            assert serial.best_solution == parallel.best_solution
            assert serial.best_params == parallel.best_params
            assert serial.triplet_scores == parallel.triplet_scores

    def test_saving_terms_built_once_per_solve(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return savings.saving_terms(*args)

        monkeypatch.setattr(heuristic, "saving_terms", counted)
        solve(random_instance(random.Random(5), 7, team_size=3))
        assert len(calls) == 1

    def test_one_prepared_per_solve_shared_not_copied(self, data_dir, monkeypatch):
        seen = []

        def recorded(fn):
            def wrapper(prep, arg):
                seen.append(prep)
                return fn(prep, arg)
            return wrapper

        monkeypatch.setattr(heuristic, "construct", recorded(construct))
        monkeypatch.setattr(heuristic, "improve", recorded(improve))
        solve(desk_row(data_dir), workers=1)
        prep = seen[0]
        assert len(seen) > 54 and all(other is prep for other in seen)
        built = construct(prep, parameter_grid()[0])
        for ws in (_Workspace(prep), _Workspace.from_solution(prep, built)):
            assert ws.tt is prep.tt and ws.feas is prep.feas and ws.dist is prep.dist

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
