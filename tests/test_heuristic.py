import hashlib
import json
import os
import random
import re
import tracemalloc
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coptw import (
    SavingParams,
    Solution,
    augment,
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
from coptw.heuristic import _call_orders, _Plan, _pool_size, _slices, _Workspace
from coptw.savings import calc_saving_pairs
from coptw.scheduling import RouteScan

from conftest import make_instance, random_instance, saving_cases


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
                if 0 < len(ws.links[u]) < inst.requirements[u]
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
            assert [len(e) for e in ws.links] == Solution(ws.routes).visit_counts(ws.tt.n)
            assert ws.s[0] == 0.0  # the slot walk's depot arrival is t[0][v]

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
                offered = {(m, pos) for _, m, pos in ws._slots(v)}
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
        assert [(m, pos) for _, m, pos in ws._slots(1)] == [(0, 0), (0, 1)]
        assert ws._try_slot(0, 0, 1)[2] == 12.0

    @pytest.mark.parametrize("service", [0.0, 1e-12, 3.0, 8.0])
    def test_slot_scans_match_brute_force(self, service):
        rng = random.Random(int(service * 10) + 41)
        checked = 0
        for _ in range(8):
            team_size = rng.randint(2, 4)
            inst = random_instance(rng, rng.randint(4, 10), team_size=team_size,
                                   r_max=team_size, window=rng.choice([30.0, 80.0]),
                                   service=service)
            checked += check_slot_scans(inst, rng)
        assert checked > 0

    def test_slot_scans_match_brute_force_coincident_points(self):
        # six customers on two points: equal added distances everywhere,
        # so (m, pos) decides every tie.  Customer 6 opens too late to get
        # back to the depot, so no arc enters it, yet the start floors pass
        # between two customers on its point: only the arc row drops it.
        inst = make_instance(
            [(10.0, 0.0, 2.0, 10.0, 0.0, 400.0, 2), (10.0, 0.0, 2.0, 20.0, 0.0, 400.0, 3),
             (10.0, 0.0, 2.0, 20.0, 0.0, 400.0, 1), (0.0, 10.0, 2.0, 5.0, 0.0, 300.0, 2),
             (0.0, 10.0, 2.0, 5.0, 0.0, 300.0, 3), (10.0, 0.0, 2.0, 50.0, 395.0, 400.0, 1)],
            team_size=3, t_max=400.0)
        assert not any(prepare(inst).into[6])
        assert check_slot_scans(inst, random.Random(3)) > 0


def reference_slots(ws, v, ends):
    """_slots by brute force: every (m, pos) of every route without v,
    tested through feas[u][v], with the two start floors, the heads and
    tails apart from the interiors and only the first empty route, sorted
    by (delta, m, pos)."""
    tt, s, feas, dist = ws.tt, ws.s, ws.feas, ws.dist
    slots = []
    empty_seen = False
    for m, route in enumerate(ws.routes):
        if v in route:
            continue
        n = len(route)
        if not ends:
            positions = range(1, n)
        elif n:
            positions = (0, n)
        elif empty_seen:
            continue
        else:
            empty_seen = True
            positions = (0,)
        for pos in positions:
            u = route[pos - 1] if pos else 0
            w = route[pos] if pos < n else 0
            if not (feas[u][v] and feas[v][w]):
                continue
            arr = (s[u] + tt.dur[u] if u else 0.0) + tt.t[u][v]
            if arr > tt.close[v]:
                continue
            if max(arr, s[v]) + tt.dur[v] + tt.t[v][w] > tt.close[w]:
                continue
            slots.append((dist[u][v] + dist[v][w] - dist[u][w], m, pos))
    return sorted(slots)


def reference_force_place(ws, v):
    """force_place by brute force: each of v's visits at the first
    cheapest arc-valid (m, pos) of a route without v, rescanning after
    each placement.  None when some visit finds no position."""
    routes = [list(route) for route in ws.routes]
    feas, dist = ws.feas, ws.dist
    for _ in range(ws.tt.req[v]):
        best = None
        for m, route in enumerate(routes):
            if v in route:
                continue
            for pos in range(len(route) + 1):
                u = route[pos - 1] if pos else 0
                w = route[pos] if pos < len(route) else 0
                if feas[u][v] and feas[v][w]:
                    delta = dist[u][v] + dist[v][w] - dist[u][w]
                    if best is None or delta < best[0]:
                        best = (delta, m, pos)
        if best is None:
            return None
        routes[best[1]].insert(best[2], v)
    return routes


def check_slot_scans(inst, rng):
    """Compare _slots (the ends, then the interiors) and force_place with
    their brute-force references on workspaces part-way through a walk, where
    some vertices already have visits (a failed top-up leaves them until
    the clean-up).  Returns how many of the checked vertices already had
    visits."""
    prep = prepare(inst)
    order = _call_orders(prep, [SavingParams(0.7, 0.7, 0.7)])[0]
    visited = 0
    for depth in sorted({0, 1, len(order) // 2, len(order), rng.randint(0, len(order))}):
        ws = _Workspace(prep)
        for v in order[:depth]:
            ws.top_up(v)
        for v in range(1, inst.n_vertices):
            visited += bool(ws.links[v])
            assert ws._slots(v) == reference_slots(ws, v, True) + reference_slots(ws, v, False)
            forced = ws.copy()
            expected = reference_force_place(ws, v)
            assert forced.force_place(v) == (expected is not None)
            assert forced.routes == (ws.routes if expected is None else expected)
    return visited


def walk(ws, prep, params):
    """construct's top-up walk on a given workspace, without the clean-up,
    calling every appearance of a vertex; each call of a failed vertex
    retries it."""
    for i, j in calc_saving_pairs(prep.terms, params):
        ws.top_up(i)
        ws.top_up(j)
    for v in sorted(range(1, prep.tt.n), key=lambda u: (-prep.tt.reward[u], u)):
        ws.top_up(v)


class FullRelaxation(_Workspace):
    """The reference for the skipped substitutions: a workspace whose
    substitute relaxes every forced placement, since no start bound dooms
    it."""

    def _doomed(self, v):
        return False


@pytest.fixture
def retries(monkeypatch):
    """Every try_place_one call as (retry, placed): `retry` whether v
    failed on the same workspace before."""
    calls = []
    try_place_one = _Workspace.try_place_one

    def recorded(ws, v):
        failed = vars(ws).setdefault("failed", set())
        retry = v in failed
        placed = try_place_one(ws, v)
        if not placed:
            failed.add(v)
        calls.append((retry, placed))
        return placed

    monkeypatch.setattr(_Workspace, "try_place_one", recorded)
    return calls


class TestRetry:
    """While the routes only grow and every service time clears the
    rounding margin, a vertex that failed fails again, so construct's walk
    calls it once; after a removal it can succeed."""

    def test_failure_is_final_while_routes_grow(self, retries):
        # the reference walk calls every appearance and retries at each one,
        # and must reach the routes of the first-appearance walk.  Before a
        # removal none of its retries succeeds; after one some do, so the
        # removal has to end the rule.
        phases = {"grow": [], "regrow": []}  # the reference's (retry, placed)

        def both_walks(fast, slow, prep, params, order, phase):
            start = len(retries)
            walk(slow, prep, params)
            phases[phase] += retries[start:]
            for v in order:
                fast.top_up(v)
            assert fast.routes == slow.routes

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
            for params in rng.sample(parameter_grid(), 4):
                [order] = _call_orders(prep, [params])
                fast, slow = _Workspace(prep), _Workspace(prep)
                both_walks(fast, slow, prep, params, order, "grow")
                built = slow.copy()
                built.remove_underserved()
                assert construct(prep, params) == built.to_solution()
                served = sorted({v for route in fast.routes for v in route})
                doomed = set(rng.sample(served, min(2, len(served))))
                for ws in (fast, slow):
                    ws.remove_vertices(doomed)
                both_walks(fast, slow, prep, params, order, "regrow")

        check()
        grow = [placed for retry, placed in phases["grow"] if retry]
        regrow = [placed for retry, placed in phases["regrow"] if retry]
        assert grow and not any(grow)
        assert any(regrow)

    def test_removal_and_from_solution_retry(self, data_dir, retries):
        inst = desk_row(data_dir)
        prep = prepare(inst)
        # construct's walk calls each vertex once, so only a second walk,
        # after the removal, retries
        [order] = _call_orders(prep, parameter_grid()[:1])
        ws = _Workspace(prep)
        for v in order:
            ws.top_up(v)
        assert not all(placed for _, placed in retries)
        assert not any(retry for retry, _ in retries)
        ws.remove_vertices({next(v for route in ws.routes for v in route)})
        start = len(retries)
        for v in order:
            ws.top_up(v)
        assert any(retry for retry, _ in retries[start:])
        # rebuilt without one served vertex x: the vertices that fail now
        # are tried again once x is back
        x = next(v for route in ws.routes for v in route)
        rest = Solution([[v for v in route if v != x] for route in ws.routes])
        again = _Workspace.from_solution(prep, rest)
        failed = [v for v in range(1, inst.n_vertices) if v != x and not again.top_up(v)]
        assert failed and again.top_up(x)
        start = len(retries)
        for v in failed:
            again.top_up(v)
        assert retries[start:] and all(retry for retry, _ in retries[start:])


class TestDecidedMoves:
    """The heuristic skips the moves whose outcome the current starts
    already decide; the skips change nothing, here also on service times
    below the rounding margin (~6e-7 on these instances)."""

    SERVICES = (0.0, 1e-12, 3.0, 8.0)

    def test_doomed_substitution_skip_is_exact(self, monkeypatch):
        verdicts = []  # per _doomed call of the fast workspaces
        doomed = _Workspace._doomed

        def recorded(ws, v):
            verdict = doomed(ws, v)
            verdicts.append(verdict)
            return verdict

        monkeypatch.setattr(_Workspace, "_doomed", recorded)
        rng = random.Random(31)
        for trial in range(32):
            team_size = rng.randint(1, 4)
            inst = random_instance(rng, rng.randint(5, 12), team_size=team_size,
                                   r_max=team_size, window=rng.choice([20.0, 60.0]),
                                   service=self.SERVICES[trial % 4])
            prep = prepare(inst)
            tt = prep.tt
            for params in rng.sample(parameter_grid(), 3):
                built = construct(prep, params)
                fast = _Workspace.from_solution(prep, built)
                slow = FullRelaxation.from_solution(prep, built)
                unvisited = [v for v in range(1, tt.n)
                             if not fast.links[v] and tt.req[v] <= team_size]
                for v in sorted(unvisited, key=lambda v: (-tt.reward[v], v)):
                    fast.substitute(v)
                    slow.substitute(v)
                    assert fast.routes == slow.routes
                    assert fast.links == slow.links
                    assert fast.s == slow.s
                assert fast.to_solution() == improve(prep, built)
        # the bound decides some moves but not all
        assert set(verdicts) == {True, False}

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
        assert ws.force_place(2)
        assert ws.links[2] == [[0, 0, 1], [1, 0, 1]]
        assert not ws._doomed(2)
        assert improve(prep, start).routes == [[2], [2]]

    def test_settled_walk_is_exact(self, monkeypatch):
        # construct tops up each vertex at most once and gets the routes of
        # the walk that calls every appearance and retries at each
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
                assert len(calls) == len(set(calls)) <= walked


class TestBelowMargin:
    """Instances whose service times fall below the rounding margin, where
    the module docstring's exactness argument no longer holds."""

    # sha256 over json.dumps([triplet_scores, routes]) of each solve below,
    # in loop order; the two-mode walk this code replaced, which retried
    # failed vertices and relaxed every substitution below the margin, gave
    # the same digest
    DIGEST = "098fa50592bb3a3eebe17eb11caea82f77fd09bbf4e95834670489d42191d76c"

    def test_zero_service_digest(self):
        digest = hashlib.sha256()
        for seed in range(1000, 1150):
            for service in (0.0, 1e-12):
                rng = random.Random(seed)
                n = rng.randint(6, 30)
                team_size = rng.randint(2, 5)
                inst = random_instance(rng, n, team_size, r_max=team_size, service=service)
                result = solve(inst)
                assert check_solution(inst, result.best_solution).feasible
                routes = result.best_solution.routes
                digest.update(json.dumps([result.triplet_scores, routes]).encode())
        assert digest.hexdigest() == self.DIGEST

    def test_coincident_zero_service_customers(self):
        # two customers at one point, both without service time, ahead of
        # 100 random ones with service 8
        rng = random.Random(12)
        customers = [(10.0, 0.0, 0.0, 5.0, 0.0, 50.0, 2), (10.0, 0.0, 0.0, 5.0, 12.0, 50.0, 2)]
        for _ in range(10):
            inst = random_instance(rng, 10, team_size=3, window=20.0)
            customers += [(v.x, v.y, v.duration, v.reward, v.open, v.close, r)
                          for v, r in zip(inst.vertices[1:], inst.requirements[1:])]
        inst = make_instance(customers, team_size=3, t_max=400.0)
        result = solve(inst)
        assert check_solution(inst, result.best_solution).feasible
        assert result.best_score == objective(inst, result.best_solution) > 0


class TestSharedPrefixes:
    """solve plans the grid's walks together: each walk resumes from the
    deepest state an earlier walk reached, and each triplet gets the result
    of its own walk."""

    def assert_planned_equals_standalone(self, prep, rng):
        grid = parameter_grid()
        for order in (grid, rng.sample(grid, len(grid))):
            plan = _Plan(prep, order)
            assert plan.construct_all() == [construct(prep, params) for params in order]
            assert not plan.stack  # every saved copy was used and dropped
        return plan

    @pytest.mark.parametrize("service", [3.0, 8.0, 0.0, 1e-12])
    def test_planned_equals_standalone(self, service):
        rng = random.Random(53)
        shared = 0
        for _ in range(6):
            team_size = rng.randint(1, 4)
            inst = random_instance(rng, rng.randint(4, 12), team_size=team_size,
                                   r_max=team_size, window=rng.choice([20.0, 60.0]),
                                   service=service)
            prep = prepare(inst)
            plan = self.assert_planned_equals_standalone(prep, rng)
            shared += sum(plan.resume)
            assert all(len(order) == len(set(order)) for order in plan.orders)
        assert shared

    def test_desk_row_tops_up_each_distinct_prefix_once(self, data_dir, monkeypatch):
        prep = prepare(desk_row(data_dir))
        self.assert_planned_equals_standalone(prep, random.Random(59))
        calls = []
        top_up = _Workspace.top_up

        def counted(ws, v):
            calls.append(v)
            return top_up(ws, v)

        monkeypatch.setattr(_Workspace, "top_up", counted)
        grid = parameter_grid()
        orders = []  # each standalone construct's top_up calls
        for params in grid:
            del calls[:]
            construct(prep, params)
            orders.append(tuple(calls))
        del calls[:]
        _Plan(prep, grid).construct_all()
        prefixes = {order[:k] for order in orders for k in range(1, len(order) + 1)}
        assert len(calls) == len(prefixes) < sum(map(len, orders))

    def test_mutating_a_resumed_workspace_changes_no_other_triplet(self, data_dir, monkeypatch):
        # every list of each walk's workspace is overwritten in place once its
        # construct returns; `s` is left alone, since it is only ever replaced
        resumed = []
        start = _Plan.start

        def recorded(plan, params):
            state = start(plan, params)
            resumed.append(state[0])
            return state

        def vandalize(ws):
            for route in ws.routes:
                route[:] = [0] * len(route)
            for entries in ws.links:
                for entry in entries:
                    entry[:] = [-1, -1, -1]
                entries.append([-1, -1, -1])

        monkeypatch.setattr(_Plan, "start", recorded)
        rng = random.Random(67)
        insts = [desk_row(data_dir)] + [random_instance(rng, 9, team_size=3, service=service)
                                        for service in (3.0, 0.0)]
        for inst in insts:
            prep = prepare(inst)
            grid = parameter_grid()
            plan = _Plan(prep, grid)
            assert any(plan.resume)
            for t in plan.walks:
                assert construct(prep, grid[t], plan) == construct(prep, grid[t])
                vandalize(resumed[-1])

    def test_copy_shares_no_mutable_list(self, data_dir):
        prep = prepare(desk_row(data_dir))
        ws = _Workspace(prep)
        walk(ws, prep, parameter_grid()[0])
        copy = ws.copy()
        lists = [ws.routes, *ws.routes, ws.links, *ws.links,
                 *(entry for entries in ws.links for entry in entries)]
        copied = [copy.routes, *copy.routes, copy.links, *copy.links,
                  *(entry for entries in copy.links for entry in entries)]
        assert lists == copied
        assert not {id(x) for x in lists} & {id(x) for x in copied}
        assert copy.s is ws.s

    def test_plan_runs_in_order(self):
        prep = prepare(random_instance(random.Random(71), 6, team_size=2))
        grid = parameter_grid()
        plan = _Plan(prep, grid[:3])
        walked = [grid[t] for t in plan.walks]
        with pytest.raises(ValueError, match="next triplet"):
            construct(prep, walked[1], plan)
        for params in walked:
            construct(prep, params, plan)
        with pytest.raises(ValueError, match="next triplet"):
            construct(prep, grid[3], plan)

    def test_plan_against_brute_force(self, monkeypatch):
        # synthetic call orders (random ones over vertices 1-3) with
        # repeats, empty and identical orders and orders that are prefixes
        # of others
        def common(a, b):
            k = 0
            while k < min(len(a), len(b)) and a[k] == b[k]:
                k += 1
            return k

        calls = []
        top_up = _Workspace.top_up

        def counted(ws, v):
            calls.append(v)
            return top_up(ws, v)

        given = {}  # triplet -> its call order
        monkeypatch.setattr(heuristic, "_call_orders",
                            lambda prep, grid: [list(given[params]) for params in grid])
        monkeypatch.setattr(_Workspace, "top_up", counted)
        rng = random.Random(73)
        prep = prepare(random_instance(rng, 5, team_size=2, r_max=2, service=0.0))
        fixed = [[1, 2, 3], [1, 2, 4], [1, 5, 3], [1, 2, 3], [5], [1, 2], [], [2, 2, 1, 2]]
        for trial in range(200):
            if trial:
                orders = [[rng.randint(1, 3) for _ in range(rng.randint(0, 7))]
                          for _ in range(rng.randint(1, 9))]
                orders += rng.sample(orders, rng.randint(0, len(orders)))  # identical
                orders += [order[:rng.randint(0, len(order))] for order in orders[:2]]
            else:
                orders = fixed
            grid = rng.sample(parameter_grid(), len(orders))
            given = dict(zip(grid, orders))
            plan = _Plan(prep, grid)
            del calls[:]
            built = plan.construct_all()
            prefixes = {tuple(order[:k]) for order in orders for k in range(1, len(order) + 1)}
            assert len(calls) == len(prefixes)
            walked = [orders[t] for t in plan.walks]
            for i, depth in enumerate(plan.resume):
                assert depth == max((common(walked[i], o) for o in walked[:i]), default=0)
            assert not plan.stack
            assert built == [construct(prep, params) for params in grid]

    def test_slices_are_contiguous_and_even(self):
        items = list(range(54))
        for parts in range(1, 55):
            runs = _slices(items, parts)
            assert len(runs) == parts and sum(runs, []) == items
            assert max(map(len, runs)) - min(map(len, runs)) <= 1


def reference_orders(prep, grid):
    """The walk _call_orders stands for: the ends of each triplet's
    calc_saving_pairs list, then every customer by reward, each vertex at
    its first appearance."""
    tt = prep.tt
    by_reward = sorted(range(1, tt.n), key=lambda u: (-tt.reward[u], u))
    return [list(dict.fromkeys(chain(*calc_saving_pairs(prep.terms, params), by_reward)))
            for params in grid]


class TestCallOrders:
    """_call_orders ranks the grid at once by each vertex's best pair; it
    must give every triplet the first appearances of its own pair walk."""

    # the tracemalloc peak allowed while the full grid is ranked
    PEAK_CAP = 64 * 2**20

    def assert_matches_reference(self, prep, rng):
        grid = parameter_grid()
        expected = reference_orders(prep, grid)
        assert _call_orders(prep, grid) == expected
        params = rng.choice(grid)  # one triplet, as construct(prep, params) plans it
        assert _Plan(prep, [params]).orders == [expected[grid.index(params)]]
        k = rng.randint(2, len(grid))
        for run in _slices(list(range(len(grid))), k):  # as the pool cuts the grid
            assert _call_orders(prep, [grid[t] for t in run]) == [expected[t] for t in run]
        n_pairs = len(prep.terms.i)
        for budget in (1, n_pairs, rng.randint(1, 4 * n_pairs + 1)):
            # one triplet per block, then a few per block
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(savings, "BLOCK_ELEMENTS", budget)
                assert _call_orders(prep, grid) == expected

    @settings(max_examples=150, deadline=None)
    @given(inst=saving_cases(), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_walk_on_ties(self, inst, seed):
        self.assert_matches_reference(prepare(inst), random.Random(seed))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        window=st.sampled_from([10.0, 60.0, 400.0]),
        service=st.sampled_from([0.0, 3.0, 8.0]),
    )
    def test_matches_reference_walk(self, seed, n, window, service):
        rng = random.Random(seed)
        inst = random_instance(rng, n, team_size=3, window=window, service=service)
        self.assert_matches_reference(prepare(inst), rng)

    def test_no_feasible_pair_gives_reward_order(self):
        # every arc between the two customers misses its closing time, and a
        # lone customer has no pair at all
        insts = [make_instance([(10.0, 0.0, 5.0, 3.0, 0.0, 20.0, 1),
                                (-10.0, 0.0, 5.0, 9.0, 0.0, 20.0, 1)]),
                 make_instance([(10.0, 0.0, 5.0, 3.0, 0.0, 20.0, 1)])]
        for inst in insts:
            prep = prepare(inst)
            assert not len(prep.terms.i)
            by_reward = sorted(range(1, inst.n_vertices), key=lambda v: -prep.tt.reward[v])
            assert _call_orders(prep, parameter_grid()) == [by_reward] * 54
            self.assert_matches_reference(prep, random.Random(0))

    def test_ranking_peak_memory_is_capped(self):
        # 300 customers with windows wide enough that every ordered pair is
        # an arc: one matrix of the grid's gathered pair ends alone would
        # exceed the cap
        inst = random_instance(random.Random(3), 300, team_size=4, window=1e4, t_max=2000.0)
        prep = prepare(inst)
        grid = parameter_grid()
        n_pairs = len(prep.terms.i)
        assert n_pairs == 300 * 299
        assert len(grid) * 2 * n_pairs * 8 > self.PEAK_CAP
        tracemalloc.start()
        try:
            orders = _call_orders(prep, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_CAP
        assert all(sorted(order) == list(range(1, 301)) for order in orders)
        assert orders[::9] == reference_orders(prep, grid[::9])


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
        grid = parameter_grid()
        built, improved = {}, []  # grid index -> construction; improved in call order

        def counted_construct(prep, params, *plan):
            sol = construct(prep, params, *plan)
            built[grid.index(params)] = routes_key(sol)
            return sol

        def counted_improve(prep, solution):
            improved.append(routes_key(solution))
            return improve(prep, solution)

        monkeypatch.setattr(heuristic, "construct", counted_construct)
        monkeypatch.setattr(heuristic, "improve", counted_improve)
        solve(inst)
        assert len(built) == 54
        keys = [built[t] for t in range(54)]
        assert improved == list(dict.fromkeys(keys))  # first-seen grid order
        assert len(improved) < len(keys)

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
            def wrapper(prep, arg, *plan):
                seen.append(prep)
                return fn(prep, arg, *plan)
            return wrapper

        monkeypatch.setattr(heuristic, "construct", recorded(construct))
        monkeypatch.setattr(heuristic, "improve", recorded(improve))
        solve(desk_row(data_dir), workers=1)
        prep = seen[0]
        assert len(seen) > 54 and all(other is prep for other in seen)
        assert prep.into == [list(column) for column in zip(*prep.feas)]
        built = construct(prep, parameter_grid()[0])
        fresh = _Workspace(prep)
        for ws in (fresh, _Workspace.from_solution(prep, built), fresh.copy(),
                   FullRelaxation.from_solution(prep, built)):
            assert ws.tt is prep.tt and ws.feas is prep.feas and ws.dist is prep.dist
            assert ws.into is prep.into

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
