import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coptw import (
    Instance,
    ParseError,
    Schedule,
    ScheduleInfeasible,
    Solution,
    Vertex,
    build_arc_set,
    build_distance_matrix,
    check_solution,
    empty_solution,
    exact_solve,
    format_solution,
    objective,
    parse_solution,
    prepare,
    propagate_schedule,
    solve,
)

from coptw import scheduling
from coptw.heuristic import _Workspace
from coptw.scheduling import RouteScan, TravelTimes, insert_starts, relax_starts

from conftest import make_instance, random_instance


def families(report):
    return sorted({family for family, _ in report.violations})


class TestPropagate:
    def test_start_at_arrival_inside_window(self):
        inst = make_instance(
            [(15.1, 0.0, 5.0, 10.0, 15.0, 67.0, 1)], team_size=1, t_max=100.0
        )
        sched = propagate_schedule(inst, Solution(routes=[[1]]))
        assert isinstance(sched, Schedule)
        assert sched.starts[1] == 15.1
        assert sched.arrivals[(0, 1)] == 15.1
        assert sched.returns[0] == 15.1 + 5.0 + 15.1

    def test_waiting_for_opening(self):
        inst = make_instance(
            [(5.0, 0.0, 1.0, 10.0, 10.0, 50.0, 1)], team_size=1, t_max=100.0
        )
        sched = propagate_schedule(inst, Solution(routes=[[1]]))
        assert sched.starts[1] == 10.0
        assert sched.arrivals[(0, 1)] == 5.0

    def test_cross_route_synchronization(self):
        # member 0 serves vertex 1 (duration 4) then joins vertex 2;
        # member 1 reaches vertex 2 directly at time 8 and idles 4 units
        inst = make_instance(
            [
                (6.0, 0.0, 4.0, 5.0, 0.0, 100.0, 1),
                (8.0, 0.0, 1.0, 5.0, 0.0, 100.0, 2),
            ],
            team_size=2,
            t_max=100.0,
        )
        sol = Solution(routes=[[1, 2], [2]])
        sched = propagate_schedule(inst, sol)
        assert sched.starts[1] == 6.0
        assert sched.starts[2] == 12.0
        assert sched.arrivals[(1, 2)] == 8.0
        assert sched.arrivals[(0, 2)] == 12.0

    def test_three_member_cooperative_tour(self):
        # the whole team meets at vertex 1, two members continue to vertex 2
        inst = make_instance(
            [
                (15.1, 0.0, 10.0, 30.0, 15.0, 67.0, 3),
                (20.0, 0.0, 5.0, 20.0, 15.0, 200.0, 2),
            ],
            team_size=3,
            t_max=1236.0,
        )
        sol = Solution(routes=[[1], [1, 2], [1, 2]])
        sched = propagate_schedule(inst, sol)
        assert isinstance(sched, Schedule)
        assert sched.starts[1] == 15.1
        assert sched.starts[2] == 15.1 + 10.0 + 4.9
        assert check_solution(inst, sol).feasible
        assert all(r <= inst.t_max for r in sched.returns)

    def test_window_diagnosis_names_first_vertex(self):
        inst = make_instance(
            [
                (50.0, 0.0, 1.0, 5.0, 0.0, 20.0, 1),
                (60.0, 0.0, 1.0, 5.0, 0.0, 20.0, 1),
            ],
            team_size=2,
            t_max=500.0,
        )
        sol = Solution(routes=[[1], [2]])
        diag = propagate_schedule(inst, sol)
        assert isinstance(diag, ScheduleInfeasible)
        assert diag.kind == "window"
        assert diag.vertex == 1

    def test_horizon_diagnosis(self):
        inst = make_instance(
            [(40.0, 0.0, 5.0, 5.0, 0.0, 100.0, 1)], team_size=1, t_max=84.0
        )
        diag = propagate_schedule(inst, Solution(routes=[[1]]))
        assert isinstance(diag, ScheduleInfeasible)
        assert diag.kind == "horizon"
        assert diag.route == 0

    def test_deadlock_detected_within_round_cap(self):
        # routes wait on each other forever: service at both vertices keeps
        # pushing the opposite route's start
        inst = make_instance(
            [
                (0.0, 0.0, 1.0, 5.0, 0.0, 1e6, 2),
                (0.0, 0.0, 1.0, 5.0, 0.0, 1e6, 2),
            ],
            team_size=2,
            t_max=1e6,
        )
        sol = Solution(routes=[[1, 2], [2, 1]])
        diag = propagate_schedule(inst, sol)
        assert isinstance(diag, ScheduleInfeasible)
        assert diag.kind == "deadlock"
        assert diag.rounds <= 4 + 1

    @pytest.mark.parametrize("routes", [
        pytest.param([[1], [1]], id="route-count"),
        pytest.param([[0]], id="depot"),
        pytest.param([[1, 1]], id="duplicate"),
        pytest.param([[9]], id="unknown-id"),
    ])
    def test_rejects_structural_garbage(self, routes):
        # each structural fault the checker reports makes propagation raise,
        # naming the checker's entry
        inst = make_instance([(1.0, 0.0, 0.0, 1.0, 0.0, 10.0, 1)], team_size=1, t_max=50.0)
        sol = Solution(routes=routes)
        [(family, detail)] = check_solution(inst, sol).violations
        with pytest.raises(ValueError, match=re.escape(f"{family}: {detail}")):
            propagate_schedule(inst, sol)

    def test_monotone_under_insertion(self):
        # adding a visit never lowers any existing fixed-point start
        rng = random.Random(77)
        checked = 0
        while checked < 60:
            inst = random_instance(rng, rng.randint(3, 7), team_size=rng.randint(2, 3))
            routes = _random_routes(rng, inst)
            before = propagate_schedule(inst, Solution(routes=routes))
            if not isinstance(before, Schedule):
                continue
            v, m = _random_insertable(rng, inst, routes)
            if v is None:
                continue
            routes[m].insert(rng.randint(0, len(routes[m])), v)
            after = propagate_schedule(inst, Solution(routes=routes))
            if not isinstance(after, Schedule):
                continue
            for u, s_before in before.starts.items():
                assert after.starts[u] >= s_before
            checked += 1


def _random_routes(rng, inst):
    routes = [[] for _ in range(inst.team_size)]
    for v in range(1, inst.n_vertices):
        for m in rng.sample(range(inst.team_size), rng.randint(0, inst.team_size)):
            if rng.random() < 0.4 and v not in routes[m]:
                routes[m].insert(rng.randint(0, len(routes[m])), v)
    return routes


def _random_insertable(rng, inst, routes):
    options = [
        (v, m)
        for v in range(1, inst.n_vertices)
        for m in range(inst.team_size)
        if v not in routes[m]
    ]
    if not options:
        return None, None
    return rng.choice(options)


def _bits(starts):
    return [x.hex() for x in starts]


def _both_indexes(inst, routes, s, m, pos, v):
    """insert_starts for one more visit of v before routes[m][pos], read
    through a heuristic workspace's maintained index and through the exact
    search's RouteScan of the routes.  Leaves the visit inserted in
    `routes` and returns both results, (maintained, scanned)."""
    ws = _Workspace(prepare(inst))
    ws.routes = [list(route) for route in routes]
    ws._index()
    ws.s = s
    maintained = ws._try_slot(m, pos, v)
    routes[m].insert(pos, v)
    scanned = insert_starts(ws.tt, RouteScan(routes), s, v)
    return maintained, scanned


class TestInsertStarts:
    """insert_starts against relax_starts, the least fixed point it must
    reach, through both kinds of member index."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        team_size=st.integers(1, 4),
        window=st.sampled_from([20.0, 60.0, 400.0]),
    )
    def test_matches_relaxation_on_random_insertions(self, seed, n, team_size, window):
        # grow a feasible routing one random visit at a time; every attempt,
        # accepted or not, must agree with the full relaxation bit for bit
        rng = random.Random(seed)
        inst = random_instance(rng, n, team_size=team_size, window=window)
        tt = TravelTimes(inst)
        routes = [[] for _ in range(team_size)]
        s = list(tt.open)
        for _ in range(3 * n):
            v = rng.randrange(1, inst.n_vertices)
            m = rng.randrange(team_size)
            if v in routes[m]:
                continue
            pos = rng.randint(0, len(routes[m]))
            maintained, got = _both_indexes(inst, routes, s, m, pos, v)
            status, expected, _, _ = relax_starts(tt, routes)
            if status == "ok":
                assert got is not None and maintained is not None
                assert _bits(got) == _bits(expected) == _bits(maintained)
                s = got
            else:
                assert got is None and maintained is None, status
                routes[m].pop(pos)

    def test_zero_weight_cycle_converges(self):
        # coincident customers with zero service: 1 -> 2 on one route and
        # 2 -> 1 on the other close a cycle of length zero
        inst = make_instance(
            [
                (10.0, 0.0, 0.0, 5.0, 0.0, 50.0, 2),
                (10.0, 0.0, 0.0, 5.0, 12.0, 50.0, 2),
            ],
            team_size=2,
            t_max=100.0,
        )
        tt = TravelTimes(inst)
        routes = [[1, 2], [2]]
        status, s, _, _ = relax_starts(tt, routes)
        assert status == "ok"
        maintained, got = _both_indexes(inst, routes, s, 1, 1, 1)
        assert got is not None
        assert got[1] == got[2] == 12.0
        assert relax_starts(tt, routes)[1] == got == maintained

    def test_positive_cycle_rejected(self):
        # service at both vertices pushes the other route's start forever;
        # the windows are wide enough that only cycle detection stops it
        inst = make_instance(
            [
                (0.0, 0.0, 1.0, 5.0, 0.0, 1e12, 2),
                (0.0, 0.0, 1.0, 5.0, 0.0, 1e12, 2),
            ],
            team_size=2,
            t_max=1e12,
        )
        tt = TravelTimes(inst)
        routes = [[1, 2], [2]]
        status, s, _, _ = relax_starts(tt, routes)
        assert status == "ok"
        assert _both_indexes(inst, routes, s, 1, 1, 1) == (None, None)

    @pytest.mark.parametrize(
        "close, t_max, feasible",
        [
            (5.0, 12.0, True),  # arrival equals the close, return equals T_max
            (math.nextafter(5.0, 0.0), 12.0, False),
            (5.0, math.nextafter(12.0, 0.0), False),
        ],
    )
    def test_exact_close_and_horizon(self, close, t_max, feasible):
        # every layer serves the customer exactly at its close and back at
        # T_max, and none does one ulp earlier
        inst = make_instance([(3.0, 4.0, 2.0, 7.0, 0.0, close, 1)], team_size=1, t_max=t_max)
        tt = TravelTimes(inst)
        maintained, got = _both_indexes(inst, [[]], tt.open, 0, 0, 1)
        assert got == maintained
        assert (got is not None) == feasible
        assert check_solution(inst, Solution(routes=[[1]])).feasible == feasible
        assert (relax_starts(tt, [[1]])[0] == "ok") == feasible
        score = 7.0 if feasible else 0.0
        result = solve(inst)
        assert result.best_score == score
        assert result.best_solution.routes == ([[1]] if feasible else [[]])
        assert exact_solve(inst).best_score == score
        if feasible:
            assert got[1] == 5.0


def _jacobi(tt, routes):
    """The start-time update in rounds over every route from the opening
    times, to its fixed point or a deadlock after visits + 1 rounds: the
    whole-routing relaxation that relax_starts' topological pass replaced.
    Returns (status, starts, returns) with status 'ok' or 'deadlock'."""
    t, dur, opens = tt.t, tt.dur, tt.open
    visited = sorted({v for route in routes for v in route})
    s = list(opens)
    returns = [0.0] * len(routes)
    for _ in range(sum(len(route) for route in routes) + 1):
        new_s = list(opens)
        for m, route in enumerate(routes):
            depart = 0.0
            prev = 0
            for v in route:
                arr = depart + t[prev][v]
                if arr > new_s[v]:
                    new_s[v] = arr
                depart = s[v] + dur[v]
                prev = v
            returns[m] = depart + t[prev][0] if route else 0.0
        changed = any(new_s[v] != s[v] for v in visited)
        s = new_s
        if not changed:
            return "ok", s, returns
    return "deadlock", s, returns


def _crossed_pair_routing(rng, n, team_size, window, horizon, pair_service):
    """A random instance and routing with the horizon scaled by `horizon`
    (the windows fit the full one, so late returns need a shorter one).
    Unless pair_service is None, two coincident customers with that service
    are visited in crossed order by the first two routes, each pair placed
    at a random position so that the visits after it form a tail behind
    the cycle: a zero-weight cycle that must converge at 0.0, a circular
    wait (deadlock) at 1.0."""
    base = random_instance(rng, n, team_size=team_size, window=window)
    t_max = base.t_max * horizon
    vertices = [replace(base.vertices[0], close=t_max)] + base.vertices[1:]
    requirements = list(base.requirements)
    customers = range(1, base.n_vertices)
    routes = [rng.sample(customers, rng.randint(0, n)) for _ in range(team_size)]
    if pair_service is not None:
        a, b = len(vertices), len(vertices) + 1
        x, y = rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0)
        for u in (a, b):
            vertices.append(Vertex(u, x, y, pair_service, 5.0, 0.0, t_max))
            requirements.append(2)
        for route, pair in zip(routes, ([a, b], [b, a])):
            i = rng.randint(0, len(route))
            route[i:i] = pair
    inst = Instance(vertices=vertices, requirements=requirements,
                    team_size=team_size, t_max=t_max)
    return inst, routes


class TestRelaxStarts:
    """relax_starts' topological pass against the relaxation in rounds."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        team_size=st.integers(1, 4),
        window=st.sampled_from([20.0, 60.0, 400.0]),
        horizon=st.sampled_from([1.0, 0.6, 0.3]),
        pair_service=st.sampled_from([None, 0.0, 1.0]),
    )
    def test_matches_rounds_over_every_route(self, seed, n, team_size, window, horizon,
                                             pair_service):
        rng = random.Random(seed)
        inst, routes = _crossed_pair_routing(rng, n, team_size, window, horizon,
                                             pair_service)
        tt = TravelTimes(inst)
        status, s, returns, rounds = relax_starts(tt, routes)
        ref, s_ref, returns_ref = _jacobi(tt, routes)
        assert 0 <= rounds <= sum(len(route) for route in routes) + 1
        if ref == "deadlock":
            assert status == "deadlock"
            return
        if any(s_ref[v] > tt.close[v] for route in routes for v in route):
            ref = "window"
        elif any(ret > tt.t_max for ret in returns_ref):
            ref = "horizon"
        assert status == ref
        assert _bits(s) == _bits(s_ref)
        assert _bits(returns) == _bits(returns_ref)

    def test_acyclic_routing_takes_no_rounds(self):
        inst = make_instance(
            [(3.0, 4.0, 2.0, 7.0, 0.0, 50.0, 2), (6.0, 8.0, 1.0, 5.0, 0.0, 50.0, 2)],
            team_size=2,
            t_max=100.0,
        )
        status, s, returns, rounds = relax_starts(TravelTimes(inst), [[1, 2], [2]])
        assert (status, rounds) == ("ok", 0)
        assert s[1:] == [5.0, 12.0]
        assert returns == [23.0, 23.0]


POST_CHECK_FAMILIES = ("window-close", "horizon", "deadlock", "arc-feasibility",
                       "requirement")


def _hand_post_checks(inst, routes):
    """The hand-written window, horizon and arc scans over a full relaxation
    that late() and bad_arcs() replaced, and the two requirement loops over
    a stored served set that Solution.served replaced: the checker's
    schedule, arc and requirement entries, and propagate_schedule's
    diagnosis (None for a schedule)."""
    d = build_distance_matrix(inst)
    tt = TravelTimes(inst, d)
    status, s, returns, rounds = relax_starts(tt, routes)
    entries = []
    diagnosis = None
    if status == "deadlock":
        entries.append(("deadlock", "cross-route waits never stabilize"))
        diagnosis = ScheduleInfeasible(kind="deadlock", rounds=rounds)
    else:
        for v in sorted({v for route in routes for v in route}):
            if s[v] > tt.close[v]:
                entries.append(("window-close", v))
                if diagnosis is None:
                    diagnosis = ScheduleInfeasible(kind="window", vertex=v, rounds=rounds)
        for m, ret in enumerate(returns):
            if ret > tt.t_max:
                entries.append(("horizon", f"route {m} returns at {ret}"))
                if diagnosis is None:
                    diagnosis = ScheduleInfeasible(kind="horizon", route=m, rounds=rounds)
    feas = build_arc_set(inst, d)
    for route in routes:
        prev = 0
        for v in route:
            if not feas[prev][v]:
                entries.append(("arc-feasibility", (prev, v)))
            prev = v
        if route and not feas[prev][0]:
            entries.append(("arc-feasibility", (prev, 0)))
    # the served set a solution file's parser rebuilt from visit counts
    counts = [0] * inst.n_vertices
    for route in routes:
        for v in route:
            counts[v] += 1
    req = inst.requirements
    served = {v for v in range(1, inst.n_vertices) if counts[v] > 0 and counts[v] >= req[v]}
    for v in sorted(served):
        if counts[v] < req[v]:
            entries.append(("requirement", v))
    for v in sorted({v for route in routes for v in route}):
        if v not in served:
            entries.append(("requirement", v))
    return entries, diagnosis, s, returns


class TestPostChecks:
    """late(), bad_arcs() and Solution.served through their callers,
    against the hand scans."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        team_size=st.integers(1, 4),
        window=st.sampled_from([20.0, 60.0, 400.0]),
        horizon=st.sampled_from([1.0, 0.6, 0.3]),
        pair_service=st.sampled_from([None, 0.0, 1.0]),
    )
    def test_same_entries_as_hand_scans(self, seed, n, team_size, window, horizon,
                                        pair_service):
        rng = random.Random(seed)
        inst, routes = _crossed_pair_routing(rng, n, team_size, window, horizon,
                                             pair_service)
        sol = Solution(routes=routes)
        entries, diagnosis, s, returns = _hand_post_checks(inst, routes)
        report = check_solution(inst, sol)
        assert [e for e in report.violations if e[0] in POST_CHECK_FAMILIES] == entries
        got = propagate_schedule(inst, sol)
        if diagnosis is None:
            assert isinstance(got, Schedule)
            assert got.starts == {v: s[v] for route in routes for v in route}
            assert _bits(got.returns) == _bits(returns)
        else:
            assert got == diagnosis


class TestChecker:
    def test_all_empty_routes_feasible(self):
        inst = make_instance([(4.0, 3.0, 1.0, 7.0, 0.0, 50.0, 1)], team_size=3, t_max=100.0)
        report = check_solution(inst, empty_solution(3))
        assert report.feasible
        assert objective(inst, empty_solution(3)) == 0.0

    def test_depot_flow_route_count(self):
        inst = make_instance([(4.0, 3.0, 1.0, 7.0, 0.0, 50.0, 1)], team_size=2, t_max=100.0)
        report = check_solution(inst, Solution(routes=[[]]))
        assert families(report) == ["depot-flow"]

    def test_depot_flow_depot_in_route(self):
        inst = make_instance([(4.0, 3.0, 1.0, 7.0, 0.0, 50.0, 1)], team_size=1, t_max=100.0)
        report = check_solution(inst, Solution(routes=[[0]]))
        assert families(report) == ["depot-flow"]

    def test_conservation_duplicate_visit(self):
        inst = make_instance([(4.0, 3.0, 1.0, 7.0, 0.0, 50.0, 1)], team_size=1, t_max=100.0)
        report = check_solution(inst, Solution(routes=[[1, 1]]))
        assert families(report) == ["conservation"]

    def test_conservation_unknown_vertex(self):
        inst = make_instance([(4.0, 3.0, 1.0, 7.0, 0.0, 50.0, 1)], team_size=1, t_max=100.0)
        report = check_solution(inst, Solution(routes=[[9]]))
        assert families(report) == ["conservation"]

    def test_requirement_visited_but_unserved(self):
        inst = make_instance(
            [(4.0, 3.0, 1.0, 7.0, 0.0, 50.0, 2)], team_size=2, t_max=100.0
        )
        sol = Solution(routes=[[1], []])
        report = check_solution(inst, sol)
        assert families(report) == ["requirement"]

    def test_window_close_from_cooperative_push(self):
        inst = make_instance(
            [
                (30.0, 0.0, 10.0, 5.0, 0.0, 100.0, 1),
                (32.0, 0.0, 1.0, 5.0, 0.0, 35.0, 1),
            ],
            team_size=1,
            t_max=200.0,
        )
        report = check_solution(inst, Solution(routes=[[1, 2]]))
        assert families(report) == ["window-close"]
        assert ("window-close", 2) in report.violations

    def test_horizon_late_return(self):
        inst = make_instance(
            [(40.0, 0.0, 5.0, 5.0, 0.0, 100.0, 1)], team_size=1, t_max=84.0
        )
        report = check_solution(inst, Solution(routes=[[1]]))
        assert families(report) == ["horizon"]

    def test_arc_feasibility_on_propagated_schedule(self):
        # after 1's long service, 2's window is already closed: propagated
        # starts never precede the opening, so an arc that misses its head's
        # window always brings a late start too
        inst = make_instance(
            [
                (10.0, 0.0, 50.0, 5.0, 0.0, 100.0, 1),
                (12.0, 0.0, 1.0, 5.0, 0.0, 30.0, 1),
            ],
            team_size=1,
            t_max=200.0,
        )
        sol = Solution(routes=[[1, 2]])
        report = check_solution(inst, sol)
        assert families(report) == ["arc-feasibility", "window-close"]
        assert ("arc-feasibility", (1, 2)) in report.violations
        assert ("window-close", 2) in report.violations

    def test_deadlock_reported_not_looped(self):
        inst = make_instance(
            [
                (0.0, 0.0, 1.0, 5.0, 0.0, 1e6, 2),
                (0.0, 0.0, 1.0, 5.0, 0.0, 1e6, 2),
            ],
            team_size=2,
            t_max=1e6,
        )
        report = check_solution(inst, Solution(routes=[[1, 2], [2, 1]]))
        assert families(report) == ["deadlock"]

    def test_one_distance_matrix_per_check(self, monkeypatch):
        # the travel times and the arc set share one matrix
        builds = []

        def counted(instance):
            builds.append(instance)
            return build_distance_matrix(instance)

        monkeypatch.setattr(scheduling, "build_distance_matrix", counted)
        inst = random_instance(random.Random(4), 5, team_size=2)
        for routes in ([[], []], [[1, 2], [3]], [[1, 2], [2, 1]], [[4, 5, 1], [5]]):
            builds.clear()
            check_solution(inst, Solution(routes=routes))
            assert len(builds) == 1, routes


class TestObjective:
    def test_single_vertex(self):
        inst = make_instance([(1.0, 0.0, 0.0, 20.0, 0.0, 50.0, 1)], team_size=1, t_max=100.0)
        assert objective(inst, Solution(routes=[[1]])) == 20.0

    def test_matches_independent_summation(self):
        # a customer pays once its required number of members visit it
        rng = random.Random(5)
        inst = random_instance(rng, 5, team_size=3)
        req = inst.requirements
        full = Solution(routes=[[v for v in range(1, 6) if m < req[v]] for m in range(3)])
        one_each = Solution(routes=[[1, 2], [3, 4], [5]])
        for sol, paid in ((full, range(1, 6)), (one_each, [v for v in range(1, 6) if req[v] == 1])):
            expected = 0.0
            for v in paid:
                expected += inst.vertices[v].reward
            assert objective(inst, sol) == expected
        assert 0 < len(one_each.served(inst)) < 5


class TestSolutionText:
    def test_round_trip(self):
        inst = make_instance(
            [
                (3.0, 0.0, 1.0, 7.0, 0.0, 50.0, 1),
                (0.0, 4.0, 1.0, 9.0, 0.0, 60.0, 2),
            ],
            team_size=3,
            t_max=100.0,
        )
        sol = Solution(routes=[[1, 2], [2], []])
        text = format_solution(sol, 16.0)
        parsed, score = parse_solution(text)
        assert parsed.routes == sol.routes
        assert parsed.served(inst) == sol.served(inst) == {1, 2}
        assert score == 16.0

    def test_served_reconstruction_spots_undercounts(self):
        inst = make_instance(
            [(0.0, 4.0, 1.0, 9.0, 0.0, 60.0, 2)], team_size=2, t_max=100.0
        )
        parsed, _ = parse_solution("member 1: 1\nmember 2:\nscore: 9.0\n")
        assert parsed.served(inst) == set()

    def test_malformed_lines_rejected(self):
        with pytest.raises(ParseError):
            parse_solution("member 2: 1\nscore: 1\n")
        with pytest.raises(ParseError):
            parse_solution("member 1: 1\n")
        with pytest.raises(ParseError):
            parse_solution("member 1: x\nscore: 1\n")

    @pytest.mark.parametrize("line", ["member 1 1", "member 1", "membership 1: 1",
                                      "member 1 2: 1", "member: 1"])
    def test_member_line_needs_exactly_member_k_colon(self, line):
        # without the colon "member 1 1" used to parse as an empty route
        with pytest.raises(ParseError):
            parse_solution(f"{line}\nscore: 0.0\n")

    @pytest.mark.parametrize("scores", [["0.0", "5.0"], ["5.0", "5.0"], ["nan"], ["inf"],
                                        ["-inf"], ["0.0", "nan"]])
    def test_exactly_one_finite_score(self, scores):
        # the last of several score lines used to be the claim, and nan or
        # inf were accepted as claims
        text = "member 1:\nmember 2:\n" + "".join(f"score: {v}\n" for v in scores)
        with pytest.raises(ParseError):
            parse_solution(text)
