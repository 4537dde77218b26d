"""Savings-guided construction and improvement for cooperative routes.

Construction walks the saving-pair list in order and, for each pair, tops up
both endpoints toward their full member requirement: every missing member
visit is first offered to the route ends (head or tail, cheapest added
distance first) and, only if no end accepts it, to the cheapest feasible
position inside a route.  An insertion is committed only when the propagated
schedule stays feasible for every visit already placed; nothing is ever
ripped out to make room.  After the pair list is exhausted, vertices that
never reached their requirement are removed from all routes.

The improvement pass then scans the unvisited vertices (highest reward
first) and tries to insert each one outright; failing that, it places the
visits at the cheapest arc-valid positions regardless of the schedule and,
if that breaks exactly one served vertex worth no more than the newcomer,
trades the two.  Any other breakage restores the previous routes.

A full run evaluates all 54 coefficient triplets, each triplet acting as a
fresh construction trajectory with one improvement pass, and keeps the best
score (earliest triplet wins ties).  Triplets are independent, so they can
be evaluated in parallel processes without changing the result.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .geometry import ArcSet, build_arc_set, build_distance_matrix
from .instances import Instance
from .savings import (SavingParams, SavingTerms, calc_saving_pairs,
                      parameter_grid, saving_terms)
from .scheduling import (Solution, TravelTimes, bad_arcs, insert_starts, late, objective,
                         relax_starts)


@dataclass
class SolverResult:
    best_solution: Solution
    best_score: float
    best_params: SavingParams
    triplet_scores: list[float]
    wall_time: float


class _Workspace:
    """Mutable routes, visit counts and the current start-time fixed point.

    `version` increments on every committed change; per-vertex failure
    versions let the pair loop skip re-attempting a vertex that already
    failed against the identical route state.
    """

    def __init__(self, instance: Instance, arcs: ArcSet, d: np.ndarray,
                 tt: TravelTimes | None = None):
        self.tt = TravelTimes(instance, d) if tt is None else tt
        self.feas = arcs.feasible.tolist()
        self.dist = d.tolist()
        self.team_size = instance.team_size
        self.routes: list[list[int]] = [[] for _ in range(instance.team_size)]
        self.count = [0] * instance.n_vertices
        self.served: set[int] = set()
        self.s = list(self.tt.open)
        self.version = 0
        self.fail_version = [-1] * instance.n_vertices

    @classmethod
    def from_solution(cls, instance: Instance, arcs: ArcSet, d: np.ndarray,
                      solution: Solution, tt: TravelTimes | None = None) -> "_Workspace":
        ws = cls(instance, arcs, d, tt)
        ws.routes = [list(route) for route in solution.routes]
        ws.count = solution.visit_counts(instance.n_vertices)
        ws.served = set(solution.served)
        status, s, _, _ = relax_starts(ws.tt, ws.routes)
        if status != "ok":
            raise ValueError(f"input solution has no feasible schedule: {status}")
        ws.s = s
        return ws

    def to_solution(self) -> Solution:
        return Solution(routes=[list(r) for r in self.routes], served=set(self.served))

    def snapshot(self):
        return (
            [list(r) for r in self.routes],
            list(self.count),
            set(self.served),
            list(self.s),
        )

    def restore(self, snap) -> None:
        routes, count, served, s = snap
        self.routes = [list(r) for r in routes]
        self.count = list(count)
        self.served = set(served)
        self.s = list(s)
        self.version += 1  # invalidate failure caches

    # -- candidate generation -------------------------------------------------

    def _slots(self, v: int, ends: bool):
        """Yield (delta, m, pos) slots for one more visit of v, cheapest added
        distance first: the route heads and tails when `ends`, else the
        interior positions.  A slot needs both arcs u -> v -> w valid, v
        reachable by its close from u's current start, and w (the depot at
        a tail) still reachable by its close after serving v.  These floors
        bound the first two starts insert_starts computes from below, in the
        same float order, so a slot they drop is one it would reject."""
        feas = self.feas
        dist = self.dist
        s = self.s
        tt = self.tt
        dur = tt.dur
        t = tt.t
        close = tt.close
        close_v = close[v]
        s_v = s[v]
        dur_v = dur[v]
        t_v = t[v]
        feas_v = feas[v]
        dist_v = dist[v]
        slots = []
        empty_seen = False
        for m, route in enumerate(self.routes):
            if v in route:
                continue
            n = len(route)
            if not ends:
                positions = range(1, n)
            elif n:
                positions = (0, n)
            elif empty_seen:
                continue  # empty routes are interchangeable
            else:
                empty_seen = True
                positions = (0,)
            for pos in positions:
                u = route[pos - 1] if pos else 0
                w = route[pos] if pos < n else 0
                if not feas[u][v] or not feas_v[w]:
                    continue
                arr = (s[u] + dur[u] if u else 0.0) + t[u][v]
                if arr > close_v:
                    continue
                if (arr if arr > s_v else s_v) + dur_v + t_v[w] > close[w]:
                    continue
                slots.append((dist[u][v] + dist_v[w] - dist[u][w], m, pos))
        slots.sort()
        yield from slots

    # -- feasibility-gated insertion ------------------------------------------

    def _try_slot(self, m: int, pos: int, v: int) -> list[float] | None:
        route = self.routes[m]
        route.insert(pos, v)
        s_new = insert_starts(self.tt, self.routes, self.s, m, pos)
        route.pop(pos)
        return s_new

    def _commit(self, m: int, pos: int, v: int, s_new: list[float]) -> None:
        self.routes[m].insert(pos, v)
        self.count[v] += 1
        self.s = s_new
        self.version += 1
        if self.count[v] >= self.tt.req[v]:
            self.served.add(v)

    def try_place_one(self, v: int) -> bool:
        """Place one member visit of v: route ends first, then interiors."""
        for ends in (True, False):
            for _, m, pos in self._slots(v, ends):
                s_new = self._try_slot(m, pos, v)
                if s_new is not None:
                    self._commit(m, pos, v, s_new)
                    return True
        return False

    def top_up(self, v: int) -> bool:
        """Raise v's visit count toward its requirement; True when complete."""
        r = self.tt.req[v]
        if r > self.team_size:
            return False
        if self.count[v] >= r:
            return True
        if self.fail_version[v] == self.version:
            return False
        while self.count[v] < r:
            if not self.try_place_one(v):
                self.fail_version[v] = self.version
                return False
        return True

    def remove_vertices(self, doomed: set[int]) -> None:
        if not doomed:
            return
        for route in self.routes:
            route[:] = [v for v in route if v not in doomed]
        for v in doomed:
            self.count[v] = 0
            self.served.discard(v)
        status, s, _, _ = relax_starts(self.tt, self.routes)
        if status != "ok":
            raise AssertionError("removal must never break a feasible schedule")
        self.s = s
        self.version += 1

    def remove_underserved(self) -> None:
        doomed = {
            v
            for v in range(1, self.tt.n)
            if 0 < self.count[v] < self.tt.req[v]
        }
        self.remove_vertices(doomed)

    # -- schedule-blind placement for the substitution move -------------------

    def force_place(self, v: int) -> bool:
        """Insert all of v's member visits at the cheapest arc-valid slots,
        ignoring the schedule.  Returns False when the routes cannot host
        them at all (caller restores)."""
        r = self.tt.req[v]
        for _ in range(r):
            best = None
            dist = self.dist
            for m, route in enumerate(self.routes):
                if v in route:
                    continue
                for pos in range(len(route) + 1):
                    u = 0 if pos == 0 else route[pos - 1]
                    w = 0 if pos == len(route) else route[pos]
                    if not self.feas[u][v] or not self.feas[v][w]:
                        continue
                    delta = dist[u][v] + dist[v][w] - dist[u][w]
                    if best is None or (delta, m, pos) < best:
                        best = (delta, m, pos)
            if best is None:
                return False
            _, m, pos = best
            self.routes[m].insert(pos, v)
            self.count[v] += 1
        return True


def construct(
    instance: Instance,
    arcs: ArcSet,
    d: np.ndarray,
    params: SavingParams,
    tt: TravelTimes | None = None,
    terms: SavingTerms | None = None,
) -> Solution:
    """Build one solution by walking the saving-pair list for `params`.

    After the pair walk, customers that appear in no feasible pair get one
    direct top-up attempt in descending reward order; the final cleanup then
    strips every vertex left short of its requirement.  The result is always
    checker-feasible; when nothing can be placed it is the all-empty
    solution.  `tt` and `terms`, when given, are TravelTimes(instance, d) and
    saving_terms(instance, d, arcs), which solve builds once for all triplets.
    """
    ws = _Workspace(instance, arcs, d, tt)
    for pair in calc_saving_pairs(instance, d, arcs, params, terms):
        ws.top_up(pair.i)
        ws.top_up(pair.j)
    # vertices in no feasible pair (isolated but depot-reachable customers,
    # or a lone customer) still deserve an attempt
    for v in sorted(range(1, ws.tt.n), key=lambda u: (-ws.tt.reward[u], u)):
        if v not in ws.served:
            ws.top_up(v)
    ws.remove_underserved()
    return ws.to_solution()


def improve(
    instance: Instance,
    arcs: ArcSet,
    d: np.ndarray,
    solution: Solution,
    tt: TravelTimes | None = None,
) -> Solution:
    """One substitution pass over the unvisited vertices, best reward first.

    Each vertex is inserted outright when possible; otherwise it is placed
    at the cheapest arc-valid slots and committed only if that breaks
    exactly one served vertex worth no more than the newcomer (which is then
    removed: a one-for-one trade).  Every other outcome restores the routes,
    so the returned score never drops below the input score.  `tt` is as
    for construct.  An input with a late start, a late return or a circular
    wait raises ValueError.
    """
    ws = _Workspace.from_solution(instance, arcs, d, solution, tt)
    tt = ws.tt
    order = sorted(
        (
            v
            for v in range(1, tt.n)
            if ws.count[v] == 0 and tt.req[v] <= ws.team_size
        ),
        key=lambda v: (-tt.reward[v], v),
    )
    for v in order:
        snap = ws.snapshot()
        if ws.top_up(v):
            continue
        ws.restore(snap)

        if not ws.force_place(v):
            ws.restore(snap)
            continue
        status, s_new, returns, _ = relax_starts(tt, ws.routes)
        broken = late(tt, ws.routes, s_new, returns)[0] if status == "window" else []
        if status == "ok":
            ws.served.add(v)
            ws.s = s_new
            ws.version += 1
        elif len(broken) == 1 and broken[0] != v and tt.reward[broken[0]] <= tt.reward[v]:
            j = broken[0]
            for route in ws.routes:
                route[:] = [u for u in route if u != j]
            status2, s2, _, _ = relax_starts(tt, ws.routes)
            if status2 == "ok" and next(bad_arcs(ws.feas, ws.routes), None) is None:
                ws.count[j] = 0
                ws.served.discard(j)
                ws.served.add(v)
                ws.s = s2
                ws.version += 1
            else:
                ws.restore(snap)
        else:
            ws.restore(snap)
    return ws.to_solution()


def _solve_one(instance: Instance, params: SavingParams, d: np.ndarray,
               arcs: ArcSet, tt: TravelTimes,
               terms: SavingTerms | None = None) -> tuple[float, Solution]:
    sol = construct(instance, arcs, d, params, tt, terms)
    sol = improve(instance, arcs, d, sol, tt)
    return objective(instance, sol), sol


def _solve_one_packed(args) -> tuple[float, Solution]:
    return _solve_one(*args)


def _pool_size(workers: int, tasks: int) -> int:
    """Worker processes for `tasks` independent jobs: never more than the
    jobs or the machine's CPUs, since the pool starts every worker at once."""
    return max(1, min(workers, tasks, os.cpu_count() or 1))


def solve(instance: Instance, workers: int = 1) -> SolverResult:
    """Run construction + improvement for every coefficient triplet and keep
    the best solution.  Deterministic for a fixed instance: parallel workers
    change nothing but the wall time.  The distances, arcs, travel times
    and saving terms are built once and shared by every triplet."""
    t0 = time.perf_counter()
    grid = parameter_grid()
    d = build_distance_matrix(instance)
    arcs = build_arc_set(instance, d)
    tt = TravelTimes(instance, d)
    terms = saving_terms(instance, d, arcs)
    tasks = [(instance, params, d, arcs, tt, terms) for params in grid]
    processes = _pool_size(workers, len(tasks))
    if processes == 1:
        outcomes = list(map(_solve_one_packed, tasks))
    else:
        # imported only here: the process machinery adds ~30 ms to every
        # import of the package, and serial solves never use it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            outcomes = list(pool.map(_solve_one_packed, tasks))
    best_idx = 0
    for idx in range(1, len(outcomes)):
        if outcomes[idx][0] > outcomes[best_idx][0]:
            best_idx = idx
    best_score, best_solution = outcomes[best_idx]
    return SolverResult(
        best_solution=best_solution,
        best_score=best_score,
        best_params=grid[best_idx],
        triplet_scores=[score for score, _ in outcomes],
        wall_time=time.perf_counter() - t0,
    )
