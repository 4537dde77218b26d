"""Exact small-instance solver by depth-first branch and bound.

Routes are built one at a time, each extended only at its tail, and the
finished routes must come out in non-decreasing lexicographic order: the
team is homogeneous, so every multiset of routes is explored exactly once
instead of once per member permutation.  Children are pruned when the
appended visit admits no feasible cooperative schedule (start times only
ever grow, so an infeasible prefix can never recover) and when the residual
reward bound cannot beat the incumbent.

The incumbent at any node is the current routes with not-yet-completed
visits stripped out; stripping visits only lowers start times, so the
incumbent is always a valid solution.  When limits stop the search early
the incumbent is returned with proven_optimal=False.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .geometry import build_arc_set, build_distance_matrix
from .instances import Instance
from .scheduling import Solution, TravelTimes, insert_starts, relax_starts


@dataclass
class OracleConfig:
    node_limit: int = 10**9
    time_limit: float = 300.0

    def __post_init__(self):
        if self.node_limit <= 0 or self.time_limit <= 0:
            raise ValueError("limits must be positive")


@dataclass
class OracleResult:
    best_score: float
    best_solution: Solution
    proven_optimal: bool
    explored_nodes: int


class _LimitReached(Exception):
    pass


class _Search:
    def __init__(self, instance: Instance, config: OracleConfig):
        d = build_distance_matrix(instance)
        self.tt = TravelTimes(instance, d)
        arcs = build_arc_set(instance, d)
        self.feas = arcs.feasible.tolist()
        self.config = config
        self.team_size = instance.team_size
        self.req = self.tt.req
        self.reward = self.tt.reward
        n = self.tt.n
        # branching order: high reward first for good early incumbents
        self.branch_order = sorted(
            (v for v in range(1, n) if self.req[v] <= self.team_size),
            key=lambda v: (-self.reward[v], v),
        )
        # a customer no feasible arc enters is never appended by _extend;
        # dropping it tightens the bound and stays admissible
        col_ok = arcs.feasible.any(axis=0)
        self.bound_candidates = [v for v in self.branch_order if col_ok[v]]
        # per-visit relaxation: each member visit of v consumes at least
        # its service plus the cheapest possible approach leg, and pays
        # reward/required proportionally; packing those items greedily
        # into the remaining route time is a fractional knapsack, an
        # upper bound on any completion
        tmat = np.array(self.tt.t)
        np.fill_diagonal(tmat, np.inf)
        approach = tmat.min(axis=0)
        self.visit_cost = [self.tt.dur[v] + float(approach[v]) for v in range(n)]
        self.visit_value = [
            self.reward[v] / self.req[v] if self.req[v] else 0.0 for v in range(n)
        ]
        self.bound_candidates.sort(
            key=lambda v: (
                -self.visit_value[v] / max(self.visit_cost[v], 1e-300),
                v,
            )
        )

        self.routes: list[list[int]] = [[]]
        self.open_set: set[int] = set()
        self.count = [0] * n
        self.score = 0.0
        self.s = list(self.tt.open)
        self.best_score = 0.0
        self.best_routes: list[list[int]] = []
        self.nodes = 0
        self.complete = True
        self.deadline = time.perf_counter() + config.time_limit

    def _bound(self) -> float:
        unopened = self.team_size - len(self.routes)
        open_set = self.open_set
        count = self.count
        req = self.req
        open_route = self.routes[-1]
        if open_route:
            last = open_route[-1]
            depart = self.s[last] + self.tt.dur[last]
        else:
            depart = 0.0
        capacity = max(0.0, self.tt.t_max - depart) + unopened * self.tt.t_max
        plain = 0.0
        packed = 0.0
        for v in self.bound_candidates:
            c = count[v]
            r = req[v]
            if c >= r:
                continue
            if c + (0 if v in open_set else 1) + unopened < r:
                continue
            plain += self.reward[v]
            # completing v still pays its banked share plus the rest if the
            # remaining visits fit into the remaining route time
            packed += self.visit_value[v] * c
            need_time = (r - c) * self.visit_cost[v]
            if need_time <= capacity:
                packed += self.visit_value[v] * (r - c)
                capacity -= need_time
            elif self.visit_cost[v] > 0.0:
                packed += self.visit_value[v] * (capacity / self.visit_cost[v])
                capacity = 0.0
        return self.score + min(plain, packed)

    def _record_incumbent(self) -> None:
        if self.score <= self.best_score:
            return
        stripped = [
            [v for v in route if self.count[v] >= self.req[v]]
            for route in self.routes
        ]
        if relax_starts(self.tt, stripped)[0] == "ok":
            self.best_score = self.score
            self.best_routes = [list(r) for r in stripped if r]

    def _extend(self, prev: list[int], lex_gt: bool) -> None:
        self.nodes += 1
        if self.nodes > self.config.node_limit:
            self.complete = False
            raise _LimitReached
        if self.nodes % 512 == 0 and time.perf_counter() > self.deadline:
            self.complete = False
            raise _LimitReached
        self._record_incumbent()
        if self._bound() <= self.best_score:
            return
        tt = self.tt
        open_route = self.routes[-1]
        last = open_route[-1] if open_route else 0
        feas_last = self.feas[last]
        depart = 0.0 if last == 0 else self.s[last] + tt.dur[last]
        t_last = tt.t[last]
        depth = len(open_route)
        for v in self.branch_order:
            if self.count[v] >= self.req[v] or v in self.open_set or not feas_last[v]:
                continue
            if not lex_gt:
                if depth < len(prev) and v < prev[depth]:
                    continue  # open route would sort below its predecessor
                child_gt = depth >= len(prev) or v > prev[depth]
            else:
                child_gt = True
            arr = depart + t_last[v]
            if arr > tt.close[v]:
                continue
            # a tail append only cascades when it raises the start of an
            # already-visited vertex; otherwise the fixed point is the old
            # one with s[v] updated in place
            s_old_v = self.s[v]
            if self.count[v] == 0 or arr <= s_old_v:
                s_v = arr if arr > s_old_v else s_old_v
                if s_v + tt.dur[v] + tt.t[v][0] > tt.t_max:
                    continue
                open_route.append(v)
                self.s[v] = s_v
                feasible = True
                s_save = None
            else:
                open_route.append(v)
                s_new = insert_starts(tt, self.routes, self.s, len(self.routes) - 1, depth)
                feasible = s_new is not None
                if feasible:
                    s_save = self.s
                    self.s = s_new
            if feasible:
                self.open_set.add(v)
                self.count[v] += 1
                served_now = self.count[v] == self.req[v]
                if served_now:
                    self.score += self.reward[v]
                self._extend(prev, child_gt)
                if served_now:
                    self.score -= self.reward[v]
                self.count[v] -= 1
                self.open_set.remove(v)
                if s_save is not None:
                    self.s = s_save
                else:
                    self.s[v] = s_old_v
            open_route.pop()
        if open_route and len(self.routes) < self.team_size:
            if lex_gt or len(open_route) == len(prev):
                closed = open_route
                self.routes.append([])
                saved_set = self.open_set
                self.open_set = set()
                self._extend(closed, False)
                self.open_set = saved_set
                self.routes.pop()

    def run(self) -> OracleResult:
        try:
            self._extend([], True)
        except _LimitReached:
            pass
        routes = [list(r) for r in self.best_routes]
        while len(routes) < self.team_size:
            routes.append([])
        served = {v for route in routes for v in route}
        return OracleResult(
            best_score=self.best_score,
            best_solution=Solution(routes=routes, served=served),
            proven_optimal=self.complete,
            explored_nodes=self.nodes,
        )


def exact_solve(instance: Instance, config: OracleConfig | None = None) -> OracleResult:
    """Find the maximum collectible reward by exhaustive search.

    Practical up to roughly 14 customers with 4 members; beyond that the
    node/time limits stop the search and the incumbent is reported with
    proven_optimal=False.
    """
    if config is None:
        config = OracleConfig()
    return _Search(instance, config).run()


def optimality_gap(heuristic_score: float, optimal_score: float) -> float:
    """Gap in percent of the optimum; 0 when the optimum itself is 0.

    A heuristic score above the proven optimum means a verifier or search
    bug, so it fails hard instead of returning a negative gap.
    """
    if heuristic_score < 0 or optimal_score < 0:
        raise ValueError("scores must be non-negative")
    if heuristic_score > optimal_score:
        raise AssertionError(
            f"heuristic score {heuristic_score} exceeds proven optimum {optimal_score}"
        )
    if optimal_score == 0:
        return 0.0
    return 100.0 * (optimal_score - heuristic_score) / optimal_score
