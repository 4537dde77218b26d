"""Exact small-instance solver by depth-first branch and bound.

Routes are built one at a time, each extended only at its tail, and the
finished routes must come out in non-decreasing lexicographic order: the
team is homogeneous, so every multiset of routes is explored exactly once
instead of once per member permutation.  Children are pruned when the
appended visit admits no feasible cooperative schedule (start times only
ever grow, so an infeasible prefix can never recover) and when the residual
reward bound cannot beat the incumbent.  The bound is the score plus the
reward of every customer that can still be completed: each unopened route
may add one visit to a customer, and the open route one more only while
its tail can still reach the customer by its closing time.  No completion
collects more.  The bound has no route-time term: a fractional knapsack
over the remaining route time, tried on top, was needed for only 24 of the
304,868 nodes pruned on the 16 benchmark rows (requirement seed 1).

The search starts from a verified incumbent, by default the savings
heuristic's best solution: the bound cuts from the root on, and the
heuristic already reaches the optimum on most small rows.  An empty
solution as the incumbent gives the cold search, which finds every
incumbent by itself.  The incumbent at any node is the current routes with
not-yet-completed visits stripped out; stripping visits only lowers start
times, so the incumbent is always a valid solution.  When limits stop the
search early the incumbent is returned with proven_optimal=False.  The
search, the seed solve and the incumbent's check read one Prepared instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# unused here; kept because the benchmark tracer wraps these two names
from .geometry import build_arc_set, build_distance_matrix  # noqa: F401
from .heuristic import Prepared, prepare, solve
from .instances import Instance
from .scheduling import (RouteScan, Solution, insert_starts, objective, relax_starts,
                         solution_faults)


@dataclass
class OracleConfig:
    """Search limits; `time_limit` is in seconds and `inf` means none.

    The time limit covers the `exact_solve` call after its `prepare`, the
    heuristic solve that seeds the default incumbent included.  That solve
    runs to its end and cannot be interrupted: a limit shorter than it
    stops the search at its first deadline check, and the call returns the
    unproven incumbent.
    """

    node_limit: int = 10**9
    time_limit: float = 300.0

    def __post_init__(self):
        # NaN fails every comparison: `nan <= 0` would let it through as a
        # limit the deadline check never reaches
        if not (self.node_limit > 0 and self.time_limit > 0):
            raise ValueError(
                f"limits must be positive, got node_limit={self.node_limit}, "
                f"time_limit={self.time_limit}")


@dataclass
class OracleResult:
    best_score: float
    best_solution: Solution
    proven_optimal: bool
    explored_nodes: int


class _LimitReached(Exception):
    pass


class _Search:
    def __init__(self, prep: Prepared, config: OracleConfig):
        self.tt = prep.tt
        self.feas = prep.feas
        self.instance = prep.instance
        self.config = config
        self.team_size = prep.instance.team_size
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
        self.bound_candidates = [v for v in self.branch_order
                                 if any(row[v] for row in self.feas)]
        # starts only grow and Euclidean travel times obey the triangle
        # inequality, so no later tail of the open route reaches v before
        # its current tail does, up to the rounding this margin absorbs
        slack = 1e-9 * max(1.0, self.tt.t_max)
        self.reach_close = [c + slack for c in self.tt.close]

        self.routes: list[list[int]] = [[]]
        self.links = RouteScan(self.routes)  # routes change in place only
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
        reward = self.reward
        open_route = self.routes[-1]
        if open_route:
            last = open_route[-1]
            depart = self.s[last] + self.tt.dur[last]
        else:
            last = 0
            depart = 0.0
        t_last = self.tt.t[last]
        reach_close = self.reach_close
        completable = 0.0
        for v in self.bound_candidates:
            c = count[v]
            r = req[v]
            if c >= r:
                continue
            # v misses more visits than the routes that can still add one
            if c + unopened < r and (
                    c + unopened + 1 < r or v in open_set
                    or depart + t_last[v] > reach_close[v]):
                continue
            completable += reward[v]
        return self.score + completable

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
                s_new = insert_starts(tt, self.links, self.s, v)
                feasible = s_new is not None
                if feasible:
                    s_save = self.s
                    self.s = s_new
            if feasible:
                self.open_set.add(v)
                self.count[v] += 1
                # restored by assignment: `-=` drifts for non-integer rewards
                score = self.score
                if self.count[v] == self.req[v]:
                    self.score = score + self.reward[v]
                self._extend(prev, child_gt)
                self.score = score
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
        best = Solution(routes=routes)
        # the running score sums rewards in search order; report the
        # objective's sum, so a caller comparing scores sees one float
        return OracleResult(
            best_score=objective(self.instance, best),
            best_solution=best,
            proven_optimal=self.complete,
            explored_nodes=self.nodes,
        )


def exact_solve(instance: Instance, config: OracleConfig | None = None,
                incumbent: Solution | None = None) -> OracleResult:
    """Find the maximum collectible reward by exhaustive search.

    One `prepare(instance)` serves the call.  The search starts from
    `incumbent`, by default the best solution of `solve(prep, workers=1)`
    on it; a caller that already has it passes it and saves the solve.
    An incumbent with solution_faults() raises ValueError naming the first.
    The search only replaces it with a strictly better solution, so on a
    tie its routes come back.  Passing `empty_solution(instance.team_size)`
    runs the cold search.  The reported score is `objective` of the
    reported routes.

    Measured on a 2-vCPU Xeon under Python 3.11: the 16 benchmark rows at
    10-12 customers and 3-4 members (requirement seed 1) prove in 811 to
    135k nodes each, 477k in all (711k cold), about 2.7 s for all 16 with
    their seed solves; c100_1 at 12 customers and 4 members is still
    unproven after 25 s and 6.2M nodes, though the heuristic's 298 is its
    optimum.  When the node or time limit stops the search, the incumbent
    is reported with proven_optimal=False.
    """
    if config is None:
        config = OracleConfig()
    prep = prepare(instance)
    search = _Search(prep, config)  # its deadline covers the seed solve
    if incumbent is None:
        incumbent = solve(prep, workers=1).best_solution
    faults, _ = solution_faults(instance, prep.tt, prep.feas, incumbent.routes)
    if faults:
        family, detail = faults[0]
        raise ValueError(f"incumbent is infeasible ({family}: {detail})")
    search.best_score = objective(instance, incumbent)
    search.best_routes = [list(r) for r in incumbent.routes if r]
    return search.run()


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
