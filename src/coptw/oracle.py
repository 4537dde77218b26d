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

A node's work follows what it changes.  Each node keeps its live list:
in candidate order, the customers not yet complete that miss at most one
visit more than the unopened routes can give and, when they miss one, are
not on the open route.  A customer this count rule drops stays dropped
below the node: counts only grow, a customer appended to the open route
joins it, and closing the route empties it but takes an unopened route
away too.  So a node's live list is a filter of its parent's and equals
the rule over all candidates.  The reach test is applied to the live list
at every node and drops nothing for good, so the list needs no argument
about later tails.  The bound sums the rewards it keeps in candidate
order, as the rule over all candidates does, so it is the same float.

A node's children come from its live list too: it appends each live
customer off the open route that its tail has an arc to, in list order,
under the lexicographic rule and the window and horizon tests, and may
then close the route.  So v is appended only while count[v] + 1 +
unopened >= req[v].  No optimum is lost.  Strip a solution in a skipped
subtree of its incomplete visits and of any visit beyond a requirement:
its score is the same, no start rises, and in lexicographic route order
each of its appends is of a customer that its later routes complete, one
visit each, so the search reaches it.  This is the stripping argument
the incumbent and the skip of a complete customer rely on, exact above
the heuristic's rounding margin: a stripped visit's detour costs at
least its service time, which dwarfs the rounding of the triangle
inequality.

Appending v to the open route changes no other customer's count and
leaves v missing no more visits than the unopened routes give, so a
child's live list is its parent's, less v when v completes.  Every node
but the root is counted, recorded and bounded in its parent's loop by one
rule: count it, record it only when its score beats the incumbent, then
expand it only when its bound does.  An appended child applies the reach
test to the list it inherits; a new route keeps its parent's score, so it
records nothing, and it applies the count rule, which changes with the
routes left.  The root is counted and bounded by the same rule over every
candidate.

The search starts from a verified incumbent, by default the savings
heuristic's best solution: the bound cuts from the root on, and the
heuristic already reaches the optimum on most small rows.  An empty
solution as the incumbent gives the cold search, which finds every
incumbent by itself.  The incumbent at any node is the current routes with
not-yet-completed visits stripped out; stripping visits only lowers start
times, so the incumbent is always a valid solution.  When limits stop the
search early, or a path outgrows the interpreter's recursion limit, the
incumbent is returned with proven_optimal=False.  The search, the seed
solve and the incumbent's check read one Prepared instance.
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
    unproven incumbent.  A `node_limit` under `time_limit=inf` stops the
    search at the same node on any host, so its result does not depend on
    the host's speed or load.
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
        self.instance = prep.instance
        self.config = config
        self.team_size = prep.instance.team_size
        self.req = self.tt.req
        self.reward = self.tt.reward
        n = self.tt.n
        # in branching order, high reward first for good early incumbents;
        # a customer no feasible arc enters is never appended, so dropping
        # it tightens the bound and stays admissible
        self.bound_candidates = sorted(
            (v for v in range(1, n) if self.req[v] <= self.team_size and any(prep.into[v])),
            key=lambda v: (-self.reward[v], v),
        )
        # starts only grow and Euclidean travel times obey the triangle
        # inequality, so no later tail of the open route reaches v before
        # its current tail does, up to the rounding this margin absorbs
        slack = 1e-9 * max(1.0, self.tt.t_max)
        self.reach_close = [c + slack for c in self.tt.close]
        self.feas = prep.feas

        self.routes: list[list[int]] = [[]]
        self.links = RouteScan(self.routes)  # routes change in place only
        self.count = [0] * n
        self.score = 0.0
        self.s = list(self.tt.open)
        self.best_score = 0.0
        self.best_routes: list[list[int]] = []
        self.nodes = 0
        self.deadline = time.perf_counter() + config.time_limit

    def _bound(self) -> float:
        """The node's bound from scratch, over every candidate."""
        return self.score + self._live(self.bound_candidates)[1]

    def _live(self, cands: list[int]) -> tuple[list[int], float]:
        """The entries of `cands` the count rule keeps at this node, in
        order, and the reward of those the reach rule also keeps."""
        unopened = self.team_size - len(self.routes)
        count = self.count
        req = self.req
        reward = self.reward
        open_route = self.routes[-1]
        last = open_route[-1] if open_route else 0
        depart = self.s[last] + self.tt.dur[last]  # 0.0 at the depot (Instance)
        t_last = self.tt.t[last]
        reach_close = self.reach_close
        live = []
        completable = 0.0
        for v in cands:
            c = count[v]
            r = req[v]
            if c >= r:
                continue
            # v misses more visits than the routes that can still add one
            if c + unopened < r:
                if c + unopened + 1 < r or v in open_route:
                    continue
                live.append(v)
                if depart + t_last[v] > reach_close[v]:
                    continue
            else:
                live.append(v)
            completable += reward[v]
        return live, completable

    def _record_incumbent(self) -> None:
        stripped = [
            [v for v in route if self.count[v] >= self.req[v]]
            for route in self.routes
        ]
        if relax_starts(self.tt, stripped)[0] == "ok":
            self.best_score = self.score
            self.best_routes = [list(r) for r in stripped if r]

    def _count_node(self) -> None:
        self.nodes += 1
        if self.nodes > self.config.node_limit:
            raise _LimitReached
        if self.nodes % 512 == 0 and time.perf_counter() > self.deadline:
            raise _LimitReached

    def _expand(self, prev: list[int], lex_gt: bool, live: list[int]) -> None:
        """Branch on the current node, whose bound beats the incumbent,
        over `live`, its live list.  Each child is counted, recorded when
        its score beats the incumbent, and expanded when its bound does."""
        tt = self.tt
        t = tt.t
        dur = tt.dur
        close = tt.close
        t_max = tt.t_max
        count = self.count
        req = self.req
        reward = self.reward
        reach_close = self.reach_close
        s = self.s  # children that replace self.s put this list back
        open_route = self.routes[-1]
        last = open_route[-1] if open_route else 0
        depart = s[last] + dur[last]
        t_last = t[last]
        feas_last = self.feas[last]
        depth = len(open_route)
        unopened = self.team_size - len(self.routes)
        for v in live:
            if not feas_last[v] or v in open_route:
                continue
            c_old = count[v]
            if not lex_gt:
                if depth < len(prev) and v < prev[depth]:
                    continue  # open route would sort below its predecessor
                child_gt = depth >= len(prev) or v > prev[depth]
            else:
                child_gt = True
            arr = depart + t_last[v]
            if arr > close[v]:
                continue
            # a tail append only cascades when it raises the start of an
            # already-visited vertex; otherwise the fixed point is the old
            # one with s[v] updated in place
            s_old_v = s[v]
            if c_old == 0 or arr <= s_old_v:
                s_v = arr if arr > s_old_v else s_old_v
                if s_v + dur[v] + t[v][0] > t_max:
                    continue
                open_route.append(v)
                s[v] = s_v
                s_save = None
            else:
                open_route.append(v)
                s_new = insert_starts(tt, self.links, s, v)
                if s_new is None:
                    open_route.pop()
                    continue
                s_save = s
                self.s = s_new
                s_v = s_new[v]
            count[v] = c_old + 1
            # restored by assignment: `-=` drifts for non-integer rewards
            score = self.score
            if c_old + 1 == req[v]:
                self.score = score + reward[v]
            self._count_node()
            if self.score > self.best_score:
                self._record_incumbent()
            # no list is changed once built, so the child shares this
            # node's list unless v completes and leaves it
            if c_old + 1 < req[v]:
                keep = live
            else:
                keep = live.copy()
                keep.remove(v)
            t_v = t[v]
            depart_v = s_v + dur[v]
            completable = 0.0
            for w in keep:
                # only a customer that needs the open route can miss it
                if (count[w] + unopened < req[w]
                        and depart_v + t_v[w] > reach_close[w]):
                    continue
                completable += reward[w]
            if self.score + completable > self.best_score:
                self._expand(prev, child_gt, keep)
            self.score = score
            count[v] = c_old
            if s_save is not None:
                self.s = s_save
            else:
                s[v] = s_old_v
            open_route.pop()
        if open_route and len(self.routes) < self.team_size:
            if lex_gt or len(open_route) == len(prev):
                # closing the route keeps the score: nothing to record
                self._count_node()
                self.routes.append([])
                keep, completable = self._live(live)
                if self.score + completable > self.best_score:
                    self._expand(open_route, False, keep)
                self.routes.pop()

    def run(self) -> OracleResult:
        complete = True
        try:
            # the root's score, 0, beats no incumbent: nothing to record
            self._count_node()
            live, completable = self._live(self.bound_candidates)
            if self.score + completable > self.best_score:
                self._expand([], True, live)
        except (_LimitReached, RecursionError):
            # a limit, or a path deeper than the interpreter's stack, stops
            # the search; its incumbent was verified when it was taken
            complete = False
        routes = [list(r) for r in self.best_routes]
        while len(routes) < self.team_size:
            routes.append([])
        best = Solution(routes=routes)
        # the running score sums rewards in search order; report the
        # objective's sum, so a caller comparing scores sees one float
        return OracleResult(
            best_score=objective(self.instance, best),
            best_solution=best,
            proven_optimal=complete,
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
    119k nodes each, 366k in all (496k cold), about 0.8-0.9 s for all 16
    with their seed solves; c100_1 at 12 customers and 4 members takes
    8.26M nodes, about 17-18 s, to prove the heuristic's 298 optimal.
    When the node or time limit stops the search, or a path is deeper
    than the recursion limit, the incumbent is reported with
    proven_optimal=False.
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
