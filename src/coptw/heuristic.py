"""Savings-guided construction and improvement for cooperative routes.

Construction walks the saving-pair list in order and, for each pair, tops up
both endpoints toward their full member requirement: every missing member
visit is first offered to the route ends (head or tail, cheapest added
distance first) and, only if no end accepts it, to the cheapest feasible
position inside a route.  An insertion is committed only when the propagated
schedule stays feasible for every visit already placed; nothing is ever
ripped out to make room.  After the pair list is exhausted, vertices that
never reached their requirement are removed from all routes.

A vertex v that failed is not tried again before that removal.  Until
then the routes only gain visits, and a gained visit never lowers a start:
the detour through it costs at least its service time, which dwarfs the
rounding of the triangle inequality.  Every slot of the grown routes lies
between two visits u and w (the depot counts) that were adjacent on its
route when v failed, so placing v there gives the routing that was
rejected then, v between u and w, plus visits.  Its starts are no lower,
so the late start, late return or circular wait that rejected it remains.
Where some customer's service time is too short for this
(TravelTimes.monotone), a vertex is retried once anything was placed
since it failed.  Otherwise its first top-up settles it for the rest of
the walk, complete or failed, and the walk skips it from then on.

The improvement pass then scans the unvisited vertices (highest reward
first) and tries to insert each one outright; failing that, it places the
visits at the cheapest arc-valid positions regardless of the schedule and,
if that breaks exactly one served vertex worth no more than the newcomer,
trades the two.  Any other breakage restores the previous routes.  Under
TravelTimes.monotone the same argument holds for this placement: it only
adds visits, so the starts before it bound the new ones from below.  When
the bound on the newcomer's start, or on its new successors' starts,
already shows a breakage no trade can mend, the move is undone without
relaxing the schedule (_Workspace.substitute).

A full run has two phases.  It first constructs one solution for each of
the 54 coefficient triplets; many triplets walk their pair lists to the
same routes.  It then runs the improvement pass once per distinct
construction, keyed by its routes, and maps the results back onto the grid,
keeping the best score (earliest triplet wins ties).  The calls within a
phase are independent, so they can run in parallel processes without
changing the result.  All read the distances, arcs, travel times and
saving terms of one Prepared instance, built once per solve or exact_solve.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .geometry import build_arc_set, build_distance_matrix
from .instances import Instance
from .savings import (SavingParams, SavingTerms, calc_saving_pairs,
                      parameter_grid, saving_terms)
from .scheduling import (Solution, TravelTimes, bad_arcs, insert_starts, late, objective,
                         relax_starts, solution_faults)


@dataclass
class SolverResult:
    best_solution: Solution
    best_score: float
    best_params: SavingParams
    triplet_scores: list[float]
    wall_time: float


class Prepared(NamedTuple):
    """What every construct and improve call on one instance reads: the
    instance (for its team size), its travel times, the arc-feasibility
    matrix and distances as nested lists, and the saving terms."""

    instance: Instance
    tt: TravelTimes
    feas: list[list[bool]]
    dist: list[list[float]]
    terms: SavingTerms


def prepare(instance: Instance) -> Prepared:
    """Build the instance's distances, arcs, travel times and saving terms
    once, for any number of construct and improve calls."""
    d = build_distance_matrix(instance)
    feasible = build_arc_set(instance, d)
    return Prepared(instance, TravelTimes(instance, d), feasible.tolist(), d.tolist(),
                    saving_terms(instance, d, feasible))


class _Workspace:
    """Mutable routes, visit counts, a member index and the current
    start-time fixed point over one Prepared instance, whose lists it
    reads and never copies.

    `links[x]` is the member index insert_starts reads: one
    `[m, pred, succ]` entry per route m that visits x, in ascending m, with
    0 for the depot.  `from_solution` builds it from the routes; `_commit`,
    `force_place` and `drop` keep it in step at O(req) per visit.  `s` is
    replaced, never changed in place, so a move can keep the old list to
    undo itself.

    `version` increments on every committed change, and
    `fail_version[v]` is the version at which top_up last failed on v.  A
    retry at the same version fails at once.  So does any retry while
    `failures_final` holds: it starts as TravelTimes.monotone, and while no
    visit was removed the routes have only grown since the failure, so
    every slot fails again (module docstring).  The first `drop` clears it
    for good, since a removal can lower starts, and `from_solution` starts
    without it; from then on a retry after any change tries every slot.
    """

    def __init__(self, prep: Prepared):
        self.tt = prep.tt
        self.feas = prep.feas
        self.dist = prep.dist
        self.team_size = prep.instance.team_size
        self.routes: list[list[int]] = [[] for _ in range(self.team_size)]
        self.links: list[list[list[int]]] = [[] for _ in range(self.tt.n)]
        self.count = [0] * self.tt.n
        self.s = list(self.tt.open)
        self.version = 0
        self.fail_version = [-1] * self.tt.n
        self.failures_final = self.tt.monotone

    @classmethod
    def from_solution(cls, prep: Prepared, solution: Solution) -> "_Workspace":
        """A workspace over a solution the checker accepts, keeping the
        starts of its check; any other input raises ValueError naming its
        first solution_faults() entry, the one check_solution reports
        first."""
        faults, s = solution_faults(prep.instance, prep.tt, prep.feas, solution.routes)
        if faults:
            family, detail = faults[0]
            raise ValueError(f"input solution is infeasible ({family}: {detail})")
        ws = cls(prep)
        ws.routes = [list(route) for route in solution.routes]
        ws.count = solution.visit_counts(ws.tt.n)
        ws.s = s
        ws._index()
        ws.failures_final = False
        return ws

    def to_solution(self) -> Solution:
        return Solution(routes=[list(r) for r in self.routes])

    # -- the member index -----------------------------------------------------

    def _index(self) -> None:
        links = [[] for _ in range(self.tt.n)]
        for m, route in enumerate(self.routes):
            for u, x, w in zip([0, *route], route, [*route[1:], 0]):
                links[x].append([m, u, w])
        self.links = links

    def _relink(self, m: int, u: int, w: int) -> None:
        """Make w follow u on route m in the index (0 is the depot)."""
        if u:
            for entry in self.links[u]:
                if entry[0] == m:
                    entry[2] = w
                    break
        if w:
            for entry in self.links[w]:
                if entry[0] == m:
                    entry[1] = u
                    break

    def _link(self, m: int, pos: int, v: int) -> None:
        """Index v as the visit before routes[m][pos]; the route is not
        changed."""
        route = self.routes[m]
        u = route[pos - 1] if pos else 0
        w = route[pos] if pos < len(route) else 0
        entries = self.links[v]
        i = 0
        while i < len(entries) and entries[i][0] < m:
            i += 1
        entries.insert(i, [m, u, w])
        self._relink(m, u, v)
        self._relink(m, v, w)

    def _unlink(self, m: int, v: int) -> None:
        entries = self.links[v]
        for i, (k, u, w) in enumerate(entries):
            if k == m:
                del entries[i]
                self._relink(m, u, w)
                return

    def _place(self, m: int, pos: int, v: int) -> None:
        self._link(m, pos, v)
        self.routes[m].insert(pos, v)
        self.count[v] += 1

    def drop(self, v: int) -> None:
        """Remove every visit of v.  The caller sets the starts."""
        for m, u, w in self.links[v]:
            self.routes[m].remove(v)
            self._relink(m, u, w)
        self.links[v] = []
        self.count[v] = 0
        self.version += 1  # invalidate failure caches
        self.failures_final = False  # starts may fall now

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
        taken = {m for m, _, _ in self.links[v]}
        for m, route in enumerate(self.routes):
            if m in taken:
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
        self._link(m, pos, v)
        s_new = insert_starts(self.tt, self.links, self.s, v)
        self._unlink(m, v)
        return s_new

    def _commit(self, m: int, pos: int, v: int, s_new: list[float]) -> None:
        self._place(m, pos, v)
        self.s = s_new
        self.version += 1

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
        failed = self.fail_version[v]
        if failed == self.version or failed >= 0 and self.failures_final:
            return False
        while self.count[v] < r:
            if not self.try_place_one(v):
                self.fail_version[v] = self.version
                return False
        return True

    def remove_vertices(self, doomed: set[int]) -> None:
        if not doomed:
            return
        for v in doomed:
            self.drop(v)
        status, s, _, _ = relax_starts(self.tt, self.routes)
        if status != "ok":
            raise AssertionError("removal must never break a feasible schedule")
        self.s = s

    def remove_underserved(self) -> None:
        doomed = {
            v
            for v in range(1, self.tt.n)
            if 0 < self.count[v] < self.tt.req[v]
        }
        self.remove_vertices(doomed)

    # -- the substitution move ------------------------------------------------

    def force_place(self, v: int) -> bool:
        """Insert all of v's member visits at the cheapest arc-valid slots,
        ignoring the schedule.  Returns False when the routes cannot host
        them at all (caller drops v)."""
        r = self.tt.req[v]
        feas = self.feas
        feas_v = feas[v]
        dist = self.dist
        dist_v = dist[v]
        for _ in range(r):
            best = None
            taken = {m for m, _, _ in self.links[v]}
            for m, route in enumerate(self.routes):
                if m in taken:
                    continue
                u = 0
                for pos, w in enumerate([*route, 0]):
                    # positions come in ascending (m, pos), so the first
                    # cheapest one wins ties
                    if feas[u][v] and feas_v[w]:
                        delta = dist[u][v] + dist_v[w] - dist[u][w]
                        if best is None or delta < best[0]:
                            best = (delta, m, pos)
                    u = w
            if best is None:
                return False
            _, m, pos = best
            self._place(m, pos, v)
        return True

    def _doomed(self, v: int) -> bool:
        """Whether the starts before force_place(v), which bound the new
        ones from below while TravelTimes.monotone holds, already show a
        breakage no trade can mend: v late, a late successor of v worth
        more than v, or two distinct late successors.  v's bound is the
        latest arrival from its new predecessors (the depot's travel time
        at a route head), each successor's is v's departure at that bound,
        both in relax_starts' float order.  A successor can follow v on
        several routes; it counts once."""
        tt = self.tt
        s = self.s
        t = tt.t
        dur = tt.dur
        close = tt.close
        reward = tt.reward
        start = tt.open[v]
        for _, u, _ in self.links[v]:
            arr = s[u] + dur[u] + t[u][v] if u else t[0][v]
            if arr > start:
                start = arr
        if start > close[v]:
            return True
        depart = start + dur[v]
        t_v = t[v]
        broken = 0  # the late successor seen so far
        for _, _, w in self.links[v]:
            if w and depart + t_v[w] > close[w]:
                if reward[w] > reward[v] or broken and broken != w:
                    return True
                broken = w
        return False

    def substitute(self, v: int) -> None:
        """One improvement move for an unvisited v on a complete, feasible
        solution: insert v outright, or trade it for the one served vertex
        its schedule-blind placement breaks if that one is worth no more.
        Any other outcome drops v again and keeps the old starts, which
        are the fixed point of the unchanged routes.

        Under TravelTimes.monotone adding visits never lowers a start, so
        the old starts bound those of the forced routing from below.  When
        the bound already makes v late, a successor of v late that is
        worth more than v, or two distinct successors late (_doomed), no
        trade can commit and the move is undone without a relaxation.  A
        late return decides nothing: removing the traded vertex can cure
        it."""
        tt = self.tt
        s = self.s
        if self.top_up(v):
            return
        self.drop(v)
        self.s = s
        if not self.force_place(v):
            self.drop(v)
            return
        if tt.monotone and self._doomed(v):
            self.drop(v)
            self.s = s
            return
        status, s_new, returns, _ = relax_starts(tt, self.routes)
        if status == "ok":
            self.s = s_new
            self.version += 1
            return
        broken = late(tt, self.routes, s_new, returns)[0] if status == "window" else []
        if len(broken) == 1 and broken[0] != v and tt.reward[broken[0]] <= tt.reward[v]:
            j = broken[0]
            rest = [[u for u in route if u != j] for route in self.routes]
            status, s_new, _, _ = relax_starts(tt, rest)
            if status == "ok" and next(bad_arcs(self.feas, rest), None) is None:
                self.drop(j)
                self.s = s_new
                return
        self.drop(v)
        self.s = s


def construct(prep: Prepared, params: SavingParams) -> Solution:
    """Build one solution by walking the saving-pair list for `params`.

    After the pair walk, customers that appear in no feasible pair get one
    direct top-up attempt in descending reward order; the final cleanup then
    strips every vertex left short of its requirement.  The result is always
    checker-feasible; when nothing can be placed it is the all-empty
    solution.
    """
    ws = _Workspace(prep)
    tt = ws.tt
    # vertices in no feasible pair (isolated but depot-reachable customers,
    # or a lone customer) still deserve an attempt after the pairs
    by_reward = sorted(range(1, tt.n), key=lambda u: (-tt.reward[u], u))
    # while failures are final the walk drops nothing, so a top_up settles
    # its vertex: complete, or failed until the walk ends
    settled = bytearray(tt.n)
    for v in chain(chain.from_iterable(calc_saving_pairs(prep.terms, params)), by_reward):
        if not settled[v]:
            ws.top_up(v)
            settled[v] = ws.failures_final
    ws.remove_underserved()
    return ws.to_solution()


def improve(prep: Prepared, solution: Solution) -> Solution:
    """One substitution pass over the unvisited vertices, best reward first.

    Each vertex is inserted outright when possible; otherwise it is placed
    at the cheapest arc-valid slots and committed only if that breaks
    exactly one served vertex worth no more than the newcomer (which is then
    removed: a one-for-one trade).  Every other outcome undoes the move
    (`_Workspace.substitute`), so the returned score never drops below the
    input score.  An input the checker rejects raises ValueError naming its
    first solution_faults() entry (`_Workspace.from_solution`).
    """
    ws = _Workspace.from_solution(prep, solution)
    tt = ws.tt
    unvisited = [v for v in range(1, tt.n) if ws.count[v] == 0 and tt.req[v] <= ws.team_size]
    for v in sorted(unvisited, key=lambda v: (-tt.reward[v], v)):
        ws.substitute(v)
    return ws.to_solution()


def _pool_size(workers: int, tasks: int) -> int:
    """Worker processes for `tasks` independent jobs: never more than the
    jobs or the machine's CPUs, since the pool starts every worker at once."""
    return max(1, min(workers, tasks, os.cpu_count() or 1))


# The Prepared instance every construct and improve call of one solve
# reads.  A pool's initializer sets it once in each worker, so it is shipped
# once per worker instead of once per task; a serial solve sets it in the
# calling process for the length of its loop.
_shared: Prepared | None = None


def _share(prep: Prepared | None) -> None:
    global _shared
    _shared = prep


def _construct_one(params: SavingParams) -> Solution:
    return construct(_shared, params)


def _improve_one(solution: Solution) -> Solution:
    return improve(_shared, solution)


def solve(instance: Instance | Prepared, workers: int = 1) -> SolverResult:
    """Construct every coefficient triplet, improve each distinct
    construction once and keep the best solution.

    Phase 1 calls `construct` for every triplet in grid order.  Phase 2
    calls `improve` once per distinct construction, in first-seen grid
    order.  The key is the routes, member order included; it is exact
    because a solution is its routes and `improve` is deterministic.  Each
    triplet then takes the improved result of its construction, so
    `triplet_scores` has one entry per triplet and the earliest triplet
    wins ties.  With `workers` above 1 both phases run on
    one process pool, which changes nothing but the wall time.  One
    Prepared instance is shared by every call; a pool receives it once
    per worker, through its initializer, and each task carries only its
    triplet or construction.  `instance` may be that Prepared instance
    itself, as `exact_solve` passes it; `wall_time` then excludes its
    `prepare`."""
    t0 = time.perf_counter()
    grid = parameter_grid()
    prep = instance if isinstance(instance, Prepared) else prepare(instance)
    processes = _pool_size(workers, len(grid))
    with contextlib.ExitStack() as stack:
        if processes == 1:
            stack.callback(_share, _shared)
            _share(prep)
            run = map
        else:
            # imported only here: the process machinery adds ~30 ms to every
            # import of the package, and serial solves never use it
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=processes, initializer=_share,
                                       initargs=(prep,))
            run = stack.enter_context(pool).map
        built = list(run(_construct_one, grid))
        keys = [tuple(map(tuple, sol.routes)) for sol in built]
        distinct: dict[tuple, Solution] = {}  # routes -> construction, first seen first
        for key, sol in zip(keys, built):
            distinct.setdefault(key, sol)
        improved = run(_improve_one, distinct.values())
        results = {key: (objective(prep.instance, sol), sol)
                   for key, sol in zip(distinct, improved)}
    outcomes = [results[key] for key in keys]
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
