"""Savings-guided construction and improvement for cooperative routes.

Construction walks the saving-pair list in order and, for each pair, tops up
both endpoints toward their full member requirement: every missing member
visit is first offered to the route ends (head or tail, cheapest added
distance first) and, only if no end accepts it, to the cheapest feasible
position inside a route.  An insertion is committed only when the propagated
schedule stays feasible for every visit already placed; nothing is ever
ripped out to make room.  After the pair list is exhausted, vertices that
never reached their requirement are removed from all routes.

The walk tops up each vertex once, at its first appearance
(_call_orders), since a vertex v that failed would fail again before that
removal.  This is exact above a rounding margin, where every customer's
service time exceeds 1e-9 * (T_max + the longest travel time).  Until the
removal the routes only gain visits, and a gained visit then never lowers
a start: the detour through it costs at least its service time, which
dwarfs the rounding of the triangle inequality.  Every slot of the grown
routes lies between two visits u and w (the depot counts) that were
adjacent on its route when v failed, so placing v there gives the routing
that was rejected then, v between u and w, plus visits.  Its starts are
no lower, so the late start, late return or circular wait that rejected
it remains.

Slots the schedule must reject are not tried at all.  Beside the starts
the workspace keeps each visit's latest start: the latest it can start
without breaking a window or the horizon further along any route, plus a
margin of 1e-9 * max(1, T_max) (scheduling.latest_starts).  A slot whose
new visit would start after its own latest start, or whose successor it
would reach after that one's, is skipped (_Workspace._slots).  Such a slot
is one the insertion test rejects, at any service time, so the walk tries
the same accepted slots in the same order as without the filter.

The improvement pass then scans the unvisited vertices (highest reward
first) and tries to insert each one outright; failing that, it places the
visits at the cheapest arc-valid positions regardless of the schedule and,
if that breaks exactly one served vertex worth no more than the newcomer,
trades the two.  Any other breakage restores the previous routes.  The
same argument holds for this placement: it only adds visits, so the
starts before it bound the new ones from below.  When the bound on the
newcomer's start, or on its new successors' starts, already shows a
breakage no trade can mend, the move is undone without relaxing the
schedule (_Workspace.substitute).

Below the margin the same rules hold.  A skipped retry or move there can
only lose reward, never feasibility: every committed insertion is tested,
and solve's output is checked.

A full run has two phases.  It first constructs one solution for each of
the 54 coefficient triplets.  A construction is a sequence of top-ups
whose vertices its pair list fixes before the walk starts, and the
workspace after k of them depends only on those k vertices.  A vertex
first appears in its best pair, the highest saving and among equal ones
the lowest (i, j) index, the i end before the j end; so the run ranks
every triplet's call order at once by that rule, in blocks of at most
savings.BLOCK_ELEMENTS (triplet, pair) values, without sorting any
pair list (_call_orders).  It then walks the triplets in sorted call
order; each walk resumes from a copy of the workspace an earlier walk
saved at the end of its longest prefix shared with the walk before it
(_Plan), so each distinct prefix is walked once.  Many
triplets still reach the same routes, so the run then improves each
distinct construction once, keyed by its routes, and maps the results
back onto the grid, keeping the best score (earliest triplet wins
ties).  In parallel processes the grid splits into contiguous runs of
triplets, one per process, and each run is constructed and improved by
one call (_solve_run): a construction two runs share is improved in
each, to the same solution, so the split changes nothing but the wall
time.  All calls read the distances, arcs, travel times and saving terms
of one Prepared instance, built once per solve or exact_solve and passed
to each call; no module state is kept.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

from .geometry import build_arc_set, build_distance_matrix
from .instances import Instance
# calc_saving_pairs is unused here; kept because the benchmark tracer wraps
# heuristic.calc_saving_pairs
from .savings import calc_saving_pairs  # noqa: F401
from .savings import (SavingParams, SavingTerms, first_appearances, parameter_grid,
                      saving_terms)
from .scheduling import (Solution, TravelTimes, bad_arcs, insert_starts, late, latest_starts,
                         objective, relax_starts, solution_faults)


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
    matrix by rows (`feas[u][v]`, arc u -> v) and by columns
    (`into[v][u] == feas[u][v]`, the arcs entering v), the distances as
    nested lists, and the saving terms."""

    instance: Instance
    tt: TravelTimes
    feas: list[list[bool]]
    into: list[list[bool]]
    dist: list[list[float]]
    terms: SavingTerms


def prepare(instance: Instance) -> Prepared:
    """Build the instance's distances, arcs, travel times and saving terms
    once, for any number of construct and improve calls."""
    d = build_distance_matrix(instance)
    feasible = build_arc_set(instance, d)
    return Prepared(instance, TravelTimes(instance, d), feasible.tolist(),
                    feasible.T.tolist(), d.tolist(), saving_terms(instance, d, feasible))


class _Workspace:
    """Mutable routes, a member index and the current start-time fixed
    point over one Prepared instance, whose lists it reads and never
    copies.  Each slot scan walks a route once, as its gaps (u, w) with the
    depot at both ends, and reads one arc row per side of the new visit v:
    `into[v]` for u -> v and `feas[v]` for v -> w.

    `links[x]` is the member index insert_starts reads: one
    `[m, pred, succ]` entry per route m that visits x, in ascending m, with
    0 for the depot, so `len(links[x])` is x's visit count.
    `from_solution` builds it from the routes; `_try_slot`, `force_place`
    and `drop` keep it in step at O(req) per visit.

    `due` is scheduling.latest_starts of the routes, which _slots reads:
    `due[x]` is the latest start of x that breaks no window or horizon
    downstream, plus a margin, and `due[0]` is T_max plus it.  A committed
    slot brings it up to date by a work list over the predecessors of the
    new visit (_update_due).  After a removal, a commit of substitute's
    schedule-blind placement or from_solution it is None, and the next
    read recomputes it (_latest): a construction's final removal is never
    scanned.  `s` and `due` are replaced, never changed in place, so a
    move can keep the old lists to undo itself.
    """

    def __init__(self, prep: Prepared):
        self.tt = prep.tt
        self.feas = prep.feas
        self.into = prep.into
        self.dist = prep.dist
        self.team_size = prep.instance.team_size
        self.routes: list[list[int]] = [[] for _ in range(self.team_size)]
        self.links: list[list[list[int]]] = [[] for _ in range(self.tt.n)]
        self.s = list(self.tt.open)
        self.due: list[float] | None = self.tt.latest  # latest_starts of no visits

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
        ws.s = s
        ws.due = None
        ws._index()
        return ws

    def copy(self) -> "_Workspace":
        """An independent workspace in the same state.  The member index is
        rebuilt from the copied routes, since _relink edits its entries in
        place; `s` and `due` are shared, since they are only ever
        replaced."""
        ws = _Workspace.__new__(_Workspace)
        ws.tt, ws.feas, ws.into, ws.dist = self.tt, self.feas, self.into, self.dist
        ws.team_size = self.team_size
        ws.routes = [list(route) for route in self.routes]
        ws._index()
        ws.s = self.s
        ws.due = self.due
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

    def drop(self, v: int) -> None:
        """Remove every visit of v.  The caller sets the starts."""
        for m, u, w in self.links[v]:
            self.routes[m].remove(v)
            self._relink(m, u, w)
        self.links[v] = []

    # -- candidate generation -------------------------------------------------

    def _slots(self, v: int) -> list[tuple[float, int, int]]:
        """The (delta, m, pos) slots for one more visit of v: the route
        heads and tails, cheapest added distance first, then the interior
        positions the same way.  One empty route stands for all of them.

        Each route is walked once, as its gaps (u, w): u the visit before
        pos and w the one at it, the depot (0) at either end.  A kept gap
        finds its pos by `route.index` from the last kept gap's pos, so the
        searches of one walk read the route once together; counting pos at
        every gap costs more on short routes.

        A gap is tested first on v's two arc rows, `into[v][u]` for u -> v
        and `feas[v][w]` for v -> w.  Then come the start floors.  From
        u's current start, v's arrival `arr` must be by v's close, and v's
        start (`arr`, or v's current start if later) by `due[v]`; w's
        arrival after serving v must be by `due[w]`, the latest start w
        can take (the horizon at the depot).  The first two starts
        insert_starts computes are bounded from below by v's start and w's
        arrival, in the same float order, so the close floor is exact.
        The `due` floors drop only slots it rejects too: starts only rise
        when visits are added, and the insertion removes only the arc
        u -> w, so every path of route arcs that bounds `due[w]` or
        `due[v]` is still in the new routing (one through u -> w runs on
        through v, or closes a cycle that a feasible routing only allows
        among coincident visits without service).  Along such a path the
        new starts would reach a window or the horizon late; the margin in
        `due` absorbs the rounding along it.  The depot needs no case of
        its own: it opens at 0 with no service (Instance) and nothing
        writes s[0], so s[0] + dur[0] + t[0][v] is t[0][v] bit for bit."""
        into_v = self.into[v]
        feas_v = self.feas[v]
        dist = self.dist
        dist_v = dist[v]
        s = self.s
        due = self._latest()
        tt = self.tt
        dur = tt.dur
        t = tt.t
        close_v = tt.close[v]
        s_v = s[v]
        due_v = due[v]
        dur_v = dur[v]
        t_v = t[v]
        links_v = self.links[v]
        taken = {entry[0] for entry in links_v} if links_v else ()
        ends = []
        inner = []
        empty_seen = False
        for m, route in enumerate(self.routes):
            if m in taken:
                continue
            if not route:
                if empty_seen:
                    continue
                empty_seen = True  # empty routes are interchangeable
            u = 0
            pos = 0  # the last kept gap's: the next one lies after it
            for w in [*route, 0]:
                if into_v[u] and feas_v[w]:
                    arr = s[u] + dur[u] + t[u][v]
                    start = arr if arr > s_v else s_v
                    if (arr <= close_v and start <= due_v
                            and start + dur_v + t_v[w] <= due[w]):
                        pos = route.index(w, pos) if w else len(route)
                        slot = (dist[u][v] + dist_v[w] - dist[u][w], m, pos)
                        (inner if u and w else ends).append(slot)
                u = w
        ends.sort()
        inner.sort()
        return ends + inner

    def _latest(self) -> list[float]:
        """`due`, recomputed first when a change left it None."""
        if self.due is None:
            self.due = latest_starts(self.tt, self.routes)
        return self.due

    # -- feasibility-gated insertion ------------------------------------------

    def _try_slot(self, m: int, pos: int, v: int) -> list[float] | None:
        """Place v before routes[m][pos] if the schedule stays feasible and
        return the new starts; otherwise change nothing and return None."""
        self._link(m, pos, v)
        s_new = insert_starts(self.tt, self.links, self.s, v)
        if s_new is None:
            self._unlink(m, v)
        else:
            route = self.routes[m]
            route.insert(pos, v)
            self.s = s_new
            self._update_due(route[pos - 1] if pos else 0, v)
        return s_new

    def _update_due(self, u: int, v: int) -> None:
        """Bring `due` to latest_starts of the routes after a committed
        visit of v right after u (0 for the depot).

        Only u and v changed successors: u's w became v, and v gained w.
        A work list seeded with v and u recomputes each popped entry by
        latest_starts' rule from its successors' current entries, and only
        a changed entry queues its route predecessors.  On a routing
        without cycles that rule has one fixed point, so the result is
        latest_starts' bit for bit.  By the triangle inequality the entries
        only fall, up to rounding, which the recomputation follows either
        way.  An insertion removes no cycle, so a routing whose entries are
        all inf keeps them.  A cycle the insertion closes passes through v
        and, starts never falling along an arc, makes a successor of v
        start with v; then `due` is left None for the next read to
        recompute."""
        due = self.due
        if due is None or due[0] == math.inf:
            return
        links = self.links
        s = self.s
        s_v = s[v]
        for _, _, w in links[v]:
            if w and s[w] == s_v:
                self.due = None
                return
        tt = self.tt
        t = tt.t
        dur = tt.dur
        latest = tt.latest
        due = list(due)
        work = deque((v, u) if u else (v,))
        queued = set(work)
        while work:
            x = work.popleft()
            queued.discard(x)
            d = latest[x]
            dur_x = dur[x]
            t_x = t[x]
            for _, _, y in links[x]:
                if (d_y := due[y] - dur_x - t_x[y]) < d:
                    d = d_y
            if d == due[x]:
                continue
            due[x] = d
            for _, p, _ in links[x]:
                if p and p not in queued:
                    queued.add(p)
                    work.append(p)
        self.due = due

    def try_place_one(self, v: int) -> bool:
        """Place one member visit of v at the first slot of _slots, route
        ends before interiors, whose schedule stays feasible.  A rejected
        trial changes nothing, so one scan serves every trial."""
        for _, m, pos in self._slots(v):
            if self._try_slot(m, pos, v) is not None:
                return True
        return False

    def top_up(self, v: int) -> bool:
        """Raise v's visit count toward its requirement; True when complete."""
        r = self.tt.req[v]
        if r > self.team_size:
            return False
        while len(self.links[v]) < r:
            if not self.try_place_one(v):
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
        self.due = None

    def remove_underserved(self) -> None:
        doomed = {
            v
            for v in range(1, self.tt.n)
            if 0 < len(self.links[v]) < self.tt.req[v]
        }
        self.remove_vertices(doomed)

    # -- the substitution move ------------------------------------------------

    def force_place(self, v: int) -> bool:
        """Insert all of v's member visits at the cheapest arc-valid slots,
        ignoring the schedule.  Returns False, with nothing placed, when
        the routes cannot host them all (caller drops v).

        Each route is walked once, as its gaps (u, w) like _slots, for its
        cheapest gap (the first on ties).  Placing v changes only its own
        route, which v then occupies, so visit k goes to the k-th cheapest
        of these in (delta, m) order: the choice of a rescan after each
        placement, where the first cheapest in (m, pos) order wins."""
        into_v = self.into[v]
        feas_v = self.feas[v]
        dist = self.dist
        dist_v = dist[v]
        links_v = self.links[v]
        taken = {entry[0] for entry in links_v} if links_v else ()
        bests = []  # per route, (delta, m, w) of its cheapest gap
        for m, route in enumerate(self.routes):
            if m in taken:
                continue
            best = None
            u = 0
            for w in [*route, 0]:
                if into_v[u] and feas_v[w]:
                    delta = dist[u][v] + dist_v[w] - dist[u][w]
                    if best is None or delta < best[0]:
                        best = (delta, m, w)
                u = w
            if best is not None:
                bests.append(best)
        r = self.tt.req[v]
        if len(bests) < r:
            return False
        bests.sort()  # m is unique, so w never decides the order
        for _, m, w in bests[:r]:
            route = self.routes[m]
            self._place(m, route.index(w) if w else len(route), v)
        return True

    def _doomed(self, v: int) -> bool:
        """Whether the starts before force_place(v), which bound the new
        ones from below (module docstring), already show a breakage no
        trade can mend: v late, a late successor of v worth more than v,
        or two distinct late successors.  v's bound is the
        latest arrival from its new predecessors (the depot counts, as in
        _slots), each successor's is v's departure at that bound,
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
            arr = s[u] + dur[u] + t[u][v]
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

        Adding visits never lowers a start, so the old starts bound those
        of the forced routing from below (module docstring).  When the
        bound already makes v late, a successor of v late that is
        worth more than v, or two distinct successors late (_doomed), no
        trade can commit and the move is undone without a relaxation.  A
        late return decides nothing: removing the traded vertex can cure
        it."""
        tt = self.tt
        s = self.s
        due = self._latest()  # kept for the undo, so the next move need not recompute it
        if self.top_up(v):
            return
        self.drop(v)
        self.s = s
        self.due = due
        if not self.force_place(v):
            return
        if self._doomed(v):
            self.drop(v)
            return
        status, s_new, returns, _ = relax_starts(tt, self.routes)
        if status == "ok":
            self.s = s_new
            self.due = None
            return
        broken = late(tt, self.routes, s_new, returns)[0] if status == "window" else []
        if len(broken) == 1 and broken[0] != v and tt.reward[broken[0]] <= tt.reward[v]:
            j = broken[0]
            rest = [[u for u in route if u != j] for route in self.routes]
            status, s_new, _, _ = relax_starts(tt, rest)
            if status == "ok" and next(bad_arcs(self.feas, rest), None) is None:
                self.drop(j)
                self.s = s_new
                self.due = None
                return
        self.drop(v)


def _call_orders(prep: Prepared, grid: list[SavingParams]) -> list[list[int]]:
    """Per triplet, the vertices construct tops up, in call order: both
    ends of every saving pair, then every customer by reward, so a vertex
    in no feasible pair (isolated but depot-reachable, or a lone customer)
    still gets an attempt.  A vertex's first top_up settles it for the
    rest of the walk (module docstring), so only first appearances are
    called.

    A vertex first appears in its best pair, the one with the highest
    saving and among equal savings the lowest (i, j) index, and there the
    i end comes first.  savings.first_appearances ranks the whole grid by
    that rule at once, in blocks of at most savings.BLOCK_ELEMENTS
    (triplet, pair) values, so no triplet's pair list is ever sorted.  The
    customers in no pair follow by reward, the same tail for every
    triplet; without any feasible pair that tail is the whole order."""
    tt = prep.tt
    paired = set(prep.terms.i.tolist()) | set(prep.terms.j.tolist())
    tail = [u for u in sorted(range(1, tt.n), key=lambda u: (-tt.reward[u], u))
            if u not in paired]
    return [head + tail for head in first_appearances(prep.terms, grid)]


class _Plan:
    """The construction walks of a run of triplets, planned together.

    construct's workspace after k top_up calls depends only on the k
    vertices called, so triplets whose call orders agree for k calls share
    that state exactly.  The run walks the triplets in sorted call order
    (`walks`), so each walk's longest prefix shared with any earlier walk
    is the one it shares with the walk just before it (`resume`).  A walk
    saves a copy of its workspace on a stack at each depth where a later
    walk resumes on its path: those deeper than its own start and
    shallower than every resumption in between.  A resuming walk takes
    the stacked state, or copies it if a later walk resumes at the same
    depth, so no two walks ever share a mutable list.

    construct(prep, params, plan) must be called for the run's triplets in
    walk order, as construct_all does."""

    def __init__(self, prep: Prepared, grid: list[SavingParams]):
        self.prep = prep
        self.grid = grid
        self.orders = _call_orders(prep, grid)
        self.walks = sorted(range(len(grid)), key=self.orders.__getitem__)
        self.resume = [0]  # per walk, the depth it resumes at
        for a, b in zip(self.walks, self.walks[1:]):
            prev, order = self.orders[a], self.orders[b]
            k = 0
            while k < len(order) and k < len(prev) and order[k] == prev[k]:
                k += 1
            self.resume.append(k)
        self.stack: list[tuple[int, _Workspace]] = []  # saved (depth, state), deepest last
        self.next = 0  # the walk construct runs next

    def start(self, params: SavingParams):
        """The next walk's workspace, call order, resumption depth and save
        depths."""
        i = self.next
        if i == len(self.walks) or self.grid[self.walks[i]] != params:
            raise ValueError(f"{params} is not the plan's next triplet")
        self.next = i + 1
        depth = self.resume[i]
        later = self.resume[i + 1:]
        if not depth:
            ws = _Workspace(self.prep)
        elif next((d for d in later if d <= depth), 0) == depth:
            ws = self.stack[-1][1].copy()  # a later walk resumes here too
        else:
            ws = self.stack.pop()[1]
        saves = []  # deepest first
        for d in later:
            if d <= depth:
                break
            if not saves or d < saves[-1]:
                saves.append(d)
        return ws, self.orders[self.walks[i]], depth, saves[::-1]

    def save(self, ws: _Workspace, depth: int) -> None:
        self.stack.append((depth, ws.copy()))

    def construct_all(self) -> list[Solution]:
        """Construct every triplet in walk order; the results in grid
        order."""
        built = [None] * len(self.grid)
        for t in self.walks:
            built[t] = construct(self.prep, self.grid[t], self)
        return built


def construct(prep: Prepared, params: SavingParams, plan: _Plan | None = None) -> Solution:
    """Build one solution by walking the saving-pair list for `params`.

    After the pair walk, customers that appear in no feasible pair get one
    direct top-up attempt in descending reward order; the final cleanup then
    strips every vertex left short of its requirement.  The result is always
    checker-feasible; when nothing can be placed it is the all-empty
    solution.

    With the `plan` of a run of triplets (solve passes one) the walk
    resumes from the state an earlier walk saved and saves the states
    later ones resume from; the result is the same.  Without one, the
    triplet is planned alone.
    """
    if plan is None:
        plan = _Plan(prep, [params])
    ws, order, depth, saves = plan.start(params)
    top_up = ws.top_up
    for save in saves:
        for v in order[depth:save]:
            top_up(v)
        depth = save
        plan.save(ws, depth)
    for v in order[depth:]:
        top_up(v)
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
    unvisited = [v for v in range(1, tt.n) if not ws.links[v] and tt.req[v] <= ws.team_size]
    for v in sorted(unvisited, key=lambda v: (-tt.reward[v], v)):
        ws.substitute(v)
    return ws.to_solution()


def _pool_size(workers: int, tasks: int) -> int:
    """Worker processes for `tasks` independent jobs: never more than the
    jobs or the CPUs this process may run on (its affinity mask, where the
    platform has one), since the pool starts every worker at once."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(workers, tasks, cpus))


def _slices(items: list, parts: int) -> list[list]:
    """`items` cut into `parts` contiguous runs, their lengths at most one
    apart."""
    size, extra = divmod(len(items), parts)
    cuts = [k * size + min(k, extra) for k in range(parts + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


def _solve_run(prep: Prepared, grid: list[SavingParams]) -> list[tuple[float, Solution]]:
    """Construct a run of triplets, planned together, then improve each
    distinct construction once, in first-seen grid order; the (objective,
    solution) outcomes in grid order.  The key is the routes, member order
    included; it is exact because a solution is its routes and `improve`
    is deterministic."""
    built = _Plan(prep, grid).construct_all()
    keys = [tuple(map(tuple, sol.routes)) for sol in built]
    results: dict[tuple, tuple[float, Solution]] = {}
    for key, sol in zip(keys, built):
        if key not in results:
            improved = improve(prep, sol)
            results[key] = (objective(prep.instance, improved), improved)
    return [results[key] for key in keys]


def solve(instance: Instance | Prepared, workers: int = 1) -> SolverResult:
    """Construct every coefficient triplet, improve each distinct
    construction once and keep the best solution.

    The grid is cut into contiguous runs of triplets, one per process, and
    each run is one _solve_run call: it plans its walks together (_Plan),
    calls `construct` once per triplet in sorted call order, each resuming
    from the deepest state an earlier walk shares with it, then calls
    `improve` once per distinct construction of the run, in first-seen
    grid order.  Each triplet takes the improved result of its
    construction, so `triplet_scores` has one entry per triplet and the
    earliest triplet wins ties.  With `workers` above 1 the runs go to a
    process pool, which changes nothing but the wall time: a construction
    that two runs share is improved once in each, to the same solution.
    Serially the whole grid is one run.  Every call of a run reads one
    Prepared instance, which each process receives once, as its run's
    argument; `solve` keeps no state between calls, so it is reentrant.
    `instance` may be that Prepared instance itself, as `exact_solve`
    passes it; `wall_time` then excludes its `prepare`."""
    t0 = time.perf_counter()
    grid = parameter_grid()
    prep = instance if isinstance(instance, Prepared) else prepare(instance)
    processes = _pool_size(workers, len(grid))
    with contextlib.ExitStack() as stack:
        if processes == 1:
            run = map
        else:
            # imported only here: the process machinery adds ~30 ms to every
            # import of the package, and serial solves never use it
            from concurrent.futures import ProcessPoolExecutor

            run = stack.enter_context(ProcessPoolExecutor(max_workers=processes)).map
        outcomes = list(chain.from_iterable(run(_solve_run, repeat(prep),
                                                _slices(grid, processes))))
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
