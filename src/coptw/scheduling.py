"""Cooperative schedule propagation and solution verification.

A solution assigns one route (an ordered customer sequence, implicitly
starting and ending at the depot) to each team member; a vertex is served
when at least its required number of members visit it.  Because several
members must start service simultaneously at a vertex, a member's timeline
depends on start times in other routes; start times are therefore the
least fixed point of

    s_v = max(o_v, latest arrival of any member visiting v)

Two routines compute it.  relax_starts, which takes no options, settles a
whole routing in one topological pass over its visits (an edge per route
successor pair), then relaxes in rounds only the visits on a cycle or
behind one; a cycle still changing after their count + 1 rounds is a
circular cross-route wait, reported as a deadlock instead of looping.
Every full-schedule question uses it, reading late starts and returns
through late() and stray arcs through bad_arcs().

insert_starts answers the searches' one hot question: does inserting one
visit into a feasible routing keep it feasible, and what are the new
starts?  It propagates forward from the inserted visit only, over the
route successors of every changed start, and stops at the first window or
horizon breach.  Every cycle the insertion creates passes through the new
visit, so a second rise of that visit's start reveals a circular wait at
once.  It reads the routing through a member index, `links[x]`: one
`[m, pred, succ]` entry per route m that visits x, in ascending m, with 0
for the depot, so a visit's neighbours cost O(1) to find.  The caller
links the tentative visit in before the call and out after it.  The
heuristic keeps such an index up to date; the exact search passes a
RouteScan, which reads the same entries off its short routes on lookup.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .geometry import build_arc_set, build_distance_matrix
from .instances import Instance, ParseError

@dataclass
class Solution:
    """One route per team member; the served vertices follow from them."""

    routes: list[list[int]]

    def visit_counts(self, n_vertices: int) -> list[int]:
        counts = [0] * n_vertices
        for route in self.routes:
            for v in route:
                if 0 <= v < n_vertices:
                    counts[v] += 1
        return counts

    def served(self, instance: Instance) -> set[int]:
        """The customers visited by at least their required number of
        members."""
        counts = self.visit_counts(instance.n_vertices)
        req = instance.requirements
        return {v for v in range(1, instance.n_vertices) if counts[v] >= req[v]}


def empty_solution(team_size: int) -> Solution:
    return Solution(routes=[[] for _ in range(team_size)])


@dataclass
class Schedule:
    """Fixed-point service start times and per-member arrival/return times."""

    starts: dict[int, float]
    arrivals: dict[tuple[int, int], float]
    returns: list[float]
    rounds: int


@dataclass
class ScheduleInfeasible:
    """Why no feasible schedule exists: a closed window, a late return, or a
    circular cross-route wait that never stabilizes."""

    kind: str  # 'window' | 'horizon' | 'deadlock'
    vertex: int | None = None
    route: int | None = None
    rounds: int = 0

    def __str__(self) -> str:
        if self.kind == "window":
            return f"vertex {self.vertex} cannot start service before its window closes"
        if self.kind == "horizon":
            return f"route {self.route} cannot return to the depot by the horizon"
        return f"cross-route deadlock: starts on a cycle still change after {self.rounds} rounds"


@dataclass
class FeasibilityReport:
    feasible: bool
    violations: list[tuple[str, object]]


class TravelTimes:
    """Plain-list views of an instance's timing data for the hot loops."""

    __slots__ = ("open", "close", "dur", "reward", "req", "t", "t_max", "n")

    def __init__(self, instance: Instance, d: np.ndarray | None = None):
        if d is None:
            d = build_distance_matrix(instance)
        self.open = [v.open for v in instance.vertices]
        self.close = [v.close for v in instance.vertices]
        self.dur = [v.duration for v in instance.vertices]
        self.reward = [v.reward for v in instance.vertices]
        self.req = list(instance.requirements)
        t = d / instance.velocity
        self.t = t.tolist()
        self.t_max = instance.t_max
        self.n = instance.n_vertices


def relax_starts(tt: TravelTimes,
                 routes: list[list[int]]) -> tuple[str, list[float], list[float], int]:
    """The least fixed point of the start-time update over whole routes.

    Returns (status, starts, returns, rounds): status is 'deadlock' for a
    circular wait, else 'window' or 'horizon' when late() reports a late
    start or return, else 'ok'.  In Kahn's order a start is settled once
    all its predecessors are; the vertices left on a cycle or behind one
    take `rounds` (0 when acyclic), at most their count + 1.  The result
    is that of relaxing every route in rounds from the opening times, bit
    for bit.
    """
    t = tt.t
    dur = tt.dur
    s = list(tt.open)
    succ: dict[int, list[int]] = {v: [] for route in routes for v in route}
    indeg = dict.fromkeys(succ, 0)
    for route in routes:
        if route and t[0][route[0]] > s[route[0]]:
            s[route[0]] = t[0][route[0]]
        for u, v in zip(route, route[1:]):
            succ[u].append(v)
            indeg[v] += 1

    def arrive(u, starts):  # raise u's successors in `starts` to u's arrivals
        depart = s[u] + dur[u]
        for v in succ[u]:
            if (arr := depart + t[u][v]) > starts[v]:
                starts[v] = arr

    # s[v] is the latest input of v seen so far, final once indeg[v] is 0
    ready = [v for v, k in indeg.items() if not k]
    for u in ready:
        arrive(u, s)
        for v in succ[u]:
            indeg[v] -= 1
            if not indeg[v]:
                ready.append(v)
    # the rest lie on a cycle or behind one, and so do their successors;
    # every round starts them from their opening and settled inputs
    left = {v: s[v] for v, k in indeg.items() if k}
    rounds = 0
    changed = bool(left)
    while changed and rounds <= len(left):
        rounds += 1
        new_s = dict(left)
        for u in left:
            arrive(u, new_s)
        changed = False
        for v, start in new_s.items():
            if start != s[v]:
                s[v] = start
                changed = True
    returns = [s[r[-1]] + dur[r[-1]] + t[r[-1]][0] if r else 0.0 for r in routes]
    if changed:
        return "deadlock", s, returns, rounds
    vertices, members = late(tt, routes, s, returns)
    return "window" if vertices else "horizon" if members else "ok", s, returns, rounds


def insert_starts(
    tt: TravelTimes,
    links,
    s: list[float],
    v: int,
) -> list[float] | None:
    """Fixed-point starts after one visit of v was linked into a routing.

    `links[x]` lists x's visits as `[m, pred, succ]` entries, one per route
    m that visits x, in ascending m, with 0 standing for the depot on either
    side.  The caller links the new visit in before the call (its own entry
    in links[v], and its neighbours' succ and pred pointing at v) and
    unlinks it afterwards if it is not kept.  `s` must be the fixed point of
    the routing without that visit, with every unvisited vertex at its
    opening time.  The depot is never visited, so it is read as an ordinary
    predecessor: `Instance` makes it open at 0 with no service time, and
    `s[0] + dur[0] + t[0][x]` is `t[0][x]` bit for bit.

    A work list seeded with v recomputes each popped start exactly as
    relax_starts does, the maximum of its opening and every member's
    arrival, and only a changed start queues the vertex's successors.  A
    start is recomputed, never raised to max(old, new): replacing an arc
    u -> w by u -> v -> w can lower w's arrival by one rounding step.  The
    result is therefore the starts of relax_starts over the linked routing
    bit for bit.

    Returns None at the first start past its window or return past the
    horizon, and when v's start would rise a second time: the routing
    without the new visit had a finite fixed point, so every new cycle
    passes through it and a second rise means a circular wait.
    """
    t = tt.t
    dur = tt.dur
    opens = tt.open
    close = tt.close
    t_max = tt.t_max
    s = list(s)
    work = deque((v,))
    queued = {v}
    fresh = True  # the inserted visit's first evaluation always propagates
    while work:
        x = work.popleft()
        queued.discard(x)
        start = opens[x]
        entries = links[x]
        for _, u, _ in entries:
            arr = s[u] + dur[u] + t[u][x]
            if arr > start:
                start = arr
        if x == v and fresh:
            fresh = False
        elif start == s[x]:
            continue
        elif x == v and start > s[x]:
            return None
        if start > close[x]:
            return None
        s[x] = start
        depart = start + dur[x]
        for _, _, w in entries:
            if not w:
                if depart + t[x][0] > t_max:
                    return None
            elif w not in queued:
                queued.add(w)
                work.append(w)
    return s


class RouteScan:
    """The links of insert_starts read off plain routes on every lookup:
    `RouteScan(routes)[x]` scans each route for x.  Cheaper than keeping an
    index up to date where the routes are short and change at every step."""

    __slots__ = ("routes",)

    def __init__(self, routes: list[list[int]]):
        self.routes = routes

    def __getitem__(self, x: int) -> list[list[int]]:
        entries = []
        for m, route in enumerate(self.routes):
            if x in route:
                i = route.index(x)
                entries.append([m, route[i - 1] if i else 0,
                                route[i + 1] if i + 1 < len(route) else 0])
        return entries


def route_faults(instance: Instance, routes: list[list[int]]) -> list[tuple[str, object]]:
    """The structural entries of check_solution: a wrong route count
    (depot-flow) first, then route by route in visiting order every unknown
    id (conservation), visit of the depot (depot-flow) and repeated visit
    (conservation)."""
    n = instance.n_vertices
    faults = []
    if len(routes) != instance.team_size:
        faults.append(("depot-flow", f"expected {instance.team_size} routes, got {len(routes)}"))
    for m, route in enumerate(routes):
        seen: set[int] = set()
        for v in route:
            if not isinstance(v, int) or not 0 <= v < n:
                faults.append(("conservation", f"route {m} visits unknown vertex {v!r}"))
            elif v == 0:
                faults.append(("depot-flow", f"route {m} passes through the depot"))
            elif v in seen:
                faults.append(("conservation", f"route {m} visits vertex {v} twice"))
            else:
                seen.add(v)
    return faults


def late(tt: TravelTimes, routes: list[list[int]], s: list[float],
         returns: list[float]) -> tuple[list[int], list[int]]:
    """The window and horizon verdict on a full fixed point.

    Given the starts and returns of relax_starts(tt, routes) that is not a
    deadlock, returns the visited vertices whose start passes their close,
    in ascending order, and the members whose return passes T_max.
    """
    close = tt.close
    vertices = sorted({v for route in routes for v in route if s[v] > close[v]})
    members = [m for m, ret in enumerate(returns) if ret > tt.t_max]
    return vertices, members


def bad_arcs(feas, routes: list[list[int]]):
    """Yield every traversed arc (u, v) with feas[u][v] false, route by
    route in visiting order, the legs from and back to the depot included."""
    for route in routes:
        prev = 0
        for v in route:
            if not feas[prev][v]:
                yield prev, v
            prev = v
        if route and not feas[prev][0]:
            yield prev, 0


def propagate_schedule(instance: Instance, solution: Solution) -> Schedule | ScheduleInfeasible:
    """Compute cooperative start times for a structurally valid solution.

    A solution with a route_faults() entry raises ValueError naming the
    first one.  Returns the Schedule at the fixed point, or a diagnosis: a
    deadlock when the starts on a cycle still change after their count + 1
    rounds, else the first entry late() reports: the lowest-index late
    start or, when there is none, the first member back after the horizon.
    `rounds` are relax_starts' rounds on cycles, 0 for an acyclic routing.
    """
    faults = route_faults(instance, solution.routes)
    if faults:
        family, detail = faults[0]
        raise ValueError(f"solution is not structurally valid ({family}: {detail}); "
                         "use check_solution for diagnosis")
    tt = TravelTimes(instance)
    status, s, returns, rounds = relax_starts(tt, solution.routes)
    if status != "ok":
        vertices, members = late(tt, solution.routes, s, returns)
        return ScheduleInfeasible(kind=status, rounds=rounds,
                                  vertex=vertices[0] if status == "window" else None,
                                  route=members[0] if status == "horizon" else None)
    visited = sorted({v for route in solution.routes for v in route})
    starts = {v: s[v] for v in visited}
    arrivals: dict[tuple[int, int], float] = {}
    for m, route in enumerate(solution.routes):
        depart = 0.0
        prev = 0
        for v in route:
            arrivals[(m, v)] = depart + tt.t[prev][v]
            depart = s[v] + tt.dur[v]
            prev = v
    return Schedule(starts=starts, arrivals=arrivals, returns=returns, rounds=rounds)


def solution_faults(instance: Instance, tt: TravelTimes, feas, routes: list[list[int]]
                    ) -> tuple[list[tuple[str, object]], list[float] | None]:
    """Every constraint the routes break, as (family, offender) entries in
    this order, and the starts of relax_starts over the routes, which a
    caller of a routing without faults can keep (None when a fault inside a
    route ended the list); nothing raises, so garbage routes are accepted.

    First the route_faults() entries: depot-flow (one route per member,
    none through the depot) and conservation (known ids, no repeats).  A
    fault inside a route ends the list there.  Then deadlock (cross-route
    waits that never stabilize) or late()'s window-close (start past the
    close) and horizon (return past T_max) entries, then arc-feasibility
    (every bad_arcs() arc of `feas`), then requirement (each visited
    vertex, ascending, that fewer members visit than it requires).
    """
    faults = route_faults(instance, routes)
    # a wrong route count still leaves every id usable; a fault inside a
    # route does not, so the checks below need none
    if len(faults) != (len(routes) != instance.team_size):
        return faults, None
    status, s, returns, _ = relax_starts(tt, routes)
    if status == "deadlock":
        faults.append(("deadlock", "cross-route waits never stabilize"))
    else:
        vertices, members = late(tt, routes, s, returns)
        faults += [("window-close", v) for v in vertices]
        faults += [("horizon", f"route {m} returns at {returns[m]}") for m in members]
    faults += [("arc-feasibility", arc) for arc in bad_arcs(feas, routes)]
    counts = Solution(routes).visit_counts(instance.n_vertices)
    faults += [("requirement", v) for v in sorted({v for route in routes for v in route})
               if counts[v] < instance.requirements[v]]
    return faults, s


def check_solution(instance: Instance, solution: Solution) -> FeasibilityReport:
    """Verify a solution against the full constraint set: the entries of
    solution_faults(), over travel times and an arc set built here from
    one distance matrix, so the verdict depends on no caller's data."""
    d = build_distance_matrix(instance)
    violations, _ = solution_faults(instance, TravelTimes(instance, d),
                                    build_arc_set(instance, d), solution.routes)
    return FeasibilityReport(feasible=not violations, violations=violations)


def objective(instance: Instance, solution: Solution) -> float:
    """Total reward collected over the served vertices."""
    rewards = [v.reward for v in instance.vertices]
    return float(sum(rewards[v] for v in sorted(solution.served(instance))))


def format_solution(solution: Solution, score: float) -> str:
    """Serialize routes as 'member k: v ...' lines followed by the score."""
    lines = [
        f"member {m + 1}:" + ("" if not route else " " + " ".join(str(v) for v in route))
        for m, route in enumerate(solution.routes)
    ]
    lines.append(f"score: {float(score)!r}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> tuple[Solution, float]:
    """Inverse of format_solution.

    Returns the solution and the score recorded in the file (the caller
    re-verifies both against the instance).  The file must claim exactly
    one finite score.
    """
    routes: list[list[int]] = []
    score: float | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("member"):
            head, colon, tail = stripped.partition(":")
            words = head.split()
            if not colon or len(words) != 2 or words[0] != "member":
                raise ParseError(f"line {lineno}: expected 'member <k>:'")
            try:
                member = int(words[1])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed member number") from None
            if member != len(routes) + 1:
                raise ParseError(f"line {lineno}: expected member {len(routes) + 1}, got {member}")
            try:
                routes.append([int(f) for f in tail.split()])
            except ValueError:
                raise ParseError(f"line {lineno}: route vertices must be integers") from None
        elif stripped.startswith("score:"):
            if score is not None:
                raise ParseError(f"line {lineno}: second score line")
            try:
                score = float(stripped.split(":", 1)[1])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed score") from None
            if not math.isfinite(score):
                raise ParseError(f"line {lineno}: score must be finite, got {score}")
        else:
            raise ParseError(f"line {lineno}: unrecognized line {stripped!r}")
    if score is None:
        raise ParseError("missing score line")
    return Solution(routes=routes), score
