"""Cooperative schedule propagation and solution verification.

A solution assigns one route (an ordered customer sequence, implicitly
starting and ending at the depot) to each team member, plus the set of
vertices considered served.  Because several members must start service
simultaneously at a vertex, a member's timeline depends on start times in
other routes; start times are therefore the least fixed point of

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
horizon breach.  Every cycle
the insertion creates passes through the new visit, so a second rise of
that visit's start reveals a circular wait at once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .geometry import build_arc_set, build_distance_matrix
from .instances import Instance, ParseError

CONSTRAINT_FAMILIES = (
    "depot-flow",
    "conservation",
    "requirement",
    "window-close",
    "horizon",
    "deadlock",
    "arc-feasibility",
)


@dataclass
class Solution:
    """One route per team member plus the served-vertex set."""

    routes: list[list[int]]
    served: set[int] = field(default_factory=set)

    def visit_counts(self, n_vertices: int) -> list[int]:
        counts = [0] * n_vertices
        for route in self.routes:
            for v in route:
                if 0 <= v < n_vertices:
                    counts[v] += 1
        return counts


def empty_solution(team_size: int) -> Solution:
    return Solution(routes=[[] for _ in range(team_size)], served=set())


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
        self.t = (d / instance.velocity).tolist()
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
    routes: list[list[int]],
    s: list[float],
    m: int,
    pos: int,
) -> list[float] | None:
    """Fixed-point starts after the visit routes[m][pos] was inserted.

    `s` must be the fixed point of the routes without that visit, with every
    unvisited vertex at its opening time.  A work list seeded with the new
    visit recomputes each popped start exactly as relax_starts does, the
    maximum of its opening and every member's arrival, and only a changed
    start queues the vertex's successors on every route.  A start is
    recomputed, never raised to max(old, new): replacing an arc u -> w by
    u -> v -> w can lower w's arrival by one rounding step.  The result is
    therefore the starts of relax_starts(tt, routes) bit for bit.

    Returns None at the first start past its window or return past the
    horizon, and when the inserted visit's start would rise a second time:
    the routing without it had a finite fixed point, so every new cycle
    passes through the visit and a second rise means a circular wait.
    """
    t = tt.t
    dur = tt.dur
    opens = tt.open
    close = tt.close
    t_max = tt.t_max
    v = routes[m][pos]
    s = list(s)
    work = deque((v,))
    queued = {v}
    fresh = True  # the inserted visit's first evaluation always propagates
    while work:
        x = work.popleft()
        queued.discard(x)
        start = opens[x]
        nexts = []
        for route in routes:
            if x in route:
                i = route.index(x)
                if i:
                    u = route[i - 1]
                    arr = s[u] + dur[u] + t[u][x]
                else:
                    arr = t[0][x]
                if arr > start:
                    start = arr
                i += 1
                nexts.append(route[i] if i < len(route) else 0)
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
        for w in nexts:
            if not w:
                if depart + t[x][0] > t_max:
                    return None
            elif w not in queued:
                queued.add(w)
                work.append(w)
    return s


def _structurally_valid(instance: Instance, solution: Solution) -> bool:
    n = instance.n_vertices
    if len(solution.routes) != instance.team_size:
        return False
    for route in solution.routes:
        seen = set()
        for v in route:
            if not isinstance(v, int) or not 1 <= v < n or v in seen:
                return False
            seen.add(v)
    return all(isinstance(v, int) and 1 <= v < n for v in solution.served)


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

    Returns the Schedule at the fixed point, or a diagnosis: a deadlock when
    the starts on a cycle still change after their count + 1 rounds, else
    the first entry late() reports: the lowest-index late start or, when
    there is none, the first member back after the horizon.  `rounds` are
    relax_starts' rounds on cycles, 0 for an acyclic routing.
    """
    if not _structurally_valid(instance, solution):
        raise ValueError("solution is not structurally valid; use check_solution for diagnosis")
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


def check_solution(instance: Instance, solution: Solution) -> FeasibilityReport:
    """Verify a solution against the full constraint set.

    Every problem becomes a (family, offender) entry; nothing raises, so the
    checker accepts arbitrary garbage.  Families: depot-flow (team departs
    from and returns to the depot, one route per member), conservation
    (structural route integrity), requirement (served vertices meet their
    member requirement; visited vertices must be served), window-close
    (propagated service start within the window; starts never precede the
    opening time), horizon (returns by the deadline), deadlock (cross-route
    waits that never stabilize, so no start times exist), arc-feasibility
    (every traversed arc is in the arc set).  The schedule entries come from
    late() and the arc entries from bad_arcs(), over one distance matrix
    built for the travel times and the arc set alike.
    """
    violations: list[tuple[str, object]] = []
    n = instance.n_vertices
    routes = solution.routes
    if len(routes) != instance.team_size:
        violations.append(
            ("depot-flow", f"expected {instance.team_size} routes, got {len(routes)}")
        )
    ids_ok = True
    for m, route in enumerate(routes):
        seen: set[int] = set()
        for v in route:
            if not isinstance(v, int) or not 0 <= v < n:
                violations.append(("conservation", f"route {m} visits unknown vertex {v!r}"))
                ids_ok = False
            elif v == 0:
                violations.append(("depot-flow", f"route {m} passes through the depot"))
                ids_ok = False
            elif v in seen:
                violations.append(("conservation", f"route {m} visits vertex {v} twice"))
                ids_ok = False
            else:
                seen.add(v)
    served_ok: set[int] = set()
    for v in sorted(solution.served, key=repr):
        if isinstance(v, int) and 1 <= v < n:
            served_ok.add(v)
        else:
            violations.append(("requirement", f"served set names unknown vertex {v!r}"))

    if ids_ok:
        d = build_distance_matrix(instance)
        tt = TravelTimes(instance, d)
        status, s, returns, _ = relax_starts(tt, routes)
        if status == "deadlock":
            violations.append(("deadlock", "cross-route waits never stabilize"))
        else:
            vertices, members = late(tt, routes, s, returns)
            violations += [("window-close", v) for v in vertices]
            violations += [("horizon", f"route {m} returns at {returns[m]}") for m in members]
        feas = build_arc_set(instance, d).feasible
        violations += [("arc-feasibility", arc) for arc in bad_arcs(feas, routes)]

        counts = solution.visit_counts(n)
        req = instance.requirements
        for v in sorted(served_ok):
            if counts[v] < req[v]:
                violations.append(("requirement", v))
        for v in sorted({v for route in routes for v in route}):
            if v not in served_ok:
                violations.append(("requirement", v))

    return FeasibilityReport(feasible=not violations, violations=violations)


def objective(instance: Instance, solution: Solution) -> float:
    """Total reward collected over the served vertices."""
    rewards = [v.reward for v in instance.vertices]
    return float(sum(rewards[v] for v in sorted(solution.served)))


def format_solution(solution: Solution, score: float) -> str:
    """Serialize routes as 'member k: v ...' lines followed by the score."""
    lines = [
        f"member {m + 1}:" + ("" if not route else " " + " ".join(str(v) for v in route))
        for m, route in enumerate(solution.routes)
    ]
    lines.append(f"score: {float(score)!r}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str, instance: Instance) -> tuple[Solution, float]:
    """Inverse of format_solution.

    The served set is reconstructed from visit counts: a vertex is served
    when it is visited by at least its required number of members.  Returns
    the solution and the score recorded in the file (the caller re-verifies
    it against the instance).
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
            try:
                score = float(stripped.split(":", 1)[1])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed score") from None
        else:
            raise ParseError(f"line {lineno}: unrecognized line {stripped!r}")
    if score is None:
        raise ParseError("missing score line")
    solution = Solution(routes=routes, served=set())
    counts = solution.visit_counts(instance.n_vertices)
    solution.served = {
        v
        for v in range(1, instance.n_vertices)
        if counts[v] > 0 and counts[v] >= instance.requirements[v]
    }
    return solution, score
