"""Show how cooperative service start times couple routes together.

A vertex that needs several members starts service only when the last of
them arrives, so one member's delay ripples into other routes.  The demo
propagates a three-member solution by hand, then shows a circular wait that
has no consistent schedule at all.

Run from the repository root:  python demos/02_cooperative_schedules.py
"""

from coptw import (
    Instance,
    Schedule,
    Solution,
    Vertex,
    check_solution,
    objective,
    propagate_schedule,
)


def meeting_point_instance():
    vertices = [
        Vertex(0, 0.0, 0.0, 0.0, 0.0, 0.0, 200.0),
        Vertex(1, 30.0, 0.0, 10.0, 50.0, 0.0, 120.0),   # needs 2 members
        Vertex(2, 34.0, 3.0, 5.0, 20.0, 0.0, 150.0),    # solo stop
        Vertex(3, 10.0, -5.0, 8.0, 15.0, 0.0, 60.0),    # solo stop
    ]
    return Instance(
        vertices=vertices,
        requirements=[0, 2, 1, 1],
        team_size=3,
        t_max=200.0,
    )


def main():
    inst = meeting_point_instance()
    sol = Solution(routes=[[1, 2], [3, 1], []])
    sched = propagate_schedule(inst, sol)
    assert isinstance(sched, Schedule)

    print("routes:", sol.routes)
    print("served:", sorted(sol.served(inst)))
    print(f"score: {objective(inst, sol)}\n")
    for (member, vertex), arrival in sorted(sched.arrivals.items()):
        start = sched.starts[vertex]
        idle = start - arrival
        note = f" (idles {idle:.1f})" if idle > 1e-9 else ""
        print(f"member {member} reaches vertex {vertex} at {arrival:.1f}, "
              f"service starts {start:.1f}{note}")
    print("returns:", [f"{r:.1f}" for r in sched.returns])
    print("verifier:", check_solution(inst, sol).feasible)

    # member 0 waits at vertex 1 for member 1, who first serves vertex 3:
    # the start at vertex 1 is the max of both arrival times.

    print("\nnow a circular wait: two members cross their meeting order")
    vertices = [
        Vertex(0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e6),
        Vertex(1, 0.0, 0.0, 1.0, 5.0, 0.0, 1e6),
        Vertex(2, 0.0, 0.0, 1.0, 5.0, 0.0, 1e6),
    ]
    crossed = Instance(vertices=vertices, requirements=[0, 2, 2], team_size=2, t_max=1e6)
    diag = propagate_schedule(crossed, Solution(routes=[[1, 2], [2, 1]]))
    print("diagnosis:", diag)


if __name__ == "__main__":
    main()
