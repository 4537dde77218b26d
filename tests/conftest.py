import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from coptw import Instance, Vertex

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "desk"


def make_instance(customers, team_size=2, t_max=1000.0, velocity=1.0,
                  depot=(0.0, 0.0)):
    """Build an instance from (x, y, dur, reward, open, close, req) tuples."""
    vertices = [Vertex(0, depot[0], depot[1], 0.0, 0.0, 0.0, t_max)]
    requirements = [0]
    for i, (x, y, dur, reward, open_, close, req) in enumerate(customers, start=1):
        vertices.append(Vertex(i, x, y, dur, reward, open_, close))
        requirements.append(req)
    return Instance(
        vertices=vertices,
        requirements=requirements,
        team_size=team_size,
        t_max=t_max,
        velocity=velocity,
    )


def random_instance(rng: random.Random, n: int, team_size: int, r_max: int = 3,
                    t_max: float = 400.0, span: float = 60.0,
                    window: float = 60.0, service: float = 8.0) -> Instance:
    """Benchmark-like random instance for property-style loops."""
    customers = []
    for _ in range(n):
        x = rng.uniform(-span, span)
        y = rng.uniform(-span, span)
        out = (x**2 + y**2) ** 0.5
        latest = max(out + 1.0, t_max - out - service)
        center = rng.uniform(out, latest)
        o = max(0.0, center - window / 2)
        c = min(t_max, center + window / 2)
        reward = float(rng.randint(1, 50))
        customers.append((x, y, service, reward, o, c, rng.randint(1, r_max)))
    return make_instance(customers, team_size=team_size, t_max=t_max)


# few distinct coordinates around the depot at the origin: customers land on
# the depot, coincide with each other or mirror each other, so values tie
COORDS = st.sampled_from([-3.0, -1.5, 0.0, 1.5, 3.0, 4.0])


@st.composite
def saving_cases(draw):
    n = draw(st.integers(1, 7))
    layout = draw(st.sampled_from(["grid", "on_depot", "coincident"]))
    if layout == "on_depot":  # d is all zero: the d_max fallback
        points = [(0.0, 0.0)] * n
    elif layout == "coincident":
        points = [(draw(COORDS), draw(COORDS))] * n
    else:
        points = draw(st.lists(st.tuples(COORDS, COORDS), min_size=n, max_size=n))
    rewards = st.just(0.0) if draw(st.booleans()) else st.sampled_from([1.0, 2.5, 7.0])
    customers = [
        # closing times this tight cut some arcs out of the pair list
        (x, y, draw(st.sampled_from([0.0, 1.0])), draw(rewards), 0.0,
         draw(st.sampled_from([3.0, 6.0, 100.0])), 1)
        for x, y in points
    ]
    return make_instance(customers, team_size=2, t_max=100.0)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    assert DATA_DIR.is_dir(), "run tools/make_benchmarks.py first"
    return DATA_DIR
