import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from coptw import (
    SavingParams,
    build_arc_set,
    build_distance_matrix,
    calc_saving_pairs,
    mean_customer_reward,
    parameter_grid,
    saving_value,
)
from coptw.savings import saving_terms

from conftest import make_instance, random_instance


def ranked_pairs(inst, params):
    """calc_saving_pairs over the instance's own saving terms."""
    d = build_distance_matrix(inst)
    return calc_saving_pairs(saving_terms(inst, d, build_arc_set(inst, d)), params)


def saving_reference(i, j, inst, d, params, d_max, gamma_bar):
    """Independent evaluation: angle via atan2, different term grouping."""
    vi, vj, dep = inst.vertices[i], inst.vertices[j], inst.vertices[0]
    if (vi.x, vi.y) == (dep.x, dep.y) or (vj.x, vj.y) == (dep.x, dep.y):
        cos_theta = 1.0
    else:
        theta_i = math.atan2(vi.y - dep.y, vi.x - dep.x)
        theta_j = math.atan2(vj.y - dep.y, vj.x - dep.x)
        cos_theta = math.cos(theta_i - theta_j)
    term1 = d[i, 0] / d_max + d[0, j] / d_max - params.lambda_ * d[i, j] / d_max
    term2 = params.mu / d_max * cos_theta * abs(d_max - (d[i, 0] - d[0, j]) / 2.0)
    term3 = params.vartheta / gamma_bar * (vi.reward + vj.reward)
    return math.fsum([term1, term2, term3])


def _two_customer_instance(reward_i=0.0, reward_j=0.0):
    return make_instance(
        [
            (3.0, 0.0, 0.0, reward_i, 0.0, 100.0, 1),
            (0.0, 4.0, 0.0, reward_j, 0.0, 100.0, 1),
        ],
        team_size=2,
        t_max=100.0,
    )


class TestSavingValue:
    def test_pure_distance_term(self):
        inst = _two_customer_instance()
        d = build_distance_matrix(inst)
        params = SavingParams(0.0, 0.0, 0.0)
        s = saving_value(1, 2, inst, d, params, d_max=4.0, gamma_bar=1.0)
        assert s == (3.0 + 4.0) / 4.0 == 1.75

    def test_reward_term_only(self):
        inst = _two_customer_instance(reward_i=10.0, reward_j=20.0)
        d = build_distance_matrix(inst)
        params = SavingParams(1.4, 0.7, 0.7)
        # base (3+4-1.4*5)/4 = 0, right angle kills the sweep term,
        # reward term 0.7 * 30/15 = 1.4
        s = saving_value(1, 2, inst, d, params, d_max=4.0, gamma_bar=15.0)
        assert s == 1.4

    def test_matches_independent_evaluation(self):
        rng = random.Random(31)
        hits = 0
        while hits < 1000:
            inst = random_instance(rng, rng.randint(2, 7), team_size=2)
            d = build_distance_matrix(inst)
            d_max = float(d.max())
            if d_max <= 0:
                continue
            gamma_bar = mean_customer_reward(inst)
            params = SavingParams(
                rng.uniform(0, 1.4), rng.uniform(0, 1.4), rng.uniform(0, 3.5)
            )
            n = inst.n_vertices
            i = rng.randrange(1, n)
            j = rng.randrange(1, n)
            if i == j:
                continue
            mine = saving_value(i, j, inst, d, params, d_max, gamma_bar)
            ref = saving_reference(i, j, inst, d, params, d_max, gamma_bar)
            assert math.isclose(mine, ref, rel_tol=1e-12, abs_tol=1e-12)
            hits += 1

    def test_orientation_matters(self):
        # the sweep term is asymmetric, so (i, j) and (j, i) score differently
        inst = make_instance(
            [
                (3.0, 0.0, 0.0, 10.0, 0.0, 100.0, 1),
                (4.0, 3.0, 0.0, 20.0, 0.0, 100.0, 1),
            ],
            team_size=2,
            t_max=100.0,
        )
        d = build_distance_matrix(inst)
        params = SavingParams(0.7, 1.4, 0.7)
        d_max = float(d.max())
        forward = saving_value(1, 2, inst, d, params, d_max, 15.0)
        backward = saving_value(2, 1, inst, d, params, d_max, 15.0)
        assert forward != backward

    def test_vartheta_monotone(self):
        rng = random.Random(8)
        inst = random_instance(rng, 6, team_size=2)
        d = build_distance_matrix(inst)
        d_max = float(d.max())
        gamma_bar = mean_customer_reward(inst)
        for _ in range(100):
            lam, mu = rng.uniform(0, 1.4), rng.uniform(0, 1.4)
            lo, hi = sorted((rng.uniform(0, 3.5), rng.uniform(0, 3.5)))
            i, j = rng.sample(range(1, inst.n_vertices), 2)
            s_lo = saving_value(i, j, inst, d, SavingParams(lam, mu, lo), d_max, gamma_bar)
            s_hi = saving_value(i, j, inst, d, SavingParams(lam, mu, hi), d_max, gamma_bar)
            assert s_hi >= s_lo

    def test_constant_rewards_do_not_change_ranking(self):
        rng = random.Random(13)
        customers = [
            (rng.uniform(-30, 30), rng.uniform(-30, 30), 2.0, 25.0, 0.0, 400.0, 1)
            for _ in range(6)
        ]
        inst = make_instance(customers, team_size=2, t_max=400.0)
        orders = []
        for vth in (0.0, 2.1, 3.5):
            orders.append(ranked_pairs(inst, SavingParams(0.7, 0.7, vth)))
        assert orders[0] == orders[1] == orders[2]


class TestCalcSavingPairs:
    def test_all_pairs_when_everything_feasible(self):
        inst = make_instance(
            [
                (1.0, 0.0, 0.0, 5.0, 0.0, 900.0, 1),
                (0.0, 2.0, 0.0, 6.0, 0.0, 900.0, 1),
                (-2.0, 1.0, 0.0, 7.0, 0.0, 900.0, 1),
            ],
            team_size=2,
            t_max=1000.0,
        )
        d = build_distance_matrix(inst)
        params = SavingParams(0.7, 0.7, 0.7)
        pairs = ranked_pairs(inst, params)
        assert len(pairs) == 6  # n(n-1) ordered pairs
        values = [saving_value(i, j, inst, d, params, float(d.max()), 6.0) for i, j in pairs]
        assert values == sorted(values, reverse=True)

    def test_unreachable_customer_in_no_pair(self):
        inst = make_instance(
            [
                (1.0, 0.0, 0.0, 5.0, 0.0, 900.0, 1),
                (0.0, 2.0, 0.0, 6.0, 0.0, 900.0, 1),
                (500.0, 0.0, 0.0, 50.0, 980.0, 990.0, 1),  # cannot return in time
            ],
            team_size=2,
            t_max=1000.0,
        )
        pairs = ranked_pairs(inst, SavingParams(0.0, 0.0, 0.0))
        assert all(3 not in pair for pair in pairs)
        assert len(pairs) == 2

    def test_matches_bruteforce_enumeration(self):
        rng = random.Random(55)
        inst = random_instance(rng, 8, team_size=3, t_max=280.0)
        d = build_distance_matrix(inst)
        params = SavingParams(0.7, 1.4, 2.1)
        d_max = float(d.max())
        gamma_bar = mean_customer_reward(inst)
        t = d / inst.velocity
        expected = []
        for i in range(1, inst.n_vertices):
            for j in range(1, inst.n_vertices):
                if i == j:
                    continue
                vi, vj = inst.vertices[i], inst.vertices[j]
                gate = (
                    vj.open + vj.duration + t[j, 0] <= inst.t_max
                    and vi.open + vi.duration + t[i, j] <= vj.close
                )
                if gate:
                    expected.append(
                        (i, j, saving_value(i, j, inst, d, params, d_max, gamma_bar))
                    )
        expected.sort(key=lambda p: (-p[2], p[0], p[1]))
        assert ranked_pairs(inst, params) == [(i, j) for i, j, _ in expected]

    def test_tie_break_is_index_order(self):
        # four customers at symmetric points produce equal savings
        inst = make_instance(
            [
                (5.0, 0.0, 0.0, 10.0, 0.0, 900.0, 1),
                (-5.0, 0.0, 0.0, 10.0, 0.0, 900.0, 1),
                (0.0, 5.0, 0.0, 10.0, 0.0, 900.0, 1),
                (0.0, -5.0, 0.0, 10.0, 0.0, 900.0, 1),
            ],
            team_size=2,
            t_max=1000.0,
        )
        d = build_distance_matrix(inst)
        params = SavingParams(0.0, 0.0, 0.0)
        pairs = ranked_pairs(inst, params)
        values = [saving_value(i, j, inst, d, params, float(d.max()), 10.0) for i, j in pairs]
        same_value = [pair for pair, value in zip(pairs, values) if value == values[0]]
        assert len(same_value) > 1
        assert same_value == sorted(same_value)


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


class TestRankingDifferential:
    @settings(max_examples=100, deadline=None)
    @given(inst=saving_cases())
    def test_matches_scalar_saving_value_sort(self, inst):
        d = build_distance_matrix(inst)
        arcs = build_arc_set(inst, d)
        d_max = float(d.max())
        d_max = d_max if d_max > 0.0 else 1.0
        gamma_bar = mean_customer_reward(inst)
        gamma_bar = gamma_bar if gamma_bar > 0.0 else 1.0
        n = inst.n_vertices
        pairs = [(i, j) for i in range(1, n) for j in range(1, n)
                 if i != j and arcs[i, j]]
        terms = saving_terms(inst, d, arcs)
        for params in parameter_grid():
            expected = sorted(
                ((i, j, saving_value(i, j, inst, d, params, d_max, gamma_bar))
                 for i, j in pairs),
                key=lambda p: (-p[2], p[0], p[1]),
            )
            got = calc_saving_pairs(terms, params)
            # floats compared with ==: equal values decide the tie order
            assert [(i, j) for i, j, _ in expected] == got


class TestParameterGrid:
    def test_size_and_endpoints(self):
        grid = parameter_grid()
        assert len(grid) == 3 * 3 * 6 == 54
        assert grid[0] == SavingParams(0.0, 0.0, 0.0)
        assert grid[-1] == SavingParams(1.4, 1.4, 3.5)

    def test_vartheta_innermost(self):
        grid = parameter_grid()
        assert [p.vartheta for p in grid[:6]] == [0.0, 0.7, 1.4, 2.1, 2.8, 3.5]
        assert all(p.lambda_ == 0.0 for p in grid[:18])
        assert {(p.lambda_, p.mu, p.vartheta) for p in grid} == {
            (l, m, v)
            for l in (0.0, 0.7, 1.4)
            for m in (0.0, 0.7, 1.4)
            for v in (0.0, 0.7, 1.4, 2.1, 2.8, 3.5)
        }
