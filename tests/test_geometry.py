import math
import random

from coptw import build_arc_set, build_distance_matrix, cos_polar_angle

from conftest import make_instance, random_instance


class TestDistanceMatrix:
    def test_three_four_five(self):
        inst = make_instance([(3.0, 4.0, 0.0, 1.0, 0.0, 100.0, 1)])
        d = build_distance_matrix(inst)
        assert d[0, 1] == 5.0
        assert d[1, 0] == 5.0
        assert d[0, 0] == 0.0

    def test_coincident_vertices(self):
        inst = make_instance([(2.0, 2.0, 0.0, 1.0, 0.0, 100.0, 1),
                              (2.0, 2.0, 0.0, 1.0, 0.0, 100.0, 1)])
        d = build_distance_matrix(inst)
        assert d[1, 2] == 0.0

    def test_matches_per_pair_recomputation(self):
        rng = random.Random(4)
        inst = random_instance(rng, 4, team_size=2)
        d = build_distance_matrix(inst)
        for i, vi in enumerate(inst.vertices):
            for j, vj in enumerate(inst.vertices):
                expected = math.sqrt((vi.x - vj.x) ** 2 + (vi.y - vj.y) ** 2)
                assert d[i, j] == expected


class TestArcSet:
    def test_window_violation_excludes_arc(self):
        # leaving customer 1 at its earliest completion cannot reach 2's close
        inst = make_instance(
            [
                (10.0, 0.0, 5.0, 1.0, 20.0, 80.0, 1),
                (30.0, 0.0, 5.0, 1.0, 0.0, 30.0, 1),
            ],
            t_max=200.0,
        )
        d = build_distance_matrix(inst)
        arcs = build_arc_set(inst, d)
        # o_1 + a_1 + t = 20 + 5 + 20 = 45 > 30
        assert not arcs.feasible[1, 2]
        assert arcs.feasible[2, 1]

    def test_horizon_violation_kills_column(self):
        # customer 2 cannot return to the depot by the horizon at all
        inst = make_instance(
            [
                (5.0, 0.0, 1.0, 1.0, 0.0, 50.0, 1),
                (40.0, 0.0, 1.0, 1.0, 90.0, 99.0, 1),
            ],
            t_max=100.0,
        )
        d = build_distance_matrix(inst)
        arcs = build_arc_set(inst, d)
        # o_2 + a_2 + t_20 = 90 + 1 + 40 > 100
        assert not arcs.feasible[0, 2]
        assert not arcs.feasible[1, 2]
        assert not arcs.feasible[:, 2].any()

    def test_matches_bruteforce_predicate(self):
        rng = random.Random(11)
        inst = random_instance(rng, 8, team_size=3, t_max=250.0)
        d = build_distance_matrix(inst)
        arcs = build_arc_set(inst, d)
        t = d / inst.velocity
        expected = [
            [
                bool(
                    i != j
                    and vi.open + vi.duration + t[i, j] <= vj.close
                    and vj.open + vj.duration + t[j, 0] <= inst.t_max
                )
                for j, vj in enumerate(inst.vertices)
            ]
            for i, vi in enumerate(inst.vertices)
        ]
        for i in range(inst.n_vertices):
            assert arcs.feasible[i].tolist() == expected[i]
            assert arcs.feasible[:, i].tolist() == [row[i] for row in expected]

    def test_no_self_arcs(self):
        rng = random.Random(2)
        inst = random_instance(rng, 5, team_size=2)
        arcs = build_arc_set(inst, build_distance_matrix(inst))
        assert not any(arcs.feasible[i, i] for i in range(inst.n_vertices))


class TestCosPolarAngle:
    def test_right_angle(self):
        assert cos_polar_angle((3.0, 0.0), (0.0, 4.0), (0.0, 0.0)) == 0.0

    def test_same_point(self):
        assert cos_polar_angle((2.0, 5.0), (2.0, 5.0), (0.0, 0.0)) == 1.0

    def test_collinear_rays(self):
        assert cos_polar_angle((1.0, 1.0), (2.0, 2.0), (0.0, 0.0)) == 1.0

    def test_opposite_rays(self):
        assert cos_polar_angle((1.0, 0.0), (-2.0, 0.0), (0.0, 0.0)) == -1.0

    def test_coincident_with_depot(self):
        assert cos_polar_angle((5.0, 5.0), (5.0, 5.0), (5.0, 5.0)) == 1.0

    def test_symmetry(self):
        rng = random.Random(9)
        for _ in range(50):
            pi = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            pj = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            dep = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            assert cos_polar_angle(pi, pj, dep) == cos_polar_angle(pj, pi, dep)
