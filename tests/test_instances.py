import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coptw import (
    Instance,
    ParseError,
    Solution,
    ValidationError,
    augment,
    format_solution,
    parse_benchmark,
    parse_cordeau,
    parse_solomon,
    parse_solution,
    read_coptw,
    splitmix64,
    truncate,
    write_coptw,
)

SOLOMON_SAMPLE = """\
************************
* sample               *
************************
4 1
0 40.0 50.0 0.0 0 1 1 0 1236
1 45.0 68.0 90.0 10 1 1 912 967
2 45.0 70.0 90.0 30 1 1 825 870
3 42.0 66.0 90.0 10 1 1 65 146
4 42.0 68.0 90.0 10 1 1 727 782
"""

CORDEAU_SAMPLE = """\
4 3 500
0 10.0 10.0 0.0 0 1 1 0 999
1 12.0 14.0 10.0 20 1 1 30 120
2 16.0 11.0 15.0 35 1 1 60 200
3 9.0 2.0 10.0 15 1 1 10 400
"""


class TestParseSolomon:
    def test_depot_close_becomes_horizon(self):
        raw = parse_solomon(SOLOMON_SAMPLE)
        assert raw.t_max == 1236.0
        assert raw.n_customers == 4
        assert raw.vertices[0].x == 40.0
        assert raw.vertices[2].reward == 30.0
        assert raw.vertices[1].open == 912.0 and raw.vertices[1].close == 967.0
        assert raw.vertices[1].duration == 90.0

    def test_depot_only_file(self):
        raw = parse_solomon("0 40 50 0 0 1 1 0 100\n")
        assert raw.n_customers == 0
        assert raw.t_max == 100.0

    def test_inverted_window_names_the_row(self):
        bad = SOLOMON_SAMPLE.replace("1 1 912 967", "1 1 967 912")
        with pytest.raises(ValidationError, match="line 6"):
            parse_solomon(bad)

    def test_malformed_row_names_the_line(self):
        bad = SOLOMON_SAMPLE.replace("2 45.0 70.0 90.0 30 1 1 825 870",
                                     "2 45.0 oops 90.0 30 1 1 825 870")
        with pytest.raises(ParseError, match="line 7"):
            parse_solomon(bad)


class TestParseCordeau:
    def test_counts_match_header(self):
        raw = parse_cordeau(CORDEAU_SAMPLE)
        assert raw.n_customers == 3
        assert raw.t_max == 500.0
        # header horizon is authoritative for the depot window
        assert raw.vertices[0].close == 500.0

    def test_count_mismatch_rejected(self):
        lines = CORDEAU_SAMPLE.strip().splitlines()
        with pytest.raises(ParseError, match="announces 3"):
            parse_cordeau("\n".join(lines[:-1]) + "\n")

    def test_truncated_file_rejected(self):
        with pytest.raises(ParseError):
            parse_cordeau("4 3 500\n0 10.0 10.0 0.0 0 1 1 0 999\n")


def test_parse_benchmark_autodetects():
    assert parse_benchmark(SOLOMON_SAMPLE).n_customers == 4
    assert parse_benchmark(CORDEAU_SAMPLE).n_customers == 3
    with pytest.raises(ParseError, match="not a recognized"):
        parse_benchmark("what even is this\n")


class TestTruncate:
    def test_keeps_prefix_and_horizon(self):
        raw = parse_solomon(SOLOMON_SAMPLE)
        cut = truncate(raw, 2)
        assert cut.n_customers == 2
        assert cut.t_max == raw.t_max
        assert [v.id for v in cut.vertices] == [0, 1, 2]
        assert cut.vertices[2].reward == raw.vertices[2].reward

    def test_full_size_is_identity(self):
        raw = parse_solomon(SOLOMON_SAMPLE)
        assert truncate(raw, 4) == raw

    def test_out_of_range_rejected(self):
        raw = parse_solomon(SOLOMON_SAMPLE)
        with pytest.raises(ValueError):
            truncate(raw, 0)
        with pytest.raises(ValueError):
            truncate(raw, 5)


class TestAugment:
    def test_deterministic(self):
        raw = parse_solomon(SOLOMON_SAMPLE)
        a = augment(raw, seed=42, r_max=3, team_size=3)
        b = augment(raw, seed=42, r_max=3, team_size=3)
        assert a == b
        assert write_coptw(a) == write_coptw(b)

    def test_r_max_one_degenerates(self):
        raw = parse_solomon(SOLOMON_SAMPLE)
        inst = augment(raw, seed=7, r_max=1)
        assert inst.requirements == [0, 1, 1, 1, 1]

    def test_depot_untouched(self):
        raw = parse_solomon(SOLOMON_SAMPLE)
        inst = augment(raw, seed=7, r_max=3)
        assert inst.requirements[0] == 0
        assert inst.vertices == raw.vertices

    def test_draws_shared_across_truncations(self):
        # positional draw: truncated instances share the prefix of the full draw
        raw = parse_solomon(SOLOMON_SAMPLE)
        full = augment(raw, seed=5, r_max=3)
        cut = augment(truncate(raw, 2), seed=5, r_max=3)
        assert cut.requirements == full.requirements[:3]

    def test_uniformity_over_large_draw(self):
        # chi-square-style sanity check on the requirement distribution
        values = [1 + (u % 3) for u in splitmix64(123, 10_000)]
        for r in (1, 2, 3):
            freq = values.count(r) / len(values)
            assert abs(freq - 1.0 / 3.0) < 0.03

    def test_splitmix64_reference_values(self):
        # published test vector: first outputs for seed 1234567
        assert splitmix64(1234567, 3) == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]


class TestCoptwFormat:
    def test_round_trip(self):
        raw = parse_solomon(SOLOMON_SAMPLE)
        inst = augment(raw, seed=3, r_max=3, team_size=4, velocity=2.0)
        again = read_coptw(write_coptw(inst))
        assert again == inst
        assert write_coptw(again) == write_coptw(inst)

    def test_round_trip_awkward_floats(self):
        raw = parse_cordeau(CORDEAU_SAMPLE)
        inst = augment(raw, seed=9, r_max=2, velocity=1.0 / 3.0)
        assert read_coptw(write_coptw(inst)) == inst

    def test_missing_requirement_column(self):
        text = (
            "COPTW 1\n"
            "2 1 100.0 1.0\n"
            "0 0.0 0.0 0.0 0.0 0.0 100.0 0\n"
            "1 1.0 2.0 0.5 10.0 0.0 90.0\n"
        )
        with pytest.raises(ParseError, match="requirement column"):
            read_coptw(text)

    def test_version_mismatch(self):
        with pytest.raises(ParseError, match="COPTW 1"):
            read_coptw("COPTW 2\n1 1 10.0 1.0\n0 0 0 0 0 0 10.0 0\n")

    def test_golden_hand_written_file(self):
        text = (
            "COPTW 1\n"
            "3 2 60.0 1.0\n"
            "0 0.0 0.0 0.0 0.0 0.0 60.0 0\n"
            "1 3.0 4.0 2.5 12.0 1.0 40.0 2\n"
            "2 6.0 8.0 1.0 7.0 5.0 55.0 1\n"
        )
        inst = read_coptw(text)
        assert inst.team_size == 2
        assert inst.t_max == 60.0
        assert inst.velocity == 1.0
        assert inst.n_customers == 2
        assert inst.requirements == [0, 2, 1]
        v1 = inst.vertices[1]
        assert (v1.x, v1.y, v1.duration, v1.reward) == (3.0, 4.0, 2.5, 12.0)
        assert (v1.open, v1.close) == (1.0, 40.0)


class TestInstanceInvariants:
    def test_depot_close_must_match_horizon(self):
        raw = parse_solomon(SOLOMON_SAMPLE)
        with pytest.raises(ValidationError):
            Instance(
                vertices=raw.vertices,
                requirements=[0, 1, 1, 1, 1],
                team_size=2,
                t_max=raw.t_max + 1,
            )

    @pytest.mark.parametrize("velocity", [math.nan, math.inf, 0.0, -1.0])
    def test_velocity_must_be_positive_and_finite(self, velocity):
        # NaN slipped past `velocity <= 0`; inf made every travel time 0
        raw = parse_solomon(SOLOMON_SAMPLE)
        with pytest.raises(ValidationError, match="velocity"):
            augment(raw, seed=1, velocity=velocity)
        text = write_coptw(augment(raw, seed=1)).replace(" 1.0\n", f" {velocity!r}\n", 1)
        with pytest.raises(ValidationError, match="velocity"):
            read_coptw(text)

    def test_nonfinite_coordinates_rejected(self):
        text = SOLOMON_SAMPLE.replace("45.0 68.0", f"{math.inf} 68.0")
        with pytest.raises(ValidationError):
            parse_solomon(text)


FUZZ_INSTANCE = augment(parse_solomon(SOLOMON_SAMPLE), seed=5, team_size=2)
VALID_TEXTS = (
    SOLOMON_SAMPLE,
    CORDEAU_SAMPLE,
    write_coptw(FUZZ_INSTANCE),
    format_solution(Solution(routes=[[3, 1], [1]], served={1, 3}), 20.0),
)
# pieces that sit on the readers' edges: separators, signs, non-finite and
# out-of-range numbers, keywords of every format, control characters
PIECES = st.sampled_from(
    ["", " ", "\n", "\r\n", "\t", ":", "*", "-", ".", "_", "0", "1", "-1", "7", "nan",
     "inf", "-inf", "1e999", "5e-324", "9" * 40, "member", "score:", "COPTW", "x",
     "\x00", "\u0661", "\u00a0"]
)


@st.composite
def mutated_texts(draw):
    """A valid file of any reader with a few spans replaced."""
    text = draw(st.sampled_from(VALID_TEXTS))
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        text = text[:i] + draw(PIECES | st.text(max_size=4)) + text[j:]
    return text


class TestReaderFuzz:
    """The readers reject any text with ParseError or ValidationError."""

    @settings(max_examples=200, deadline=None)
    @given(text=st.one_of(st.text(), mutated_texts()))
    def test_only_input_errors_escape(self, text):
        readers = (
            parse_benchmark,
            read_coptw,
            lambda t: parse_solution(t, FUZZ_INSTANCE),
        )
        for read in readers:
            try:
                read(text)
            except (ParseError, ValidationError):
                pass
