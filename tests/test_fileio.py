import json

import pytest

from fasdlab.digraph import Digraph
from fasdlab.fileio import (
    FormatError,
    certificate_json,
    format_digraph,
    parse_digraph,
    to_dot,
)
from fasdlab.generators import gadget_dg, random_orgraph


class TestTextFormat:
    def test_round_trip_d8_bit_exact(self):
        d = gadget_dg(8)
        text = format_digraph(d)
        assert parse_digraph(text) == d
        assert format_digraph(parse_digraph(text)) == text

    def test_round_trip_random_unweighted(self):
        for seed in range(10):
            d = random_orgraph(12, 4, 3, seed=seed)
            assert parse_digraph(format_digraph(d)) == d

    def test_round_trip_weighted(self):
        d = random_orgraph(8, 4, 3, seed=1, weighted=True)
        back = parse_digraph(format_digraph(d))
        assert back.arcs == d.arcs and back.weights == d.weights

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\n3 2  # n m\n0 1\n1 2 # tail\n"
        d = parse_digraph(text)
        assert d.n == 3 and d.arcs == ((0, 1), (1, 2))

    def test_rejects_negative_weight(self):
        with pytest.raises(FormatError) as exc:
            parse_digraph("2 1\n0 1 -2.0\n")
        assert "line 2" in str(exc.value)

    def test_rejects_self_loop(self):
        with pytest.raises(FormatError):
            parse_digraph("2 1\n1 1\n")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("3 3\n0 1\n1 2\n1 2\n", 4, "duplicate arc (1,2)"),
            ("3 3\n0 1\n# note\n2 2\n1 2\n", 4, "self-loop at vertex 2"),
            ("3 2\n0 1\n1 3\n", 3, "arc (1,3) outside vertex range [0,3)"),
            ("3 2\n0 1 1.0\n1 2 inf\n", 3, "weights must be finite and >= 0, got inf"),
            ("3 2\n0 1 1.0\n1 2 nan\n", 3, "weights must be finite and >= 0, got nan"),
            ("3 2\n0 1 1.0\n1 2 -2.0\n", 3, "weights must be finite and >= 0, got -2.0"),
            ("# a comment\n\n-3 1\n0 1\n", 3, "vertex count must be nonnegative"),
            ("# a comment\n3 1\n", 2, "declared 1 arcs, found 0"),
            ("# only a comment\n", 0, "empty file"),
            ("3\n", 1, "expected 'n m', got '3'"),
            ("3 x\n", 1, "expected integers in header, got '3 x'"),
            ("3 1\n0 1 2 3\n", 2, "expected 'u v' or 'u v w', got '0 1 2 3'"),
            ("3 1\n0 a\n", 2, "bad endpoints in '0 a'"),
            ("3 1\n0 1 x\n", 2, "bad weight in '0 1 x'"),
        ],
        ids=[
            "duplicate",
            "self-loop",
            "out-of-range",
            "inf",
            "nan",
            "negative-weight",
            "negative-n",
            "no-arcs",
            "empty",
            "header-fields",
            "header-integers",
            "arc-fields",
            "endpoints",
            "weight",
        ],
    )
    def test_error_names_the_offending_line(self, text, line, message):
        with pytest.raises(FormatError) as exc:
            parse_digraph(text)
        assert exc.value.lineno == line
        assert str(exc.value) == f"line {line}: {message}"

    def test_first_bad_line_wins(self):
        # the weight on line 2 is bad before the arc on line 3 is
        with pytest.raises(FormatError) as exc:
            parse_digraph("3 2\n0 1 inf\n2 2 1.0\n")
        assert exc.value.lineno == 2

    def test_rejects_wrong_count(self):
        with pytest.raises(FormatError):
            parse_digraph("3 2\n0 1\n")

    def test_rejects_mixed_weighting(self):
        with pytest.raises(FormatError):
            parse_digraph("3 2\n0 1\n1 2 1.5\n")

    def test_rejects_trailing_arcs(self):
        with pytest.raises(FormatError):
            parse_digraph("2 1\n0 1\n1 0\n")


class TestDot:
    def test_digraph_dot(self):
        dot = to_dot(Digraph(2, [(0, 1)]))
        assert "0 -> 1" in dot and dot.startswith("digraph")


class TestCertificates:
    def test_envelope_fields(self):
        doc = json.loads(certificate_json("fasd", {"value": 3}, "claim text"))
        assert doc["schema"] == "fasdlab-cert-v1"
        assert doc["kind"] == "fasd" and doc["value"] == 3
        assert doc["claim"] == "claim text"

    def test_infinite_and_fraction_encode(self):
        from fractions import Fraction

        from fasdlab.digraph import INFINITE

        doc = json.loads(
            certificate_json("x", {"a": INFINITE, "b": Fraction(3, 7)}, "")
        )
        assert doc["a"] == "infinite"
        assert doc["b"] == {"num": 3, "den": 7}
