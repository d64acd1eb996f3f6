import io
import random
from fractions import Fraction

import pytest

from morsebott import (
    Analysis,
    DiscreteFunction,
    ParseError,
    Polynomial,
    ValidationError,
    build_simplicial,
    morse_bott_inequalities,
    parse_complex,
    parse_function,
    parse_report,
    serialize_complex,
    serialize_function,
    serialize_report,
)
from morsebott.flow import is_combinatorial
from morsebott.io import _ENCODER
from conftest import random_simplicial_complex, torus_triangles


class TestParseComplex:
    def test_simplex_line(self):
        X = parse_complex("simplex a b c\n")
        assert len(X) == 7

    def test_loop_with_irregular_record(self):
        X = parse_complex("cell v 0\ncell e 1\nface e v 2 i\n")
        assert len(X) == 2
        assert not X.facet_records("e")[0].regular

    def test_comments_and_blanks(self):
        X = parse_complex("# a point\n\ncell v 0  # the vertex\n")
        assert len(X) == 1

    def test_dangling_face(self):
        with pytest.raises(ParseError, match="unknown cell"):
            parse_complex("face e v 1 r\n")

    def test_mixing_forbidden(self):
        with pytest.raises(ParseError, match="mixed"):
            parse_complex("simplex a b\ncell v 0\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_complex("vertex v 0\n")

    def test_bad_dimension(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_complex("cell v 0\ncell e one\n")

    def test_validation_failure_raises(self):
        text = (
            "cell v 0\ncell e 1\nface e v 2 r\n"  # regular record with incidence 2
        )
        with pytest.raises(ValidationError):
            parse_complex(text)
        X = parse_complex(text, validate=False)
        assert len(X) == 2


class TestComplexRoundTrip:
    def test_fixed(self, triangle, loop_complex):
        for X in (triangle, loop_complex):
            Y = parse_complex(serialize_complex(X), validate=False)
            assert {(c.id, c.dim) for c in X.cells.values()} == {
                (c.id, c.dim) for c in Y.cells.values()
            }
            assert set(X.faces) == set(Y.faces)

    def test_random(self):
        rng = random.Random(8)
        for _ in range(10):
            X = random_simplicial_complex(rng)
            Y = parse_complex(serialize_complex(X))
            assert set(X.faces) == set(Y.faces)

    def test_deterministic_bytes(self, torus7):
        assert serialize_complex(torus7) == serialize_complex(torus7)


class TestParseFunction:
    def test_exact_half(self, point):
        f = parse_function("value p 1/2\n", point)
        assert f("p") == Fraction(1, 2)

    def test_missing_cell(self, segment):
        with pytest.raises(ParseError, match="missing cell w"):
            parse_function("value v 0\nvalue v-w 1\n", segment)

    def test_duplicate(self, point):
        with pytest.raises(ParseError, match="duplicate"):
            parse_function("value p 1\nvalue p 2\n", point)

    def test_zero_denominator(self, point):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_function("value p 1/0\n", point)

    def test_unknown_cell(self, point):
        with pytest.raises(ParseError, match="unknown cell"):
            parse_function("value q 1\n", point)

    def test_round_trip(self, triangle):
        f = DiscreteFunction(
            {cid: Fraction(i, 3) for i, cid in enumerate(triangle.ids())}
        )
        assert parse_function(serialize_function(f, triangle), triangle) == f


class TestReportDocuments:
    def test_polynomial_rendering(self):
        doc = serialize_report({"correction": Polynomial([2, 1])})
        assert doc.data["correction"] == {"coeffs": [2, 1], "pretty": "2 + t"}

    def test_inequality_report_fields_present(self, point):
        report = morse_bott_inequalities(point, DiscreteFunction.constant(point))
        doc = serialize_report(report)
        for key in ("poincare_sum", "poincare_complex", "correction", "divisible", "nonneg"):
            assert key in doc.data

    def test_deterministic_bytes(self, triangle):
        f = DiscreteFunction.by_dimension(triangle)
        a = serialize_report(morse_bott_inequalities(triangle, f)).to_json()
        b = serialize_report(morse_bott_inequalities(triangle, f)).to_json()
        assert a == b

    def test_round_trip(self, triangle):
        f = DiscreteFunction.by_dimension(triangle)
        doc = serialize_report(morse_bott_inequalities(triangle, f))
        assert parse_report(doc.to_json()).data == doc.data
        assert parse_report(doc.to_json()).to_json() == doc.to_json()

    def test_fractions_serialized_exactly(self):
        doc = serialize_report({"value": Fraction(1, 2), "whole": Fraction(4, 2)})
        assert doc.data == {"value": "1/2", "whole": "2"}

    def test_text_rendering(self, triangle):
        f = DiscreteFunction.by_dimension(triangle)
        text = serialize_report(morse_bott_inequalities(triangle, f)).to_text()
        assert "correction" in text and "2 + t" in text

    def test_write_json_streams_to_json(self):
        # The flow document of the constant 3x3 torus: 1000 orbits, 628 KB,
        # tens of thousands of encoder chunks.
        X = build_simplicial(torus_triangles(3))
        a = Analysis(X, DiscreteFunction.constant(X))
        doc = serialize_report(
            {
                "arrows": sorted(a.arrows.arrows),
                "combinatorial": is_combinatorial(a.arrows, X),
                "closed_orbits": [o.cells for o in a.orbits],
                "truncated": a.orbits.truncated,
                "cross_collection_orbits": a.cross_orbits,
            }
        )
        assert len(list(_ENCODER.iterencode(doc.data))) > 4 * 4096
        out = io.StringIO()
        doc.write_json(out)
        assert out.getvalue() == doc.to_json()
