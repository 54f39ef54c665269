from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from msfuzz import (
    AlgebraSyntaxError,
    DanglingReference,
    FIXTURE_NAMES,
    FuzzySet,
    GradeOutOfRange,
    document_from_objects,
    document_to_objects,
    fixture_text,
    load_fixture,
    parse_algebra,
    serialize_algebra,
)
from msfuzz.errors import SizeCapExceeded
from msfuzz.file_format import MAX_DOCUMENT_ELEMENTS, DuplicateElement
from msfuzz.catalog import lattice_catalog


def test_parse_diamond_fixture():
    doc = load_fixture("diamond")
    assert doc.elements == ("0", "theta", "xi", "1")
    chi = dict(dict(doc.fuzzy)["chi"])
    assert chi["0"] == Fraction(1, 2)  # decimal 0.5 parsed exactly
    assert chi["theta"] == 1


def test_decimal_grades_exact():
    doc = load_fixture("example4_printed")
    chi = dict(dict(doc.fuzzy)["chi"])
    assert chi["1"] == Fraction(7, 10)
    assert chi["u"] == Fraction(4, 5)
    assert chi["t"] == Fraction(3, 5)


def test_grade_out_of_range_reports_line():
    text = "elements 0 m 1\ncovers\n 0 < m\n m < 1\nfuzzy chi\n 0 = 0\n m = 1.2\n 1 = 1\n"
    with pytest.raises(GradeOutOfRange) as err:
        parse_algebra(text)
    assert "line 7" in str(err.value)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_round_trip_fixtures(name):
    doc = parse_algebra(fixture_text(name))
    assert parse_algebra(serialize_algebra(doc)) == doc


def test_round_trip_normalizes_order():
    scrambled = (
        "elements 0 a b 1\ncovers\n b < 1\n 0 < b\n 0 < a\n a < 1\n"
        "fuzzy f\n 1 = 1\n a = 1/3\n 0 = 0\n b = 2/3\n"
    )
    doc = parse_algebra(scrambled)
    assert doc.covers == (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1"))
    assert [e for e, _ in doc.fuzzy[0][1]] == ["0", "a", "b", "1"]


@pytest.mark.parametrize(
    "text,error,line",
    [
        ("covers\n a < b\n", DanglingReference, 2),            # no elements yet
        ("elements a b\ncovers\n a <= b\n", AlgebraSyntaxError, 3),
        ("elements a a\n", DuplicateElement, 1),
        ("elements a b\ncovers\n a < zz\n", DanglingReference, 3),
        ("elements a b\nneg\n a -> b\n", AlgebraSyntaxError, 1),  # partial table
        ("elements a b\nfuzzy f\n a = 1\n", AlgebraSyntaxError, 2),  # missing grade
        ("a < b\nelements a b\n", AlgebraSyntaxError, 1),  # content before sections
        ("elements a b\nneg\n a -> b\n a -> b\n", DuplicateElement, 4),
        ("elements a\nfuzzy f\nfuzzy f\n", AlgebraSyntaxError, 3),
        ("elements a\nelements b\n", AlgebraSyntaxError, 2),
    ],
)
def test_parse_errors(text, error, line):
    with pytest.raises(error) as err:
        parse_algebra(text)
    if line is not None:
        assert getattr(err.value, "line", None) == line or f"line {line}" in str(err.value)


def test_element_cap():
    names = [f"e{i}" for i in range(MAX_DOCUMENT_ELEMENTS)]
    doc = parse_algebra("elements\n" + "\n".join(names) + "\n")
    assert doc.elements == tuple(names)
    with pytest.raises(SizeCapExceeded) as err:
        parse_algebra("elements\n" + "\n".join(names + ["extra"]) + "\n")
    assert str(err.value) == "line 1026: more than 1024 elements"


def test_comments_and_blank_lines():
    text = "# header\nelements a b  # trailing\n\ncovers\n a < b\n"
    doc = parse_algebra(text)
    assert doc.elements == ("a", "b")


def test_document_objects_round_trip():
    for name in FIXTURE_NAMES:
        doc = load_fixture(name)
        lat, ms, named = document_to_objects(doc)
        back = document_from_objects(lat, ms, named)
        assert back == doc


@given(
    st.integers(0, 4),
    st.lists(st.integers(0, 8).map(lambda k: Fraction(k, 8)), min_size=4,
             max_size=4),
)
def test_serialization_round_trips_arbitrary_grades(lat_index, values):
    lat = lattice_catalog(4)[lat_index]
    values = (values * lat.n)[: lat.n]
    doc = document_from_objects(lat, None, {"mu": FuzzySet(lat, tuple(values))})
    assert parse_algebra(serialize_algebra(doc)) == doc
