from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from msfuzz import (
    AlgebraDocument,
    AlgebraSyntaxError,
    DanglingReference,
    FIXTURE_NAMES,
    FuzzySet,
    GradeOutOfRange,
    build_lattice,
    document_from_objects,
    document_to_objects,
    fixture_text,
    load_fixture,
    parse_algebra,
    serialize_algebra,
)
from msfuzz.errors import SizeCapExceeded
from msfuzz.file_format import MAX_DOCUMENT_ELEMENTS, DuplicateElement
from msfuzz.grades import parse_grade
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


_CAP_LINE = "elements " + " ".join(f"e{i}" for i in range(MAX_DOCUMENT_ELEMENTS + 1))

# One row per raise site of parse_algebra, and rows for the order in which
# errors are reported: the first error in line order; within a line, the
# form (arity and separator), then the left element, then the right one,
# then a repeated entry, then the grade; after the last line, a missing
# elements section, then a gap in neg, then each fuzzy section in order.
# Each row: text, exact exception type, full message, and ``.line`` (None
# for the two classes that carry no line attribute).
_PARSE_ERRORS = [
    ("elements a\nelements b\n",
     AlgebraSyntaxError, "line 2: second elements section", 2),
    ("elements a\ncovers x\n",
     AlgebraSyntaxError, "line 2: covers keyword takes no arguments", 2),
    ("elements a\nneg x\n",
     AlgebraSyntaxError, "line 2: neg keyword takes no arguments", 2),
    ("elements a\nfuzzy\n", AlgebraSyntaxError, "line 2: expected: fuzzy NAME", 2),
    ("elements a\nfuzzy f g\n", AlgebraSyntaxError, "line 2: expected: fuzzy NAME", 2),
    ("elements a\nfuzzy f\n a = 1\nfuzzy f\n",
     AlgebraSyntaxError, "line 4: second fuzzy section 'f'", 4),
    ("elements a b\n a\n", DuplicateElement, "line 2: element 'a' declared twice", 2),
    (_CAP_LINE, SizeCapExceeded, "line 1: more than 1024 elements", None),
    ("elements a b\ncovers\n a <= b\n", AlgebraSyntaxError, "line 3: expected: a < b", 3),
    ("elements a b\nneg\n a => b\n", AlgebraSyntaxError, "line 3: expected: a -> b", 3),
    ("elements a b\nfuzzy f\n a : 1\n",
     AlgebraSyntaxError, "line 3: expected: a = grade", 3),
    ("elements a b\ncovers\n a < b\n a b\n",
     AlgebraSyntaxError, "line 4: expected: a < b", 4),
    ("elements a b\ncovers\n z < b\n", DanglingReference, "line 3: unknown element 'z'", 3),
    ("elements a b\ncovers\n a < z\n", DanglingReference, "line 3: unknown element 'z'", 3),
    ("elements a b\nneg\n z -> b\n", DanglingReference, "line 3: unknown element 'z'", 3),
    ("elements a b\nneg\n a -> z\n", DanglingReference, "line 3: unknown element 'z'", 3),
    ("elements a b\nfuzzy f\n z = 1\n",
     DanglingReference, "line 3: unknown element 'z'", 3),
    ("covers\n a < b\n", DanglingReference, "line 2: unknown element 'a'", 2),
    ("fuzzy f\n a = 1\nelements a\n", DanglingReference, "line 2: unknown element 'a'", 2),
    ("elements a b\nneg\n a -> b\n a -> a\n",
     DuplicateElement, "line 4: negation of 'a' given twice", 4),
    ("elements a b\nneg\n a -> b\n b -> a\nneg\n a -> a\n",
     DuplicateElement, "line 6: negation of 'a' given twice", 6),
    ("elements a b\nfuzzy f\n a = 1\n a = 0\n",
     DuplicateElement, "line 4: grade of 'a' in 'f' given twice", 4),
    ("elements a b\nfuzzy f\n a = 1.2\n",
     GradeOutOfRange, "line 3: grade 6/5 outside [0, 1]", None),
    ("elements a b\nfuzzy f\n a = x\n", GradeOutOfRange,
     "line 3: cannot parse grade 'x': not p/q, integer or decimal", None),
    ("a < b\nelements a b\n",
     AlgebraSyntaxError, "line 1: content before any section: 'a < b'", 1),
    ("", AlgebraSyntaxError, "line 1: no elements section", 1),
    ("elements\n", AlgebraSyntaxError, "line 1: no elements section", 1),
    ("elements\ncovers\n", AlgebraSyntaxError, "line 1: no elements section", 1),
    ("elements a b\nneg\n a -> b\n",
     AlgebraSyntaxError, "line 1: neg section is missing an entry for 'b'", 1),
    ("elements a b\nfuzzy f\n a = 1\n",
     AlgebraSyntaxError, "line 2: fuzzy section 'f' is missing a grade for 'b'", 2),
    # order within a line
    ("elements a\ncovers\n y <= z\n", AlgebraSyntaxError, "line 3: expected: a < b", 3),
    ("elements a\ncovers\n y < z\n", DanglingReference, "line 3: unknown element 'y'", 3),
    ("elements a b\nneg\n a -> b\n a -> z\n",
     DanglingReference, "line 4: unknown element 'z'", 4),
    ("elements a b\nfuzzy f\n a = 1\n a = x\n",
     DuplicateElement, "line 4: grade of 'a' in 'f' given twice", 4),
    # order across lines, and after the last line
    ("elements a b c\nneg\n a -> b\ncovers\n a < q\n",
     DanglingReference, "line 5: unknown element 'q'", 5),
    ("elements a b\nfuzzy f\n a = 1\nneg\n a -> b\n",
     AlgebraSyntaxError, "line 1: neg section is missing an entry for 'b'", 1),
    ("elements a b\nfuzzy f\n a = 1\nfuzzy g\n b = 1\n",
     AlgebraSyntaxError, "line 2: fuzzy section 'f' is missing a grade for 'b'", 2),
    ("elements a\nfuzzy f\n a = 1\nfuzzy g\n",
     AlgebraSyntaxError, "line 4: fuzzy section 'g' is missing a grade for 'a'", 4),
]


@pytest.mark.parametrize("text,error,message,line", _PARSE_ERRORS)
def test_parse_error_table(text, error, message, line):
    with pytest.raises(error) as err:
        parse_algebra(text)
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "line", None) == line


@pytest.mark.parametrize("text,keyword,line", [
    ("elements 0 fuzzy 1\ncovers\n 0 < fuzzy\n fuzzy < 1\n", "fuzzy", 1),
    ("elements elements\n", "elements", 1),
    ("elements 0\n 1 covers\n", "covers", 2),
    ("elements 0\n  1 neg\n", "neg", 2),
])
def test_element_named_as_a_keyword_is_refused(text, keyword, line):
    with pytest.raises(AlgebraSyntaxError) as err:
        parse_algebra(text)
    assert str(err.value) == f"line {line}: element {keyword!r} is a section keyword"
    assert err.value.line == line


def test_fuzzy_map_named_as_a_keyword_round_trips():
    doc = parse_algebra("elements 0\nfuzzy neg\n 0 = 1\n")
    assert doc.fuzzy == (("neg", (("0", Fraction(1)),)),)
    assert parse_algebra(serialize_algebra(doc)) == doc


@pytest.mark.parametrize("name", ["x#y", "x y", "x\ty", "", "elements", "covers", "neg", "fuzzy"])
def test_serialize_refuses_an_element_name_that_does_not_parse_back(name):
    doc = AlgebraDocument(elements=("a", name), covers=(("a", name),))
    with pytest.raises(AlgebraSyntaxError) as err:
        serialize_algebra(doc)
    assert str(err.value) == f"line 1: cannot write element name {name!r}"


def test_serialize_refuses_the_name_of_a_built_lattice():
    lat = build_lattice(["a", "x#y"], [("a", "x#y")])
    with pytest.raises(AlgebraSyntaxError, match="'x#y'"):
        serialize_algebra(document_from_objects(lat))


@pytest.mark.parametrize("name", ["", "f g", "f#", "f\n"])
def test_serialize_refuses_a_fuzzy_map_name_that_does_not_parse_back(name):
    grades = (("a", Fraction(1)),)
    doc = AlgebraDocument(elements=("a",), covers=(), fuzzy=(("f", grades), (name, grades)))
    # elements a / covers / fuzzy f / a = 1 / fuzzy NAME
    with pytest.raises(AlgebraSyntaxError) as err:
        serialize_algebra(doc)
    assert str(err.value) == f"line 5: cannot write fuzzy map name {name!r}"


@pytest.mark.parametrize("text,message", [
    ("3/2", "grade 3/2 outside [0, 1]"),
    ("-1", "grade -1 outside [0, 1]"),
    ("1" * 20, "grade 11111111111111111111 outside [0, 1]"),
    ("1" * 4000, "grade 11111111111111111111... outside [0, 1]"),
    ("1" * 25 + "/2", "grade 11111111111111111111... outside [0, 1]"),
], ids=["3/2", "-1", "20 digits", "4000 digits", "25-digit numerator"])
def test_out_of_range_grade_is_echoed_clipped(text, message):
    with pytest.raises(GradeOutOfRange) as err:
        parse_grade(text)
    assert str(err.value) == message
