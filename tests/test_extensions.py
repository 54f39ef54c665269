from fractions import Fraction

import pytest

from msfuzz import (
    CarrierMismatch,
    EmptyW,
    FuzzySet,
    UnknownElement,
    classify,
    enumerate_fuzzy_filters,
    enumerate_ms_operations,
    extend,
    fixed_witness_sets,
    is_fixed_relative,
    omega,
    upsilon,
)
from msfuzz.extensions import dense_row
from msfuzz.ms_algebra import MSAlgebra
from msfuzz.catalog import lattice_catalog

from .conftest import chain, fuzzy, grades

HALF = Fraction(1, 2)
UNIVERSE3 = grades(0, HALF, 1)


def all_w_subsets(lat):
    els = lat.elements
    for mask in range(1, 1 << len(els)):
        yield tuple(els[i] for i in range(len(els)) if mask >> i & 1)


# -- the shipped seven-element instance ----------------------------------------

def test_example4_values(example4_printed):
    lat, ms, chi = example4_printed
    res = extend(ms, chi, ["y"])
    assert res.upsilon("x") == Fraction(3, 5)
    assert res.omega("x") == Fraction(7, 10)
    assert res.base_grade == Fraction(3, 5)
    assert res.upsilon.grades == grades(*"3/5 3/5 3/5 3/5 7/10 4/5 7/10".split())
    assert res.omega.grades == grades(*"3/5 3/5 7/10 3/5 7/10 4/5 7/10".split())


def test_upsilon_is_pointwise_max_with_base(example4_printed):
    lat, ms, chi = example4_printed
    for w_subset in (("y",), ("y", "0"), ("t", "u")):
        res = extend(ms, chi, w_subset)
        base = max(chi(ms.negate(ms.negate(w))) for w in w_subset)
        assert res.base_grade == base
        for e in lat.elements:
            assert res.upsilon(e) == max(chi(e), base)
            assert res.upsilon(e) >= chi(e)


def test_w_with_unit_forces_constant_one(diamond_fixture):
    lat, ms, chi = diamond_fixture
    assert set(upsilon(ms, chi, ["1"]).grades) == {Fraction(1)}
    assert set(upsilon(ms, chi, lat.elements).grades) == {Fraction(1)}


def test_w_bottom_is_identity(diamond_fixture):
    lat, ms, chi = diamond_fixture
    assert upsilon(ms, chi, ["0"]).grades == chi.grades
    assert omega(ms, chi, ["0"]).grades == chi.grades


def test_errors(diamond_fixture):
    lat, ms, chi = diamond_fixture
    with pytest.raises(EmptyW):
        upsilon(ms, chi, [])
    with pytest.raises(UnknownElement):
        omega(ms, chi, ["zz"])
    with pytest.raises(CarrierMismatch):
        upsilon(ms, fuzzy(chain(4), 0, 0, 0, 1), ["0"])


# -- fixedness -------------------------------------------------------------------

def test_diamond_fixed_relative(diamond_fixture):
    lat, ms, chi = diamond_fixture
    assert is_fixed_relative(ms, chi, ["0", "xi"])
    assert upsilon(ms, chi, ["0", "xi"]).grades == chi.grades
    assert extend(ms, chi, ["0", "xi"]).base_grade == HALF
    assert not is_fixed_relative(ms, chi, ["1"])


def test_omega_diamond_singleton_xi(diamond_fixture):
    lat, ms, chi = diamond_fixture
    om = omega(ms, chi, ["xi"])
    assert om("0") == HALF
    assert om("theta") == 1


def test_fixed_witness_sets_diamond(diamond_fixture):
    lat, ms, chi = diamond_fixture
    sets = {c.name: c for c in fixed_witness_sets(ms, chi)}
    assert sets["bottom"].members == {"0"}
    assert sets["double-negation-bottom"].members == {"0"}
    assert sets["zero-grade-double-negation"].members == frozenset()
    assert sets["zero-grade-double-negation"].note  # empty: skipped
    for c in sets.values():
        if c.members:
            assert is_fixed_relative(ms, chi, c.members)


def test_fixed_witness_sets_three_chain(three_chain_stone):
    lat, ms, chi = three_chain_stone
    sets = {c.name: c for c in fixed_witness_sets(ms, chi)}
    # m negates to the bottom, so its double negation is the top
    assert sets["double-negation-bottom"].members == {"0"}
    assert sets["zero-grade-double-negation"].members == {"0"}
    for c in sets.values():
        if c.members:
            assert is_fixed_relative(ms, chi, c.members)


def test_fixedness_canonical_sets_across_catalog():
    for lat in lattice_catalog(4):
        for neg in enumerate_ms_operations(lat):
            ms = MSAlgebra(lat, neg)
            for chi in enumerate_fuzzy_filters(lat, UNIVERSE3):
                assert is_fixed_relative(ms, chi, [lat.bottom])
                for c in fixed_witness_sets(ms, chi):
                    if c.members:
                        assert is_fixed_relative(ms, chi, c.members)


# -- dense elements ---------------------------------------------------------------

def _indices(lat, names):
    return [lat.element_index(e) for e in names]


def test_dense_on_reciprocal_chain():
    lat = chain(5)
    mu = FuzzySet(lat, tuple(Fraction(1, k) for k in range(1, 6)))
    assert dense_row(mu.grades, range(lat.n)) == (1, {0})  # c0 alone


def test_dense_singleton_and_errors(diamond_fixture):
    lat, ms, chi = diamond_fixture
    assert dense_row(chi.grades, _indices(lat, ["xi"]))[1] == set(_indices(lat, ["xi"]))


def test_dense_example4(example4_printed):
    lat, ms, chi = example4_printed
    threshold, members = dense_row(chi.grades, _indices(lat, ["t", "z", "u"]))
    assert members == set(_indices(lat, ["u"]))
    assert threshold == Fraction(4, 5)


def test_dense_tie(diamond_fixture):
    lat, ms, chi = diamond_fixture
    assert dense_row(chi.grades, _indices(lat, ["0", "xi"]))[1] == set(_indices(lat, ["0", "xi"]))


def _dense_certificate(ms, chi, w_subset):
    """thm-4.7's dense element: the first, in element order, of the
    argmax of chi over the double-negation image of W."""
    lat, dd = ms.lattice, ms.dneg_table()
    image = {dd[lat.element_index(w)] for w in w_subset}
    return lat.elements[min(dense_row(chi.grades, image)[1])]


def test_upsilon_via_dense(example4_printed, example4_corrected, diamond_fixture):
    """Thm 4.7 on the fixtures: upsilon(theta) is max(chi(theta), chi(d)) for
    the dense certificate d, the first argmax of chi over the image of W."""
    lat, ms, chi = example4_printed
    assert _dense_certificate(ms, chi, ["y"]) == "y"
    assert upsilon(ms, chi, ["y"])("x") == max(chi("x"), chi("y")) == Fraction(3, 5)
    lat, ms, chi = example4_corrected  # unit grade 1, so the top dominates
    assert _dense_certificate(ms, chi, ["0", "1"]) == "1"
    assert upsilon(ms, chi, ["0", "1"])("x") == 1

    lat, ms, chi = diamond_fixture
    assert _dense_certificate(ms, chi, ["0", "xi"]) in {"0", "xi"}
    assert upsilon(ms, chi, ["0", "xi"])("theta") == max(chi("theta"), HALF)


def test_upsilon_via_dense_agrees_everywhere():
    """Thm 4.7 for every dense element, not only the law's first one, for
    every (chi, W, theta) up to four elements."""
    for lat in lattice_catalog(4):
        for neg in enumerate_ms_operations(lat):
            ms = MSAlgebra(lat, neg)
            dd = ms.dneg_table()
            for chi in enumerate_fuzzy_filters(lat, UNIVERSE3):
                for w in all_w_subsets(lat):
                    ups = upsilon(ms, chi, w)
                    image = [dd[i] for i in _indices(lat, w)]
                    for d in dense_row(chi.grades, image)[1]:
                        for theta in lat.elements:
                            assert ups(theta) == max(chi(theta), chi.grades[d])


def test_omega_dense_reading_agrees_with_omega():
    """Both sides of the dense-element reading, for every (chi, W, theta,
    w) up to four elements: omega(theta) = chi(theta join w'') exactly when
    theta join w'' is dense among the joins."""
    for lat in lattice_catalog(4):
        for neg in enumerate_ms_operations(lat):
            ms = MSAlgebra(lat, neg)
            dd = ms.dneg_table()
            for chi in enumerate_fuzzy_filters(lat, UNIVERSE3):
                for w_subset in all_w_subsets(lat):
                    om = omega(ms, chi, w_subset)
                    for t, theta in enumerate(lat.elements):
                        joins = [lat.join_table[t][dd[v]] for v in _indices(lat, w_subset)]
                        dense = dense_row(chi.grades, joins)[1]
                        for join in joins:
                            assert (om(theta) == chi.grades[join]) == (join in dense)


def test_omega_dense_equivalence(example4_printed):
    """Thm 4.8's reading at x on the printed fixture: the join with y'' is
    the dense one and attains omega(x); the join with 0'' does neither."""
    lat, ms, chi = example4_printed
    om = omega(ms, chi, ["y", "0"])
    join_y, join_0 = (lat.join("x", ms.negate(ms.negate(v))) for v in ("y", "0"))
    dense = dense_row(chi.grades, _indices(lat, [join_y, join_0]))[1]
    assert dense == set(_indices(lat, [join_y]))
    assert om("x") == chi(join_y) != chi(join_0)
    assert omega(ms, chi, ["y"])("x") == chi(join_y)  # singleton


# -- law-level invariants (exhaustive at small sizes) -------------------------------

def test_filter_extensions_stay_filters_and_nested():
    for lat in lattice_catalog(4):
        for neg in enumerate_ms_operations(lat):
            ms = MSAlgebra(lat, neg)
            for chi in enumerate_fuzzy_filters(lat, UNIVERSE3):
                for w in all_w_subsets(lat):
                    res = extend(ms, chi, w)
                    assert classify(lat, res.upsilon).is_filter
                    assert chi.is_contained_in(res.upsilon)
                    assert res.upsilon.is_contained_in(res.omega)


def test_omega_filter_for_singletons_but_not_in_general(diamond_ms):
    # singleton reference subsets always yield fuzzy filters
    for lat in lattice_catalog(4):
        for neg in enumerate_ms_operations(lat):
            ms = MSAlgebra(lat, neg)
            for chi in enumerate_fuzzy_filters(lat, UNIVERSE3):
                for w in lat.elements:
                    assert classify(lat, omega(ms, chi, [w])).is_filter
    # ...but a two-element subset can break the meet clause
    lat = diamond_ms.lattice
    chi = fuzzy(lat, HALF, HALF, HALF, 1)
    assert classify(lat, chi).is_filter
    om = omega(diamond_ms, chi, ["a", "b"])
    assert om.grades == grades(HALF, 1, 1, 1)
    assert not classify(lat, om).is_filter
