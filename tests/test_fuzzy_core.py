import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from msfuzz import (
    CarrierMismatch,
    FuzzySet,
    GradeOutOfRange,
    NotProper,
    SizeCapExceeded,
    build_lattice,
    classify,
    enumerate_filters,
    enumerate_fuzzy_filters,
    is_filter,
    level_cut,
)
from msfuzz.catalog import lattice_catalog
from msfuzz.fuzzy_core import prime_pair_row
from msfuzz.scan import Instance
from msfuzz.verifier import run_property

from .conftest import chain, fuzzy, grades

HALF = Fraction(1, 2)
UNIVERSE3 = grades(0, HALF, 1)

small_grades = st.integers(0, 4).map(lambda k: Fraction(k, 4))


def filter_by_definition(lat, fs):
    """Oracle: the three-clause reading, written independently."""
    if fs(lat.top) != 1:
        return False
    for a in lat.elements:
        for b in lat.elements:
            if fs(lat.meet(a, b)) < min(fs(a), fs(b)):
                return False
            if fs(lat.join(a, b)) < max(fs(a), fs(b)):
                return False
    return True


def ideal_by_definition(lat, fs):
    """Oracle: the order dual of ``filter_by_definition``."""
    if fs(lat.bottom) != 1:
        return False
    for a in lat.elements:
        for b in lat.elements:
            if fs(lat.join(a, b)) < min(fs(a), fs(b)):
                return False
            if fs(lat.meet(a, b)) < max(fs(a), fs(b)):
                return False
    return True


# -- pointwise algebra ---------------------------------------------------------

def test_union_intersection(diamond, diamond_ms):
    """Containment is pointwise; the pointwise-maximum union is read by
    laws prop-3.3.1 and prop-3.7."""
    phi = fuzzy(diamond, 0, 1, 0, 1)
    psi = fuzzy(diamond, 0, 0, 1, 1)
    assert fuzzy(diamond, 0, 0, 0, 1).is_contained_in(phi)
    assert phi.is_contained_in(phi)
    assert not phi.is_contained_in(psi) and not psi.is_contained_in(phi)
    inst = Instance(diamond_ms, (phi, psi), grades(0, 1))
    assert run_property("prop-3.3.1", inst) is None
    assert run_property("prop-3.7", inst) is None


def test_carrier_mismatch(diamond):
    other = chain(4)
    with pytest.raises(CarrierMismatch):
        fuzzy(diamond, 0, 0, 0, 1).is_contained_in(fuzzy(other, 0, 0, 0, 1))


def test_grade_validation(diamond):
    with pytest.raises(GradeOutOfRange):
        FuzzySet(diamond, grades(0, 0, 0, Fraction(6, 5)))
    with pytest.raises(GradeOutOfRange):
        FuzzySet(diamond, grades(0, 0, 1))  # not total


# -- classification -------------------------------------------------------------

def test_diamond_chi_is_filter(diamond_fixture):
    lat, _, chi = diamond_fixture
    cls = classify(lat, chi)
    assert cls.is_filter and cls.is_sublattice and cls.is_proper
    assert not cls.is_ideal


def test_example4_chi_flagged(example4_printed):
    lat, _, chi = example4_printed
    cls = classify(lat, chi)
    assert not cls.is_filter
    assert cls.witness == ("u", "1")
    assert chi(lat.meet("u", "1")) == Fraction(4, 5)
    assert min(chi("u"), chi("1")) == Fraction(7, 10)


def test_example4_corrected_chi_is_filter(example4_corrected):
    lat, _, chi = example4_corrected
    assert classify(lat, chi).is_filter


def test_constant_filter_not_proper(diamond):
    cls = classify(diamond, fuzzy(diamond, 1, 1, 1, 1))
    assert cls.is_filter and cls.is_ideal and not cls.is_proper


def test_ideal_classification(diamond):
    cls = classify(diamond, fuzzy(diamond, 1, HALF, 0, 0))
    assert cls.is_ideal and cls.is_sublattice and not cls.is_filter


def test_classification_stable_under_renaming(diamond):
    renamed = build_lattice(["bot", "left", "right", "top"],
                            [("bot", "left"), ("bot", "right"),
                             ("left", "top"), ("right", "top")])
    for values in product([0, HALF, 1], repeat=4):
        a = classify(diamond, fuzzy(diamond, *values))
        b = classify(renamed, fuzzy(renamed, *values))
        assert (a.is_filter, a.is_ideal, a.is_sublattice, a.is_proper) == \
            (b.is_filter, b.is_ideal, b.is_sublattice, b.is_proper)


@pytest.mark.parametrize("lat_builder", [lambda: chain(2), lambda: chain(3), None])
def test_filter_characterization_equivalence(lat_builder, diamond):
    lat = lat_builder() if lat_builder else diamond
    for values in product([0, HALF, 1], repeat=lat.n):
        fs = FuzzySet(lat, grades(*values))
        assert classify(lat, fs).is_filter == filter_by_definition(lat, fs)


def test_classify_matches_definitions_across_catalog():
    """classify decides filters and ideals by their characterizations; the
    definitions agree on every grade map over {0, 1/2, 1} up to six elements."""
    seen = {"filter": 0, "ideal": 0}
    for lat in lattice_catalog(6):
        for values in product(UNIVERSE3, repeat=lat.n):
            fs = FuzzySet(lat, values)
            cls = classify(lat, fs)
            assert cls.is_filter == filter_by_definition(lat, fs), values
            assert cls.is_ideal == ideal_by_definition(lat, fs), values
            seen["filter"] += cls.is_filter
            seen["ideal"] += cls.is_ideal
    assert all(seen.values())


@given(st.lists(small_grades, min_size=4, max_size=4))
def test_classify_never_diverges_on_random_maps(values):
    lat = build_lattice(["0", "a", "b", "1"],
                        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    fs = FuzzySet(lat, tuple(values))
    cls = classify(lat, fs)
    assert cls.is_filter == filter_by_definition(lat, fs)
    assert cls.is_ideal == ideal_by_definition(lat, fs)
    if cls.is_filter or cls.is_ideal:
        assert cls.is_sublattice
    if cls.is_filter:
        for a in lat.elements:
            for b in lat.elements:
                if lat.leq(a, b):
                    assert fs(a) <= fs(b)  # fuzzy filters are isotone


# -- the rank route against the grade route --------------------------------------

def classify_by_grades(lat, chi):
    """Oracle: ``classify`` as it ran on the Fraction grades themselves,
    before it mapped them to ranks."""
    from msfuzz import FuzzyClassification
    from msfuzz.lattice_core import first_break

    g = chi.grades
    sublattice = all(
        min(g[i], g[j]) <= min(g[lat.meet_table[i][j]], g[lat.join_table[i][j]])
        for i in range(lat.n) for j in range(lat.n)
    )
    meet_break = first_break(lat.meet_table, g, min)
    return FuzzyClassification(
        is_sublattice=sublattice,
        is_ideal=(g[lat.element_index(lat.bottom)] == 1
                  and first_break(lat.join_table, g, min) is None),
        is_filter=g[lat.element_index(lat.top)] == 1 and meet_break is None,
        is_proper=not chi.is_constant(),
        witness=None if meet_break is None else
        (lat.elements[meet_break[0]], lat.elements[meet_break[1]]),
    )


def filter_report_by_grades(lat, chi, name):
    """Oracle: ``fuzzy_filter_report`` as it ran on the Fraction grades."""
    from msfuzz import Check, VerificationReport
    from msfuzz.lattice_core import first_break

    g = chi.grades
    top_grade = g[lat.element_index(lat.top)]
    meet_break = first_break(lat.meet_table, g, min)
    witness = None
    if meet_break is not None:
        i, j = meet_break
        witness = {"pair": [lat.elements[i], lat.elements[j]],
                   "lhs": str(g[lat.meet_table[i][j]]), "rhs": str(min(g[i], g[j]))}
    return VerificationReport(f"fuzzy-filter:{name}", (
        Check(f"fuzzy.{name}.unit", top_grade == 1,
              "" if top_grade == 1 else f"grade of {lat.top!r} is {top_grade}, not 1"),
        Check(f"fuzzy.{name}.meet-equality", witness is None,
              "" if witness is None else
              "grade of a meet differs from the minimum of the grades", witness),
        Check(f"fuzzy.{name}.is-filter", top_grade == 1 and witness is None),
    ))


@pytest.mark.parametrize("universe", [UNIVERSE3, grades(Fraction(1, 3), Fraction(2, 3), 1)])
def test_rank_route_matches_grade_route(universe):
    """classify and fuzzy_filter_report scan integer ranks; on every grade
    map over the universe, on every catalog lattice up to four elements,
    their verdicts and witnesses equal those of the scan on grades."""
    from msfuzz import fuzzy_filter_report

    broken = 0
    for lat in lattice_catalog(4):
        for values in product(universe, repeat=lat.n):
            fs = FuzzySet(lat, values)
            assert classify(lat, fs) == classify_by_grades(lat, fs), values
            report = fuzzy_filter_report(lat, fs, "chi")
            assert report == filter_report_by_grades(lat, fs, "chi"), values
            broken += report.find("fuzzy.chi.meet-equality").witness is not None
    assert broken


# -- level cuts -----------------------------------------------------------------

def test_level_cut_basics(diamond_fixture):
    lat, _, chi = diamond_fixture
    assert level_cut(chi, Fraction(0)) == set(lat.elements)
    assert level_cut(chi, Fraction(3, 4)) == {"theta", "1"}
    assert "1" in level_cut(chi, Fraction(1))
    with pytest.raises(GradeOutOfRange):
        level_cut(chi, Fraction(3, 2))


def test_level_cut_antitone(diamond_fixture):
    lat, _, chi = diamond_fixture
    cuts = [level_cut(chi, Fraction(k, 8)) for k in range(9)]
    for lower, higher in zip(cuts, cuts[1:]):
        assert higher <= lower


def test_level_cuts_of_filters_are_crisp_filters():
    for lat in lattice_catalog(4):
        for fs in enumerate_fuzzy_filters(lat, UNIVERSE3):
            for t in UNIVERSE3:
                cut = level_cut(fs, t)
                assert not cut or is_filter(lat, cut).ok


# -- enumeration ----------------------------------------------------------------

def test_enumerate_two_chain():
    lat = chain(2)
    assert len(enumerate_fuzzy_filters(lat, grades(0, 1))) == 2
    assert len(enumerate_fuzzy_filters(lat, UNIVERSE3)) == 3


def test_enumerate_requires_unit():
    with pytest.raises(ValueError):
        enumerate_fuzzy_filters(chain(2), grades(0, HALF))


def test_enumerate_cap():
    enumerate_fuzzy_filters(chain(21), UNIVERSE3)  # 63 is within the cap
    with pytest.raises(SizeCapExceeded, match="= 66 exceeds cap 64"):
        enumerate_fuzzy_filters(chain(22), UNIVERSE3)


def test_characteristic_bijection():
    for lat in lattice_catalog(4):
        crisp = {f.members for f in enumerate_filters(lat)}
        twovalued = enumerate_fuzzy_filters(lat, grades(0, 1))
        as_sets = {level_cut(fs, Fraction(1)) for fs in twovalued}
        assert as_sets == crisp
        assert len(twovalued) == len(crisp)


def test_enumeration_matches_exhaustive_scan():
    for lat in lattice_catalog(5):
        for universe in (grades(0, 1), UNIVERSE3, grades(HALF, 1), grades(1)):
            got = enumerate_fuzzy_filters(lat, universe)
            expected = [
                FuzzySet(lat, values)
                for values in product(universe, repeat=lat.n)
                if filter_by_definition(lat, FuzzySet(lat, values))
            ]
            assert got == expected  # same maps, same lexicographic order


# -- primality ------------------------------------------------------------------

def prime_pair_grades(lat, chi, universe):
    """``prime_pair_row`` on chi's ranks over the universe with 0 and 1,
    its pair mapped back to grades."""
    scale = tuple(sorted(set(universe) | {Fraction(0), Fraction(1)}))
    rank = {g: k for k, g in enumerate(scale)}
    pair = prime_pair_row(lat, tuple(map(rank.__getitem__, chi.grades)), rank[1])
    if pair is None:
        return True, None
    return False, tuple(FuzzySet(lat, tuple(scale[k] for k in r)) for r in pair)


def test_prime_two_chain():
    lat = chain(2)
    assert prime_pair_row(lat, (0, 1), 1) is None
    assert prime_pair_grades(lat, fuzzy(lat, 0, 1), grades(0, 1)) == (True, None)


def test_prime_diamond_refuted(diamond, diamond_ms):
    """The two atoms' step filters refute the primality of the top's
    characteristic map, first in sorted order; thm-3.1-prime reports them
    for the extension over W = {0}, which is that map."""
    chi = fuzzy(diamond, 0, 0, 0, 1)
    assert prime_pair_row(diamond, (0, 0, 0, 1), 1) == ((0, 0, 1, 1), (0, 1, 0, 1))
    ok, (phi, psi) = prime_pair_grades(diamond, chi, grades(0, 1))
    assert not ok
    assert all(min(a, b) <= c for a, b, c in zip(phi.grades, psi.grades, chi.grades))
    assert not phi.is_contained_in(chi) and not psi.is_contained_in(chi)
    witness = run_property("thm-3.1-prime", Instance(diamond_ms, (chi,), grades(0, 1),
                                                     (("0",),)))
    assert witness.data == {"phi": phi, "psi": psi, "upsilon": chi}


def prime_by_pair_scan(lat, chi, pool):
    """Oracle: every pair of the pool, in pool order."""
    for phi in pool:
        for psi in pool:
            if (all(min(a, b) <= c for a, b, c in zip(phi.grades, psi.grades, chi.grades))
                    and not phi.is_contained_in(chi)
                    and not psi.is_contained_in(chi)):
                return False, (phi, psi)
    return True, None


def _assert_prime_pair_matches_pair_scan(lattices):
    """The kernel finds the pair scan's first pair, or none when it finds
    none, on every non-constant filter over {0, 1/2, 1} and over
    {0, 1/3, 2/3, 1}; both verdicts occur."""
    third = Fraction(1, 3)
    verdicts = set()
    for universe in (UNIVERSE3, grades(0, third, 2 * third, 1)):
        for lat in lattices:
            pool = enumerate_fuzzy_filters(lat, universe)
            for chi in pool:
                if not chi.is_constant():
                    expected = prime_by_pair_scan(lat, chi, pool)
                    assert prime_pair_grades(lat, chi, universe) == expected
                    verdicts.add(expected[0])
    assert verdicts == {True, False}


def test_bounded_primality_matches_pair_scan():
    _assert_prime_pair_matches_pair_scan(lattice_catalog(5))


def test_prime_pair_matches_pair_scan_in_any_element_order():
    """The same in a shuffled element order: a document's element order
    need not be a linear extension, and the pool and the step filters sort
    by grade tuple over element positions alike."""
    rng = random.Random(5)
    shuffled = []
    for lat in lattice_catalog(5):
        for _ in range(2):
            elements = list(lat.elements)
            rng.shuffle(elements)
            shuffled.append(build_lattice(elements, lat.covers))
    assert any(lat.elements[0] != lat.bottom for lat in shuffled)
    _assert_prime_pair_matches_pair_scan(shuffled)


def test_prime_requires_proper(diamond, diamond_ms):
    """thm-3.1-prime passes a constant extension and refuses, as
    ``NotProper``, a non-constant one that is not a fuzzy filter."""
    constant = Instance(diamond_ms, (fuzzy(diamond, 1, 1, 1, 1),), grades(0, 1))
    assert run_property("thm-3.1-prime", constant) is None
    not_a_filter = Instance(diamond_ms, (fuzzy(diamond, 0, 1, 1, 1),), grades(0, 1),
                            (("0",),))
    with pytest.raises(NotProper, match="fuzzy filters only"):
        run_property("thm-3.1-prime", not_a_filter)
