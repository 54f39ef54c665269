from fractions import Fraction
from itertools import product

from msfuzz import (
    FuzzySet,
    Instance,
    cokernel,
    enumerate_fuzzy_filters,
    enumerate_ms_operations,
    hom_report,
    is_prime_filter,
    kernel,
    run_property,
    upsilon,
)
from msfuzz.extensions import omega_row, upsilon_row
from msfuzz.fuzzy_core import is_filter_row
from msfuzz.grades import ONE, ZERO
from msfuzz.hom_analysis import HomReport, cokernel_row, kernel_row
from msfuzz.lattice_core import first_break
from msfuzz.ms_algebra import MSAlgebra
from msfuzz.catalog import lattice_catalog

from .conftest import fuzzy, grades

HALF = Fraction(1, 2)
UNIVERSE3 = grades(0, HALF, 1)


def all_w_subsets(lat):
    els = lat.elements
    for mask in range(1, 1 << len(els)):
        yield tuple(els[i] for i in range(len(els)) if mask >> i & 1)


def _w_index_sets(lat):
    return [tuple(i for i in range(lat.n) if mask >> i & 1) for mask in range(1, 1 << lat.n)]


def test_hom_report_diamond_fixture(diamond_fixture):
    lat, _, chi = diamond_fixture
    rep = hom_report(lat, chi)
    assert rep.is_meet_hom and rep.is_join_hom and rep.is_lattice_hom


def test_hom_report_example4(example4_printed):
    lat, _, chi = example4_printed
    rep = hom_report(lat, chi)
    assert not rep.is_meet_hom  # not even a fuzzy filter
    assert not rep.is_join_hom
    assert rep.witness is not None


def test_fuzzy_filters_are_meet_homs():
    for lat in lattice_catalog(4):
        for chi in enumerate_fuzzy_filters(lat, UNIVERSE3):
            assert hom_report(lat, chi).is_meet_hom


def test_prime_characteristic_maps_are_join_homs(diamond):
    for members in ({"a", "1"}, {"b", "1"}):
        assert is_prime_filter(diamond, members).ok
        char = FuzzySet(
            diamond,
            tuple(Fraction(int(e in members)) for e in diamond.elements),
        )
        assert hom_report(diamond, char).is_join_hom


def test_kernel_cokernel(diamond_fixture, example4_printed, example4_corrected):
    lat, _, chi = example4_printed
    assert kernel(chi) == {"0"}
    assert cokernel(chi) == frozenset()
    _, _, corrected = example4_corrected
    assert cokernel(corrected) == {"1"}
    lat, _, chi = diamond_fixture
    assert cokernel(chi) == {"theta", "1"}
    constant = fuzzy(lat, 1, 1, 1, 1)
    assert kernel(constant) == frozenset()
    assert cokernel(constant) == set(lat.elements)


def test_kernel_characterization_examples(diamond_ms):
    lat = diamond_ms.lattice
    char_top = fuzzy(lat, 0, 0, 0, 1)
    assert kernel(upsilon(diamond_ms, char_top, ["0"])) == {"0", "a", "b"}
    assert kernel(upsilon(diamond_ms, char_top, ["a"])) == {"0", "a", "b"}
    assert run_property("prop-5.2", Instance(diamond_ms, (char_top,), UNIVERSE3,
                                             w_sets=(("0",), ("a",)))) is None
    # any reference element with positive image grade empties the kernel
    chi = fuzzy(lat, 0, HALF, HALF, 1)
    assert kernel(upsilon(diamond_ms, chi, ["a"])) == frozenset()


def test_cokernel_characterization_examples(diamond_fixture):
    lat, ms, chi = diamond_fixture
    assert cokernel(upsilon(ms, chi, ["1"])) == set(lat.elements)
    assert cokernel(upsilon(ms, chi, ["0", "xi"])) == cokernel(chi) == {"theta", "1"}
    assert run_property("prop-5.3", Instance(ms, (chi,), UNIVERSE3,
                                             w_sets=(("0", "xi"), ("1",)))) is None


def test_characterizations_hold_everywhere():
    """The row kernels of prop-5.2 and prop-5.3 hold for every fuzzy filter
    and every W, not only the first W of each double-negation image that
    the laws visit, up to four elements."""
    for lat in lattice_catalog(4):
        for neg in enumerate_ms_operations(lat):
            ms = MSAlgebra(lat, neg)
            for chi in enumerate_fuzzy_filters(lat, UNIVERSE3):
                for w_idx in _w_index_sets(lat):
                    ups = upsilon_row(ms, chi.grades, w_idx)
                    assert kernel_row(ms, chi.grades, ups, w_idx, ZERO)
                    assert cokernel_row(ms, chi.grades, ups, w_idx, ONE)


def test_row_kernels_agree_on_ranks_and_grades():
    """Every row kernel gives the same answer on a grade tuple as on its
    integer ranks, where the scale holds 0 and 1 as in the law scan: every
    grade map (filter or not) on the catalog up to four elements, and for
    the kernel rows both extensions of it over every W as the second row."""
    seen = set()
    for universe in (grades(0, HALF, 1), grades(Fraction(1, 3), Fraction(2, 3), 1)):
        scale = sorted(set(universe) | {ZERO, ONE})
        rank = {g: k for k, g in enumerate(scale)}
        one = rank[ONE]
        for lat in lattice_catalog(4):
            algebras = [MSAlgebra(lat, neg) for neg in enumerate_ms_operations(lat)]
            for g in product(universe, repeat=lat.n):
                r = tuple(rank[x] for x in g)
                for table, op in product((lat.meet_table, lat.join_table), (min, max)):
                    assert first_break(table, g, op) == first_break(table, r, op)
                assert is_filter_row(lat, g, ONE) == is_filter_row(lat, r, one)
                for ms, w_idx in product(algebras, _w_index_sets(lat)):
                    for row in (upsilon_row, omega_row):
                        u_g, u_r = row(ms, g, w_idx), row(ms, r, w_idx)
                        kernel = kernel_row(ms, g, u_g, w_idx, ZERO)
                        cokernel = cokernel_row(ms, g, u_g, w_idx, ONE)
                        assert kernel == kernel_row(ms, r, u_r, w_idx, 0)
                        assert cokernel == cokernel_row(ms, r, u_r, w_idx, one)
                        seen |= {("kernel", kernel), ("cokernel", cokernel)}
    assert len(seen) == 4  # both verdicts of both kernels


def test_kernel_rows_match_the_pointwise_statement():
    """Fed any second row, not only the extension, the kernel rows decide
    the pointwise statements of prop-5.2 and prop-5.3: the zero set of the
    row is chi's zero set when chi kills the whole double-negation image of
    W and empty otherwise; its unit set is the carrier when some image
    element has grade one and chi's unit set otherwise."""
    verdicts = {True: 0, False: 0}
    for lat in lattice_catalog(3):
        everything = set(range(lat.n))
        for neg in enumerate_ms_operations(lat):
            ms = MSAlgebra(lat, neg)
            dd = ms.dneg_table()
            maps = list(product(UNIVERSE3, repeat=lat.n))
            for g, u, w_idx in product(maps, maps, _w_index_sets(lat)):
                image = [g[dd[w]] for w in w_idx]
                zeros = {i for i in everything if g[i] == 0}
                units = {i for i in everything if g[i] == 1}
                kernel_holds = {i for i in everything if u[i] == 0} == (
                    zeros if all(x == 0 for x in image) else set())
                cokernel_holds = {i for i in everything if u[i] == 1} == (
                    everything if any(x == 1 for x in image) else units)
                assert kernel_row(ms, g, u, w_idx, ZERO) == kernel_holds, (g, u, w_idx)
                assert cokernel_row(ms, g, u, w_idx, ONE) == cokernel_holds, (g, u, w_idx)
                verdicts[kernel_holds] += 1
                verdicts[cokernel_holds] += 1
    assert all(verdicts.values()), verdicts


def _hom_report_by_loop(lat, mu):
    """Oracle: one row-major scan over both halves at once."""
    g = mu.grades
    join_ok, meet_ok, witness = True, True, None
    for i in range(lat.n):
        for j in range(lat.n):
            if g[lat.join_table[i][j]] != max(g[i], g[j]):
                join_ok = False
                witness = witness or (lat.elements[i], lat.elements[j])
            if g[lat.meet_table[i][j]] != min(g[i], g[j]):
                meet_ok = False
                witness = witness or (lat.elements[i], lat.elements[j])
    return HomReport(join_ok, meet_ok, witness)


def test_hom_report_matches_the_pair_loop():
    """Verdicts and witness of hom_report on every grade map of the catalog
    up to four elements."""
    witnesses = 0
    for lat in lattice_catalog(4):
        for values in product(UNIVERSE3, repeat=lat.n):
            mu = FuzzySet(lat, values)
            report = hom_report(lat, mu)
            assert report == _hom_report_by_loop(lat, mu), values
            witnesses += report.witness is not None
    assert witnesses


def _dd_compatible(ms, mu):
    """chi(e'') = chi(e) for every element: the grade-level double negation
    of thm-5.1, with the involutive 1 - x on grades, whose double is the
    identity."""
    return all(mu(ms.negate(ms.negate(e))) == mu(e) for e in ms.lattice.elements)


def test_grade_ms_hom_check(diamond_fixture, example4_printed):
    """thm-5.1's double-negation stage on the fixtures: the diamond's chi
    is compatible and every extension inherits it; on the printed fixture
    z'' = y but the grades of z and y differ."""
    lat, ms, chi = diamond_fixture
    assert _dd_compatible(ms, chi)
    for w in all_w_subsets(lat):
        assert _dd_compatible(ms, upsilon(ms, chi, w))
    assert run_property("thm-5.1", Instance(ms, (chi,), UNIVERSE3)) is None

    lat4, ms4, chi4 = example4_printed
    assert ms4.negate(ms4.negate("z")) == "y"
    assert not _dd_compatible(ms4, chi4)
