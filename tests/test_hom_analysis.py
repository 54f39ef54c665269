from fractions import Fraction
from itertools import product

from msfuzz import (
    Instance,
    enumerate_fuzzy_filters,
    enumerate_ms_operations,
    run_property,
    upsilon,
)
from msfuzz.extensions import omega_row, upsilon_row
from msfuzz.fuzzy_core import is_filter_row, prime_pair_row
from msfuzz.grades import ONE, ZERO
from msfuzz.hom_analysis import cokernel_row, kernel_row
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


def _level(mu, grade):
    """The elements that mu grades exactly ``grade``: its kernel at 0 and
    its cokernel at 1."""
    return frozenset(e for e, g in zip(mu.carrier.elements, mu.grades) if g == grade)


def test_hom_report_diamond_fixture(diamond_fixture):
    lat, _, chi = diamond_fixture
    assert first_break(lat.meet_table, chi.grades, min) is None
    assert first_break(lat.join_table, chi.grades, max) is None


def test_hom_report_example4(example4_printed):
    lat, _, chi = example4_printed
    assert first_break(lat.meet_table, chi.grades, min) is not None  # not a fuzzy filter
    assert first_break(lat.join_table, chi.grades, max) is not None


def test_fuzzy_filters_are_meet_homs():
    for lat in lattice_catalog(4):
        for chi in enumerate_fuzzy_filters(lat, UNIVERSE3):
            assert first_break(lat.meet_table, chi.grades, min) is None


def test_prime_characteristic_maps_are_join_homs(diamond):
    """The characteristic map of a prime filter, on ranks with ``one=1``:
    ``prime_pair_row`` finds no pair, and it carries joins to maxima."""
    for members in ({"a", "1"}, {"b", "1"}):
        char = tuple(int(e in members) for e in diamond.elements)
        assert prime_pair_row(diamond, char, 1) is None
        assert first_break(diamond.join_table, char, max) is None


def test_kernel_cokernel(diamond_fixture, example4_printed, example4_corrected):
    lat, _, chi = example4_printed
    assert _level(chi, 0) == {"0"}
    assert _level(chi, 1) == frozenset()
    _, _, corrected = example4_corrected
    assert _level(corrected, 1) == {"1"}
    lat, _, chi = diamond_fixture
    assert _level(chi, 1) == {"theta", "1"}
    constant = fuzzy(lat, 1, 1, 1, 1)
    assert _level(constant, 0) == frozenset()
    assert _level(constant, 1) == set(lat.elements)


def test_kernel_characterization_examples(diamond_ms):
    lat = diamond_ms.lattice
    char_top = fuzzy(lat, 0, 0, 0, 1)
    assert _level(upsilon(diamond_ms, char_top, ["0"]), 0) == {"0", "a", "b"}
    assert _level(upsilon(diamond_ms, char_top, ["a"]), 0) == {"0", "a", "b"}
    assert run_property("prop-5.2", Instance(diamond_ms, (char_top,), UNIVERSE3,
                                             w_sets=(("0",), ("a",)))) is None
    # any reference element with positive image grade empties the kernel
    chi = fuzzy(lat, 0, HALF, HALF, 1)
    assert _level(upsilon(diamond_ms, chi, ["a"]), 0) == frozenset()


def test_cokernel_characterization_examples(diamond_fixture):
    lat, ms, chi = diamond_fixture
    assert _level(upsilon(ms, chi, ["1"]), 1) == set(lat.elements)
    assert _level(upsilon(ms, chi, ["0", "xi"]), 1) == _level(chi, 1) == {"theta", "1"}
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


def _breaks_by_loop(lat, g):
    """Oracle: one row-major scan over both halves at once, giving the
    first break of the join half, of the meet half, and of either."""
    join_at = meet_at = first = None
    for i in range(lat.n):
        for j in range(lat.n):
            if g[lat.join_table[i][j]] != max(g[i], g[j]):
                join_at = join_at or (i, j)
            if g[lat.meet_table[i][j]] != min(g[i], g[j]):
                meet_at = meet_at or (i, j)
            first = first or join_at or meet_at
    return join_at, meet_at, first


def test_hom_report_matches_the_pair_loop():
    """Both halves of thm-5.1 by ``first_break`` on every grade map of the
    catalog up to four elements: each half's first break, and the earlier
    of the two, are the pair loop's."""
    witnesses = 0
    for lat in lattice_catalog(4):
        for g in product(UNIVERSE3, repeat=lat.n):
            join_at = first_break(lat.join_table, g, max)
            meet_at = first_break(lat.meet_table, g, min)
            first = min((b for b in (join_at, meet_at) if b is not None), default=None)
            assert (join_at, meet_at, first) == _breaks_by_loop(lat, g), g
            witnesses += first is not None
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
