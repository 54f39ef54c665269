import hashlib
import json
import random
from collections import Counter
from itertools import product

import pytest

from msfuzz import (
    EmptyW,
    MSAlgebra,
    NotDistributive,
    SizeCapExceeded,
    UnknownElement,
    build_lattice,
    check_ms_axioms,
    enumerate_filters,
    enumerate_ms_operations,
    extended_filter_crisp,
    is_filter,
    principal_filter,
    verify_derived_identities,
)
from msfuzz.catalog import lattice_catalog

from .conftest import chain
from .test_lattice_core import (
    EXAMPLE4_COVERS,
    EXAMPLE4_ELS,
    M3,
    PENTAGON,
    build_lattice_by_scan,
)

EXAMPLE4_NEG = {"0": "1", "t": "u", "x": "t", "y": "u", "z": "u", "u": "y", "1": "0"}


@pytest.fixture
def example4_lat():
    return build_lattice(EXAMPLE4_ELS, EXAMPLE4_COVERS)


def test_diamond_de_morgan_passes(diamond):
    report = check_ms_axioms(diamond, {"0": "1", "a": "a", "b": "b", "1": "0"})
    assert report.ok


def test_example4_table_fails(example4_lat):
    report = check_ms_axioms(example4_lat, EXAMPLE4_NEG)
    assert not report.ok
    ddn = report.find("double-negation-above")
    assert not ddn.passed
    assert ddn.witness == {"element": "z", "double_negation": "y"}
    dm = report.find("meet-de-morgan")
    assert not dm.passed
    assert dm.witness == {"pair": ["x", "z"], "lhs": "t", "rhs": "u"}
    assert report.find("unit-negation").passed


def test_three_chain_table_passes():
    lat = chain(3)
    report = check_ms_axioms(lat, {"c0": "c2", "c1": "c0", "c2": "c0"})
    assert report.ok


def test_axioms_missing_entry(diamond):
    with pytest.raises(UnknownElement):
        check_ms_axioms(diamond, {"0": "1"})
    with pytest.raises(UnknownElement):
        check_ms_axioms(diamond, {"0": "1", "a": "zz", "b": "b", "1": "0"})


def test_validity_flag(diamond, example4_lat):
    assert MSAlgebra(diamond, {"0": "1", "a": "a", "b": "b", "1": "0"}).is_valid
    assert not MSAlgebra(example4_lat, EXAMPLE4_NEG).is_valid


def test_subvariety_tags(diamond, three_chain_stone):
    de_morgan = MSAlgebra(diamond, {"0": "1", "a": "a", "b": "b", "1": "0"})
    assert de_morgan.is_de_morgan and not de_morgan.is_stone
    _, stone, _ = three_chain_stone
    assert stone.is_stone and not stone.is_de_morgan


def test_derived_identities(diamond_ms):
    assert verify_derived_identities(diamond_ms).ok
    two = chain(2)
    ms = MSAlgebra(two, {"c0": "c1", "c1": "c0"})
    report = verify_derived_identities(ms)
    assert report.ok
    assert report.find("zero-negation").passed


def test_derived_identity_witnesses(diamond):
    """On an invalid table each join identity reports its first failing
    pair in row-major element order."""
    report = verify_derived_identities(
        MSAlgebra(diamond, {"0": "1", "a": "0", "b": "0", "1": "a"}))
    assert report.find("join-de-morgan").witness == {"pair": ["a", "b"]}
    assert report.find("double-negation-join").witness == {"pair": ["0", "1"]}


def test_derived_identities_all_enumerated():
    for lat in lattice_catalog(4):
        for neg in enumerate_ms_operations(lat):
            ms = MSAlgebra(lat, neg)
            assert verify_derived_identities(ms).ok
            # antitone, and double negation is a closure
            for a in lat.elements:
                dd = ms.negate(ms.negate(a))
                assert lat.leq(a, dd)
                assert ms.negate(ms.negate(dd)) == dd
                for b in lat.elements:
                    if lat.leq(a, b):
                        assert lat.leq(ms.negate(b), ms.negate(a))


def test_double_neg(diamond_ms, example4_lat):
    """``dneg_table`` is negation applied twice, on element indices."""
    def double_neg(ms, e):
        return ms.lattice.elements[ms.dneg_table()[ms.lattice.element_index(e)]]

    assert double_neg(diamond_ms, "a") == "a"
    assert double_neg(diamond_ms, "1") == "1"
    ms4 = MSAlgebra(example4_lat, EXAMPLE4_NEG)
    assert double_neg(ms4, "y") == ms4.negate(ms4.negate("y")) == "y"
    assert double_neg(ms4, "z") == ms4.negate(ms4.negate("z")) == "y"
    with pytest.raises(UnknownElement):
        diamond_ms.negate("zz")


# -- crisp extended filters ---------------------------------------------------

def test_extended_filter_identity_w(diamond_ms):
    lat = diamond_ms.lattice
    for e in lat.elements:
        filt = principal_filter(lat, e)
        assert extended_filter_crisp(diamond_ms, filt, ["0"]).members == filt.members


def test_extended_filter_diamond(diamond_ms):
    lat = diamond_ms.lattice
    top = principal_filter(lat, "1")
    assert extended_filter_crisp(diamond_ms, top, ["a"]).members == {"b", "1"}
    assert extended_filter_crisp(diamond_ms, top, ["a", "b"]).members == {"1"}
    with pytest.raises(EmptyW):
        extended_filter_crisp(diamond_ms, top, [])
    with pytest.raises(UnknownElement):
        extended_filter_crisp(diamond_ms, top, ["zz"])


def all_w_subsets(lat):
    els = lat.elements
    for mask in range(1, 1 << len(els)):
        yield [els[i] for i in range(len(els)) if mask >> i & 1]


def test_extended_filter_laws():
    for lat in lattice_catalog(4):
        for neg in enumerate_ms_operations(lat):
            ms = MSAlgebra(lat, neg)
            filters = enumerate_filters(lat)
            for filt in filters:
                for w in all_w_subsets(lat):
                    ext = extended_filter_crisp(ms, filt, w)
                    assert is_filter(lat, ext.members).ok
                    assert filt.members <= ext.members
                    singletons = [
                        extended_filter_crisp(ms, filt, [x]).members for x in w
                    ]
                    assert ext.members == frozenset.intersection(*map(frozenset, singletons))
            # monotone in the filter, antitone in W
            for f1 in filters:
                for f2 in filters:
                    if f1.members <= f2.members:
                        for w in all_w_subsets(lat):
                            assert (
                                extended_filter_crisp(ms, f1, w).members
                                <= extended_filter_crisp(ms, f2, w).members
                            )
            for filt in filters:
                for w in all_w_subsets(lat):
                    for z in all_w_subsets(lat):
                        if set(z) <= set(w):
                            assert (
                                extended_filter_crisp(ms, filt, w).members
                                <= extended_filter_crisp(ms, filt, z).members
                            )


# -- operation enumeration ----------------------------------------------------

def brute_ms_operations(lat):
    """Oracle: full scan over every unary table."""
    out = []
    for images in product(lat.elements, repeat=lat.n):
        table = dict(zip(lat.elements, images))
        if check_ms_axioms(lat, table).ok:
            out.append(table)
    return out


def test_two_chain_operation_forced():
    lat = chain(2)
    assert enumerate_ms_operations(lat) == [{"c0": "c1", "c1": "c0"}]


def test_diamond_operations(diamond):
    ops = enumerate_ms_operations(diamond)
    assert {"0": "1", "a": "a", "b": "b", "1": "0"} in ops


@pytest.mark.parametrize("lat_index", range(8))
def test_enumeration_matches_brute_force(lat_index):
    """Every catalog lattice up to n = 5, in its own element order and in
    ten shuffled ones: the tables read off the join-irreducibles are the
    brute-force ones, in the same order, whatever order the irreducibles
    come in."""
    lat = lattice_catalog(5)[lat_index]
    rng = random.Random(lat_index)
    orders = [list(lat.elements)] + [rng.sample(lat.elements, lat.n) for _ in range(10)]
    for order in orders:
        shuffled = build_lattice(order, lat.covers)
        got = enumerate_ms_operations(shuffled)
        assert got == brute_ms_operations(shuffled), order  # same order too


def test_nondistributive_enumeration_refused():
    """On N5 and M3, built by the reference builder since ``build_lattice``
    rejects both, the duality behind the enumeration fails, so it refuses
    them."""
    for order in (PENTAGON, M3):
        lat = build_lattice_by_scan(*order, allow_nondistributive=True)
        with pytest.raises(NotDistributive):
            enumerate_ms_operations(lat)


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        enumerate_ms_operations(chain(9))


# sha256 of the JSON list of [elements, index tuple of each table] over
# lattice_catalog(8), recorded from a search over the unary tables that
# pruned by antitonicity and checked each leaf with check_ms_axioms
PINNED_TABLES_SHA256 = "a0564aabc8d134f7210732e3b5133013b37c45720afcc6e2b3838f13dafeccbb"


def test_pinned_tables_up_to_eight():
    """The tables of every catalog lattice up to n = 8, in order, are the
    pinned ones: 1, 1, 2, 6, 11, 33, 79 and 214 for n = 1 to 8."""
    counts = Counter()
    record = []
    for lat in lattice_catalog(8):
        tables = [[lat.element_index(t[e]) for e in lat.elements]
                  for t in enumerate_ms_operations(lat)]
        counts[lat.n] += len(tables)
        record.append([list(lat.elements), tables])
    assert [counts[n] for n in range(1, 9)] == [1, 1, 2, 6, 11, 33, 79, 214]
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == PINNED_TABLES_SHA256
