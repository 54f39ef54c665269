from itertools import combinations, product

import pytest

from msfuzz import (
    DuplicateElement,
    EmptyGeneratingSet,
    NotALattice,
    NotAPoset,
    NotBounded,
    NotDistributive,
    UnknownElement,
    build_lattice,
    enumerate_filters,
    generated_filter,
    is_filter,
    is_prime_filter,
    principal_filter,
)
from msfuzz.verifier import lattice_catalog

from .conftest import chain

PENTAGON = (["0", "a", "b", "c", "1"],
             [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])

EXAMPLE4_ELS = ["0", "t", "x", "y", "z", "u", "1"]
EXAMPLE4_COVERS = [("0", "t"), ("t", "x"), ("t", "y"), ("x", "z"), ("y", "z"),
                   ("z", "u"), ("u", "1")]


def brute_filters(lat):
    """Oracle: scan every subset with is_filter."""
    out = set()
    for r in range(1, lat.n + 1):
        for combo in combinations(lat.elements, r):
            if is_filter(lat, combo).ok:
                out.add(frozenset(combo))
    return out


# -- construction ------------------------------------------------------------

def test_two_chain():
    lat = build_lattice(["0", "1"], [("0", "1")])
    assert lat.bottom == "0" and lat.top == "1"
    assert lat.leq("0", "1") and not lat.leq("1", "0")


def test_diamond_tables(diamond):
    assert diamond.meet("a", "b") == "0"
    assert diamond.join("a", "b") == "1"
    assert diamond.bottom == "0" and diamond.top == "1"


def test_example4_lattice():
    lat = build_lattice(EXAMPLE4_ELS, EXAMPLE4_COVERS)
    assert lat.join("x", "y") == "z"
    assert lat.meet("x", "y") == "t"


def test_pentagon_rejected():
    with pytest.raises(NotDistributive) as err:
        build_lattice(*PENTAGON)
    a, b, c = err.value.witness
    lat = build_lattice(*PENTAGON, allow_nondistributive=True)
    assert lat.meet(a, lat.join(b, c)) != lat.join(lat.meet(a, b), lat.meet(a, c))
    assert not lat.distributive


def test_pentagon_distributivity_oracle():
    lat = build_lattice(*PENTAGON, allow_nondistributive=True)
    bad = [
        (a, b, c)
        for a, b, c in product(lat.elements, repeat=3)
        if lat.meet(a, lat.join(b, c)) != lat.join(lat.meet(a, b), lat.meet(a, c))
    ]
    assert bad, "pentagon must fail a distributivity scan"


def test_cycle_rejected():
    with pytest.raises(NotAPoset):
        build_lattice(["a", "b"], [("a", "b"), ("b", "a")])


def test_antichain_rejected():
    with pytest.raises(NotALattice):
        build_lattice(["a", "b"], [])


def test_empty_rejected():
    with pytest.raises(NotBounded):
        build_lattice([], [])


def test_duplicate_and_unknown():
    with pytest.raises(DuplicateElement):
        build_lattice(["a", "a"], [])
    with pytest.raises(UnknownElement):
        build_lattice(["a"], [("a", "zz")])


def test_redundant_cover_normalized(diamond):
    withextra = build_lattice(
        ["0", "a", "b", "1"],
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1"), ("0", "1")],
    )
    assert withextra.covers == diamond.covers
    assert withextra == diamond


# -- filters ----------------------------------------------------------------

def test_principal_filter(diamond):
    assert principal_filter(diamond, "1").members == {"1"}
    assert principal_filter(diamond, "0").members == set(diamond.elements)
    assert principal_filter(diamond, "a").members == {"a", "1"}
    with pytest.raises(UnknownElement):
        principal_filter(diamond, "zz")


def test_generated_filter(diamond):
    assert generated_filter(diamond, ["a"]).members == {"a", "1"}
    assert generated_filter(diamond, ["a", "b"]).members == {"0", "a", "b", "1"}
    with pytest.raises(EmptyGeneratingSet):
        generated_filter(diamond, [])
    with pytest.raises(UnknownElement):
        generated_filter(diamond, ["a", "zz"])


def filter_by_fixpoint(lat, generators):
    """Oracle: up-closure of the meet-closure computed by fixpoint."""
    closure = set(generators)
    changed = True
    while changed:
        changed = False
        for p, q in combinations(sorted(closure), 2):
            m = lat.meet(p, q)
            if m not in closure:
                closure.add(m)
                changed = True
    return {e for c in closure for e in lat.up_set(c)}


def test_generated_filter_example4():
    lat = build_lattice(EXAMPLE4_ELS, EXAMPLE4_COVERS)
    got = generated_filter(lat, ["x", "y"]).members
    assert got == filter_by_fixpoint(lat, ["x", "y"]) == {"t", "x", "y", "z", "u", "1"}


def test_generated_filter_matches_fixpoint_across_catalog():
    for lat in lattice_catalog(5):
        for r in range(1, lat.n + 1):
            for gens in combinations(lat.elements, r):
                assert generated_filter(lat, gens).members == \
                    filter_by_fixpoint(lat, gens)


def test_is_filter(diamond):
    assert is_filter(diamond, {"1"}).ok
    assert is_filter(diamond, {"a", "1"}).ok
    verdict = is_filter(diamond, {"a", "b", "1"})
    assert not verdict.ok
    assert set(verdict.witness) == {"a", "b"}
    assert verdict.reason == "not meet-closed"
    assert not is_filter(diamond, set()).ok
    assert not is_filter(diamond, {"a"}).ok  # not up-closed


def test_is_prime_filter(diamond):
    assert is_prime_filter(diamond, {"a", "1"}).ok
    verdict = is_prime_filter(diamond, {"1"})
    assert not verdict.ok and set(verdict.witness) == {"a", "b"}
    whole = is_prime_filter(diamond, set(diamond.elements))
    assert not whole.ok and whole.reason == "not proper"


def test_enumerate_filters_small(diamond):
    two = build_lattice(["0", "1"], [("0", "1")])
    assert [sorted(f.members) for f in enumerate_filters(two)] == [["1"], ["0", "1"]]
    got = [f.members for f in enumerate_filters(diamond)]
    assert got[0] == {"1"} and got[-1] == set(diamond.elements)
    assert {frozenset(m) for m in got} == {
        frozenset({"1"}), frozenset({"a", "1"}), frozenset({"b", "1"}),
        frozenset({"0", "a", "b", "1"}),
    }
    three = chain(3)
    assert len(enumerate_filters(three)) == 3


@pytest.mark.parametrize("lat_index", range(5))
def test_enumerate_filters_against_subset_scan(lat_index):
    lat = lattice_catalog(4)[lat_index]
    assert {f.members for f in enumerate_filters(lat)} == brute_filters(lat)


def test_enumerate_filters_subset_scan_example4():
    lat = build_lattice(EXAMPLE4_ELS, EXAMPLE4_COVERS)
    assert {f.members for f in enumerate_filters(lat)} == brute_filters(lat)


def test_filters_closed_under_intersection(diamond):
    filters = {f.members for f in enumerate_filters(diamond)}
    for f1 in filters:
        for f2 in filters:
            assert f1 & f2 in filters
    smallest = {"1"}
    for f in filters:
        assert smallest <= f <= set(diamond.elements)


def test_principal_equals_generated_singleton():
    for lat in lattice_catalog(5):
        for e in lat.elements:
            assert principal_filter(lat, e).members == \
                generated_filter(lat, [e]).members


# -- order algebra invariants -------------------------------------------------

def test_lattice_identities():
    for lat in lattice_catalog(5):
        for a in lat.elements:
            for b in lat.elements:
                assert lat.meet(a, b) == lat.meet(b, a)
                assert lat.join(a, b) == lat.join(b, a)
                assert lat.meet(a, lat.join(a, b)) == a
                assert lat.leq(a, b) == (lat.meet(a, b) == a)
                assert lat.leq(a, b) == (lat.join(a, b) == b)
                assert lat.leq(lat.bottom, a) and lat.leq(a, lat.top)
