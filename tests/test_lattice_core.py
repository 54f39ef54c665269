import functools
import random
from itertools import combinations, product

import pytest

from msfuzz import (
    DuplicateElement,
    FiniteLattice,
    MsfuzzError,
    NotALattice,
    NotAPoset,
    NotBounded,
    NotDistributive,
    UnknownElement,
    build_lattice,
    enumerate_filters,
    is_filter,
    principal_filter,
)
from msfuzz.catalog import lattice_catalog
from msfuzz.fuzzy_core import prime_pair_row

from .conftest import boolean_order, chain, chain_order, grid_order, spliced_order

PENTAGON = (["0", "a", "b", "c", "1"],
             [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])

M3 = (["0", "a", "b", "c", "1"],
      [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")])

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
    assert err.value.witness == ("c", "a", "b")
    assert str(err.value) == (
        "distributivity fails at (c, a, b): "
        "c meet (a join b) != (c meet a) join (c meet b)"
    )
    a, b, c = err.value.witness
    lat = build_lattice_by_scan(*PENTAGON, allow_nondistributive=True)
    assert lat.meet(a, lat.join(b, c)) != lat.join(lat.meet(a, b), lat.meet(a, c))


def test_m3_rejected():
    with pytest.raises(NotDistributive) as err:
        build_lattice(*M3)
    assert err.value.witness == ("a", "b", "c")
    assert str(err.value) == (
        "distributivity fails at (a, b, c): "
        "a meet (b join c) != (a meet b) join (a meet c)"
    )
    a, b, c = err.value.witness
    lat = build_lattice_by_scan(*M3, allow_nondistributive=True)
    assert lat.meet(a, lat.join(b, c)) != lat.join(lat.meet(a, b), lat.meet(a, c))


def test_pentagon_distributivity_oracle():
    lat = build_lattice_by_scan(*PENTAGON, allow_nondistributive=True)
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
    with pytest.raises(NotALattice) as err:
        build_lattice(["a", "b"], [])
    assert str(err.value) == "'a' and 'b' have no greatest lower bound"


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


# -- the bitset builder against the dense scan ----------------------------------

def _transitive_closure(n: int, rows: list[list[bool]]) -> None:
    for k in range(n):
        rk = rows[k]
        for i in range(n):
            if rows[i][k]:
                ri = rows[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True


def _covers_from_leq(elements, leq) -> tuple[tuple[str, str], ...]:
    n = len(elements)
    covers = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j]:
                continue
            if any(k != i and k != j and leq[i][k] and leq[k][j] for k in range(n)):
                continue
            covers.append((elements[i], elements[j]))
    return tuple(covers)


def build_lattice_by_scan(elements, covers, *, allow_nondistributive: bool = False) -> FiniteLattice:
    """Reference builder: the dense-table construction the bitset
    builder replaced, kept as the oracle for its tables, covers,
    witnesses and messages.  ``allow_nondistributive`` lets it build N5
    and M3, which ``build_lattice`` rejects, for tests of the laws that
    need distributivity."""
    elements = tuple(elements)
    seen = set()
    for e in elements:
        if e in seen:
            raise DuplicateElement(f"element {e!r} declared twice")
        seen.add(e)
    if not elements:
        raise NotBounded("a bounded lattice needs at least one element")

    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    rows = [[i == j for j in range(n)] for i in range(n)]
    for a, b in covers:
        if a not in index:
            raise UnknownElement(f"cover references undeclared element {a!r}")
        if b not in index:
            raise UnknownElement(f"cover references undeclared element {b!r}")
        rows[index[a]][index[b]] = True
    _transitive_closure(n, rows)

    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] and rows[j][i]:
                raise NotAPoset(
                    f"cycle through {elements[i]!r} and {elements[j]!r}"
                )

    leq = tuple(tuple(r) for r in rows)

    def glb(i, j):
        lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
        for m in lower:
            if all(leq[k][m] for k in lower):
                return m
        return None

    def lub(i, j):
        upper = [k for k in range(n) if leq[i][k] and leq[j][k]]
        for m in upper:
            if all(leq[m][k] for k in upper):
                return m
        return None

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m = glb(i, j)
            if m is None:
                raise NotALattice(
                    f"{elements[i]!r} and {elements[j]!r} have no greatest lower bound"
                )
            u = lub(i, j)
            if u is None:
                raise NotALattice(
                    f"{elements[i]!r} and {elements[j]!r} have no least upper bound"
                )
            meet[i][j] = m
            join[i][j] = u

    bottoms = [i for i in range(n) if all(leq[i][j] for j in range(n))]
    tops = [i for i in range(n) if all(leq[j][i] for j in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        raise NotBounded("no unique bottom/top element")

    distributive = True
    witness = None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if meet[i][join[j][k]] != join[meet[i][j]][meet[i][k]]:
                    distributive = False
                    witness = (elements[i], elements[j], elements[k])
                    break
            if witness:
                break
        if witness:
            break
    if not distributive and not allow_nondistributive:
        raise NotDistributive(witness)

    meet_t = tuple(tuple(r) for r in meet)
    join_t = tuple(tuple(r) for r in join)
    return FiniteLattice(elements, _covers_from_leq(elements, leq), leq,
                         meet_t, join_t, elements[bottoms[0]],
                         elements[tops[0]])



def build_outcome(build, elements, covers):
    """Everything a build exposes: the lattice's tables, or the error."""
    try:
        lat = build(elements, covers)
    except MsfuzzError as exc:
        return type(exc), str(exc)
    return (lat.elements, lat.covers, lat.leq_table, lat.meet_table,
            lat.join_table, lat.bottom, lat.top)


def random_relations(count, seed):
    """Random cover relations on at most 7 shuffled elements: empty sets, cycles,
    non-lattices, and (bounded by extra edges half the time) lattices."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 7)
        names = [f"e{i}" for i in range(n)]
        p = rng.uniform(0.15, 0.6)
        covers = [(names[a], names[b])
                  for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        if rng.random() < 0.5:
            covers += [(names[0], x) for x in names[1:]]
            covers += [(x, names[-1]) for x in names[:-1]]
        if covers and rng.random() < 0.1:
            a, b = rng.choice(covers)
            covers.append((b, a))
        rng.shuffle(names)
        rng.shuffle(covers)
        yield names, covers


def spliced_inputs():
    """N5 and M3 stacked into 20-70-element chains, grids and Boolean
    lattices, plus the unspliced bases, all with shuffled element order."""
    bases = [chain_order(16), grid_order(4, 5), boolean_order(4),
             chain_order(60), grid_order(6, 8), boolean_order(5)]
    for seed, base in enumerate(bases):
        els = list(base[0])
        random.Random(seed).shuffle(els)
        yield els, base[1]
        for splice in ("n5", "m3"):
            yield spliced_order(base, splice, 6, seed)


def test_bitset_builder_matches_dense_scan():
    kinds = set()
    inputs = [(["a", "b", "a"], []), (["a"], [("a", "zz")]), (["a"], [("zz", "a")]),
              (["0", "a", "1"], [("a", "a"), ("0", "a"), ("0", "1"), ("a", "1")])]
    inputs += random_relations(3000, seed=8)
    inputs += [(list(lat.elements), list(lat.covers)) for lat in lattice_catalog(8)]
    inputs += list(spliced_inputs())
    for elements, covers in inputs:
        want = build_outcome(build_lattice_by_scan, elements, covers)
        assert build_outcome(build_lattice, elements, covers) == want, (elements, covers)
        kinds.add(want[0] if len(want) == 2 else FiniteLattice)
    assert kinds == {DuplicateElement, UnknownElement, NotBounded, NotAPoset,
                     NotALattice, NotDistributive, FiniteLattice}


# -- filters ----------------------------------------------------------------

def test_principal_filter(diamond):
    assert principal_filter(diamond, "1").members == {"1"}
    assert principal_filter(diamond, "0").members == set(diamond.elements)
    assert principal_filter(diamond, "a").members == {"a", "1"}
    with pytest.raises(UnknownElement):
        principal_filter(diamond, "zz")


def generated_filter(lat, generators):
    """The filter a nonempty set generates: the principal filter of its meet."""
    return principal_filter(lat, functools.reduce(lat.meet, generators))


def test_generated_filter(diamond):
    assert generated_filter(diamond, ["a"]).members == {"a", "1"}
    assert generated_filter(diamond, ["a", "b"]).members == {"0", "a", "b", "1"}
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
    """A proper filter is prime exactly when ``prime_pair_row`` finds no
    pair of step filters on the ranks of its characteristic map
    (``one=1``); {1} is refuted by the principal filters of a and b."""
    def char(members):
        return tuple(int(e in members) for e in diamond.elements)

    assert prime_pair_row(diamond, char({"a", "1"}), 1) is None
    assert set(prime_pair_row(diamond, char({"1"}), 1)) == {char({"a", "1"}), char({"b", "1"})}


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


# -- closed forms at scale ------------------------------------------------------

def test_chain_200_closed_form():
    lat = chain(200)
    r = range(200)
    assert lat.leq_table == tuple(tuple(i <= j for j in r) for i in r)
    assert lat.meet_table == tuple(tuple(min(i, j) for j in r) for i in r)
    assert lat.join_table == tuple(tuple(max(i, j) for j in r) for i in r)
    assert lat.covers == tuple((f"c{i}", f"c{i + 1}") for i in range(199))
    assert (lat.bottom, lat.top) == ("c0", "c199")


def test_boolean_2_8_closed_form():
    lat = build_lattice(*boolean_order(8))
    r = range(256)
    assert lat.leq_table == tuple(tuple(i & j == i for j in r) for i in r)
    assert lat.meet_table == tuple(tuple(i & j for j in r) for i in r)
    assert lat.join_table == tuple(tuple(i | j for j in r) for i in r)
    assert lat.covers == tuple((f"s{i}", f"s{j}") for i in r for j in r
                               if i & j == i and bin(i ^ j).count("1") == 1)
    assert (lat.bottom, lat.top) == ("s0", "s255")


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
