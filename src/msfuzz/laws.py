"""The laws of the paper, each registered with ``scan`` as a check, a row
predicate or a pair predicate.  Importing this module fills the registry,
in the order of the report rows."""

from __future__ import annotations

from typing import Any

from .errors import NotProper
from .extensions import dense_row, fixed_witness_sets, omega_row, upsilon_row
from .fuzzy_core import FuzzySet, check_pool_size, is_filter_row, prime_pair_row
from .hom_analysis import cokernel_row, kernel_row
from .lattice_core import FiniteLattice, enumerate_filters, first_break, is_filter
from .ms_algebra import MSAlgebra, extended_filter_crisp, verify_derived_identities
from .scan import (
    Instance, Witness, _by_base, _by_grades, _by_join, _by_omg, _fail, _law, _listed,
    _listed_w, _pair_law, _Row, _row_law, _scan, _singletons, _w_sets,
)


def _join_hom(ms: MSAlgebra, grades) -> bool:
    return first_break(ms.lattice.join_table, grades, max) is None


_DERIVED_IDENTITY_DETAILS = {
    "join-de-morgan": "negation of join broke",
    "double-negation-join": "double negation over join broke",
    "triple-negation": "triple negation broke",
    "zero-negation": "bottom does not negate to top",
}


@_law(
    "prop-2.1",
    "derived identities: negation of joins, double negation over joins, "
    "triple negation collapse, bottom negates to top",
    requires_filters=False,
)
def _check_prop_2_1(inst: Instance):
    failed = verify_derived_identities(inst.ms).failed()
    if not failed:
        return None
    first = failed[0]
    return _fail("prop-2.1", inst, (_DERIVED_IDENTITY_DETAILS[first.check_id],
                                    dict(first.witness or {})))


def _crisp_scan(pid: str, inst: Instance, test) -> Witness | None:
    """The first (filter, W) on which ``test(lattice, filter, extension)``
    fails: filters in ``enumerate_filters`` order, then W in ``_w_sets``
    order, on the first W of each meet m of its double-negation image D.
    In a distributive lattice, and ``build_lattice`` builds no other, x ∨ d
    lies in a filter F for every d in D exactly when x ∨ m does (F is
    up-closed and meet-closed, and the meet of the x ∨ d is x ∨ m), so the
    crisp extension reads W only through m."""
    ms = inst.ms
    lat, ws = ms.lattice, {}
    for img in _w_sets(inst):
        ws.setdefault(img.meet, img.idx)
    for filt in enumerate_filters(lat):
        for w_idx in ws.values():
            w = [lat.elements[v] for v in w_idx]
            found = test(lat, filt, extended_filter_crisp(ms, filt, w))
            if found is not None:
                return _fail(pid, inst, found, w_idx=w_idx)
    return None


def _filter_containing_source(lat: FiniteLattice, filt, ext):
    if not is_filter(lat, ext.members).ok or not filt.members <= ext.members:
        return ("crisp extension is not a filter containing the source",
                {"filter": sorted(filt.members), "result": sorted(ext.members)})


@_law(
    "thm-2.3-extended-filter",
    "the crisp extension of a filter is a filter containing it",
    requires_filters=False,
)
def _check_thm_2_3(inst: Instance):
    return _crisp_scan("thm-2.3-extended-filter", inst, _filter_containing_source)


@_row_law("thm-3.1-filter",
          "the extension of a fuzzy filter is a fuzzy filter containing it",
          key=_by_base)
def _thm_3_1_filter(r: _Row):
    if any(u < g for u, g in zip(r.ups, r.grades)):
        return "extension lost ground"
    if not is_filter_row(r.lat, r.ups, r.one):
        return "extension is not a fuzzy filter", {"upsilon": list(r.fuzzy(r.ups).grades)}


def _thm_3_1_prime(r: _Row):
    if len(set(r.ups)) == 1:
        return None  # not a proper filter
    if not is_filter_row(r.lat, r.ups, r.one):
        raise NotProper("primality is defined for fuzzy filters only")
    pair = prime_pair_row(r.lat, r.ups, r.one)
    if pair is not None:
        phi, psi = map(r.fuzzy, pair)
        return ("extension is a non-prime fuzzy filter",
                {"phi": phi, "psi": psi, "upsilon": r.fuzzy(r.ups)})


_PRIME_STAGE = (_thm_3_1_prime, _w_sets, None, _by_base)


@_law("thm-3.1-prime", "the extension of a fuzzy filter is a prime fuzzy filter "
      "(known-refutable; kept as a search target)", search_target=True)
def _check_thm_3_1_prime(inst: Instance):
    # primality is relative to the pool of fuzzy filters over the instance's
    # grades, 0 and 1: over its cap the hypothesis is unmet, before any row
    check_pool_size(inst.ms.lattice, inst._ranks.grades)
    return _scan("thm-3.1-prime", inst, _PRIME_STAGE)


def _base_subsets(r: _Row):
    """The first z ⊆ W in mask order of each base grade, all ``upsilon_row``
    reads of z: the singleton of the first w in W of that image grade."""
    firsts: dict[int, tuple[int]] = {}
    for v in r.w_idx:
        firsts.setdefault(r.grades[r.dd[v]], (v,))
    return firsts.values()


@_row_law("lemma-3.2.1", "monotone in the reference subset", key=_by_grades)
def _lemma_3_2_1(r: _Row):
    for z in _base_subsets(r):
        if any(a > b for a, b in zip(upsilon_row(r.ms, r.grades, z), r.ups)):
            return ("extension shrank when W grew",
                    {"z": [r.lat.elements[i] for i in z]})


@_pair_law("lemma-3.2.2", "monotone in the fuzzy filter",
           when=lambda g1, g2: all(a <= b for a, b in zip(g1, g2)))
def _lemma_3_2_2(r1: _Row, r2: _Row):
    """Settled where the rows hold b = max chi(D) and ups = max(chi, b):
    chi1 <= chi2 gives b1 <= b2 over one W, so max(chi1, b1) <= max(chi2, b2)."""
    if any(a > b for a, b in zip(r1.ups, r2.ups)):
        return "extension not monotone in the filter"


@_row_law("lemma-3.2.3", "no growth at points above the whole double-negation image",
          key=_by_join)
def _lemma_3_2_3(r: _Row):
    leq = r.lat.leq_table
    for t in range(r.lat.n):
        if leq[r.join][t] and r.ups[t] != r.grades[t]:
            return "extension moved a dominating point", {"theta": r.lat.elements[t]}


@_row_law("lemma-3.2.4",
          "for injective filters, an unmoved point dominates the image",
          when=lambda ms, grades: len(set(grades)) == ms.lattice.n, key=_by_join)
def _lemma_3_2_4(r: _Row):
    leq = r.lat.leq_table
    for t in range(r.lat.n):
        if r.ups[t] == r.grades[t] and not leq[r.join][t]:
            return "unmoved point fails to dominate", {"theta": r.lat.elements[t]}


@_row_law("lemma-3.2.5",
          "a reference element double-negating to the top forces the constant one",
          key=_by_join)
def _lemma_3_2_5(r: _Row):
    if r.top and any(g != r.one for g in r.ups):
        return "extension missed the constant one"


@_row_law("lemma-3.2.6",
          "extension over the whole carrier, or over the top alone, is constant one",
          ws=_listed_w(lambda lat: [lat.elements, (lat.top,)]))
def _lemma_3_2_6(r: _Row):
    if any(g != r.one for g in r.ups):
        return "extension over a unit-reaching subset is not one"


@_row_law("lemma-3.2.7", "a point of grade one comes from the filter or from the image",
          key=_by_base)
def _lemma_3_2_7(r: _Row):
    if r.base == r.one:
        return None  # the image supplies grade one
    for t in range(r.lat.n):
        if r.ups[t] == r.one and r.grades[t] != r.one:
            return "grade one appeared from nowhere", {"theta": r.lat.elements[t]}


@_pair_law("prop-3.3.1", "extension of a union is the join of the extensions")
def _prop_3_3_1(r1: _Row, r2: _Row):
    """Settled where the rows hold b = max chi(D) and ups = max(chi, b): a
    maximum over D commutes with a pointwise one, so the union's base is
    max(b1, b2), and both sides are max(chi1, chi2, b1, b2) pointwise."""
    union = tuple(map(max, r1.grades, r2.grades))
    if tuple(map(max, r1.ups, r2.ups)) != upsilon_row(r1.ms, union, r1.w_idx):
        return "union and extension do not commute"


@_row_law("prop-3.3.2", "the extension maps meets to minima", key=_by_base)
def _prop_3_3_2(r: _Row):
    pair = first_break(r.lat.meet_table, r.ups, min)
    if pair is not None:
        return "extension broke the meet equality", {"pair": [r.lat.elements[k] for k in pair]}


@_row_law("def-3.4-consistency",
          "both fixedness routes agree, and the canonical subsets never move "
          "a fuzzy filter", key=_by_base)
def _fixedness_routes_agree(r: _Row):
    if (r.ups == r.grades) != (r.base <= min(r.grades)):
        return "fixedness routes disagree"


def _canonical_w_sets(inst: Instance, chi: FuzzySet):
    lat = inst.ms.lattice
    return _listed(inst.ms, [
        sorted(c.members, key=lat.element_index)
        for c in fixed_witness_sets(inst.ms, chi) if c.members
    ])


@_row_law("def-3.4-consistency", ws=_canonical_w_sets)
def _canonical_stays_fixed(r: _Row):
    if r.ups != r.grades:
        return "a canonical subset moved the filter"


@_row_law("prop-3.6", "fixedness is inherited by nonempty subsets of W", key=_by_grades)
def _prop_3_6(r: _Row):
    if r.ups != r.grades:
        return None
    for z in _base_subsets(r):
        if upsilon_row(r.ms, r.grades, z) != r.grades:
            return ("fixedness not inherited by a subset",
                    {"z": [r.lat.elements[i] for i in z]})


@_pair_law("prop-3.7", "a union of fixed filters is fixed")
def _prop_3_7(r1: _Row, r2: _Row):
    """Settled where the rows hold b = max chi(D) and ups = max(chi, b): a
    fixed row has b <= min chi, so the union's base max(b1, b2) is at most
    min max(chi1, chi2), and the union is fixed."""
    if r1.ups == r1.grades and r2.ups == r2.grades:
        union = tuple(map(max, r1.grades, r2.grades))
        if upsilon_row(r1.ms, union, r1.w_idx) != union:
            return "union of fixed filters moved"


@_row_law("thm-3.8", "singleton extensions evaluate to a two-way maximum",
          ws=_singletons, key=_by_base)
def _thm_3_8(r: _Row):
    image_grade = r.grades[r.dd[r.w_idx[0]]]
    if r.ups != tuple(max(g, image_grade) for g in r.grades):
        return "singleton extension is not the two-way maximum"


@_row_law("cor-3.9",
          "a singleton extension value differing from the image grade is the "
          "original grade",
          ws=_singletons, key=_by_base)
def _cor_3_9(r: _Row):
    image_grade = r.grades[r.dd[r.w_idx[0]]]
    for t in range(r.lat.n):
        if r.ups[t] != image_grade and r.ups[t] != r.grades[t]:
            return ("dichotomy of singleton extension broke",
                    {"theta": r.lat.elements[t]})


@_row_law("cor-3.10",
          "a singleton extension at its own reference point is the image grade",
          ws=_singletons)
def _cor_3_10(r: _Row):
    w_i = r.w_idx[0]
    if r.ups[w_i] != r.grades[r.dd[w_i]]:
        return "extension at the reference point is off"


@_row_law("def-4.1-consistency",
          "the strong extension fixes the bottom singleton, grows the source, "
          "and keeps the unit",
          ws=_listed_w(lambda lat: [(lat.bottom,)]))
def _omega_keeps_bottom_fixed(r: _Row):
    if omega_row(r.ms, r.grades, r.w_idx) != r.grades:
        return "strong extension over the bottom moved the filter"


@_row_law("def-4.1-consistency", key=_by_omg)
def _omega_grows_and_keeps_unit(r: _Row):
    if any(o < g for o, g in zip(r.omg, r.grades)):
        return "strong extension lost ground"
    if r.omg[r.lat.element_index(r.lat.top)] != r.one:
        return "strong extension lost the unit"


@_row_law("upsilon-subset-omega", "the extension sits inside the strong extension",
          key=_by_omg)
def _upsilon_subset_omega(r: _Row):
    if any(u > o for u, o in zip(r.ups, r.omg)):
        return "extension escaped the strong extension"


@_row_law("thm-4.3",
          "the strong extension of a fuzzy filter is a fuzzy filter "
          "(refutable for reference subsets with two or more elements: separate "
          "maxima need not commute with the meet)",
          key=_by_omg)
def _thm_4_3(r: _Row):
    if not is_filter_row(r.lat, r.omg, r.one):
        return "strong extension is not a fuzzy filter", {"omega": r.fuzzy(r.omg)}


@_row_law("remark-4.4",
          "for join-homomorphic filters the two extensions coincide",
          when=_join_hom, key=_by_omg)
def _remark_4_4(r: _Row):
    if r.ups != r.omg:
        return "extensions split despite join-homomorphism"


@_row_law("thm-4.7", "the extension evaluates through any dense element of the image",
          key=_by_base)
def _thm_4_7(r: _Row):
    d = min(dense_row(r.grades, {r.dd[v] for v in r.w_idx})[1])  # dense elements share a grade
    for t in range(r.lat.n):
        if r.ups[t] != max(r.grades[t], r.grades[d]):
            return ("dense-element evaluation is off",
                    {"dense": r.lat.elements[d], "theta": r.lat.elements[t]})


@_row_law("thm-4.8",
          "the strong extension hits a join exactly when that join is dense "
          "among the candidate joins", settled=True)
def _thm_4_8(r: _Row):
    """Fails at theta exactly when omg(theta) is not the top grade of the
    joins theta ∨ d, d in D: when the two differ, a join of the top grade
    has g == top but not g == hit.  So the law holds on every row of a chi
    whose omega column is omega by definition, and settles that chi."""
    lat, grades = r.lat, r.grades
    image = [r.dd[v] for v in r.w_idx]
    for t, row in enumerate(lat.join_table):
        joins = [grades[row[d]] for d in image]
        top, hit = max(joins), r.omg[t]
        if hit == top:
            continue  # then each join's grade is the hit exactly when it is the top
        for v, g in zip(r.w_idx, joins):
            # the join is dense among the candidate joins when its grade is the top one
            if (g == hit) != (g == top):
                return ("dense reading of the strong extension broke",
                        {"theta": lat.elements[t], "w": lat.elements[v]})


@_row_law("thm-5.1",
          "join-homomorphic filters extend to lattice homomorphisms, and the "
          "grade-level double negation is inherited",
          when=_join_hom, key=_by_base)
def _ups_is_lattice_hom(r: _Row):
    if not (_join_hom(r.ms, r.ups) and first_break(r.lat.meet_table, r.ups, min) is None):
        return "extension is not a lattice homomorphism"


def _dd_compatible(ms: MSAlgebra, grades) -> bool:
    dd = ms.dneg_table()
    return all(grades[dd[i]] == grades[i] for i in range(ms.lattice.n))


@_row_law("thm-5.1", when=_dd_compatible, key=_by_base)
def _ups_dd_compatible(r: _Row):
    if any(r.ups[r.dd[i]] != r.ups[i] for i in range(r.lat.n)):
        return "double-negation compatibility not inherited"


@_row_law("prop-5.2",
          "kernel of the extension: killed by the source and the whole image "
          "killed", key=_by_base)
def _prop_5_2(r: _Row):
    if not kernel_row(r.ms, r.grades, r.ups, r.w_idx, 0):
        return "kernel characterization broke"


@_row_law("prop-5.3",
          "cokernel of the extension: unit grade at the source or in the image",
          key=_by_base)
def _prop_5_3(r: _Row):
    if not cokernel_row(r.ms, r.grades, r.ups, r.w_idx, r.one):
        return "cokernel characterization broke"


def _fibers(grades) -> list[list[int]]:
    by_value: dict[Any, list[int]] = {}
    for i, g in enumerate(grades):
        by_value.setdefault(g, []).append(i)
    return list(by_value.values())


def _fiber_break(r: _Row, table):
    """The first pair inside one fiber of the extension whose meet or join
    (per ``table``) leaves the fiber."""
    for fiber in _fibers(r.ups):
        members = set(fiber)
        for i in fiber:
            for j in fiber:
                if table[i][j] not in members:
                    return [r.lat.elements[i], r.lat.elements[j]]
    return None


@_row_law("lemma-5.4-meet", "fibers of the extension are meet-closed", key=_by_base)
def _lemma_5_4_meet(r: _Row):
    pair = _fiber_break(r, r.lat.meet_table)
    return None if pair is None else ("a fiber is not meet-closed", {"pair": pair})


@_row_law("lemma-5.4-join",
          "for join-homomorphic filters, fibers of the extension are join-closed",
          when=_join_hom, key=_by_base)
def _lemma_5_4_join(r: _Row):
    pair = _fiber_break(r, r.lat.join_table)
    return None if pair is None else ("a fiber is not join-closed", {"pair": pair})


@_law(
    "example-4.2-validity",
    "the shipped seven-element fixture has a valid negation table "
    "(known-refutable; its table breaks two axioms)",
    requires_filters=False,
    search_target=True,
    fixture="example4_printed",
)
def _check_example_4_2(inst: Instance):
    report = inst.ms.axiom_report
    if report.ok:
        return None
    failed = report.failed()
    pick = next(
        (c for c in failed if c.check_id == "double-negation-above"), failed[0]
    )
    return _fail("example-4.2-validity", inst,
                 ("negation table violates the axioms",
                  {"check": pick.check_id, "witness": dict(pick.witness or {})}))
