"""Fuzzy sets with exact rational grades, classification, level cuts,
the pool of fuzzy filters over a finite grade universe (one per
multichain of principal filters), and the primality of a fuzzy filter
decided in closed form over its step filters.

``is_filter_row`` is a row kernel like ``lattice_core.first_break``: it
only compares grades, so it takes grade tuples and tuples of integer
grade ranks alike (the laws pass ranks, with the rank of 1 for
``one``).  ``prime_pair_row`` steps a rank up by one, so it takes ranks
only.  ``classify`` and ``fuzzy_filter_report`` map a grade row to ranks
once (``_rank_row``) and run ``first_break`` on them; grades come back
only in their witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import CarrierMismatch, GradeOutOfRange, SizeCapExceeded
from .grades import ONE, ensure_grade
from .lattice_core import FiniteLattice, first_break
from .report import Check, Record, VerificationReport

FUZZY_ENUM_CAP = 64  # bound on |elements| * |grade universe|


class FuzzySet(Record):
    """Total map from carrier elements to grades, stored in element order."""

    carrier: FiniteLattice
    grades: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.grades) != self.carrier.n:
            raise GradeOutOfRange("grade tuple does not cover the carrier")
        for g in self.grades:
            ensure_grade(g)

    @classmethod
    def from_mapping(cls, carrier: FiniteLattice, mapping) -> "FuzzySet":
        missing = [e for e in carrier.elements if e not in mapping]
        if missing:
            raise GradeOutOfRange(f"missing grades for {missing}")
        return cls(carrier, tuple(Fraction(mapping[e]) for e in carrier.elements))

    def __call__(self, e: str) -> Fraction:
        return self.grades[self.carrier.element_index(e)]

    def is_contained_in(self, other: "FuzzySet") -> bool:
        _same_carrier(self, other)
        return all(a <= b for a, b in zip(self.grades, other.grades))

    def is_constant(self) -> bool:
        return len(set(self.grades)) <= 1


class FuzzyClassification(Record):
    is_sublattice: bool
    is_ideal: bool
    is_filter: bool
    is_proper: bool
    witness: tuple[str, str] | None = None


def _same_carrier(a: FuzzySet, b: FuzzySet) -> None:
    if a.carrier != b.carrier:
        raise CarrierMismatch("fuzzy sets live on different carriers")


def is_filter_row(lat: FiniteLattice, grades, one) -> bool:
    """The two-clause filter test on a row: the top has grade ``one`` and
    meets go to minima."""
    return (grades[lat.element_index(lat.top)] == one
            and first_break(lat.meet_table, grades, min) is None)


def _rank_row(grades) -> tuple[int, ...]:
    """Each grade's position among the row's distinct grades: ranks order
    and compare as the grades do, so a row kernel finds the same pairs."""
    rank = {g: k for k, g in enumerate(sorted(set(grades)))}
    return tuple(map(rank.__getitem__, grades))


def classify(lat: FiniteLattice, chi: FuzzySet) -> FuzzyClassification:
    """Classify a fuzzy set as sublattice / ideal / filter / proper.

    Filters are decided by the two-clause characterization: unit grade 1
    and meets mapped to minima.  Dually for ideals.  The reported witness
    is the first pair breaking the filter meet equality, scanning in
    element order.
    """
    if chi.carrier != lat:
        raise CarrierMismatch("fuzzy set does not live on the given lattice")
    g = chi.grades
    r = _rank_row(g)
    sublattice = all(
        min(r[i], r[j]) <= min(r[lat.meet_table[i][j]], r[lat.join_table[i][j]])
        for i in range(lat.n) for j in range(lat.n)
    )
    meet_break = first_break(lat.meet_table, r, min)
    filter_char = g[lat.element_index(lat.top)] == ONE and meet_break is None
    ideal_char = (g[lat.element_index(lat.bottom)] == ONE
                  and first_break(lat.join_table, r, min) is None)

    return FuzzyClassification(
        is_sublattice=sublattice,
        is_ideal=ideal_char,
        is_filter=filter_char,
        is_proper=not chi.is_constant(),
        witness=None if meet_break is None else
        (lat.elements[meet_break[0]], lat.elements[meet_break[1]]),
    )


def fuzzy_filter_report(lat: FiniteLattice, chi: FuzzySet, name: str = "chi"
                        ) -> VerificationReport:
    """Per-clause filter diagnosis with exact witnesses, for validation output.

    The meet-equality witness is the first pair ``first_break`` finds, the
    one ``classify`` reports.
    """
    if chi.carrier != lat:
        raise CarrierMismatch("fuzzy set does not live on the given lattice")
    g = chi.grades
    checks: list[Check] = []

    top_grade = g[lat.element_index(lat.top)]
    checks.append(Check(
        f"fuzzy.{name}.unit", top_grade == ONE,
        "" if top_grade == ONE else f"grade of {lat.top!r} is {top_grade}, not 1",
    ))

    meet_break = first_break(lat.meet_table, _rank_row(g), min)
    witness = None
    if meet_break is not None:
        i, j = meet_break
        witness = {
            "pair": [lat.elements[i], lat.elements[j]],
            "lhs": str(g[lat.meet_table[i][j]]),
            "rhs": str(min(g[i], g[j])),
        }
    checks.append(Check(
        f"fuzzy.{name}.meet-equality", witness is None,
        "" if witness is None else
        "grade of a meet differs from the minimum of the grades",
        witness,
    ))
    checks.append(Check(f"fuzzy.{name}.is-filter", top_grade == ONE and witness is None))
    return VerificationReport(f"fuzzy-filter:{name}", tuple(checks))


def level_cut(mu: FuzzySet, t: Fraction) -> frozenset[str]:
    """Elements with grade at least ``t``."""
    ensure_grade(t)
    lat = mu.carrier
    return frozenset(e for e, g in zip(lat.elements, mu.grades) if g >= t)


def check_pool_size(lat: FiniteLattice, universe) -> None:
    """Refuse a lattice and grade universe whose pool of fuzzy filters is
    over ``FUZZY_ENUM_CAP``, measured as |elements| * |grades|."""
    size = lat.n * len(universe)
    if size > FUZZY_ENUM_CAP:
        raise SizeCapExceeded(
            f"|elements| * |grades| = {size} exceeds cap {FUZZY_ENUM_CAP}")


def enumerate_fuzzy_filters(lat: FiniteLattice, grade_universe) -> list[FuzzySet]:
    """All fuzzy filters with grades drawn from a finite universe.

    Over a universe u0 < u1 < ... < uk = 1 a fuzzy filter is its chain of
    level cuts, and every filter of a finite lattice is principal, so the
    filters are the multichains a1 <= ... <= ak: each sends x to the
    largest ui with ai <= x, or to u0 when no ai <= x.  Maps come sorted
    by grade tuple, lexicographic over element positions.
    """
    universe = sorted(set(Fraction(g) for g in grade_universe))
    for g in universe:
        ensure_grade(g)
    if ONE not in universe:
        raise ValueError("grade universe must contain 1")
    check_pool_size(lat, universe)

    leq = lat.leq_table
    # (last ai, grades so far); the bottom lies below every first a1
    chains = [(lat.element_index(lat.bottom), (universe[0],) * lat.n)]
    for u in universe[1:]:
        chains = [
            (b, tuple(u if leq[b][x] else g for x, g in enumerate(gs)))
            for a, gs in chains
            for b in range(lat.n) if leq[a][b]
        ]
    return [FuzzySet(lat, gs) for gs in sorted(gs for _, gs in chains)]


@lru_cache(maxsize=None)
def filter_pool(lat: FiniteLattice, universe: tuple[Fraction, ...]
                ) -> tuple[FuzzySet, ...]:
    """``enumerate_fuzzy_filters`` as a tuple, built once per lattice and
    universe."""
    return tuple(enumerate_fuzzy_filters(lat, universe))


def prime_pair_row(lat: FiniteLattice, grades, one):
    """The first pair (phi, psi) of step filters, in sorted order, with
    min(phi, psi) <= mu pointwise, or None when the filter row mu is
    prime.  For each x with mu(x) < ``one`` the step filter phi_x is
    mu(x) + 1 on the up-set of x, ``one`` at the top and 0 elsewhere.

    This is the first pair of the bounded search over the pool of fuzzy
    filters whose grades are the ranks 0..``one``, taken in pool order
    from the members not inside mu.  Every step filter lies in the pool,
    and any pool pair that refutes primality shrinks pointwise to such a
    pair, at points where phi and psi exceed mu; a pointwise-smaller row
    sorts no later, so the search's first pair is a pair of step filters.
    """
    leq, top = lat.leq_table, lat.element_index(lat.top)
    steps = sorted(
        tuple(one if y == top else grades[x] + 1 if leq[x][y] else 0 for y in range(lat.n))
        for x in range(lat.n) if grades[x] < one)
    for phi in steps:
        for psi in steps:
            if all(min(a, b) <= g for a, b, g in zip(phi, psi, grades)):
                return phi, psi
    return None
