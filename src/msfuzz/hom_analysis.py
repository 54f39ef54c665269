"""Homomorphism predicates for grade maps, kernel/cokernel
characterizations of the extension, fibers, and the optional grade-level
negation structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import MissingGradeStructure
from .extensions import _w_indices, upsilon, upsilon_row
from .fuzzy_core import FuzzySet
from .grades import ONE, ZERO
from .lattice_core import FiniteLattice
from .ms_algebra import MSAlgebra


@dataclass(frozen=True)
class HomReport:
    is_join_hom: bool
    is_meet_hom: bool
    witness: tuple[str, str] | None = None

    @property
    def is_lattice_hom(self) -> bool:
        return self.is_join_hom and self.is_meet_hom


@dataclass(frozen=True)
class GradeStructure:
    """Optional unary negation on grades.

    The element-level negation has no canonical counterpart on [0, 1], so
    grade-level checks take it as an explicit, total map over the grades
    in play.  ``involutive(grades)`` builds the standard 1 - x map.
    """

    neg_grade: Mapping[Fraction, Fraction] | None = None

    @classmethod
    def involutive(cls, grades) -> "GradeStructure":
        table: dict[Fraction, Fraction] = {}
        for g in grades:
            g = Fraction(g)
            table[g] = ONE - g
            table[ONE - g] = g
        return cls(neg_grade=table)

    def double(self, g: Fraction) -> Fraction:
        if self.neg_grade is None:
            raise MissingGradeStructure("no grade negation supplied")
        try:
            return self.neg_grade[self.neg_grade[g]]
        except KeyError as missing:
            raise MissingGradeStructure(
                f"grade negation is not total: no entry for {missing.args[0]}"
            ) from None


def hom_report(lat: FiniteLattice, mu: FuzzySet) -> HomReport:
    """Does the grade map turn joins into maxima and meets into minima?

    Every fuzzy filter passes the meet half; the join half is the extra
    hypothesis the extension theorems trade on.
    """
    g = mu.grades
    n = lat.n
    join_ok, meet_ok, witness = True, True, None
    for i in range(n):
        for j in range(n):
            if g[lat.join_table[i][j]] != max(g[i], g[j]):
                join_ok = False
                witness = witness or (lat.elements[i], lat.elements[j])
            if g[lat.meet_table[i][j]] != min(g[i], g[j]):
                meet_ok = False
                witness = witness or (lat.elements[i], lat.elements[j])
    return HomReport(join_ok, meet_ok, witness)


def kernel(mu: FuzzySet) -> frozenset[str]:
    """Elements of grade exactly zero."""
    return frozenset(e for e, g in zip(mu.carrier.elements, mu.grades) if g == ZERO)


def cokernel(mu: FuzzySet) -> frozenset[str]:
    """Elements of grade exactly one."""
    return frozenset(e for e, g in zip(mu.carrier.elements, mu.grades) if g == ONE)


def kernel_characterization(ms: MSAlgebra, chi: FuzzySet, w_subset) -> bool:
    """An element is killed by the extension iff chi kills it and chi
    kills the whole double-negation image of W.  Verified pointwise."""
    w_idx = _w_indices(ms, chi, w_subset)
    ups = upsilon_row(ms, chi.grades, w_idx)
    dd = ms.dneg_table()
    image_killed = all(chi.grades[dd[w]] == ZERO for w in w_idx)
    for i in range(ms.lattice.n):
        in_ker = ups[i] == ZERO
        expected = chi.grades[i] == ZERO and image_killed
        if in_ker != expected:
            return False
    return True


def cokernel_characterization(ms: MSAlgebra, chi: FuzzySet, w_subset) -> bool:
    """An element is sent to one iff chi already sends it to one or some
    double-negated reference element has grade one."""
    w_idx = _w_indices(ms, chi, w_subset)
    ups = upsilon_row(ms, chi.grades, w_idx)
    dd = ms.dneg_table()
    image_hit = any(chi.grades[dd[w]] == ONE for w in w_idx)
    for i in range(ms.lattice.n):
        in_coker = ups[i] == ONE
        expected = chi.grades[i] == ONE or image_hit
        if in_coker != expected:
            return False
    return True


def inverse_class(ms: MSAlgebra, chi: FuzzySet, w_subset, theta: str
                  ) -> frozenset[str]:
    """The fiber of the extension through one element."""
    ups = upsilon(ms, chi, w_subset)
    value = ups(theta)
    return frozenset(
        e for e, g in zip(ms.lattice.elements, ups.grades) if g == value
    )


def grade_ms_hom_check(ms: MSAlgebra, chi: FuzzySet, gs: GradeStructure) -> bool:
    """Check whether chi intertwines element-level and grade-level double
    negation, and whether its extensions inherit that.

    Returns True iff chi(e'') equals the double grade negation of chi(e)
    for every element, and (on a valid algebra) the same identity holds
    for the extension over every nonempty W.  With the involutive default
    the grade side collapses to the identity, and inheritance is then
    automatic; an exotic non-monotone grade negation can legitimately
    break it, which simply yields False.
    """
    if gs.neg_grade is None:
        raise MissingGradeStructure("no grade negation supplied")
    lat = ms.lattice
    dd = ms.dneg_table()
    for i in range(lat.n):
        if chi.grades[dd[i]] != gs.double(chi.grades[i]):
            return False
    if not ms.is_valid:
        return True
    elements = lat.elements
    subsets = [
        [elements[j] for j in range(lat.n) if mask >> j & 1]
        for mask in range(1, 1 << lat.n)
    ]
    for w_subset in subsets:
        ups = upsilon(ms, chi, w_subset)
        for i in range(lat.n):
            if ups.grades[dd[i]] != gs.double(ups.grades[i]):
                return False
    return True
