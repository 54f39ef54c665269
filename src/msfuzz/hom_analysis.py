"""Homomorphism predicates for grade maps, kernel/cokernel
characterizations of the extension, fibers, and the optional grade-level
negation structure.

``kernel_row`` and ``cokernel_row`` are row kernels like
``extensions.upsilon_row``: they only compare grades with each other and
with the ``zero`` or ``one`` they are given, so the law scan in the
verifier calls them on integer grade ranks.  ``hom_report`` and the two
characterizations wrap them and ``lattice_core.first_break`` for FuzzySets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import MissingGradeStructure
from .extensions import _w_indices, upsilon, upsilon_row
from .fuzzy_core import FuzzySet
from .grades import ONE, ZERO
from .lattice_core import FiniteLattice, first_break
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
    hypothesis the extension theorems trade on.  The witness is the first
    pair, in row-major order, that breaks either half.
    """
    join_break = first_break(lat.join_table, mu.grades, max)
    meet_break = first_break(lat.meet_table, mu.grades, min)
    first = min((b for b in (join_break, meet_break) if b is not None), default=None)
    witness = None if first is None else (lat.elements[first[0]], lat.elements[first[1]])
    return HomReport(join_break is None, meet_break is None, witness)


def kernel(mu: FuzzySet) -> frozenset[str]:
    """Elements of grade exactly zero."""
    return frozenset(e for e, g in zip(mu.carrier.elements, mu.grades) if g == ZERO)


def cokernel(mu: FuzzySet) -> frozenset[str]:
    """Elements of grade exactly one."""
    return frozenset(e for e, g in zip(mu.carrier.elements, mu.grades) if g == ONE)


def kernel_row(ms: MSAlgebra, grades, ups, w_idx, zero) -> bool:
    """An element has extension grade ``zero`` iff chi gives it ``zero``
    and chi gives ``zero`` to the whole double-negation image of W; on the
    rows of chi and of its extension over the indices ``w_idx``."""
    dd = ms.dneg_table()
    image_killed = all(grades[dd[w]] == zero for w in w_idx)
    return all((u == zero) == (g == zero and image_killed) for g, u in zip(grades, ups))


def cokernel_row(ms: MSAlgebra, grades, ups, w_idx, one) -> bool:
    """An element has extension grade ``one`` iff chi gives it ``one`` or
    some double-negated reference element has grade ``one``; on rows, like
    ``kernel_row``."""
    dd = ms.dneg_table()
    image_hit = any(grades[dd[w]] == one for w in w_idx)
    return all((u == one) == (g == one or image_hit) for g, u in zip(grades, ups))


def kernel_characterization(ms: MSAlgebra, chi: FuzzySet, w_subset) -> bool:
    """An element is killed by the extension iff chi kills it and chi
    kills the whole double-negation image of W.  Verified pointwise."""
    w_idx = _w_indices(ms, chi, w_subset)
    ups = upsilon_row(ms, chi.grades, w_idx)
    return kernel_row(ms, chi.grades, ups, w_idx, ZERO)


def cokernel_characterization(ms: MSAlgebra, chi: FuzzySet, w_subset) -> bool:
    """An element is sent to one iff chi already sends it to one or some
    double-negated reference element has grade one."""
    w_idx = _w_indices(ms, chi, w_subset)
    ups = upsilon_row(ms, chi.grades, w_idx)
    return cokernel_row(ms, chi.grades, ups, w_idx, ONE)


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
