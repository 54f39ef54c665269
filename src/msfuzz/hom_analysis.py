"""Homomorphism predicates for grade maps, kernels and cokernels, and
the row kernels of the kernel and cokernel laws.

``kernel_row`` and ``cokernel_row`` are row kernels like
``extensions.upsilon_row``: they only compare grades with each other and
with the ``zero`` or ``one`` they are given, so the laws call them on
integer grade ranks.  The facts they decide are laws prop-5.2 and
prop-5.3 in ``laws``; ``hom_report`` wraps
``lattice_core.first_break`` for FuzzySets.
"""

from __future__ import annotations

from .fuzzy_core import FuzzySet
from .grades import ONE, ZERO
from .lattice_core import FiniteLattice, first_break
from .ms_algebra import MSAlgebra
from .report import Record


class HomReport(Record):
    is_join_hom: bool
    is_meet_hom: bool
    witness: tuple[str, str] | None = None

    @property
    def is_lattice_hom(self) -> bool:
        return self.is_join_hom and self.is_meet_hom


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

