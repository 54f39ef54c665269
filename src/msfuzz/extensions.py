"""Extension operators on fuzzy filters over an MS-algebra.

Two pointwise operators over a nonempty reference subset W:

    upsilon(theta) = max(chi(theta), max over w in W of chi(w''))
    omega(theta)   = max over w in W of chi(theta join w'')

where '' is double negation.  ``upsilon_row`` and ``omega_row`` are the
only evaluators; everything else here and the law table in ``laws``
calls them, or ``_raise_to``, upsilon's body, when it already holds the
base grade max chi(w'').  Like ``dense_row`` they only compare grades,
so they take grade tuples and tuples of integer grade ranks alike.
Both are raw: they accept invalid negation tables and non-filter grade
maps on purpose, so flawed instances still evaluate to their exact
grades; the law suite in ``laws`` applies them only to validated
instances.
Each helper computes its fact one way.  The equivalences behind them
are laws in ``laws`` and nowhere else: the two fixedness routes
(def-3.4-consistency) and the dense-element readings of upsilon and
omega (thm-4.7, thm-4.8); thm-4.7 reads dense elements through
``dense_row`` on element indices.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CarrierMismatch, EmptyW
from .fuzzy_core import FuzzySet
from .ms_algebra import MSAlgebra
from .report import Record


class ExtensionResult(Record):
    """Both extensions of one (chi, W) pair, plus the shared base grade."""

    source: FuzzySet
    subset: tuple[str, ...]
    upsilon: FuzzySet
    omega: FuzzySet
    base_grade: Fraction


class CanonicalFixedSet(Record):
    """One canonical reference subset relative to which chi cannot grow."""

    name: str
    members: frozenset[str]
    note: str = ""


def _w_indices(ms: MSAlgebra, chi: FuzzySet, w_subset) -> list[int]:
    """The sorted indices of a nonempty W, after checking that chi lives
    on the algebra's lattice."""
    lat = ms.lattice
    if chi.carrier != lat:
        raise CarrierMismatch("grade map does not live on the algebra's lattice")
    idx = sorted({lat.element_index(w) for w in w_subset})
    if not idx:
        raise EmptyW("reference subset W is empty")
    return idx


def _base_grade(ms: MSAlgebra, grades, w_idx) -> Fraction:
    dd = ms.dneg_table()
    return max(grades[dd[w]] for w in w_idx)


def _raise_to(grades, base) -> tuple:
    """upsilon from the base grade of W: each grade raised to at least it."""
    return tuple(base if g < base else g for g in grades)


def upsilon_row(ms: MSAlgebra, grades, w_idx) -> tuple[Fraction, ...]:
    """upsilon on element indices: the grade tuple of chi and the indices
    of a nonempty W in, the grade tuple of the extension out.  Unchecked,
    so the law scans can call it once per (chi, W) row."""
    return _raise_to(grades, _base_grade(ms, grades, w_idx))


def omega_row(ms: MSAlgebra, grades, w_idx) -> tuple[Fraction, ...]:
    """omega on element indices, unchecked like ``upsilon_row``."""
    dd = ms.dneg_table()
    images = [dd[w] for w in w_idx]
    return tuple(
        max(grades[joins[v]] for v in images) for joins in ms.lattice.join_table
    )


def extend(ms: MSAlgebra, chi: FuzzySet, w_subset) -> ExtensionResult:
    """Compute both extensions at once."""
    lat = ms.lattice
    w_idx = _w_indices(ms, chi, w_subset)
    base = _base_grade(ms, chi.grades, w_idx)
    return ExtensionResult(
        source=chi,
        subset=tuple(lat.elements[i] for i in w_idx),
        upsilon=FuzzySet(lat, _raise_to(chi.grades, base)),
        omega=FuzzySet(lat, omega_row(ms, chi.grades, w_idx)),
        base_grade=base,
    )


def upsilon(ms: MSAlgebra, chi: FuzzySet, w_subset) -> FuzzySet:
    """Pointwise max of chi with the best grade of a double-negated
    reference element."""
    return FuzzySet(ms.lattice, upsilon_row(ms, chi.grades, _w_indices(ms, chi, w_subset)))


def omega(ms: MSAlgebra, chi: FuzzySet, w_subset) -> FuzzySet:
    """Pointwise best grade of the join with a double-negated reference
    element; contains upsilon whenever chi is a fuzzy filter."""
    return FuzzySet(ms.lattice, omega_row(ms, chi.grades, _w_indices(ms, chi, w_subset)))


def is_fixed_relative(ms: MSAlgebra, chi: FuzzySet, w_subset) -> bool:
    """True when the extension does not move chi: upsilon equals chi
    pointwise."""
    w_idx = _w_indices(ms, chi, w_subset)
    return upsilon_row(ms, chi.grades, w_idx) == chi.grades


def fixed_witness_sets(ms: MSAlgebra, chi: FuzzySet) -> list[CanonicalFixedSet]:
    """The canonical subsets that never move a fuzzy filter.

    Returns the bottom singleton, the elements whose double negation is
    bottom, and the elements whose double negation has grade zero.  Empty
    sets are kept in the list but flagged, since extensions require a
    nonempty W.
    """
    lat = ms.lattice
    dd = ms.dneg_table()
    bot_i = lat.element_index(lat.bottom)

    a_members = frozenset(
        lat.elements[i] for i in range(lat.n) if dd[i] == bot_i
    )
    c_members = frozenset(
        lat.elements[i] for i in range(lat.n) if chi.grades[dd[i]] == 0
    )
    out = [
        CanonicalFixedSet("bottom", frozenset({lat.bottom})),
        CanonicalFixedSet("double-negation-bottom", a_members,
                          "" if a_members else "empty: skipped"),
        CanonicalFixedSet("zero-grade-double-negation", c_members,
                          "" if c_members else "empty: skipped"),
    ]
    return out


def dense_row(grades, idx):
    """Argmax of a grade tuple over nonempty indices: the threshold and the
    indices attaining it.  Unchecked like ``upsilon_row``."""
    threshold = max(grades[i] for i in idx)
    return threshold, frozenset(i for i in idx if grades[i] == threshold)

