"""Exact membership grades.

Grades are plain ``fractions.Fraction`` values restricted to [0, 1].
Decimal literals are converted exactly (``0.7`` becomes ``7/10``), so grade
comparisons throughout the package are exact equalities.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GradeOutOfRange

ZERO = Fraction(0)
ONE = Fraction(1)


def _shown(text: str, quote=repr) -> str:
    """``text`` for an error message, clipped to its first 20 characters."""
    return quote(text) if len(text) <= 20 else f"{quote(text[:20])}..."


def ensure_grade(value: Fraction) -> Fraction:
    """Validate that a rational lies in the unit interval."""
    if not (ZERO <= value <= ONE):
        raise GradeOutOfRange(f"grade {_shown(str(value), str)} outside [0, 1]")
    return value


def parse_grade(text: str) -> Fraction:
    """Parse ``p/q``, an integer, or an exact decimal such as ``0.7``; not
    ``1_0``, nor ``1e-3``, as ``Fraction`` expands the power, so
    ``1e-10000000`` takes seconds.  An error quotes at most 20 characters."""
    text = text.strip()
    shown = _shown(text)
    if "e" in text or "E" in text or "_" in text:
        form = "digit grouping" if "_" in text else "exponent form"
        raise GradeOutOfRange(f"cannot parse grade {shown}: {form} is not accepted")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise GradeOutOfRange(f"cannot parse grade {shown}: not p/q, integer or decimal") from None
    return ensure_grade(value)


def format_grade(value: Fraction) -> str:
    """Canonical text form: lowest-terms ``p/q``, or a bare integer."""
    return str(value)
