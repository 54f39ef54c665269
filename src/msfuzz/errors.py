"""Exception types shared across the package."""

from __future__ import annotations


class MsfuzzError(Exception):
    """Base class for all library errors."""


# -- lattice construction -------------------------------------------------

class NotAPoset(MsfuzzError):
    """The cover relation has a cycle (antisymmetry fails)."""


class NotALattice(MsfuzzError):
    """Some pair of elements lacks a greatest lower or least upper bound."""


class NotBounded(MsfuzzError):
    """No global bottom/top element (only possible for an empty universe)."""


class NotDistributive(MsfuzzError):
    """Distributivity fails; carries a witness triple."""

    def __init__(self, witness: tuple[str, str, str]):
        self.witness = witness
        a, b, c = witness
        super().__init__(
            f"distributivity fails at ({a}, {b}, {c}): "
            f"{a} meet ({b} join {c}) != ({a} meet {b}) join ({a} meet {c})"
        )


class DuplicateElement(MsfuzzError):
    """An element identifier is declared twice."""


class UnknownElement(MsfuzzError):
    """An identifier does not belong to the carrier."""


class EmptyW(MsfuzzError):
    """Extension operators require a nonempty reference subset."""


# -- grades and fuzzy sets -------------------------------------------------

class GradeOutOfRange(MsfuzzError):
    """A membership grade falls outside [0, 1]."""


class CarrierMismatch(MsfuzzError):
    """Two fuzzy sets live on different carriers."""


class NotProper(MsfuzzError):
    """A constant fuzzy filter where a proper one is required."""


# -- enumeration and search -------------------------------------------------

class SizeCapExceeded(MsfuzzError):
    """An enumeration was asked to run beyond its configured bound."""


class UnknownProperty(MsfuzzError):
    """No registered property has the requested id."""


class HypothesisUnmet(MsfuzzError):
    """The instance does not satisfy a property's hypotheses."""

    def __init__(self, property_id: str, reason: str):
        self.property_id = property_id
        self.reason = reason
        super().__init__(f"{property_id}: {reason}")


class InternalInvariantError(MsfuzzError):
    """A cross-check that can only fail on an implementation bug fired, or
    a sweep worker failed."""
