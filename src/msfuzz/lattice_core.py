"""Finite bounded distributive lattices and their crisp filters.

A lattice is built from its Hasse diagram (cover pairs); the order is the
reflexive-transitive closure of the covers.  Meet and join are stored as
dense index tables computed once at construction, because instances are
tiny (at most ~20 elements) and every downstream check is table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DuplicateElement,
    EmptyGeneratingSet,
    NotALattice,
    NotAPoset,
    NotBounded,
    NotDistributive,
    UnknownElement,
)


class FiniteLattice:
    """Immutable finite lattice with dense relation and operation tables.

    Public attributes:
        elements    tuple of identifiers, in input order (the canonical order)
        index       identifier -> position
        covers      normalized Hasse edges (a, b) with a covered by b
        leq_table   leq_table[i][j] is True iff elements[i] <= elements[j]
        meet_table, join_table   index-valued operation tables
        bottom, top distinguished identifiers
        distributive  False only when built with allow_nondistributive
    """

    __slots__ = (
        "elements", "index", "covers", "leq_table",
        "meet_table", "join_table", "bottom", "top", "distributive",
    )

    def __init__(self, elements, covers, leq_table, meet_table, join_table,
                 bottom, top, distributive):
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self.covers = covers
        self.leq_table = leq_table
        self.meet_table = meet_table
        self.join_table = join_table
        self.bottom = bottom
        self.top = top
        self.distributive = distributive

    # identity is structural: same elements in the same order, same order relation
    def __eq__(self, other):
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.elements == other.elements and self.leq_table == other.leq_table

    def __hash__(self):
        return hash((self.elements, self.leq_table))

    def __repr__(self):
        return f"FiniteLattice({len(self.elements)} elements, bottom={self.bottom!r}, top={self.top!r})"

    @property
    def n(self) -> int:
        return len(self.elements)

    def element_index(self, e: str) -> int:
        try:
            return self.index[e]
        except KeyError:
            raise UnknownElement(f"unknown element {e!r}") from None

    def leq(self, a: str, b: str) -> bool:
        return self.leq_table[self.element_index(a)][self.element_index(b)]

    def meet(self, a: str, b: str) -> str:
        return self.elements[self.meet_table[self.element_index(a)][self.element_index(b)]]

    def join(self, a: str, b: str) -> str:
        return self.elements[self.join_table[self.element_index(a)][self.element_index(b)]]

    def up_set(self, e: str) -> frozenset[str]:
        i = self.element_index(e)
        return frozenset(self.elements[j] for j in range(self.n) if self.leq_table[i][j])

    def down_set(self, e: str) -> frozenset[str]:
        i = self.element_index(e)
        return frozenset(self.elements[j] for j in range(self.n) if self.leq_table[j][i])

    def sorted_subset(self, members) -> tuple[str, ...]:
        """Subset normalized to canonical (input) element order."""
        idx = sorted(self.element_index(e) for e in set(members))
        return tuple(self.elements[i] for i in idx)


@dataclass(frozen=True)
class FilterSet:
    """A crisp filter: nonempty, up-closed, meet-closed subset."""

    carrier: FiniteLattice
    members: frozenset[str]

    def __contains__(self, e: str) -> bool:
        return e in self.members

    def __iter__(self):
        return iter(self.carrier.sorted_subset(self.members))

    def __len__(self):
        return len(self.members)

    def is_proper(self) -> bool:
        return len(self.members) < self.carrier.n


@dataclass(frozen=True)
class SubsetVerdict:
    """Boolean verdict plus the first violating pair, if any."""

    ok: bool
    witness: tuple[str, str] | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


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


def build_lattice(elements, covers, *, allow_nondistributive: bool = False) -> FiniteLattice:
    """Build and fully validate a bounded distributive lattice.

    ``covers`` are Hasse edges (a, b) meaning a is below b.  Raises
    NotAPoset, NotALattice, NotBounded or NotDistributive on bad input;
    the distributivity gate can be disabled for counterexample searches.
    """
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
                         elements[tops[0]], distributive)


def principal_filter(lat: FiniteLattice, e: str) -> FilterSet:
    """The up-set of a single element."""
    return FilterSet(lat, lat.up_set(e))


def generated_filter(lat: FiniteLattice, generators) -> FilterSet:
    """The filter generated by a nonempty set: the principal filter of
    the meet of the generators."""
    gens = set(generators)
    if not gens:
        raise EmptyGeneratingSet("generating set is empty")
    m = lat.top
    for e in gens:
        m = lat.meet(m, e)
    return principal_filter(lat, m)


def is_filter(lat: FiniteLattice, subset) -> SubsetVerdict:
    """Check nonemptiness, up-closure and meet-closure of a subset."""
    members = {e for e in subset}
    for e in members:
        lat.element_index(e)
    if not members:
        return SubsetVerdict(False, None, "empty subset")
    idx = sorted(lat.element_index(e) for e in members)
    inside = [False] * lat.n
    for i in idx:
        inside[i] = True
    for i in idx:
        for j in range(lat.n):
            if lat.leq_table[i][j] and not inside[j]:
                return SubsetVerdict(
                    False, (lat.elements[i], lat.elements[j]),
                    "not up-closed",
                )
    for i in idx:
        for j in idx:
            if not inside[lat.meet_table[i][j]]:
                return SubsetVerdict(
                    False, (lat.elements[i], lat.elements[j]),
                    "not meet-closed",
                )
    return SubsetVerdict(True)


def is_prime_filter(lat: FiniteLattice, subset) -> SubsetVerdict:
    """Proper filter such that a join landing inside pulls in a component."""
    base = is_filter(lat, subset)
    if not base.ok:
        return SubsetVerdict(False, base.witness, base.reason)
    members = {e for e in subset}
    if len(members) == lat.n:
        return SubsetVerdict(False, None, "not proper")
    inside = [False] * lat.n
    for e in members:
        inside[lat.element_index(e)] = True
    for i in range(lat.n):
        for j in range(lat.n):
            if inside[lat.join_table[i][j]] and not inside[i] and not inside[j]:
                return SubsetVerdict(
                    False, (lat.elements[i], lat.elements[j]),
                    "join inside with both components outside",
                )
    return SubsetVerdict(True)


def enumerate_filters(lat: FiniteLattice) -> list[FilterSet]:
    """All filters, smallest first.

    Every filter of a finite lattice is principal (it is meet-closed and
    finite, so its overall meet is a least member), so the filters are
    exactly the up-sets of single elements.
    """
    filters = [principal_filter(lat, e) for e in lat.elements]
    filters.sort(key=lambda f: (len(f.members),
                                tuple(lat.element_index(e) for e in f)))
    return filters
