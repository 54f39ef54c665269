"""Finite bounded distributive lattices and their crisp filters.

A lattice is built from its Hasse diagram (cover pairs); the order is the
reflexive-transitive closure of the covers.  Construction works on int bit
masks of up-sets and down-sets, in O(n^2) big-int operations; the order,
meet and join are then stored as index tables, because every downstream
check is table lookups.  ``first_break`` is the one scan for a map on
element indices that must carry one of these tables to an operation.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce

from .errors import (
    DuplicateElement,
    InternalInvariantError,
    NotALattice,
    NotAPoset,
    NotBounded,
    NotDistributive,
    UnknownElement,
)
from .report import Record


class FiniteLattice:
    """Immutable finite lattice with dense relation and operation tables.

    Public attributes:
        elements    tuple of identifiers, in input order (the canonical order)
        index       identifier -> position
        covers      normalized Hasse edges (a, b) with a covered by b
        leq_table   leq_table[i][j] is True iff elements[i] <= elements[j]
        meet_table, join_table   index-valued operation tables
        bottom, top distinguished identifiers
    """

    __slots__ = (
        "elements", "index", "covers", "leq_table",
        "meet_table", "join_table", "bottom", "top",
    )

    def __init__(self, elements, covers, leq_table, meet_table, join_table,
                 bottom, top):
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self.covers = covers
        self.leq_table = leq_table
        self.meet_table = meet_table
        self.join_table = join_table
        self.bottom = bottom
        self.top = top

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

    def sorted_subset(self, members) -> tuple[str, ...]:
        """Subset normalized to canonical (input) element order."""
        idx = sorted(self.element_index(e) for e in set(members))
        return tuple(self.elements[i] for i in idx)


class FilterSet(Record):
    """A crisp filter: nonempty, up-closed, meet-closed subset."""

    carrier: FiniteLattice
    members: frozenset[str]

    def __contains__(self, e: str) -> bool:
        return e in self.members

    def __iter__(self):
        return iter(self.carrier.sorted_subset(self.members))

    def __len__(self):
        return len(self.members)


class SubsetVerdict(Record):
    """Boolean verdict plus the first violating pair, if any."""

    ok: bool
    witness: tuple[str, str] | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def build_lattice(elements, covers) -> FiniteLattice:
    """Build and fully validate a bounded distributive lattice.

    ``covers`` are Hasse edges (a, b) meaning a is below b.  Raises
    NotAPoset, NotALattice, NotBounded or NotDistributive on bad input,
    naming the first offending pair or triple in element order.

    Sets of elements are int masks (bit k is ``elements[k]``).  The meet
    of i and j is the element whose down-set is ``down[i] & down[j]``;
    joins likewise from up-sets.  Distributivity is Birkhoff's test in
    ``join_irreducibles``.
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
    edges = set()
    for a, b in covers:
        if a not in index:
            raise UnknownElement(f"cover references undeclared element {a!r}")
        if b not in index:
            raise UnknownElement(f"cover references undeclared element {b!r}")
        edges.add((index[a], index[b]))
    up = [1 << i for i in range(n)]
    for i, j in edges:
        up[i] |= 1 << j
    for k in range(n):
        up_k = up[k]
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up_k
    rows = [format(m, f"0{n}b")[::-1] for m in up]
    down = [int("".join(col)[::-1], 2) for col in zip(*rows)]

    for i in range(n):
        later = (up[i] & down[i]) >> i + 1
        if later:
            j = i + (later & -later).bit_length()
            raise NotAPoset(f"cycle through {elements[i]!r} and {elements[j]!r}")

    by_down = {m: k for k, m in enumerate(down)}
    by_up = {m: k for k, m in enumerate(up)}
    meet = [[i] * n for i in range(n)]
    join = [[i] * n for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = by_down.get(down[i] & down[j])
            if m is None:
                raise NotALattice(
                    f"{elements[i]!r} and {elements[j]!r} have no greatest lower bound"
                )
            u = by_up.get(up[i] & up[j])
            if u is None:
                raise NotALattice(
                    f"{elements[i]!r} and {elements[j]!r} have no least upper bound"
                )
            meet[i][j] = meet[j][i] = m
            join[i][j] = join[j][i] = u

    full = (1 << n) - 1
    bottoms = [i for i in range(n) if up[i] == full]
    tops = [i for i in range(n) if down[i] == full]
    if len(bottoms) != 1 or len(tops) != 1:
        raise NotBounded("no unique bottom/top element")

    # every covering pair is an input edge, since the order is their closure
    hasse = [(i, j) for i, j in sorted(edges)
             if i != j and up[i] & down[j] == 1 << i | 1 << j]
    join_irreducibles(elements, hasse, down, meet, join)

    return FiniteLattice(
        elements, tuple((elements[i], elements[j]) for i, j in hasse),
        tuple(tuple(c == "1" for c in r) for r in rows),
        tuple(map(tuple, meet)), tuple(map(tuple, join)),
        elements[bottoms[0]], elements[tops[0]],
    )


def join_irreducibles(elements, hasse, down, meet, join) -> list[int]:
    """The join-irreducibles (one lower cover in ``hasse``), in index
    order, once Birkhoff's test J(x v y) = J(x) | J(y) shows the lattice
    distributive, J(x) being those in the down-set mask ``down[x]``;
    else NotDistributive naming the first failing triple."""
    n = len(elements)
    lower_covers = Counter(j for _, j in hasse)
    irreducible = sum(1 << j for j, c in lower_covers.items() if c == 1)
    below = [d & irreducible for d in down]
    j_test_fails = [[j for j in range(i + 1, n) if below[join[i][j]] != below[i] | below[j]]
                    for i in range(n)]
    if any(j_test_fails):
        raise NotDistributive(_first_distributivity_failure(elements, meet, join, j_test_fails))
    return [j for j in range(n) if irreducible >> j & 1]


def _first_distributivity_failure(elements, meet, join, j_test_fails) -> tuple[str, str, str]:
    """The first (a, b, c) in element order with a ^ (b v c) != (a ^ b) v
    (a ^ c).  Symmetry in b, c puts b first, and only pairs failing the
    J-test can fail: otherwise each join-irreducible below a ^ (b v c)
    is below a ^ b or a ^ c, and an element is the join of those below it."""
    n = len(elements)
    for i in range(n):
        meet_i = meet[i]
        for j in range(n):
            join_j, join_ij = join[j], join[meet_i[j]]
            for k in j_test_fails[j]:
                if meet_i[join_j[k]] != join_ij[meet_i[k]]:
                    return elements[i], elements[j], elements[k]
    raise InternalInvariantError("the J-test rejected a distributive lattice")


def first_break(table, grades, op):
    """The first ``(i, j)``, in row-major order, where
    ``grades[table[i][j]] != op(grades[i], grades[j])``, or None: where the
    map ``grades`` on element indices fails to carry the meet or join
    ``table`` to ``op``.  It only compares values, so ``grades`` may hold
    grades, integer grade ranks or element indices."""
    for i, row in enumerate(table):
        gi = grades[i]
        for j, k in enumerate(row):
            if grades[k] != op(gi, grades[j]):
                return i, j
    return None


def principal_filter(lat: FiniteLattice, e: str) -> FilterSet:
    """The up-set of a single element."""
    return FilterSet(lat, lat.up_set(e))


def is_filter(lat: FiniteLattice, subset) -> SubsetVerdict:
    """Check nonemptiness, up-closure and meet-closure of a subset."""
    idx = sorted(map(lat.element_index, set(subset)))
    if not idx:
        return SubsetVerdict(False, None, "empty subset")
    inside = [False] * lat.n
    for i in idx:
        inside[i] = True
    low = reduce(lambda a, b: lat.meet_table[a][b], idx)
    if lat.leq_table[low] == tuple(inside):  # the up-set of its meet, which is a filter
        return SubsetVerdict(True)
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
