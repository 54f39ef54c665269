"""The unary negation of MS-algebras: axioms, derived identities,
crisp extended filters, and every negation table of a distributive
lattice, generated from maps on its join-irreducibles.

``check_ms_axioms`` is a report producer rather than a constructor guard:
instances with broken tables must still load so that the raw evaluators
can reproduce their arithmetic.  Validity is a flag on the algebra; the
theorem machinery requires it, the evaluators do not.
"""

from __future__ import annotations

from functools import reduce

from .errors import EmptyW, SizeCapExceeded, UnknownElement
from .lattice_core import FilterSet, FiniteLattice, first_break, join_irreducibles
from .report import Check, VerificationReport

MS_ENUM_CAP = 8


class MSAlgebra:
    """A finite lattice with a unary negation table.

    ``is_valid`` records whether the table satisfies all three axioms:
    negation swaps top to bottom, negation of a meet is the join of the
    negations, and every element sits below its double negation.
    """

    __slots__ = ("lattice", "neg", "neg_table", "_dneg", "is_valid", "axiom_report")

    def __init__(self, lattice: FiniteLattice, neg: dict[str, str]):
        self.lattice = lattice
        missing = [e for e in lattice.elements if e not in neg]
        if missing:
            raise UnknownElement(f"negation table missing entries for {missing}")
        for a, b in neg.items():
            lattice.element_index(a)
            lattice.element_index(b)
        self.neg = {e: neg[e] for e in lattice.elements}
        self.neg_table = tuple(lattice.element_index(neg[e]) for e in lattice.elements)
        self._dneg = tuple(self.neg_table[i] for i in self.neg_table)
        self.axiom_report = check_ms_axioms(lattice, neg)
        self.is_valid = self.axiom_report.ok

    def __eq__(self, other):
        if not isinstance(other, MSAlgebra):
            return NotImplemented
        return self.lattice == other.lattice and self.neg_table == other.neg_table

    def __hash__(self):
        return hash((self.lattice, self.neg_table))

    def __repr__(self):
        tag = "valid" if self.is_valid else "invalid"
        return f"MSAlgebra({self.lattice!r}, {tag})"

    def negate(self, e: str) -> str:
        return self.lattice.elements[self.neg_table[self.lattice.element_index(e)]]

    def dneg_table(self) -> tuple[int, ...]:
        """Index table of double negation."""
        return self._dneg

    @property
    def is_de_morgan(self) -> bool:
        """Valid and double negation is the identity."""
        return self.is_valid and all(self._dneg[i] == i for i in range(self.lattice.n))

    @property
    def is_stone(self) -> bool:
        """Valid and every negation joins with its double negation to the top."""
        lat = self.lattice
        top_i = lat.element_index(lat.top)
        return self.is_valid and all(
            lat.join_table[self.neg_table[i]][self._dneg[i]] == top_i
            for i in range(lat.n)
        )


def check_ms_axioms(lat: FiniteLattice, neg: dict[str, str]) -> VerificationReport:
    """Check the three defining axioms, reporting a witness per failure."""
    n = lat.n
    table = [0] * n
    for e in lat.elements:
        if e not in neg:
            raise UnknownElement(f"negation table missing entry for {e!r}")
        table[lat.element_index(e)] = lat.element_index(neg[e])
    for target in neg.values():
        lat.element_index(target)

    checks: list[Check] = []

    top_i = lat.element_index(lat.top)
    bot_i = lat.element_index(lat.bottom)
    ok = table[top_i] == bot_i
    checks.append(Check(
        "unit-negation", ok,
        "" if ok else f"negation of {lat.top!r} is {lat.elements[table[top_i]]!r}, "
                      f"not {lat.bottom!r}",
    ))

    witness = None
    pair = first_break(lat.meet_table, table, lambda a, b: lat.join_table[a][b])
    if pair is not None:
        i, j = pair
        witness = {
            "pair": [lat.elements[i], lat.elements[j]],
            "lhs": lat.elements[table[lat.meet_table[i][j]]],
            "rhs": lat.elements[lat.join_table[table[i]][table[j]]],
        }
    checks.append(Check(
        "meet-de-morgan", witness is None,
        "" if witness is None else "negation of a meet differs from join of negations",
        witness,
    ))

    witness = None
    for i in range(n):
        dd = table[table[i]]
        if not lat.leq_table[i][dd]:
            witness = {"element": lat.elements[i], "double_negation": lat.elements[dd]}
            break
    checks.append(Check(
        "double-negation-above", witness is None,
        "" if witness is None else
        f"{witness['element']} is not below its double negation {witness['double_negation']}",
        witness,
    ))

    return VerificationReport("ms-axioms", tuple(checks))


def verify_derived_identities(ms: MSAlgebra) -> VerificationReport:
    """Identities forced by the axioms; a failure here means a bug.

    Checked for all pairs: negation of a join is the meet of negations,
    double negation distributes over join, triple negation collapses,
    and the bottom negates to the top.
    """
    lat = ms.lattice
    neg = ms.neg_table
    n = lat.n
    checks: list[Check] = []

    def join_break(f, target):
        """The first pair whose join ``f`` does not send to ``target`` of the images."""
        pair = first_break(lat.join_table, f, lambda a, b: target[a][b])
        return None if pair is None else {"pair": [lat.elements[k] for k in pair]}

    w = join_break(neg, lat.meet_table)
    checks.append(Check("join-de-morgan", w is None, "", w))

    w = join_break(ms.dneg_table(), lat.join_table)
    checks.append(Check("double-negation-join", w is None, "", w))

    w = None
    for i in range(n):
        if neg[neg[neg[i]]] != neg[i]:
            w = {"element": lat.elements[i]}
            break
    checks.append(Check("triple-negation", w is None, "", w))

    ok = neg[lat.element_index(lat.bottom)] == lat.element_index(lat.top)
    checks.append(Check("zero-negation", ok,
                        "" if ok else f"negation of {lat.bottom!r} is not {lat.top!r}"))

    return VerificationReport("derived-identities", tuple(checks))


def extended_filter_crisp(ms: MSAlgebra, filt: FilterSet, w_subset) -> FilterSet:
    """Crisp extension: elements whose join with every double-negated
    reference element lands in the filter.  That it is a filter containing
    the input (which needs only distributivity, not a valid table) is law
    thm-2.3-extended-filter."""
    lat = ms.lattice
    w_idx = [lat.element_index(w) for w in w_subset]
    if not w_idx:
        raise EmptyW("reference subset W is empty")
    inside = [lat.elements[i] in filt.members for i in range(lat.n)]
    dd = ms.dneg_table()
    members = set()
    for i in range(lat.n):
        if all(inside[lat.join_table[i][dd[w]]] for w in w_idx):
            members.add(lat.elements[i])
    return FilterSet(lat, frozenset(members))


def enumerate_ms_operations(lat: FiniteLattice) -> list[dict[str, str]]:
    """All negation tables satisfying the axioms, in lexicographic order of
    their index tuples.

    By Urquhart's duality for Ockham algebras (A. Urquhart, Studia Logica
    38, 1979), the negations of a distributive lattice are fixed by the
    maps g on its join-irreducibles J that reverse the order and have
    g(g(p)) <= p: the negation of a is the join of {p in J : g(p) </= a}.
    The maps are built one irreducible at a time, pruned by order reversal.
    The duality needs distributivity, so other lattices raise
    NotDistributive.
    """
    n = lat.n
    if n > MS_ENUM_CAP:
        raise SizeCapExceeded(f"{n} elements exceeds cap {MS_ENUM_CAP}")
    leq, join = lat.leq_table, lat.join_table
    down = [sum(1 << j for j in range(n) if leq[j][i]) for i in range(n)]
    hasse = [(lat.index[a], lat.index[b]) for a, b in lat.covers]
    irr = join_irreducibles(lat.elements, hasse, down, lat.meet_table, join)

    maps = [()]
    for k, p in enumerate(irr):
        above = [i for i in range(k) if leq[p][irr[i]]]
        below = [i for i in range(k) if leq[irr[i]][p]]
        maps = [g + (q,) for g in maps for q in irr
                if all(leq[g[i]][q] for i in above) and all(leq[q][g[i]] for i in below)]
    pos = {p: k for k, p in enumerate(irr)}
    bot_i = lat.element_index(lat.bottom)
    tables = sorted(
        tuple(reduce(lambda x, p: join[x][p],
                     (p for p, gp in zip(irr, g) if not leq[gp][a]), bot_i)
              for a in range(n))
        for g in maps if all(leq[g[pos[gp]]][p] for p, gp in zip(irr, g))
    )
    return [{e: lat.elements[t[i]] for i, e in enumerate(lat.elements)} for t in tables]
