"""Executable registry of the algebraic laws, instance generators, and
exhaustive/randomized counterexample search.

Every law has a string id (``lemma-3.2.1`` and friends).  A law check
receives an Instance -- an algebra plus a pool of candidate fuzzy
filters and a grade universe -- and returns the first violation as a
replayable Witness or None.  Most laws are predicates over (chi, W) rows,
visited in one order: chi in pool order, then W in mask order.  The
extensions read W only through its double-negation image D, a subset of
the skeleton S = {x°°}, so each instance builds, once for every law, a
row per chi and D from S by recurrences over D (over ``SKELETON_CAP``
elements of S the scans report an unmet hypothesis).  A stage keyed on
what its verdict reads -- the base grade max chi(D), the set of image
grades, the join of D, whether D holds the top, or ``omg`` -- visits the
first row of each key only; the pair laws, the first W of each pair of
base grades (see ``_STAGES``).  Rows and guards see only integer grade
ranks, which order as the grades do (see ``_Ranks``), and test them with
the row kernels of ``lattice_core``, ``fuzzy_core``, ``extensions`` and
``hom_analysis``; grades come back only in witness data and in
thm-3.1-prime for the rows that its rank gate does not pass.

Instances are generated from a catalog of all bounded distributive
lattices up to a size cap.  The catalog enumerates posets by repeatedly
attaching a maximal element, prunes by the number of down-sets (counted
from the parent poset's), dedupes by a canonical form of the order
relation, and realizes each poset as its lattice of down-sets (which is
exactly the family of bounded distributive lattices, one per poset).
"""

from __future__ import annotations

import os
import random
import struct
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import permutations, product
from operator import attrgetter
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

from .errors import (
    EmptyW,
    HypothesisUnmet,
    InternalInvariantError,
    SizeCapExceeded,
    UnknownProperty,
)
from .extensions import (
    _base_grade,
    _raise_to,
    dense_row,
    fixed_witness_sets,
    omega_row,
    upsilon_row,
)
from .file_format import document_from_objects, document_to_objects, serialize_algebra
from .fixtures import load_fixture
from .fuzzy_core import (
    FuzzySet,
    classify,
    filter_pool,
    is_filter_row,
    is_prime_fuzzy_filter_bounded,
)
from .grades import ONE, ZERO, format_grade
from .hom_analysis import cokernel_row, kernel_row
from .lattice_core import FiniteLattice, build_lattice, enumerate_filters, first_break, is_filter
from .ms_algebra import (
    MSAlgebra,
    enumerate_ms_operations,
    extended_filter_crisp,
    verify_derived_identities,
)
from .report import Record

MAX_ELEMENTS_CAP = 8
SKELETON_CAP = 16  # bound on |S| for the scans over the subsets of the skeleton S


# ---------------------------------------------------------------------------
# instance catalog
# ---------------------------------------------------------------------------

def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _canonical_poset(down: tuple[int, ...]) -> tuple:
    """Canonical encoding of a poset up to isomorphism.

    Elements are partitioned by an iterated degree invariant; the
    encoding is minimized over all partition-respecting relabelings.
    """
    k = len(down)
    if k == 0:
        return ()
    up = [0] * k
    for i in range(k):
        for j in _bits(down[i]):
            up[j] |= 1 << i
    inv: list[Any] = [
        (bin(down[i]).count("1"), bin(up[i]).count("1")) for i in range(k)
    ]
    for _ in range(2):
        inv = [
            (
                inv[i],
                tuple(sorted(inv[j] for j in _bits(down[i]) if j != i)),
                tuple(sorted(inv[j] for j in _bits(up[i]) if j != i)),
            )
            for i in range(k)
        ]
    groups: dict[Any, list[int]] = {}
    for i in range(k):
        groups.setdefault(inv[i], []).append(i)
    ordered_groups = [groups[key] for key in sorted(groups, key=repr)]

    best = None
    for perm_parts in product(*(permutations(g) for g in ordered_groups)):
        relabel = [0] * k
        pos = 0
        for part in perm_parts:
            for old in part:
                relabel[old] = pos
                pos += 1
        pairs = sorted(
            (relabel[j], relabel[i])
            for i in range(k)
            for j in _bits(down[i])
            if j != i
        )
        encoding = (k, tuple(pairs))
        if best is None or encoding < best:
            best = encoding
    return best


def _poset_reps(max_lattice_size: int) -> tuple[tuple, ...]:
    """Posets (up to iso) whose down-set lattice has at most the given size,
    each as (per-element down masks, down-set masks).  A poset grows by a
    new maximal element k above a down-set d: its down-sets are the old ones
    and, for each old one containing d, that one with k."""
    reps: dict[tuple, tuple] = {(): ((), [0])}
    frontier = [reps[()]]
    while frontier:
        next_frontier = []
        for down, ds in frontier:
            k = len(down)
            for d_mask in ds:
                grown = [m | 1 << k for m in ds if m & d_mask == d_mask]
                if len(ds) + len(grown) > max_lattice_size:
                    continue
                extended = down + (d_mask | (1 << k),)
                canon = _canonical_poset(extended)
                if canon not in reps:
                    reps[canon] = (extended, ds + grown)
                    next_frontier.append(reps[canon])
        frontier = next_frontier
    return tuple(reps[c] for c in sorted(reps, key=repr))


def _lattice_from_poset(ds: list[int]) -> FiniteLattice:
    """The lattice of the down-sets ``ds`` of a poset, ordered by inclusion."""
    ds = sorted(ds, key=lambda m: (bin(m).count("1"), tuple(_bits(m))))
    names = {mask: f"e{i}" for i, mask in enumerate(ds)}
    covers = [
        (names[s], names[t])
        for s in ds
        for t in ds
        if s & ~t == 0 and bin(t).count("1") == bin(s).count("1") + 1
    ]
    return build_lattice([names[m] for m in ds], covers)


@lru_cache(maxsize=None)
def lattice_catalog(max_elements: int) -> tuple[FiniteLattice, ...]:
    """All bounded distributive lattices with at most ``max_elements``
    elements, one per isomorphism class, in deterministic order."""
    if max_elements > MAX_ELEMENTS_CAP:
        raise SizeCapExceeded(
            f"max_elements {max_elements} exceeds cap {MAX_ELEMENTS_CAP}"
        )
    if max_elements < 1:
        raise ValueError("max_elements must be at least 1")
    lattices = [_lattice_from_poset(ds) for _, ds in _poset_reps(max_elements)]
    lattices.sort(key=lambda lat: (lat.n, lat.leq_table))
    return tuple(lattices)


@lru_cache(maxsize=None)
def _ms_operations(lat: FiniteLattice) -> tuple[dict, ...]:
    return tuple(enumerate_ms_operations(lat))


# ---------------------------------------------------------------------------
# configuration, instances, witnesses
# ---------------------------------------------------------------------------

class SearchConfig(Record):
    """Every catalog algebra up to ``max_elements`` elements, or, when
    ``iterations`` is given, that many drawn at random by ``seed``.  A
    nonzero ``seed`` without ``iterations`` is refused, not dropped."""

    max_elements: int = 4
    grade_universe: tuple[Fraction, ...] = (ZERO, Fraction(1, 2), ONE)
    seed: int = 0
    iterations: int | None = None

    def __post_init__(self):
        if self.max_elements < 1:
            raise ValueError("max_elements must be at least 1")
        if self.max_elements > MAX_ELEMENTS_CAP:
            raise SizeCapExceeded(
                f"max_elements {self.max_elements} exceeds cap {MAX_ELEMENTS_CAP}"
            )
        universe = tuple(sorted({Fraction(g) for g in self.grade_universe}))
        if ONE not in universe:
            raise ValueError("grade universe must contain 1")
        object.__setattr__(self, "grade_universe", universe)
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("randomized mode needs at least one iteration")
        if self.seed and self.iterations is None:
            raise ValueError("a seed needs iterations (randomized mode)")

    @property
    def mode(self) -> str:
        return "exhaustive" if self.iterations is None else "randomized"

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "max_elements": self.max_elements,
            "grade_universe": [format_grade(g) for g in self.grade_universe],
            "mode": self.mode,
            "require_valid": True,  # every swept table is valid; reports keep the key
        }
        if self.iterations is not None:
            out["seed"] = self.seed
            out["iterations"] = self.iterations
        return out


class Instance(Record):
    """What a law check runs against.

    ``chis`` is the pool of candidate fuzzy filters the check quantifies
    over; ``w_sets`` restricts the reference subsets (None means all
    nonempty subsets of the carrier; given ones must be nonempty subsets).
    """

    ms: MSAlgebra | None
    chis: tuple[FuzzySet, ...]
    grade_universe: tuple[Fraction, ...]
    w_sets: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        if self.ms is None or self.w_sets is None:
            return
        for w in self.w_sets:
            if not w:
                raise EmptyW("reference subset W is empty")
            for e in w:
                self.ms.lattice.element_index(e)

    @cached_property
    def _ranks(self) -> "_Ranks":
        return _Ranks(self)

    @cached_property
    def _rows(self) -> dict:
        """The row table that ``_stage_rows`` fills, shared by every law run
        on the instance."""
        return {}


class Witness(Record):
    """A replayable refutation: rerunning the property on ``instance``
    reproduces the failure."""

    property_id: str
    instance: Instance
    detail: str
    data: Mapping[str, Any] = MappingProxyType({})

    def to_dict(self) -> dict[str, Any]:
        ms = self.instance.ms
        lat = ms.lattice
        named = {}
        for i, c in enumerate(self.instance.chis):
            named["chi" if i == 0 else f"chi{i + 1}"] = c
        doc = document_from_objects(lat, ms, named)
        out: dict[str, Any] = {
            "property": self.property_id,
            "detail": self.detail,
            "elements": list(lat.elements),
            "covers": [list(p) for p in lat.covers],
            "neg": {e: ms.neg[e] for e in lat.elements},
            "fuzzy": {
                name: {e: format_grade(g) for e, g in zip(lat.elements, c.grades)}
                for name, c in named.items()
            },
        }
        if self.instance.w_sets is not None:
            out["w_sets"] = [list(w) for w in self.instance.w_sets]
        if self.data:
            out["data"] = _jsonable(self.data)
        out["document"] = serialize_algebra(doc)
        return out


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_grade(value)
    if isinstance(value, FuzzySet):
        return {e: format_grade(g) for e, g in zip(value.carrier.elements, value.grades)}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return value


# ---------------------------------------------------------------------------
# property registry
# ---------------------------------------------------------------------------

class PropertyRecord(Record):
    pid: str
    summary: str
    check: Callable[[Instance], Witness | None]
    requires_valid_ms: bool = True
    requires_filters: bool = True
    search_target: bool = False
    fixture: str | None = None


_REGISTRY: dict[str, PropertyRecord] = {}


def _law(pid: str, summary: str, **kwargs):
    def decorate(fn):
        _REGISTRY[pid] = PropertyRecord(pid, summary, fn, **kwargs)
        return fn

    return decorate


def properties() -> tuple[PropertyRecord, ...]:
    return tuple(_REGISTRY.values())


def _fail(pid: str, inst: Instance, found, *, chis=None, w=None) -> Witness:
    """Witness from a detail string or (detail, data), on the instance
    narrowed to the failing chis and W."""
    detail, data = (found, None) if isinstance(found, str) else found
    restricted = Instance(
        ms=inst.ms,
        chis=tuple(chis) if chis is not None else inst.chis,
        grade_universe=inst.grade_universe,
        w_sets=(tuple(w),) if w is not None else inst.w_sets,
    )
    return Witness(pid, restricted, detail, data or {})


# ---------------------------------------------------------------------------
# the law table: every law visits (chi, W) rows in one order
# ---------------------------------------------------------------------------

def _named(lat: FiniteLattice, w) -> tuple[tuple[str, ...], tuple[int, ...]]:
    return tuple(w), tuple(lat.element_index(x) for x in w)


class _Image(NamedTuple):
    """A reference subset W by its double-negation image D: W's names and
    indices, the join and meet of D and whether D holds the top; a skeleton
    image also names ``rest``, the index of the image D less its first
    element ``d``, or -1 when D = {d}."""

    w: tuple[str, ...]
    idx: tuple[int, ...]
    join: int
    meet: int
    top: bool
    rest: int = -1
    d: int = -1


def _skeleton_images(lat: FiniteLattice, dd: tuple[int, ...]) -> list[_Image]:
    """Each double-negation image D ⊆ S = {x°°} by its first W in mask
    order, the lowest preimage of each d in D; with S ordered by lowest
    preimage, D in mask order over S keeps its W in mask order.  Entry k is
    the D of mask k + 1."""
    low: dict[int, int] = {}
    for w in range(lat.n):
        low.setdefault(dd[w], w)
    if len(low) > SKELETON_CAP:
        raise SizeCapExceeded(f"|skeleton| = {len(low)} exceeds cap {SKELETON_CAP}")
    skeleton, top = list(low), lat.element_index(lat.top)
    join, meet = lat.join_table, lat.meet_table
    images: list[_Image] = []
    for mask in range(1, 1 << len(skeleton)):
        rest = (mask & (mask - 1)) - 1
        d = skeleton[(mask & -mask).bit_length() - 1]
        r = images[rest] if rest >= 0 else _Image((), (), d, d, False)
        images.append(_Image((lat.elements[low[d]], *r.w), (low[d], *r.idx), join[r.join][d],
                             meet[r.meet][d], r.top or d == top, rest, d))
    return images


def _listed(ms: MSAlgebra, ws) -> list[_Image]:
    """The images of listed (names, indices)."""
    lat, dd = ms.lattice, ms.dneg_table()
    join, meet, top = lat.join_table, lat.meet_table, lat.element_index(lat.top)
    return [_Image(names, idx, reduce(lambda a, b: join[a][b], image),
                   reduce(lambda a, b: meet[a][b], image), top in image)
            for names, idx in ws for image in [[dd[v] for v in idx]]]


def _w_sets(inst: Instance, chi: FuzzySet | None = None) -> list[_Image]:
    """The default W source: the given ``w_sets``, or the first W of each
    double-negation image, all that the extensions read of W."""
    if "images" not in inst._rows:
        lat, dd = inst.ms.lattice, inst.ms.dneg_table()
        inst._rows["images"] = _skeleton_images(lat, dd) if inst.w_sets is None else (
            _listed(inst.ms, [_named(lat, w) for w in inst.w_sets]))
    return inst._rows["images"]


def _listed_w(pick):
    """A W source naming the same subsets, ``pick(lattice)``, for every chi."""
    return lambda inst, chi: _listed(
        inst.ms, [_named(inst.ms.lattice, w) for w in pick(inst.ms.lattice)])


_singletons = _listed_w(lambda lat: [(e,) for e in lat.elements])


class _Ranks:
    """The grades of an instance's pool and universe, 0 and 1, sorted; a
    grade's rank is its position, so rank 0 is grade 0 and ``one`` is the
    rank of 1.  ``rows``: each chi's ranks, in order."""

    __slots__ = ("grades", "one", "rows")

    def __init__(self, inst: Instance):
        pool = {g for chi in inst.chis for g in chi.grades}
        self.grades = tuple(sorted(pool.union(inst.grade_universe, (ZERO, ONE))))
        rank = {g: k for k, g in enumerate(self.grades)}
        self.one = rank[ONE]
        self.rows = [tuple(map(rank.__getitem__, chi.grades)) for chi in inst.chis]


class _Row:
    """One (chi, W) pair of a scan, on integer grade ranks only: ``grades``
    is chi's row of ranks, ``base`` the rank of max chi(w°°) over W, ``ups``
    and ``omg`` the two extensions (``omg`` None outside the default W
    source), ``join`` the join of the image of W and ``top`` whether it
    holds the top.  A law compares ranks with each other, with ``one``, the
    rank of 1, or with 0, the rank of 0, and passes rows to the row
    kernels; ``fuzzy`` turns ranks back into grades."""

    __slots__ = ("ms", "lat", "dd", "scale", "one", "grades", "w", "w_idx",
                 "base", "ups", "omg", "join", "top")

    def __init__(self, ctx: tuple, grades, image: _Image, base: int, ups, omg):
        self.ms, self.lat, self.dd, self.scale, self.one = ctx
        self.w, self.w_idx, self.join, self.top = image.w, image.idx, image.join, image.top
        self.grades, self.base, self.ups, self.omg = grades, base, ups, omg

    def fuzzy(self, ranks: tuple[int, ...]) -> FuzzySet:
        return FuzzySet(self.lat, tuple(map(self.scale.__getitem__, ranks)))


def _recurrences(images: list[_Image], join, grades) -> tuple[list, list]:
    """Each skeleton image's base and omega, from the earlier entry's:
    base(D ∪ {d}) = max(base(D), chi(d)) and
    omg(D ∪ {d})(t) = max(omg(D)(t), chi(t ∨ d))."""
    bases: list[int] = []
    omgs: list[tuple] = []
    single: dict[int, tuple] = {}
    for img in images:
        rest, d = img.rest, img.d
        if rest < 0:
            single[d] = tuple(grades[row[d]] for row in join)
        bases.append(max(bases[rest], grades[d]) if rest >= 0 else grades[d])
        omgs.append(tuple(map(max, omgs[rest], single[d])) if rest >= 0 else single[d])
    return bases, omgs


def _rows(inst: Instance, grades, images: list[_Image], default: bool) -> list[_Row]:
    """Chi's rows over ``images`` from the W source ``_w_sets`` when
    ``default``, else from a listing one: over skeleton images by the
    recurrences, over listed ones by ``_base_grade`` and ``omega_row``.
    Only default rows carry ``omg``, as only the stages on them read it."""
    ms = inst.ms
    if default and inst.w_sets is None:
        bases, omgs = _recurrences(images, ms.lattice.join_table, grades)
    else:
        bases = [_base_grade(ms, grades, img.idx) for img in images]
        omgs = [omega_row(ms, grades, img.idx) if default else None for img in images]
    ups = {b: _raise_to(grades, b) for b in set(bases)}
    ctx = (ms, ms.lattice, ms.dneg_table(), inst._ranks.grades, inst._ranks.one)
    return [_Row(ctx, grades, image, b, ups[b], o) for image, b, o in zip(images, bases, omgs)]


# Keys: what a stage's verdict reads of W.  When the verdict is a function
# of its key, the first failing row is the first row of its key, so a stage
# visits those only and its witness keeps its bytes.
_by_base, _by_ups, _by_omg = attrgetter("base"), attrgetter("ups"), attrgetter("omg")
_by_join, _by_top = attrgetter("base", "join"), attrgetter("base", "top")
_by_base_omg = attrgetter("base", "omg")


def _by_grades(r: _Row) -> frozenset:
    """The set of image grades, whose maximum is the base."""
    return frozenset(r.grades[r.dd[v]] for v in r.w_idx)


# The law table: law id -> its stages, in the order they run for each chi.
# A stage is (test, ws, when, key): ``test`` maps a row to None, a detail
# string, or (detail, data); ``ws`` gives the reference subsets for
# (instance, chi); ``when``, unless None, is given (algebra, chi's rank
# row) and skips the chis that miss the stage's hypothesis; ``key``, unless
# None, is the function of a row (``_by_base`` and friends) through which
# alone ``test`` reads W.
_STAGES: dict[str, list[tuple]] = {}
_PAIR_STAGES: dict[str, tuple] = {}  # pair laws: (test, when on the two rank rows, symmetric)


def _stage_rows(inst: Instance, i: int, ws, key=None) -> list[_Row]:
    """Chi ``i``'s rows for a stage over the W source ``ws``, each key's
    first only, from the instance's row table: (ws, chi, key) -> rows."""
    table = inst._rows
    if (ws, i, key) not in table:
        if (ws, i, None) not in table:
            table[ws, i, None] = _rows(inst, inst._ranks.rows[i], ws(inst, inst.chis[i]),
                                       ws is _w_sets)
        rows = table[ws, i, None]
        if key is not None:
            firsts: dict = {}
            for r in rows:
                firsts.setdefault(key(r), r)
            rows = list(firsts.values())
        table[ws, i, key] = rows
    return table[ws, i, key]


def _holds(inst: Instance, when, i: int) -> bool:
    """``when`` on chi ``i``, evaluated once per instance."""
    if (when, i) not in inst._rows:
        inst._rows[when, i] = when(inst.ms, inst._ranks.rows[i])
    return inst._rows[when, i]


def _scan(pid: str, inst: Instance, *stages: tuple) -> Witness | None:
    """The first failing row: chi in pool order, then the stages in order,
    then W in the stage's order, each key's first row only."""
    if any(ws is _w_sets for _, ws, _, _ in stages):
        _w_sets(inst)  # refuses a skeleton over the cap, whichever chis the stages skip
    for i, chi in enumerate(inst.chis):
        for test, ws, when, key in stages:
            if when is not None and not _holds(inst, when, i):
                continue
            for row in _stage_rows(inst, i, ws, key):
                found = test(row)
                if found is not None:
                    return _fail(pid, inst, found, chis=[chi], w=row.w)
    return None


def _pair_keys(inst: Instance, i: int, j: int) -> list[int]:
    """The index of the first W of each pair of base grades (b1, b2) of
    chis i and j, ascending: the lowest bit of the index masks of b1 for i
    and of b2 for j.  One table per instance, shared by the pair laws."""
    table = inst._rows
    for k in (i, j):
        if ("masks", k) not in table:
            masks = table["masks", k] = {}
            for n, r in enumerate(_stage_rows(inst, k, _w_sets)):
                masks[r.base] = masks.get(r.base, 0) | 1 << n
    if ("pairs", i, j) not in table:
        table["pairs", i, j] = table["pairs", j, i] = sorted(
            (both & -both).bit_length() - 1 for m1 in table["masks", i].values()
            for m2 in table["masks", j].values() if (both := m1 & m2))
    return table["pairs", i, j]


def _pair_scan(pid: str, inst: Instance, test, when, symmetric) -> Witness | None:
    """The first failing (chi1, chi2, W), in that order, as in ``_scan``, on
    the first W of each pair of base grades (b1, b2): all the pair laws read
    of W, as the union's extension is max(union, max(b1, b2)).  A symmetric
    test visits only chi2 at or after chi1: (chi2, chi1) picks the same W
    and verdict as (chi1, chi2), and comes later in row-major order."""
    rows = [_stage_rows(inst, i, _w_sets) for i in range(len(inst.chis))]
    pool = list(zip(inst.chis, inst._ranks.rows))
    for i, (chi1, g1) in enumerate(pool):
        for j in range(i if symmetric else 0, len(pool)):
            chi2, g2 = pool[j]
            if when is not None and not when(g1, g2):
                continue
            for k in _pair_keys(inst, i, j):
                found = test(rows[i][k], rows[j][k])
                if found is not None:
                    return _fail(pid, inst, found, chis=[chi1, chi2], w=rows[i][k].w)
    return None


def _row_law(pid: str, summary=None, ws=_w_sets, when=None, key=None, **kwargs):
    """Register a row predicate as a law.  Without a summary it becomes
    the next stage of the law already registered under ``pid``."""

    def decorate(test):
        if summary is not None:
            _STAGES[pid] = []
            _law(pid, summary, **kwargs)(lambda inst: _scan(pid, inst, *_STAGES[pid]))
        _STAGES[pid].append((test, ws, when, key))
        return test

    return decorate


def _pair_law(pid: str, summary: str, when=None, symmetric=False):
    """Register a law from its predicate over the two rows of a pair;
    ``symmetric`` when swapping the two rows never changes its verdict."""

    def decorate(test):
        _PAIR_STAGES[pid] = (test, when, symmetric)
        _law(pid, summary)(lambda inst: _pair_scan(pid, inst, *_PAIR_STAGES[pid]))
        return test

    return decorate


def _join_hom(ms: MSAlgebra, grades) -> bool:
    return first_break(ms.lattice.join_table, grades, max) is None


_DERIVED_IDENTITY_DETAILS = {
    "join-de-morgan": "negation of join broke",
    "double-negation-join": "double negation over join broke",
    "triple-negation": "triple negation broke",
    "zero-negation": "bottom does not negate to top",
}


@_law(
    "prop-2.1",
    "derived identities: negation of joins, double negation over joins, "
    "triple negation collapse, bottom negates to top",
    requires_filters=False,
)
def _check_prop_2_1(inst: Instance):
    failed = verify_derived_identities(inst.ms).failed()
    if not failed:
        return None
    first = failed[0]
    return _fail("prop-2.1", inst, (_DERIVED_IDENTITY_DETAILS[first.check_id],
                                    dict(first.witness or {})))


def _crisp_scan(pid: str, inst: Instance, test) -> Witness | None:
    """The first (filter, W) on which ``test(lattice, filter, extension)``
    fails: filters in ``enumerate_filters`` order, then W in ``_w_sets``
    order, on the first W of each meet m of its double-negation image D.
    In a distributive lattice, and ``build_lattice`` builds no other, x ∨ d
    lies in a filter F for every d in D exactly when x ∨ m does (F is
    up-closed and meet-closed, and the meet of the x ∨ d is x ∨ m), so the
    crisp extension reads W only through m."""
    ms = inst.ms
    lat, ws = ms.lattice, {}
    for img in _w_sets(inst):
        ws.setdefault(img.meet, img.w)
    for filt in enumerate_filters(lat):
        for w in ws.values():
            found = test(lat, filt, extended_filter_crisp(ms, filt, w))
            if found is not None:
                return _fail(pid, inst, found, w=w)
    return None


def _filter_containing_source(lat: FiniteLattice, filt, ext):
    if not is_filter(lat, ext.members).ok or not filt.members <= ext.members:
        return ("crisp extension is not a filter containing the source",
                {"filter": sorted(filt.members), "result": sorted(ext.members)})


@_law(
    "thm-2.3-extended-filter",
    "the crisp extension of a filter is a filter containing it",
    requires_filters=False,
)
def _check_thm_2_3(inst: Instance):
    return _crisp_scan("thm-2.3-extended-filter", inst, _filter_containing_source)


@_row_law("thm-3.1-filter",
          "the extension of a fuzzy filter is a fuzzy filter containing it",
          key=_by_ups)
def _thm_3_1_filter(r: _Row):
    if any(u < g for u, g in zip(r.ups, r.grades)):
        return "extension lost ground"
    if not is_filter_row(r.lat, r.ups, r.one):
        return "extension is not a fuzzy filter", {"upsilon": list(r.fuzzy(r.ups).grades)}


def _prime_by_cut(lat: FiniteLattice, ups, one) -> bool:
    """Prime relative to any universe: a filter row with values {a, one} whose
    1-cut P is prime (joins keep the larger rank).  If min(phi, psi) <= ups
    with phi(x), psi(y) above it, x, y and x ∨ y lie outside P, where the
    monotone phi and psi both exceed a."""
    return (len(set(ups)) == 2 and is_filter_row(lat, ups, one)
            and first_break(lat.join_table, ups, max) is None)


def _prime_stage(inst: Instance) -> tuple:
    """The one stage of thm-3.1-prime: its test reads the filter pool over
    the instance's grades, 0 and 1, which hold every extension's grades."""
    lat = inst.ms.lattice
    universe = inst._ranks.grades
    # built before any row, so an over-cap universe skips whatever the rows
    filter_pool(lat, universe)

    def test(r: _Row):
        if len(set(r.ups)) == 1 or _prime_by_cut(lat, r.ups, r.one):
            return None  # not a proper filter, or prime by its 1-cut
        ups = r.fuzzy(r.ups)
        prime, pair = is_prime_fuzzy_filter_bounded(lat, ups, universe)
        if not prime:
            phi, psi = pair
            return ("extension is a non-prime fuzzy filter",
                    {"phi": phi, "psi": psi, "upsilon": ups})

    return test, _w_sets, None, _by_ups


_law("thm-3.1-prime", "the extension of a fuzzy filter is a prime fuzzy filter "
     "(known-refutable; kept as a search target)", search_target=True,
     )(lambda inst: _scan("thm-3.1-prime", inst, _prime_stage(inst)))


def _base_subsets(r: _Row):
    """The first z ⊆ W in mask order of each base grade, all ``upsilon_row``
    reads of z: the singleton of the first w in W of that image grade."""
    firsts: dict[int, tuple[int]] = {}
    for v in r.w_idx:
        firsts.setdefault(r.grades[r.dd[v]], (v,))
    return firsts.values()


@_row_law("lemma-3.2.1", "monotone in the reference subset", key=_by_grades)
def _lemma_3_2_1(r: _Row):
    for z in _base_subsets(r):
        if any(a > b for a, b in zip(upsilon_row(r.ms, r.grades, z), r.ups)):
            return ("extension shrank when W grew",
                    {"z": [r.lat.elements[i] for i in z]})


@_pair_law("lemma-3.2.2", "monotone in the fuzzy filter",
           when=lambda g1, g2: all(a <= b for a, b in zip(g1, g2)))
def _lemma_3_2_2(r1: _Row, r2: _Row):
    if any(a > b for a, b in zip(r1.ups, r2.ups)):
        return "extension not monotone in the filter"


@_row_law("lemma-3.2.3", "no growth at points above the whole double-negation image",
          key=_by_join)
def _lemma_3_2_3(r: _Row):
    leq = r.lat.leq_table
    for t in range(r.lat.n):
        if all(leq[r.dd[v]][t] for v in r.w_idx) and r.ups[t] != r.grades[t]:
            return "extension moved a dominating point", {"theta": r.lat.elements[t]}


@_row_law("lemma-3.2.4",
          "for injective filters, an unmoved point dominates the image",
          when=lambda ms, grades: len(set(grades)) == ms.lattice.n, key=_by_join)
def _lemma_3_2_4(r: _Row):
    leq = r.lat.leq_table
    for t in range(r.lat.n):
        if r.ups[t] == r.grades[t] and not all(leq[r.dd[v]][t] for v in r.w_idx):
            return "unmoved point fails to dominate", {"theta": r.lat.elements[t]}


@_row_law("lemma-3.2.5",
          "a reference element double-negating to the top forces the constant one",
          key=_by_top)
def _lemma_3_2_5(r: _Row):
    top_i = r.lat.element_index(r.lat.top)
    if any(r.dd[v] == top_i for v in r.w_idx) and any(g != r.one for g in r.ups):
        return "extension missed the constant one"


@_row_law("lemma-3.2.6",
          "extension over the whole carrier, or over the top alone, is constant one",
          ws=_listed_w(lambda lat: [lat.elements, (lat.top,)]))
def _lemma_3_2_6(r: _Row):
    if any(g != r.one for g in r.ups):
        return "extension over a unit-reaching subset is not one"


@_row_law("lemma-3.2.7", "a point of grade one comes from the filter or from the image",
          key=_by_base)
def _lemma_3_2_7(r: _Row):
    if any(r.grades[r.dd[v]] == r.one for v in r.w_idx):
        return None  # the image supplies grade one
    for t in range(r.lat.n):
        if r.ups[t] == r.one and r.grades[t] != r.one:
            return "grade one appeared from nowhere", {"theta": r.lat.elements[t]}


@_pair_law("prop-3.3.1", "extension of a union is the join of the extensions",
           symmetric=True)
def _prop_3_3_1(r1: _Row, r2: _Row):
    union = tuple(map(max, r1.grades, r2.grades))
    if tuple(map(max, r1.ups, r2.ups)) != upsilon_row(r1.ms, union, r1.w_idx):
        return "union and extension do not commute"


@_row_law("prop-3.3.2", "the extension maps meets to minima", key=_by_ups)
def _prop_3_3_2(r: _Row):
    pair = first_break(r.lat.meet_table, r.ups, min)
    if pair is not None:
        return "extension broke the meet equality", {"pair": [r.lat.elements[k] for k in pair]}


@_row_law("def-3.4-consistency",
          "both fixedness routes agree, and the canonical subsets never move "
          "a fuzzy filter", key=_by_base)
def _fixedness_routes_agree(r: _Row):
    if (r.ups == r.grades) != (r.base <= min(r.grades)):
        return "fixedness routes disagree"


def _canonical_w_sets(inst: Instance, chi: FuzzySet):
    lat = inst.ms.lattice
    return _listed(inst.ms, [
        _named(lat, sorted(c.members, key=lat.element_index))
        for c in fixed_witness_sets(inst.ms, chi) if c.members
    ])


@_row_law("def-3.4-consistency", ws=_canonical_w_sets)
def _canonical_stays_fixed(r: _Row):
    if r.ups != r.grades:
        return "a canonical subset moved the filter"


@_row_law("prop-3.6", "fixedness is inherited by nonempty subsets of W", key=_by_grades)
def _prop_3_6(r: _Row):
    if r.ups != r.grades:
        return None
    for z in _base_subsets(r):
        if upsilon_row(r.ms, r.grades, z) != r.grades:
            return ("fixedness not inherited by a subset",
                    {"z": [r.lat.elements[i] for i in z]})


@_pair_law("prop-3.7", "a union of fixed filters is fixed", symmetric=True)
def _prop_3_7(r1: _Row, r2: _Row):
    if r1.ups == r1.grades and r2.ups == r2.grades:
        union = tuple(map(max, r1.grades, r2.grades))
        if upsilon_row(r1.ms, union, r1.w_idx) != union:
            return "union of fixed filters moved"


@_row_law("thm-3.8", "singleton extensions evaluate to a two-way maximum",
          ws=_singletons, key=_by_base)
def _thm_3_8(r: _Row):
    image_grade = r.grades[r.dd[r.w_idx[0]]]
    if r.ups != tuple(max(g, image_grade) for g in r.grades):
        return "singleton extension is not the two-way maximum"


@_row_law("cor-3.9",
          "a singleton extension value differing from the image grade is the "
          "original grade",
          ws=_singletons, key=_by_base)
def _cor_3_9(r: _Row):
    image_grade = r.grades[r.dd[r.w_idx[0]]]
    for t in range(r.lat.n):
        if r.ups[t] != image_grade and r.ups[t] != r.grades[t]:
            return ("dichotomy of singleton extension broke",
                    {"theta": r.lat.elements[t]})


@_row_law("cor-3.10",
          "a singleton extension at its own reference point is the image grade",
          ws=_singletons)
def _cor_3_10(r: _Row):
    w_i = r.w_idx[0]
    if r.ups[w_i] != r.grades[r.dd[w_i]]:
        return "extension at the reference point is off"


@_row_law("def-4.1-consistency",
          "the strong extension fixes the bottom singleton, grows the source, "
          "and keeps the unit",
          ws=_listed_w(lambda lat: [(lat.bottom,)]))
def _omega_keeps_bottom_fixed(r: _Row):
    if omega_row(r.ms, r.grades, r.w_idx) != r.grades:
        return "strong extension over the bottom moved the filter"


@_row_law("def-4.1-consistency", key=_by_omg)
def _omega_grows_and_keeps_unit(r: _Row):
    if any(o < g for o, g in zip(r.omg, r.grades)):
        return "strong extension lost ground"
    if r.omg[r.lat.element_index(r.lat.top)] != r.one:
        return "strong extension lost the unit"


@_row_law("upsilon-subset-omega", "the extension sits inside the strong extension",
          key=_by_base_omg)
def _upsilon_subset_omega(r: _Row):
    if any(u > o for u, o in zip(r.ups, r.omg)):
        return "extension escaped the strong extension"


@_row_law("thm-4.3",
          "the strong extension of a fuzzy filter is a fuzzy filter "
          "(refutable for reference subsets with two or more elements: separate "
          "maxima need not commute with the meet)",
          key=_by_omg)
def _thm_4_3(r: _Row):
    if not is_filter_row(r.lat, r.omg, r.one):
        return "strong extension is not a fuzzy filter", {"omega": r.fuzzy(r.omg)}


@_row_law("remark-4.4",
          "for join-homomorphic filters the two extensions coincide",
          when=_join_hom, key=_by_base_omg)
def _remark_4_4(r: _Row):
    if r.ups != r.omg:
        return "extensions split despite join-homomorphism"


@_row_law("thm-4.7", "the extension evaluates through any dense element of the image",
          key=_by_base)
def _thm_4_7(r: _Row):
    d = min(dense_row(r.grades, {r.dd[v] for v in r.w_idx})[1])  # dense elements share a grade
    for t in range(r.lat.n):
        if r.ups[t] != max(r.grades[t], r.grades[d]):
            return ("dense-element evaluation is off",
                    {"dense": r.lat.elements[d], "theta": r.lat.elements[t]})


@_row_law("thm-4.8",
          "the strong extension hits a join exactly when that join is dense "
          "among the candidate joins")
def _thm_4_8(r: _Row):
    lat, grades = r.lat, r.grades
    image = [r.dd[v] for v in r.w_idx]
    for t, row in enumerate(lat.join_table):
        joins = [grades[row[d]] for d in image]
        top, hit = max(joins), r.omg[t]
        if hit == top:
            continue  # then each join's grade is the hit exactly when it is the top
        for v, g in zip(r.w_idx, joins):
            # the join is dense among the candidate joins when its grade is the top one
            if (g == hit) != (g == top):
                return ("dense reading of the strong extension broke",
                        {"theta": lat.elements[t], "w": lat.elements[v]})


@_row_law("thm-5.1",
          "join-homomorphic filters extend to lattice homomorphisms, and the "
          "grade-level double negation is inherited",
          when=_join_hom, key=_by_ups)
def _ups_is_lattice_hom(r: _Row):
    if not (_join_hom(r.ms, r.ups) and first_break(r.lat.meet_table, r.ups, min) is None):
        return "extension is not a lattice homomorphism"


def _dd_compatible(ms: MSAlgebra, grades) -> bool:
    dd = ms.dneg_table()
    return all(grades[dd[i]] == grades[i] for i in range(ms.lattice.n))


@_row_law("thm-5.1", when=_dd_compatible, key=_by_ups)
def _ups_dd_compatible(r: _Row):
    if any(r.ups[r.dd[i]] != r.ups[i] for i in range(r.lat.n)):
        return "double-negation compatibility not inherited"


@_row_law("prop-5.2",
          "kernel of the extension: killed by the source and the whole image "
          "killed", key=_by_base)
def _prop_5_2(r: _Row):
    if not kernel_row(r.ms, r.grades, r.ups, r.w_idx, 0):
        return "kernel characterization broke"


@_row_law("prop-5.3",
          "cokernel of the extension: unit grade at the source or in the image",
          key=_by_base)
def _prop_5_3(r: _Row):
    if not cokernel_row(r.ms, r.grades, r.ups, r.w_idx, r.one):
        return "cokernel characterization broke"


def _fibers(grades) -> list[list[int]]:
    by_value: dict[Any, list[int]] = {}
    for i, g in enumerate(grades):
        by_value.setdefault(g, []).append(i)
    return list(by_value.values())


def _fiber_break(r: _Row, table):
    """The first pair inside one fiber of the extension whose meet or join
    (per ``table``) leaves the fiber."""
    for fiber in _fibers(r.ups):
        members = set(fiber)
        for i in fiber:
            for j in fiber:
                if table[i][j] not in members:
                    return [r.lat.elements[i], r.lat.elements[j]]
    return None


@_row_law("lemma-5.4-meet", "fibers of the extension are meet-closed", key=_by_ups)
def _lemma_5_4_meet(r: _Row):
    pair = _fiber_break(r, r.lat.meet_table)
    return None if pair is None else ("a fiber is not meet-closed", {"pair": pair})


@_row_law("lemma-5.4-join",
          "for join-homomorphic filters, fibers of the extension are join-closed",
          when=_join_hom, key=_by_ups)
def _lemma_5_4_join(r: _Row):
    pair = _fiber_break(r, r.lat.join_table)
    return None if pair is None else ("a fiber is not join-closed", {"pair": pair})


@_law(
    "example-4.2-validity",
    "the shipped seven-element fixture has a valid negation table "
    "(known-refutable; its table breaks two axioms)",
    requires_valid_ms=False,
    requires_filters=False,
    search_target=True,
    fixture="example4_printed",
)
def _check_example_4_2(inst: Instance):
    report = inst.ms.axiom_report
    if report.ok:
        return None
    failed = report.failed()
    pick = next(
        (c for c in failed if c.check_id == "double-negation-above"), failed[0]
    )
    return _fail("example-4.2-validity", inst,
                 ("negation table violates the axioms",
                  {"check": pick.check_id, "witness": dict(pick.witness or {})}))


THEOREM_SUITE: tuple[str, ...] = tuple(
    rec.pid for rec in _REGISTRY.values()
    if not rec.search_target and rec.fixture is None
)


# ---------------------------------------------------------------------------
# running properties
# ---------------------------------------------------------------------------

def document_instance(doc) -> Instance:
    """The instance a document describes: its named maps that are fuzzy
    filters, over their grades together with 0 and 1."""
    lat, ms, named = document_to_objects(doc)
    chis = tuple(fs for fs in named.values() if classify(lat, fs).is_filter)
    universe = tuple(sorted(
        {g for fs in named.values() for g in fs.grades} | {ZERO, ONE}
    ))
    return Instance(ms=ms, chis=chis, grade_universe=universe)


def fixture_instance(name: str) -> Instance:
    return document_instance(load_fixture(name))


def run_property(pid: str, instance: Instance) -> Witness | None:
    """Deterministic verdict for one law on one instance; None means pass."""
    record = _REGISTRY.get(pid)
    if record is None:
        raise UnknownProperty(f"no law registered under {pid!r}")
    if record.fixture is not None:
        instance = fixture_instance(record.fixture)
    if instance.ms is None:
        raise HypothesisUnmet(pid, "instance has no negation table")
    if record.requires_valid_ms and not instance.ms.is_valid:
        raise HypothesisUnmet(pid, "negation table violates the axioms")
    if record.requires_filters and not instance.chis:
        raise HypothesisUnmet(pid, "no fuzzy filters available on the instance")
    try:
        return record.check(instance)
    except SizeCapExceeded as exc:  # a filter pool or a skeleton too large to scan
        raise HypothesisUnmet(pid, str(exc)) from None


# ---------------------------------------------------------------------------
# sweeping and searching
# ---------------------------------------------------------------------------

class PropertyOutcome(Record):
    pid: str
    instances: int
    passes: int
    failures: int
    skips: int
    first_witness: Witness | None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.pid,
            "instances": self.instances,
            "passes": self.passes,
            "failures": self.failures,
            "skips": self.skips,
        }
        if self.first_witness is not None:
            out["first_witness"] = self.first_witness.to_dict()
        return out


class SweepReport(Record):
    config: SearchConfig
    outcomes: tuple[PropertyOutcome, ...]
    stats: dict[str, int]

    @property
    def ok(self) -> bool:
        """Every law checked at least one instance and none failed."""
        return all(o.failures == 0 and o.instances > 0 for o in self.outcomes)

    def outcome(self, pid: str) -> PropertyOutcome:
        for o in self.outcomes:
            if o.pid == pid:
                return o
        raise KeyError(pid)

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "ok": self.ok,
            "properties": [o.to_dict() for o in self.outcomes],
            "stats": dict(sorted(self.stats.items())),
        }


def _instance_stream(cfg: SearchConfig):
    if cfg.iterations is None:
        for lat in lattice_catalog(cfg.max_elements):
            pool = filter_pool(lat, cfg.grade_universe)
            for neg in _ms_operations(lat):
                yield Instance(MSAlgebra(lat, dict(neg)), pool, cfg.grade_universe)
    else:
        rng = random.Random(cfg.seed)
        # not every distributive lattice carries a valid negation
        candidates = [
            lat for lat in lattice_catalog(cfg.max_elements) if _ms_operations(lat)
        ]
        for _ in range(cfg.iterations):
            lat = rng.choice(candidates)
            neg = rng.choice(_ms_operations(lat))
            pool = filter_pool(lat, cfg.grade_universe)
            yield Instance(MSAlgebra(lat, dict(neg)), pool, cfg.grade_universe)


def _neg_closure_stats(inst: Instance) -> tuple[int, int]:
    """How often fibers of the extension are closed under negation, over
    every chi and nonempty W (a sweep lists no W).  The extension is
    max(chi, b) for the base grade b of W, so it is read once per (chi, b),
    from the row table, and weighs 2^#{w : chi(w°°) <= b} - 2^#{w : chi(w°°) < b},
    the number of W with base b.

    Observational only: the meet/join closure of fibers is a law, the
    negation closure is not claimed anywhere and is merely counted.
    """
    neg, dd = inst.ms.neg_table, inst.ms.dneg_table()
    closed = total = 0
    for k, grades in enumerate(inst._ranks.rows):
        image = [grades[d] for d in dd]
        for r in _stage_rows(inst, k, _w_sets, _by_base):
            weight = (1 << sum(g <= r.base for g in image)) - (1 << sum(g < r.base for g in image))
            for fiber in _fibers(r.ups):
                total += weight
                closed += weight * all(neg[i] in fiber for i in fiber)
    return closed, total


def _tally(row: list[int], pid: str, inst: Instance, k: int) -> None:
    """Count one verdict of a law on instance ``k`` into ``row``: instances,
    passes, failures, skips and the lowest failing index."""
    try:
        witness = run_property(pid, inst)
    except HypothesisUnmet:
        row[3] += 1
        return
    row[0] += 1
    if witness is None:
        row[1] += 1
    else:
        row[2] += 1
        row[4] = min(row[4], k)


def _sweep_part(pids: list[str], stream: list[Instance], j: int, parts: int
                ) -> list[int]:
    """Part ``j`` of ``parts`` of a sweep: the instances whose index is j mod
    parts.  Integers only: a ``_tally`` row per law (the lowest failing
    index is len(stream) when none failed), then the two closure sums."""
    rows = [[0, 0, 0, 0, len(stream)] for _ in pids]
    closed = total = 0
    for k in range(j, len(stream), parts):
        s = stream[k]
        inst = Instance(s.ms, s.chis, s.grade_universe)  # its row table is dropped with it
        for row, pid in zip(rows, pids):
            _tally(row, pid, inst, k)
        c, t = _neg_closure_stats(inst)
        closed += c
        total += t
    return [x for row in rows for x in row] + [closed, total]


def _sweep_worker(fd: int, pids, stream, j: int, parts: int):
    """Body of a forked sweep worker: write part ``j`` to the pipe ``fd`` as
    native 64-bit integers.  It leaves only through ``os._exit``, so it runs
    no atexit handler and flushes no stdio buffer inherited from the parent."""
    status = 1
    try:
        with open(fd, "wb") as pipe:
            ints = _sweep_part(pids, stream, j, parts)
            pipe.write(struct.pack(f"{len(ints)}q", *ints))
        status = 0
    except BaseException:
        import traceback  # only a failing worker pays for the import

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _split_sweep(pids: list[str], stream: list[Instance]) -> list[int]:
    """``_sweep_part`` over the whole stream, split across the CPUs this
    process may run on: part 0 runs here, each other part in a forked
    worker that sends back its integers.  Counts add up and lowest failing
    indices take their minimum, so the result does not depend on the
    split.  Workers are forked, not spawned, so they inherit the stream and
    the filled catalog caches instead of rebuilding them; nothing in
    msfuzz starts a thread.  A worker that raises, dies or sends short
    makes this raise; no worker outlives the call."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = max(1, min(cpus, len(stream)))
    fmt = f"{5 * len(pids) + 2}q"
    size = struct.calcsize(fmt)
    workers, reaped = [], set()
    try:
        for j in range(1, parts):
            read_fd, write_fd = os.pipe()
            child = os.fork()
            if child == 0:
                os.close(read_fd)
                _sweep_worker(write_fd, pids, stream, j, parts)
            os.close(write_fd)
            workers.append((child, read_fd))
        results = [_sweep_part(pids, stream, 0, parts)]
        for j, (child, read_fd) in enumerate(workers, 1):
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(child, 0)[1])
            reaped.add(child)
            if code != 0 or len(data) != size:
                raise InternalInvariantError(
                    f"sweep worker {j} of {parts - 1} exited with code {code} "
                    f"after sending {len(data)} of {size} bytes"
                )
            results.append(struct.unpack(fmt, data))
    finally:
        for child, read_fd in workers:
            os.close(read_fd)
            if child not in reaped:
                import signal  # only a sweep that failed pays for the import

                os.kill(child, signal.SIGKILL)
                os.waitpid(child, 0)
    merged = [sum(col) for col in zip(*results)]
    for i in range(4, 5 * len(pids), 5):
        merged[i] = min(r[i] for r in results)
    return merged


def sweep(pids=None, cfg: SearchConfig | None = None) -> SweepReport:
    """Run a set of laws over the whole instance space of a config.  The
    instances are split across the usable CPUs (see ``_split_sweep``); the
    first witness of a law is replayed at its lowest failing index, so the
    report is the same for every split."""
    cfg = cfg or SearchConfig()
    if pids is None:
        selected = [r.pid for r in _REGISTRY.values() if r.fixture is None]
    else:
        selected = list(dict.fromkeys(pids))  # a repeated id runs once
        if not selected:
            raise UnknownProperty("no law selected")
        for pid in selected:
            if pid not in _REGISTRY:
                raise UnknownProperty(f"no law registered under {pid!r}")

    rows, runs_on = {}, {}
    for pid in selected:  # fixture laws run first, in this process
        fixture = _REGISTRY[pid].fixture
        if fixture is not None:
            runs_on[pid] = [fixture_instance(fixture)]
            rows[pid] = [0, 0, 0, 0, 1]
            _tally(rows[pid], pid, runs_on[pid][0], 0)
    stream_pids = [p for p in selected if p not in rows]
    stream = list(_instance_stream(cfg))
    merged = _split_sweep(stream_pids, stream)
    for i, pid in enumerate(stream_pids):
        runs_on[pid], rows[pid] = stream, merged[5 * i:5 * i + 5]

    outcomes = []
    for pid in selected:
        instances, passes, failures, skips, first = rows[pid]
        witness = run_property(pid, runs_on[pid][first]) if failures else None
        if failures and witness is None:
            raise InternalInvariantError(f"{pid}: a counted failure did not replay")
        outcomes.append(
            PropertyOutcome(pid, instances, passes, failures, skips, witness)
        )
    stats = {
        "inverse_class_neg_closed": merged[-2],
        "inverse_class_fibers": merged[-1],
    }
    return SweepReport(cfg, tuple(outcomes), stats)


def search_counterexample(pid: str, cfg: SearchConfig | None = None
                          ) -> Witness | None:
    """First witness refuting one law within the config bounds, or None.
    Raises the first HypothesisUnmet when no instance meets the law's
    hypotheses, so that checking nothing is never reported as a pass."""
    cfg = cfg or SearchConfig()
    record = _REGISTRY.get(pid)
    if record is None:
        raise UnknownProperty(f"no law registered under {pid!r}")
    if record.fixture is not None:
        return run_property(pid, fixture_instance(record.fixture))
    unmet, checked = None, False
    for inst in _instance_stream(cfg):
        try:
            witness = run_property(pid, inst)
        except HypothesisUnmet as exc:
            unmet = unmet or exc
            continue
        if witness is not None:
            return witness
        checked = True
    if not checked:
        raise unmet or HypothesisUnmet(pid, "no instance within the bounds")
    return None
