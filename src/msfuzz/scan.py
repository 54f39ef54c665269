"""The row engine of the law registry: instances, witnesses, the registry
itself, and the (chi, W) rows that the law predicates read.

Every law has a string id (``lemma-3.2.1`` and friends).  A law check
receives an Instance -- an algebra plus a pool of candidate fuzzy
filters and a grade universe -- and returns the first violation as a
replayable Witness or None.  Most laws are predicates over (chi, W) rows,
visited in one order: chi in pool order, then W in mask order.  The
extensions read W only through its double-negation image D, a subset of
the skeleton S = {x°°}, so each instance builds, once for every law, a
row per chi and D from S: the packed omegas (see ``_Ranks``) come from a
recurrence over D, one column per chi, and each base max chi(D) is its
omega at the bottom, as ⊥ ∨ d = d (over ``SKELETON_CAP`` elements of S
the scans report an unmet hypothesis).  A stage keyed on what its
verdict reads -- the base, which fixes ``ups``; the set of image grades;
the base, join of D and whether D holds the top; or the packed ``omg``,
which fixes the base -- visits the first row of each key only (see
``_STAGES``); a pair law visits each ordered pair of chis, then every
row of the default W source.  Four laws settle most chis without a scan
(see ``_SETTLED``): ``_settled`` checks, once per chi, that its omega
column is what a kernel that calls no recurrence computes from the
definition, and that each base raises chi to the extension that the
definition of upsilon gives.  thm-4.8 passes each chi that holds both,
the pair laws an instance whose chis all do; any other chi or instance
is scanned row by row.
Rows and guards see only integer grade ranks, which order as the grades
do (see ``_Ranks``), and test them with the row kernels of
``lattice_core``, ``fuzzy_core``, ``extensions`` and ``hom_analysis``;
grades come back only in witness data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from operator import attrgetter
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

from .errors import CarrierMismatch, EmptyW, SizeCapExceeded
from .extensions import _base_grade, _raise_to, omega_row
from .file_format import document_from_objects, serialize_algebra
from .fuzzy_core import FuzzySet
from .grades import ONE, ZERO, format_grade
from .lattice_core import FiniteLattice
from .ms_algebra import MSAlgebra
from .report import Record

SKELETON_CAP = 16  # bound on |S| for the scans over the subsets of the skeleton S


class Instance(Record):
    """What a law check runs against.

    ``chis`` is the pool of candidate fuzzy filters the check quantifies
    over; ``w_sets`` restricts the reference subsets (None means all
    nonempty subsets of the carrier; else at least one, each nonempty).
    """

    ms: MSAlgebra | None
    chis: tuple[FuzzySet, ...]
    grade_universe: tuple[Fraction, ...]
    w_sets: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        if self.w_sets is not None and not self.w_sets:
            raise EmptyW("no reference subset W is listed")
        if self.ms is None:
            return
        lat = self.ms.lattice
        if any(chi.carrier != lat for chi in self.chis):
            raise CarrierMismatch("grade map does not live on the algebra's lattice")
        for w in self.w_sets or ():
            if not w:
                raise EmptyW("reference subset W is empty")
            for e in w:
                lat.element_index(e)

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
    return value


# ---------------------------------------------------------------------------
# property registry
# ---------------------------------------------------------------------------

class PropertyRecord(Record):
    pid: str
    summary: str
    check: Callable[[Instance], Witness | None]
    requires_filters: bool = True
    search_target: bool = False
    fixture: str | None = None


_REGISTRY: dict[str, PropertyRecord] = {}


def _law(pid: str, summary: str, **kwargs):
    def decorate(fn):
        _REGISTRY[pid] = PropertyRecord(pid, summary, fn, **kwargs)
        return fn

    return decorate


def _fail(pid: str, inst: Instance, found, *, chis=None, w_idx=None) -> Witness:
    """Witness from a detail string or (detail, data), on the instance
    narrowed to the failing chis and W, given by its element indices."""
    detail, data = (found, None) if isinstance(found, str) else found
    restricted = Instance(
        ms=inst.ms,
        chis=tuple(chis) if chis is not None else inst.chis,
        grade_universe=inst.grade_universe,
        w_sets=(tuple(inst.ms.lattice.elements[v] for v in w_idx),) if w_idx is not None
        else inst.w_sets,
    )
    return Witness(pid, restricted, detail, data or {})


# ---------------------------------------------------------------------------
# the law table: every law visits (chi, W) rows in one order
# ---------------------------------------------------------------------------

class _Image(NamedTuple):
    """A reference subset W by its double-negation image D: W's element
    indices, the join and meet of D and whether D holds the top; a skeleton
    image also names ``rest``, the index of the image D less its first
    element ``d``, or -1 when D = {d}."""

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
        r = images[rest] if rest >= 0 else _Image((), d, d, False)
        images.append(_Image((low[d], *r.idx), join[r.join][d], meet[r.meet][d],
                             r.top or d == top, rest, d))
    return images


def _listed(ms: MSAlgebra, ws) -> list[_Image]:
    """The images of listed W, each given by its element names."""
    lat, dd = ms.lattice, ms.dneg_table()
    join, meet, top = lat.join_table, lat.meet_table, lat.element_index(lat.top)
    return [_Image(idx, reduce(lambda a, b: join[a][b], image),
                   reduce(lambda a, b: meet[a][b], image), top in image)
            for w in ws for idx in [tuple(map(lat.element_index, w))]
            for image in [[dd[v] for v in idx]]]


def _once(inst: Instance, key, make):
    """``make()``, once per instance and ``key``, in the row table."""
    if key not in inst._rows:
        inst._rows[key] = make()
    return inst._rows[key]


def _w_sets(inst: Instance, chi: FuzzySet | None = None) -> list[_Image]:
    """The default W source: the given ``w_sets``, or the first W of each
    double-negation image, all that the extensions read of W."""
    ms = inst.ms
    return _once(inst, "images", lambda: _skeleton_images(ms.lattice, ms.dneg_table())
                 if inst.w_sets is None else _listed(ms, inst.w_sets))


def _listed_w(pick):
    """The W source ``pick(lattice)`` for every chi, its images once per instance."""
    return lambda inst, chi: _once(inst, pick, lambda: _listed(inst.ms, pick(inst.ms.lattice)))


_singletons = _listed_w(lambda lat: [(e,) for e in lat.elements])


class _Ranks:
    """The grades of an instance's pool and universe, 0 and 1, sorted; a
    grade's rank is its position, so rank 0 is grade 0 and ``one`` is the
    rank of 1.  ``rows``: each chi's ranks, in order.  Grades are told
    apart by ``as_integer_ratio()``, lowest terms, which is cheaper than
    hashing a ``Fraction``.  An omega column packs into one int: rank r is
    r low one-bits in a field of ``k`` bytes per element (element t's at
    byte k·t), the fewest that hold ``one``.  So the entrywise max of two
    columns is their ``|``, the min their ``&``, and a field's rank its bit
    length."""

    __slots__ = ("grades", "one", "rows", "n", "k", "fields")
    _BITS = bytes(b.bit_length() for b in range(256))

    def __init__(self, inst: Instance):
        by_ratio = {g.as_integer_ratio(): g for chi in inst.chis for g in chi.grades}
        by_ratio.update((g.as_integer_ratio(), g) for g in (*inst.grade_universe, ZERO, ONE))
        self.grades = tuple(sorted(by_ratio.values()))
        rank = {g.as_integer_ratio(): k for k, g in enumerate(self.grades)}
        self.one = rank[ONE.as_integer_ratio()]
        self.rows = [tuple([rank[g.as_integer_ratio()] for g in chi.grades])
                     for chi in inst.chis]
        self.n, self.k = inst.ms.lattice.n, -(-self.one // 8)
        self.fields = [((1 << r) - 1).to_bytes(self.k, "little") for r in range(self.one + 1)]

    def pack(self, ranks) -> int:
        return int.from_bytes(b"".join(map(self.fields.__getitem__, ranks)), "little")

    def unpack(self, column: int) -> tuple[int, ...]:
        data = column.to_bytes(self.n * self.k, "little").translate(self._BITS)
        return tuple(data) if self.k == 1 else tuple(map(sum, zip(*[iter(data)] * self.k)))

    def at(self, column: int, t: int) -> int:
        return ((column >> 8 * self.k * t) & ((1 << 8 * self.k) - 1)).bit_length()


class _Row:
    """One (chi, W) pair of a scan, on integer grade ranks only: ``grades``
    is chi's row of ranks, ``base`` the rank of max chi(w°°) over W, ``ups``
    the extension, ``packed`` the strong extension's column, packed as
    ``_Ranks`` packs (None outside the default W source), ``omg`` its ranks,
    decoded when first read, ``join`` the join of the image of W and
    ``top`` whether it holds the top.  A law compares ranks with each
    other, with ``one``, the rank of 1, or with 0, the rank of 0, and passes
    rows to the row kernels; ``fuzzy`` turns ranks back into grades."""

    __slots__ = ("ms", "lat", "dd", "scale", "one", "unpack", "grades", "w_idx", "base", "ups",
                 "packed", "_omg", "join", "top")

    def __init__(self, ctx: tuple, grades, image: _Image, base: int, ups, packed):
        self.ms, self.lat, self.dd, self.scale, self.one, self.unpack = ctx
        self.w_idx, self.join, self.top = image.idx, image.join, image.top
        self.grades, self.base, self.ups, self.packed, self._omg = grades, base, ups, packed, None

    @property
    def omg(self) -> tuple[int, ...]:
        if self._omg is None:
            self._omg = self.unpack(self.packed)
        return self._omg

    def fuzzy(self, ranks: tuple[int, ...]) -> FuzzySet:
        return FuzzySet(self.lat, tuple(map(self.scale.__getitem__, ranks)))


def _recurrences(images: list[_Image], join, grades, pack) -> list[int]:
    """Each skeleton image's packed omega, from the earlier entry's:
    omg(D ∪ {d})(t) = max(omg(D)(t), chi(t ∨ d)), a ``|`` of columns."""
    omgs, single = [], {}
    for img in images:
        rest, d = img.rest, img.d
        if rest < 0:
            single[d] = pack([grades[row[d]] for row in join])
        omgs.append(omgs[rest] | single[d] if rest >= 0 else single[d])
    return omgs


def _columns(inst: Instance, grades) -> list[int]:
    """The packed omega of each image of the default W source for chi's
    rank row ``grades``: over skeleton images by the recurrence, over
    listed ones by ``omega_row``.  Each base is its column's field at the
    bottom, since ⊥ ∨ d = d.  Once per chi, in the row table, for its rows
    and for ``_settled``."""
    ms, images, pack = inst.ms, _w_sets(inst), inst._ranks.pack
    return _once(inst, ("columns", grades), lambda: (
        _recurrences(images, ms.lattice.join_table, grades, pack) if inst.w_sets is None
        else [pack(omega_row(ms, grades, img.idx)) for img in images]))


def _rows(inst: Instance, i: int, ws) -> list[_Row]:
    """Chi ``i``'s rows over the W source ``ws``: for ``_w_sets``, each
    base read off its ``_columns`` column at the bottom, else by
    ``_base_grade``.  Only ``_w_sets`` rows carry ``omg``, as only the
    stages on them read it."""
    ms, ranks, images = inst.ms, inst._ranks, ws(inst, inst.chis[i])
    grades, bottom = ranks.rows[i], ms.lattice.element_index(ms.lattice.bottom)
    if ws is _w_sets:
        omgs = _columns(inst, grades)
        bases = [ranks.at(o, bottom) for o in omgs]
    else:
        omgs, bases = [None] * len(images), [_base_grade(ms, grades, img.idx) for img in images]
    ups = {b: _raise_to(grades, b) for b in set(bases)}
    ctx = (ms, ms.lattice, ms.dneg_table(), ranks.grades, ranks.one, ranks.unpack)
    return [_Row(ctx, grades, image, b, ups[b], o) for image, b, o in zip(images, bases, omgs)]


def _image_masks(inst: Instance) -> tuple[list[int], list[int]] | None:
    """The elements of the images of the default W source, and each W's
    image D as a bit mask over them, read from dd[v] for v in W; None over
    ``SKELETON_CAP`` image elements.  Once per instance."""
    def make():
        dd = inst.ms.dneg_table()
        images = [{dd[v] for v in img.idx} for img in _w_sets(inst)]
        elements = sorted(set().union(*images))
        bit = {d: 1 << k for k, d in enumerate(elements)}
        return None if len(elements) > SKELETON_CAP else (
            elements, [sum(map(bit.__getitem__, image)) for image in images])

    return _once(inst, "image masks", make)


def _omega_by_definition(inst: Instance, grades) -> list[int] | None:
    """Packed omega of each W of the default W source from its definition,
    max over d in D of chi(t ∨ d), by a route that shares only the packing
    with ``_columns``: a table over the subsets of the image elements,
    filled by doubling (adding d, each earlier entry e gives e | chi(· ∨ d)),
    read at each W's mask.  None where ``_image_masks`` is."""
    found = _image_masks(inst)
    if found is None:
        return None
    elements, masks = found
    join, pack, by_mask = inst.ms.lattice.join_table, inst._ranks.pack, [0]
    for d in elements:
        column = pack([grades[row[d]] for row in join])
        by_mask += [column] + [e | column for e in by_mask[1:]]
    return [by_mask[m] for m in masks]


def _settled(inst: Instance, i: int) -> bool:
    """Whether chi ``i``'s ``_columns`` hold the facts that settle the
    ``_SETTLED`` laws: the omega column is ``_omega_by_definition``, so each
    base, its field at the bottom, is max chi(D); and ``_raise_to`` gives
    the extension max(chi, base) pointwise, once per distinct column.  Once
    per chi, in the row table beside its columns; builds no row."""
    ranks, lat = inst._ranks, inst.ms.lattice
    grades, bottom = ranks.rows[i], lat.element_index(lat.bottom)

    def check():
        omegas = _columns(inst, grades)
        return omegas == _omega_by_definition(inst, grades) and all(
            _raise_to(grades, b) == tuple(max(g, b) for g in grades)
            for b in {ranks.at(o, bottom) for o in set(omegas)})

    return _once(inst, ("settled", grades), check)


# Keys: what a stage's verdict reads of W.  When the verdict is a function
# of its key, the first failing row is the first row of its key, so a stage
# visits those only and its witness keeps its bytes.  ``ups`` is a function
# of the base, and the other keys hold the base, so a keyed stage may read
# ``ups``; ``_by_join`` adds ``join`` and ``top``, and ``_by_omg``, the packed
# ``omg``, fixes the base, its field at the bottom.
_by_base, _by_omg = attrgetter("base"), attrgetter("packed")
_by_join = attrgetter("base", "join", "top")


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
_PAIR_STAGES: dict[str, tuple] = {}  # pair laws: (test, when on the two rank rows)
# The laws that follow from the facts ``_settled`` checks, on every row of
# a chi for a row law, on every pair of such chis for a pair law.  The law
# skips the chis it settles, a pair law only an instance whose chis are
# all settled, so its witness is the first of the full scan.
_SETTLED: set[str] = set()


def _stage_rows(inst: Instance, i: int, ws, key=None) -> list[_Row]:
    """Chi ``i``'s rows for a stage over the W source ``ws``, each key's
    first only, from the instance's row table: (ws, chi, key) -> rows."""
    rows = _once(inst, (ws, i, None), lambda: _rows(inst, i, ws))
    return rows if key is None else _once(inst, (ws, i, key), lambda: _firsts(rows, key))


def _firsts(rows: list[_Row], key) -> list[_Row]:
    """The first row of each key, in order."""
    firsts: dict = {}
    for r in rows:
        firsts.setdefault(key(r), r)
    return list(firsts.values())


def _scan(pid: str, inst: Instance, *stages: tuple, among=None) -> Witness | None:
    """The first failing row: chi in pool order (only the chi indices
    ``among``, when given), then the stages in order, then W in the
    stage's order, each key's first row only."""
    if any(ws is _w_sets for _, ws, _, _ in stages):
        _w_sets(inst)  # refuses a skeleton over the cap, whichever chis the stages skip
    for i in range(len(inst.chis)) if among is None else among:
        chi = inst.chis[i]
        for test, ws, when, key in stages:
            if when is not None and not when(inst.ms, inst._ranks.rows[i]):
                continue
            for row in _stage_rows(inst, i, ws, key):
                found = test(row)
                if found is not None:
                    return _fail(pid, inst, found, chis=[chi], w_idx=row.w_idx)
    return None


def _pair_scan(pid: str, inst: Instance, test, when) -> Witness | None:
    """The first failing (chi1, chi2, W) as in ``_scan``: each ordered pair
    of chis that ``when`` allows, then each row of the default W source."""
    rows = [_stage_rows(inst, i, _w_sets) for i in range(len(inst.chis))]
    pool = list(zip(inst.chis, inst._ranks.rows, rows))
    for chi1, g1, rows1 in pool:
        for chi2, g2, rows2 in pool:
            if when is not None and not when(g1, g2):
                continue
            for r1, r2 in zip(rows1, rows2):
                found = test(r1, r2)
                if found is not None:
                    return _fail(pid, inst, found, chis=[chi1, chi2], w_idx=r1.w_idx)
    return None


def _unsettled(inst: Instance):
    """The chi indices that ``_settled`` leaves to a settled law's scan."""
    return (i for i in range(len(inst.chis)) if not _settled(inst, i))


def _row_law(pid: str, summary=None, ws=_w_sets, when=None, key=None, settled=False):
    """Register a row predicate as a law, scanning only the chis that
    ``_settled`` leaves open when ``settled`` (see ``_SETTLED``).  Without
    a summary it becomes the next stage of the law already registered under
    ``pid``."""

    def decorate(test):
        if summary is not None:
            _STAGES[pid] = []
            if settled:
                _SETTLED.add(pid)
            _law(pid, summary)(lambda inst: _scan(
                pid, inst, *_STAGES[pid], among=_unsettled(inst) if settled else None))
        _STAGES[pid].append((test, ws, when, key))
        return test

    return decorate


def _pair_law(pid: str, summary: str, when=None):
    """Register a law from its predicate over the two rows of a pair that
    share W.  The law passes without a pair scan when ``_settled`` settles
    every chi (see ``_SETTLED``)."""

    def decorate(test):
        _PAIR_STAGES[pid] = (test, when)
        _SETTLED.add(pid)
        _law(pid, summary)(lambda inst: None if next(_unsettled(inst), None) is None
                           else _pair_scan(pid, inst, *_PAIR_STAGES[pid]))
        return test

    return decorate
