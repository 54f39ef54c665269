"""The row engine of the law registry: instances, witnesses, the registry
itself, and the (chi, W) rows that the law predicates read.

A law check receives an Instance -- an algebra, a pool of candidate fuzzy
filters and a grade universe -- and returns the first violation as a
replayable Witness or None.  Most laws are predicates over (chi, W) rows,
visited chi in pool order, then W in mask order, on integer grade ranks
(see ``_Ranks``).  The extensions read W only through its double-negation
image D ⊆ S = {x°°}, so the default W source is the first W of each D,
listed, and each chi's omega columns with it, by one doubling walk over S
(``_walk``).  A stage keyed on what its verdict reads (``_Key``) keeps
the first row of each key: over the skeleton it builds only those, found
by one pass over S whose states are the keys (``_key_images``), so
``KEY_CAP`` bounds it, not |S|; over listed W it reads each row's key.
thm-4.8 and the pair laws settle most chis without a scan
(``_omega_settled``, ``_settled``) by checking, once per chi, every omega
column against its definition in a table over all 2^|S| - 1 images: they,
and the rows of any chi they leave open, stop at ``SKELETON_CAP``
elements of S.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial, reduce
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

SKELETON_CAP = 16  # bound on |S| for the scans that read every subset of the skeleton S
KEY_CAP = (1 << SKELETON_CAP) - 1  # bound on the keys of a keyed stage


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
        """The row table, shared by every law run on the instance."""
        return {}


class Witness(Record):
    """A replayable refutation: rerunning the property on ``instance``
    reproduces the failure."""

    property_id: str
    instance: Instance
    detail: str
    data: Mapping[str, Any] = MappingProxyType({})

    def to_dict(self) -> dict[str, Any]:
        ms, lat = self.instance.ms, self.instance.ms.lattice
        named = {"chi" if i == 0 else f"chi{i + 1}": c for i, c in enumerate(self.instance.chis)}
        out: dict[str, Any] = {
            "property": self.property_id,
            "detail": self.detail,
            "elements": list(lat.elements),
            "covers": [list(p) for p in lat.covers],
            "neg": {e: ms.neg[e] for e in lat.elements},
            "fuzzy": {name: _jsonable(c) for name, c in named.items()},
        }
        if self.instance.w_sets is not None:
            out["w_sets"] = [list(w) for w in self.instance.w_sets]
        if self.data:
            out["data"] = _jsonable(self.data)
        out["document"] = serialize_algebra(document_from_objects(lat, ms, named))
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
    w_sets = inst.w_sets if w_idx is None else (tuple(inst.ms.lattice.elements[v] for v in w_idx),)
    restricted = Instance(inst.ms, inst.chis if chis is None else tuple(chis), inst.grade_universe,
                          w_sets)
    return Witness(pid, restricted, detail, data or {})


# ---------------------------------------------------------------------------
# the law table: every law visits (chi, W) rows in one order
# ---------------------------------------------------------------------------

class _Image(NamedTuple):
    """W's element indices, the join of its image D and whether D holds the top."""

    idx: tuple[int, ...]
    join: int
    top: bool


def _lowest(dd: tuple[int, ...]) -> dict[int, int]:
    """Each d in S = {x°°} and its lowest preimage, in the order of those."""
    return {d: dd.index(d) for d in dict.fromkeys(dd)}


def _adjoin(lat: FiniteLattice, img: _Image | None, d: int, w: int) -> _Image:
    """The image of W + (w,), with d = w°°, from that of W, or of (w,) when
    ``img`` is None."""
    if img is None:
        return _Image((w,), d, lat.elements[d] == lat.top)
    return _Image((*img.idx, w), lat.join_table[img.join][d], img.top or lat.elements[d] == lat.top)


def _listed(ms: MSAlgebra, ws) -> list[_Image]:
    """The images of listed W, each given by its element names."""
    lat, dd = ms.lattice, ms.dneg_table()
    return [reduce(lambda img, v: _adjoin(lat, img, dd[v], v), map(lat.element_index, w), None)
            for w in ws]


def _once(inst: Instance, key, make):
    """``make()``, once per instance and ``key``, in the row table."""
    if key not in inst._rows:
        inst._rows[key] = make()
    return inst._rows[key]


def _walk(inst: Instance, first, grow) -> list:
    """One entry per image D ⊆ S in mask order over S, with S in ``_lowest``
    order, so that each D's first W is the lowest preimage of each d in D:
    each (d, w) appends ``grow(d, w)`` of ``first``, the empty set's entry,
    and of every entry so far, as mask order adds d to every earlier mask."""
    low = _once(inst, "lowest", lambda: _lowest(inst.ms.dneg_table()))
    if len(low) > SKELETON_CAP:
        raise SizeCapExceeded(f"|skeleton| = {len(low)} exceeds cap {SKELETON_CAP}")
    entries: list = []
    for d, w in low.items():
        step = grow(d, w)
        entries += [step(first), *map(step, entries)]
    return entries


def _w_sets(inst: Instance, chi: FuzzySet | None = None) -> list[_Image]:
    """The default W source: the given ``w_sets``, or the first W of each
    double-negation image, all that the extensions read of W."""
    ms = inst.ms
    return _once(inst, "images", lambda: _walk(
        inst, None, lambda d, w: partial(_adjoin, ms.lattice, d=d, w=w))
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
    the extension, ``packed`` the strong extension's column as ``_Ranks``
    packs it (None outside ``_w_sets``), ``omg`` its ranks, decoded when
    first read, ``join`` the join of W's image and ``top`` whether it holds
    the top.  ``one`` is the rank of 1, and ``fuzzy`` turns ranks back into
    grades."""

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


def _columns(inst: Instance, grades) -> list[int]:
    """Packed omega of each image of ``_w_sets`` for chi's rank row ``grades``,
    once per chi: over the skeleton by ``_walk``, as omg(D ∪ {d})(t) =
    max(omg(D)(t), chi(t ∨ d)), a ``|`` with {d}'s column; else by ``omega_row``."""
    ms, pack = inst.ms, inst._ranks.pack
    return _once(inst, ("columns", grades), lambda: _walk(
        inst, 0, lambda d, w, single=_singles(inst, grades): single[d].__or__)
        if inst.w_sets is None else [pack(omega_row(ms, grades, img.idx))
                                     for img in _w_sets(inst)])


def _singles(inst: Instance, grades) -> dict[int, int]:
    """Packed omega chi(· ∨ d) of each {d}, d in S, for ``grades``; once per chi."""
    join, pack = inst.ms.lattice.join_table, inst._ranks.pack
    return _once(inst, ("singles", grades), lambda: {
        d: pack([grades[row[d]] for row in join]) for d in set(inst.ms.dneg_table())})


def _key_images(inst: Instance, key, grades=None) -> list[tuple[_Image, int]]:
    """The first image of each key in mask order, and its packed omega for
    ``grades`` (0 without), by one pass over S whose states are the keys
    (``key.grow`` gives that of the empty set and the step to D ∪ {d}); as
    masks compare by their highest bit, a key first met at d extends the
    first W of the earliest state reaching it."""
    (empty, step), best, lat = key.grow(inst, grades), {}, inst.ms.lattice
    low = _once(inst, "lowest", lambda: _lowest(inst.ms.dneg_table()))
    single = dict.fromkeys(low, 0) if grades is None else _singles(inst, grades)
    for d, w in low.items():
        for s, (img, packed) in [(empty, (None, 0)), *best.items()]:
            k = step(s, d)
            if k not in best:
                if len(best) == KEY_CAP:
                    raise SizeCapExceeded(f"more than {KEY_CAP} keys on a skeleton of {len(low)}")
                best[k] = _adjoin(lat, img, d, w), packed | single[d]
    return list(best.values())


def _rows(inst: Instance, i: int, ws, key=None) -> list[_Row]:
    """Chi ``i``'s rows over the W source ``ws``: for ``_w_sets``, every
    image with its ``_columns`` column, or the ``_key_images`` of ``key``,
    each base read off its column at the bottom (⊥ ∨ d = d); other sources
    get each base by ``_base_grade`` and no ``omg``, which they never read."""
    ms, ranks = inst.ms, inst._ranks
    grades, bottom = ranks.rows[i], ms.lattice.element_index(ms.lattice.bottom)
    if ws is not _w_sets:
        images = ws(inst, inst.chis[i])
        omgs, bases = [None] * len(images), [_base_grade(ms, grades, img.idx) for img in images]
    else:
        images, omgs = (_w_sets(inst), _columns(inst, grades)) if key is None else zip(
            *_key_images(inst, key, grades))
        bases = [ranks.at(o, bottom) for o in omgs]
    ups = _once(inst, ("ups", grades), dict)  # per chi, by base
    ups.update((b, _raise_to(grades, b)) for b in set(bases) - ups.keys())
    ctx = (ms, ms.lattice, ms.dneg_table(), ranks.grades, ranks.one, ranks.unpack)
    return [_Row(ctx, grades, image, b, ups[b], o) for image, b, o in zip(images, bases, omgs)]


def _image_masks(inst: Instance) -> tuple[list[int], list[int]] | None:
    """The elements of the images of ``_w_sets``, and each W's image as a bit
    mask over them, from dd[v] for v in W; None over ``SKELETON_CAP`` of them."""
    def make():
        dd = inst.ms.dneg_table()
        images = [{dd[v] for v in img.idx} for img in _w_sets(inst)]
        elements = sorted(set().union(*images))
        bit = {d: 1 << k for k, d in enumerate(elements)}
        return None if len(elements) > SKELETON_CAP else (
            elements, [sum(map(bit.__getitem__, image)) for image in images])

    return _once(inst, "image masks", make)


def _omega_by_definition(inst: Instance, grades) -> list[int] | None:
    """Packed omega of each W of ``_w_sets`` by its definition, max over d
    in D of chi(t ∨ d), by a route that shares only the packing with
    ``_columns``: a table over the subsets of the image elements, filled by
    doubling, read at each W's mask.  None where ``_image_masks`` is."""
    if (found := _image_masks(inst)) is None:
        return None
    elements, masks = found
    join, pack, by_mask = inst.ms.lattice.join_table, inst._ranks.pack, [0]
    for d in elements:
        column = pack([grades[row[d]] for row in join])
        by_mask += [column] + [e | column for e in by_mask[1:]]
    return [by_mask[m] for m in masks]


def _omega_settled(inst: Instance, i: int) -> bool:
    """Whether chi ``i``'s omega column is ``_omega_by_definition``, the fact
    that settles thm-4.8.  Once per chi, in the row table; builds no row."""
    grades = inst._ranks.rows[i]
    return _once(inst, ("omega settled", grades), lambda: (
        _columns(inst, grades) == _omega_by_definition(inst, grades)))


def _settled(inst: Instance, i: int) -> bool:
    """Whether chi ``i`` holds the facts that settle the pair laws: the
    omega fact, and ``_raise_to`` gives max(chi, base) pointwise, once per
    distinct column.  Once per chi, in the row table; builds no row."""
    ranks, lat = inst._ranks, inst.ms.lattice
    grades, bottom = ranks.rows[i], lat.element_index(lat.bottom)
    return _once(inst, ("settled", grades), lambda: _omega_settled(inst, i) and all(
        _raise_to(grades, b) == tuple(max(g, b) for g in grades)
        for b in {ranks.at(o, bottom) for o in set(_columns(inst, grades))}))


class _Key(NamedTuple):
    """What a stage's verdict reads of W.  As the verdict is a function of
    the key, the first failing row is the first row of its key, so a stage
    visits those only.  ``read`` takes the key off a row of a listed W
    source; ``grow`` is for ``_key_images`` over the skeleton."""

    read: Callable
    grow: Callable

    def __call__(self, r):
        return self.read(r)


def _grow_join(inst: Instance, g):
    lat = inst.ms.lattice
    join, top = lat.join_table, lat.element_index(lat.top)
    return ((-1, lat.element_index(lat.bottom), False),
            lambda s, d: (s[0] if s[0] > g[d] else g[d], join[s[1]][d], s[2] or d == top))


# The keys.  Each row key holds the base, of which ``ups`` is a function.
# ``_by_base`` is a max, so its first images are the singletons of the first
# d of each grade; ``_by_omg``, a ``|`` of single columns, has the base as
# its field at the bottom.
_by_base = _Key(attrgetter("base"), lambda inst, g: (-1, lambda b, d: b if b > g[d] else g[d]))
_by_join = _Key(attrgetter("base", "join", "top"), _grow_join)
_by_grades = _Key(lambda r: sum({1 << r.grades[r.dd[v]] for v in r.w_idx}),
                  lambda inst, g: (0, lambda s, d: s | 1 << g[d]))
_by_omg = _Key(attrgetter("packed"), lambda inst, g: (
    0, lambda s, d, single=_singles(inst, g): s | single[d]))
_by_meet = _Key(None, lambda inst, g: (
    inst.ms.lattice.element_index(inst.ms.lattice.top),
    lambda s, d: inst.ms.lattice.meet_table[s][d]))


# The law table: law id -> its stages, in the order they run for each chi.
# A stage is (test, ws, when, key): ``test`` maps a row to None, a detail
# string, or (detail, data); ``ws`` gives the reference subsets for
# (instance, chi); ``when``, unless None, is given (algebra, chi's rank
# row) and skips the chis that miss the stage's hypothesis; ``key``, unless
# None, is the ``_Key`` through which alone ``test`` reads W.
_STAGES: dict[str, list[tuple]] = {}
_PAIR_STAGES: dict[str, tuple] = {}  # pair laws: (test, when on the two rank rows)


def _stage_rows(inst: Instance, i: int, ws, key=None) -> list[_Row]:
    """Chi ``i``'s rows for a stage over ``ws``, once per instance: the first
    of each ``key``, by ``_key_images`` over the skeleton, else read off each
    row of the source; without a key, every row."""
    if key is None or ws is _w_sets and inst.w_sets is None:
        return _once(inst, (ws, i, key), lambda: _rows(inst, i, ws, key))

    def firsts():
        by_key: dict = {}
        for r in _stage_rows(inst, i, ws):
            by_key.setdefault(key(r), r)
        return list(by_key.values())

    return _once(inst, (ws, i, key), firsts)


def _scan(pid: str, inst: Instance, *stages: tuple, settled=None) -> Witness | None:
    """The first failing row: chi in pool order, less those for which
    ``settled(inst, i)`` holds, then the stages, then W in stage order."""
    for i, chi in enumerate(inst.chis):
        if settled is not None and settled(inst, i):
            continue
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
    of chis that ``when`` allows, then each row of the default W source,
    built when the pair is first visited."""
    pool = list(enumerate(zip(inst.chis, inst._ranks.rows)))
    for i, (chi1, g1) in pool:
        for j, (chi2, g2) in pool:
            if when is not None and not when(g1, g2):
                continue
            for r1, r2 in zip(_stage_rows(inst, i, _w_sets), _stage_rows(inst, j, _w_sets)):
                found = test(r1, r2)
                if found is not None:
                    return _fail(pid, inst, found, chis=[chi1, chi2], w_idx=r1.w_idx)
    return None


def _row_law(pid: str, summary=None, ws=_w_sets, when=None, key=None, settled=False):
    """Register a row predicate as a law, scanning only the chis that
    ``_omega_settled`` leaves open when ``settled``.  Without a summary it
    becomes the next stage of the law registered under ``pid``."""

    def decorate(test):
        if summary is not None:
            _STAGES[pid] = []
            _law(pid, summary)(lambda inst: _scan(
                pid, inst, *_STAGES[pid], settled=_omega_settled if settled else None))
        _STAGES[pid].append((test, ws, when, key))
        return test

    return decorate


def _pair_law(pid: str, summary: str, when=None):
    """Register a law from its predicate over the two rows of a pair that
    share W; it passes without a scan when ``_settled`` settles every chi."""

    def decorate(test):
        _PAIR_STAGES[pid] = (test, when)
        _law(pid, summary)(lambda inst: None if all(_settled(inst, i) for i in range(
            len(inst.chis))) else _pair_scan(pid, inst, *_PAIR_STAGES[pid]))
        return test

    return decorate
