"""The lattice catalog that sweeps and searches draw their instances from.

Instances are generated from a catalog of all bounded distributive
lattices up to a size cap.  The catalog enumerates posets by repeatedly
attaching a maximal element, prunes by the number of down-sets (counted
from the parent poset's), dedupes by a canonical form of the order
relation, and realizes each poset as its lattice of down-sets (which is
exactly the family of bounded distributive lattices, one per poset).
That poset is the lattice's join-irreducibles, on which
``enumerate_ms_operations`` builds each lattice's negation tables.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from typing import Any

from .errors import SizeCapExceeded
from .lattice_core import FiniteLattice, build_lattice
from .ms_algebra import MS_ENUM_CAP, enumerate_ms_operations


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
    if max_elements > MS_ENUM_CAP:
        raise SizeCapExceeded(f"max_elements {max_elements} exceeds cap {MS_ENUM_CAP}")
    if max_elements < 1:
        raise ValueError("max_elements must be at least 1")
    lattices = [_lattice_from_poset(ds) for _, ds in _poset_reps(max_elements)]
    lattices.sort(key=lambda lat: (lat.n, lat.leq_table))
    return tuple(lattices)


@lru_cache(maxsize=None)
def _ms_operations(lat: FiniteLattice) -> tuple[dict, ...]:
    return tuple(enumerate_ms_operations(lat))
