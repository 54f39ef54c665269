"""Seeded inputs for the ``documents`` and ``targeted`` workloads.

Every order is built from its own representation (integer positions for
chains, index pairs for products of two chains, bitmasks for Boolean
lattices) with meet, join and negation given in closed form.  The
expected outputs of each command are computed from that representation
alone; nothing here imports msfuzz, so the checks in ``gates.py`` are an
independent route to the answers the CLI must print.

Expected values:

* ``upsilon(t) = max(chi(t), b)`` with base grade ``b = max chi(w'')``
  over ``w`` in W;
* ``omega(t) = max over w in W of chi(t v w'')``;
* ``fixed`` iff ``b <= min chi`` (``chi(bottom)`` when chi is a filter);
* a grade map is a fuzzy filter iff ``chi(1) = 1`` and
  ``chi(x ^ y) = min(chi(x), chi(y))`` for all x, y;
* a spliced N5 or M3 is rejected as ``lattice.distributive``, and a
  second maximal element as ``lattice.bounds``.

The composition of each batch (shapes, sizes, splices, number of
commands) is fixed; the seed chooses negations, grade maps, reference
subsets and the order of the batch.  Per-pass cost therefore stays
close across seeds while the inputs differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Order:
    """A finite bounded lattice with dense closed-form tables."""

    names: list[str]
    covers: list[tuple[int, int]]
    meet: list[list[int]]
    join: list[list[int]]
    leq: list[list[bool]]
    bottom: int
    top: int

    @property
    def n(self) -> int:
        return len(self.names)


def _order(points, name, covers, meet, join, leq) -> Order:
    idx = {p: i for i, p in enumerate(points)}
    n = len(points)
    meet_t = [[idx[meet(a, b)] for b in points] for a in points]
    join_t = [[idx[join(a, b)] for b in points] for a in points]
    leq_t = [[leq(a, b) for b in points] for a in points]
    bottom = next(i for i in range(n) if all(leq_t[i]))
    top = next(i for i in range(n) if all(leq_t[j][i] for j in range(n)))
    return Order([name(p) for p in points],
                 [(idx[a], idx[b]) for a, b in covers(points)],
                 meet_t, join_t, leq_t, bottom, top)


def chain(n: int) -> Order:
    pts = list(range(n))
    return _order(pts, lambda i: f"c{i}",
                  lambda ps: [(i, i + 1) for i in ps[:-1]],
                  min, max, lambda a, b: a <= b)


def grid(a: int, b: int) -> Order:
    pts = [(i, j) for i in range(a) for j in range(b)]

    def covers(ps):
        out = []
        for i, j in ps:
            if i + 1 < a:
                out.append(((i, j), (i + 1, j)))
            if j + 1 < b:
                out.append(((i, j), (i, j + 1)))
        return out

    return _order(pts, lambda p: f"g{p[0]}_{p[1]}", covers,
                  lambda p, q: (min(p[0], q[0]), min(p[1], q[1])),
                  lambda p, q: (max(p[0], q[0]), max(p[1], q[1])),
                  lambda p, q: p[0] <= q[0] and p[1] <= q[1])


def boolean(k: int) -> Order:
    pts = list(range(1 << k))
    return _order(pts, lambda m: "b" + format(m, f"0{k}b"),
                  lambda ps: [(m, m | 1 << t) for m in ps for t in range(k)
                              if not m >> t & 1],
                  lambda p, q: p & q, lambda p, q: p | q,
                  lambda p, q: p & ~q == 0)


# --- negations: each returns an index table ------------------------------

def _chain_neg(n: int, kind: str) -> list[int]:
    if kind == "stone":  # 0 -> 1, everything else -> 0
        return [n - 1] + [0] * (n - 1)
    return [n - 1 - i for i in range(n)]  # order reversal, a De Morgan negation


def negation(shape: tuple, kinds: tuple[str, ...]) -> list[int]:
    """Stone or reversal on a chain, the same per coordinate of a product
    of two chains (one kind each), complement on a Boolean lattice."""
    if shape[0] == "chain":
        return _chain_neg(shape[1], kinds[0])
    if shape[0] == "grid":
        a, b = shape[1], shape[2]
        na, nb = _chain_neg(a, kinds[0]), _chain_neg(b, kinds[-1])
        return [na[i] * b + nb[j] for i in range(a) for j in range(b)]
    full = (1 << shape[1]) - 1
    return [full & ~m for m in range(1 << shape[1])]


def random_negation(shape: tuple, rng: random.Random) -> list[int]:
    arity = {"chain": 1, "grid": 2}.get(shape[0], 0)
    return negation(shape, tuple(rng.choice(["stone", "reversal"])
                                 for _ in range(arity)))


def build(shape: tuple) -> Order:
    if shape[0] == "chain":
        return chain(shape[1])
    if shape[0] == "grid":
        return grid(shape[1], shape[2])
    return boolean(shape[1])


# --- grade maps ----------------------------------------------------------

def filter_map(order: Order, rng: random.Random, tenths: list[int]) -> list[int]:
    """A fuzzy filter with the given ascending grades (in tenths, last 10).

    Level cuts of a fuzzy filter are principal filters up_set(b_j) with
    b_1 <= ... <= b_k, so chi(x) = tenths[#{j : b_j <= x}].
    """
    k = len(tenths) - 1
    b = [rng.randrange(order.n)]
    for _ in range(k - 1):
        below = [i for i in range(order.n) if order.leq[i][b[-1]]]
        b.append(rng.choice(below))
    b.reverse()
    return [tenths[sum(order.leq[bj][x] for bj in b)] for x in range(order.n)]


def is_filter(order: Order, g: list[int]) -> bool:
    if g[order.top] != 10:
        return False
    return all(g[order.meet[x][y]] == min(g[x], g[y])
               for x in range(order.n) for y in range(order.n))


def tenths_text(t: int) -> str:
    return f"{t / 10:.1f}"


def grade_str(t: int) -> str:
    """The report rendering of a grade given in tenths."""
    return str(Fraction(t, 10))


# --- expected extension outputs -------------------------------------------

def extension(order: Order, neg: list[int], g: list[int], w: list[int]) -> dict:
    dd = [neg[neg[x]] for x in range(order.n)]
    base = max(g[dd[v]] for v in w)
    ups = [max(t, base) for t in g]
    omg = [max(g[order.join[x][dd[v]]] for v in w) for x in range(order.n)]
    return {"base": base, "upsilon": ups, "omega": omg, "fixed": base <= min(g)}


def canonical_sets(order: Order, neg: list[int], g: list[int]) -> list[dict]:
    """Expected ``canonical_sets`` of a ``fixed`` report."""
    dd = [neg[neg[x]] for x in range(order.n)]
    sets = [
        ("bottom", [order.bottom]),
        ("double-negation-bottom", [x for x in range(order.n) if dd[x] == order.bottom]),
        ("zero-grade-double-negation", [x for x in range(order.n) if g[dd[x]] == 0]),
    ]
    out = []
    for name, members in sets:
        entry = {"name": name, "members": [order.names[x] for x in members]}
        if members:
            entry["fixed"] = extension(order, neg, g, members)["fixed"]
        else:
            entry["note"] = "empty: skipped"
        out.append(entry)
    return out


# --- documents -----------------------------------------------------------

@dataclass
class Doc:
    name: str
    text: str
    commands: list[dict] = field(default_factory=list)


def _doc_text(names, covers, neg_names, maps) -> str:
    """A ``.ms`` document; grades are given in tenths."""
    lines = ["elements " + " ".join(names), "covers"]
    lines += [f"  {a} < {b}" for a, b in covers]
    lines.append("neg")
    lines += [f"  {a} -> {b}" for a, b in neg_names]
    for mname, entries in maps:
        lines.append(f"fuzzy {mname}")
        lines += [f"  {e} = {tenths_text(t)}" for e, t in entries]
    return "\n".join(lines) + "\n"


def _random_tenths(rng: random.Random, k: int) -> list[int]:
    """k ascending grades in tenths ending at 10 (k >= 1)."""
    return sorted(rng.sample(range(0, 10), k - 1)) + [10]


def _order_text(order: Order, neg: list[int], maps) -> str:
    return _doc_text(order.names,
                     [(order.names[a], order.names[b]) for a, b in order.covers],
                     [(order.names[x], order.names[neg[x]]) for x in range(order.n)],
                     [(m, list(zip(order.names, g))) for m, g in maps])


def _maps(order: Order, rng: random.Random, count: int, levels: int,
          allow_nonfilter: bool) -> list[tuple[str, list[int]]]:
    out = []
    for m in range(count):
        g = filter_map(order, rng, _random_tenths(rng, levels))
        if allow_nonfilter and rng.random() < 0.5:
            x = rng.randrange(order.n)
            g[x] = rng.choice([t for t in range(11) if t != g[x]])
        out.append(("chi" if m == 0 else f"chi{m + 1}", g))
    return out


def _pick_w(order: Order, rng: random.Random) -> list[int]:
    if rng.random() < 0.25:
        return [order.bottom]
    return sorted(rng.sample(range(order.n), rng.randint(1, 3)))


def valid_document(name: str, shape: tuple, rng: random.Random,
                   path: str) -> Doc:
    """A valid MS-algebra document with validate, extend and fixed commands."""
    order = build(shape)
    neg = random_negation(shape, rng)
    maps = _maps(order, rng, rng.randint(1, 2), rng.randint(2, 4), True)
    filt = {m: is_filter(order, g) for m, g in maps}
    doc = Doc(name, _order_text(order, neg, maps))
    doc.commands.append({
        "kind": "validate", "argv": ["validate", path],
        "exit": 0 if all(filt.values()) else 1,
        "expect": {"filters": filt},
    })
    chi_name, g = maps[0]
    w = _pick_w(order, rng)
    ext = extension(order, neg, g, w)
    doc.commands.append({
        "kind": "extend",
        "argv": ["extend", path, "--chi", chi_name, "--w",
                 ",".join(order.names[x] for x in w)],
        "exit": 0,
        "expect": {
            "w": [order.names[x] for x in w],
            "base_grade": grade_str(ext["base"]),
            "upsilon": {e: grade_str(t) for e, t in zip(order.names, ext["upsilon"])},
            "omega": {e: grade_str(t) for e, t in zip(order.names, ext["omega"])},
        },
    })
    chi_name, g = rng.choice(maps)
    w = _pick_w(order, rng)
    fixed = extension(order, neg, g, w)["fixed"]
    doc.commands.append({
        "kind": "fixed",
        "argv": ["fixed", path, "--chi", chi_name, "--w",
                 ",".join(order.names[x] for x in w)],
        "exit": 0 if fixed else 1,
        "expect": {"w": [order.names[x] for x in w], "fixed": fixed,
                   "canonical_sets": canonical_sets(order, neg, g)},
    })
    return doc


SPLICES = {"n5": "lattice.distributive", "m3": "lattice.distributive",
           "two-maximal": "lattice.bounds"}


def spliced_document(name: str, shape: tuple, splice: str,
                     rng: random.Random, path: str) -> Doc:
    """A document whose order is not a distributive lattice.

    ``n5`` and ``m3`` put the pentagon or the diamond on top of the old
    top element; ``two-maximal`` adds an element covering the bottom and
    below nothing else.
    """
    order = build(shape)
    names = list(order.names)
    covers = [(names[a], names[b]) for a, b in order.covers]
    top, bottom = names[order.top], names[order.bottom]
    if splice == "n5":
        extra = ["sx", "sy", "sz", "stop"]
        covers += [(top, "sx"), ("sx", "sy"), ("sy", "stop"),
                   (top, "sz"), ("sz", "stop")]
    elif splice == "m3":
        extra = ["sx", "sy", "sz", "stop"]
        covers += [(top, "sx"), (top, "sy"), (top, "sz"),
                   ("sx", "stop"), ("sy", "stop"), ("sz", "stop")]
    else:
        extra = ["sx"]
        covers.append((bottom, "sx"))
    names += extra
    neg_names = [(e, bottom) for e in names[:-1]] + [(names[-1], bottom)]
    g = [rng.randint(0, 10) for _ in names]
    text = _doc_text(names, covers, neg_names, [("chi", list(zip(names, g)))])
    doc = Doc(name, text)
    doc.commands.append({
        "kind": "reject", "argv": ["validate", path], "exit": 1,
        "expect": {"check": SPLICES[splice]},
    })
    return doc


# Batch compositions.  Sizes are fixed per slot so that a pass costs about
# the same for every seed; see the module docstring.
DOCUMENT_SLOTS = {
    "full": {
        "valid": [("chain", 80), ("boolean", 7), ("grid", 8, 8), ("grid", 6, 8),
                  ("boolean", 6), ("chain", 40)],
        "spliced": [(("chain", 60), "n5"), (("grid", 8, 8), "m3"),
                    (("boolean", 6), "two-maximal")],
    },
    "tiny": {
        "valid": [("chain", 6), ("grid", 2, 3), ("boolean", 2)],
        "spliced": [(("chain", 5), "n5"), (("grid", 2, 2), "m3"),
                    (("boolean", 2), "two-maximal")],
    },
}


def documents(seed: int, size: str, workdir: str) -> list[Doc]:
    rng = random.Random(f"documents/{seed}")
    slots = DOCUMENT_SLOTS[size]
    docs = []
    for i, shape in enumerate(slots["valid"]):
        name = f"doc{i:02d}"
        docs.append(valid_document(name, shape, rng, f"{workdir}/{name}.ms"))
    for j, (shape, splice) in enumerate(slots["spliced"]):
        name = f"doc{len(slots['valid']) + j:02d}"
        docs.append(spliced_document(name, shape, splice, rng,
                                     f"{workdir}/{name}.ms"))
    rng.shuffle(docs)
    return docs


# --- verify documents for the targeted workload --------------------------

def strict_filter_map(order: Order, rng: random.Random, tenths: list[int]) -> list[int]:
    """A fuzzy filter taking every grade in ``tenths`` (ascending, last 10).

    The level-cut generators b_1 < ... < b_k are drawn from a random
    maximal chain above the bottom, so tenths[j] is attained at b_j and
    tenths[0] at the bottom.
    """
    k = len(tenths) - 1
    upper = {x: [y for a, y in order.covers if a == x] for x in range(order.n)}
    path, x = [], order.bottom
    while upper[x]:
        x = rng.choice(upper[x])
        path.append(x)
    if len(path) < k:
        raise ValueError(f"no chain of {k} elements above the bottom")
    b = sorted(rng.sample(range(len(path)), k))
    return [tenths[sum(order.leq[path[j]][x] for j in b)] for x in range(order.n)]


# (shape, negation, k): the grade map takes k + 1 distinct grades, 0 among
# them, so the grade universe has k + 1 members.  When n * (k + 1) > 64 the
# filter enumeration inside thm-3.1-prime exceeds its size cap; those
# documents are kept on purpose (a known defect, counted as failed).
VERIFY_SLOTS = {
    "full": [(("chain", 8), "stone", 2), (("chain", 8), "reversal", 2),
             (("grid", 2, 4), "stone", 2), (("grid", 2, 4), "reversal", 2),
             (("boolean", 3), "complement", 2),
             (("chain", 10), "stone", 6), (("chain", 9), "reversal", 7)],
    "tiny": [(("chain", 5), "stone", 2), (("chain", 9), "reversal", 7)],
}


def verify_documents(seed: int, size: str, workdir: str) -> list[Doc]:
    rng = random.Random(f"verify/{seed}")
    docs = []
    for i, (shape, neg_kind, k) in enumerate(VERIFY_SLOTS[size]):
        order = build(shape)
        tenths = [0] + sorted(rng.sample(range(1, 10), k - 1)) + [10]
        g = strict_filter_map(order, rng, tenths)
        name = f"ver{i:02d}"
        doc = Doc(name, _order_text(order, negation(shape, (neg_kind,)),
                                    [("chi", g)]))
        doc.commands.append({
            "kind": "verify", "argv": ["verify", f"{workdir}/{name}.ms"],
            "exit": None,  # 0 or 1, decided by the verdicts
            "expect": {"over_cap": order.n * (k + 1) > 64},
        })
        docs.append(doc)
    rng.shuffle(docs)
    return docs
