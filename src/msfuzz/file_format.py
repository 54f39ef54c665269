"""The algebra document text format.

A document has up to four kinds of sections, each introduced by a keyword
line; the body of a section runs until the next keyword line.  ``#``
starts a comment, blank lines are ignored.

    elements a b c ...        identifiers, whitespace-separated (header
                              line and/or following lines); not a keyword
    covers                    one ``a < b`` per line (a is covered by b)
    neg                       one ``a -> b`` per line, negation table
    fuzzy NAME                one ``a = GRADE`` per line; GRADE is ``p/q``,
                              an integer, or an exact decimal like 0.7

A document declares at most ``MAX_DOCUMENT_ELEMENTS`` elements; a longer
``elements`` section raises SizeCapExceeded.  Parsing normalizes entry
order to element order, so parse -> serialize -> parse is the identity on
documents.
"""

from __future__ import annotations

from fractions import Fraction

from . import errors
from .errors import GradeOutOfRange, MsfuzzError, SizeCapExceeded, UnknownElement
from .fuzzy_core import FuzzySet
from .grades import format_grade, parse_grade
from .lattice_core import FiniteLattice, build_lattice
from .ms_algebra import MSAlgebra
from .report import Record


class _AtLine:
    """An error at a line of a document: its message starts ``line N: ``."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class AlgebraSyntaxError(_AtLine, MsfuzzError):
    pass


class DuplicateElement(_AtLine, errors.DuplicateElement):
    pass


class DanglingReference(_AtLine, MsfuzzError):
    pass


class AlgebraDocument(Record):
    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]
    neg: tuple[tuple[str, str], ...] | None = None
    fuzzy: tuple[tuple[str, tuple[tuple[str, Fraction], ...]], ...] = ()


# keyword: (names after the keyword, and the error if not that many; an
# entry's separator and form; the errors for a repeated and a missing entry)
_SECTIONS = {
    "elements": (None, None, None, None, None, None),
    "covers": (0, "covers keyword takes no arguments", "<", "a < b", None, None),
    "neg": (0, "neg keyword takes no arguments", "->", "a -> b",
            "negation of {a!r} given twice", "neg section is missing an entry for {a!r}"),
    "fuzzy": (1, "expected: fuzzy NAME", "=", "a = grade",
              "grade of {a!r} in {name!r} given twice",
              "fuzzy section {name!r} is missing a grade for {a!r}"),
}

MAX_DOCUMENT_ELEMENTS = 1024


def parse_algebra(text: str) -> AlgebraDocument:
    """Parse a document, reporting the first error with its line number.

    ``order`` maps each element to its index, from the elements header on.
    ``tables`` maps ("neg", None) and each ("fuzzy", NAME) to its header
    line, which reports a gap in it, and to its entries."""
    order: dict[str, int] | None = None
    covers: list[tuple[str, str]] = []
    tables: dict[tuple[str, str | None], tuple[int, dict]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] in _SECTIONS:
            section, tokens = tokens[0], tokens[1:]
            arity, usage, sep, form, repeated, _ = _SECTIONS[section]
            if section == "elements":
                if order is not None:
                    raise AlgebraSyntaxError("second elements section", lineno)
                order = {}
            else:
                if len(tokens) != arity:
                    raise AlgebraSyntaxError(usage, lineno)
                if section != "covers":
                    name = tokens[0] if tokens else None
                    if (section, name) in tables:
                        raise AlgebraSyntaxError(
                            " ".join(["second", section, "section", *map(repr, tokens)]), lineno)
                    entries = {}
                    tables[section, name] = lineno, entries
                continue
        if section is None:
            raise AlgebraSyntaxError(f"content before any section: {line!r}", lineno)
        if section == "elements":
            for tok in tokens:
                if tok in _SECTIONS:
                    raise AlgebraSyntaxError(f"element {tok!r} is a section keyword", lineno)
                if tok in order:
                    raise DuplicateElement(f"element {tok!r} declared twice", lineno)
                if len(order) == MAX_DOCUMENT_ELEMENTS:
                    raise SizeCapExceeded(
                        f"line {lineno}: more than {MAX_DOCUMENT_ELEMENTS} elements")
                order[tok] = len(order)
            continue
        if len(tokens) != 3 or tokens[1] != sep:
            raise AlgebraSyntaxError(f"expected: {form}", lineno)
        a, _, b = tokens
        for e in (a,) if section == "fuzzy" else (a, b):
            if e not in (order or ()):
                raise DanglingReference(f"unknown element {e!r}", lineno)
        if section == "covers":
            covers.append((a, b))
        elif a in entries:
            raise DuplicateElement(repeated.format(a=a, name=name), lineno)
        elif section == "neg":
            entries[a] = b
        else:
            try:
                entries[a] = parse_grade(b)
            except GradeOutOfRange as exc:
                raise GradeOutOfRange(f"line {lineno}: {exc}") from None

    if not order:
        raise AlgebraSyntaxError("no elements section", 1)
    for (section, name), (header, entries) in tables.items():
        *_, missing = _SECTIONS[section]
        for e in order:
            if e not in entries:
                raise AlgebraSyntaxError(missing.format(a=e, name=name), header)
    neg = tables.get(("neg", None))
    return AlgebraDocument(
        elements=tuple(order),
        covers=tuple(sorted(covers, key=lambda p: (order[p[0]], order[p[1]]))),
        neg=None if neg is None else tuple((e, neg[1][e]) for e in order),
        fuzzy=tuple((name, tuple((e, entries[e]) for e in order))
                    for (section, name), (_, entries) in tables.items() if section == "fuzzy"),
    )


def _written(name: str, kind: str, lineno: int) -> str:
    """``name``, if serialize_algebra may write it at line ``lineno``."""
    if name.split() != [name] or "#" in name or (kind == "element" and name in _SECTIONS):
        raise AlgebraSyntaxError(f"cannot write {kind} name {name!r}", lineno)
    return name


def serialize_algebra(doc: AlgebraDocument) -> str:
    """Canonical text rendering of a document.  A name that is empty or
    holds whitespace or ``#``, or an element named as a section keyword,
    would parse back as another document: it raises AlgebraSyntaxError at
    the line that would hold it."""
    lines = ["elements " + " ".join(_written(e, "element", 1) for e in doc.elements)]
    lines.append("covers")
    for a, b in doc.covers:
        lines.append(f"  {a} < {b}")
    if doc.neg is not None:
        lines.append("neg")
        for a, b in doc.neg:
            lines.append(f"  {a} -> {b}")
    for name, entries in doc.fuzzy:
        lines.append(f"fuzzy {_written(name, 'fuzzy map', len(lines) + 1)}")
        for e, g in entries:
            lines.append(f"  {e} = {format_grade(g)}")
    return "\n".join(lines) + "\n"


def document_to_objects(doc: AlgebraDocument
                        ) -> tuple[FiniteLattice, MSAlgebra | None, dict[str, FuzzySet]]:
    """Realize a document as a lattice, an optional algebra, and named
    grade maps.  Lattice construction errors propagate."""
    lat = build_lattice(doc.elements, doc.covers)
    ms = MSAlgebra(lat, dict(doc.neg)) if doc.neg is not None else None
    named = {
        name: FuzzySet(lat, tuple(g for _, g in entries))
        for name, entries in doc.fuzzy
    }
    return lat, ms, named


def document_from_objects(lat: FiniteLattice, ms: MSAlgebra | None = None,
                          fuzzy: dict[str, FuzzySet] | None = None
                          ) -> AlgebraDocument:
    """Inverse of document_to_objects, used to serialize witnesses."""
    neg = None
    if ms is not None:
        if ms.lattice != lat:
            raise UnknownElement("algebra does not live on the given lattice")
        neg = tuple((e, ms.neg[e]) for e in lat.elements)
    return AlgebraDocument(
        elements=lat.elements,
        covers=lat.covers,
        neg=neg,
        fuzzy=tuple((name, tuple(zip(lat.elements, fs.grades)))
                    for name, fs in (fuzzy or {}).items()),
    )
