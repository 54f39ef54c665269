"""The algebra document text format.

A document has up to four kinds of sections, each introduced by a keyword
line; the body of a section runs until the next keyword line.  ``#``
starts a comment, blank lines are ignored.

    elements a b c ...        identifiers, whitespace-separated (header
                              line and/or following lines)
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


class AlgebraSyntaxError(MsfuzzError):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class DuplicateElement(errors.DuplicateElement):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class DanglingReference(MsfuzzError):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class AlgebraDocument(Record):
    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]
    neg: tuple[tuple[str, str], ...] | None = None
    fuzzy: tuple[tuple[str, tuple[tuple[str, Fraction], ...]], ...] = ()


_KEYWORDS = ("elements", "covers", "neg", "fuzzy")

MAX_DOCUMENT_ELEMENTS = 1024


def parse_algebra(text: str) -> AlgebraDocument:
    """Parse a document, reporting the first error with its line number."""
    elements: list[str] = []
    known: set[str] = set()
    covers: list[tuple[str, str]] = []
    neg_entries: dict[str, str] = {}
    saw_neg = False
    fuzzy: list[tuple[str, dict[str, Fraction], int]] = []
    section: str | None = None
    saw_elements = False

    def require_known(name: str, lineno: int) -> None:
        if name not in known:
            raise DanglingReference(f"unknown element {name!r}", lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if head in _KEYWORDS:
            if head == "elements":
                if saw_elements:
                    raise AlgebraSyntaxError("second elements section", lineno)
                saw_elements = True
                section = "elements"
                tokens = tokens[1:]
                if not tokens:
                    continue
                head = None
            elif head == "covers":
                if len(tokens) != 1:
                    raise AlgebraSyntaxError("covers keyword takes no arguments", lineno)
                section = "covers"
                continue
            elif head == "neg":
                if len(tokens) != 1:
                    raise AlgebraSyntaxError("neg keyword takes no arguments", lineno)
                section = "neg"
                saw_neg = True
                continue
            else:
                if len(tokens) != 2:
                    raise AlgebraSyntaxError("expected: fuzzy NAME", lineno)
                name = tokens[1]
                if any(name == existing for existing, _, _ in fuzzy):
                    raise AlgebraSyntaxError(f"second fuzzy section {name!r}", lineno)
                fuzzy.append((name, {}, lineno))
                section = "fuzzy"
                continue

        if section == "elements":
            for tok in tokens:
                if tok in known:
                    raise DuplicateElement(f"element {tok!r} declared twice", lineno)
                if len(elements) == MAX_DOCUMENT_ELEMENTS:
                    raise SizeCapExceeded(
                        f"line {lineno}: more than {MAX_DOCUMENT_ELEMENTS} elements")
                elements.append(tok)
                known.add(tok)
        elif section == "covers":
            if len(tokens) != 3 or tokens[1] != "<":
                raise AlgebraSyntaxError("expected: a < b", lineno)
            require_known(tokens[0], lineno)
            require_known(tokens[2], lineno)
            covers.append((tokens[0], tokens[2]))
        elif section == "neg":
            if len(tokens) != 3 or tokens[1] != "->":
                raise AlgebraSyntaxError("expected: a -> b", lineno)
            require_known(tokens[0], lineno)
            require_known(tokens[2], lineno)
            if tokens[0] in neg_entries:
                raise DuplicateElement(f"negation of {tokens[0]!r} given twice", lineno)
            neg_entries[tokens[0]] = tokens[2]
        elif section == "fuzzy":
            if len(tokens) != 3 or tokens[1] != "=":
                raise AlgebraSyntaxError("expected: a = grade", lineno)
            require_known(tokens[0], lineno)
            name, entries, _ = fuzzy[-1]
            if tokens[0] in entries:
                raise DuplicateElement(
                    f"grade of {tokens[0]!r} in {name!r} given twice", lineno
                )
            try:
                entries[tokens[0]] = parse_grade(tokens[2])
            except GradeOutOfRange as exc:
                raise GradeOutOfRange(f"line {lineno}: {exc}") from None
        else:
            raise AlgebraSyntaxError(f"content before any section: {line!r}", lineno)

    if not elements:
        raise AlgebraSyntaxError("no elements section", 1)

    order = {e: i for i, e in enumerate(elements)}
    if saw_neg:
        for e in elements:
            if e not in neg_entries:
                raise AlgebraSyntaxError(
                    f"neg section is missing an entry for {e!r}", 1
                )
    fuzzy_norm = []
    for name, entries, header_line in fuzzy:
        for e in elements:
            if e not in entries:
                raise AlgebraSyntaxError(
                    f"fuzzy section {name!r} is missing a grade for {e!r}",
                    header_line,
                )
        fuzzy_norm.append(
            (name, tuple((e, entries[e]) for e in elements))
        )

    return AlgebraDocument(
        elements=tuple(elements),
        covers=tuple(sorted(covers, key=lambda p: (order[p[0]], order[p[1]]))),
        neg=tuple((e, neg_entries[e]) for e in elements) if saw_neg else None,
        fuzzy=tuple(fuzzy_norm),
    )


def serialize_algebra(doc: AlgebraDocument) -> str:
    """Canonical text rendering of a document."""
    lines = ["elements " + " ".join(doc.elements)]
    lines.append("covers")
    for a, b in doc.covers:
        lines.append(f"  {a} < {b}")
    if doc.neg is not None:
        lines.append("neg")
        for a, b in doc.neg:
            lines.append(f"  {a} -> {b}")
    for name, entries in doc.fuzzy:
        lines.append(f"fuzzy {name}")
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
    sections = []
    for name, fs in (fuzzy or {}).items():
        sections.append((name, tuple(zip(lat.elements, fs.grades))))
    return AlgebraDocument(
        elements=lat.elements,
        covers=lat.covers,
        neg=neg,
        fuzzy=tuple(sections),
    )
