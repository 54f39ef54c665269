"""Structured pass/fail reports shared by the validators, and ``Record``,
the base of the package's immutable value classes."""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Mapping


class Record:
    """Base of an immutable value class, built without generated code.

    A subclass declares its fields as annotated class attributes, in
    order; a field's class value, if it has one, is its default.  The
    constructor takes the fields by position or keyword, then calls
    ``__post_init__``.  Two records of one class are equal, and hash
    alike, when their fields are; ``repr`` is ``Name(field=value, ...)``;
    assigning or deleting an attribute raises AttributeError.  Values
    cached in the instance ``__dict__`` (``functools.cached_property``)
    are not fields.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, {len(args)} given")
        values = self.__dict__
        values.update(zip(fields, args))
        for field in fields[len(args):]:
            if field in kwargs:
                values[field] = kwargs.pop(field)
            elif field in self._defaults:
                values[field] = self._defaults[field]
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected or repeated argument "
                            f"{next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, attr, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {attr!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Check(Record):
    """Outcome of one named check, with an optional JSON-able witness."""

    check_id: str
    passed: bool
    detail: str = ""
    witness: Mapping[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"id": self.check_id, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        return out


class VerificationReport(Record):
    """An ordered bundle of checks."""

    title: str
    checks: tuple[Check, ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def find(self, check_id: str) -> Check:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def to_dict(self) -> dict[str, Any]:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }

    def render_text(self) -> str:
        lines = [self.title]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"  [{mark}] {c.check_id}"
            if c.detail:
                line += f"  {c.detail}"
            if c.witness:
                pretty = ", ".join(f"{k}={v}" for k, v in c.witness.items())
                line += f"  ({pretty})"
            lines.append(line)
        n_fail = len(self.failed())
        lines.append(f"  {len(self.checks) - n_fail} passed, {n_fail} failed")
        return "\n".join(lines)
