"""Frozen value records: the base of every parameter and result type.

A subclass declares its fields as annotations, with optional defaults,
and may define ``__post_init__`` to validate them. A float field
annotated ``Positive``, ``NonNegative`` or ``Finite`` declares its domain,
which the constructor checks first, in field order, with the message of
the matching ``require_*`` of :mod:`ringpair.errors`. It gets what
``@dataclass(frozen=True)`` gives, with the same semantics and ``repr``:
an ``__init__`` taking the fields positionally or by keyword, which runs
``__post_init__``; assignment and deletion raising ``AttributeError``;
``==`` between records of one class with equal fields; a hash of the
field tuple. Only the class's own annotations are fields, in order.

Each class gets one ``__init__`` compiled by a single ``exec``, as
``collections.namedtuple`` does, so start-up pays neither the import of
:mod:`dataclasses` (which loads ``inspect``) nor its per-method code
generation. :func:`replace` validates the copy again; :func:`asdict`
turns nested records into dicts.
"""

from __future__ import annotations

import math
from typing import Any

from .errors import require_finite, require_non_negative, require_positive

# Domain markers: aliases of float, which Record reads from the annotation's
# text, so a module using them needs ``from __future__ import annotations``.
Positive = NonNegative = Finite = float
# Marker -> the lower end of the chain ``lo x < _inf``, which fails outside the
# domain and for nan, and the check then called for its message.
_DOMAINS = {
    "Positive": ("0.0 <", require_positive),
    "NonNegative": ("0.0 <=", require_non_negative),
    "Finite": ("-_inf <", require_finite),
}
_INIT_GLOBALS = {"_inf": math.inf, **{f.__name__: f for _, f in _DOMAINS.values()}}


class Record:
    """Base of the frozen records; see the module docstring."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        annotations = own.get("__annotations__", {})
        names = tuple(annotations)
        defaults = tuple(own[n] for n in names if n in own)
        if any(n in own for n in names[: len(names) - len(defaults)]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with one")
        checks = [(n, *_DOMAINS[a]) for n, a in annotations.items() if a in _DOMAINS]
        body = [f"    if not {lo} {n} < _inf: {f.__name__}({n!r}, {n})" for n, lo, f in checks]
        # Fields go straight into the instance dict, past the frozen __setattr__.
        body += [f"    self.__dict__[{n!r}] = {n}" for n in names]
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
        source = f"def __init__(self, {', '.join(names)}):\n" + "\n".join(body or ["    pass"])
        namespace = dict(_INIT_GLOBALS)
        exec(source, namespace)
        init = namespace["__init__"]
        init.__defaults__ = defaults or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        cls.__init__ = init
        cls._fields = names

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def replace(record: Record, /, **changes: Any) -> Any:
    """A copy of ``record`` with ``changes`` applied, validated again.

    Raises ``TypeError`` for a name that is not a field.
    """
    values = {n: getattr(record, n) for n in record._fields}
    values.update(changes)
    return record.__class__(**values)


def asdict(record: Record) -> dict[str, Any]:
    """The fields of ``record`` as a dict; nested records become dicts too,
    inside tuples and lists as well."""
    return {n: _plain(getattr(record, n)) for n in record._fields}


def _plain(value: Any) -> Any:
    if isinstance(value, Record):
        return asdict(value)
    if isinstance(value, (tuple, list)):
        return type(value)(_plain(v) for v in value)
    return value
