"""The base of the package's immutable value records.

A record keeps its fields in ``__slots__``, so reading one is a slot load.
Assignment raises AttributeError; ``__init__`` validates its arguments and
stores each field with ``_set``.  Records compare, hash and print by the
fields named in ``_fields``, as frozen dataclasses do, and any other slot
(a derived value or a cache) stays out of all three.
"""

from __future__ import annotations

from typing import Any, Tuple

__all__ = ["Record"]

_set = object.__setattr__


class Record:
    """Immutable slots record, compared, hashed and shown by its fields."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"cannot delete field {name!r} of {type(self).__name__}")

    def _key(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        # rebuilt through __init__, so a copy is validated like the original
        return type(self), self._key()
