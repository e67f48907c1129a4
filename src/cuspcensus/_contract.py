"""What every layer shares: the argument contract and the value base.

The argument contract: a size below its least value is refused, before
any work, by a ValueError whose message starts with the name of the
parameter (or, in the CLI, of the flag).

The value base: every record type of the package (sign tuples, words,
matrices, enclosures, census rows and checks) is a :class:`Value`, an
immutable slotted object whose fields are the names in its class's
``__slots__``, in that order.  Each class writes its own ``__init__``,
which takes the fields in that order, positionally or by keyword, checks
them and sets them with ``object.__setattr__``.  The base compares and
hashes instances by their fields, spells them ``Name(field=value, ...)``,
refuses assignment and deletion, and reduces them to their class and
fields, so that ``copy`` and ``pickle`` rebuild them through ``__init__``.
No method is generated at import.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional


def check_least(**sizes: tuple[Optional[int], int]) -> None:
    """Raise ValueError naming the first size below its least value; each
    keyword maps a name to (value, least), and a value of None, an
    optional size left out, passes."""
    for name, (value, least) in sizes.items():
        if value is not None and value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


class Value:
    """An immutable record whose fields are its class's ``__slots__``.

    Two values are equal when they are of one class and their fields are
    equal; a value of another class compares by ``NotImplemented``.  The
    hash is the hash of the tuple of fields.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # the tuple of fields, read through the class; attrgetter of one
        # name gives the value itself
        cls._fields = get if len(cls.__slots__) > 1 else lambda value: (get(value),)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self.__class__._fields
        return fields(self) == fields(other)

    def __hash__(self) -> int:
        return hash(self.__class__._fields(self))

    def __repr__(self) -> str:
        cls = self.__class__
        pairs = zip(cls.__slots__, cls._fields(self))
        return f"{cls.__qualname__}({', '.join(f'{name}={value!r}' for name, value in pairs)})"

    def __reduce__(self):
        return self.__class__, self.__class__._fields(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
