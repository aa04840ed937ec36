"""The base of the package's value classes.

A subclass names its fields in ``__slots__``, in constructor order, and
writes its own ``__init__``. ``Slotted`` gives it equality (same class,
equal fields), ``repr`` as ``Name(field=value, ...)`` and
``__match_args__``. A ``Frozen`` subclass stores each field once with
``store`` (``object.__setattr__``), or, where a value is built for each
record a workspace load reads, with the field's own setter, bound by name
through ``setters``, and is then immutable and
hashable; an ``Ordered`` one also sorts by its field tuple. Nothing here
generates code, so a class costs no more to define than its body.
"""

from __future__ import annotations

from functools import total_ordering
from operator import attrgetter

#: Sets a field past ``Frozen.__setattr__``; each ``__init__`` stores with it.
store = object.__setattr__


def setters(cls: type, *names: str) -> list:
    """The setter of each field of ``cls`` named, in the order named: the slot's
    own ``__set__``, which skips the attribute lookup ``store`` makes."""
    return [getattr(cls, name).__set__ for name in names]


def _no_fields(value: object) -> tuple:
    return ()


class Slotted:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names = cls.__slots__
        cls.__match_args__ = names
        # The fields of a value, as one object to compare or hash.
        cls._key = staticmethod(attrgetter(*names) if names else _no_fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Slotted):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by assignment.
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


@total_ordering  # from __lt__ and __eq__
class Ordered(Frozen):
    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) < self._key(other)
