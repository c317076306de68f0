"""Immutable value classes: a subclass names its compared fields in
``FIELDS`` and inherits a constructor that takes one value per field, in
that order.  A class that checks its input or keeps a memo outside
``FIELDS`` writes its own ``__init__`` instead, setting every field in one
``self.__dict__.update(...)``; a memo goes into ``__dict__`` too.  No
subclass defines ``__eq__`` or ``__hash__``; those below compare ``FIELDS``."""

from operator import attrgetter


class Value:
    """Equal, hashed and printed by FIELDS in order, as a frozen dataclass
    is by its fields; assigning or deleting any attribute raises."""

    FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # one field reads as its value, several as a tuple of them
        cls._values = attrgetter(*cls.FIELDS)

    def __init__(self, *values) -> None:
        if len(values) != len(self.FIELDS):
            raise TypeError(f"{self.__class__.__qualname__}() takes {len(self.FIELDS)} "
                            f"values {self.FIELDS}, got {len(values)}")
        self.__dict__.update(zip(self.FIELDS, values))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
