"""Immutable records: the base of the package's small value classes.

A record's fields are its ``__slots__``.  It equals only a record of the
same class with equal fields, hashes as the tuple of its fields, prints as
``Name(field=value, ...)`` and refuses assignment and deletion, as a frozen
dataclass does, without generating a class at import time.
"""

#: Sets a field from a record's own ``__init__``, past the refusal below.
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        """The fields in ``__slots__`` order, by position or by name."""
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, from a call that names some of them."""
        names = self.__slots__
        given = dict(zip(names, args))
        values = {**given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs.keys() or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        return [values[name] for name in names]

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._fields()
