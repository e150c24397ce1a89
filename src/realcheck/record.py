"""Base classes of realcheck's records: field-list repr, value equality,
immutability.

Each record class writes its own ``__init__`` and lists its shown fields in
``_fields``.  ``Frozen`` records refuse assignment and deletion; their
constructors store each field with ``set_field`` (``object.__setattr__``).
``Value`` records (and the mutable classes that take ``Value.__eq__``)
compare equal field by field, between instances of the same class.
"""

__all__ = ["Record", "Frozen", "Value", "set_field"]

# Stores a field of a Frozen record while it is constructed.  One call per
# field: a loop over keyword arguments costs more than the fields, and
# updating ``vars(self)`` would make every later attribute read slower.
set_field = object.__setattr__


class Record:
    """``repr`` shows the ``_fields`` attributes as ``Name(field=value, ...)``."""

    __slots__ = ()
    _fields = ()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)


class Frozen(Record):
    """A record whose attributes cannot be assigned or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Frozen):
    """A frozen record equal to, and hashed as, the tuple of its fields."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())
