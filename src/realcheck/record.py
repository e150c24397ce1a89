"""Base classes of realcheck's records: field-list repr, value equality,
immutability.

Each record class lists its shown fields in ``_fields``.  ``Frozen``
records refuse assignment and deletion; ``Frozen.__init__`` binds its
arguments to those fields, and a record that checks them calls it first.
Only records that derive fields or are built in bulk write their own with
``set_field`` (``object.__setattr__``).
``Value`` records (and the mutable classes that take ``Value.__eq__``)
compare equal field by field, between instances of the same class.
"""

__all__ = ["Record", "Frozen", "Value", "set_field"]

# Stores a field of a Frozen record while it is constructed.  Records built in
# bulk call it once per field: the binding loop costs more than the fields, and
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

    def __init__(self, *args, **kwargs):
        """Binds the arguments to ``_fields`` as a call would; a field not
        given takes the class attribute of that name, its default."""
        cls, fields = type(self), self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(fields)} arguments, got {len(args)}")
        stray = sorted(kwargs.keys() - fields[len(args):])
        if stray:
            problem = "multiple values for" if stray[0] in fields else "an unexpected argument"
            raise TypeError(f"{cls.__qualname__}() got {problem} {stray[0]!r}")
        kwargs.update(zip(fields, args))
        for name in fields:  # in _fields order, so that instances share dict keys
            if name not in kwargs and not hasattr(cls, name):
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
            set_field(self, name, kwargs[name] if name in kwargs else getattr(cls, name))

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

    def __reduce__(self):
        return type(self), self._values()
