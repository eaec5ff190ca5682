"""Immutable records without generated code.

A record's fields are the parameters of its own ``__init__``, in order. Each
record writes that ``__init__`` by hand, checks included, and stores the
fields with ``self.__dict__.update`` (or in its slots). ``Record`` supplies the
rest from one ``attrgetter`` of the field names per class: equality with
records of the same class only, ``hash`` equal to the hash of the field tuple,
``repr``, and refusal of any assignment or deletion. ``replace`` copies a
record with some fields changed, and ``asdict`` reads its fields into a dict.
Nothing here builds or compiles source text, so defining a record costs no
more than defining a plain class.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the value itself, not a 1-tuple
        cls._values = get if len(cls._fields) > 1 else staticmethod(lambda r: (get(r),))

    def __eq__(self, other):
        if other is self:  # as the field tuples would say, without building them
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


def replace(record: Record, **changes) -> Record:
    """A new record of the same class with ``changes`` to its fields, built
    (and so checked) by the class's own ``__init__``."""
    return type(record)(**dict(zip(record._fields, record._values(record)), **changes))


def asdict(record: Record) -> dict:
    """The fields by name, every dict, list and tuple in them copied, so the
    result shares no container with the record."""
    return {f: _copied(v) for f, v in zip(record._fields, record._values(record))}


def _copied(value):
    if isinstance(value, dict):
        return {_copied(k): _copied(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_copied(v) for v in value)
    return value
