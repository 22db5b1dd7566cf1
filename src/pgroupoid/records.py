"""Value records without :mod:`dataclasses`.

``dataclasses`` imports :mod:`inspect` and builds every method of every
record with ``exec``; on CPython 3.11 that was most of the time it took
to import this package, which each CLI call pays.  A record here is a
``__slots__`` class with a hand-written ``__init__``.  :class:`Record`
gives it what ``@dataclass`` gave: the ``repr`` ``Name(field=value, ...)``
and ``==`` on the tuple of fields between instances of one class.  A
class declared with ``frozen=True`` is also hashed on that tuple; the
others are unhashable, as a dataclass that is not frozen.  Frozen records
are not guarded against assignment: they key dicts and caches, so treat
them as immutable.
"""
from operator import attrgetter


class Record:
    """Base of the package's records.

    The fields are the class's ``__slots__``, or its ``_fields`` when it
    keeps more slots than fields.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen=False):
        fields = cls.__dict__.get("_fields", cls.__slots__)
        get = attrgetter(*fields)
        cls._fields = fields
        # one field still compares and hashes as a 1-tuple, as in a dataclass
        cls._key = property(get if len(fields) > 1 else lambda self: (get(self),))
        cls.__hash__ = _hash if frozen else None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __repr__(self):
        args = ", ".join([f"{name}={value!r}"
                          for name, value in zip(self._fields, self._key)])
        return f"{type(self).__qualname__}({args})"


def _hash(record):
    return hash(record._key)
