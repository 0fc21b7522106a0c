"""Base classes for the package's small value types.

A record's fields are the names in its class's ``__slots__``, in order; a
record with a slot derived from the others (``Graph``, ``ranking.Tree``,
``chordal.CliqueTree``) names its fields through ``_values`` instead.
``==`` compares the fields (records of the same class only), ``repr``
lists them as ``Name(field=value, ...)`` and, for a :class:`FrozenRecord`,
``hash`` hashes them, so a frozen record hashes when its field values do
(one holding a dict raises ``TypeError``, as a frozen dataclass would): the
behaviour a dataclass would generate, without importing
:mod:`dataclasses` (and with it :mod:`inspect` and :mod:`ast`) or compiling
methods when the package loads.  Each subclass writes its own ``__init__``;
a shared one looping over the fields would build every object several times
more slowly.
"""

# sets a field of a frozen record, in its __init__
setfield = object.__setattr__


class Record:
    """Mutable, unhashable record; ``_hidden`` fields stay out of ``repr``."""

    __slots__ = ()
    _hidden = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (
            self.__class__.__qualname__,
            ", ".join(
                "%s=%r" % (name, getattr(self, name))
                for name in self.__slots__
                if name not in self._hidden
            ),
        )

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return self.__class__, self._values()


class FrozenRecord(Record):
    """Record whose fields cannot be reassigned; hashable by value."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
