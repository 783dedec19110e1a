"""The base of the package's records.  The package imports no ``dataclasses``,
which pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize`` and compiles code
for every class: more than the rest of the import costs a fresh interpreter."""

from operator import attrgetter


class Record:
    """An immutable record, as a frozen dataclass over ``_fields`` would be.

    ``_fields``, by default the parameters of ``__init__``, are what the
    repr shows and what equality (within one class) and hashing compare.
    Each ``__init__`` takes only inputs, never a value it can work out from
    the others, and sets them, and the attributes derived from them, once,
    through ``_set``; a derived attribute is no field, so it cannot
    contradict the inputs.  Assigning or deleting any attribute afterwards
    raises AttributeError, and no subclass overrides that or the hash.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = cls.__dict__.get("_fields", code.co_varnames[1:code.co_argcount])
        cls._key = attrgetter(*cls._fields)
        if not cls.__dictoffset__:  # slotted: each field through its slot's descriptor
            cls._set = Record._set_slots

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def _set(self, **fields):
        """Set every attribute at once, past the guard below, as the instance's ``__dict__``."""
        object.__setattr__(self, "__dict__", fields)

    def _set_slots(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
