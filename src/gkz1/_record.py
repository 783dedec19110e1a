"""The base of the package's records.  The package imports no ``dataclasses``,
which pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize`` and compiles code
for every class: more than the rest of the import costs a fresh interpreter."""

from operator import attrgetter


class Record:
    """An immutable record, as a frozen dataclass over ``_fields`` would be.

    ``_fields``, by default the parameters of ``__init__``, are what the
    repr shows and what equality (within one class) and hashing compare.
    Each ``__init__`` sets its fields, and any attributes derived from them,
    once, through ``_set``; assigning or deleting one afterwards raises
    AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = cls.__dict__.get("_fields", code.co_varnames[1:code.co_argcount])
        cls._key = attrgetter(*cls._fields)

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
        """Set each attribute with object.__setattr__, past the guard below:
        through a slot's descriptor where there is one, and never through
        ``__dict__``, which would make a real instance dict."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
