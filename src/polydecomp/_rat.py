"""Helpers for exact rational scalars, and the base of the result records.

Scalars are plain ``int`` when integral and ``fractions.Fraction`` otherwise.
``normalize`` maintains that convention after arithmetic so the common
all-integer code paths stay on fast native ints; mixed int/Fraction
arithmetic is exact either way.
"""

from __future__ import annotations

from fractions import Fraction

Rat = int | Fraction


class Record:
    """An immutable record whose fields are its ``__slots__``, in order.

    A subclass names its fields in ``__slots__`` and the defaults of the
    trailing ones in ``_defaults``.  Construction takes the fields by
    position or keyword; equality, hashing, ``repr`` and pickling go by the
    tuple of fields, as for a frozen dataclass.
    """

    __slots__ = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        cls = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} arguments, {len(args)} given")
        values = dict(zip(names[len(names) - len(self._defaults) :], self._defaults))
        values.update(zip(names, args))
        for key, value in kwargs.items():
            if key not in names or key in names[: len(args)]:
                raise TypeError(f"{cls}() got an unexpected or repeated argument {key!r}")
            values[key] = value
        for name in names:
            if name not in values:
                raise TypeError(f"{cls}() missing argument {name!r}")
            object.__setattr__(self, name, values[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # unpickling and deepcopy rebuild through __init__, as __setattr__ refuses
        return type(self), self._fields()


def normalize(x: Rat) -> Rat:
    """Collapse integral Fractions to int; pass ints through."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator
        return x
    return x


def to_rat(value) -> Rat:
    """Coerce an int, Fraction, or 'a/b' string to a normalized scalar."""
    if isinstance(value, int):
        return value
    return normalize(Fraction(value))


def rat_str(x: Rat) -> str:
    """Render a scalar as 'a' or 'a/b' in lowest terms."""
    return str(x)
