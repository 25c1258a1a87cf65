"""Exception types shared across the package, the one integer rule
(:func:`_require_int`), the one order rule (:func:`_require_order`, and
:func:`_require_square` for matrices) and :class:`_Record`, the base of the
package's immutable value classes."""

from operator import attrgetter

__all__ = [
    "MixedRingError",
    "InexactDivisionError",
    "DivisibilityError",
    "SizeLimitError",
    "ParityError",
    "InvalidPermutationError",
]


class MixedRingError(TypeError):
    """Binary operation applied to elements of different rings."""


class InexactDivisionError(ArithmeticError):
    """An exact integer division left a remainder: unreachable for valid
    inputs, so raising it means a parameter or transcription bug."""


DivisibilityError = InexactDivisionError  # the same fault by another name; only Bareiss raises it


class SizeLimitError(RuntimeError):
    """Order exceeds a cost guard for an exponential-time routine."""


class ParityError(ArithmeticError):
    """per + det turned out odd, or a parity census is inconsistent."""


class InvalidPermutationError(ValueError):
    """Sequence is not a permutation of 1..n (0..n-1 for perm_sign) in
    one-line notation."""


def _require_int(name: str, value: object) -> None:
    """Raise TypeError("<name> must be an int, got <repr>") unless value is
    exactly an int: a bool, a float or an int subclass is refused."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")


def _require_order(n: int, what: str = "order n") -> None:
    """Refuse n unless it is an int (TypeError) of at least 1 (ValueError
    "<what> must be positive")."""
    _require_int(what, n)
    if n < 1:
        raise ValueError(f"{what} must be positive")


def _require_square(rows) -> None:
    """Refuse a matrix with no rows, or a row not as long as there are rows."""
    _require_order(len(rows))
    if set(map(len, rows)) != {len(rows)}:
        raise ValueError("matrix must be square")


class _Record:
    """An immutable value whose fields are its class's ``__slots__``, set in
    order by the base ``__init__``; a class that checks its fields does so
    in its own first.  Equality, hash and repr read the fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields += cls.__dict__.get("__slots__", ())
        # each slot's own setter, which the refusing __setattr__ does not block
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        if cls._fields:
            # one field gives its bare value, several a tuple: either compares
            cls._key = attrgetter(*cls._fields)

    def __init__(self, *values) -> None:
        for set_field, value in zip(self._setters, values, strict=True):
            set_field(self, value)

    @classmethod
    def _unchecked(cls, *values):
        """The value of fields that already meet the class's checks, built
        without running them: for a caller that holds those invariants."""
        self = object.__new__(cls)
        _Record.__init__(self, *values)
        return self

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot set or delete field {name!r} of an immutable value")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild the value through __init__
        return type(self), tuple(map(self.__getattribute__, self._fields))
