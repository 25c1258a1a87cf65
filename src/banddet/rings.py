"""Exact arithmetic for the two rings the determinant formulas run in:
arbitrary-precision integers and integer-coefficient polynomials in one
variable.

Elements are immutable and support +, -, * and ** between elements of the
same ring; ``x * s`` and ``s * x`` with a plain Python int are the s-fold
sum (scalar multiple).  Mixing the two rings in one operation raises
:class:`MixedRingError`.  Formula code is written against the shared
element interface so further rings could be added without touching it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .errors import MixedRingError

__all__ = [
    "RingElement",
    "Integer",
    "Poly",
    "as_element",
    "element_to_json",
    "element_from_json",
]


def _require_same_ring(x: "RingElement", y: object, op: str) -> None:
    if type(x) is not type(y):
        raise MixedRingError(
            f"cannot {op} {type(x).__name__} and {type(y).__name__}"
        )


class RingElement:
    """An immutable element of a supported commutative ring with unit."""

    __slots__ = ()

    def ring_zero(self) -> "RingElement":
        raise NotImplementedError

    def ring_one(self) -> "RingElement":
        raise NotImplementedError

    def is_zero(self) -> bool:
        raise NotImplementedError

    def __pow__(self, exponent: int) -> "RingElement":
        """Exact power by repeated squaring; x**0 is the ring one."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        result = self.ring_one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)


@dataclass(frozen=True, slots=True)
class Integer(RingElement):
    """Arbitrary-precision signed integer."""

    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int):
            raise TypeError("Integer wraps a Python int")

    def ring_zero(self) -> "Integer":
        return Integer(0)

    def ring_one(self) -> "Integer":
        return Integer(1)

    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other: "Integer") -> "Integer":
        _require_same_ring(self, other, "add")
        return Integer(self.value + other.value)

    def __neg__(self) -> "Integer":
        return Integer(-self.value)

    def __mul__(self, other: "Integer | int") -> "Integer":
        if isinstance(other, int):
            return Integer(self.value * other)
        _require_same_ring(self, other, "multiply")
        return Integer(self.value * other.value)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Integer":
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        return Integer(self.value**exponent)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Poly(RingElement):
    """Integer-coefficient polynomial, dense ascending coefficients.

    Canonical form: no trailing zero coefficients; the zero polynomial is
    the empty tuple.  The variable prints as ``b``, the symbol used for
    the in-band value throughout this package.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        cs = tuple(self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def constant(cls, c: int) -> "Poly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "Poly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        """Coefficient of the k-th power; 0 when k exceeds the degree."""
        if k < 0:
            raise ValueError("power must be non-negative")
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def evaluate(self, v: int) -> int:
        """Value at an integer point, by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def ring_zero(self) -> "Poly":
        return Poly(())

    def ring_one(self) -> "Poly":
        return Poly((1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        _require_same_ring(self, other, "add")
        return Poly(
            tuple(x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0))
        )

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly | int") -> "Poly":
        if isinstance(other, int):
            return Poly(tuple(c * other for c in self.coeffs))
        _require_same_ring(self, other, "multiply")
        if not self.coeffs or not other.coeffs:
            return Poly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    out[i + j] += ci * cj
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            elif k == 1:
                term = "b" if mag == 1 else f"{mag}*b"
            else:
                term = f"b^{k}" if mag == 1 else f"{mag}*b^{k}"
            if not parts:
                parts.append(f"-{term}" if c < 0 else term)
            else:
                parts.append(f"- {term}" if c < 0 else f"+ {term}")
        return " ".join(parts)


def as_element(v: "RingElement | int") -> RingElement:
    """Coerce a plain int to :class:`Integer`; pass ring elements through."""
    if isinstance(v, RingElement):
        return v
    if isinstance(v, int):
        return Integer(v)
    raise TypeError(f"cannot use {type(v).__name__} as a ring element")


def element_to_json(x: RingElement) -> "str | list[str]":
    """JSON value for an element: integers as decimal strings, polynomials
    as ordered arrays of decimal-string coefficients (index = power)."""
    if isinstance(x, Integer):
        return str(x.value)
    if isinstance(x, Poly):
        return [str(c) for c in x.coeffs]
    raise TypeError(f"not a ring element: {type(x).__name__}")


def element_from_json(obj: "str | list[str]") -> RingElement:
    """Inverse of :func:`element_to_json`; round-trips exactly."""
    if isinstance(obj, str):
        return Integer(int(obj))
    if isinstance(obj, list):
        return Poly(tuple(int(s) for s in obj))
    raise TypeError(f"cannot decode ring element from {type(obj).__name__}")
