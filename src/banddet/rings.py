"""Exact arithmetic for the two rings the determinant formulas run in:
arbitrary-precision integers and integer-coefficient polynomials in one
variable.

Elements are immutable and support +, -, * and ** between elements of the
same ring; ``x * s`` and ``s * x`` with a plain Python int are the s-fold
sum (scalar multiple), and any other scalar (a bool or a float) raises
TypeError.  Mixing the two rings in one operation raises
:class:`MixedRingError`.  Formula code is written against the element
interface the two rings share, so it runs unchanged in either.
"""

from __future__ import annotations

import re
from itertools import zip_longest

from .errors import MixedRingError, _Record, _require_int

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


def _refuse_factor(x: "RingElement", y: object) -> None:
    """Raise for a factor y of x that is neither an element of x's ring nor
    a scalar: a non-element fails the integer rule, another ring's element
    raises MixedRingError."""
    if not isinstance(y, RingElement):
        _require_int("scalar", y)
    _require_same_ring(x, y, "multiply")


def _require_exponent(e: object) -> None:
    """The one exponent rule: an int (TypeError otherwise), at least 0."""
    _require_int("exponent", e)
    if e < 0:
        raise ValueError("exponent must be non-negative")


def _binomial_coeffs(c0: int, c1: int, e: int) -> list[int]:
    """Coefficients of (c0 + c1*x)^e, ascending: C(e,j) * c0^(e-j) * c1^j.
    C(e,j) and the powers of c0 and c1 are carried from term to term."""
    c0_pows = [1]
    for _ in range(e):
        c0_pows.append(c0_pows[-1] * c0)
    out = []
    binom = 1
    c1_pow = 1
    for j in range(e + 1):
        out.append(binom * c0_pows[e - j] * c1_pow)
        binom = binom * (e - j) // (j + 1)
        c1_pow *= c1
    return out


# below 640 digits, the least int <-> str limit the interpreter accepts,
# str() and int() never refuse: below 2**2048 an int has at most 617 digits
_PLAIN_STR_BITS = 2048
_PLAIN_STR_DIGITS = 617


def _int_str(x: int) -> str:
    """Exact decimal string of any int, whatever the interpreter's int -> str
    digit limit.  Large values go through stdlib decimal by divide and
    conquer (the scheme of CPython 3.12's _pylong.int_to_decimal_string):
    x = hi * 2**w + lo, with hi and lo converted recursively and the powers
    of two kept in Decimal, so no int -> str conversion of a large int runs."""
    if x.bit_length() <= _PLAIN_STR_BITS:
        return str(x)
    import decimal

    D = decimal.Decimal
    pow2: dict[int, decimal.Decimal] = {}

    def two_to(w: int) -> decimal.Decimal:
        result = pow2.get(w)
        if result is None:
            if w <= _PLAIN_STR_BITS:
                result = D(2) ** w
            else:
                half = w >> 1
                result = two_to(half) * two_to(w - half)
            pow2[w] = result
        return result

    def convert(n: int, w: int) -> decimal.Decimal:
        if w <= _PLAIN_STR_BITS:
            return D(n)
        half = w >> 1
        hi = n >> half
        lo = n - (hi << half)
        return convert(lo, half) + convert(hi, w - half) * two_to(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(x), x.bit_length()))
    return "-" + digits if x < 0 else digits


def _int_parse(s: object) -> int:
    """The int of a canonical decimal string -?[0-9]+, at any length and
    whatever the interpreter's str -> int digit limit; anything else raises
    ValueError.  The inverse of _int_str: long strings are read by divide
    and conquer, hi * 10**len(lo) + lo, with the powers of ten cached."""
    if not isinstance(s, str) or re.fullmatch(r"-?[0-9]+", s) is None:
        raise ValueError(f"not a canonical decimal integer: {s!r}")
    digits = s.lstrip("-")
    pow10: dict[int, int] = {}

    def convert(start: int, stop: int) -> int:
        if stop - start <= _PLAIN_STR_DIGITS:
            return int(digits[start:stop])
        w = (stop - start) >> 1
        if w not in pow10:
            pow10[w] = 10**w
        return convert(start, stop - w) * pow10[w] + convert(stop - w, stop)

    x = convert(0, len(digits))
    return -x if s[0] == "-" else x


class RingElement(_Record):
    """An immutable element of a commutative ring with unit; each ring
    defines ring_zero(), ring_one() and is_zero() beside the operators."""

    __slots__ = ()

    def __pow__(self, exponent: int) -> "RingElement":
        """Exact power; x**0 is the ring one.  A two-term polynomial
        c0 + c1*b is expanded by the binomial theorem in O(exponent) scalar
        products; every other base is raised by repeated squaring."""
        _require_exponent(exponent)
        if isinstance(self, Poly) and len(self.coeffs) == 2:
            return _poly(tuple(_binomial_coeffs(*self.coeffs, exponent)))
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


class Integer(RingElement):
    """Arbitrary-precision signed integer; wraps exactly an int, not a bool."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        if type(value) is not int:
            raise TypeError("Integer wraps a Python int")
        _set_value(self, value)

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
        if type(other) is not Integer:
            if type(other) is int:
                return Integer(self.value * other)
            _refuse_factor(self, other)
        return Integer(self.value * other.value)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Integer":
        _require_exponent(exponent)
        return Integer(self.value**exponent)

    def __str__(self) -> str:
        return _int_str(self.value)


class Poly(RingElement):
    """Integer-coefficient polynomial, dense ascending coefficients.

    Canonical form: no trailing zero coefficients; the zero polynomial is
    the empty tuple.  The variable prints as ``b``, the symbol used for
    the in-band value throughout this package.  A coefficient that is not
    exactly an int (a bool or a float) raises TypeError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()) -> None:
        cs = tuple(coeffs)
        if not set(map(type, cs)) <= {int}:
            raise TypeError("Poly coefficients must be Python ints")
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        _set_coeffs(self, cs)

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
        _require_int("power", k)
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
        return _poly(())

    def ring_one(self) -> "Poly":
        return _poly((1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        _require_same_ring(self, other, "add")
        return _poly(
            tuple(x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0))
        )

    def __neg__(self) -> "Poly":
        return _poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly | int") -> "Poly":
        if type(other) is not Poly:
            if type(other) is int:
                return _poly(tuple(c * other for c in self.coeffs))
            _refuse_factor(self, other)
        if not self.coeffs or not other.coeffs:
            return _poly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    out[i + j] += ci * cj
        return _poly(tuple(out))

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = _int_str(abs(c))
            if k == 0:
                term = mag
            elif k == 1:
                term = "b" if mag == "1" else f"{mag}*b"
            else:
                term = f"b^{k}" if mag == "1" else f"{mag}*b^{k}"
            if not parts:
                parts.append(f"-{term}" if c < 0 else term)
            else:
                parts.append(f"- {term}" if c < 0 else f"+ {term}")
        return " ".join(parts)


_set_value, _set_coeffs = Integer._setters + Poly._setters


def _poly(cs: tuple) -> Poly:
    """The Poly of int coefficients computed from other Polys' ones, built
    without Poly's type check: ring arithmetic makes no other kind."""
    while cs and cs[-1] == 0:
        cs = cs[:-1]
    p = object.__new__(Poly)
    _set_coeffs(p, cs)
    return p


def as_element(v: "RingElement | int") -> RingElement:
    """Coerce a plain int to :class:`Integer`; pass ring elements through."""
    return v if isinstance(v, RingElement) else Integer(v)


def element_to_json(x: RingElement) -> "str | list[str]":
    """JSON value for an element: integers as decimal strings, polynomials
    as ordered arrays of decimal-string coefficients (index = power)."""
    if isinstance(x, Integer):
        return _int_str(x.value)
    if isinstance(x, Poly):
        return [_int_str(c) for c in x.coeffs]
    raise TypeError(f"not a ring element: {type(x).__name__}")


def element_from_json(obj: "str | list[str]") -> RingElement:
    """Inverse of :func:`element_to_json`; round-trips exactly at any size.
    Each integer must be a canonical decimal string, -?[0-9]+, or
    ValueError is raised."""
    if isinstance(obj, str):
        return Integer(_int_parse(obj))
    if isinstance(obj, list):
        return Poly(tuple(_int_parse(s) for s in obj))
    raise TypeError(f"cannot decode ring element from {type(obj).__name__}")
