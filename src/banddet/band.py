"""Generalized binary band (Toeplitz) matrices and their closed-form
determinants.

A :class:`BandSpec` (n, k, l, a, b) describes the n x n Toeplitz matrix
whose entry at (i, j) is b inside the band -l < j - i < k and a outside
it.  The determinant comes in O(1) ring operations from one of two closed
forms, dispatched on l; an independent recurrence path exists for
cross-checking the l = 1 case.
"""

from __future__ import annotations

from .errors import MixedRingError, _Record, _require_int, _require_order
from .oracle import DenseMatrix, _exact_div
from .rings import RingElement, as_element, element_from_json, element_to_json

__all__ = [
    "BandSpec",
    "BandResidue",
    "FactoredDet",
    "entry",
    "band_rows",
    "materialize",
    "residue",
    "det_case1",
    "det_case2",
    "det_factored",
    "det_closed",
    "f_closed",
    "g_closed",
    "bordered_matrix",
    "det_recurrence",
    "all_b_row_count",
    "spec_to_json",
    "spec_from_json",
]

# The census tables of permcount.family_table, by name: named here, where
# the CLI can list them without loading the census code
_FAMILY_NAMES = ("menage-a", "menage-b", "excedance-k2")


class BandSpec(_Record):
    """Five-parameter band description with int 1 <= l <= k <= n and a != b
    (a bool or float order or width raises TypeError).

    l > k is accepted and normalized by swapping k and l.  The swap
    transposes the matrix, which leaves the determinant (and permanent)
    unchanged; entry positions reflect the normalized orientation.
    """

    __slots__ = ("n", "k", "l", "a", "b")

    def __init__(self, n: int, k: int, l: int, a, b) -> None:
        for name, v in zip("nkl", (n, k, l)):
            _require_int(name, v)
        a, b = as_element(a), as_element(b)
        if not (1 <= k <= n and 1 <= l <= n):
            _require_order(n)  # n < 1 fails with the order rule's message
            raise ValueError(f"need 1 <= k, l <= n, got n={n} k={k} l={l}")
        if l > k:
            k, l = l, k
        if type(a) is not type(b):
            raise MixedRingError("a and b must come from the same ring")
        if a == b:
            raise ValueError("a and b must differ")
        super().__init__(n, k, l, a, b)


class BandResidue(_Record):
    """Residue of n under the case-appropriate convention.

    case 1 (l = 1):  n = k*quotient + p with 0 < p <= k.
    case 2 (l > 1):  n = (k+l-1)*quotient + p with 0 <= p < k+l-1.

    The two conventions differ (case 1 excludes p = 0, case 2 includes
    it) and are kept separate on purpose.
    """

    __slots__ = ("p", "quotient", "case")


def _band_run(n: int, k: int, l: int, i: int) -> tuple[int, int]:
    """The in-band columns of 0-based row i of an order-n matrix: the
    half-open range [lo, hi) of j with -l < j - i < k, clipped to the
    matrix, so windows wider than the matrix are allowed."""
    return max(i - l + 1, 0), min(i + k, n)


def entry(spec: BandSpec, i: int, j: int) -> RingElement:
    """Entry at 1-based (i, j): b inside the band window, a outside it."""
    _require_int("i", i)
    _require_int("j", j)
    if not (1 <= i <= spec.n and 1 <= j <= spec.n):
        raise IndexError(f"position ({i}, {j}) outside order {spec.n}")
    lo, hi = _band_run(spec.n, spec.k, spec.l, i - 1)
    return spec.b if lo <= j - 1 < hi else spec.a


def band_rows(n: int, k: int, l: int, inside, outside) -> tuple[tuple, ...]:
    """Rows of the order-n matrix with `inside` in the band window of
    widths (k, l) and `outside` elsewhere; k and l may exceed n.  Every
    band matrix in the package is built from these rows.  The order may be
    0 (no rows); a negative order or a width below 1 raises ValueError."""
    for name, v in zip("nkl", (n, k, l)):
        _require_int(name, v)
    if n < 0 or k < 1 or l < 1:
        raise ValueError(f"need n >= 0 and k, l >= 1, got n={n} k={k} l={l}")
    rows = []
    for i in range(n):
        lo, hi = _band_run(n, k, l, i)
        rows.append((outside,) * lo + (inside,) * (hi - lo) + (outside,) * (n - hi))
    return tuple(rows)


def materialize(spec: BandSpec) -> DenseMatrix:
    """The full n x n matrix; Toeplitz and persymmetric by construction."""
    return DenseMatrix(band_rows(spec.n, spec.k, spec.l, spec.b, spec.a))


def residue(spec: BandSpec) -> BandResidue:
    return _residue(spec.n, spec.k, spec.l)


class FactoredDet(_Record):
    """Determinant kept as sign * base**exponent * tail.

    Avoids expanding the power at very large n and is what the CLI shows;
    :meth:`expand` produces the plain ring element.
    """

    __slots__ = ("sign", "base", "exponent", "tail")

    def expand(self) -> RingElement:
        if self.tail.is_zero():
            return self.tail
        out = (self.base**self.exponent) * self.tail
        return -out if self.sign < 0 else out

    def __str__(self) -> str:
        parts = [] if self.sign > 0 else ["-1"]
        base = str(self.base)
        parts.append(f"({base})^{self.exponent}")
        tail = str(self.tail)
        parts.append(f"({tail})" if " " in tail else tail)
        return " * ".join(parts)


def _residue(n: int, k: int, l: int) -> BandResidue:
    """The residue rule that `residue` reports and both closed forms use."""
    if l == 1:
        p = n % k or k
        return BandResidue(p, _exact_div(n - p, k), 1)
    w = k + l - 1
    return BandResidue(n % w, n // w, 2)


def _factored(n: int, k: int, l: int, a: RingElement, b: RingElement) -> FactoredDet:
    """The closed form behind det_case1, det_case2 and det_factored:
    sign * (b-a)^(n-1) * tail, with case, sign and tail from n's residue."""
    r = _residue(n, k, l)
    if r.case == 1:
        return FactoredDet(1, b - a, n - 1, b + a * r.quotient)
    if r.p > 1:
        return FactoredDet(1, b - a, n - 1, a.ring_zero())
    s = r.quotient
    # (n-k-l+1)/(k+l-1) = s-1 when p = 0, and (n-1)/(k+l-1) = s when p = 1
    tail = b + a * (s - 1 if r.p == 0 else s)
    sign = -1 if ((k - 1) * (l - 1) * s) & 1 else 1
    return FactoredDet(sign, b - a, n - 1, tail)


def det_case1(n: int, k: int, a, b) -> RingElement:
    """Closed form for l = 1:

        (b - a)^(n-1) * (b + ((n - p)/k) * a),  n = p (mod k), 0 < p <= k

    with the quotient an exact integer scalar (never ring division).
    k > n is allowed: the band window saturates and the value reduces to
    the all-b-triangle form, matching the matrix the window rule gives.
    """
    _require_int("n", n)
    _require_int("k", k)
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n} k={k}")
    return _factored(n, k, 1, as_element(a), as_element(b)).expand()


def det_case2(n: int, k: int, l: int, a, b) -> RingElement:
    """Closed form for l > 1, by the residue p of n mod k+l-1:

        p = 0:     (-1)^((k-1)(l-1)s) * (b-a)^(n-1) * (b + ((n-k-l+1)/(k+l-1)) a)
        p = 1:     (-1)^((k-1)(l-1)s) * (b-a)^(n-1) * (b + ((n-1)/(k+l-1)) a)
        otherwise: 0

    The sign uses the integer quotient s = n // (k+l-1), which on the two
    nonzero branches equals the fractional-looking exponent rewritten
    without division.  Widths beyond n are allowed; the window rule
    saturates and the formula stays exact.
    """
    _require_int("n", n)
    _require_int("k", k)
    _require_int("l", l)
    if n < 1 or not 1 < l <= k:
        raise ValueError(f"need n >= 1 and 1 < l <= k, got n={n} k={k} l={l}")
    return _factored(n, k, l, as_element(a), as_element(b)).expand()


def det_factored(spec: BandSpec) -> FactoredDet:
    """Structured determinant of the spec."""
    return _factored(spec.n, spec.k, spec.l, spec.a, spec.b)


def det_closed(spec: BandSpec) -> RingElement:
    """Expanded closed-form determinant; equals det of materialize(spec)."""
    return det_factored(spec).expand()


def f_closed(n: int, a, b) -> RingElement:
    """(b - a)^(n-1) * a: determinant of the order-n matrix built from an
    order-(n-1) l = 1 band block bordered by a last row and last column of
    all a.  The value does not depend on the block's band width."""
    _require_order(n)
    a = as_element(a)
    b = as_element(b)
    return ((b - a) ** (n - 1)) * a


def g_closed(n: int, a, b) -> RingElement:
    """(b - a)^(n-1) * b: determinant of the k = n spec (upper triangle,
    diagonal included, all b)."""
    _require_order(n)
    a = as_element(a)
    b = as_element(b)
    return ((b - a) ** (n - 1)) * b


def bordered_matrix(n: int, k: int, a, b) -> DenseMatrix:
    """The matrix whose determinant f_closed predicts: an (n-1)-order
    width-k band block with an all-a last row and column appended."""
    _require_order(n)
    _require_int("k", k)
    if n > 1 and not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k} n={n}")
    block = band_rows(n - 1, k, 1, b, a)
    return DenseMatrix(tuple(row + (a,) for row in block) + ((a,) * n,))


def det_recurrence(n: int, k: int, a, b) -> RingElement:
    """The l = 1 determinant by literally unrolling the recurrence

        d_n = (b-a)^k d_{n-k} + (b-a)^(n-1) a     while 2k < n,
        d_m = (b-a)^(m-1) (b + a)                 once k >= m/2 (k < m),

    with the k = n spec handled by g_closed.  Independent of det_case1;
    used as a cross-check path."""
    _require_int("n", n)
    _require_int("k", k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k} n={n}")
    a = as_element(a)
    b = as_element(b)
    if k == n:
        return g_closed(n, a, b)
    m = n
    while 2 * k < m:
        m -= k
    c = b - a
    step = c**k
    power = c ** (m - 1)  # (b-a)^(m-1), carried forward as m grows by k
    d = power * (b + a)
    while m < n:
        m += k
        power = power * step
        d = step * d + power * a
    return d


def all_b_row_count(spec: BandSpec) -> int:
    """How many rows consist entirely of b: max(k + l - n, 0)."""
    return max(spec.k + spec.l - spec.n, 0)


def spec_to_json(spec: BandSpec) -> dict:
    """JSON object {n, k, l, a, b} with ring elements in their exact
    serialization; reflects the normalized (l <= k) orientation."""
    return {
        "n": spec.n,
        "k": spec.k,
        "l": spec.l,
        "a": element_to_json(spec.a),
        "b": element_to_json(spec.b),
    }


def spec_from_json(obj: dict) -> BandSpec:
    """Inverse of :func:`spec_to_json`; n, k and l must be JSON integers
    (a float, a bool or a string raises TypeError)."""
    a, b = (element_from_json(obj[key]) for key in ("a", "b"))
    return BandSpec(obj["n"], obj["k"], obj["l"], a, b)
