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
from .oracle import DenseMatrix, _dense, _Strip, _windows
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
    """Five-parameter band description with int n >= 1, int 1 <= l <= k
    and a != b, by the shape rule of :func:`_shape`.

    A width beyond n draws the matrix of width n.  l > k is accepted and
    normalized by swapping k and l.  The swap transposes the matrix, which
    leaves the determinant (and permanent) unchanged; entry positions
    reflect the normalized orientation.
    """

    __slots__ = ("n", "k", "l", "a", "b")

    def __init__(self, n: int, k: int, l: int, a, b) -> None:
        k, l = _shape(n, k, l)
        a, b = _ring_pair(a, b)
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


def _shape(n: int, k: int, l: int) -> tuple[int, int]:
    """The shape rule of every band routine that takes an order: n, k and l
    are ints, n follows the order rule and each width is at least 1 (a
    refusal names the width as passed).  Returns the widths ordered
    (k, l) with l <= k.  Widths beyond n are allowed: the window saturates
    at the matrix edge, and every closed form stays exact there."""
    # the integer rule only when the inline test fails, as on every hot path
    if type(n) is not int or type(k) is not int or type(l) is not int:
        for name, v in zip("nkl", (n, k, l)):
            _require_int(name, v)
    if n < 1:
        _require_order(n)
    if k < 1 or l < 1:
        name, width = ("k", k) if k < 1 else ("l", l)
        raise ValueError(f"width {name} must be at least 1, got {width}")
    return (l, k) if l > k else (k, l)


def _ring_pair(a, b) -> tuple[RingElement, RingElement]:
    """The ring rule of every band routine that takes a and b: each becomes
    a ring element by :func:`as_element`, and the two must share a ring."""
    a, b = as_element(a), as_element(b)
    if type(a) is not type(b):
        raise MixedRingError("a and b must come from the same ring")
    return a, b


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
    widths (k, l) and `outside` elsewhere.  n, k and l follow the shape
    rule of :func:`_shape`, and the widths are drawn as passed, not
    swapped.  Every band matrix in the package is built from these rows."""
    _shape(n, k, l)
    return _band_rows(n, k, l, inside, outside)


def _band_rows(n: int, k: int, l: int, inside, outside) -> tuple[tuple, ...]:
    """The rows of :func:`band_rows` for a caller that has applied the
    shape rule: the windows of :func:`_band_strip`."""
    return _windows(_band_strip(n, k, l, inside, outside))


def _band_strip(n: int, k: int, l: int, inside, outside) -> tuple:
    """The strip of the order-n band matrix, whose n-wide window that
    starts n - 1 - i entries in is row i (the matrix is Toeplitz): the
    middle row of order 2n - 1, whose run :func:`_band_run` clips, so huge
    widths cost nothing.  Each entry is `inside` or `outside` itself."""
    lo, hi = _band_run(2 * n - 1, k, l, n - 1)
    return (outside,) * lo + (inside,) * (hi - lo) + (outside,) * (2 * n - 1 - hi)


def materialize(spec: BandSpec) -> DenseMatrix:
    """The full n x n matrix; Toeplitz and persymmetric by construction.
    It keeps its strip of 2n - 1 entries, spec.a and spec.b themselves,
    which the spec has already put in one ring, and cuts a row from it
    only when one is read."""
    return _Strip(_band_strip(spec.n, spec.k, spec.l, spec.b, spec.a))


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
        q, r = divmod(n - 1, k)
        return BandResidue(r + 1, q, 1)
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
    _shape(n, k, 1)
    return _factored(n, k, 1, *_ring_pair(a, b)).expand()


def det_case2(n: int, k: int, l: int, a, b) -> RingElement:
    """Closed form for l > 1, by the residue p of n mod k+l-1:

        p = 0:     (-1)^((k-1)(l-1)s) * (b-a)^(n-1) * (b + ((n-k-l+1)/(k+l-1)) a)
        p = 1:     (-1)^((k-1)(l-1)s) * (b-a)^(n-1) * (b + ((n-1)/(k+l-1)) a)
        otherwise: 0

    The sign uses the integer quotient s = n // (k+l-1), which on the two
    nonzero branches equals the fractional-looking exponent rewritten
    without division.  The widths follow the shape rule (either order,
    beyond n allowed), and the smaller one must exceed 1.
    """
    hi, lo = _shape(n, k, l)
    if lo == 1:
        raise ValueError(f"need both widths above 1, got k={k} l={l}")
    return _factored(n, hi, lo, *_ring_pair(a, b)).expand()


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
    a, b = _ring_pair(a, b)
    return ((b - a) ** (n - 1)) * a


def g_closed(n: int, a, b) -> RingElement:
    """(b - a)^(n-1) * b: determinant of the k = n spec (upper triangle,
    diagonal included, all b)."""
    _require_order(n)
    a, b = _ring_pair(a, b)
    return ((b - a) ** (n - 1)) * b


def bordered_matrix(n: int, k: int, a, b) -> DenseMatrix:
    """The matrix whose determinant f_closed predicts: an (n-1)-order
    width-k band block with an all-a last row and column appended.  Any
    width k >= 1 is allowed, since f_closed does not depend on it."""
    _shape(n, k, 1)
    a, b = _ring_pair(a, b)
    block = _band_rows(n - 1, k, 1, b, a) if n > 1 else ()
    return _dense(tuple(row + (a,) for row in block) + ((a,) * n,))


def det_recurrence(n: int, k: int, a, b) -> RingElement:
    """The l = 1 determinant from the recurrence

        d_n = (b-a)^k d_{n-k} + (b-a)^(n-1) a     while 2k < n,
        d_m = (b-a)^(m-1) (b + a)                 once k >= m/2 (k < m),
        d_n = (b-a)^(n-1) b                       if k >= n (all b on and above the diagonal).

    One step maps (d_m, P_m = (b-a)^(m-1)) to (s d_m + s a P_m, s P_m)
    with s = (b-a)^k: the matrix [[s, s a], [0, s]], kept as the pair
    (x, y) of [[x, y], [0, x]].  The j steps from the start order m to n
    are composed by repeated squaring, (x, y)^2 = (x^2, 2 x y), in
    O(log n) ring products.  No residue, quotient or closed form is read,
    so this stays an independent cross-check of det_case1."""
    _shape(n, k, 1)
    a, b = _ring_pair(a, b)
    j = max((n - k - 1) // k, 0)  # steps of k from the start order m: k < m <= 2k, or m = n <= k
    m = n - j * k
    c = b - a
    power = c ** (m - 1)
    d = power * (b + a if m > k else b)
    if not j:
        return d
    s = c**k
    sa = s * a
    x, y = s, sa
    for bit in bin(j)[3:]:
        xy = x * y
        x, y = x * x, xy + xy
        if bit == "1":
            x, y = x * s, x * sa + y * s
    return x * d + y * power


def all_b_row_count(spec: BandSpec) -> int:
    """How many rows consist entirely of b: max(k + l - n, 0) with each
    width clipped at n, where the window saturates."""
    return max(min(spec.k, spec.n) + min(spec.l, spec.n) - spec.n, 0)


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
