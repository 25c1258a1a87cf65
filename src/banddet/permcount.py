"""Parity censuses of restricted permutation classes.

A 0/1 characteristic matrix A defines the class of permutations whose
incidence matrix is dominated entrywise by A.  The class has per(A)
members, and the even/odd split is (per + det)/2 and (per - det)/2.
This module builds the named families (two rectangular-table seating
variants and the weak-excedance matrix), computes their censuses through
the permanent/determinant route, and re-derives everything by direct
enumeration for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import permutations
from math import comb, factorial

from .band import BandSpec, band_rows, det_closed, materialize
from .errors import (
    InvalidPermutationError,
    ParityError,
    _require_order,
)
from .oracle import (
    DenseMatrix,
    _exact_div,
    check_size,
    det_bareiss,
    permanent_ryser,
)
from .rings import Poly

__all__ = [
    "CharMatrix",
    "ParityCount",
    "ExcedanceCensus",
    "perm_sign",
    "parity_counts",
    "brute_force_parity",
    "menage_a_matrix",
    "menage_a_permanent_rec",
    "menage_a_permanent_sum",
    "menage_a_det",
    "menage_b_matrix",
    "menage_b_det",
    "excedance_matrix",
    "excedance_census",
    "brute_force_excedance_census",
    "weak_excedance_count",
    "weak_excedance_class",
    "family_table",
]


@dataclass(frozen=True)
class CharMatrix:
    """0/1 characteristic matrix of a restricted-permutation class."""

    bits: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.bits)
        _require_order(n)
        for row in self.bits:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for e in row:
                if type(e) is not int or e not in (0, 1):
                    raise ValueError("entries must be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.bits)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.bits[i]

    def to_dense(self) -> DenseMatrix:
        return DenseMatrix.from_rows(self.bits)


@dataclass(frozen=True)
class ParityCount:
    """Even/odd class sizes with their permanent/determinant provenance."""

    even: int
    odd: int
    permanent: int
    determinant: int

    def __post_init__(self) -> None:
        if self.even < 0 or self.odd < 0:
            raise ParityError(f"negative count: even={self.even} odd={self.odd}")
        if self.even + self.odd != self.permanent:
            raise ParityError(
                f"even + odd != per ({self.even}+{self.odd} != {self.permanent})"
            )
        if self.even - self.odd != self.determinant:
            raise ParityError(
                f"even - odd != det ({self.even}-{self.odd} != {self.determinant})"
            )

    @classmethod
    def split(cls, per: int, det: int) -> "ParityCount":
        """The census with the given per and det: (per +- det)/2.  An odd
        per + det floors to a pair whose sum is not per, which __post_init__
        raises as ParityError instead of rounding."""
        return cls((per + det) // 2, (per - det) // 2, per, det)


def perm_sign(perm) -> int:
    """Sign of a 0-based permutation: (-1)^(n - number of cycles)."""
    n = len(perm)
    seen = bytearray(n)
    cycles = 0
    for s in range(n):
        if seen[s]:
            continue
        cycles += 1
        j = s
        while not seen[j]:
            seen[j] = 1
            j = perm[j]
    return 1 if ((n - cycles) & 1) == 0 else -1


def parity_counts(A: CharMatrix) -> ParityCount:
    """Census from (per +- det)/2, permanent via Ryser, determinant via
    Bareiss; the exact halving is asserted."""
    dense = A.to_dense()
    return ParityCount.split(permanent_ryser(dense).value, det_bareiss(dense).value)


def brute_force_parity(A: CharMatrix) -> ParityCount:
    """Census by direct enumeration of S_n; the oracle for parity_counts."""
    n = A.n
    check_size("PARITY_ENUM", n, "brute_force_parity")
    bits = A.bits
    even = odd = 0
    for perm in permutations(range(n)):
        if all(bits[i][perm[i]] for i in range(n)):
            if perm_sign(perm) > 0:
                even += 1
            else:
                odd += 1
    return ParityCount(even, odd, even + odd, even - odd)


def menage_a_matrix(n: int) -> CharMatrix:
    """Characteristic matrix of the seatings with pi(i) != i, i+1 and
    pi(n) != n: zeros on the main and first upper diagonals."""
    return CharMatrix(band_rows(n, 2, 1, 0, 1))


def menage_b_matrix(n: int) -> CharMatrix:
    """Characteristic matrix of the seatings with |pi(i) - i| > 1: the
    zero tridiagonal."""
    return CharMatrix(band_rows(n, 2, 2, 0, 1))


def menage_a_permanent_rec(n: int) -> int:
    """Class size of the A family by the recurrence

        (n-1) p_n = (n^2 - n - 1) p_{n-1} + n p_{n-2} + 2(-1)^(n+1)

    with p_1 = p_2 = 0.  The division by n-1 must land exactly."""
    _require_order(n)
    if n <= 2:
        return 0
    p_prev2, p_prev = 0, 0
    for m in range(3, n + 1):
        num = (m * m - m - 1) * p_prev + m * p_prev2 + (2 if m & 1 else -2)
        p_prev2, p_prev = p_prev, _exact_div(num, m - 1)
    return p_prev


def menage_a_permanent_sum(n: int) -> int:
    """Class size of the A family by the alternating sum
    sum_k (-1)^k C(2n-k, k) (n-k)!."""
    _require_order(n)
    total = 0
    for k in range(n + 1):
        term = comb(2 * n - k, k) * factorial(n - k)
        total += -term if k & 1 else term
    return total


def menage_a_det(n: int) -> int:
    """Determinant of the A family, by the printed residue form
    (-1)^(n-1) (n-p)/2 with n = p (mod 2), 0 < p <= 2."""
    _require_order(n)
    p = 2 if n % 2 == 0 else 1
    return (n - p) // 2 if n & 1 else -((n - p) // 2)


def menage_b_det(n: int) -> int:
    """Determinant of the B family: (3-n)/3, (n-1)/3 or 0 as n mod 3 is
    0, 1 or 2."""
    _require_order(n)
    p = n % 3
    if p == 2:
        return 0
    if p == 0:
        return (3 - n) // 3
    return (n - 1) // 3


def _excedance_spec(n: int) -> BandSpec:
    """The k = n spec: the variable b on and above the diagonal, 1 below."""
    return BandSpec(n, n, 1, Poly.constant(1), Poly.variable())


def excedance_matrix(n: int) -> DenseMatrix:
    """Polynomial-ring matrix of the weak-excedance spec; its permanent
    counts permutations by their number of weak excedances."""
    return materialize(_excedance_spec(n))


@dataclass(frozen=True)
class ExcedanceCensus:
    """Per-k census of order-n permutations by weak-excedance count k.

    Coefficient tuples are indexed k-1 for k = 1..n.  per_coeffs holds
    the class sizes T(n, k), det_coeffs the signed binomials
    c(n, k) = (-1)^(n-k) C(n-1, k-1).
    """

    n: int
    per_coeffs: tuple[int, ...]
    det_coeffs: tuple[int, ...]
    even: tuple[int, ...]
    odd: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n
        _require_order(n)
        for t in (self.per_coeffs, self.det_coeffs, self.even, self.odd):
            if len(t) != n:
                raise ValueError("coefficient tuples must have length n")
        rows = zip(self.per_coeffs, self.det_coeffs, self.even, self.odd)
        for k, (t, c, e, o) in enumerate(rows, start=1):
            ParityCount(e, o, t, c)
            want = comb(n - 1, k - 1) if (n - k) % 2 == 0 else -comb(n - 1, k - 1)
            if c != want:
                raise ParityError(
                    f"det coefficient {c} != (-1)^(n-k) C(n-1,k-1) = {want} at k={k}"
                )


def excedance_census(n: int) -> ExcedanceCensus:
    """Census from the permanent and determinant of the weak-excedance
    matrix: the k-th coefficients give class size and even-odd gap."""
    spec = _excedance_spec(n)
    per = permanent_ryser(materialize(spec))
    if per.coeff(0) != 0:
        raise ParityError("permutation with no weak excedance counted")
    det = det_closed(spec)
    per_coeffs = tuple(per.coeff(k) for k in range(1, n + 1))
    det_coeffs = tuple(det.coeff(k) for k in range(1, n + 1))
    # an odd per + det floors to a pair that the census rejects as even + odd != per
    even = tuple((t + c) // 2 for t, c in zip(per_coeffs, det_coeffs))
    odd = tuple((t - c) // 2 for t, c in zip(per_coeffs, det_coeffs))
    return ExcedanceCensus(n, per_coeffs, det_coeffs, even, odd)


def brute_force_excedance_census(n: int) -> ExcedanceCensus:
    """Census by enumerating S_n and bucketing by weak-excedance count
    and sign; the oracle for excedance_census."""
    _require_order(n)
    check_size("CENSUS_ENUM", n, "brute_force_excedance_census")
    even = [0] * n
    odd = [0] * n
    for perm in permutations(range(n)):
        k = _weak_excedances(perm, 0)
        if perm_sign(perm) > 0:
            even[k - 1] += 1
        else:
            odd[k - 1] += 1
    per_coeffs = tuple(e + o for e, o in zip(even, odd))
    det_coeffs = tuple(e - o for e, o in zip(even, odd))
    return ExcedanceCensus(n, per_coeffs, det_coeffs, tuple(even), tuple(odd))


def _validate_one_line(perm) -> tuple[int, ...]:
    p = tuple(perm)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise InvalidPermutationError(
            f"not a permutation of 1..{len(p)} in one-line notation: {perm!r}"
        )
    return p


def _weak_excedances(perm, start: int) -> int:
    """Number of positions i with pi(i) >= i, counting i from `start`."""
    return sum(1 for i, v in enumerate(perm, start) if v >= i)


def weak_excedance_count(perm) -> int:
    """Number of positions i with pi(i) >= i; perm in 1-based one-line
    notation, e.g. (1, 4, 2, 3)."""
    return _weak_excedances(_validate_one_line(perm), 1)


def weak_excedance_class(n: int, count: int) -> list[tuple[int, ...]]:
    """All order-n permutations with exactly `count` weak excedances, in
    lexicographic one-line order."""
    check_size("CENSUS_ENUM", n, "weak_excedance_class")
    out = []
    for perm in permutations(range(1, n + 1)):
        if _weak_excedances(perm, 1) == count:
            out.append(perm)
    return out


def _excedance_k2_row(n: int) -> tuple[int, int, int, int, int]:
    if n < 2:
        return (n, 0, 0, 0, 0)
    census = excedance_census(n)
    return (n, census.per_coeffs[1], census.det_coeffs[1], census.even[1], census.odd[1])


def _menage_row(matrix, det, n: int) -> tuple[int, int, int, int, int]:
    pc = ParityCount.split(permanent_ryser(matrix(n).to_dense()).value, det(n))
    return (n, pc.permanent, pc.determinant, pc.even, pc.odd)


# family -> (row of order n, column names); a seating row pairs a board with a det
_SEATING = ("n", "per", "det", "even", "odd")
_FAMILIES = {
    "menage-a": (partial(_menage_row, menage_a_matrix, menage_a_det), _SEATING),
    "menage-b": (partial(_menage_row, menage_b_matrix, menage_b_det), _SEATING),
    "excedance-k2": (_excedance_k2_row, ("n", "T", "c", "even", "odd")),
}


def family_table(family: str, n_max: int) -> list[tuple[int, int, int, int, int]]:
    """Census rows for n = 1..n_max.

    menage-a, menage-b: (n, per, det, even, odd) with the permanent from
    Ryser and the determinant from the family closed form.
    excedance-k2: (n, T(n,2), c(n,2), even, odd).
    """
    _require_order(n_max, "n_max")
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    # largest order first, so the permanent's size guard refuses before any work
    return [_FAMILIES[family][0](n) for n in range(n_max, 0, -1)][::-1]
