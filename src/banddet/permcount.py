"""Parity censuses of restricted permutation classes.

A 0/1 characteristic matrix A defines the class of permutations whose
incidence matrix is dominated entrywise by A.  The class has per(A)
members, and the even/odd split is (per + det)/2 and (per - det)/2.
This module builds the named families (two rectangular-table seating
variants and the weak-excedance matrix), computes their censuses through
the permanent/determinant route, the permanent read off a transfer DP
over the zeros of A when they are narrow and the determinant by Bareiss,
reads the families' tables off recurrences in n, with that route as
their oracle, and re-derives everything by direct enumeration for
cross-checking.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import accumulate, count, islice, permutations
from math import comb, factorial, prod
from operator import mul, or_

from .band import _FAMILY_NAMES, BandSpec, _band_rows, _band_run, materialize
from .errors import InvalidPermutationError, ParityError, _Record
from .errors import _require_int, _require_order, _require_square
from .oracle import DenseMatrix, _perm_sign, _Strip, _windows, check_size, det_bareiss, permanent_ryser
from .rings import Integer, Poly, _binomial_coeffs

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


# the entries of every strip CharMatrix.to_dense builds, one object per value
_BITS = (Integer(0), Integer(1))


class CharMatrix(_Record):
    """0/1 characteristic matrix of a restricted-permutation class, built
    from any iterable of rows."""

    __slots__ = ("bits",)

    def __init__(self, bits) -> None:
        bits = tuple(map(tuple, bits))
        _require_square(bits)
        if any(type(e) is not int or e not in (0, 1) for row in bits for e in row):
            raise ValueError("entries must be 0 or 1")
        super().__init__(bits)

    n = property(lambda self: len(self.bits))

    def to_dense(self) -> DenseMatrix:
        """The integer matrix of the bits.  A Toeplitz one, each row the row
        above moved one right (every seating matrix), keeps its strip: its
        first column bottom up, then the rest of its first row, whose
        windows are its rows exactly when it is Toeplitz."""
        bits = self.bits
        strip = (*(row[0] for row in reversed(bits)), *bits[0][1:])
        if _windows(strip) == bits:
            return _Strip(tuple(map(_BITS.__getitem__, strip)))
        return DenseMatrix(bits)


class ParityCount(_Record):
    """Even/odd class sizes with their permanent/determinant provenance."""

    __slots__ = ("even", "odd", "permanent", "determinant")

    def __init__(self, even: int, odd: int, permanent: int, determinant: int) -> None:
        if not type(even) is type(odd) is type(permanent) is type(determinant) is int:
            for name, v in zip(self._fields, (even, odd, permanent, determinant)):
                _require_int(name, v)
        if even < 0 or odd < 0:
            raise ParityError(f"negative count: even={even} odd={odd}")
        if even + odd != permanent:
            raise ParityError(f"even + odd != per ({even}+{odd} != {permanent})")
        if even - odd != determinant:
            raise ParityError(f"even - odd != det ({even}-{odd} != {determinant})")
        # one by one, through module globals: every census row builds one
        _set_even(self, even)
        _set_odd(self, odd)
        _set_permanent(self, permanent)
        _set_determinant(self, determinant)

    @classmethod
    def split(cls, per: int, det: int) -> "ParityCount":
        """The census with the given per and det: (per +- det)/2.  An odd
        per + det floors to a pair whose sum is not per, which __init__
        raises as ParityError instead of rounding."""
        return cls((per + det) // 2, (per - det) // 2, per, det)


_set_even, _set_odd, _set_permanent, _set_determinant = ParityCount._setters


def perm_sign(perm) -> int:
    """Sign of a 0-based permutation: (-1)^(n - number of cycles).  Each
    entry goes through the integer rule, and a sequence that is not a
    permutation of 0..n-1 raises InvalidPermutationError."""
    return _perm_sign(_permutation(perm, 0))


# A board is a 0/1 matrix kept as one bit mask per row: bit j of row i is
# set when (i, j) holds a one.  Rook numbers and the permanents of
# parity_counts read boards.  An order-n board holds n masks of up to n
# bits, so both builders check the TRANSFER guard before they build one.

# a row's bytes 0/1 as the digits of its mask, last column first
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _board(bits) -> list[int]:
    """The board of a 0/1 matrix given by its rows."""
    check_size("TRANSFER", len(bits), "rook board")
    return [int(bytes(row[::-1]).translate(_DIGITS), 2) for row in bits]


def _band_board(n: int, k: int, l: int) -> list[int]:
    """The board of the order-n band window of widths (k, l)."""
    check_size("TRANSFER", n, "rook board")
    return [(1 << hi) - (1 << lo) for lo, hi in (_band_run(n, k, l, i) for i in range(n))]


def _is_ferrers(board: list[int]) -> bool:
    """Whether the rows are nested, i.e. the board is a Ferrers board up to
    an order of its rows and columns."""
    chain = sorted(board, key=int.bit_count)
    return all(x & y == x for x, y in zip(chain, chain[1:]))


def _later_reach(board: list[int]) -> list[int]:
    """Per row, the columns that some later row can still reach."""
    reach, later = [], 0
    for mask in reversed(board):
        reach.append(later)
        later |= mask
    return reach[::-1]


def _slot(board: list[int]) -> int:
    """Bits that hold any rook number of the board or of a part of its
    rows: the product of (1 + row length) over rows bounds their sum."""
    return prod(1 + mask.bit_count() for mask in board).bit_length()


def _unpack(packed: int, slot: int, n: int) -> list[int]:
    """r_0..r_n from the packed counts of the profile DP (see _rook_numbers)."""
    low_bits = (1 << slot) - 1
    return [(packed >> (j * slot)) & low_bits for j in range(n + 1)]


def _profile_width(board: list[int]) -> int:
    """The most columns any profile of the board holds: those that earlier
    rows reach and later rows still can.  A band of width w has at most w."""
    live = (seen & later for seen, later in zip(accumulate(board, or_), _later_reach(board)))
    return max(map(int.bit_count, live), default=0)


def _rook_numbers(board: list[int]) -> list[int]:
    """Rook numbers r_0..r_n of an order-n board: r_j ways to place j
    non-attacking rooks on its ones.

    Nested rows (a Ferrers board) take the recurrence of Goldman, Joichi
    and White, adding rows by increasing length: a new row of length h
    gives r'_j = r_j + (h - j + 1) r_{j-1}, since the j - 1 rooks already
    placed sit in columns of the new row.  Any other board runs a profile
    DP row by row.  Its state is the set of used columns that a later row
    can still reach, so a profile width f (a band of width w has f <= w)
    keeps at most 2^f states.  A state's counts by rook number j are
    packed into one int, r_j in bits [j*slot, (j+1)*slot)."""
    if _is_ferrers(board):
        r = [1]
        for h in sorted(map(int.bit_count, board)):
            r = [1] + [x + (h - j) * y for j, (x, y) in enumerate(zip(r[1:] + [0], r))]
        return r
    slot = _slot(board)
    states = {0: 1}
    for mask, later in zip(board, _later_reach(board)):
        step = defaultdict(int)
        for used, packed in states.items():
            step[used & later] += packed
            free = mask & ~used
            while free:
                low = free & -free
                step[(used | low) & later] += packed << slot
                free ^= low
        states = step
    # no row is later than the last, so every profile has collapsed to 0
    return _unpack(states[0], slot, len(board))


def _hits(r: list[int], top: int) -> list[int]:
    """Hit numbers e_0..e_top of the board B with rook numbers r: e_h
    permutations meet B in exactly h positions (Riordan), 0 for h > n.
    They are the Taylor coefficients at y = -1 of W(y) = sum_j (n-j)! r_j
    y^j, as per(J + (x-1)B) = W(x-1).  A running sum of the coefficients
    taken at y = -1, highest power first, divides by y + 1: its total is
    the next e_h, up to sign, and its earlier sums the quotient."""
    n = len(r) - 1
    # (-1)^(n-j) (n-j)! r_j for j = n..0: the coefficients at y = -1, times (-1)^n
    coeffs = [f * x for f, x in zip(accumulate(range(-1, -n - 1, -1), mul, initial=1), reversed(r))]
    e = []
    for h in range(min(top, n) + 1):
        coeffs = list(accumulate(coeffs))
        # the sign (-1)^n of the coefficients, flipped by each division
        e.append(-coeffs.pop() if (n + h) & 1 else coeffs.pop())
    return e + [0] * (top - n)


# The widest profile parity_counts gives the rook DP.  At the TRANSFER default
# of 200 it takes about 1.1 s over a width-8 zero band, no more than Ryser at
# its own limit of 20 (about 3 s; both on a 2-vCPU Xeon); it takes about 9 s
# at width 10.
_PARITY_MAX_WIDTH = 8


def parity_counts(A: CharMatrix) -> ParityCount:
    """Census from (per +- det)/2.  A is J - Z for its zeros Z.  per A
    comes from Z's rook numbers when Z's profile is at most
    _PARITY_MAX_WIDTH columns wide or Z is a Ferrers board, and from Ryser,
    under its own guard, otherwise.  det A comes from Bareiss, which reads
    a Toeplitz A (every seating matrix) off its strip (see to_dense)."""
    n = A.n
    zeros = [mask ^ ((1 << n) - 1) for mask in _board(A.bits)]
    dense = A.to_dense()
    if _profile_width(zeros) <= _PARITY_MAX_WIDTH or _is_ferrers(zeros):
        per = _hits(_rook_numbers(zeros), 0)[0]
    else:
        per = permanent_ryser(dense).value
    return ParityCount.split(per, det_bareiss(dense).value)


def brute_force_parity(A: CharMatrix) -> ParityCount:
    """Census by direct enumeration of S_n; the oracle for parity_counts."""
    n = A.n
    check_size("ENUM", n, "brute_force_parity")
    bits = A.bits
    even = odd = 0
    for perm in permutations(range(n)):
        if all(bits[i][perm[i]] for i in range(n)):
            if _perm_sign(perm) > 0:
                even += 1
            else:
                odd += 1
    return ParityCount(even, odd, even + odd, even - odd)


# the band windows (k, l) that hold the zeros of the two seating families
_MENAGE_A_ZEROS = (2, 1)
_MENAGE_B_ZEROS = (2, 2)


def menage_a_matrix(n: int) -> CharMatrix:
    """Characteristic matrix of the seatings with pi(i) != i, i+1 and
    pi(n) != n: zeros on the main and first upper diagonals."""
    _require_order(n)
    # 0/1 rows from the row builder: no 0/1 scan
    return CharMatrix._unchecked(_band_rows(n, *_MENAGE_A_ZEROS, 0, 1))


def menage_b_matrix(n: int) -> CharMatrix:
    """Characteristic matrix of the seatings with |pi(i) - i| > 1: the
    zero tridiagonal."""
    _require_order(n)
    return CharMatrix._unchecked(_band_rows(n, *_MENAGE_B_ZEROS, 0, 1))


def _menage_a_permanents():
    """The A family's class sizes p_1, p_2, ... by

        p_n = (n-1)(p_{n-1} + p_{n-2}) + p_{n-3},  p_0, p_1, p_2 = 1, 0, 0:

    the known (n-1) p_n = (n^2 - n - 1) p_{n-1} + n p_{n-2} + 2(-1)^(n+1)
    at n plus itself at n - 1, where the 2(-1)^n terms cancel and every
    term left has a factor n - 1."""
    a, b, c = 1, 0, 0  # p_(n-3), p_(n-2), p_(n-1) at n = 3
    yield from (b, c)
    for m in count(2):  # m = n - 1
        a, b, c = b, c, m * (b + c) + a
        yield c


def menage_a_permanent_rec(n: int) -> int:
    """Class size of the A family by the recurrence of _menage_a_permanents."""
    _require_order(n)
    return next(islice(_menage_a_permanents(), n - 1, None))


# The B family's class sizes p_0..p_6, and the coefficients (a_i, b_i) of
# its recurrence p_n = sum_i (a_i n + b_i) p_(n-1-i), i = 0..6:
#   p_n = n p_(n-1) + 4 p_(n-2) - (3n-9) p_(n-3) + (n-4) p_(n-4)
#         + (2n-10) p_(n-5) - (n-7) p_(n-6) - p_(n-7).
# It was read off the rook DP's first terms and equals the DP at every order
# checked (see README: a conjecture beyond them).
_MENAGE_B_START = (1, 0, 0, 0, 1, 4, 29)
_MENAGE_B_STEP = ((1, 0), (0, 4), (-3, 9), (1, -4), (2, -10), (-1, 7), (0, -1))


def _menage_b_permanents():
    """The B family's class sizes p_1, p_2, ... by its recurrence."""
    yield from _MENAGE_B_START[1:]
    window = deque(_MENAGE_B_START, maxlen=len(_MENAGE_B_START))  # p_(n-7)..p_(n-1)
    for n in count(len(_MENAGE_B_START)):
        window.append(sum((a * n + b) * p for (a, b), p in zip(_MENAGE_B_STEP, reversed(window))))
        yield window[-1]


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


def excedance_matrix(n: int) -> DenseMatrix:
    """Polynomial-ring matrix of the k = n spec, the variable b on and above
    the diagonal and 1 below; its permanent counts permutations by their
    number of weak excedances."""
    return materialize(BandSpec(n, n, 1, Poly.constant(1), Poly.variable()))


class ExcedanceCensus(_Record):
    """Per-k census of order-n permutations by weak-excedance count k.

    rows[k-1], for k = 1..n, splits the class T(n, k) by the signed
    binomial c(n, k) = (-1)^(n-k) C(n-1, k-1): its permanent is T(n, k)
    and its determinant c(n, k).  per_coeffs, det_coeffs, even and odd are
    the columns of the rows, indexed k-1.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[ParityCount, ...]) -> None:
        _require_order(n)
        if len(rows) != n:
            raise ValueError("census must have one row for each k = 1..n")
        for k, c in enumerate((row.determinant for row in rows), start=1):
            want = comb(n - 1, k - 1) if (n - k) % 2 == 0 else -comb(n - 1, k - 1)
            if c != want:
                raise ParityError(f"det coefficient {c} != (-1)^(n-k) C(n-1,k-1) = {want} at k={k}")
        super().__init__(n, rows)

    per_coeffs = property(lambda self: tuple(row.permanent for row in self.rows))
    det_coeffs = property(lambda self: tuple(row.determinant for row in self.rows))
    even = property(lambda self: tuple(row.even for row in self.rows))
    odd = property(lambda self: tuple(row.odd for row in self.rows))


def excedance_census(n: int) -> ExcedanceCensus:
    """Census from the permanent and determinant of the weak-excedance
    matrix, J + (x-1)B for the staircase board B: T(n, k) is B's hit number
    e_k, and det the all-b-triangle form (b - 1)^(n-1) b, so c(n, k) is the
    b^(k-1) coefficient of (b - 1)^(n-1)."""
    _require_order(n)
    hits = _hits(_rook_numbers(_band_board(n, n, 1)), n)
    if hits[0] != 0:
        raise ParityError("permutation with no weak excedance counted")
    det = _binomial_coeffs(-1, 1, n - 1)
    return ExcedanceCensus(n, tuple(map(ParityCount.split, hits[1:], det)))


def brute_force_excedance_census(n: int) -> ExcedanceCensus:
    """Census by enumerating S_n and bucketing by weak-excedance count
    and sign; the oracle for excedance_census."""
    _require_order(n)
    check_size("ENUM", n, "brute_force_excedance_census")
    even = [0] * n
    odd = [0] * n
    for perm in permutations(range(n)):
        k = _weak_excedances(perm, 0)
        if _perm_sign(perm) > 0:
            even[k - 1] += 1
        else:
            odd[k - 1] += 1
    return ExcedanceCensus(n, tuple(ParityCount(e, o, e + o, e - o) for e, o in zip(even, odd)))


def _permutation(perm, first: int) -> tuple[int, ...]:
    """perm as a tuple, refused unless it is a permutation of
    first..first+n-1: each entry by the integer rule, then as a whole."""
    p = tuple(perm)
    for v in p:
        _require_int("permutation entry", v)
    if sorted(p) != list(range(first, first + len(p))):
        raise InvalidPermutationError(
            f"not a permutation of {first}..{first + len(p) - 1} in one-line notation: {perm!r}"
        )
    return p


def _weak_excedances(perm, start: int) -> int:
    """Number of positions i with pi(i) >= i, counting i from `start`."""
    return sum(1 for i, v in enumerate(perm, start) if v >= i)


def weak_excedance_count(perm) -> int:
    """Number of positions i with pi(i) >= i; perm in 1-based one-line
    notation, e.g. (1, 4, 2, 3)."""
    return _weak_excedances(_permutation(perm, 1), 1)


def weak_excedance_class(n: int, count: int) -> list[tuple[int, ...]]:
    """All order-n permutations with exactly `count` weak excedances, in
    lexicographic one-line order."""
    _require_order(n)
    _require_int("count", count)
    check_size("ENUM", n, "weak_excedance_class")
    out = []
    for perm in permutations(range(1, n + 1)):
        if _weak_excedances(perm, 1) == count:
            out.append(perm)
    return out


def _two_weak_excedances():
    """T(n, 2) for n = 1, 2, ...: the Eulerian number 2^n - n - 1."""
    return ((1 << n) - n - 1 for n in count(1))


# family -> (its class sizes at n = 1, 2, ..., its det at order n, column
# names), in _FAMILY_NAMES order.  excedance-k2's det is the b^2 coefficient
# of (b - 1)^(n-1) b, c(n, 2) = (-1)^n (n - 1).
_SEATING = ("n", "per", "det", "even", "odd")
_FAMILIES = dict(zip(_FAMILY_NAMES, (
    (_menage_a_permanents, menage_a_det, _SEATING),
    (_menage_b_permanents, menage_b_det, _SEATING),
    (_two_weak_excedances, lambda n: 1 - n if n & 1 else n - 1, ("n", "T", "c", "even", "odd")),
), strict=True))


def family_table(family: str, n_max: int) -> list[tuple[int, int, int, int, int]]:
    """Census rows for n = 1..n_max, every row's permanent read off one pass
    of the family's recurrence; the rook DP of parity_counts and
    excedance_census is its oracle.

    menage-a, menage-b: (n, per, det, even, odd) with the determinant from
    the family closed form.
    excedance-k2: (n, T(n,2), c(n,2), even, odd).
    """
    _require_order(n_max, "n_max")
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    check_size("TRANSFER", n_max, "family_table")
    permanents, det, _ = _FAMILIES[family]
    rows = []
    for n, per in zip(range(1, n_max + 1), permanents()):
        pc = ParityCount.split(per, det(n))
        rows.append((n, pc.permanent, pc.determinant, pc.even, pc.odd))
    return rows
