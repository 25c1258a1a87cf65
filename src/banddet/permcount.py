"""Parity censuses of restricted permutation classes.

A 0/1 characteristic matrix A defines the class of permutations whose
incidence matrix is dominated entrywise by A.  The class has per(A)
members, and the even/odd split is (per + det)/2 and (per - det)/2.
This module builds the named families (two rectangular-table seating
variants and the weak-excedance matrix), computes their censuses through
the permanent/determinant route, both halves read off transfer DPs over
the zeros of A when they are narrow, and re-derives everything by direct
enumeration for cross-checking.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import reduce
from itertools import accumulate, permutations
from math import comb, factorial, prod
from operator import mul, or_

from .band import _FAMILY_NAMES, BandSpec, _band_rows, _band_run, materialize
from .errors import InvalidPermutationError, ParityError, _Record
from .errors import _require_int, _require_order, _require_square
from .oracle import DenseMatrix, _exact_div, check_size, det_bareiss, permanent_ryser
from .rings import Poly, _binomial_coeffs

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
        return DenseMatrix(self.bits)


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


def _perm_sign(perm) -> int:
    """perm_sign of a sequence known to be a permutation of 0..n-1."""
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


# A board is a 0/1 matrix kept as one bit mask per row: bit j of row i is
# set when (i, j) holds a one.  Rook numbers, permanents and the signed
# minors of parity_counts read boards.  An order-n board holds n masks of
# up to n bits, so both builders check the TRANSFER guard before they
# build one.


def _board(bits) -> list[int]:
    """The board of a 0/1 matrix given by its rows."""
    check_size("TRANSFER", len(bits), "rook board")
    return [int("".join(map(str, reversed(row))), 2) for row in bits]


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


def _ferrers_rows(lengths: list[int]):
    """The rook numbers r_0..r_i of the Ferrers board whose rows have the
    given lengths, in increasing order, after each row i: the recurrence
    of Goldman, Joichi and White, r'_j = r_j + (h - j + 1) r_{j-1} for a
    new row of length h, since the j - 1 rooks already placed sit in
    columns of the new row."""
    r = [1]
    for h in lengths:
        r = [1] + [x + (h - j) * y for j, (x, y) in enumerate(zip(r[1:] + [0], r))]
        yield r


def _profile_rows(board: list[int], slot: int):
    """The profile DP over a board, row by row: after each row, the count
    of each state.  The state is the set of used columns that a later row
    can still reach, so a profile width f (a band of width w has f <= w)
    keeps at most 2^f states.  A state's counts by rook number j are
    packed into one int, r_j in bits [j*slot, (j+1)*slot)."""
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
        yield states


def _slot(board: list[int]) -> int:
    """Bits that hold any rook number of the board or of a part of its
    rows: the product of (1 + row length) over rows bounds their sum."""
    return prod(1 + mask.bit_count() for mask in board).bit_length()


def _unpack(packed: int, slot: int, n: int) -> list[int]:
    """r_0..r_n from the packed counts of _profile_rows."""
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

    Nested rows (a Ferrers board) take the Goldman-Joichi-White
    recurrence, adding rows by increasing length; any other board runs the
    profile DP."""
    n = len(board)
    if _is_ferrers(board):
        return deque(_ferrers_rows(sorted(map(int.bit_count, board))), maxlen=1).pop()
    slot = _slot(board)
    states = deque(_profile_rows(board, slot), maxlen=1).pop()
    # no row is later than the last, so every profile has collapsed to 0
    return _unpack(states[0], slot, n)


def _corner_rook_numbers(n_max: int, k: int, l: int):
    """The rook numbers of _band_board(n, k, l) for n = 1..n_max, each
    read off one pass over the order-n_max board: the window rule does not
    depend on the order, so the order-n board is its leading n x n corner.

    The staircase (l = 1, k >= n_max) adds one row of length n per order,
    so each Goldman-Joichi-White step gives the next order.  (Any other
    Ferrers band board's shortest rows are not a corner.)  Any other band
    runs the profile DP: column c is in row c's window, so after row n - 1
    the states still hold every used column >= n, and the corner's counts
    are those of the states with none."""
    board = _band_board(n_max, k, l)
    if l == 1 and k >= n_max:
        yield from _ferrers_rows(sorted(map(int.bit_count, board)))
        return
    slot = _slot(board)
    for n, states in enumerate(_profile_rows(board, slot), start=1):
        yield _unpack(sum(p for used, p in states.items() if not used >> n), slot, n)


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


def _columns(mask: int):
    """The columns of a row mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _signed_minors(board: list[int]) -> tuple[int, int]:
    """(det Z, 1^T adj(Z) 1) of the 0/1 matrix Z with the given board, by a
    signed profile DP with no elimination (Stanley, EC1 4.7).

    det Z sums sign(pi) over the placements of n rooks on Z, one a row.
    1^T adj(Z) 1 sums the cofactors: over the placements of n - 1 rooks
    that skip one row i0 and leave one column c0 unused, (-1)^(i0 + c0)
    times the sign of the permutation the rooks make.  A state is a
    profile of _profile_rows shifted left past one flag, set once a row
    is skipped.  A rook at (i, c) inverts with every used column above c
    and also carries (-1)^(i + c): over n rooks these factors multiply to
    1, and over a placement that skips i0 and leaves c0 to (-1)^(i0 + c0).

    A profile forgets used columns that no later row reaches, so the
    columns are first ordered by the last row that reaches them: a
    forgotten column then lies below every cell of a later row.  Both
    numbers change by the sign of that order, which is the identity on a
    band board."""
    n = len(board)
    later = _later_reach(board)
    unreached = ((1 << n) - 1) & ~reduce(or_, board, 0)
    order = [*_columns(unreached), *(c for m, a in zip(board, later) for c in _columns(m & ~a))]
    sign = 1
    if order != list(range(n)):
        sign = _perm_sign(order)
        place = [0] * n
        for p, c in enumerate(order):
            place[c] = p
        board = [sum(1 << place[c] for c in _columns(mask)) for mask in board]
        later = _later_reach(board)
    states = {0: 1}
    for i, (mask, after) in enumerate(zip(board, later)):
        # each cell's bit, the mask of the columns above it and the parity of i + c
        cells = [(1 << c, -(2 << c), (i + c) & 1) for c in _columns(mask)]
        step = defaultdict(int)
        for key, count in states.items():
            used, skipped = key >> 1, key & 1
            if not skipped:
                step[(used & after) << 1 | 1] += count
            for low, above, odd in cells:
                if not used & low:
                    flip = ((used & above).bit_count() + odd) & 1
                    step[((used | low) & after) << 1 | skipped] += -count if flip else count
        states = step
    # no row is later than the last, so every profile has collapsed to 0
    return sign * states.get(0, 0), sign * states.get(1, 0)


# The widest profile parity_counts gives the DPs.  At the TRANSFER default of
# 200 both DPs over a width-8 zero band take about 1.4 s, most of it the rook
# DP, no more than Ryser at its own limit of 20 (about 3 s; both on a 2-vCPU
# Xeon); the rook DP alone takes about 9 s at width 10.
_PARITY_MAX_WIDTH = 8


def parity_counts(A: CharMatrix) -> ParityCount:
    """Census from (per +- det)/2.  A is J - Z for its zeros Z.  When Z's
    profile is at most _PARITY_MAX_WIDTH columns wide, both halves come
    from Z by transfer DPs and no dense matrix is built: per A from Z's
    rook numbers, and det A = (-1)^n (det Z - 1^T adj(Z) 1) from the
    signed DP, since det(J_m) = 0 for m >= 2 leaves only the placements
    of n or n - 1 rooks on Z.  A wider Z takes the permanent from its
    rook numbers when it is a Ferrers board and from Ryser, under its own
    guard, otherwise, and the determinant by Bareiss."""
    n = A.n
    zeros = [mask ^ ((1 << n) - 1) for mask in _board(A.bits)]
    if _profile_width(zeros) <= _PARITY_MAX_WIDTH:
        det_z, cofactors = _signed_minors(zeros)
        det = det_z - cofactors if n % 2 == 0 else cofactors - det_z
        return ParityCount.split(_hits(_rook_numbers(zeros), 0)[0], det)
    dense = A.to_dense()
    per = _hits(_rook_numbers(zeros), 0)[0] if _is_ferrers(zeros) else permanent_ryser(dense).value
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


# family -> (its band window (k, l) at order n, the hit number h its row
# reads, its det at order n, column names), in _FAMILY_NAMES order.  A
# seating matrix is J - Z for its zero band Z, so its class is e_0 of Z;
# excedance-k2 is e_2 of the weak-excedance staircase, and its det the b^2
# coefficient of (b - 1)^(n-1) b, c(n, 2) = (-1)^n (n - 1).
_SEATING = ("n", "per", "det", "even", "odd")
_FAMILIES = dict(zip(_FAMILY_NAMES, (
    (lambda n: _MENAGE_A_ZEROS, 0, menage_a_det, _SEATING),
    (lambda n: _MENAGE_B_ZEROS, 0, menage_b_det, _SEATING),
    (lambda n: (n, 1), 2, lambda n: 1 - n if n & 1 else n - 1, ("n", "T", "c", "even", "odd")),
), strict=True))


def family_table(family: str, n_max: int) -> list[tuple[int, int, int, int, int]]:
    """Census rows for n = 1..n_max, every row's permanent read off one
    pass over the order-n_max board (see _corner_rook_numbers).

    menage-a, menage-b: (n, per, det, even, odd) with the permanent from
    the hit numbers of the zero band and the determinant from the family
    closed form.
    excedance-k2: (n, T(n,2), c(n,2), even, odd).
    """
    _require_order(n_max, "n_max")
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    window, h, det, _ = _FAMILIES[family]
    rows = []
    for n, r in enumerate(_corner_rook_numbers(n_max, *window(n_max)), start=1):
        pc = ParityCount.split(_hits(r, h)[h], det(n))
        rows.append((n, pc.permanent, pc.determinant, pc.even, pc.odd))
    return rows
