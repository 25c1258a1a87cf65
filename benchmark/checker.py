"""Expected results for the benchmark, computed without banddet.

Everything here is plain Python ints and tuples of ints, derived from the
paper's statements rather than from banddet's code:

- the two closed forms for the determinant of the band spec (n, k, l, a, b),
  over the integers and, for a and b of degree <= 1, over polynomials by
  the binomial theorem;
- permanents of band matrices through rook numbers of the band board,
  counted by a sliding-window recurrence (this gives the menage-A and
  menage-B class sizes);
- Eulerian numbers by their recurrence, for the weak-excedance census.

A polynomial is a tuple of coefficients in ascending powers with no
trailing zeros; the zero polynomial is ().
"""

from __future__ import annotations

from math import comb, factorial

__all__ = [
    "band_det",
    "band_det_poly",
    "band_permanent",
    "rook_numbers",
    "family_rows",
    "excedance_census",
    "eulerian_row",
]


def _closed_form(n: int, k: int, l: int):
    """(sign, q) with det = sign * (b - a)^(n-1) * (b + q*a), or None when
    the determinant is 0.  Widths beyond n are allowed."""
    if l > k:
        k, l = l, k
    if l == 1:
        p = n % k or k
        return 1, (n - p) // k
    w = k + l - 1
    p, s = n % w, n // w
    if p == 0:
        q = (n - w) // w
    elif p == 1:
        q = (n - 1) // w
    else:
        return None
    return (-1 if (k - 1) * (l - 1) * s % 2 else 1), q


def band_det(n: int, k: int, l: int, a: int, b: int) -> int:
    """Determinant of the n x n matrix with b where -l < j-i < k, else a."""
    form = _closed_form(n, k, l)
    if form is None:
        return 0
    sign, q = form
    return sign * (b - a) ** (n - 1) * (b + q * a)


def _pair(p: tuple[int, ...]) -> tuple[int, int]:
    if len(p) > 2:
        raise ValueError(f"degree of {p} exceeds 1")
    return (p + (0, 0))[0], (p + (0, 0))[1]


def _strip(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def band_det_poly(n: int, k: int, l: int, a: tuple, b: tuple) -> tuple[int, ...]:
    """band_det for a, b polynomials of degree <= 1, expanded as
    sign * sum_j C(m, j) d0^(m-j) d1^j x^j * (t0 + t1 x) with m = n-1."""
    form = _closed_form(n, k, l)
    if form is None:
        return ()
    sign, q = form
    a0, a1 = _pair(a)
    b0, b1 = _pair(b)
    d0, d1 = b0 - a0, b1 - a1
    t0, t1 = b0 + q * a0, b1 + q * a1
    m = n - 1
    power = [comb(m, j) * d0 ** (m - j) * d1**j for j in range(m + 1)]
    out = [0] * (m + 2)
    for j, c in enumerate(power):
        out[j] += sign * t0 * c
        out[j + 1] += sign * t1 * c
    return _strip(out)


def rook_numbers(n: int, k: int, l: int) -> list[int]:
    """r[j] = ways to put j non-attacking rooks on the cells -l < j-i < k
    of an n x n board.

    Rows are taken in order; the state is the set of used columns that a
    later row can still reach, so only the k+l-1 columns of the sliding
    window matter and the state count stays at most 2^(k+l-1)."""
    states: dict[int, list[int]] = {0: [1]}
    for i in range(n):
        lo, hi = max(0, i - l + 1), min(n - 1, i + k - 1)
        nxt: dict[int, list[int]] = {}
        for mask, counts in states.items():
            mask &= ~((1 << lo) - 1)
            for key, shift in [(mask, 0)] + [
                (mask | 1 << j, 1) for j in range(lo, hi + 1) if not mask >> j & 1
            ]:
                acc = nxt.setdefault(key, [])
                need = len(counts) + shift
                acc.extend([0] * (need - len(acc)))
                for r, c in enumerate(counts):
                    acc[r + shift] += c
        states = nxt
    total: list[int] = []
    for counts in states.values():
        total.extend([0] * (len(counts) - len(total)))
        for r, c in enumerate(counts):
            total[r] += c
    return total


def band_permanent(n: int, k: int, l: int, a: int, b: int) -> int:
    """per(a*J + (b-a)*B) = sum_j r_j(B) (b-a)^j a^(n-j) (n-j)! for the band
    board B; with a = 1, b = 0 this is inclusion-exclusion over B."""
    return sum(
        r * (b - a) ** j * a ** (n - j) * factorial(n - j)
        for j, r in enumerate(rook_numbers(n, k, l))
    )


_FAMILY_WINDOW = {"menage-a": (2, 1), "menage-b": (2, 2)}


def family_rows(family: str, n_max: int) -> list[tuple[int, int, int, int, int]]:
    """Census rows (n, per, det, even, odd) for n = 1..n_max; for
    excedance-k2 the row is (n, T(n,2), c(n,2), even, odd)."""
    rows = []
    for n in range(1, n_max + 1):
        if family == "excedance-k2":
            if n < 2:
                rows.append((n, 0, 0, 0, 0))
                continue
            per_coeffs, det_coeffs, even, odd = excedance_census(n)
            rows.append((n, per_coeffs[1], det_coeffs[1], even[1], odd[1]))
            continue
        k, l = _FAMILY_WINDOW[family]
        per = band_permanent(n, k, l, 1, 0)
        det = band_det(n, k, l, 1, 0)
        rows.append((n, per, det, (per + det) // 2, (per - det) // 2))
    return rows


def eulerian_row(n: int) -> list[int]:
    """A(n, m) for m = 0..n-1: permutations of n with m descents, which is
    also the number with m+1 weak excedances."""
    row = [1]
    for size in range(2, n + 1):
        prev = row + [0]
        row = [
            (m + 1) * prev[m] + (size - m) * (prev[m - 1] if m else 0)
            for m in range(size)
        ]
    return row


def excedance_census(n: int):
    """(per_coeffs, det_coeffs, even, odd), each indexed k-1 for k = 1..n:
    T(n, k) from the Eulerian row and c(n, k) = (-1)^(n-k) C(n-1, k-1)."""
    per_coeffs = tuple(eulerian_row(n))
    det_coeffs = tuple(
        (-1) ** (n - k) * comb(n - 1, k - 1) for k in range(1, n + 1)
    )
    even = tuple((t + c) // 2 for t, c in zip(per_coeffs, det_coeffs))
    odd = tuple((t - c) // 2 for t, c in zip(per_coeffs, det_coeffs))
    return per_coeffs, det_coeffs, even, odd
