"""Brute-force ground truth: determinants by Laplace expansion and by
fraction-free (Bareiss) elimination, permanents by Ryser's method and by
full expansion.

Everything here is deliberately independent of the closed forms in
:mod:`banddet.band`; these are the oracles the closed forms get checked
against.  The exponential routines carry hard size guards, overridable
through ``BANDDET_LIMIT_<NAME>`` environment variables.
"""

from __future__ import annotations

import operator
import os
from functools import reduce
from itertools import chain, compress, count, permutations, zip_longest
from math import prod

from .errors import InexactDivisionError, MixedRingError, SizeLimitError, _Record, _require_square
from .rings import Integer, Poly, RingElement, _int_parse, _poly, as_element

__all__ = [
    "DenseMatrix",
    "det_laplace",
    "det_bareiss",
    "permanent_ryser",
    "permanent_expansion",
]

_DEFAULT_LIMITS = {
    "LAPLACE": 12,
    "RYSER_INT": 20,
    # Ryser over Poly runs over ints (see _raw_rows): at 18 a band of linear
    # entries takes about 1 s and a full matrix of quadratic ones about 3 s
    "RYSER_POLY": 18,
    "ENUM": 9,  # every walk over the n! permutations of S_n
    "TRANSFER": 200,  # the census paths of permcount: rook boards and tables (polynomial time)
    # the CLI's Bareiss runs: DENSE bounds the order n, the number of
    # elimination steps, DENSE_BITS n times the bits of max(|a|, |b|), which
    # bounds the size of the minors elimination builds (the slowest admitted
    # run takes about 2 s)
    "DENSE": 200,
    "DENSE_BITS": 50_000,
    # the CLI's closed form and recurrence: the answer's estimated bits,
    # (n-1) * bits(b-a) + bits(tail) (the slowest admitted run takes about 2 s)
    "OUTPUT_BITS": 5_000_000,
}


def size_limit(name: str) -> int:
    """Effective guard value; ``BANDDET_LIMIT_<NAME>``, a canonical
    non-negative decimal integer, overrides the default."""
    var = f"BANDDET_LIMIT_{name}"
    raw = os.environ.get(var)
    if raw is None:
        return _DEFAULT_LIMITS[name]
    try:
        limit = _int_parse(raw)
        if limit >= 0:
            return limit
    except ValueError:
        pass
    raise ValueError(f"{var} must be a non-negative integer, got {raw!r}")


def check_size(name: str, n: int, what: str, measure: str = "order") -> None:
    limit = size_limit(name)
    if n > limit:
        raise SizeLimitError(
            f"{what} refuses {measure} {n} (limit {limit}; "
            f"set BANDDET_LIMIT_{name} to override)"
        )


def _one_type(rows):
    """The type every entry has, or None when they differ."""
    kinds = set(map(type, chain.from_iterable(rows)))
    return kinds.pop() if len(kinds) == 1 else None


class DenseMatrix(_Record):
    """Row-major square matrix with all entries from one ring, built from
    any iterable of rows.  Plain ints become Integer, one per distinct
    value, so equal entries share one object; any other entry that is not
    a ring element raises TypeError, and two rings MixedRingError."""

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        rows = tuple(map(tuple, rows))
        _require_square(rows)
        kind = _one_type(rows)
        if kind is int:
            one = {v: Integer(v) for v in set(chain.from_iterable(rows))}
            rows = tuple(tuple(map(one.__getitem__, row)) for row in rows)
        elif kind is None or not issubclass(kind, RingElement):
            rows = tuple(tuple(map(as_element, row)) for row in rows)
            if _one_type(rows) is None:
                raise MixedRingError("all entries must come from one ring")
        super().__init__(rows)

    n = property(lambda self: len(self.rows))

    def __getitem__(self, i: int) -> tuple[RingElement, ...]:
        return self.rows[i]

    def is_integer(self) -> bool:
        return isinstance(self.rows[0][0], Integer)

    # every DenseMatrix compares, hashes and prints by its rows, however it
    # keeps them
    def __eq__(self, other):
        return self.rows == other.rows if isinstance(other, DenseMatrix) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"DenseMatrix(rows={self.rows!r})"


# the DenseMatrix of square rows of tuples of one ring, built unchecked
_dense = DenseMatrix._unchecked


def _windows(strip):
    """The rows of the Toeplitz matrix of a strip of 2n - 1 entries: row i
    is the n-wide window that starts n - 1 - i entries in."""
    n = (len(strip) + 1) // 2
    return tuple(strip[i : i + n] for i in range(n - 1, -1, -1))


class _Strip(DenseMatrix):
    """A Toeplitz DenseMatrix kept as its strip, the 2n - 1 entries whose
    windows are its rows (see ``_windows``); a row is cut from the strip
    only when asked for.  Built unchecked, by ``band.materialize`` and by
    copy and pickle, from entries of one ring."""

    __slots__ = ("strip",)
    _fields = ()  # the strip alone stands in for the rows
    __init__ = _Record.__init__

    n = property(lambda self: (len(self.strip) + 1) // 2)
    rows = property(lambda self: _windows(self.strip))

    def __getitem__(self, i: int) -> tuple[RingElement, ...]:
        if isinstance(i, slice):
            return self.rows[i]
        n = self.n
        start = n - 1 - range(n)[i]  # refuses what a tuple of n rows refuses
        return self.strip[start : start + n]

    def is_integer(self) -> bool:
        return isinstance(self.strip[0], Integer)


def _raw_rows(m: DenseMatrix):
    """The rows as plain ints, and the function that reads an int result
    back into the matrix's ring: where Laplace and the permanents enter and
    leave a ring (Bareiss, integer only, reads ``.value`` at its cuts
    alone).  Integer is unwrapped.  A Poly entry is evaluated at x = 2^w
    (Kronecker substitution), a ring homomorphism Z[x] -> Z, so a sum of
    products of entries evaluates to the int the oracle computes.  Every
    coefficient of the determinant or permanent is at most
    bound = prod_i sum_j |a_ij|_1 in size, since |det|_1 <= per(|A|_1)
    <= the product of the row sums; with w = bound.bit_length() + 1 each
    coefficient lies strictly inside (-2^(w-1), 2^(w-1)), so the result
    reads back exactly as signed base-2^w digits.  A strip matrix is read
    off its strip: each strip entry once, the int rows as windows of the
    int strip, and each row sum as a window sum."""

    def ints(f):
        # f of each entry: of a strip matrix, once per strip entry, its rows then cut as windows
        if type(m) is _Strip:
            return _windows(list(map(f, m.strip)))
        return [list(map(f, row)) for row in m.rows]

    if m.is_integer():
        return ints(operator.attrgetter("value")), Integer
    bound = prod(map(sum, ints(lambda e: sum(map(abs, e.coeffs)))))
    w = bound.bit_length() + 1
    return ints(operator.methodcaller("evaluate", 1 << w)), lambda r: _unkronecker(r, w)


def _unkronecker(r: int, w: int) -> Poly:
    """The Poly whose value at x = 2^w is r, each coefficient inside
    (-2^(w-1), 2^(w-1)): the low w bits are a digit, read as negative
    (borrowing one from the rest) from 2^(w-1) up.  A nonzero digit at
    degree d makes |r| > 2^(w*d - 1), so bit_length // w + 1 digits take
    all of r."""
    mask, half = (1 << w) - 1, 1 << (w - 1)
    cs = []
    for _ in range(r.bit_length() // w + 1):
        c = r & mask
        r >>= w
        if c >= half:
            c -= 1 << w
            r += 1
        cs.append(c)
    return _poly(tuple(cs))


def det_laplace(m: DenseMatrix) -> RingElement:
    """Exact determinant by Laplace expansion along rows, bottom up.

    ``minors[mask]`` is the minor on the last ``mask.bit_count()`` rows
    and the columns in ``mask``.  The 2^n masks are visited in increasing
    order, so each minor is complete when its mask comes up; a nonzero one
    is expanded into every mask that adds a column where the row above is
    nonzero, with the sign of that column's place among the mask's.  A
    minor no term reaches stays ``None`` and costs nothing, so products
    are made only for a nonzero entry times a nonzero minor: at most
    n * 2^(n-1), and far fewer on a band.  All of them are int products,
    whatever the matrix's ring (see ``_raw_rows``).  Still exponential,
    hence the guard.
    """
    n = m.n
    check_size("LAPLACE", n, "det_laplace")
    rows, wrap = _raw_rows(m)
    # each row's nonzero entries, with their columns as bits
    support = [[(1 << j, e) for j, e in enumerate(row) if e] for row in rows]
    full = (1 << n) - 1
    minors = [None] * (full + 1)
    minors[0] = 1
    for mask in range(full):
        minor = minors[mask]
        if not minor:
            continue
        for bit, e in support[n - 1 - mask.bit_count()]:
            if mask & bit:
                continue
            term = e * minor
            wider = mask | bit
            acc = minors[wider]
            # the sign of bit's place in the wider mask: the mask's columns left of it
            if (mask & (bit - 1)).bit_count() & 1:
                minors[wider] = -term if acc is None else acc - term
            else:
                minors[wider] = term if acc is None else acc + term
    return wrap(minors[full] or 0)


def _exact_div(x: int, d: int) -> int:
    """x / d where d must divide x; the package's one exact division."""
    q, r = divmod(x, d)
    if r:
        raise InexactDivisionError(f"{x} is not divisible by {d}")
    return q


def _perm_sign(perm) -> int:
    """Sign of a sequence known to be a permutation of 0..n-1:
    (-1)^(n - number of cycles)."""
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


_second = operator.itemgetter(1)


def _row_differences(rows):
    """Each differenced row of det_bareiss, as its nonzeros (j, v) by
    column: the steps {j: a_ij - a_i(j+1)} of row i, taken at its cuts and
    at column n-1 (against the zero column past the edge), less those of
    row i+1 (the zero row past the edge for the last)."""
    last = len(rows) - 1
    steps = []
    for row in rows:
        step = {j: row[j].value - row[j + 1].value for j in compress(count(), map(operator.is_not, row, row[1:]))}
        step[last] = row[last].value
        steps.append(step)
    steps.append({})
    for i, d in enumerate(steps[:-1]):
        for j, v in steps[i + 1].items():
            d[j] = d.get(j, 0) - v
        yield sorted(filter(_second, d.items()))


def _strip_differences(strip):
    """The differenced rows of ``_row_differences`` for the matrix of a
    strip, read off the strip's cuts alone.  Row i's entry j is strip
    entry t = n-1-i+j, so its steps are the strip's steps
    c_t = s_t - s_(t+1) at its cuts t inside its window, moved by n-1-i.
    The differenced row i < n-1 is then c_t - c_(t-1) at columns j < n-1
    and -c_(2n-3-i) at column n-1; the last row is c_j at columns j < n-1
    and s_(n-1) at n-1."""
    n = (len(strip) + 1) // 2
    cuts = {t: strip[t].value - strip[t + 1].value for t in compress(count(), map(operator.is_not, strip, strip[1:]))}
    # c_t - c_(t-1) where it is not zero, by strip position
    second = [(t, v) for t in sorted({*cuts, *(t + 1 for t in cuts)}) if (v := cuts.get(t, 0) - cuts.get(t - 1, 0))]
    for i in range(n - 1):
        start = n - 1 - i
        diff = [(t - start, v) for t, v in second if start <= t < start + n - 1]
        if v := cuts.get(start + n - 2):
            diff.append((n - 1, -v))
        yield diff
    diff = [(t, v) for t, v in cuts.items() if t < n - 1 and v]
    if v := strip[n - 1].value:
        diff.append((n - 1, v))
    yield diff


def det_bareiss(m: DenseMatrix) -> Integer:
    """Exact integer determinant by Bareiss fraction-free elimination, doing
    only the work the matrix's nonzeros need.

    Row i first becomes row_i - row_(i+1) and column j col_j - col_(j+1),
    for i, j < n-1.  Both are unimodular, so the determinant stays.  The
    differenced row i is the steps a_ij - a_i(j+1) of row i less those of
    row i+1 (a zero column and a zero row lie past the edge), and a step is
    taken only at a cut, a column j whose entries j and j+1 are not one
    object, so ``.value`` is read only there.  The matrix of a strip (what
    ``band.materialize`` returns) has its cuts read once off the strip, and
    its differenced rows built from them (``_strip_differences``); any
    other matrix has each row scanned (``_row_differences``).  Equal
    entries share one object in a band, so its cuts are its value changes,
    and a matrix constant along its diagonals except at a few value changes
    (every band matrix of the package) keeps a handful of nonzeros a row.
    Each row is kept from its first nonzero column on and filed in that
    column's bucket; step k updates exactly bucket k, and an updated row
    moves to the bucket of its new first nonzero.  The pivot is row k when
    it is in bucket k, otherwise the candidate with the shortest span; rows
    are never swapped, and the sign is that of the pivot order.  A
    row that skips step t is only scaled by p_t / p_(t-1) (Sylvester's
    identity, Bareiss 1968),
    and that product telescopes: a row last updated at step s - 1 is
    brought up to step k by multiplying by p_(k-1) and dividing by
    p_(s-1), so its next update divides by p_(s-1) in place of p_(k-1).
    Every division is exact by construction; inexactness is checked and
    reported as a bug.  An update whose divisor is 1 takes no division.
    """
    if not m.is_integer():
        raise TypeError("det_bareiss requires the integer ring")
    n = m.n
    rows = [None] * n  # row i from its first nonzero column on
    buckets = [[] for _ in range(n)]  # the rows whose first nonzero is column k
    diffs = _strip_differences(m.strip) if type(m) is _Strip else _row_differences(m.rows)
    # a row of zeros is filed nowhere
    for i, diff in enumerate(diffs):
        if diff:
            lo = diff[0][0]
            row = rows[i] = [0] * (diff[-1][0] + 1 - lo)
            for j, v in diff:
                row[j - lo] = v
            buckets[lo].append(i)
    div = [1] * n  # each row's next update's divisor
    order = []  # the pivot row of each step
    prev = 1
    for k in range(n):
        bucket = buckets[k]
        if not bucket:
            return Integer(0)
        # row k first: the shortest span alone builds wider minors on dense bands
        p = k if k in bucket else min(bucket, key=lambda i: len(rows[i]))
        order.append(p)
        rowp, d = rows[p], div[p]
        if d != prev:
            rowp = [_exact_div(prev * x, d) for x in rowp]
        pk, tail = rowp[0], rowp[1:]
        for i in bucket:
            if i != p:
                rowi = rows[i]
                f, d, div[i] = rowi[0], div[i], pk
                pairs = zip_longest(rowi[1:], tail, fillvalue=0)
                if d == 1:
                    row = [pk * x - f * y for x, y in pairs]
                else:
                    row = [_exact_div(pk * x - f * y, d) for x, y in pairs]
                lo = next(compress(count(), row), None)  # None: a row of zeros, filed nowhere
                if lo is not None:
                    del row[:lo]
                    rows[i] = row
                    buckets[k + 1 + lo].append(i)
        prev = pk
    return Integer(prev * _perm_sign(order))


def permanent_ryser(m: DenseMatrix) -> RingElement:
    """Exact permanent by Ryser's inclusion-exclusion:

        per A = (-1)^n * sum over nonempty column subsets S of
                (-1)^{|S|} * prod_i (sum_{j in S} a_ij)

    The subsets run in Gray-code order: each step adds or subtracts the
    one column whose code bit flips on or off, then takes one n-term
    product of the row sums, over the ints of ``_raw_rows``.
    """
    n = m.n
    check_size("RYSER_INT" if m.is_integer() else "RYSER_POLY", n, "permanent_ryser")
    rows, wrap = _raw_rows(m)
    cols = list(zip(*rows))
    sums = [0] * n
    total = 0
    for g in range(1, 1 << n):
        low = g & -g
        gray = g ^ (g >> 1)
        step = operator.add if gray & low else operator.sub
        sums = list(map(step, sums, cols[low.bit_length() - 1]))
        prod = reduce(operator.mul, sums)
        total = total - prod if (n - gray.bit_count()) & 1 else total + prod
    return wrap(total)


def permanent_expansion(m: DenseMatrix) -> RingElement:
    """Permanent by summing entry products over all n! permutations.

    The oracle for the oracle; only feasible at very small orders.
    """
    n = m.n
    check_size("ENUM", n, "permanent_expansion")
    rows, wrap = _raw_rows(m)
    total = 0
    for perm in permutations(range(n)):
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        total = total + prod
    return wrap(total)
