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
    "TRANSFER": 200,  # the rook-number census paths of permcount (polynomial time)
    # the CLI's Bareiss runs: DENSE bounds the n^2 entries built, DENSE_BITS
    # n times the bits of max(|a|, |b|), which bounds the size of the minors
    # elimination builds (the slowest admitted run takes about 2 s)
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


# the DenseMatrix of square rows of tuples of one ring, built unchecked
_dense = DenseMatrix._unchecked


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
    reads back exactly as signed base-2^w digits."""
    if m.is_integer():
        return [[e.value for e in row] for row in m.rows], Integer
    bound = 1
    for row in m.rows:
        bound *= sum(abs(c) for e in row for c in e.coeffs)
    w = bound.bit_length() + 1
    x = 1 << w
    return [[e.evaluate(x) for e in row] for row in m.rows], lambda r: _unkronecker(r, w)


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


_second = operator.itemgetter(1)


def det_bareiss(m: DenseMatrix) -> Integer:
    """Exact integer determinant by Bareiss fraction-free elimination, doing
    only the work the matrix's nonzeros need.

    Row i first becomes row_i - row_(i+1) and column j col_j - col_(j+1),
    for i, j < n-1.  Both are unimodular, so the determinant stays.  The
    differenced row i is the steps a_ij - a_i(j+1) of row i less those of
    row i+1 (a zero column and a zero row lie past the edge), and a step is
    taken only at a cut, a column j whose entries j and j+1 are not one
    object, so ``.value`` is read only there.  Equal entries share one
    object in a band, so its cuts are its value changes: a row that is the
    row above moved one column right takes that row's steps moved with it,
    and only a row that is not is scanned.  A matrix constant along its
    diagonals except at a few value changes (every band matrix of the
    package) keeps a handful of nonzeros a row.  Each row is kept from its
    first nonzero column on and filed in that column's bucket; step k
    updates exactly bucket k, and an updated row moves to the bucket of its
    new first nonzero.  The pivot is row k when it is in bucket k,
    otherwise the candidate with the shortest span; rows are never swapped,
    and the sign is the parity of the pivot order.  A row that skips step t
    is only scaled by p_t / p_(t-1) (Sylvester's identity, Bareiss 1968),
    and that product telescopes: a row last updated at step s - 1 is
    brought up to step k by multiplying by p_(k-1) and dividing by
    p_(s-1), so its next update divides by p_(s-1) in place of p_(k-1).
    Every division is exact by construction; inexactness is checked and
    reported as a bug.
    """
    if not m.is_integer():
        raise TypeError("det_bareiss requires the integer ring")
    n = m.n
    last = n - 1
    # each row's steps {j: a_ij - a_i(j+1)} at its cuts; column n-1 is one,
    # against the zero column past the edge
    steps = []
    above = step = None
    for row in m.rows:
        # the row above moved right: its steps left of column n-2 move with it
        if step is not None and row[1:] == above[:-1]:
            step = {j + 1: v for j, v in step.items() if j < last - 1}
            if row[0] is not row[1]:
                step[0] = row[0].value - row[1].value
        else:
            step = {j: row[j].value - row[j + 1].value for j in compress(count(), map(operator.is_not, row, row[1:]))}
        step[last] = row[last].value
        steps.append(step)
        above = row
    steps.append({})  # the zero row past the edge
    rows = [None] * n  # row i from its first nonzero column on
    buckets = [[] for _ in range(n)]  # the rows whose first nonzero is column k
    for i in range(n):
        d = steps[i].copy()
        for j, v in steps[i + 1].items():
            d[j] = d.get(j, 0) - v
        # the nonzeros by column; a row of zeros is filed nowhere
        diff = sorted(filter(_second, d.items()))
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
                row = [_exact_div(pk * x - f * y, d) for x, y in zip_longest(rowi[1:], tail, fillvalue=0)]
                lo = next(compress(count(), row), None)  # None: a row of zeros, filed nowhere
                if lo is not None:
                    del row[:lo]
                    rows[i] = row
                    buckets[k + 1 + lo].append(i)
        prev = pk
    # the pivot order's parity: n minus its number of cycles
    cycles = 0
    for i in range(n):
        cycles += order[i] >= 0
        while order[i] >= 0:  # walk the new cycle back to i, marking it
            order[i], i = -1, order[i]
    return Integer(-prev if (n - cycles) & 1 else prev)


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
