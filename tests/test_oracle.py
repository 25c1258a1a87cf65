import inspect
import operator
import random
from fractions import Fraction
from itertools import permutations

import pytest

from banddet import (
    BandSpec,
    DenseMatrix,
    InexactDivisionError,
    Integer,
    MixedRingError,
    Poly,
    SizeLimitError,
    det_bareiss,
    det_closed,
    det_laplace,
    materialize,
    permanent_expansion,
    permanent_ryser,
)
from banddet import oracle


def int_matrix(rows):
    return DenseMatrix(rows)


def random_int_matrix(rng, n, lo=-5, hi=5):
    return int_matrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


class TestDetLaplace:
    def test_1x1_poly(self):
        m = DenseMatrix(((Poly.variable(),),))
        assert det_laplace(m) == Poly.variable()

    def test_menage_a4(self):
        m = materialize(BandSpec(4, 2, 1, 1, 0))
        assert det_laplace(m) == Integer(-1)

    def test_c3_polynomial(self):
        c3 = materialize(BandSpec(3, 3, 1, Poly.constant(1), Poly.variable()))
        want = (Poly((-1, 1)) ** 2) * Poly.variable()
        assert det_laplace(c3) == want

    def test_guard(self):
        m = int_matrix([[1] * 13 for _ in range(13)])
        with pytest.raises(SizeLimitError):
            det_laplace(m)

    def test_guard_override(self, monkeypatch):
        monkeypatch.setenv("BANDDET_LIMIT_LAPLACE", "2")
        m = int_matrix([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(SizeLimitError):
            det_laplace(m)


def leibniz(m):
    """det m as the sum over every permutation of its signed entry product."""
    n, rows = m.n, m.rows
    total = rows[0][0].ring_zero()
    for perm in permutations(range(n)):
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - prod if inversions & 1 else total + prod
    return total


STRUCTURES = ("sparse", "zero row", "zero column", "equal rows")


def sparse_matrix(rng, n, draw, zero, structure):
    """An order-n matrix, about half of its entries `zero` and the rest
    from `draw()`, with one zero row or column, or two equal rows, on
    request: their minors cancel to zero from nonzero terms."""
    rows = [[draw() if rng.random() < 0.5 else zero for _ in range(n)] for _ in range(n)]
    i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
    if structure == "zero row":
        rows[i] = [zero] * n
    elif structure == "zero column":
        for row in rows:
            row[j] = zero
    elif structure == "equal rows" and n > 1:
        rows[i] = list(rows[j])
    return DenseMatrix(rows)


def draw_int(rng):
    return lambda: rng.choice((-3, -2, -1, 1, 2, 3))


def draw_poly(rng):
    return lambda: Poly((rng.randint(-2, 2), rng.randint(-1, 1)))


# the verify workload's polynomial (a, b): degree at most 1, b - a = +-1 +- x
_STEPS = ((-1, 0), (0, -1), (0, 1), (1, 0))
POLY_PAIRS = [
    (Poly((a0, a1)), Poly((b0, b1))) for a0, b0 in _STEPS for a1, b1 in _STEPS
]


class TestLaplaceSweep:
    @pytest.mark.parametrize("structure", STRUCTURES)
    @pytest.mark.parametrize("ring", ("int", "poly"))
    def test_matches_leibniz(self, ring, structure):
        rng = random.Random(f"{ring}/{structure}")
        draw, zero = (draw_int(rng), 0) if ring == "int" else (draw_poly(rng), Poly())
        for n in range(1, 8):
            for _ in range(6 if ring == "int" else 3):
                m = sparse_matrix(rng, n, draw, zero, structure)
                want = leibniz(m)
                assert det_laplace(m) == want, (n, m)
                if structure != "sparse" and n > 1:
                    assert want.is_zero()

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_matches_bareiss_up_to_12(self, structure):
        rng = random.Random(structure)
        for n in range(1, 13):
            for _ in range(3):
                m = sparse_matrix(rng, n, draw_int(rng), 0, structure)
                assert det_laplace(m) == det_bareiss(m), (n, m)

    def test_polynomial_bands_match_the_closed_form(self):
        for n in range(1, 10):
            for k in range(1, n + 1):
                for l in range(1, k + 1):
                    for a, b in POLY_PAIRS:
                        spec = BandSpec(n, k, l, a, b)
                        assert det_laplace(materialize(spec)) == det_closed(spec), spec

    @pytest.mark.parametrize(
        "spec, most",
        [
            # 846 products; expanding every nonzero entry against every minor made 24,576
            (BandSpec(12, 5, 3, Poly((-1, 1)), Poly((1, 1))), 1000),
            # zero off the band: 57 products, against 419
            (BandSpec(12, 3, 2, Poly(), Poly((1, 1))), 100),
        ],
    )
    def test_multiplies_only_nonzero_entries_by_nonzero_minors(self, monkeypatch, spec, most):
        m, want = materialize(spec), det_closed(spec)
        factors = []

        class Counted(int):
            """An entry of the oracle's int rows that records each product it makes."""

            def __mul__(self, other):
                factors.append((int(self), other))
                return int(self) * other

        real = oracle._raw_rows

        def counted_rows(m):
            rows, wrap = real(m)
            return [[Counted(e) for e in row] for row in rows], wrap

        monkeypatch.setattr(oracle, "_raw_rows", counted_rows)
        assert det_laplace(m) == want
        assert 0 < len(factors) <= most
        assert not any(x == 0 or y == 0 for x, y in factors)


def poly_laplace(m):
    """det m by the bottom-up minor DP of det_laplace, run in the matrix's
    own ring: the reference for the substitution into the ints."""
    n, zero = m.n, m.rows[0][0].ring_zero()
    minors = {0: zero.ring_one()}
    for mask in range(1 << n):
        minor = minors.get(mask)
        if minor is None or minor.is_zero():
            continue
        for j, e in enumerate(m.rows[n - 1 - mask.bit_count()]):
            bit = 1 << j
            if mask & bit or e.is_zero():
                continue
            term = e * minor
            if (mask & (bit - 1)).bit_count() & 1:
                term = -term
            minors[mask | bit] = minors.get(mask | bit, zero) + term
    return minors.get((1 << n) - 1, zero)


# the verify workload's Laplace shapes (k, l)
VERIFY_SHAPES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (5, 3)]


class TestKroneckerSubstitution:
    """Poly matrices reach the oracles as ints, evaluated at x = 2^w with
    w one bit past the row-sum bound, and come back as signed digits."""

    def test_verify_shapes_match_a_poly_ring_laplace(self):
        for n in range(1, 11):
            for k, l in VERIFY_SHAPES:
                for a, b in POLY_PAIRS:
                    m = materialize(BandSpec(n, k, l, a, b))
                    assert det_laplace(m) == poly_laplace(m), (n, k, l, a, b)

    @pytest.mark.parametrize("c", [3, -3])
    @pytest.mark.parametrize("power", [0, 1])
    def test_a_coefficient_equal_to_the_bound(self, c, power):
        # c on the diagonal, zero elsewhere: one term per row and per
        # permutation, so the bound c^n is attained
        for n in range(1, 10):
            m = DenseMatrix([[Poly((0,) * power + (c,)) if i == j else Poly() for j in range(n)] for i in range(n)])
            want = Poly((0,) * (power * n) + (c**n,))
            assert det_laplace(m) == permanent_ryser(m) == permanent_expansion(m) == want, n

    def test_all_zero_and_a_zero_row(self):
        rng = random.Random("zero")
        for n in range(1, 8):
            zero = DenseMatrix([[Poly()] * n for _ in range(n)])
            rows = [[Poly((rng.randint(-3, 3), rng.randint(-3, 3))) for _ in range(n)] for _ in range(n)]
            rows[rng.randrange(n)] = [Poly()] * n
            for m in (zero, DenseMatrix(rows)):
                for run in (det_laplace, permanent_ryser, permanent_expansion):
                    assert run(m) == Poly(), (run.__name__, m)

    def test_no_poly_arithmetic_inside_the_oracles(self, monkeypatch):
        spec = BandSpec(7, 3, 2, Poly((1, -1)), Poly((0, 1)))
        m = materialize(spec)
        want = {run: run(m) for run in (det_laplace, permanent_ryser, permanent_expansion)}
        assert want[det_laplace] == det_closed(spec)

        def refuse(*args):
            raise AssertionError("Poly arithmetic inside an oracle")

        for op in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__"):
            monkeypatch.setattr(Poly, op, refuse)
        for run, value in want.items():
            assert run(m) == value, run.__name__


class TestDetBareiss:
    def test_diagonal(self):
        m = int_matrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
        assert det_bareiss(m) == Integer(30)

    def test_menage_b10(self):
        m = materialize(BandSpec(10, 2, 2, 1, 0))
        assert det_bareiss(m) == Integer(3)

    def test_agrees_with_laplace_on_random_6x6(self):
        rng = random.Random(20250810)
        for _ in range(25):
            m = random_int_matrix(rng, 6)
            assert det_bareiss(m) == det_laplace(m)

    def test_agrees_with_laplace_randomized(self):
        # 200 trials across orders up to 8, entries in -5..5
        rng = random.Random(1234)
        for _ in range(200):
            n = rng.randint(1, 8)
            m = random_int_matrix(rng, n)
            assert det_bareiss(m) == det_laplace(m)

    def test_singular_needs_no_pivot(self):
        m = int_matrix([[0, 0, 0], [1, 2, 3], [4, 5, 6]])
        assert det_bareiss(m) == Integer(0)

    def test_row_swap_sign(self):
        m = int_matrix([[0, 1], [1, 0]])
        assert det_bareiss(m) == Integer(-1)

    def test_polynomial_ring_rejected(self):
        m = DenseMatrix(((Poly.variable(),),))
        with pytest.raises(TypeError):
            det_bareiss(m)


# the verify workload's integer (a, b): a in -2..1, b - a in +-1..4
VERIFY_INT_PAIRS = [(a, a + g) for a in range(-2, 2) for g in (1, 2, 3, 4, -1, -2, -3, -4)]


def fraction_det(m):
    """det m by Gaussian elimination over the rationals: the test's own
    reference, sharing no code with the fraction-free elimination."""
    rows = [[Fraction(e.value) for e in row] for row in m.rows]
    n, det = m.n, Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return Integer(0)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    assert det.denominator == 1
    return Integer(det.numerator)


class TestSparseBareiss:
    """The differenced, lazy-row elimination against the closed form on
    band matrices and against a rational elimination on matrices with no
    structure."""

    # all 32 pairs at every small order; above it 4 pairs per shape,
    # rotating so each order still meets all 32 across its 15 shapes
    @pytest.mark.parametrize("n", [*range(1, 25), 31, 32, 47, 64, 100, 127, 160])
    def test_matches_the_closed_form(self, n):
        shapes = [(k, l) for k in range(1, 6) for l in range(1, 4)]
        for s, (k, l) in enumerate(shapes):
            pairs = VERIFY_INT_PAIRS if n <= 24 else VERIFY_INT_PAIRS[s % 8 :: 8]
            for a, b in pairs:
                spec = BandSpec(n, k, l, a, b)
                assert det_bareiss(materialize(spec)) == det_closed(spec), spec

    @pytest.mark.parametrize("lo, hi", [(-9, 9), (0, 1)], ids=["dense", "zero-one"])
    def test_matches_a_rational_elimination(self, lo, hi):
        rng = random.Random(f"{lo}..{hi}")
        for n in [*range(1, 13), 16, 20, 27, 33, 40]:
            for _ in range(3):
                m = random_int_matrix(rng, n, lo, hi)
                assert det_bareiss(m) == fraction_det(m), m

    def test_every_division_is_checked(self, monkeypatch):
        # k, l >= 2: the differenced diagonal is 2b - b - b = 0, so step 0
        # pivots on a row other than row 0, and a row first reached at
        # step k > 0 divides by 1
        spec = BandSpec(40, 3, 2, -1, 2)
        m, want = materialize(spec), det_closed(spec)
        real = oracle._exact_div
        divisors = []

        def recording(x, d):
            divisors.append(d)
            return real(x, d)

        monkeypatch.setattr(oracle, "_exact_div", recording)
        assert det_bareiss(m) == want
        # far fewer than the n(n-1)(2n-1)/6 = 20,540 of a dense elimination
        assert 0 < len(divisors) < 1000
        # a row untouched since step 0 caught up after a pivot other than +-1
        first_big = next(i for i, d in enumerate(divisors) if abs(d) > 1)
        assert 1 in divisors[first_big:]
        # no division bypasses it: a quotient off by one fails a later check
        monkeypatch.setattr(oracle, "_exact_div", lambda x, d: real(x, d) + (d != 1))
        with pytest.raises(InexactDivisionError):
            det_bareiss(m)
        assert "//" not in inspect.getsource(det_bareiss)
        assert "divmod" not in inspect.getsource(det_bareiss)


class TestBareissBookkeeping:
    """Matrices that stress the run boundaries, the column buckets and the
    pivot order of the elimination, each against the rational one."""

    def test_signed_permutation_times_diagonal(self):
        # the pivot order is the permutation's, so it carries the sign
        rng = random.Random("signed permutations")
        for n in [*range(1, 13), 16, 23, 31, 40]:
            for _ in range(4):
                perm = rng.sample(range(n), n)
                rows = [[0] * n for _ in range(n)]
                for i, j in enumerate(perm):
                    rows[i][j] = rng.choice((-1, 1)) * rng.randint(1, 9)
                m = int_matrix(rows)
                assert det_bareiss(m) == fraction_det(m) != Integer(0), rows

    def test_singular(self):
        rng = random.Random("singular")
        for n in [*range(3, 13), 20, 33]:
            base = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            i, j = rng.sample(range(n), 2)
            repeated = [row[:] for row in base]
            repeated[i] = repeated[j][:]
            zero_row = [row[:] for row in base]
            zero_row[i] = [0] * n
            zero_col = [row[:i] + [0] + row[i + 1 :] for row in base]
            # rank n - 2: n - 2 rows, and two combinations of them put among them
            low_rank = base[: n - 2]
            for _ in range(2):
                cs = [rng.randint(-2, 2) for _ in range(n - 2)]
                combination = [sum(map(operator.mul, cs, col)) for col in zip(*base[: n - 2])]
                low_rank.insert(rng.randint(0, len(low_rank)), combination)
            for rows in (repeated, zero_row, zero_col, low_rank):
                m = int_matrix(rows)
                assert det_bareiss(m) == fraction_det(m) == Integer(0), rows

    def test_last_entry_nonzero_or_zero(self):
        # rows (0,)*s + (v,)*(t-s) + (0,)*(n-t): a run ends at the last
        # column exactly when t = n, where only the zero column past the
        # edge tells it apart
        rng = random.Random("sentinel")
        for n in [*range(1, 16), 24, 40]:
            for _ in range(6):
                rows = []
                for _ in range(n):
                    s = rng.randint(0, n - 1)
                    t = n if rng.random() < 0.6 else rng.randint(s + 1, n)
                    rows.append([0] * s + [rng.choice((-3, -1, 1, 2, 5))] * (t - s) + [0] * (n - t))
                m = int_matrix(rows)
                assert det_bareiss(m) == fraction_det(m), rows
        # all-constant rows: each differences to its last column alone
        m = int_matrix([[0] * i + [i + 1] * (4 - i) for i in range(4)])
        assert det_bareiss(m) == Integer(24)

    def test_equal_big_entries_are_distinct_objects(self):
        # a separate Integer per entry, so every column is a cut by identity
        # and only the values tell runs apart (plain ints would be wrapped
        # once per value)
        big = 10**40 + 7
        for n, k, l in ((9, 3, 2), (17, 4, 1), (25, 2, 2)):
            spec = BandSpec(n, k, l, -big, 2 * big)
            rows = [[Integer(int(str(e.value))) for e in row] for row in materialize(spec).rows]
            m = int_matrix(rows)
            assert m[0][0] is not m[1][1] and m[0][0].value is not m[1][1].value
            assert det_bareiss(m) == fraction_det(m) == det_closed(spec), spec

    def test_toeplitz_with_a_random_symbol(self):
        # every row the row above moved right, with a new column 0: the cuts
        # come from the shift rule, from the rows above, all the way down
        rng = random.Random("toeplitz")
        for n in [*range(1, 16), 24, 40]:
            for pool in ((0, 1), (-2, 0, 3), (0, 0, 0, 5, -10**30), tuple(range(-9, 10))):
                symbol = [rng.choice(pool) for _ in range(2 * n - 1)]
                m = int_matrix([[symbol[n - 1 + j - i] for j in range(n)] for i in range(n)])
                assert all(m[i][1:] == m[i - 1][:-1] for i in range(1, n))
                assert det_bareiss(m) == fraction_det(m), symbol

    def test_shifted_rows_with_any_column_0(self):
        # each row is the row above moved right, with column 0 equal to its
        # neighbour (no cut there) or not, and now and then a fresh row that
        # the next rows shift from
        rng = random.Random("column 0")
        for n in [*range(2, 16), 31]:
            for _ in range(8):
                rows = [[rng.randint(-2, 2) for _ in range(n)]]
                for _ in range(n - 1):
                    above = rows[-1]
                    if rng.random() < 0.15:
                        rows.append([rng.randint(-2, 2) for _ in range(n)])
                    else:
                        first = above[0] if rng.random() < 0.5 else rng.choice((-3, 4))
                        rows.append([first, *above[:-1]])
                m = int_matrix(rows)
                assert det_bareiss(m) == fraction_det(m), rows

    def test_shifted_rows_ending_in_a_nonzero(self):
        # the step at the last column is a_i(n-1) - 0, against the zero
        # column past the edge; no row above can pass it down by a shift
        for n in range(1, 30):
            for v in (1, -2, 7):
                # v on and above the diagonal: row 0 has no cut but the last column
                upper = int_matrix([[v if j >= i else 0 for j in range(n)] for i in range(n)])
                assert det_bareiss(upper) == fraction_det(upper) == Integer(v**n)
                # the symbol d + v on offsets d >= 0 and 1 on offset -1: every row ends in a nonzero
                hessenberg = int_matrix([[j - i + v if j >= i else int(j == i - 1) for j in range(n)] for i in range(n)])
                assert det_bareiss(hessenberg) == fraction_det(hessenberg), (n, v)

    def test_orders_1_and_2(self):
        values = (-2, -1, 0, 1, 3, 10**25)
        for x in values:
            assert det_bareiss(int_matrix([[x]])) == Integer(x)
            assert det_bareiss(int_matrix([[Integer(x)]])) == Integer(x)
        for a in values:
            for b in values:
                for c in values:
                    for d in values:
                        want = Integer(a * d - b * c)
                        assert det_bareiss(int_matrix([[a, b], [c, d]])) == want, (a, b, c, d)
                # equal entries as distinct objects, and as one
                x, y = Integer(a), Integer(int(str(a)))
                for rows in ([[x, y], [y, x]], [[x, x], [x, Integer(b)]], [[Integer(b), x], [y, x]]):
                    assert det_bareiss(int_matrix(rows)) == fraction_det(int_matrix(rows)), rows


class TestPermanentRyser:
    def test_2x2_all_ones(self):
        assert permanent_ryser(int_matrix([[1, 1], [1, 1]])) == Integer(2)

    def test_menage_a5(self):
        m = materialize(BandSpec(5, 2, 1, 1, 0))
        assert permanent_ryser(m) == Integer(16)

    def test_c4_is_the_eulerian_polynomial(self):
        c4 = materialize(BandSpec(4, 4, 1, Poly.constant(1), Poly.variable()))
        assert permanent_ryser(c4) == Poly((0, 1, 11, 11, 1))

    def test_guard(self):
        m = int_matrix([[1] * 21 for _ in range(21)])
        with pytest.raises(SizeLimitError):
            permanent_ryser(m)

    def test_poly_guard_is_tighter(self, monkeypatch):
        monkeypatch.setenv("BANDDET_LIMIT_RYSER_POLY", "3")
        c4 = materialize(BandSpec(4, 4, 1, Poly.constant(1), Poly.variable()))
        with pytest.raises(SizeLimitError):
            permanent_ryser(c4)


class TestPermanentExpansion:
    def test_1x1(self):
        m = DenseMatrix(((Poly.variable(),),))
        assert permanent_expansion(m) == Poly.variable()

    def test_menage_b4(self):
        m = materialize(BandSpec(4, 2, 2, 1, 0))
        assert permanent_expansion(m) == Integer(1)

    def test_agrees_with_ryser_on_random_01(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(1, 5)
            m = int_matrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
            assert permanent_expansion(m) == permanent_ryser(m)

    def test_agrees_with_ryser_up_to_7(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 7)
            m = random_int_matrix(rng, n, -3, 3)
            assert permanent_expansion(m) == permanent_ryser(m)

    def test_agrees_with_ryser_at_8(self):
        m = random_int_matrix(random.Random(8), 8, -3, 3)
        assert permanent_expansion(m) == permanent_ryser(m)

    def test_agrees_with_ryser_on_poly(self):
        rng = random.Random(5)
        for n in range(1, 8):
            for _ in range(4):
                rows = [[Poly(tuple(rng.randint(-3, 3) for _ in range(3))) for _ in range(n)] for _ in range(n)]
                m = DenseMatrix(rows)
                assert permanent_expansion(m) == permanent_ryser(m), m
            for k, l in VERIFY_SHAPES:
                m = materialize(BandSpec(n, k, l, *rng.choice(POLY_PAIRS)))
                assert permanent_expansion(m) == permanent_ryser(m), (n, k, l)

    def test_agrees_with_ryser_on_the_named_families(self):
        from banddet import excedance_matrix, menage_a_matrix, menage_b_matrix

        for n in range(1, 8):
            for mk in (menage_a_matrix, menage_b_matrix):
                m = mk(n).to_dense()
                assert permanent_expansion(m) == permanent_ryser(m)
            c = excedance_matrix(n)
            assert permanent_expansion(c) == permanent_ryser(c)

    def test_guard(self):
        m = int_matrix([[1] * 10 for _ in range(10)])
        with pytest.raises(SizeLimitError):
            permanent_expansion(m)


class TestInvariants:
    def test_equal_rows_kill_the_determinant(self):
        m = int_matrix([[1, 2, 3], [1, 2, 3], [4, 5, 6]])
        assert det_laplace(m) == Integer(0)
        assert det_bareiss(m) == Integer(0)

    def test_permanent_invariant_under_row_and_column_permutation(self):
        rng = random.Random(42)
        m = random_int_matrix(rng, 5, 0, 3)
        base = permanent_ryser(m)
        rows = list(m.rows)
        rng.shuffle(rows)
        cols = list(range(5))
        rng.shuffle(cols)
        shuffled = DenseMatrix(tuple(tuple(row[c] for c in cols) for row in rows))
        assert permanent_ryser(shuffled) == base

    def test_scaling_one_row_scales_det_and_per(self):
        rng = random.Random(11)
        m = random_int_matrix(rng, 4)
        c = 3
        scaled_rows = list(m.rows)
        scaled_rows[2] = tuple(e * c for e in scaled_rows[2])
        scaled = DenseMatrix(tuple(scaled_rows))
        assert det_laplace(scaled) == det_laplace(m) * c
        assert permanent_ryser(scaled) == permanent_ryser(m) * c


class TestDenseMatrix:
    def test_plain_ints_become_integer(self):
        plain = DenseMatrix(((1, 2), (3, 4)))
        wrapped = DenseMatrix(((Integer(1), Integer(2)), (Integer(3), Integer(4))))
        assert plain == wrapped
        oracles = {det_laplace: -2, det_bareiss: -2, permanent_ryser: 10, permanent_expansion: 10}
        for run, want in oracles.items():
            assert run(plain) == run(wrapped) == Integer(want), run.__name__

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="^matrix must be square$"):
            DenseMatrix([[1, 2], [3]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DenseMatrix(())

    def test_rejects_mixed_rings(self):
        with pytest.raises(MixedRingError):
            DenseMatrix(((Integer(1), Poly.variable()), (Integer(0), Integer(1))))

    def test_plain_ints_share_one_integer_per_value(self):
        big = 10**30 + 1
        rows = [[1, 0, big], [int(str(big)), 1, 0], [0, int(str(big)), 1]]
        assert rows[0][2] is not rows[1][0]
        m = DenseMatrix(rows)
        assert m[0][2] is m[1][0] is m[2][1] == Integer(big)
        assert m[0][0] is m[1][1] is m[2][2] and m[0][1] is m[1][2] is m[2][0]
        assert len({id(e) for row in m.rows for e in row}) == 3

    def test_refuses_what_is_not_exactly_an_int(self):
        class Sub(int):
            pass

        for odd in (True, 1.0, Sub(1)):
            with pytest.raises(TypeError, match="^Integer wraps a Python int$"):
                DenseMatrix([[1, odd], [0, 1]])
            with pytest.raises(TypeError, match="^Integer wraps a Python int$"):
                DenseMatrix([[odd, odd], [odd, odd]])

    def test_integers_and_ints_mix(self):
        m = DenseMatrix([[Integer(2), 1], [0, Integer(3)]])
        assert m == DenseMatrix([[2, 1], [0, 3]])
        assert det_bareiss(m) == Integer(6)
