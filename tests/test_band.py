import copy
import pickle

import pytest

from banddet import (
    BandSpec,
    DenseMatrix,
    DivisibilityError,
    InexactDivisionError,
    Integer,
    MixedRingError,
    Poly,
    all_b_row_count,
    band_rows,
    bordered_matrix,
    det_bareiss,
    det_case1,
    det_case2,
    det_closed,
    det_factored,
    det_laplace,
    det_recurrence,
    entry,
    f_closed,
    g_closed,
    materialize,
    residue,
    spec_from_json,
    spec_to_json,
)
from banddet import band
from banddet.checks import AB_PAIRS

AB_GRID = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if a != b]


class TestBandSpec:
    def test_rejects_equal_values(self):
        with pytest.raises(ValueError):
            BandSpec(4, 2, 1, 3, 3)

    def test_rejects_mixed_rings(self):
        with pytest.raises(MixedRingError):
            BandSpec(4, 2, 1, Integer(1), Poly.variable())

    def test_k_beyond_n_gives_the_k_equals_n_determinant(self):
        # the window saturates at the matrix edge: the same matrix as k = n
        for a, b in AB_GRID:
            assert det_closed(BandSpec(3, 4, 1, a, b)) == det_closed(BandSpec(3, 3, 1, a, b))
            assert materialize(BandSpec(3, 4, 1, a, b)) == materialize(BandSpec(3, 3, 1, a, b))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BandSpec(0, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            BandSpec(3, 2, 0, 1, 0)

    def test_normalizes_l_greater_than_k(self):
        spec = BandSpec(5, 1, 3, 1, 0)
        assert (spec.k, spec.l) == (3, 1)

    def test_normalization_preserves_the_determinant(self):
        for a, b in ((1, 0), (2, 5)):
            swapped = BandSpec(6, 2, 3, a, b)
            straight = BandSpec(6, 3, 2, a, b)
            assert det_closed(swapped) == det_closed(straight)
            # materialized matrices are transposes of one another
            transposed = DenseMatrix(zip(*materialize(straight).rows))
            assert det_laplace(transposed) == det_closed(swapped)

    def test_json_round_trip(self):
        spec = BandSpec(7, 3, 2, -4, 9)
        assert spec_from_json(spec_to_json(spec)) == spec
        pspec = BandSpec(4, 4, 1, Poly.constant(1), Poly.variable())
        assert spec_from_json(spec_to_json(pspec)) == pspec


class TestEntry:
    def test_main_diagonal_is_in_band(self):
        spec = BandSpec(4, 2, 1, 1, 0)
        assert entry(spec, 1, 1) == Integer(0)

    def test_beyond_upper_width(self):
        spec = BandSpec(4, 2, 1, 1, 0)
        assert entry(spec, 1, 3) == Integer(1)

    def test_lower_band(self):
        spec = BandSpec(5, 2, 2, 1, 0)
        assert entry(spec, 3, 2) == Integer(0)

    def test_out_of_range(self):
        spec = BandSpec(4, 2, 1, 1, 0)
        with pytest.raises(IndexError):
            entry(spec, 0, 1)
        with pytest.raises(IndexError):
            entry(spec, 1, 5)


class TestMaterialize:
    def test_is_the_checked_matrix_of_the_spec_entries(self):
        # built unchecked, it equals what DenseMatrix builds from the same
        # rows, and every entry is spec.a or spec.b itself
        pairs = [(-1, 2), (Poly((1, 1)), Poly((0, -1)))]
        for n in (1, 2, 3, 5, 8, 13):
            for k in range(1, 7):
                for l in range(1, 7):
                    for a, b in pairs:
                        spec = BandSpec(n, k, l, a, b)
                        m = materialize(spec)
                        assert m == DenseMatrix(band_rows(n, spec.k, spec.l, spec.b, spec.a)), spec
                        assert all(e is spec.a or e is spec.b for row in m.rows for e in row), spec
                        assert all(type(row) is tuple for row in m.rows)

    def test_all_b_upper_triangle(self):
        a, b = Integer(7), Integer(9)
        m = materialize(BandSpec(3, 3, 1, a, b))
        assert m.rows == ((b, b, b), (a, b, b), (a, a, b))

    def test_order_one(self):
        m = materialize(BandSpec(1, 1, 1, 5, 0))
        assert m.rows == ((Integer(0),),)

    def test_zero_tridiagonal(self):
        m = materialize(BandSpec(4, 2, 2, 1, 0))
        bits = tuple(tuple(e.value for e in row) for row in m.rows)
        assert bits == (
            (0, 0, 1, 1),
            (0, 0, 0, 1),
            (1, 0, 0, 0),
            (1, 1, 0, 0),
        )

    def test_toeplitz(self):
        m = materialize(BandSpec(6, 3, 2, 2, 5))
        for i in range(5):
            for j in range(5):
                assert m[i][j] == m[i + 1][j + 1]

    def test_persymmetric(self):
        for n, k, l in ((5, 2, 1), (6, 3, 2), (7, 4, 4), (4, 2, 2)):
            m = materialize(BandSpec(n, k, l, 1, 0))
            for i in range(n):
                for j in range(n):
                    assert m[i][j] == m[n - 1 - j][n - 1 - i]

    def test_matches_entry(self):
        spec = BandSpec(5, 3, 2, -1, 4)
        m = materialize(spec)
        for i in range(1, 6):
            for j in range(1, 6):
                assert m[i - 1][j - 1] == entry(spec, i, j)


# the matrix materialize keeps as its strip, against the DenseMatrix of its rows
STRIP_PAIRS = [(-1, 2), (0, 1), (3, -2), (Poly((1, 1)), Poly((0, -1)))]


class TestStripMatrix:
    def test_equals_and_hashes_as_the_dense_matrix_of_its_rows(self):
        for n in (1, 2, 3, 7, 12):
            for k, l in ((1, 1), (2, 1), (3, 2), (n + 2, n + 5)):
                for a, b in STRIP_PAIRS:
                    m = materialize(BandSpec(n, k, l, a, b))
                    dense = DenseMatrix(m.rows)
                    assert m == dense and dense == m and not m != dense
                    assert hash(m) == hash(dense)
                    assert repr(m) == repr(dense)
                    assert len({m, dense}) == 1
        # a different matrix of the same order is not equal
        m = materialize(BandSpec(5, 2, 1, 0, 1))
        assert m != materialize(BandSpec(5, 2, 2, 0, 1))
        assert m != DenseMatrix(materialize(BandSpec(5, 2, 1, 1, 0)).rows)
        assert m != m.rows and m != materialize(BandSpec(4, 2, 1, 0, 1))

    def test_copy_and_pickle_round_trips(self):
        for a, b in STRIP_PAIRS:
            for n in (1, 2, 9):
                m = materialize(BandSpec(n, 3, 2, a, b))
                for other in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
                    assert other == m and hash(other) == hash(m)
                    assert other == DenseMatrix(m.rows)
                    assert other.n == n and other.is_integer() == m.is_integer()
                    # equal entries stay one object, and the strip stays a strip
                    assert len({id(e) for row in other.rows for e in row}) <= 2
                    assert type(other) is type(m)

    def test_rows_n_and_is_integer(self):
        for n in range(1, 12):
            for a, b in STRIP_PAIRS:
                spec = BandSpec(n, 3, 2, a, b)
                m = materialize(spec)
                rows = band_rows(n, spec.k, spec.l, spec.b, spec.a)
                assert m.n == n and len(m.rows) == n
                assert m.is_integer() == isinstance(spec.a, Integer)
                assert m.rows == rows
                for i in range(-n, n):
                    assert m[i] == rows[i] and type(m[i]) is tuple
                assert m[1:3] == rows[1:3] and m[::-1] == rows[::-1]
                for i in (n, -n - 1):
                    with pytest.raises(IndexError):
                        m[i]
                # iterating stops at the first index past the last row
                assert tuple(m) == rows
        one = materialize(BandSpec(1, 1, 1, 5, 0))
        assert one.n == 1 and one.is_integer() and one[0] == (Integer(0),) and one[-1] == (Integer(0),)
        assert not materialize(BandSpec(1, 1, 1, Poly((1,)), Poly((0, 1)))).is_integer()

    def test_bareiss_sweep(self):
        # every band shape l <= k <= 6 up to order 40: the strip's cuts, the
        # rows' cuts and the closed form agree
        for n in range(1, 41):
            for k in range(1, 7):
                for l in range(1, k + 1):
                    for a, b in ((-1, 2), (0, 1), (2, -3), (1, 5)):
                        spec = BandSpec(n, k, l, a, b)
                        m = materialize(spec)
                        want = det_closed(spec)
                        assert det_bareiss(m) == det_bareiss(DenseMatrix(m.rows)) == want, spec


class TestResidue:
    def test_case1(self):
        r = residue(BandSpec(4, 2, 1, 1, 0))
        assert (r.p, r.quotient, r.case) == (2, 1, 1)

    def test_case2(self):
        r = residue(BandSpec(4, 2, 2, 1, 0))
        assert (r.p, r.quotient, r.case) == (1, 1, 2)

    def test_case2_zero_residue(self):
        r = residue(BandSpec(6, 2, 2, 1, 0))
        assert (r.p, r.quotient, r.case) == (0, 2, 2)

    def test_case1_excludes_zero(self):
        r = residue(BandSpec(6, 3, 1, 1, 0))
        assert (r.p, r.quotient) == (3, 1)


class TestDetCase1:
    def test_menage_a4(self):
        assert det_case1(4, 2, 1, 0) == Integer(-1)

    def test_all_b_reduces_to_g(self):
        for n in range(1, 7):
            assert det_case1(n, n, 2, 5) == g_closed(n, 2, 5)

    def test_menage_a7(self):
        assert det_case1(7, 2, 1, 0) == Integer(3)

    def test_window_wider_than_the_matrix(self):
        # k > n gives the same matrix as k = n, so the same determinant
        assert det_case1(1, 2, 1, 0) == Integer(0)
        for n in range(1, 6):
            assert det_case1(n, n + 3, 2, 5) == g_closed(n, 2, 5)

    def test_polynomial_ring(self):
        one, var = Poly.constant(1), Poly.variable()
        got = det_case1(4, 4, one, var)
        assert got == (Poly((-1, 1)) ** 3) * var


class TestDetCase2:
    def test_menage_b4(self):
        assert det_case2(4, 2, 2, 1, 0) == Integer(1)

    def test_zero_residue_case_is_zero(self):
        assert det_case2(5, 2, 2, 1, 0) == Integer(0)

    def test_menage_b6(self):
        assert det_case2(6, 2, 2, 1, 0) == Integer(-1)

    def test_requires_l_above_one(self):
        with pytest.raises(ValueError):
            det_case2(5, 2, 1, 1, 0)


class TestDetClosed:
    def test_menage_a10(self):
        assert det_closed(BandSpec(10, 2, 1, 1, 0)) == Integer(-4)

    def test_menage_b10(self):
        assert det_closed(BandSpec(10, 2, 2, 1, 0)) == Integer(3)

    def test_small_laplace_cross_check(self):
        spec = BandSpec(3, 3, 1, 7, 9)
        want = det_laplace(materialize(spec))
        assert want == Integer(36)
        assert det_closed(spec) == want

    def test_exhaustive_small_grid(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                for l in range(1, k + 1):
                    for a, b in AB_GRID:
                        spec = BandSpec(n, k, l, a, b)
                        assert det_closed(spec) == det_laplace(materialize(spec)), (
                            n, k, l, a, b,
                        )

    def test_zero_case_has_identical_rows_in_the_trailing_block(self):
        for n in range(2, 9):
            for k in range(2, n + 1):
                for l in range(2, k + 1):
                    w = k + l - 1
                    p = n % w
                    if not 1 < p < w:
                        continue
                    spec = BandSpec(n, k, l, 1, 0)
                    assert det_closed(spec) == Integer(0)
                    m = materialize(spec)
                    block = [tuple(m[i][n - p :]) for i in range(n - p, n)]
                    assert len(set(block)) < p

    def test_polynomial_evaluation_commutes(self):
        # determinant over Z[b] at b=v equals the determinant computed with b=v
        one, var = Poly.constant(1), Poly.variable()
        for n, k, l in ((5, 2, 1), (6, 3, 2), (7, 4, 3)):
            generic = det_closed(BandSpec(n, k, l, one, var))
            for v in (-3, -2, 0, 2, 3):
                concrete = det_closed(BandSpec(n, k, l, 1, v))
                assert generic.evaluate(v) == concrete.value


class TestFactored:
    def test_display_all_b_zero_tail(self):
        f = det_factored(BandSpec(5, 5, 1, 1, 0))
        assert str(f) == "(-1)^4 * 0"
        assert f.expand() == Integer(0)

    def test_display_with_sign(self):
        f = det_factored(BandSpec(10, 2, 2, 1, 0))
        assert f.sign == -1
        assert str(f) == "-1 * (-1)^9 * 3"
        assert f.expand() == Integer(3)

    def test_polynomial_display(self):
        f = det_factored(BandSpec(4, 4, 1, Poly.constant(1), Poly.variable()))
        assert str(f) == "(b - 1)^3 * b"

    def test_expand_matches_closed(self):
        for n, k, l in ((9, 4, 1), (9, 3, 2), (12, 5, 3)):
            spec = BandSpec(n, k, l, 2, -1)
            assert det_factored(spec).expand() == det_closed(spec)


class TestFClosed:
    def test_order_one_is_a(self):
        assert f_closed(1, 5, 2) == Integer(5)

    def test_3x3(self):
        assert f_closed(3, 2, 5) == Integer(18)
        assert det_laplace(bordered_matrix(3, 2, 2, 5)) == Integer(18)

    def test_4x4_binary(self):
        assert f_closed(4, 1, 0) == Integer(-1)
        assert det_laplace(bordered_matrix(4, 2, 1, 0)) == Integer(-1)

    def test_value_independent_of_width(self):
        for n in range(2, 8):
            want = f_closed(n, 2, 5)
            for k in range(1, n):
                assert det_laplace(bordered_matrix(n, k, 2, 5)) == want


class TestBorderedMatrix:
    def test_block_is_the_materialized_band(self):
        for n in range(2, 8):
            for k in range(1, n):
                for a, b in ((2, 5), (1, 0), (Poly.constant(1), Poly.variable())):
                    spec = BandSpec(n - 1, k, 1, a, b)
                    block = materialize(spec).rows
                    want = tuple(row + (spec.a,) for row in block) + ((spec.a,) * n,)
                    assert bordered_matrix(n, k, a, b).rows == want, (n, k)

    def test_order_one(self):
        assert bordered_matrix(1, 1, 3, 4).rows == ((Integer(3),),)

    def test_any_width_at_every_order(self):
        # the block's window saturates, and f_closed does not depend on k
        for n in range(1, 8):
            for k in range(1, n + 4):
                assert det_laplace(bordered_matrix(n, k, 2, 5)) == f_closed(n, 2, 5), (n, k)

    def test_rejects_mixed_rings(self):
        # the matrix refuses what f_closed, its determinant, refuses
        with pytest.raises(MixedRingError):
            bordered_matrix(3, 1, 1, Poly.variable())
        with pytest.raises(MixedRingError):
            f_closed(3, 1, Poly.variable())


def three_run_rows(n, k, l, inside, outside):
    """The rows as three runs each, straight from the window -l < j-i < k:
    the construction band_rows is checked against."""
    rows = []
    for i in range(n):
        lo, hi = max(i - l + 1, 0), min(i + k, n)
        rows.append((outside,) * lo + (inside,) * (hi - lo) + (outside,) * (n - hi))
    return tuple(rows)


class TestBandRows:
    def test_window_wider_than_the_matrix_saturates(self):
        assert band_rows(1, 2, 1, "b", "a") == (("b",),)
        assert band_rows(2, 5, 5, "b", "a") == (("b", "b"), ("b", "b"))
        assert band_rows(3, 4, 1, "b", "a") == (
            ("b", "b", "b"),
            ("a", "b", "b"),
            ("a", "a", "b"),
        )

    def test_matches_three_runs(self):
        # k and l each run over 1..35, so both width orders are met
        for n in range(1, 31):
            for k in range(1, 36):
                for l in range(1, 36):
                    assert band_rows(n, k, l, "b", "a") == three_run_rows(n, k, l, "b", "a"), (n, k, l)

    def test_huge_widths_build_no_huge_strip(self):
        m = materialize(BandSpec(5, 10**9, 10**9, 1, 0))
        assert m.rows == ((Integer(0),) * 5,) * 5


class TestGClosed:
    def test_order_one_is_b(self):
        assert g_closed(1, 5, 2) == Integer(2)

    def test_binary(self):
        assert g_closed(4, 1, 0) == Integer(0)

    def test_3x3(self):
        assert g_closed(3, 2, 5) == Integer(45)
        assert det_laplace(materialize(BandSpec(3, 3, 1, 2, 5))) == Integer(45)


class TestDetRecurrence:
    def test_menage_a4(self):
        assert det_recurrence(4, 2, 1, 0) == Integer(-1)

    def test_wide_band_branch(self):
        assert det_recurrence(5, 3, 1, 0) == Integer(1)

    def test_menage_a9(self):
        assert det_recurrence(9, 2, 1, 0) == Integer(4)

    def test_path_equivalence(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                for a, b in ((1, 0), (0, 1), (2, 5), (-1, 2)):
                    assert det_recurrence(n, k, a, b) == det_case1(n, k, a, b), (
                        n, k, a, b,
                    )

    def test_polynomial_ring(self):
        one, var = Poly.constant(1), Poly.variable()
        assert det_recurrence(6, 2, one, var) == det_case1(6, 2, one, var)

    # a constant gap b - a = -2 and a degree-1 gap b - a = 2b - 1
    POLY_PAIRS = [(Poly((0, 1)), Poly((-2, 1))), (Poly.constant(1), Poly((0, 2)))]

    @pytest.mark.parametrize("n", range(1, 61))
    def test_matches_case1_every_width(self, n):
        # k up to n + 3: k >= n starts at order n with no step, k < n takes the powered steps
        for k in range(1, n + 4):
            for a, b in AB_PAIRS + self.POLY_PAIRS:
                assert det_recurrence(n, k, a, b) == det_case1(n, k, a, b), (n, k, a, b)

    @pytest.mark.parametrize("n", [1000, 4096, 4097, 20000])
    def test_matches_closed_form_at_large_orders(self, n):
        # the step counts j = (n - k - 1) // k here have runs of ones, runs of
        # zeros and both parities, so every branch of the bit walk is taken
        for k in range(2, 6):
            for a, b in ((1, 4), (-2, 1), (3, 2)):
                want = det_closed(BandSpec(n, k, 1, a, b))
                assert det_recurrence(n, k, a, b) == want, (n, k, a, b)

    def test_logarithmic_ring_products(self, monkeypatch):
        # unrolling one step at a time makes about 3n/k = 30,000 products here
        products = []
        real = Integer.__mul__

        def counting(self, other):
            products.append(None)
            return real(self, other)

        monkeypatch.setattr(Integer, "__mul__", counting)
        got = det_recurrence(20000, 2, 1, 4)
        monkeypatch.undo()
        assert got == det_closed(BandSpec(20000, 2, 1, 1, 4))
        assert len(products) <= 4 * (20000).bit_length() + 10

    def test_independent_of_the_closed_form(self, monkeypatch):
        # k >= n included: the all-b start order reads no closed form either
        shapes = [(n, k) for n in (1, 2, 3, 7, 12, 40) for k in range(1, n + 3)]
        pairs = [(1, 0), (-2, 1)] + self.POLY_PAIRS
        want = {(n, k, i): det_case1(n, k, *pairs[i]) for n, k in shapes for i in range(len(pairs))}

        def refuse(*args):
            raise AssertionError("det_recurrence read the closed form")

        for name in ("_residue", "_factored", "det_case1", "f_closed", "g_closed"):
            monkeypatch.setattr(band, name, refuse)
        for (n, k, i), value in want.items():
            assert det_recurrence(n, k, *pairs[i]) == value, (n, k, pairs[i])


class TestAllBRowCount:
    def test_examples(self):
        assert all_b_row_count(BandSpec(4, 2, 2, 1, 0)) == 0
        assert all_b_row_count(BandSpec(3, 3, 2, 1, 0)) == 2
        for n in range(1, 6):
            assert all_b_row_count(BandSpec(n, n, 1, 1, 0)) == 1

    def test_against_scan(self):
        for n in range(1, 11):
            for k in range(1, n + 1):
                for l in range(1, k + 1):
                    spec = BandSpec(n, k, l, 1, 0)
                    m = materialize(spec)
                    scanned = sum(
                        1 for row in m.rows if all(e == spec.b for e in row)
                    )
                    assert all_b_row_count(spec) == scanned


# a few integer pairs and one polynomial pair for the sweep of every shape
SWEEP_PAIRS = [AB_PAIRS[i] for i in (0, 7, 12, 19)] + [(Poly.constant(1), Poly.variable())]


@pytest.mark.parametrize("n", range(1, 9))
def test_every_width_in_either_order_matches_laplace(n):
    # widths up to n + 3 in both orders: beyond n the window saturates, and
    # every closed form still gives the determinant of the matrix drawn
    for k in range(1, n + 4):
        for l in range(1, n + 4):
            for a, b in SWEEP_PAIRS:
                want = det_laplace(DenseMatrix(band_rows(n, k, l, b, a)))
                spec = BandSpec(n, k, l, a, b)
                assert det_closed(spec) == want, (n, k, l, a, b)
                if l == 1:
                    assert det_case1(n, k, a, b) == want, (n, k, a, b)
                    assert det_recurrence(n, k, a, b) == want, (n, k, a, b)
                elif k > 1:
                    assert det_case2(n, k, l, a, b) == want, (n, k, l, a, b)
            rows = materialize(spec).rows
            scanned = sum(all(e == spec.b for e in row) for row in rows)
            assert all_b_row_count(spec) == scanned, (n, k, l)


def test_divisibility_guard_is_wired():
    from banddet.oracle import _exact_div

    with pytest.raises(DivisibilityError):
        _exact_div(7, 3)
    assert _exact_div(-6, 3) == -2


def test_divisibility_error_is_inexact_division():
    assert DivisibilityError is InexactDivisionError
