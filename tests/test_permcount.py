import operator
import random
from fractions import Fraction
from functools import partial
from itertools import permutations, product
from math import comb, factorial

import pytest

from banddet import (
    BandSpec,
    CharMatrix,
    DenseMatrix,
    ExcedanceCensus,
    InexactDivisionError,
    InvalidPermutationError,
    ParityCount,
    ParityError,
    Poly,
    SizeLimitError,
    brute_force_excedance_census,
    brute_force_parity,
    det_bareiss,
    det_case1,
    det_case2,
    det_laplace,
    excedance_census,
    excedance_matrix,
    family_table,
    materialize,
    menage_a_det,
    menage_a_matrix,
    menage_a_permanent_rec,
    menage_a_permanent_sum,
    menage_b_det,
    menage_b_matrix,
    parity_counts,
    perm_sign,
    permanent_expansion,
    permanent_ryser,
    weak_excedance_class,
    weak_excedance_count,
)
from banddet import oracle, permcount
from banddet.band import band_rows, g_closed
from banddet.rings import RingElement

from reference_tables import (
    EXCEDANCE_K2,
    MENAGE_A,
    MENAGE_B,
    ORDER4_K2_EVEN,
    ORDER4_K2_ODD,
)


class TestCharMatrix:
    def test_validates_bits(self):
        with pytest.raises(ValueError):
            CharMatrix(((0, 2), (1, 0)))
        with pytest.raises(ValueError):
            CharMatrix(((0, 1),))

    def test_rows_are_normalized_to_tuples(self):
        lists = CharMatrix([[1, 0], [0, 1]])
        tuples = CharMatrix(((1, 0), (0, 1)))
        assert lists.bits == tuples.bits == ((1, 0), (0, 1))
        assert lists == tuples
        assert hash(lists) == hash(tuples)

    def test_to_dense(self):
        dense = menage_a_matrix(2).to_dense()
        assert det_bareiss(dense).value == 0

    def test_to_dense_keeps_the_strip_of_a_toeplitz_matrix(self):
        rng = random.Random("toeplitz")
        toeplitz = [
            tuple(tuple(strip[n - 1 - i + j] for j in range(n)) for i in range(n))
            for n in range(1, 13)
            for strip in (tuple(rng.randrange(2) for _ in range(2 * n - 1)) for _ in range(8))
        ]
        # each with its last entry of row n // 2 flipped: Toeplitz no more, except at n = 1
        flipped = [
            (*bits[: len(bits) // 2], (*row[:-1], 1 - row[-1]), *bits[len(bits) // 2 + 1 :])
            for bits in toeplitz
            for row in [bits[len(bits) // 2]]
        ]
        boards = [
            *_every_board(3),
            *(mk(n).bits for n in range(1, 21) for mk in (menage_a_matrix, menage_b_matrix)),
            *toeplitz,
            *flipped,
        ]
        strips = 0
        for bits in boards:
            A = CharMatrix(bits)
            dense, want = A.to_dense(), DenseMatrix(bits)
            assert dense == want and hash(dense) == hash(want) and repr(dense) == repr(want), bits
            is_toeplitz = all(bits[i][j] == bits[i + 1][j + 1] for i in range(A.n - 1) for j in range(A.n - 1))
            assert (type(dense) is oracle._Strip) == is_toeplitz, bits
            strips += is_toeplitz
        assert 0 < strips < len(boards)

    def test_seating_matrices_equal_the_checked_ones(self):
        # built without the 0/1 scan, they are what the checked constructor builds
        for n in range(1, 31):
            assert menage_a_matrix(n) == CharMatrix(band_rows(n, 2, 1, 0, 1))
            assert menage_b_matrix(n) == CharMatrix(band_rows(n, 2, 2, 0, 1))


class TestParityCount:
    def test_inconsistent_rejected(self):
        with pytest.raises(ParityError):
            ParityCount(2, 1, 4, 1)
        with pytest.raises(ParityError):
            ParityCount(-1, 1, 0, -2)
        with pytest.raises(ParityError):
            ParityCount.split(3, 0)

    def test_consistent(self):
        pc = ParityCount(3, 3, 6, 0)
        assert pc.permanent == 6
        assert ParityCount.split(6, 0) == pc


class TestPermSign:
    def test_identity_is_even(self):
        assert perm_sign(range(5)) == 1

    def test_transposition_is_odd(self):
        assert perm_sign((1, 0, 2)) == -1

    def test_four_cycle_is_odd(self):
        assert perm_sign((1, 2, 3, 0)) == -1

    def test_matches_inversion_count(self):
        from itertools import permutations, product

        for perm in permutations(range(5)):
            inv = sum(
                1
                for i in range(5)
                for j in range(i + 1, 5)
                if perm[i] > perm[j]
            )
            assert perm_sign(perm) == (1 if inv % 2 == 0 else -1)


class TestParityCounts:
    def test_menage_a4(self):
        pc = parity_counts(menage_a_matrix(4))
        assert (pc.even, pc.odd) == (1, 2)

    def test_menage_b7(self):
        pc = parity_counts(menage_b_matrix(7))
        assert (pc.even, pc.odd) == (104, 102)

    def test_all_ones_3x3(self):
        pc = parity_counts(CharMatrix(tuple((1, 1, 1) for _ in range(3))))
        assert (pc.even, pc.odd, pc.permanent, pc.determinant) == (3, 3, 6, 0)

    def test_matches_enumeration(self):
        for n in range(1, 8):
            for mk in (menage_a_matrix, menage_b_matrix):
                A = mk(n)
                assert parity_counts(A) == brute_force_parity(A)


class TestBruteForceParity:
    def test_menage_a4_class(self):
        pc = brute_force_parity(menage_a_matrix(4))
        assert (pc.even, pc.odd, pc.permanent) == (1, 2, 3)

    def test_menage_b5(self):
        pc = brute_force_parity(menage_b_matrix(5))
        assert (pc.even, pc.odd) == (2, 2)

    def test_empty_class(self):
        pc = brute_force_parity(CharMatrix(tuple((0, 0, 0) for _ in range(3))))
        assert (pc.even, pc.odd) == (0, 0)

    def test_guard(self):
        with pytest.raises(SizeLimitError):
            brute_force_parity(menage_a_matrix(11))


class TestMenageMatrices:
    def test_a2(self):
        assert menage_a_matrix(2).bits == ((0, 0), (1, 0))

    def test_a4_pattern(self):
        bits = menage_a_matrix(4).bits
        for i in range(4):
            for j in range(4):
                want = 0 if j - i in (0, 1) else 1
                assert bits[i][j] == want

    def test_a6_permanent(self):
        assert permanent_ryser(menage_a_matrix(6).to_dense()).value == 96

    def test_b3_corners_only(self):
        assert menage_b_matrix(3).bits == ((0, 0, 1), (0, 0, 0), (1, 0, 0))

    def test_b7_and_b10_permanents(self):
        assert permanent_ryser(menage_b_matrix(7).to_dense()).value == 206
        assert permanent_ryser(menage_b_matrix(10).to_dense()).value == 159737

    def test_matches_band_materialization(self):
        for n in range(2, 13):
            a_bits = tuple(
                tuple(e.value for e in row)
                for row in materialize(BandSpec(n, 2, 1, 1, 0)).rows
            )
            assert menage_a_matrix(n).bits == a_bits
            b_bits = tuple(
                tuple(e.value for e in row)
                for row in materialize(BandSpec(n, 2, 2, 1, 0)).rows
            )
            assert menage_b_matrix(n).bits == b_bits
        # at n = 1 the width-2 window is wider than the matrix
        assert menage_a_matrix(1).bits == ((0,),)
        assert menage_b_matrix(1).bits == ((0,),)


class TestMenageAPermanent:
    def test_recurrence_values(self):
        assert menage_a_permanent_rec(3) == 1
        assert menage_a_permanent_rec(8) == 5413
        assert menage_a_permanent_rec(10) == 488592

    def test_sum_values(self):
        assert menage_a_permanent_sum(5) == 16
        assert menage_a_permanent_sum(9) == 48800
        assert menage_a_permanent_sum(1) == 0
        assert menage_a_permanent_sum(2) == 0

    def test_triple_agreement(self):
        for n in range(1, 13):
            rec = menage_a_permanent_rec(n)
            explicit = menage_a_permanent_sum(n)
            ryser = permanent_ryser(menage_a_matrix(n).to_dense()).value
            assert rec == explicit == ryser, n


class TestMenageDets:
    def test_a_values(self):
        assert menage_a_det(3) == 1
        assert menage_a_det(6) == -2
        assert menage_a_det(1) == 0

    def test_a_matches_closed_form(self):
        for n in range(1, 101):
            assert menage_a_det(n) == det_case1(n, 2, 1, 0).value

    def test_a_matches_floor_form(self):
        # the paper's second printed form: (-1)^(n-1) floor((n-1)/2)
        for n in range(1, 201):
            assert menage_a_det(n) == (-1) ** (n - 1) * ((n - 1) // 2)

    def test_b_values(self):
        assert menage_b_det(6) == -1
        assert menage_b_det(8) == 0
        assert menage_b_det(7) == 2

    def test_b_matches_closed_form(self):
        for n in range(1, 101):
            assert menage_b_det(n) == det_case2(n, 2, 2, 1, 0).value


class TestExcedanceMatrix:
    def test_order_one(self):
        assert excedance_matrix(1).rows == ((Poly.variable(),),)

    def test_determinant_shape(self):
        for n in range(1, 7):
            want = (Poly((-1, 1)) ** (n - 1)) * Poly.variable()
            assert det_laplace(excedance_matrix(n)) == want

    def test_c4_permanent_coefficients(self):
        per = permanent_ryser(excedance_matrix(4))
        assert per == Poly((0, 1, 11, 11, 1))


class TestExcedanceCensus:
    def test_n4_k2(self):
        census = excedance_census(4)
        assert (census.even[1], census.odd[1]) == (7, 4)

    def test_n10_k2(self):
        census = excedance_census(10)
        assert census.per_coeffs[1] == 1013
        assert (census.even[1], census.odd[1]) == (511, 502)

    def test_n5_k5_identity_only(self):
        census = excedance_census(5)
        assert census.per_coeffs[4] == 1
        assert census.det_coeffs[4] == 1
        assert (census.even[4], census.odd[4]) == (1, 0)

    def test_matches_enumeration(self):
        for n in range(1, 9):
            assert excedance_census(n) == brute_force_excedance_census(n)

    def test_eulerian_symmetry(self):
        for n in range(1, 9):
            t = excedance_census(n).per_coeffs
            for k in range(1, n + 1):
                assert t[k - 1] == t[n - k]

    def test_row_sums(self):
        for n in range(1, 9):
            census = excedance_census(n)
            assert sum(census.per_coeffs) == factorial(n)
            if n >= 2:
                assert sum(census.det_coeffs) == 0

    def test_det_coefficients_are_signed_binomials(self):
        # and the coefficients of the paper's all-b-triangle form (b - 1)^(n-1) b
        for n in (*range(1, 61), 200):
            census = excedance_census(n)
            for k in range(1, n + 1):
                want = (-1) ** (n - k) * comb(n - 1, k - 1)
                assert census.det_coeffs[k - 1] == want
            g = g_closed(n, Poly.constant(1), Poly.variable())
            assert census.det_coeffs == g.coeffs[1:], n

    def test_census_and_table_take_no_ring_arithmetic(self, monkeypatch):
        orders = (3, 12, 200)
        want = [(excedance_census(n), family_table("excedance-k2", n)) for n in orders]

        def refuse(*args):
            raise AssertionError("ring arithmetic on a census path")

        monkeypatch.setattr(Poly, "__mul__", refuse)
        monkeypatch.setattr(Poly, "__add__", refuse)
        monkeypatch.setattr(RingElement, "__pow__", refuse)
        got = [(excedance_census(n), family_table("excedance-k2", n)) for n in orders]
        assert got == want

    @staticmethod
    def _census(n, per, det, even, odd):
        """The census whose k-th row is (even, odd, per, det)[k-1]."""
        return ExcedanceCensus(n, tuple(map(ParityCount, even, odd, per, det)))

    def test_inconsistent_census_rejected(self):
        # order 3: T = (1, 4, 1), c = (1, -2, 1), even = (1, 1, 1), odd = (0, 3, 0)
        census = self._census(3, (1, 4, 1), (1, -2, 1), (1, 1, 1), (0, 3, 0))
        assert census == brute_force_excedance_census(3)
        with pytest.raises(ParityError, match="even \\+ odd != per"):
            self._census(3, (1, 4, 1), (1, -2, 1), (1, 2, 1), (0, 3, 0))
        with pytest.raises(ParityError, match="negative count"):
            self._census(3, (1, 0, 1), (1, -2, 1), (1, -1, 1), (0, 1, 0))
        with pytest.raises(ParityError, match="C\\(n-1,k-1\\)"):
            self._census(3, (1, 4, 1), (1, 2, 1), (1, 3, 1), (0, 1, 0))

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError, match="order n must be positive"):
            ExcedanceCensus(0, ())

    def test_odd_per_plus_det_rejected(self, monkeypatch):
        # one extra permutation with two weak excedances makes T(4,2) + c(4,2) odd
        real = permcount._hits

        def one_more_e2(r, top):
            e = real(r, top)
            e[2] += 1
            return e

        monkeypatch.setattr(permcount, "_hits", one_more_e2)
        with pytest.raises(ParityError, match="even \\+ odd != per"):
            excedance_census(4)


class TestWeakExcedances:
    def test_identity(self):
        for n in (1, 4, 9):
            assert weak_excedance_count(range(1, n + 1)) == n

    def test_listed_examples(self):
        assert weak_excedance_count((1, 4, 2, 3)) == 2
        assert weak_excedance_count((4, 3, 2, 1)) == 2

    def test_invalid(self):
        with pytest.raises(InvalidPermutationError):
            weak_excedance_count((1, 1, 3))
        with pytest.raises(InvalidPermutationError):
            weak_excedance_count((0, 1, 2))

    def test_order4_class_listing(self):
        members = weak_excedance_class(4, 2)
        assert len(members) == 11
        assert set(members) == set(ORDER4_K2_EVEN) | set(ORDER4_K2_ODD)
        even = [p for p in members if perm_sign([v - 1 for v in p]) > 0]
        odd = [p for p in members if perm_sign([v - 1 for v in p]) < 0]
        assert sorted(even) == sorted(ORDER4_K2_EVEN)
        assert sorted(odd) == sorted(ORDER4_K2_ODD)


class TestBruteForceCensus:
    def test_n3(self):
        census = brute_force_excedance_census(3)
        assert census.per_coeffs == (1, 4, 1)

    def test_n1(self):
        census = brute_force_excedance_census(1)
        assert census.per_coeffs == (1,)
        assert census.even == (1,)

    def test_guard(self):
        with pytest.raises(SizeLimitError):
            brute_force_excedance_census(10)


class TestFamilyTables:
    def test_menage_a(self):
        assert family_table("menage-a", 10) == MENAGE_A

    def test_menage_b(self):
        assert family_table("menage-b", 10) == MENAGE_B

    def test_excedance_k2(self):
        assert family_table("excedance-k2", 10) == EXCEDANCE_K2

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_table("menage-c", 5)

    @pytest.mark.parametrize("family, n_max", [("menage-a", 25), ("excedance-k2", 8)])
    def test_guard_refuses_before_any_permanent(self, monkeypatch, family, n_max):
        # a low limit keeps the refused tables small
        monkeypatch.setenv("BANDDET_LIMIT_TRANSFER", "6")
        dp_runs = []
        for core in ("_rook_numbers", "_board", "_band_board"):
            monkeypatch.setattr(permcount, core, lambda *args, core=core: dp_runs.append(core))
        with pytest.raises(SizeLimitError, match=r"^family_table refuses order .*BANDDET_LIMIT_TRANSFER"):
            family_table(family, n_max)
        # the rows come from the family's recurrence: no board is built and no rook DP runs
        assert family_table(family, 6) == {"menage-a": MENAGE_A, "excedance-k2": EXCEDANCE_K2}[family][:6]
        assert dp_runs == []


def _rank(rows) -> int:
    """Rank of an integer matrix over the rationals, by elimination."""
    rows = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestRecurrencesFromTheRookDP:
    """The seating recurrences re-derived from the rook DP's permanents
    p_1..p_40: every recurrence sum_i (a_i n + b_i) p_(n-i) = 0, i = 0..order,
    that holds there is a multiple of the package's."""

    @pytest.mark.parametrize("family, matrix, order", [
        ("menage-a", menage_a_matrix, 3), ("menage-b", menage_b_matrix, 7),
    ], ids=["menage-a", "menage-b"])
    def test_solution_space_is_the_package_recurrence(self, family, matrix, order):
        if family == "menage-a":
            # p_n - (n-1) p_(n-1) - (n-1) p_(n-2) - p_(n-3), as its docstring states
            assert "p_n = (n-1)(p_{n-1} + p_{n-2}) + p_{n-3}" in permcount._menage_a_permanents.__doc__
            want = [0, 1, -1, 1, -1, 1, 0, -1]
        else:
            # p_n - sum_i (a_i n + b_i) p_(n-1-i)
            want = [0, 1] + [-c for pair in permcount._MENAGE_B_STEP for c in pair]
        p = [None] + [parity_counts(matrix(n)).permanent for n in range(1, 41)]
        # one equation per n, in the unknowns a_0, b_0, ..., a_order, b_order
        equations = [
            [c for i in range(order + 1) for c in (n * p[n - i], p[n - i])]
            for n in range(order + 1, 41)
        ]
        assert len(want) == 2 * (order + 1)
        assert _rank(equations) == len(want) - 1  # the solutions form a line
        assert all(sum(map(operator.mul, row, want)) == 0 for row in equations)


class TestCornerSweep:
    @pytest.mark.parametrize("n_max", [2, 12])
    @pytest.mark.parametrize("family, matrix", [("menage-a", menage_a_matrix), ("menage-b", menage_b_matrix)])
    def test_seating_tables_match_ryser(self, family, matrix, n_max):
        # n_max = 2 reads only the recurrences' starting values
        rows = family_table(family, n_max)
        assert [row[0] for row in rows] == list(range(1, n_max + 1))
        for n, per, det, even, odd in rows:
            dense = matrix(n).to_dense()
            assert (per, det) == (permanent_ryser(dense).value, det_bareiss(dense).value), n


def _per_from_hits(e, a, b):
    """per(aJ + (b-a)B) from the hit numbers e of B: a permutation that
    meets B in h positions contributes a^(n-h) b^h."""
    n = len(e) - 1
    terms = [a ** (n - h) * b**h * e_h for h, e_h in enumerate(e)]
    return sum(terms[1:], terms[0])


def _checkerboard(n):
    """Ones where i + j is even: neither it nor its zeros is a Ferrers
    board, and both have profile width about n."""
    return CharMatrix(tuple(tuple(1 - (i + j) % 2 for j in range(n)) for i in range(n)))


class TestRookCore:
    @pytest.mark.parametrize(
        "a, b", [(1, 0), (2, -3), (Poly((2, -1)), Poly((0, 1, 1)))], ids=["int-1-0", "int-2-m3", "poly"]
    )
    def test_band_permanents_match_ryser(self, a, b):
        for n in range(1, 9):
            for k in range(1, n + 1):
                for l in range(1, k + 1):
                    spec = BandSpec(n, k, l, a, b)
                    r = permcount._rook_numbers(permcount._band_board(n, k, l))
                    got = _per_from_hits(permcount._hits(r, n), spec.a, spec.b)
                    want = permanent_ryser(materialize(spec))
                    assert got == want, (n, k, l)

    def test_random_boards_match_expansion(self):
        rng = random.Random(14)
        ferrers = 0
        for n in range(1, 8):
            for _ in range(12):
                density = rng.choice((0.2, 0.5, 0.8))
                bits = tuple(tuple(int(rng.random() < density) for _ in range(n)) for _ in range(n))
                A = CharMatrix(bits)
                want = permanent_expansion(A.to_dense()).value
                ones = permcount._board(bits)
                zeros = permcount._board(tuple(tuple(1 - e for e in row) for row in bits))
                assert permcount._hits(permcount._rook_numbers(ones), n)[n] == want
                assert _per_from_hits(permcount._hits(permcount._rook_numbers(zeros), n), 1, 0) == want
                ferrers += permcount._is_ferrers(zeros)
                assert parity_counts(A) == brute_force_parity(A)
        assert ferrers > 0

    def test_ferrers_rows_in_any_order(self):
        rng = random.Random(7)
        for n in range(1, 9):
            lengths = sorted(rng.randrange(n + 1) for _ in range(n))
            cols = list(range(n))
            rng.shuffle(cols)
            bits = [tuple(int(cols.index(j) < h) for j in range(n)) for h in lengths]
            rng.shuffle(bits)
            board = permcount._board(bits)
            assert permcount._is_ferrers(board)
            want = permanent_expansion(CharMatrix(tuple(bits)).to_dense()).value
            assert permcount._hits(permcount._rook_numbers(board), n)[n] == want

    def test_hits_match_enumeration(self):
        # e_h counts the permutations with exactly h positions in the window -l < pi(i) - i < k
        for n in range(1, 8):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    want = [0] * (n + 3)
                    for perm in permutations(range(n)):
                        want[sum(-l < v - i < k for i, v in enumerate(perm))] += 1
                    e = permcount._hits(permcount._rook_numbers(permcount._band_board(n, k, l)), n + 2)
                    assert e == want, (n, k, l)
                    assert e[n + 1 :] == [0, 0]
                    assert sum(e) == factorial(n)

    def test_staircase_rook_numbers_are_stirling(self):
        # r_j of the weak-excedance staircase is S(n+1, n+1-j)
        def stirling2(m, k):
            return sum((-1) ** i * comb(k, i) * (k - i) ** m for i in range(k + 1)) // factorial(k)

        for n in range(1, 12):
            r = permcount._rook_numbers(permcount._band_board(n, n, 1))
            assert r == [stirling2(n + 1, n + 1 - j) for j in range(n + 1)]

    def test_wide_board_falls_back_to_ryser(self, monkeypatch):
        calls = []
        real = permcount.permanent_ryser
        monkeypatch.setattr(permcount, "permanent_ryser", lambda m: calls.append(m.n) or real(m))
        # the checkerboard's zeros have profile width n
        A = _checkerboard(8)
        assert parity_counts(A) == brute_force_parity(A)
        assert calls == []
        for n in (9, 12):
            # a permutation on it maps even indices to even ones and odd to odd
            assert parity_counts(_checkerboard(n)).permanent == factorial((n + 1) // 2) * factorial(n // 2)
        assert calls == [9, 12]
        # a zero band of widths (k, l) has profile width k + l - 2
        for k, l, ryser in [(5, 5, False), (6, 5, True)]:
            A = CharMatrix(band_rows(12, k, l, 0, 1))
            assert parity_counts(A).permanent == real(A.to_dense()).value
            assert calls[2:] == ([12] if ryser else []), (k, l)
        # narrow boards never reach Ryser
        parity_counts(menage_b_matrix(17))
        assert calls == [9, 12, 12]
        # a wide Ferrers board (zeros on and above the diagonal) takes GJW
        A = CharMatrix(band_rows(12, 12, 1, 0, 1))
        assert parity_counts(A) == ParityCount(0, 0, 0, 0)
        assert calls == [9, 12, 12]

    def test_wide_board_refused_at_ryser_limit(self):
        with pytest.raises(
            SizeLimitError,
            match=r"^permanent_ryser refuses order 21 \(limit 20; set BANDDET_LIMIT_RYSER_INT",
        ):
            parity_counts(_checkerboard(21))

    @pytest.mark.parametrize("n", [40, 100])
    def test_wide_band_refused_at_ryser_limit(self, n):
        # ones in a wide band: its zeros are far too wide for the DP
        A = CharMatrix(band_rows(n, 12, 12, 1, 0))
        with pytest.raises(SizeLimitError, match=r"^permanent_ryser refuses order"):
            parity_counts(A)

    def test_transfer_refusal_builds_no_board(self, monkeypatch):
        # an order-n board is n masks of up to n bits, so at n = 10**6 it would not fit
        monkeypatch.setenv("BANDDET_LIMIT_TRANSFER", "6")
        rows = []
        real = permcount._band_run
        monkeypatch.setattr(permcount, "_band_run", lambda *args: rows.append(args) or real(*args))
        for refused in (partial(family_table, "menage-a"), excedance_census):
            with pytest.raises(SizeLimitError, match="BANDDET_LIMIT_TRANSFER"):
                refused(7)
        assert rows == []

    def test_parity_counts_refused_over_transfer_limit(self, monkeypatch):
        monkeypatch.setenv("BANDDET_LIMIT_TRANSFER", "9")
        with pytest.raises(SizeLimitError, match="BANDDET_LIMIT_TRANSFER"):
            parity_counts(menage_a_matrix(10))
        with pytest.raises(SizeLimitError, match="BANDDET_LIMIT_TRANSFER"):
            excedance_census(10)


def _every_board(n_max):
    """Every 0/1 matrix of order at most n_max, by its rows."""
    for n in range(1, n_max + 1):
        for flat in product((0, 1), repeat=n * n):
            yield tuple(flat[i * n : (i + 1) * n] for i in range(n))


def _random_boards(seed, n_max, per_order):
    rng = random.Random(seed)
    for n in range(1, n_max + 1):
        for _ in range(per_order):
            density = rng.choice((0.2, 0.4, 0.6, 0.8))
            yield tuple(tuple(int(rng.random() < density) for _ in range(n)) for _ in range(n))


def _with_zero_columns(boards, count):
    """Each board of order > count with columns 1..count cleared."""
    for zeros in boards:
        if len(zeros) > count:
            yield tuple(tuple(0 if 1 <= j <= count else e for j, e in enumerate(row)) for row in zeros)


class TestParityDeterminant:
    def test_det_matches_laplace_and_bareiss(self):
        random_zeros = list(_random_boards(24, 8, 40))
        zero_boards = [
            *_every_board(3),
            # seeded random boards, most of them not Toeplitz, and their zero-column variants
            *random_zeros,
            *_with_zero_columns(random_zeros, 1),
            *_with_zero_columns(random_zeros, 2),
            # every zero band window with l <= k <= 6, to order 39 where parity_counts reads the
            # permanent off the rook DP (profile width k + l - 2 <= 8) and to 15 where Ryser
            *(
                band_rows(n, k, l, 1, 0)
                for k in range(1, 7)
                for l in range(1, k + 1)
                for n in range(1, 40 if k + l - 2 <= permcount._PARITY_MAX_WIDTH else 16)
            ),
        ]
        for zeros in zero_boards:
            A = CharMatrix(tuple(tuple(1 - e for e in row) for row in zeros))
            det = det_laplace if A.n <= 9 else det_bareiss
            assert parity_counts(A).determinant == det(DenseMatrix(A.bits)).value, zeros

    def test_seating_families_take_bareiss_on_the_strip(self, monkeypatch):
        def refused(*args):
            raise AssertionError("general route taken")

        strips = []
        real = permcount.det_bareiss
        monkeypatch.setattr(permcount, "det_bareiss", lambda m: strips.append(type(m) is oracle._Strip) or real(m))
        monkeypatch.setattr(oracle, "_row_differences", refused)
        monkeypatch.setattr(permcount, "permanent_ryser", refused)
        orders = [*range(1, 18), 200]
        for n in orders:
            for matrix, det in ((menage_a_matrix, menage_a_det), (menage_b_matrix, menage_b_det)):
                pc = parity_counts(matrix(n))
                assert pc.determinant == det(n), (matrix, n)
                if n <= 9:
                    assert pc == brute_force_parity(matrix(n)), (matrix, n)
            assert parity_counts(menage_a_matrix(n)).permanent == menage_a_permanent_rec(n)
        assert strips == [True] * 3 * len(orders)


class TestLargeOrders:
    def test_excedance_k2_is_eulerian_at_transfer_limit(self):
        # T(n, 2) = 2^n - n - 1 and c(n, 2) = (-1)^n (n - 1) at every order up to the default limit
        for n, t, c, _, _ in family_table("excedance-k2", 200):
            assert t == 2**n - n - 1, n
            assert c == (-1) ** n * (n - 1), n
        assert sum(excedance_census(200).per_coeffs) == factorial(200)

    def test_excedance_k2_table_is_the_census_k2_row(self):
        # the table reads T(n, 2) = 2^n - n - 1 and the census e_1..e_n of the
        # staircase's rook DP: one row, two routes, at every order to the limit
        table = family_table("excedance-k2", 200)
        assert table[0] == (1, 0, 0, 0, 0)
        for n in range(2, 201):
            r = excedance_census(n).rows[1]
            assert table[n - 1][1:] == (r.permanent, r.determinant, r.even, r.odd), n

    def test_menage_a_permanents_to_200(self):
        rows = family_table("menage-a", 200)
        assert [row[1] for row in rows] == [menage_a_permanent_sum(n) for n in range(1, 201)]

    def test_menage_a_table_matches_parity_counts(self):
        # recurrence and closed-form det against the zero-band rook DP and
        # Bareiss, at every order to the limit
        for n, per, det, even, odd in family_table("menage-a", 200):
            assert ParityCount(even, odd, per, det) == parity_counts(menage_a_matrix(n)), n

    def test_menage_b_table_matches_parity_counts(self):
        for n, per, det, even, odd in family_table("menage-b", 200):
            assert ParityCount(even, odd, per, det) == parity_counts(menage_b_matrix(n)), n

    def test_tables_match_the_rook_dp_past_the_default_guard(self, monkeypatch):
        # menage-b's recurrence is checked, not proved: these orders are the checked ones past 200
        monkeypatch.setenv("BANDDET_LIMIT_TRANSFER", "400")
        for n in (300, 400):
            for family, matrix in (("menage-a", menage_a_matrix), ("menage-b", menage_b_matrix)):
                _, per, det, even, odd = family_table(family, n)[-1]
                assert ParityCount(even, odd, per, det) == parity_counts(matrix(n)), (family, n)
            r = excedance_census(n).rows[1]
            assert family_table("excedance-k2", n)[-1] == (n, r.permanent, r.determinant, r.even, r.odd)

    def test_excedance_coefficients_are_eulerian(self):
        eulerian = [1]  # A(1, m) for m = 0
        for n in range(1, 61):
            if n > 1:
                prev = eulerian + [0]
                eulerian = [
                    (m + 1) * prev[m] + (n - m) * (prev[m - 1] if m else 0) for m in range(n)
                ]
            assert excedance_census(n).per_coeffs == tuple(eulerian), n
