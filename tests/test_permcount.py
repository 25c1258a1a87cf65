from math import comb, factorial

import pytest

from banddet import (
    BandSpec,
    CharMatrix,
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
    permanent_ryser,
    weak_excedance_class,
    weak_excedance_count,
)
from banddet import permcount

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

    def test_to_dense(self):
        dense = menage_a_matrix(2).to_dense()
        assert det_bareiss(dense).value == 0


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
        from itertools import permutations

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
        for n in range(1, 9):
            census = excedance_census(n)
            for k in range(1, n + 1):
                want = (-1) ** (n - k) * comb(n - 1, k - 1)
                assert census.det_coeffs[k - 1] == want

    def test_inconsistent_census_rejected(self):
        # order 3: T = (1, 4, 1), c = (1, -2, 1), even = (1, 1, 1), odd = (0, 3, 0)
        census = ExcedanceCensus(3, (1, 4, 1), (1, -2, 1), (1, 1, 1), (0, 3, 0))
        assert census == brute_force_excedance_census(3)
        with pytest.raises(ParityError, match="even \\+ odd != per"):
            ExcedanceCensus(3, (1, 4, 1), (1, -2, 1), (1, 2, 1), (0, 3, 0))
        with pytest.raises(ParityError, match="negative count"):
            ExcedanceCensus(3, (1, 0, 1), (1, -2, 1), (1, -1, 1), (0, 1, 0))
        with pytest.raises(ParityError, match="C\\(n-1,k-1\\)"):
            ExcedanceCensus(3, (1, 4, 1), (1, 2, 1), (1, 3, 1), (0, 1, 0))

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError, match="order n must be positive"):
            ExcedanceCensus(0, (), (), (), ())

    def test_odd_per_plus_det_rejected(self, monkeypatch):
        # one extra permutation with two weak excedances makes T(4,2) + c(4,2) odd
        real = permcount.permanent_ryser
        monkeypatch.setattr(
            permcount, "permanent_ryser", lambda m: real(m) + Poly.variable() ** 2
        )
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
        # a low polynomial limit keeps the refused excedance table small
        monkeypatch.setenv("BANDDET_LIMIT_RYSER_POLY", "6")
        orders = []
        real = permcount.permanent_ryser

        def counted(m):
            orders.append(m.n)
            return real(m)

        monkeypatch.setattr(permcount, "permanent_ryser", counted)
        with pytest.raises(SizeLimitError):
            family_table(family, n_max)
        assert orders == [n_max]
