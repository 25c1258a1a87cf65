import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from banddet import (
    BandSpec,
    Integer,
    MixedRingError,
    Poly,
    as_element,
    det_closed,
    element_from_json,
    element_to_json,
    spec_from_json,
    spec_to_json,
)
from banddet import rings

ints = st.builds(Integer, st.integers(min_value=-(10**9), max_value=10**9))
polys = st.builds(
    Poly, st.lists(st.integers(min_value=-99, max_value=99), max_size=6).map(tuple)
)


def P(*coeffs):
    return Poly(tuple(coeffs))


def convolution(p, q, d):
    """The d-th coefficient of p * q, summed term by term over the indices
    where both factors have a coefficient."""
    lo, hi = max(0, d - q.degree), min(d, p.degree)
    return sum(p.coeff(i) * q.coeff(d - i) for i in range(lo, hi + 1))


class TestAdd:
    def test_integers(self):
        assert Integer(2) + Integer(3) == Integer(5)

    def test_poly_b_minus_1_plus_1(self):
        assert P(-1, 1) + P(1) == P(0, 1)

    def test_big_values(self):
        # oracle: independent bignum addition, verified by hand
        assert Integer(48800) + Integer(488592) == Integer(537392)

    def test_mixed_ring_rejected(self):
        with pytest.raises(MixedRingError):
            Integer(1) + P(1)
        with pytest.raises(MixedRingError):
            P(1) + Integer(1)


class TestSub:
    def test_integers(self):
        assert Integer(2) - Integer(5) == Integer(-3)

    def test_trailing_zeros_stripped(self):
        # (1 + b) - b is the constant 1, not 1 + 0*b
        diff = P(1, 1) - P(0, 1)
        assert diff == P(1)
        assert diff.coeffs == (1,)

    @given(ints | polys)
    def test_self_minus_self_is_the_ring_zero(self, x):
        diff = x - x
        assert type(diff) is type(x)
        assert diff == x.ring_zero()
        assert diff.is_zero()

    @given(polys, polys)
    def test_poly_difference_is_the_sum_with_the_negation(self, x, y):
        assert x - y == x + (-y)

    def test_mixed_ring_rejected(self):
        with pytest.raises(MixedRingError, match="cannot subtract Integer and Poly"):
            Integer(1) - P(1)
        with pytest.raises(MixedRingError, match="cannot subtract Poly and Integer"):
            P(1) - Integer(1)
        with pytest.raises(MixedRingError, match="cannot subtract Poly and int"):
            P(1) - 1


class TestMul:
    def test_poly_square(self):
        assert P(-1, 1) * P(-1, 1) == P(1, -2, 1)

    def test_integer_sign(self):
        assert Integer(-1) * Integer(5) == Integer(-5)

    def test_cube_times_variable(self):
        # (b-1)^3 * b expanded by the binomial theorem: b^4 - 3b^3 + 3b^2 - b
        cube = P(-1, 1) ** 3
        assert cube * Poly.variable() == P(0, -1, 3, -3, 1)

    def test_mixed_ring_rejected(self):
        with pytest.raises(MixedRingError):
            Integer(2) * P(0, 1)


class TestPow:
    def test_zero_exponent_is_one(self):
        assert Integer(12345) ** 0 == Integer(1)
        assert P(7, -2) ** 0 == P(1)
        assert Poly() ** 0 == P(1)

    def test_minus_one_odd(self):
        assert Integer(-1) ** 7 == Integer(-1)

    def test_binomial_cube(self):
        assert P(-1, 1) ** 3 == P(-1, 3, -3, 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Integer(2) ** -1
        with pytest.raises(ValueError):
            P(0, 1) ** -1


big = st.integers(min_value=-(10**40), max_value=10**40)


@given(c0=st.one_of(st.just(0), big), c1=big.filter(bool), e=st.integers(0, 64))
@example(c0=0, c1=1, e=64)
@example(c0=-(10**40), c1=10**40, e=64)
@settings(max_examples=80, deadline=None)
def test_two_term_power_is_repeated_schoolbook_product(c0, c1, e):
    p = P(c0, c1)
    want = P(1)
    for _ in range(e):
        want = want * p
    assert p**e == want


_STEPS = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if abs(x - y) == 1]


def test_two_term_power_commutes_with_evaluation():
    # evaluation is a ring homomorphism: (b-a)^1499 times a tail of at most
    # two terms, over Poly, taken at v, is the integer closed form at a(v),
    # b(v).  First (b-1)^1499 * b, then every a, b of degree <= 1 with
    # coefficients in -1..1 and b - a = +-1 +- b, at k = 1..4
    det = det_closed(BandSpec(1500, 1500, 1, Poly((1,)), Poly((0, 1))))
    assert det.degree == 1500
    for v in (-7, -1, 0, 2, 3, 10**6):
        assert det.evaluate(v) == det_closed(BandSpec(1500, 1500, 1, 1, v)).value
    for k in (1, 2, 3, 4):
        for a0, b0 in _STEPS:
            for a1, b1 in _STEPS:
                a, b = Poly((a0, a1)), Poly((b0, b1))
                det = det_closed(BandSpec(1500, k, 1, a, b))
                for v in (-2, 0, 3):
                    spec = BandSpec(1500, k, 1, a.evaluate(v), b.evaluate(v))
                    assert det.evaluate(v) == det_closed(spec).value, (k, a, b, v)


@pytest.mark.parametrize("c0", range(-4, 5))
def test_binomial_coeffs_match_math_comb(c0):
    for c1 in (1, -1, 2, -2, 3, -3, 4, -4):
        for e in range(61):
            want = [math.comb(e, j) * c0 ** (e - j) * c1**j for j in range(e + 1)]
            assert rings._binomial_coeffs(c0, c1, e) == want, (c1, e)


@pytest.mark.parametrize("c0, c1", [(-1, 1), (2, 3)])
def test_binomial_coeffs_match_math_comb_at_1500(c0, c1):
    e = 1500
    want = [math.comb(e, j) * c0 ** (e - j) * c1**j for j in range(e + 1)]
    assert rings._binomial_coeffs(c0, c1, e) == want


SHORT_FACTORS = [
    (7,),
    (-(10**40),),
    (0, 1),
    (-1, 1),
    (10**40, -(10**40) + 1),
    (5, 0, 1),
    (-3, 10**40, -2),
]


@pytest.mark.parametrize("short", SHORT_FACTORS)
@pytest.mark.parametrize("n", [1, 2, 3, 13, 1600])
def test_long_by_short_product_is_a_convolution(short, n):
    rng = random.Random(n)
    cs = [rng.choice((0, rng.randint(-(10**40), 10**40))) for _ in range(n - 1)]
    long_ = Poly(tuple(cs) + (rng.randint(1, 10**40),))
    s = Poly(short)
    for p, q in ((s, long_), (long_, s)):
        prod = p * q
        assert prod.degree == p.degree + q.degree
        assert list(prod.coeffs) == [convolution(p, q, d) for d in range(prod.degree + 1)]
    assert s * Poly() == Poly() * s == Poly()
    assert long_ * Poly() == Poly() * long_ == Poly()


class TestScalarMul:
    def test_zero(self):
        assert P(4, 5) * 0 == Poly()
        assert Integer(9) * 0 == Integer(0)

    def test_three_b(self):
        assert Poly.variable() * 3 == P(0, 3)

    def test_negative(self):
        assert Integer(7) * -2 == Integer(-14)

    def test_rmul_sugar(self):
        assert 3 * Poly.variable() == P(0, 3)
        assert Integer(7) * -2 == Integer(-14)


class TestCoeff:
    def test_middle(self):
        assert P(1, -2, 1).coeff(1) == -2

    def test_det_c4_quadratic_coefficient(self):
        # (b-1)^3 * b has 3 as its b^2 coefficient
        det_c4 = (P(-1, 1) ** 3) * Poly.variable()
        assert det_c4.coeff(2) == 3

    def test_beyond_degree_and_zero(self):
        assert Poly().coeff(5) == 0
        assert P(1, 2).coeff(9) == 0

    def test_integer_rejected(self):
        # coefficients exist only on polynomials: Integer has no coeff
        with pytest.raises(AttributeError):
            Integer(3).coeff(0)


class TestCanonicalForm:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(1, 2, 0, 0).coeffs == (1, 2)

    def test_zero_is_empty(self):
        assert P(0, 0, 0).coeffs == ()
        assert Poly().is_zero()

    def test_long_zero_runs_strip_in_one_pass(self):
        # cutting one zero per slice made these quadratic: about a minute
        # for 200,000 trailing zeros; one slice takes milliseconds
        zeros = (0,) * 200_000
        p = Poly(tuple(range(1, 200_002)))
        start = time.perf_counter()
        assert Poly((1,) + zeros) == P(1)
        assert Poly(zeros).is_zero()
        assert (p + (-p)).is_zero()
        assert (p * 0).is_zero()
        assert time.perf_counter() - start < 5

    def test_degree(self):
        assert Poly().degree == -1
        assert P(5).degree == 0
        assert P(0, 0, 7).degree == 2


class TestStr:
    def test_examples(self):
        assert str(P(0, -1, 3, -3, 1)) == "b^4 - 3*b^3 + 3*b^2 - b"
        assert str(P(1, -2)) == "-2*b + 1"
        assert str(Poly.variable()) == "b"
        assert str(Poly()) == "0"
        assert str(Integer(-7)) == "-7"


@given(x=ints, y=ints, z=ints)
@settings(max_examples=60, deadline=None)
def test_integer_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(x=polys, y=polys, z=polys)
@settings(max_examples=60, deadline=None)
def test_poly_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


class TestExactRender:
    """Integers of any size render exactly, under the least int -> str digit
    limit the interpreter accepts (640)."""

    @pytest.fixture
    def exact(self):
        """str() with the digit limit lifted, restored after the test."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            yield str
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("bits", [1, 2048, 2049, 4096, 14300, 47500, 100_000])
    def test_integer_and_json(self, exact, bits):
        rng = random.Random(bits)
        for v in (rng.getrandbits(bits) | 1 << (bits - 1), -(1 << bits), (1 << bits) - 1):
            want = exact(v)
            sys.set_int_max_str_digits(640)
            assert rings._int_str(v) == want
            assert str(Integer(v)) == want
            assert element_to_json(Integer(v)) == want
            sys.set_int_max_str_digits(0)

    def test_poly(self, exact):
        c = 3**20000
        digits = exact(c)
        sys.set_int_max_str_digits(640)
        p = P(-c, 1, c)
        assert str(p) == f"{digits}*b^2 + b - {digits}"
        assert element_to_json(p) == ["-" + digits, "1", digits]

    def test_small_values_do_not_import_decimal(self):
        code = (
            "import sys; from banddet import Integer, Poly; "
            "s = str(Integer(1 - 2**2048)) + str(Poly((3, 2**2000))); "
            "assert 'decimal' not in sys.modules"
        )
        subprocess.run(
            [sys.executable, "-c", code], check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(rings.__file__).parents[1])},
        )


class TestExactRead:
    """JSON of any size reads back exactly, and only canonical digits are
    accepted, under the default int <-> str digit limit and the least one."""

    @pytest.fixture(params=[4300, 640])
    def limit(self, request):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(request.param)
        try:
            yield request.param
        finally:
            sys.set_int_max_str_digits(saved)

    def test_round_trip_beyond_the_limit(self, limit):
        x = Integer(2**19999 * 10002)  # det --n 20000 --k 2 --l 1 --a 1 --b 3
        text = element_to_json(x)
        assert len(text) == 6025
        assert element_from_json(text) == x
        assert element_from_json("-" + text) == -x
        p = Poly((-(x.value), 1, 3**20000))
        assert element_from_json(element_to_json(p)) == p
        spec = BandSpec(7, 2, 1, x.value, -(x.value))
        assert spec_from_json(spec_to_json(spec)) == spec

    @pytest.mark.parametrize("digits", [1, 616, 617, 618, 1235, 6025, 20_001])
    def test_every_length_splits_exactly(self, limit, digits):
        rng = random.Random(digits)
        text = "".join(rng.choice("0123456789") for _ in range(digits))
        sys.set_int_max_str_digits(0)
        want = int(text)
        sys.set_int_max_str_digits(limit)
        assert element_from_json(text) == Integer(want)
        assert element_from_json("-" + text) == Integer(-want)

    @pytest.mark.parametrize(
        "text", [" 12", "12 ", "12\n", "+5", "1_000", "\u0663", "1e5", "NaN", "", "-", "--1", "0x10", "1.0"]
    )
    def test_non_canonical_rejected(self, text):
        with pytest.raises(ValueError):
            element_from_json(text)
        with pytest.raises(ValueError):
            element_from_json(["1", text])


@given(x=st.one_of(ints, polys), m=st.integers(0, 16), n=st.integers(0, 16))
@settings(max_examples=60, deadline=None)
def test_pow_is_additive_in_the_exponent(x, m, n):
    assert x ** (m + n) == (x**m) * (x**n)


@given(p=polys, q=polys, d=st.integers(0, 12))
@settings(max_examples=80, deadline=None)
def test_product_coefficient_is_a_convolution(p, q, d):
    assert (p * q).coeff(d) == convolution(p, q, d)


@given(p=polys, q=polys)
@settings(max_examples=60, deadline=None)
def test_degree_of_product_adds(p, q):
    if not p.is_zero() and not q.is_zero():
        assert (p * q).degree == p.degree + q.degree


@given(x=st.one_of(ints, polys))
@settings(max_examples=80, deadline=None)
def test_serialization_round_trip(x):
    assert element_from_json(element_to_json(x)) == x


def test_serialization_forms():
    assert element_to_json(Integer(-42)) == "-42"
    assert element_to_json(P(1, 0, -3)) == ["1", "0", "-3"]
    assert element_to_json(Poly()) == []
    assert element_from_json("17") == Integer(17)
    assert element_from_json(["0", "1"]) == Poly.variable()


def test_as_element():
    assert as_element(5) == Integer(5)
    assert as_element(Poly.variable()) == Poly.variable()
    with pytest.raises(TypeError):
        as_element(1.5)


def test_evaluate():
    p = (P(-1, 1) ** 3) * Poly.variable()
    for v in (-3, 0, 2, 10):
        assert p.evaluate(v) == (v - 1) ** 3 * v


def test_evaluate_refuses_what_is_not_exactly_an_int():
    # the one integer rule: a bool is not the point 1, nor a float a point
    class Sub(int):
        pass

    for p in (Poly((1, 2)), Poly(), Poly((5,))):
        for v in (True, False, 0.5, 2.0, Sub(2)):
            with pytest.raises(TypeError, match=f"^v must be an int, got {v!r}$"):
                p.evaluate(v)
