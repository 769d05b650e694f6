import decimal
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from exactdet.condense import condensation_det
from exactdet.matrix import Matrix, parse_matrix
from exactdet.ring import (
    DEFAULT_TOLERANCE,
    REALS,
    ApproxReal,
    DivisionByZero,
    ExactInteger,
    ExactRational,
    InexactDivision,
    Polynomial,
    RingMismatch,
    format_scalar,
    native_ring,
    pack_polynomial,
    parse_scalar,
    unpack_polynomial,
)


def poly(*coeffs):
    return Polynomial(coeffs)


class TestAdd:
    def test_integers(self):
        assert ExactInteger(2) + ExactInteger(3) == ExactInteger(5)

    def test_rationals_lowest_terms(self):
        s = ExactRational(1, 2) + ExactRational(1, 3)
        assert s == ExactRational(5, 6)
        assert s.value.denominator == 6

    def test_polynomial_cancellation_trims(self):
        s = poly(1, 0, 1) + poly(0, 0, -1)
        assert s == poly(1)
        assert s.degree == 0

    def test_mismatch(self):
        with pytest.raises(RingMismatch):
            ExactInteger(1) + ExactRational(1, 2)
        with pytest.raises(RingMismatch):
            poly(1) + ExactInteger(1)


class TestMul:
    def test_integers(self):
        assert ExactInteger(4) * ExactInteger(1) == ExactInteger(4)

    def test_monomials(self):
        assert poly(0, 1) * poly(0, 1) == poly(0, 0, 1)

    def test_product_against_convolution_oracle(self):
        # brute-force convolution, independent of Polynomial.__mul__
        cases = [
            ([-1, 0, 1], [1, 1], [-1, -1, 1, 1]),  # (x^2 - 1) and (x + 1)
            ([3], [1, -2, 0, 5], [3, -6, 0, 15]),  # a constant times a polynomial
            ([Fraction(1, 2)], [2, 1], [1, Fraction(1, 2)]),
        ]
        for a, b, expected in cases:
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
            assert out == expected
            assert poly(*a) * poly(*b) == poly(*expected)
            assert poly(*b) * poly(*a) == poly(*expected)


class TestSub:
    def test_integers(self):
        assert ExactInteger(10) - ExactInteger(-4) == ExactInteger(14)

    def test_zero(self):
        assert (ExactInteger(5) - ExactInteger(5)).is_zero()

    def test_polynomials(self):
        assert poly(0, 0, 0, 1) - poly(0, 0, 0, 1) == Polynomial()

    def test_rationals(self):
        d = ExactRational(1, 2) - ExactRational(5, 6)
        assert d == ExactRational(-1, 3)
        assert d.value.denominator == 3

    def test_mismatch(self):
        with pytest.raises(RingMismatch):
            ExactInteger(1) - ExactRational(1, 2)
        with pytest.raises(RingMismatch):
            ApproxReal(1.0) - ExactInteger(1)
        with pytest.raises(RingMismatch):
            poly(1) - ExactRational(1)


class TestExactDiv:
    def test_integers(self):
        assert ExactInteger(14).exact_div(ExactInteger(1)) == ExactInteger(14)
        assert ExactInteger(-48).exact_div(ExactInteger(3)) == ExactInteger(-16)

    def test_zero_numerator(self):
        assert ExactInteger(0).exact_div(ExactInteger(7)) == ExactInteger(0)

    def test_polynomial_quotient(self):
        # (x^4 - 2x^2) / x = x^3 - 2x
        assert poly(0, 0, -2, 0, 1).exact_div(poly(0, 1)) == poly(0, -2, 0, 1)

    def test_inexact_integer(self):
        with pytest.raises(InexactDivision):
            ExactInteger(7).exact_div(ExactInteger(2))

    def test_inexact_polynomial(self):
        with pytest.raises(InexactDivision):
            poly(1, 0, 1).exact_div(poly(0, 1))

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZero):
            ExactInteger(1).exact_div(ExactInteger(0))
        with pytest.raises(DivisionByZero):
            poly(1).exact_div(Polynomial())
        with pytest.raises(DivisionByZero):
            ExactRational(1).exact_div(ExactRational(0))

    def test_real_below_tolerance_counts_as_zero(self):
        with pytest.raises(DivisionByZero):
            ApproxReal(1.0).exact_div(ApproxReal(1e-10))

    def test_real_plain_division(self):
        q = ApproxReal(1.0).exact_div(ApproxReal(4.0))
        assert q.value == 0.25

    def test_polynomial_quotient_over_the_rationals(self):
        assert poly(1).exact_div(poly(2)) == poly(Fraction(1, 2))
        assert poly(0, 3, 1).exact_div(poly(0, 2)) == poly(Fraction(3, 2), Fraction(1, 2))


class TestIsZero:
    def test_integer(self):
        assert ExactInteger(0).is_zero()
        assert not ExactInteger(-1).is_zero()

    def test_real_tolerance(self):
        assert ApproxReal(1e-10).is_zero()
        assert not ApproxReal(1e-9).is_zero()
        assert not ApproxReal(1e-8).is_zero()

    @given(x=st.floats(allow_infinity=True, allow_nan=True))
    @example(x=0.0)
    @example(x=-0.0)
    @example(x=5e-324)
    @example(x=1e-300)
    @example(x=-1e-9)
    def test_real_zero_rule(self, x):
        # below the tolerance in magnitude, an exact 0.0 included
        is_zero = abs(x) < DEFAULT_TOLERANCE
        assert ApproxReal(x).is_zero() == is_zero
        assert REALS.is_zero(x) == is_zero
        if is_zero:
            with pytest.raises(DivisionByZero, match="real division by"):
                ApproxReal(1.0).exact_div(ApproxReal(x))
        else:
            ApproxReal(x).exact_div(ApproxReal(x))

    def test_polynomial(self):
        assert not poly(0, 1).is_zero()
        assert Polynomial().is_zero()


class TestOneRealRing:
    def test_approx_real_takes_one_argument(self):
        with pytest.raises(TypeError):
            ApproxReal(1.0, 1e-6)
        with pytest.raises(TypeError):
            ApproxReal(1.0, tolerance=0.0)
        # the repr still names the one tolerance
        assert repr(ApproxReal(1.75)) == "ApproxReal(1.75, tolerance=1e-09)"

    def test_every_real_matrix_is_over_reals(self):
        built = Matrix([[ApproxReal(1e-10), ApproxReal(1e300)], [ApproxReal(-0.0), ApproxReal(2.5)]])
        parsed = parse_matrix("1.0 2.0 3.0\n4.0 1e-10 6.0\n7.0 8.0 10.0\n")
        assert built.native_ring is REALS
        assert parsed.native_ring is REALS
        assert native_ring([[ApproxReal(1e-12)], [ApproxReal(1e12)]]) is REALS


class TestNeg:
    def test_integer(self):
        assert -ExactInteger(163) == ExactInteger(-163)
        assert -ExactInteger(0) == ExactInteger(0)

    def test_polynomial(self):
        assert -poly(0, -2, 0, 1) == poly(0, 2, 0, -1)


ints = st.integers(min_value=-50, max_value=50)
nonzero_ints = ints.filter(lambda v: v != 0)
rationals = st.builds(ExactRational, ints, nonzero_ints)
coefficients = st.one_of(ints, st.fractions(-50, 50, max_denominator=6))
small_polys = st.lists(coefficients, min_size=0, max_size=4).map(Polynomial)


@given(a=ints, b=nonzero_ints)
def test_integer_div_roundtrip(a, b):
    prod = ExactInteger(a * b)
    assert prod.exact_div(ExactInteger(b)) * ExactInteger(b) == prod


@given(a=rationals, b=rationals.filter(lambda r: not r.is_zero()))
def test_rational_div_roundtrip_and_canonical_form(a, b):
    q = a.exact_div(b)
    assert q * b == a
    assert q.value.denominator > 0
    assert math.gcd(q.value.numerator, q.value.denominator) == 1


@given(p=small_polys, q=small_polys.filter(lambda p: not p.is_zero()))
def test_polynomial_div_roundtrip(p, q):
    prod = p * q
    assert prod.exact_div(q) * q == prod


@given(
    coeffs=st.lists(st.integers(-(2**11), 2**11 - 1), max_size=6),
    width=st.integers(12, 70),
    scale=st.integers(1, 9),
)
@example(coeffs=[-(2**11), 2**11 - 1, -1, 0, 1], width=12, scale=1)
def test_packed_polynomial_round_trip(coeffs, width, scale):
    # balanced digits read back every coefficient in [-2^(width-1), 2^(width-1))
    packed = pack_polynomial(coeffs, width)
    assert packed == sum(c << (k * width) for k, c in enumerate(coeffs))
    expected = Polynomial([Fraction(c, scale) for c in coeffs])
    assert unpack_polynomial(packed, width, scale) == expected
    assert (packed == 0) == expected.is_zero()


@given(data=st.data(), width=st.integers(2, 5), scale=st.integers(1, 9))
def test_packed_polynomial_round_trip_at_small_widths(data, width, scale):
    # every balanced digit of the width, down to width 2's -2, -1, 0 and 1
    half = 1 << (width - 1)
    coeffs = data.draw(st.lists(st.integers(-half, half - 1), max_size=6))
    packed = pack_polynomial(coeffs, width)
    assert unpack_polynomial(packed, width, scale) == Polynomial([Fraction(c, scale) for c in coeffs])


@pytest.mark.parametrize("width", [1, 0, -3])
def test_packing_width_below_2_raises(width):
    # at width 1, unpacking 1 once looped forever
    with pytest.raises(ValueError, match="width must be at least 2"):
        unpack_polynomial(1, width)
    with pytest.raises(ValueError, match="width must be at least 2"):
        pack_polynomial([1], width)


@given(p=small_polys.filter(lambda p: not p.is_zero()),
       q=small_polys.filter(lambda p: not p.is_zero()))
def test_degree_law(p, q):
    assert (p * q).degree == p.degree + q.degree


@given(a=st.one_of(ints.map(ExactInteger), rationals, small_polys,
                   st.floats(-1e6, 1e6).map(ApproxReal)))
def test_self_subtraction_is_zero(a):
    assert (a - a).is_zero()


reals = st.builds(ApproxReal, st.floats(-1e6, 1e6))


@given(pair=st.one_of(
    st.tuples(ints.map(ExactInteger), ints.map(ExactInteger)),
    st.tuples(rationals, rationals),
    st.tuples(reals, reals),
    st.tuples(small_polys, small_polys),
))
def test_subtraction_is_adding_the_negation(pair):
    a, b = pair
    d, s = a - b, a + (-b)
    assert type(d) is type(s)
    assert d == s
    if isinstance(d, ApproxReal):
        assert math.copysign(1.0, d.value) == math.copysign(1.0, s.value)


class TestEquality:
    def test_rings_never_equal(self):
        ones = [ExactInteger(1), ExactRational(1), ApproxReal(1.0), poly(1)]
        for i, a in enumerate(ones):
            for j, b in enumerate(ones):
                assert (a == b) == (i == j)
                assert (a != b) == (i != j)

    def test_equal_values_hash_equal(self):
        assert hash(ExactRational(2, 4)) == hash(ExactRational(1, 2))
        assert hash(ApproxReal(0.5)) == hash(ApproxReal(2.0).exact_div(ApproxReal(4.0)))
        assert len({ExactInteger(3), ExactInteger(3), poly(3), poly(3)}) == 2

    @given(pair=st.one_of(
        st.tuples(ints.map(ExactInteger), ints.map(ExactInteger)),
        st.tuples(rationals, rationals),
        st.tuples(reals, reals),
        st.tuples(small_polys, small_polys),
    ))
    def test_equal_scalars_hash_equal(self, pair):
        a, b = pair
        if a == b:
            assert hash(a) == hash(b)
        assert a * b == b * a
        assert hash(a * b) == hash(b * a)


class TestText:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("5", ExactInteger(5)),
            ("-17", ExactInteger(-17)),
            ("+3", ExactInteger(3)),
            ("-3/6", ExactRational(-1, 2)),
            ("2.5", ApproxReal(2.5)),
            ("1e-3", ApproxReal(0.001)),
        ],
    )
    def test_parse(self, token, expected):
        assert parse_scalar(token) == expected

    def test_parse_rejects_garbage(self):
        for bad in ("abc", "1/0", "2.5.1", "1//2"):
            with pytest.raises(ValueError):
                parse_scalar(bad)

    @pytest.mark.parametrize("length", [1, 5000], ids=["short", "past-4300-digits"])
    @pytest.mark.parametrize("token", ["1/ {}", "1 /{}", "1/{} 2", "- {}/3", "{} 2/3"])
    def test_parse_rejects_inner_whitespace_in_a_rational(self, token, length):
        # int() strips the spaces around a part of a rational, but only up
        # to the interpreter's digit limit
        token = token.format("2" * length)
        with pytest.raises(ValueError, match="^bad rational token"):
            parse_scalar(token)

    @pytest.mark.parametrize(
        "token", ["1e400", "-1e400", "1" * 400 + ".0"], ids=["1e400", "-1e400", "400-digit"]
    )
    def test_parse_rejects_reals_no_double_holds(self, token):
        with pytest.raises(ValueError, match="bad real token"):
            parse_scalar(token)

    @pytest.mark.parametrize(
        "value",
        [10**5000, -(10**4300), 3**20000 + 7, -(2**30000) // 3, 10**4299 + 1],
        ids=["10^5000", "-10^4300", "3^20000+7", "-2^30000/3", "10^4299+1"],
    )
    def test_integers_beyond_str_digit_limit(self, value):
        # the interpreter's int/str conversion limit is 4300 digits by default
        text = str(decimal.Decimal(value))
        assert format_scalar(ExactInteger(value)) == text
        assert parse_scalar(text) == ExactInteger(value)
        q = ExactRational(value, 7 * 10**4400 + 1)
        q_text = f"{decimal.Decimal(q.value.numerator)}/{decimal.Decimal(q.value.denominator)}"
        assert format_scalar(q) == q_text
        assert parse_scalar(q_text) == q

    @pytest.mark.parametrize("case", ["rational-det", "integer", "polynomial"])
    def test_reprs_beyond_str_digit_limit(self, case):
        # repr converts in halves too, as format_scalar does
        d = 10**4400 + 1
        digits = lambda v: str(decimal.Decimal(v))
        if case == "rational-det":
            a = Matrix([[ExactRational(1, d), ExactRational(2)], [ExactRational(3), ExactRational(5, d)]])
            det, _ = condensation_det(a)
            assert repr(det) == f"ExactRational({digits(5 - 6 * d * d)}, {digits(d * d)})"
        elif case == "integer":
            assert repr(ExactInteger(10**5000)) == f"ExactInteger({digits(10**5000)})"
        else:
            assert repr(Polynomial([Fraction(1, d)])) == f"Polynomial([Fraction(1, {digits(d)})])"

    @pytest.mark.parametrize(
        "scalar,text",
        [
            (ExactInteger(-82), "-82"),
            (ExactRational(5), "5/1"),
            (ExactRational(Fraction(-3, 4)), "-3/4"),
            (ApproxReal(2.0), "2.0"),
        ],
    )
    def test_format(self, scalar, text):
        assert format_scalar(scalar) == text

    @given(a=st.one_of(ints.map(ExactInteger), rationals))
    def test_round_trip_exact(self, a):
        assert parse_scalar(format_scalar(a)) == a

    def test_polynomial_str(self):
        assert str(poly(0, -2, 0, 1)) == "x^3 - 2*x"
        assert str(poly(-1, 0, 1)) == "x^2 - 1"
        assert str(Polynomial()) == "0"
        assert str(poly(Fraction(1, 2))) == "1/2"


class TestPolynomialCoefficients:
    def test_integral_coefficients_are_ints(self):
        p = Polynomial([Fraction(4, 2), Fraction(-3, 1), True, 0.5])
        assert p.coeffs == (2, -3, 1, Fraction(1, 2))
        assert [type(c) for c in p.coeffs] == [int, int, int, Fraction]

    def test_integer_arithmetic_stays_int(self):
        p = (poly(1, -2, 3) * poly(0, 1) - poly(4)) + -poly(1, 1)
        q = (p * poly(-3, 2)).exact_div(poly(-3, 2))
        assert q == p
        assert all(type(c) is int for c in p.coeffs + q.coeffs)

    def test_repr_prints_fractions(self):
        assert repr(Polynomial([0, 1])) == "Polynomial([Fraction(0, 1), Fraction(1, 1)])"
        assert repr(poly(Fraction(-1, 2), 0, 3)) == (
            "Polynomial([Fraction(-1, 2), Fraction(0, 1), Fraction(3, 1)])"
        )
        assert repr(Polynomial()) == "Polynomial([])"

    def test_value_semantics_ignore_coefficient_type(self):
        built = poly(1, 2)
        assert poly(Fraction(2, 2), Fraction(6, 3)) == built
        half = poly(Fraction(1, 2), 1)
        summed = half + half  # Q[x] arithmetic may leave integral Fractions
        assert type(summed.coeffs[0]) is Fraction
        assert summed == built and built == summed
        assert hash(summed) == hash(built)
        assert repr(summed) == repr(built)
        assert str(summed) == str(built)
        assert len({summed, built}) == 1
