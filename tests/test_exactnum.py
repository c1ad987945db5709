import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperseq.analytic import CertifiedReal
from hyperseq.exactnum import (
    MEMO_CAP,
    binomial_general,
    binomial_int,
    dot,
    factorial,
    falling_factorial,
    format_rational,
    parse_rational,
    rising_factorial,
    signed_binomial_row,
)

F = Fraction


class TestRendering:
    @pytest.mark.parametrize(
        "value,text",
        [(F(3, 2), "3/2"), (F(-1, 2), "-1/2"), (F(5), "5"), (F(0), "0")],
    )
    def test_format(self, value, text):
        assert format_rational(value) == text

    def test_format_past_the_digit_limit(self):
        # str(int) refuses more than 4,300 digits by default
        big = 10**5000 + 7
        assert format_rational(F(-big)) == "-1" + "0" * 4999 + "7"
        assert format_rational(F(3, big)) == "3/1" + "0" * 4999 + "7"

    @pytest.mark.parametrize("text", ["3/2", "-1/2", "+7/3", "5", "-12", "0"])
    def test_parse_roundtrip(self, text):
        v = parse_rational(text)
        assert parse_rational(format_rational(v)) == v

    @pytest.mark.parametrize("text", ["", "1.5", "3/-2", "1/2/3", "a", " 1", "1 "])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)


class TestFactorials:
    def test_rising_int(self):
        assert rising_factorial(2, 3) == 24

    def test_rising_empty(self):
        assert rising_factorial(F(7, 3), 0) == 1

    def test_rising_half(self):
        assert rising_factorial(F(1, 2), 2) == F(3, 4)

    def test_falling_int(self):
        assert falling_factorial(5, 2) == 20

    @pytest.mark.parametrize("n", range(6))
    def test_falling_zero_factor(self, n):
        assert falling_factorial(n, n + 1) == 0

    def test_falling_half(self):
        assert falling_factorial(F(1, 2), 2) == F(-1, 4)

    def test_rising_is_shifted_falling(self):
        for x in (F(1, 2), F(-3, 7), F(5), F(22, 3)):
            for n in range(21):
                assert rising_factorial(x, n) == falling_factorial(x + n - 1, n)

    def test_factorial_beyond_memo_cap(self):
        assert factorial(300) % factorial(299) == 0

    def test_factorial_is_the_product(self):
        for n in range(301):
            assert factorial(n) == math.prod(range(1, n + 1))


class TestBinomials:
    def test_int_examples(self):
        assert binomial_int(4, 2) == 6
        assert binomial_int(3, 5) == 0
        assert binomial_int(7, 0) == 1
        assert binomial_int(4, -1) == 0

    def test_general_examples(self):
        assert binomial_general(4, 2) == 6
        assert binomial_general(F(3, 2), 2) == F(3, 8)
        assert binomial_general(F(11, 7), 0) == 1

    def test_negative_upper_matches_general(self):
        for n in range(-12, 0):
            for k in range(0, 12):
                assert binomial_int(n, k) == binomial_general(n, k)

    @pytest.mark.parametrize("tops", [range(-300, 0), range(0, 301)],
                             ids=["negative", "non-negative"])
    def test_int_matches_general(self, tops):
        # k runs from -1 to just past |n|, where the top row ends for n >= 0
        for n in tops:
            assert binomial_int(n, -1) == 0
            for k in range(abs(n) + 3):
                assert binomial_int(n, k) == binomial_general(n, k)

    def test_pascal_rule(self):
        for n in range(64):
            for r in range(n + 2):
                assert binomial_int(n + 1, r) == binomial_int(n, r - 1) + binomial_int(n, r)

    def test_absorption(self):
        # (k+r)/r * C(k+r-1, r-1) = C(k+r, r)
        for r in range(1, 13):
            for k in range(41):
                assert F(k + r, r) * binomial_int(k + r - 1, r - 1) == binomial_int(k + r, r)

    def test_parallel_summation(self):
        # sum_{k<=n} C(k+r-1, k) = C(n+r, n)
        for r in range(1, 13):
            acc = 0
            for n in range(41):
                acc += binomial_int(n + r - 1, n)
                assert acc == binomial_int(n + r, n)

    def test_hockey_stick(self):
        for n in range(41):
            for i in range(n + 1):
                assert sum(binomial_int(k, i) for k in range(i, n + 1)) == binomial_int(
                    n + 1, i + 1
                )


class TestSignedBinomialRow:
    def test_matches_list_comprehension(self):
        # both sides of the memo cap
        for k in range(MEMO_CAP + 4):
            row = signed_binomial_row(k)
            assert isinstance(row, tuple)
            assert row == tuple(
                [(-1) ** (k - i) * binomial_int(k, i) for i in range(k + 1)]
            )

    def test_is_the_kth_difference(self):
        values = [F(1, i + 1) for i in range(9)]
        row = values
        for _ in range(8):
            row = [b - a for a, b in zip(row, row[1:])]
        assert dot(signed_binomial_row(8), values) == row[0]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            signed_binomial_row(-1)


_rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=999
)


class TestReducedClosure:
    @given(_rationals, _rationals)
    def test_ops_stay_reduced(self, a, b):
        import math

        for v in (a + b, a - b, a * b):
            assert v.denominator > 0
            assert math.gcd(abs(v.numerator), v.denominator) == 1
        if b != 0:
            q = a / b
            assert q.denominator > 0
            assert math.gcd(abs(q.numerator), q.denominator) == 1


# -- the exact dot product ---------------------------------------------------

_ints = st.integers(min_value=-(10**30), max_value=10**30)
_scalars = st.one_of(_ints, _rationals)


class _Int(int):
    pass


class _Fraction(F):
    pass


class _Float(float):
    pass


# Exact values that are not exactly int or Fraction, so dot reads them on
# its mixed path rather than its int-times-Fraction one.
_subclassed = st.one_of(
    st.booleans(),
    _ints.map(_Int),
    _rationals.map(lambda v: _Fraction(v.numerator, v.denominator)),
)


def _oracle_dot(coeffs, values):
    return sum((c * v for c, v in zip(coeffs, values)), F(0))


def _assert_canonical(v):
    assert type(v) is F
    assert v.denominator > 0
    assert math.gcd(abs(v.numerator), v.denominator) == 1


class TestDot:
    @given(st.lists(st.tuples(_scalars | _subclassed, _scalars | _subclassed), max_size=40))
    def test_matches_fraction_sum(self, pairs):
        coeffs = [c for c, _ in pairs]
        values = [v for _, v in pairs]
        got = dot(coeffs, values)
        assert got == _oracle_dot(coeffs, values)
        _assert_canonical(got)

    @given(
        st.lists(
            st.tuples(
                st.integers(-50, 50),
                st.integers(1, 10**6),
                st.integers(-50, 50),
                st.integers(1, 10**6),
            ),
            max_size=25,
        )
    )
    def test_fraction_coefficients_with_unreduced_denominator_products(self, quads):
        # Denominators that share factors make the term denominators'
        # product far larger than their lcm.
        coeffs = [F(a, b * 6) for a, b, _, _ in quads]
        values = [F(c, d * 10) for _, _, c, d in quads]
        got = dot(coeffs, values)
        assert got == _oracle_dot(coeffs, values)
        _assert_canonical(got)

    @given(st.lists(st.tuples(st.integers(-5, 5), _rationals), max_size=30))
    def test_zero_and_negative_int_coefficients(self, pairs):
        coeffs = [c for c, _ in pairs]
        values = [v for _, v in pairs]
        assert dot(coeffs, values) == _oracle_dot(coeffs, values)

    def test_empty_is_zero(self):
        got = dot([], [])
        assert got == 0
        _assert_canonical(got)

    def test_cancels_to_canonical_zero(self):
        got = dot([1, -1, 2], [F(1, 3), F(1, 3), F(0)])
        assert (got.numerator, got.denominator) == (0, 1)

    def test_mixed_ints_and_fractions(self):
        assert dot([2, F(1, 2), 3], [F(1, 4), 6, 5]) == F(37, 2)

    def test_accepts_iterators(self):
        assert dot(iter([1, 2]), (F(1, 2), F(1, 3))) == F(7, 6)

    @pytest.mark.parametrize(
        "coeffs,values", [([1, 2], [F(1)]), ([1], [F(1), F(2)]), ([], [F(1)])]
    )
    def test_length_mismatch(self, coeffs, values):
        with pytest.raises(ValueError):
            dot(coeffs, values)

    @pytest.mark.parametrize(
        "bad",
        [
            0.5, 1.0, CertifiedReal(1.0, 0.0), "1/2", None,
            pytest.param(_Float(0.5), id="float-subclass"),
            pytest.param(Decimal("0.5"), id="decimal"),
        ],
    )
    def test_inexact_inputs_rejected(self, bad):
        # float and Decimal have as_integer_ratio() too; the type check
        # in front of it must still refuse them
        with pytest.raises(TypeError):
            dot([1, 2], [F(1, 2), bad])
        with pytest.raises(TypeError):
            dot([1, 2], [bad, 3])
        with pytest.raises(TypeError):
            dot([bad, 2], [F(1, 2), 3])


# -- integer-product factorials against the plain loop definitions ----------


def _loop_rising(x, n):
    x = F(x)
    out = F(1)
    for i in range(n):
        out *= x + i
    return out


def _loop_falling(x, n):
    x = F(x)
    out = F(1)
    for i in range(n):
        out *= x - i
    return out


def _loop_binomial_general(x, n):
    return _loop_falling(x, n) / math.factorial(n)


_upper = st.one_of(st.integers(-40, 40), _rationals)


class TestFactorialOracles:
    @given(_upper, st.integers(0, 30))
    def test_rising(self, x, n):
        got = rising_factorial(x, n)
        assert got == _loop_rising(x, n)
        _assert_canonical(got)

    @given(_upper, st.integers(0, 30))
    def test_falling(self, x, n):
        got = falling_factorial(x, n)
        assert got == _loop_falling(x, n)
        _assert_canonical(got)

    @given(_upper, st.integers(0, 30))
    def test_binomial_general(self, x, n):
        got = binomial_general(x, n)
        assert got == _loop_binomial_general(x, n)
        _assert_canonical(got)

    @pytest.mark.parametrize("x", [0, 1, -1, -7, F(0), F(-5, 3), F(7, 2)])
    def test_empty_products(self, x):
        assert rising_factorial(x, 0) == 1
        assert falling_factorial(x, 0) == 1
        assert binomial_general(x, 0) == 1

    def test_negative_integer_arguments(self):
        for x in range(-10, 0):
            for n in range(12):
                assert rising_factorial(x, n) == _loop_rising(x, n)
                assert falling_factorial(x, n) == _loop_falling(x, n)
                assert binomial_general(x, n) == binomial_int(x, n)

    @pytest.mark.parametrize(
        "fn", [rising_factorial, falling_factorial, binomial_general]
    )
    def test_negative_order_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(F(1, 2), -1)

    @pytest.mark.parametrize(
        "fn", [rising_factorial, falling_factorial, binomial_general]
    )
    def test_negative_order_message_names_the_function(self, fn):
        with pytest.raises(ValueError, match=f"^{fn.__name__} needs n >= 0$"):
            fn(3, -1)
