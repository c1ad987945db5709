import math
import pickle
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
    factorial,
    falling_factorial,
    format_rational,
    parse_rational,
    product_sum,
    reduced,
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
        terms = [((c, v), ()) for c, v in zip(signed_binomial_row(8), values)]
        assert product_sum(terms) == row[0]

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


# -- the one integer-pair constructor ----------------------------------------

_wide = st.integers(min_value=-(2**256), max_value=2**256)


class TestReducedConstructor:
    """``reduced(p, q)`` fills a bare ``Fraction``'s two slots itself, so it
    is checked against ``Fraction(p, q)`` on everything a caller can see."""

    @given(_wide | st.just(0), _wide.filter(bool))
    def test_matches_the_fraction_constructor(self, p, q):
        got, want = reduced(p, q), F(p, q)
        assert type(got) is F
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert type(got.numerator) is int and type(got.denominator) is int
        assert hash(got) == hash(want)
        assert got == want and want == got
        assert repr(got) == repr(want)
        back = pickle.loads(pickle.dumps(got))
        assert type(back) is F and back == want
        _assert_canonical(got)

    def test_fraction_has_the_two_slots_it_fills(self):
        # ``reduced`` fills these slots and ``product_sum`` reads them: a
        # CPython that lays out ``Fraction`` otherwise must fail here
        assert F.__slots__ == ("_numerator", "_denominator")

    @given(_wide)
    def test_a_zero_denominator_is_a_zero_division_error(self, p):
        with pytest.raises(ZeroDivisionError) as got:
            reduced(p, 0)
        with pytest.raises(ZeroDivisionError) as want:
            F(p, 0)
        assert type(got.value) is ZeroDivisionError
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "bad", [1.0, 0.5, 0.0, F(1, 2), F(3), "1", "1/2"],
        ids=["integral-float", "float", "zero-float", "fraction", "integral-fraction",
             "str", "str-ratio"],
    )
    def test_a_non_int_argument_is_a_type_error(self, bad):
        # the type is checked before the zero, so (2, 0.0) is a TypeError too
        for args in ((bad, 2), (2, bad), (bad, bad)):
            with pytest.raises(TypeError):
                reduced(*args)


# -- the exact sum of products and quotients ----------------------------------

_ints = st.integers(min_value=-(10**30), max_value=10**30)
_scalars = st.one_of(_ints, _rationals)


class _Int(int):
    pass


class _Fraction(F):
    pass


class _Float(float):
    pass


# Exact values that are not exactly int or Fraction, so product_sum reads
# them through ``_ratio`` rather than inline.
_subclassed = st.one_of(
    st.booleans(),
    _ints.map(_Int),
    _rationals.map(lambda v: _Fraction(v.numerator, v.denominator)),
)

_nonzero_scalars = (_scalars | _subclassed).filter(lambda v: v != 0)
_terms = st.lists(
    st.tuples(st.lists(_scalars | _subclassed, max_size=4),
              st.lists(_nonzero_scalars, max_size=3)),
    max_size=12,
)


_wide_factors = st.one_of(
    _wide, st.builds(F, _wide, _wide.filter(bool)), st.booleans(),
)
_wide_terms = st.lists(
    st.tuples(st.lists(_wide_factors, max_size=4),
              st.lists(_wide_factors.filter(bool), max_size=3)),
    max_size=12,
)


def _oracle_product_sum(terms):
    total = F(0)
    for up, down in terms:
        term = F(1)
        for f in up:
            term *= f
        for f in down:
            term /= f
        total += term
    return total


def _pair_terms(coeffs, values):
    """sum c * v as product_sum terms, one (c, v) product per pair."""
    return [((c, v), ()) for c, v in zip(coeffs, values)]


def _assert_canonical(v):
    assert type(v) is F
    assert v.denominator > 0
    assert math.gcd(abs(v.numerator), v.denominator) == 1


class TestProductSum:
    @given(_terms)
    def test_matches_the_fraction_sum(self, terms):
        got = product_sum(terms)
        assert got == _oracle_product_sum(terms)
        _assert_canonical(got)

    @given(_wide_terms)
    def test_matches_the_fraction_sum_at_any_size(self, terms):
        # the one pass over a running lcm, against the term-by-term sum, on
        # values of both signs up to 2**256, bools and empty factor lists
        got = product_sum(terms)
        assert got == _oracle_product_sum(terms)
        _assert_canonical(got)

    @given(_wide_terms.filter(bool), st.data())
    def test_a_zero_divisor_anywhere_is_a_zero_division_error(self, terms, data):
        i = data.draw(st.integers(0, len(terms) - 1), label="term")
        up, down = terms[i]
        j = data.draw(st.integers(0, len(down)), label="place")
        zero = data.draw(st.sampled_from([0, F(0), False, _Int(0)]), label="zero")
        terms[i] = (up, [*down[:j], zero, *down[j:]])
        with pytest.raises(ZeroDivisionError) as exc:
            product_sum(terms)
        assert type(exc.value) is ZeroDivisionError

    @given(_wide_terms, st.data())
    def test_a_float_anywhere_is_refused_by_name(self, terms, data):
        terms = terms + [((), ())]
        i = data.draw(st.integers(0, len(terms) - 1), label="term")
        side = data.draw(st.integers(0, 1), label="side")
        factors = list(terms[i][side])
        j = data.draw(st.integers(0, len(factors)), label="place")
        factors.insert(j, data.draw(st.floats(), label="float"))
        terms[i] = (factors, terms[i][1]) if side == 0 else (terms[i][0], factors)
        with pytest.raises(TypeError, match="^product_sum needs ints or Fractions, got float$"):
            product_sum(terms)

    @given(st.lists(st.tuples(_scalars | _subclassed, _scalars | _subclassed), max_size=40))
    def test_matches_the_fraction_sum_of_pair_products(self, pairs):
        got = product_sum(((c, v), ()) for c, v in pairs)
        assert got == sum((c * v for c, v in pairs), F(0))
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
    def test_fraction_factors_with_unreduced_denominator_products(self, quads):
        # Denominators that share factors make the term denominators'
        # product far larger than their lcm.
        terms = _pair_terms([F(a, b * 6) for a, b, _, _ in quads],
                            [F(c, d * 10) for _, _, c, d in quads])
        got = product_sum(terms)
        assert got == _oracle_product_sum(terms)
        _assert_canonical(got)

    @given(st.lists(st.tuples(st.integers(-5, 5), _rationals), max_size=30))
    def test_zero_and_negative_int_factors(self, pairs):
        terms = [((c, v), ()) for c, v in pairs]
        assert product_sum(terms) == _oracle_product_sum(terms)

    def test_negative_and_fraction_divisors(self):
        assert product_sum([((3,), (-4,))]) == F(-3, 4)
        assert product_sum([((F(1, 2),), (F(-3, 4),))]) == F(-2, 3)
        # two terms over -1 and 1: a negative denominator is not a 1
        assert product_sum([((F(-1),), ()), ((1, F(-1)), (F(-1),))]) == 0
        assert product_sum([((5,), (F(-1, 2), 3)), ((1,), (6,))]) == F(-19, 6)

    def test_empty_is_zero(self):
        # no terms, a term with a zero factor, and terms that cancel: each
        # the canonical 0/1
        for terms in ([], iter([]), [((0, F(7, 3)), (F(1, 9),))],
                      _pair_terms([1, -1, 2], [F(1, 3), F(1, 3), F(0)])):
            got = product_sum(terms)
            assert (type(got), got.numerator, got.denominator) == (F, 0, 1)

    def test_mixed_ints_and_fractions(self):
        assert product_sum(_pair_terms([2, F(1, 2), 3], [F(1, 4), 6, 5])) == F(37, 2)

    def test_accepts_iterators(self):
        terms = (((k, F(1, k + 1)), (2,)) for k in range(1, 4))
        assert product_sum(terms) == F(1, 4) + F(1, 3) + F(3, 8)
        assert product_sum([(iter([1, 2]), iter([F(1, 3)]))]) == 6

    @pytest.mark.parametrize(
        "bad, name",
        [
            (0.5, "float"), (1.0, "float"), ("1/2", "str"), (None, "NoneType"),
            (Decimal("0.5"), "Decimal"), (CertifiedReal(1.0, 0.0), "CertifiedReal"),
            (_Float(0.5), "_Float"),
        ],
        ids=["float", "integral-float", "str", "none", "decimal", "certified",
             "float-subclass"],
    )
    def test_inexact_factors_are_refused_by_name(self, bad, name):
        # float and Decimal have as_integer_ratio() too; the type check in
        # front of it must still refuse them, in any place of a term
        message = f"^product_sum needs ints or Fractions, got {name}$"
        for terms in ([((bad,), ())], [((2,), (bad,))], [((F(1, 2),), ()), ((1, bad), (3,))],
                      _pair_terms([1, 2], [F(1, 2), bad]), _pair_terms([bad, 2], [F(1, 2), 3])):
            with pytest.raises(TypeError, match=message):
                product_sum(terms)

    @pytest.mark.parametrize("zero", [0, F(0), _Int(0)],
                             ids=["int", "fraction", "int-subclass"])
    def test_a_zero_divisor_is_a_zero_division_error(self, zero):
        # a bug in the row, never a DomainError that would skip the case; the
        # running scale turns 0 and stays 0, so the final ``reduced`` raises
        for terms in ([((1,), (zero,))], [((1,), (2,)), ((F(1, 3),), (5, zero))]):
            with pytest.raises(ZeroDivisionError) as exc:
                product_sum(terms)
            assert type(exc.value) is ZeroDivisionError


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
