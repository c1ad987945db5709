"""The integer kernels against the per-term Fraction loops they replaced.

Each ``old_*`` function below is the earlier implementation, kept here
as an oracle: it adds one ``Fraction`` at a time, so it shares no
arithmetic with the kernel under test.
"""

import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperseq import identities
from hyperseq.analytic import CertifiedReal
from hyperseq.errors import ComputationIntegrityError, DomainError
from hyperseq.exactnum import (
    binomial_general,
    binomial_int,
    derivative_at_zero,
    falling_factorial,
    format_rational,
    over_common_denominator,
    rising_factorial,
)
from hyperseq.opcalc import (
    PowerSeries,
    binomial_transform,
    dx_reciprocal_rising,
    forward_difference,
    geom_power_series,
    gf_hyperharmonic,
    inverse_binomial_transform,
    leaping_binomial,
    log_series,
)
from hyperseq.sequences import (
    HyperharmonicMethod,
    alpha,
    beta,
    fibonacci,
    gen_harmonic,
    harmonic,
    hyperharmonic,
    hyperharmonic_half_integer_alt,
    hyperharmonic_neg,
    hyperharmonic_rational_order,
)

F = Fraction

_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
_exact = st.one_of(st.integers(-10**9, 10**9), _rationals)


class _Int(int):
    pass


class _Fraction(Fraction):
    pass


class _Float(float):
    pass


# Exact values that are not exactly int or Fraction: the kernels must read
# them as their values, on the path that is not the int/Fraction fast one.
_subclassed = st.one_of(
    st.booleans(),
    st.integers(-10**9, 10**9).map(_Int),
    _rationals.map(lambda v: _Fraction(v.numerator, v.denominator)),
)

# Values an exact kernel must refuse with TypeError.
_INEXACT = [
    0.5, "1/2", None, CertifiedReal(1.0, 0.0),
    pytest.param(_Float(0.5), id="float-subclass"),
    pytest.param(Decimal("0.5"), id="decimal"),
]


# -- the replaced Fraction loops --------------------------------------------


def old_cauchy_product(a, b):
    order = min(len(a), len(b)) - 1
    return [
        sum((a[i] * b[n - i] for i in range(n + 1)), F(0)) for n in range(order + 1)
    ]


def old_binomial_transform(b):
    return [
        sum((math.comb(k, i) * F(b[i]) for i in range(k + 1)), F(0))
        for k in range(len(b))
    ]


def old_inverse_binomial_transform(a):
    return [
        sum(((-1) ** (k + i) * math.comb(k, i) * F(a[i]) for i in range(k + 1)), F(0))
        for k in range(len(a))
    ]


def old_iterated_difference(f, k, x):
    row = [F(f(x + i)) for i in range(k + 1)]
    for _ in range(k):
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return row[0]


def old_conv(n, r):
    return sum(
        (F(binomial_int(n + r - k - 1, r - 1), k) for k in range(1, n + 1)), F(0)
    )


def old_rec_lower(n, r):
    h = F(0)
    for m in range(1, n + 1):
        h = F(m + r - 1, m) * h + F(binomial_int(m + r - 1, r - 1), m + r - 1)
    return h


def old_rec_upper(n, r):
    h = harmonic(n)
    for s in range(1, r):
        beta = F(binomial_int(n + s, s), n + s)
        h = F(n + s, s) * h - F(n, s) * beta
    return h


def old_dx_reciprocal_rising(c, k):
    c = F(c)
    return -sum((1 / (c + i) for i in range(k)), F(0)) / rising_factorial(c, k)


def expanded_coefficients(offsets):
    """Ascending coefficients of prod (x + a), one Fraction at a time."""
    coeffs = [F(1)]
    for a in offsets:
        coeffs = [F(0), *coeffs]
        for j in range(len(coeffs) - 1):
            coeffs[j] += a * coeffs[j + 1]
    return coeffs


def old_rational_order(n, w):
    w = F(w)
    tele = F(0)
    for i in range(n):
        if w + i == 0:
            raise DomainError(f"digamma pole in telescoping range at i={i} (order {w})")
        tele += 1 / (w + i)
    return binomial_general(w + n - 1, n) * tele


# -- exactnum.over_common_denominator ----------------------------------------


class TestOverCommonDenominator:
    @given(st.lists(_exact | _subclassed, max_size=40))
    def test_values_over_the_lcm(self, values):
        nums, d = over_common_denominator(values)
        assert all(type(p) is int for p in nums)
        assert d == math.lcm(*(F(v).denominator for v in values))
        assert [F(p, d) for p in nums] == [F(v) for v in values]

    def test_empty_and_integers_have_denominator_one(self):
        assert over_common_denominator([]) == ([], 1)
        assert over_common_denominator([3, -4, F(6, 3)]) == ([3, -4, 2], 1)

    @pytest.mark.parametrize("bad", _INEXACT)
    def test_inexact_inputs_rejected(self, bad):
        # float and Decimal have as_integer_ratio() too; the type check
        # in front of it must still refuse them
        with pytest.raises(TypeError):
            over_common_denominator([F(1, 2), bad])


class TestDerivativeAtZero:
    @settings(max_examples=200)
    @given(
        st.data(),
        st.fractions(min_value=-10**3, max_value=10**3, max_denominator=50).filter(bool),
        st.sampled_from([1, -1]),
    )
    def test_equals_the_expansion(self, data, scale, power):
        # mixed denominators and both signs; 0 to 12 factors, with zero
        # offsets only at power +1, where a zero factor is no pole
        offset = st.fractions(min_value=-50, max_value=50, max_denominator=12)
        if power == -1:
            offset = offset.filter(bool)
        offsets = data.draw(st.lists(offset, max_size=12))
        nums, q = over_common_denominator(offsets)
        # prod (x + a_i), ascending, padded so the empty product has a slope
        coeffs = expanded_coefficients(offsets) + [F(0)]
        # D (1/P) = -P'/P**2
        want = coeffs[1] if power == 1 else -coeffs[1] / coeffs[0] ** 2
        got = derivative_at_zero(nums, q, scale, power)
        assert type(got) is F
        assert got == scale * want

    @pytest.mark.parametrize("bad", _INEXACT)
    def test_inexact_scale_rejected(self, bad):
        with pytest.raises(TypeError):
            derivative_at_zero([1, 2], 1, bad)

    @pytest.mark.parametrize("power", [2, 0, -2, 3])
    def test_a_power_other_than_plus_or_minus_one_is_refused(self, power):
        # D_x prod (x+i)^2 at 0 over offsets 1, 2, 3 is 132; the kernel
        # differentiates only prod (x+i) and its reciprocal, so it must not
        # answer for any other power (it gave -11/36, the power -1 slope)
        message = f"^derivative_at_zero needs power 1 or -1, got {power}$"
        with pytest.raises(ValueError, match=message):
            derivative_at_zero([1, 2, 3], 1, 1, power)


class TestReciprocalSum:
    """``derivative_at_zero`` against the log-derivative form: at q = 1 and
    scale 1 the kernel is (prod m) * sum 1/m, and -(sum 1/m) / prod m for
    the reciprocal."""

    @given(st.lists(st.integers(-10**6, 10**6).filter(bool), max_size=40))
    def test_equals_the_fraction_sum(self, ms):
        # negative entries and single entries included
        recip = sum((F(1, m) for m in ms), F(0))
        assert derivative_at_zero(ms) == math.prod(ms) * recip
        assert derivative_at_zero(ms, 1, 1, -1) == -recip / math.prod(ms)

    def test_single_and_empty(self):
        assert derivative_at_zero([-7], 1, 1, -1) == F(-1, 49)
        assert derivative_at_zero([-7], 3) == 1
        assert derivative_at_zero([]) == 0
        assert derivative_at_zero([], 5, F(2, 3), -1) == 0

    @pytest.mark.parametrize("ms", [[0], [3, 0, -5], [0, 1]])
    def test_zero_raises(self, ms):
        # a zero factor is a pole of the reciprocal only; at power +1 the
        # slope is the product of the other factors: 1, -15 and 1 here
        with pytest.raises(ZeroDivisionError):
            derivative_at_zero(ms, 1, 1, -1)
        assert derivative_at_zero(ms) == math.prod(m for m in ms if m)

    def test_rising_factorial_at_zero(self):
        # D_z z(z+1)...(z+n-1) at z = 0 is (n-1)!
        for n in range(1, 41):
            assert derivative_at_zero(range(n)) == math.factorial(n - 1)


# -- opcalc ------------------------------------------------------------------


class TestPowerSeriesProduct:
    @settings(max_examples=150)
    @given(st.lists(_rationals, min_size=1, max_size=24),
           st.lists(_rationals, min_size=1, max_size=24))
    def test_equals_the_cauchy_product(self, a, b):
        # unequal orders truncate to the smaller; one-term lists are order 0
        got = PowerSeries(a) * PowerSeries(b)
        assert list(got.coeffs) == old_cauchy_product(a, b)
        assert all(type(c) is F for c in got.coeffs)

    def test_order_zero(self):
        got = PowerSeries([F(-3, 4)]) * PowerSeries([F(2, 9), F(1)])
        assert got.coeffs == (F(-1, 6),)


class TestHyperharmonicSeries:
    # The product -ln(1-z) * (1-z)^-r, itself checked against the Cauchy
    # product above, is the oracle for the prefix sums.

    @given(st.integers(1, 40), st.integers(0, 140))
    def test_equals_the_product(self, r, order):
        # r = order is the last prefix-sum order, r = order + 1 the first product
        for s in {r, order, order + 1} - {0}:
            got = gf_hyperharmonic(s, order)
            assert got == log_series(order) * geom_power_series(s, order), (s, order)
            assert all(type(c) is F for c in got.coeffs)

    @pytest.mark.parametrize("r, order", [(12, 512), (24, 512)])
    def test_order_512(self, r, order):
        assert gf_hyperharmonic(r, order) == log_series(order) * geom_power_series(r, order)

    def test_huge_order_r_is_the_product(self):
        r = 10**6
        got = gf_hyperharmonic(r, 16)
        assert got == log_series(16) * geom_power_series(r, 16)
        assert list(got.coeffs) == [
            hyperharmonic(n, r, HyperharmonicMethod.CONV) for n in range(17)
        ]

    @pytest.mark.parametrize("r, order, multiplied", [(6, 6, False), (7, 6, True), (1, 0, True)])
    def test_product_only_past_the_order(self, monkeypatch, r, order, multiplied):
        import hyperseq.opcalc as opcalc

        calls = []
        real = opcalc.geom_power_series
        monkeypatch.setattr(
            opcalc, "geom_power_series", lambda *a: calls.append(a) or real(*a)
        )
        gf_hyperharmonic(r, order)
        assert calls == ([(r, order)] if multiplied else [])


class TestTransforms:
    @settings(max_examples=150)
    @given(st.lists(_exact | _subclassed, max_size=32))
    def test_equal_the_naive_sums(self, b):
        # the empty list included
        got = binomial_transform(b), inverse_binomial_transform(b)
        assert got == (old_binomial_transform(b), old_inverse_binomial_transform(b))
        assert all(type(v) is Fraction for v in got[0] + got[1])


class TestDxReciprocalRising:
    @given(_rationals, st.integers(0, 40))
    def test_equals_the_fraction_loop(self, c, k):
        if any(c + i == 0 for i in range(k)):
            with pytest.raises(DomainError, match="pole"):
                dx_reciprocal_rising(c, k)
        else:
            assert dx_reciprocal_rising(c, k) == old_dx_reciprocal_rising(c, k)


class TestIteratedDifference:
    @settings(max_examples=100)
    @given(st.lists(_rationals, min_size=1, max_size=8),
           st.integers(0, 12), st.integers(-20, 20))
    def test_equals_the_fraction_loop(self, coeffs, k, x):
        f = lambda t: sum(c * F(t) ** j for j, c in enumerate(coeffs))
        assert forward_difference(f, k, x) == old_iterated_difference(f, k, x)

    def test_corrupted_helper_is_caught(self, monkeypatch):
        import hyperseq.opcalc as opcalc

        good = opcalc.over_common_denominator

        def corrupted(values):
            nums, d = good(values)
            return nums, d + 1

        monkeypatch.setattr(opcalc, "over_common_denominator", corrupted)
        with pytest.raises(ComputationIntegrityError):
            forward_difference(lambda t: F(1, t + 1), 2, 1)


# -- sequences -----------------------------------------------------------------


def _sample(seed, count, n_max, r_max):
    rng = random.Random(seed)
    return [(rng.randint(1, n_max), rng.randint(1, r_max)) for _ in range(count)]


class TestHyperharmonicKernels:
    @pytest.mark.parametrize("n, r", _sample(2027, 12, 400, 30) + [(400, 30), (1, 1)])
    def test_five_methods_agree(self, n, r):
        values = {m: hyperharmonic(n, r, m) for m in HyperharmonicMethod}
        assert len(set(values.values())) == 1, values

    def test_five_methods_agree_at_n_2000(self):
        values = {m: hyperharmonic(2000, 4, m) for m in HyperharmonicMethod}
        assert len(set(values.values())) == 1

    @pytest.mark.parametrize("n, r", _sample(2028, 20, 400, 30) + [(64, 3), (65, 3), (128, 1)])
    def test_equal_the_fraction_loops(self, n, r):
        # n around multiples of the recurrence's gcd interval included
        conv = hyperharmonic(n, r, HyperharmonicMethod.CONV)
        rec = hyperharmonic(n, r, HyperharmonicMethod.REC_LOWER)
        upper = hyperharmonic(n, r, HyperharmonicMethod.REC_UPPER)
        assert conv == old_conv(n, r)
        assert rec == old_rec_lower(n, r)
        assert upper == old_rec_upper(n, r)

    @pytest.mark.parametrize("n, r", [(1, 200), (7, 129), (50, 300)])
    def test_upper_recurrence_past_its_gcd_steps(self, n, r):
        assert hyperharmonic(n, r, HyperharmonicMethod.REC_UPPER) == old_rec_upper(n, r)


class TestRationalOrderKernel:
    def test_equals_the_fraction_loop(self):
        # non-integer orders of either sign, and positive integer orders
        rng = random.Random(2029)
        for _ in range(60):
            n = rng.randint(1, 60)
            q = rng.randint(2, 9)
            p = rng.choice([v for v in range(-40, 41) if v % q])
            for w in (F(p, q), F(rng.randint(1, 60))):
                assert hyperharmonic_rational_order(n, w) == old_rational_order(n, w)

    @pytest.mark.parametrize("w", range(0, -7, -1))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_integer_orders_at_most_zero_raise(self, n, w):
        # Where the old loop hit a pole the message names the same i;
        # where it returned a value, the call now raises too.
        try:
            old_rational_order(n, w)
            old_pole = None
        except DomainError as exc:
            old_pole = str(exc).split("at i=")[1].split(" ")[0]
        with pytest.raises(DomainError, match="hyperharmonic_neg") as exc:
            hyperharmonic_rational_order(n, F(w))
        if old_pole is None:
            assert "i=" not in str(exc.value)
        else:
            assert f"at i={old_pole}" in str(exc.value)


# -- the exact-input rule --------------------------------------------------------

# Each kernel that reads a rational argument itself, by the name its
# TypeError gives, called with that one argument taken from the caller.
_READERS = {
    "over_common_denominator": lambda v: over_common_denominator([F(1, 2), v]),
    "derivative_at_zero": lambda v: derivative_at_zero([1, 2], 1, v),
    "rising_factorial": lambda v: rising_factorial(v, 3),
    "falling_factorial": lambda v: falling_factorial(v, 3),
    "binomial_general": lambda v: binomial_general(v, 3),
    "format_rational": format_rational,
    "dx_reciprocal_rising": lambda v: dx_reciprocal_rising(v, 3),
    "leaping_binomial": lambda v: leaping_binomial(v, 3, 2),
    "PowerSeries": lambda v: PowerSeries([F(1), v]),
    "PowerSeries.scale": lambda v: PowerSeries([F(1), F(2)]).scale(v),
    "hyperharmonic_rational_order": lambda v: hyperharmonic_rational_order(3, v),
    "hyperharmonic_half_integer_alt": lambda v: hyperharmonic_half_integer_alt(3, v),
    "h": lambda v: identities.h(3, v),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("bad", _INEXACT)
@pytest.mark.parametrize("who", sorted(_READERS))
def test_an_inexact_argument_is_refused_by_name(who, bad, warm):
    # warm: the h memo already holds the Fraction that 0.5 and
    # Decimal("0.5") equal and hash like, and must not answer for them
    call = _READERS[who]
    identities.h.cache_clear()
    if warm:
        call(F(1, 2))
    with pytest.raises(TypeError, match=f"^{re.escape(who)} needs ints or Fractions"):
        call(bad)


@pytest.mark.parametrize("kernel", [
    lambda v: forward_difference(lambda i: v, 1, 0),
    lambda v: binomial_transform([F(1, 2), v]),
    lambda v: inverse_binomial_transform([F(1, 2), v]),
], ids=["forward_difference", "binomial_transform", "inverse_binomial_transform"])
@pytest.mark.parametrize("bad", _INEXACT)
def test_the_combining_kernels_refuse_through_their_reader(kernel, bad):
    with pytest.raises(TypeError, match="^over_common_denominator needs ints"):
        kernel(bad)


@pytest.mark.parametrize("who", sorted(_READERS))
def test_a_subclassed_exact_argument_reads_as_its_value(who):
    def outcome(v):
        try:
            return _READERS[who](v)
        except DomainError:  # the half-integer reading at an integer order
            return DomainError

    for plain, sub in ((1, True), (-4, _Int(-4)), (F(5, 2), _Fraction(5, 2))):
        assert outcome(sub) == outcome(plain)


def test_a_float_never_hits_a_memo_an_int_filled():
    assert hyperharmonic(3, 2) == F(13, 3)
    with pytest.raises(TypeError, match="^hyperharmonic needs ints, got float$"):
        hyperharmonic(3.0, 2)
    assert identities.h(3, 2) == F(13, 3)
    with pytest.raises(TypeError, match="^h needs ints or Fractions"):
        identities.h(3, 2.0)


# Each sequences function, by the name its TypeError gives, with each of its
# integer arguments in turn taken from the caller.
_INT_READERS = {
    "harmonic": [harmonic],
    "gen_harmonic": [lambda v: gen_harmonic(v, 2), lambda v: gen_harmonic(3, v)],
    "hyperharmonic": [lambda v: hyperharmonic(v, 7), lambda v: hyperharmonic(3, v)],
    "hyperharmonic_neg": [
        lambda v: hyperharmonic_neg(v, 3), lambda v: hyperharmonic_neg(3, v),
    ],
    "hyperharmonic_rational_order": [lambda v: hyperharmonic_rational_order(v, F(1, 2))],
    "hyperharmonic_half_integer_alt": [
        lambda v: hyperharmonic_half_integer_alt(v, F(1, 2)),
    ],
    "alpha": [lambda v: alpha(v, 2), lambda v: alpha(3, v)],
    "beta": [lambda v: beta(v, 2), lambda v: beta(3, v)],
    "fibonacci": [fibonacci],
}
_INT_CALLS = [
    pytest.param(who, call, id=f"{who}-{i}")
    for who, calls in sorted(_INT_READERS.items())
    for i, call in enumerate(calls)
]

# Values an integer index must refuse: floats equal to the ints the
# domain checks accept or refuse, a Fraction equal to an int, and more.
_NOT_INTS = [
    0.0, 1.0, 2.0, 3.0, 4.0, -1.5, F(3), "3", None,
    pytest.param(_Float(3.0), id="float-subclass"),
    pytest.param(Decimal(3), id="decimal"),
]


@pytest.mark.parametrize("bad", _NOT_INTS)
@pytest.mark.parametrize("who, call", _INT_CALLS)
def test_an_integer_index_that_is_not_an_int_is_refused_by_name(who, call, bad):
    with pytest.raises(TypeError, match=f"^{who} needs ints, got {type(bad).__name__}$"):
        call(bad)


@pytest.mark.parametrize("who, call", _INT_CALLS)
def test_a_subclassed_int_index_reads_as_its_value(who, call):
    def outcome(v):
        try:
            return call(v)
        except DomainError:  # an index outside the function's domain
            return DomainError

    for plain, sub in ((1, True), (0, False), (3, _Int(3)), (-2, _Int(-2))):
        assert outcome(sub) == outcome(plain)


@pytest.mark.parametrize("n, w, who", [
    (3.0, 2, "hyperharmonic"),
    (0.0, 2, "hyperharmonic"),
    (2.5, -1, "hyperharmonic_neg"),
    (3.0, F(1, 2), "hyperharmonic_rational_order"),
])
def test_h_refuses_a_float_index_by_the_kernel_it_reaches(n, w, who):
    identities.h.cache_clear()
    if n == int(n):
        identities.h(int(n), w)  # the entry of the int that n equals
    with pytest.raises(TypeError, match=f"^{who} needs ints, got float$"):
        identities.h(n, w)
