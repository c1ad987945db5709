"""The integer kernels against the per-term Fraction loops they replaced.

Each ``old_*`` function below is the earlier implementation, kept here
as an oracle: it adds one ``Fraction`` at a time, so it shares no
arithmetic with the kernel under test.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperseq.analytic import CertifiedReal
from hyperseq.errors import ComputationIntegrityError, DomainError
from hyperseq.exactnum import (
    binomial_general,
    binomial_int,
    over_common_denominator,
    reciprocal_sum,
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
    log_series,
)
from hyperseq.sequences import (
    HyperharmonicMethod,
    harmonic,
    hyperharmonic,
    hyperharmonic_rational_order,
)

F = Fraction

_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
_exact = st.one_of(st.integers(-10**9, 10**9), _rationals)


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
    @given(st.lists(_exact, max_size=40))
    def test_values_over_the_lcm(self, values):
        nums, d = over_common_denominator(values)
        assert all(type(p) is int for p in nums)
        assert d == math.lcm(*(F(v).denominator for v in values))
        assert [F(p, d) for p in nums] == [F(v) for v in values]

    def test_empty_and_integers_have_denominator_one(self):
        assert over_common_denominator([]) == ([], 1)
        assert over_common_denominator([3, -4, F(6, 3)]) == ([3, -4, 2], 1)

    @pytest.mark.parametrize("bad", [0.5, "1/2", None, CertifiedReal(1.0, 0.0)])
    def test_inexact_inputs_rejected(self, bad):
        with pytest.raises(TypeError):
            over_common_denominator([F(1, 2), bad])


class TestReciprocalSum:
    @given(st.lists(st.integers(-10**6, 10**6).filter(bool), max_size=40))
    def test_equals_the_fraction_sum(self, ms):
        # negative entries and single entries included
        got = reciprocal_sum(ms)
        assert type(got) is F
        assert got == sum((F(1, m) for m in ms), F(0))

    def test_single_and_empty(self):
        assert reciprocal_sum([-7]) == F(-1, 7)
        assert reciprocal_sum([]) == 0

    @pytest.mark.parametrize("ms", [[0], [3, 0, -5], [0, 1]])
    def test_zero_raises(self, ms):
        with pytest.raises(ZeroDivisionError):
            reciprocal_sum(ms)


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
    @given(st.lists(_exact, max_size=32))
    def test_equal_the_naive_sums(self, b):
        # the empty list included
        assert binomial_transform(b) == old_binomial_transform(b)
        assert inverse_binomial_transform(b) == old_inverse_binomial_transform(b)


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
        rng = random.Random(2029)
        for _ in range(60):
            n = rng.randint(1, 60)
            q = rng.randint(2, 9)
            p = rng.choice([v for v in range(-40, 41) if v % q])
            w = F(p, q)
            assert hyperharmonic_rational_order.__wrapped__(n, w) == old_rational_order(n, w)

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
