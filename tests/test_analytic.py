import math
from fractions import Fraction

import pytest
import scipy.special

from hyperseq.analytic import (
    CertifiedReal,
    delta_hyperbolic_closed_form,
    digamma,
    euler_gamma,
    hyperharmonic_real,
    log_gamma,
    sum_series,
)
from hyperseq.errors import ConvergenceError, DomainError
from hyperseq.exactnum import binomial_int, factorial, rising_factorial
from hyperseq.sequences import harmonic, hyperharmonic, hyperharmonic_rational_order

F = Fraction

GAMMA = 0.5772156649015328606


class TestDigamma:
    def test_at_one(self):
        v = digamma(1.0)
        assert abs(v.value + GAMMA) <= v.abs_error_bound + 1e-15

    def test_at_five(self):
        v = digamma(5.0)
        assert abs(v.value - (float(harmonic(4)) - GAMMA)) < 1e-12

    def test_recurrence(self):
        for x in (0.25, 0.5, 1.5, 3.0, 7.5, 21.0):
            lhs = digamma(x + 1.0).value - digamma(x).value
            assert abs(lhs - 1.0 / x) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(-2.5)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_domain_error(self, x):
        with pytest.raises(DomainError):
            digamma(x)

    def test_bound_is_honest_and_small(self):
        for i in range(1, 400):
            x = i / 8.0
            v = digamma(x)
            assert v.abs_error_bound <= 1e-12
            assert abs(v.value - scipy.special.digamma(x)) <= v.abs_error_bound + 1e-14

    def test_integer_values_match_harmonic(self):
        for n in range(1, 51):
            v = digamma(float(n))
            assert abs(v.value - (float(harmonic(n - 1)) - GAMMA)) < 1e-10


class TestEulerGamma:
    def test_value(self):
        g = euler_gamma()
        assert abs(g.value - 0.57721566490153286) <= 1e-14
        assert g.abs_error_bound <= 1e-14

    def test_psi_relation(self):
        assert abs(euler_gamma().value + digamma(1.0).value) < 1e-12
        assert abs(euler_gamma().value + digamma(2.0).value - 1.0) < 1e-12

    def test_extrapolation_oracle(self):
        # gamma = H_n - ln n - 1/(2n) + 1/(12 n^2) - 1/(120 n^4) + O(n^-6)
        n = 10_000
        est = (
            float(harmonic(n))
            - math.log(n)
            - 1.0 / (2 * n)
            + 1.0 / (12 * n**2)
            - 1.0 / (120 * n**4)
        )
        assert abs(euler_gamma().value - est) < 1e-12


class TestLogGamma:
    def test_against_math_lgamma(self):
        for i in range(1, 800):
            x = i / 16.0
            v = log_gamma(x)
            assert abs(v.value - math.lgamma(x)) <= v.abs_error_bound + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_domain_error(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestHyperharmonicReal:
    def test_integer_reduction(self):
        v = hyperharmonic_real(2.0, 1.0)
        assert abs(v.value - 1.5) <= v.abs_error_bound + 1e-12

    def test_half_order(self):
        v = hyperharmonic_real(2.0, 0.5)
        assert abs(v.value - 1.0) < 1e-10

    def test_first_row_is_one(self):
        for w in (0.5, 1.0, 2.5, 3.0, 7.25):
            v = hyperharmonic_real(1.0, w)
            assert abs(v.value - 1.0) < 1e-10

    def test_zero_index(self):
        assert hyperharmonic_real(0.0, 2.5).value == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            hyperharmonic_real(2.0, 0.0)
        with pytest.raises(DomainError):
            hyperharmonic_real(-3.0, 1.0)

    def test_matches_exact_rational_order(self):
        for w in (F(1, 2), F(3, 2), F(5, 2), F(1, 3)):
            for n in range(1, 31):
                exact = float(hyperharmonic_rational_order(n, w))
                v = hyperharmonic_real(float(n), float(w))
                assert abs(v.value - exact) <= 1e-9 * abs(exact)
                assert abs(v.value - exact) <= v.abs_error_bound + 1e-12

    def test_bound_small_at_desk_scale(self):
        for n in range(1, 11):
            for w in (0.5, 1.5, 2.5):
                assert hyperharmonic_real(float(n), w).abs_error_bound <= 1e-10

    def test_bound_tracks_magnitude_beyond_desk_scale(self):
        for n in range(11, 31):
            v = hyperharmonic_real(float(n), 2.5)
            assert v.abs_error_bound <= 5e-12 * max(abs(v.value), 1.0)

    @pytest.mark.parametrize("w", [0.5, 7.5])
    @pytest.mark.parametrize("z", [1e13, 1e15, 3e15])
    def test_interval_contains_true_value_at_huge_z(self, z, w):
        # The log-gamma error is far above 0.3 here, so the linear bound
        # on e^|d| - 1 no longer holds.
        import mpmath
        with mpmath.workdps(60):
            zz, ww = mpmath.mpf(z), mpmath.mpf(w)
            true = (
                mpmath.gamma(zz + ww)
                / (mpmath.gamma(zz + 1) * mpmath.gamma(ww))
                * (mpmath.digamma(zz + ww) - mpmath.digamma(ww))
            )
            v = hyperharmonic_real(z, w)
            assert abs(true - mpmath.mpf(v.value)) <= v.abs_error_bound


class TestSumSeries:
    def test_harmonic_over_powers_of_two(self):
        v = sum_series(
            lambda k: harmonic(k) / F(2) ** k,
            lambda K: (K + 2.0) / 2.0**K if K >= 1 else math.inf,
            1e-13,
        )
        assert abs(v.value - 2.0 * math.log(2.0)) < 1e-12
        assert v.abs_error_bound < 1e-12

    def test_all_zero(self):
        v = sum_series(lambda k: F(0), lambda K: 0.0, 1e-9)
        assert v.value == 0.0

    def test_second_order_analog(self):
        v = sum_series(
            lambda k: hyperharmonic(k, 2) / F(2) ** k,
            lambda K: 4.0 * (K + 3) ** 2 / 2.0 ** (K + 1) if K >= 4 else math.inf,
            1e-10,
        )
        assert abs(v.value - 4.0 * math.log(2.0)) < 1e-9

    def test_iteration_cap(self):
        with pytest.raises(ConvergenceError):
            sum_series(lambda k: F(1, k + 1), lambda K: math.inf, 1e-9, max_terms=50)


class TestHyperbolicDifferences:
    def test_order_zero(self):
        for x in (-1.5, 0.0, 2.0):
            assert abs(delta_hyperbolic_closed_form("sinh", 0, x).value - math.sinh(x)) < 1e-12
            assert abs(delta_hyperbolic_closed_form("cosh", 0, x).value - math.cosh(x)) < 1e-12

    def test_known_values(self):
        assert abs(delta_hyperbolic_closed_form("sinh", 1, 0.0).value - math.sinh(1.0)) < 1e-12
        assert abs(
            delta_hyperbolic_closed_form("cosh", 1, 0.0).value - (math.cosh(1.0) - 1.0)
        ) < 1e-12

    def test_against_direct_differences(self):
        for kind, fn in (("sinh", math.sinh), ("cosh", math.cosh)):
            for k in range(16):
                for i in range(-4, 5):
                    x = i / 2.0
                    direct = sum(
                        (-1) ** (k - j) * binomial_int(k, j) * fn(x + j)
                        for j in range(k + 1)
                    )
                    closed = delta_hyperbolic_closed_form(kind, k, x)
                    slack = sum(
                        binomial_int(k, j) * abs(fn(x + j)) for j in range(k + 1)
                    ) * (k + 2) * 2.0**-52
                    assert abs(closed.value - direct) <= 1e-12 + closed.abs_error_bound + slack

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            delta_hyperbolic_closed_form("tanh", 1, 0.0)


class TestDigammaDifferences:
    def test_closed_form(self):
        # sum_i (-1)^i C(k,i) psi(x+i) = -(k-1)!/x^rising(k); the k = 1 case
        # is the digamma recurrence.
        for x in (F(1), F(1, 2), F(3, 2), F(5)):
            for k in range(1, 11):
                acc = 0.0
                for i in range(k + 1):
                    acc += (-1) ** i * binomial_int(k, i) * digamma(float(x) + i).value
                expected = -factorial(k - 1) / rising_factorial(x, k)
                assert abs(acc - float(expected)) < 1e-9


class TestCertifiedReal:
    def test_arithmetic_bounds(self):
        a = CertifiedReal(1.0, 1e-12)
        b = CertifiedReal(2.0, 1e-13)
        assert (a + b).abs_error_bound >= 1.1e-12
        assert (a * b).abs_error_bound >= 2e-12

    def test_json(self):
        assert CertifiedReal(1.5, 1e-9).to_json_obj() == {
            "value": 1.5,
            "abs_error_bound": 1e-9,
        }
