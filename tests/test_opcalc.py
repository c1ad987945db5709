import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperseq.identities as ident
from hyperseq.analytic import delta_hyperbolic_closed_form
from hyperseq.errors import ComputationIntegrityError, DomainError
from hyperseq.exactnum import (
    binomial_general,
    derivative_at_zero,
    factorial,
    over_common_denominator,
    rising_factorial,
)
from hyperseq.opcalc import (
    PowerSeries,
    binomial_transform,
    dx_reciprocal_rising,
    forward_difference,
    geom_power_series,
    gf_alpha,
    gf_beta,
    gf_harmonic,
    gf_hyperharmonic,
    inverse_binomial_transform,
    leaping_binomial,
)
from hyperseq.sequences import (
    HyperharmonicMethod,
    alpha,
    beta,
    fibonacci,
    harmonic,
    hyperharmonic,
    hyperharmonic_half_integer_alt,
)

F = Fraction


def expand_linear_factors(offsets):
    """Ascending coefficients of prod (x + a); oracle for the derivative engine."""
    coeffs = [F(1)]
    for a in offsets:
        nxt = [F(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j] += c * a
            nxt[j + 1] += c
        coeffs = nxt
    return coeffs


class TestForwardDifference:
    def test_harmonic_example(self):
        assert forward_difference(harmonic, 2, 1) == F(-1, 6)

    def test_order_zero(self):
        assert forward_difference(harmonic, 0, 7) == harmonic(7)

    def test_fibonacci_example(self):
        assert forward_difference(lambda n: F(fibonacci(n)), 1, 3) == 1

    def test_cross_check_catches_corrupted_algorithm(self, monkeypatch):
        import hyperseq.opcalc as opcalc

        good = opcalc.signed_binomial_row

        def corrupted(k):
            return tuple(c + (k == 2 and i == 1) for i, c in enumerate(good(k)))

        monkeypatch.setattr(opcalc, "signed_binomial_row", corrupted)
        with pytest.raises(ComputationIntegrityError):
            forward_difference(harmonic, 2, 1)

    def test_harmonic_difference_closed_form(self):
        for k in range(1, 11):
            for n in range(0, 21):
                expected = (
                    F((-1) ** (k + 1) * factorial(k - 1))
                    / rising_factorial(F(n + 1), k)
                )
                assert forward_difference(harmonic, k, n) == expected

    def test_linearity(self):
        rng = random.Random(7)
        for _ in range(50):
            a = F(rng.randint(-9, 9), rng.randint(1, 9))
            b = F(rng.randint(-9, 9), rng.randint(1, 9))
            cf = [F(rng.randint(-5, 5)) for _ in range(4)]
            cg = [F(rng.randint(-5, 5)) for _ in range(4)]
            f = lambda t, cf=cf: sum(c * t**j for j, c in enumerate(cf))
            g = lambda t, cg=cg: sum(c * t**j for j, c in enumerate(cg))
            k = rng.randint(0, 5)
            x = rng.randint(0, 6)
            combo = forward_difference(lambda t: a * f(t) + b * g(t), k, x)
            assert combo == a * forward_difference(f, k, x) + b * forward_difference(g, k, x)

    def test_product_rule(self):
        rng = random.Random(11)
        for _ in range(60):
            deg = rng.randint(0, 6)
            cs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)]
            f = lambda t, cs=cs: sum(c * t**j for j, c in enumerate(cs))
            n = rng.randint(1, 6)
            x = rng.randint(0, 10)
            lhs = forward_difference(lambda t: t * f(t), n, x)
            rhs = x * forward_difference(f, n, x) + n * forward_difference(f, n - 1, x + 1)
            assert lhs == rhs


class TestBinomialTransform:
    def test_harmonic_pair(self):
        b = [F(0), F(1), F(-1, 2), F(1, 3)]
        assert binomial_transform(b) == [harmonic(k) for k in range(4)]

    def test_ones(self):
        assert binomial_transform([F(1), F(0), F(0), F(0)]) == [F(1)] * 4

    @settings(max_examples=120)
    @given(
        st.lists(
            st.fractions(min_value=-99, max_value=99, max_denominator=40),
            max_size=32,
        )
    )
    def test_involution(self, b):
        assert inverse_binomial_transform(binomial_transform(b)) == b
        assert binomial_transform(inverse_binomial_transform(b)) == b


def dx_scaled(offsets, c):
    """D_x (1/c) prod (x + a_i) at 0, the offsets over one denominator."""
    nums, q = over_common_denominator(offsets)
    return derivative_at_zero(nums, q, 1 / F(c))


class TestDerivativeEngines:
    """``exactnum.derivative_at_zero`` on the binomials of the D_x rows."""

    def test_harmonic_case(self):
        assert dx_scaled([1, 2, 3], 6) == F(11, 6)

    def test_gen_harmonic_case(self):
        assert dx_scaled([1, 4, 9], 36) == F(49, 36)

    def test_hyperharmonic_case(self):
        assert dx_scaled([3, 4], 2) == F(7, 2)

    def test_negative_factor_case(self):
        assert dx_scaled([-1, -2], 2) == F(-3, 2)

    def test_empty_product(self):
        assert dx_scaled([], 5) == 0

    def test_against_expansion_oracle(self):
        rng = random.Random(13)
        for _ in range(100):
            size = rng.randint(1, 8)
            offs = []
            while len(offs) < size:
                v = F(rng.randint(-12, 12), rng.randint(1, 6))
                if v != 0:
                    offs.append(v)
            c = F(rng.randint(1, 9))
            coeffs = expand_linear_factors(offs)
            assert dx_scaled(offs, c) == coeffs[1] / c


class TestLeapingBinomial:
    def test_m1_reduction(self):
        for n in range(1, 9):
            for x in (F(0), F(1, 2), F(-1, 3), F(3)):
                assert leaping_binomial(x, n, 1) == binomial_general(x + n, n)

    def test_at_zero(self):
        for n in range(1, 7):
            for m in range(1, 4):
                assert leaping_binomial(0, n, m) == 1

    def test_example(self):
        assert leaping_binomial(1, 2, 2) == F(5, 2)


class TestDxReciprocalRising:
    def test_zero_order(self):
        assert dx_reciprocal_rising(F(7, 3), 0) == 0

    def test_example(self):
        assert dx_reciprocal_rising(3, 2) == F(-7, 144)

    def test_unit(self):
        assert dx_reciprocal_rising(1, 1) == -1

    def test_pole(self):
        with pytest.raises(DomainError, match="i=1"):
            dx_reciprocal_rising(-1, 3)


class TestPowerSeries:
    def test_truncation_to_min_order(self):
        a = PowerSeries((F(1), F(2), F(3)))
        b = PowerSeries((F(1), F(1)))
        assert (a * b).order == 1
        assert (a + b).order == 1

    def test_coeff_bounds(self):
        s = PowerSeries((F(1), F(2)))
        with pytest.raises(DomainError):
            s.coeff(2)

    def test_json(self):
        assert gf_hyperharmonic(2, 3).to_json_list() == ["0", "1", "5/2", "13/3"]

    def test_gf_harmonic(self):
        s = gf_harmonic(16)
        for n in range(17):
            assert s.coeff(n) == harmonic(n)

    def test_gf_hyperharmonic_small(self):
        for r in range(1, 5):
            s = gf_hyperharmonic(r, 20)
            for n in range(21):
                assert s.coeff(n) == hyperharmonic(n, r)

    @pytest.mark.parametrize(
        "r, order", [(1, 12), (5, 12), (12, 12), (13, 12), (40, 6)]
    )
    def test_gf_hyperharmonic_is_the_def_column(self, r, order):
        # r > order takes the series product, r <= order the r-fold kernel
        # that DEF reads, so the product path is checked against the kernel
        def_ = HyperharmonicMethod.DEF
        expected = [hyperharmonic(i, r, def_) for i in range(order + 1)]
        assert list(gf_hyperharmonic(r, order).coeffs) == expected

    def test_gf_beta(self):
        for r in range(1, 8):
            s = gf_beta(r, 20)
            for k in range(21):
                assert s.coeff(k) == beta(k, r)

    def test_gf_alpha(self):
        for r in range(1, 8):
            s = gf_alpha(r, 20)
            for k in range(1, 21):
                assert s.coeff(k) == alpha(k, r)
            assert s.coeff(0) == 0


def _duplicate_row():
    ident.get_identity("eq-9")  # builds the registry
    ident._add("eq-9", "probe", (), None, None, ())


@pytest.mark.parametrize("call, error, message", [
    (lambda: forward_difference(harmonic, -1, 0), DomainError, "difference order"),
    (lambda: leaping_binomial(F(1, 2), 0, 1), DomainError, "n >= 1 and m >= 1"),
    (lambda: dx_reciprocal_rising(1, -1), DomainError, "k >= 0"),
    (lambda: geom_power_series(-1, 4), DomainError, "r >= 0"),
    (lambda: gf_hyperharmonic(0, 4), DomainError, "r >= 1"),
    (lambda: hyperharmonic_half_integer_alt(0, F(1, 2)), DomainError, "n >= 1"),
    (lambda: delta_hyperbolic_closed_form("sinh", -1, 0), DomainError, "k >= 0"),
    (_duplicate_row, ValueError, "duplicate identity key eq-9"),
], ids=[
    "forward_difference", "leaping_binomial", "dx_reciprocal_rising",
    "geom_power_series", "gf_hyperharmonic", "hyperharmonic_half_integer_alt",
    "delta_hyperbolic_closed_form", "duplicate-row",
])
def test_an_input_guard_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
