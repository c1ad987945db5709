import math
import random
import struct
from fractions import Fraction

import mpmath
import pytest

from hyperseq import identities
from hyperseq.analytic import (
    CertifiedReal,
    as_certified,
    delta_hyperbolic_closed_form,
    digamma,
    exp_ball,
    hyperharmonic_real,
    ln2,
    log_gamma,
    sum_series,
)
from hyperseq.errors import ConvergenceError, DomainError
from hyperseq.exactnum import binomial_int, factorial, rising_factorial
from hyperseq.identities import _cases, get_identity, list_identities, row_scope
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
        with mpmath.workdps(50):
            for i in range(1, 400):
                x = i / 8.0
                v = digamma(x)
                assert v.abs_error_bound <= 1e-12
                true = mpmath.digamma(mpmath.mpf(x))
                assert abs(mpmath.mpf(v.value) - true) <= v.abs_error_bound, x

    def test_integer_values_match_harmonic(self):
        for n in range(1, 51):
            v = digamma(float(n))
            assert abs(v.value - (float(harmonic(n - 1)) - GAMMA)) < 1e-10


class TestEulerGamma:
    """Euler's constant gamma as digamma gives it: psi(1) = -gamma."""

    def test_psi_relation(self):
        assert abs(digamma(1.0).value + GAMMA) < 1e-12
        assert abs(digamma(2.0).value - (1.0 - GAMMA)) < 1e-12

    def test_ball_contains_mpmath(self):
        with mpmath.workdps(50):
            for x, true in ((1.0, -mpmath.euler), (2.0, 1 - mpmath.euler)):
                v = digamma(x)
                assert abs(mpmath.mpf(v.value) - true) <= v.abs_error_bound, x

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
        assert abs(-digamma(1.0).value - est) < 1e-12


class TestLogGamma:
    def test_against_math_lgamma(self):
        for i in range(1, 800):
            x = i / 16.0
            v = log_gamma(x)
            assert abs(v.value - math.lgamma(x)) <= v.abs_error_bound + 1e-12

    def test_ball_contains_mpmath(self):
        # every shift count 0..9, then the Stirling tail alone out to 1e299,
        # and arguments far below 1 where the shift dominates
        grid = (
            [i / 16.0 for i in range(1, 1601)]
            + [2.0**-j for j in range(1, 60)]
            + [10.0**j for j in range(2, 300, 7)]
        )
        with mpmath.workdps(50):
            for x in grid:
                v = log_gamma(x)
                true = mpmath.loggamma(mpmath.mpf(x))
                assert abs(mpmath.mpf(v.value) - true) <= v.abs_error_bound, x

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_domain_error(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: log_gamma(3e305),
            lambda: log_gamma(1.7e308),
            lambda: hyperharmonic_real(3e305, 1.0),
        ],
        ids=["log_gamma(3e305)", "log_gamma(1.7e308)", "hyperharmonic_real(3e305, 1)"],
    )
    def test_overflowing_ball_is_domain_error(self, call):
        # the ball was (inf, inf), and through it h(z, w) came out as nan
        with pytest.raises(DomainError):
            call()

    def test_last_finite_decade_still_contains_mpmath(self):
        v = log_gamma(1e305)
        assert math.isfinite(v.value) and math.isfinite(v.abs_error_bound)
        with mpmath.workdps(50):
            true = mpmath.loggamma(mpmath.mpf(1e305))
            assert abs(mpmath.mpf(v.value) - true) <= v.abs_error_bound


def _mp(x):
    """x as an mpmath number at the working precision."""
    x = F(x)
    return mpmath.mpf(x.numerator) / x.denominator


#: Exact arguments of e**x across the double range, into the underflow.
_EXP_GRID = [
    0, 1, -1, F(1, 3), F(-7, 2), F(31, 2), 20.25, -0.001, 1e-300,
    F(-1, 10**400), 700, 709.78, 709.782712893384, -700.5, -708.5,
    -740.25, -745.1, -745.2, -800, -1e6,
]

#: Radius classes for exp_ball at a ball: fixed, or drawn up to a limit.
_EXP_RADII = {
    "zero": lambda rng: 0.0,
    "1e-17": lambda rng: 1e-17,
    "to-1e-6": lambda rng: rng.uniform(0.0, 1e-6),
    "to-2": lambda rng: rng.uniform(0.0, 2.0),
    "to-50": lambda rng: rng.uniform(0.0, 50.0),
}


class TestLibmBalls:
    """The balls that trust libm: e**x (exp, expm1) and ln 2, each to one ulp."""

    @pytest.mark.parametrize("x", _EXP_GRID)
    def test_exp_ball_contains_mpmath(self, x):
        v = exp_ball(x)
        with mpmath.workdps(60):
            assert abs(mpmath.mpf(v.value) - mpmath.exp(_mp(x))) <= v.abs_error_bound

    @pytest.mark.parametrize("x", _EXP_GRID)
    def test_exp_ball_at_an_exact_argument_keeps_its_formula(self, x):
        # math.exp at the nearest double xf, charged 1 + |xf| ulps and one
        # ulp of underflow, bit for bit
        xf = float(x)
        v = math.exp(xf)
        want = CertifiedReal(v, abs(v) * 2.0**-52 * (1.0 + abs(xf)) + 2.0**-1074)
        got = exp_ball(x)
        assert (got.value, got.abs_error_bound) == (want.value, want.abs_error_bound)

    @pytest.mark.parametrize("radius", list(_EXP_RADII), ids=list(_EXP_RADII))
    def test_exp_ball_at_a_ball_contains_mpmath(self, radius):
        # centres across the double range and near 0; e**t checked at both
        # ends of the ball and at three inner points
        rng = random.Random(f"exp-{radius}")
        centres = [rng.uniform(-760.0, 705.0) for _ in range(60)]
        centres += [rng.uniform(-5.0, 5.0) for _ in range(60)]
        with mpmath.workdps(60):
            for c in centres:
                d = _EXP_RADII[radius](rng)
                v = exp_ball(CertifiedReal(c, d))
                for f in (-1, -0.5, 0, 0.5, 1):
                    true = mpmath.exp(mpmath.mpf(c) + f * mpmath.mpf(d))
                    assert abs(true - mpmath.mpf(v.value)) <= v.abs_error_bound, (c, d, f)

    def test_exp_ball_far_below_the_range_widens_by_its_radius(self):
        # e**-800 underflows to 0, but the ball reaches up to e**100
        v = exp_ball(CertifiedReal(-800.0, 900.0))
        with mpmath.workdps(60):
            assert mpmath.exp(100) <= v.abs_error_bound
        w = exp_ball(CertifiedReal(-800.0, 60.0))
        with mpmath.workdps(60):
            assert mpmath.exp(-740) <= w.abs_error_bound < 1e-290

    @pytest.mark.parametrize("x", [-745.2, -800, -1e6])
    def test_exp_ball_underflow_keeps_a_radius(self, x):
        v = exp_ball(x)
        assert v.value == 0.0 and v.abs_error_bound > 0.0

    @pytest.mark.parametrize(
        "x", [710, F(1421, 2), 1e308, 10**400, math.inf, math.nan]
    )
    def test_exp_ball_past_the_double_range_is_domain_error(self, x):
        with pytest.raises(DomainError, match="not finite in double precision"):
            exp_ball(x)

    def test_ln2_contains_mpmath(self):
        v = ln2()
        with mpmath.workdps(60):
            assert abs(mpmath.mpf(v.value) - mpmath.log(2)) <= v.abs_error_bound
        assert 0.0 < v.abs_error_bound <= 2.0**-52


class TestOverflowPolicy:
    """A centre that leaves the double range is a DomainError, never a ball."""

    BIG = CertifiedReal(1e308, 1e292)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: TestOverflowPolicy.BIG + TestOverflowPolicy.BIG,
            lambda: TestOverflowPolicy.BIG - CertifiedReal(-1e308, 0.0),
            lambda: TestOverflowPolicy.BIG * TestOverflowPolicy.BIG,
            lambda: TestOverflowPolicy.BIG.scaled(2),
            lambda: CertifiedReal(1.0, 0.0).scaled(10**400),
            lambda: CertifiedReal(0.0, 0.0).scaled(F(-(10**400), 3)),
            lambda: CertifiedReal.from_exact(10**400),
            lambda: CertifiedReal.from_exact(F(-(10**400), 7)),
            lambda: CertifiedReal(math.nan, 0.0) + CertifiedReal(1.0, 0.0),
            lambda: sum_series(lambda k: 10**308, lambda K: math.inf, 1.0),
            lambda: sum_series(lambda k: F(10**400, k + 1), lambda K: math.inf, 1.0),
            lambda: delta_hyperbolic_closed_form("sinh", 2000, 0.0),
            lambda: delta_hyperbolic_closed_form("cosh", 3, -800.0),
        ],
        ids=["add", "sub", "mul", "scaled", "scaled-by-huge-int",
             "scaled-by-huge-fraction", "from-huge-int", "from-huge-fraction",
             "nan-centre", "series-sum", "series-term", "delta-sinh-big-k",
             "delta-cosh-far-left"],
    )
    def test_is_domain_error(self, call):
        with pytest.raises(DomainError, match="not finite in double precision"):
            call()

    def test_an_infinite_radius_alone_is_a_ball(self):
        v = CertifiedReal(2.0, math.inf) * CertifiedReal(3.0, 1e-16)
        assert v.value == 6.0 and v.abs_error_bound == math.inf

    @pytest.mark.parametrize(
        "call, want",
        [
            (lambda: exp_ball(F(-(10**400))), (0.0, 2.0**-1074)),
            (lambda: CertifiedReal(2.0, math.inf) * CertifiedReal(3.0, 0.0), (6.0, math.inf)),
            (lambda: CertifiedReal(0.0, 1.0) * CertifiedReal(1.0, math.inf), (0.0, math.inf)),
            (lambda: CertifiedReal(1.0, math.inf).scaled(0), (0.0, 0.0)),
        ],
        ids=["exp-far-left", "inf-radius-times-exact", "zero-times-inf-radius",
             "inf-radius-scaled-by-zero"],
    )
    def test_a_zero_factor_times_infinity_is_no_nan(self, call, want):
        # each of these raised: 0 * inf made a nan radius
        v = call()
        assert (v.value, v.abs_error_bound) == want


class TestDifference:
    """a - b is one ball, bit for bit the a + (-b) it used to build in two steps."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1023), 1.0, -3.5,
               1e308, -1e308, 2.0**1023, math.inf, math.nan]
    RADII = [0.0, 5e-324, 2.0**-1074 * 3, 1e-16, 1.0, 1e300, 1.7e308, math.inf]

    @staticmethod
    def _outcome(call):
        try:
            v = call()
        except DomainError:
            return DomainError
        return v.value.hex(), v.abs_error_bound.hex()  # -0.0 and 0.0 differ

    def _check(self, a, b):
        negated = CertifiedReal(-b.value, b.abs_error_bound)
        assert self._outcome(lambda: a - b) == self._outcome(lambda: a + negated), (a, b)

    def test_special_doubles(self):
        balls = [CertifiedReal(v, r) for v in self.SPECIAL for r in self.RADII]
        for a in balls:
            for b in balls:
                self._check(a, b)

    def test_random_doubles(self):
        rng = random.Random(30)

        def double():
            (v,) = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))
            return v

        for _ in range(20_000):
            self._check(CertifiedReal(double(), abs(double())),
                        CertifiedReal(double(), abs(double())))


class TestUnderflowKeepsARadius:
    """A rational that rounds into the subnormals or to 0 keeps an ulp."""

    @pytest.mark.parametrize(
        "build, x",
        [
            (lambda: CertifiedReal.from_exact(F(1, 10**400)), F(1, 10**400)),
            (lambda: CertifiedReal.from_exact(F(3, 2**1076)), F(3, 2**1076)),
            (lambda: CertifiedReal.from_exact(F(-5, 2**1078)), F(-5, 2**1078)),
            (lambda: sum_series(lambda k: F(1, 10**400), lambda K: 0.0, 1.0),
             F(1, 10**400)),
        ],
        ids=["from-exact-1e-400", "from-exact-3/2^1076", "from-exact-negative",
             "series-of-one-1e-400-term"],
    )
    def test_ball_contains_the_value(self, build, x):
        v = build()
        with mpmath.workdps(60):
            assert abs(mpmath.mpf(v.value) - _mp(x)) <= v.abs_error_bound
        assert v.abs_error_bound > 0.0

    def test_exact_zero_has_no_radius(self):
        assert CertifiedReal.from_exact(0) == CertifiedReal(0.0, 0.0)


def _non_finite_calls():
    """Every public function that builds a ball from a double argument."""
    calls = {
        "from_float": CertifiedReal.from_float,
        "as_certified": as_certified,
        "exp_ball": exp_ball,
        "digamma": digamma,
        "log_gamma": log_gamma,
        "hyperharmonic_real-z": lambda x: hyperharmonic_real(x, 1.0),
        "hyperharmonic_real-w": lambda x: hyperharmonic_real(1.0, x),
        "delta-sinh": lambda x: delta_hyperbolic_closed_form("sinh", 2, x),
        "delta-cosh": lambda x: delta_hyperbolic_closed_form("cosh", 3, x),
        "sum_series-term": lambda x: sum_series(lambda k: x, lambda K: 0.0, 1.0),
    }
    return [
        pytest.param(fn, x, id=f"{name}-{x}")
        for name, fn in calls.items()
        for x in (math.nan, math.inf, -math.inf)
    ]


@pytest.mark.parametrize("fn, x", _non_finite_calls())
def test_a_non_finite_double_is_a_domain_error(fn, x):
    with pytest.raises(DomainError, match="not finite in double precision"):
        fn(x)


class TestHyperharmonicReal:
    def test_value_past_the_double_range_is_domain_error(self):
        # e**1381.6 overflowed inside math.exp, an uncaught OverflowError
        with pytest.raises(DomainError, match="not finite in double precision"):
            hyperharmonic_real(1000.0, 1000.0)

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
                assert hyperharmonic_real(float(n), w).abs_error_bound <= 5e-11

    def test_bound_tracks_magnitude_beyond_desk_scale(self):
        for n in range(11, 31):
            v = hyperharmonic_real(float(n), 2.5)
            assert v.abs_error_bound <= 2e-12 * max(abs(v.value), 1.0)

    @pytest.mark.parametrize("w", [0.5, 7.5])
    @pytest.mark.parametrize("z", [1e13, 1e15, 3e15])
    def test_interval_contains_true_value_at_huge_z(self, z, w):
        # The log-gamma radius d is far above 1 here, where e^d - 1 is far
        # from its linear bound.
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

    def test_exact_rational_tail_matches_the_float_tail(self):
        # both tails are the same dyadic rationals, so the sums agree bit for bit
        term = lambda k: harmonic(k) / F(2) ** k
        exact = sum_series(term, lambda K: F(K + 2, 2**K), 1e-13)
        floats = sum_series(term, lambda K: (K + 2.0) / 2.0**K, 1e-13)
        assert exact == floats
        assert isinstance(exact.abs_error_bound, float)

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
        terms = []
        with pytest.raises(ConvergenceError, match="after 50 terms"):
            sum_series(
                _counted(lambda k: F(1, k + 1), terms), lambda K: math.inf, 1e-9,
                max_terms=50,
            )
        assert terms == list(range(50))

    @pytest.mark.parametrize(
        "tolerance, max_terms",
        [(math.nan, 10), (0.0, 10), (-1e-9, 10), (F(-1, 3), 10), (1e-9, 0), (1e-9, -2)],
    )
    def test_bad_tolerance_or_cap_is_a_domain_error_before_any_call(
        self, tolerance, max_terms
    ):
        def never(k):
            raise AssertionError(f"evaluated at {k}")

        with pytest.raises(DomainError, match="tolerance > 0 and max_terms >= 1"):
            sum_series(never, never, tolerance, max_terms=max_terms)

    @pytest.mark.parametrize("start", [0, 3])
    @pytest.mark.parametrize(
        "kind", ["fraction", "int", "float", "certified", "mixed", "long"]
    )
    def test_equals_the_certified_real_fold(self, kind, start):
        # The running floats must reproduce, bit for bit, the fold of one
        # CertifiedReal addition per term that they replaced.
        term, tail, tol = _SERIES[kind]
        got = sum_series(term, tail, tol, start=start)
        want = _certified_fold(term, tail, tol, start)
        assert (got.value, got.abs_error_bound) == (want.value, want.abs_error_bound)
        assert got == want

    @pytest.mark.parametrize("x", [F(1, 4), F(7, 5), F(13, 6), F(15, 4)])
    def test_exp_series_contains_mpmath(self, x):
        # sum x^k/k!; past k + 2 >= 2x the tail is below 2 x^(k+1)/(k+1)!

        def tail(k):
            if k + 2 < 2 * x:
                return math.inf
            return 2.0 * float(x) ** (k + 1) / math.factorial(k + 1)

        v = sum_series(lambda k: x**k / math.factorial(k), tail, 1e-12)
        with mpmath.workdps(50):
            true = mpmath.exp(mpmath.mpf(x.numerator) / x.denominator)
            assert abs(true - mpmath.mpf(v.value)) <= v.abs_error_bound
        assert v.abs_error_bound < 1e-11

    @pytest.mark.parametrize("a", [F(2, 3), F(5, 4), F(17, 5), F(19, 4)])
    def test_hurwitz_zeta_two_contains_mpmath(self, a):
        v = sum_series(*_hurwitz(a))
        with mpmath.workdps(50):
            true = mpmath.zeta(2, mpmath.mpf(a.numerator) / a.denominator)
            assert abs(true - mpmath.mpf(v.value)) <= v.abs_error_bound
        assert v.abs_error_bound < 2e-3

    @pytest.mark.parametrize("start", [0, 3])
    @pytest.mark.parametrize("a", [F(2, 3), F(19, 4)])
    def test_hurwitz_stop_costs_logarithmically_many_bound_calls(self, a, start):
        term, tail, tol = _hurwitz(a)
        terms, bounds = [], []
        sum_series(_counted(term, terms), _counted(tail, bounds), tol, start=start)
        stop = _linear_stop(tail, tol, start)
        assert stop - start > 500
        assert terms == list(range(start, stop + 1))
        assert len(bounds) <= 2 * math.ceil(math.log2(stop - start + 2)) + 2

    @pytest.mark.parametrize("start", [0, 3])
    @pytest.mark.parametrize(
        "kind", ["fraction", "int", "float", "certified", "mixed", "long"]
    )
    def test_stops_at_the_first_k_below_tolerance(self, kind, start):
        term, tail, tol = _SERIES[kind]
        terms = []
        sum_series(_counted(term, terms), tail, tol, start=start)
        assert terms == list(range(start, _linear_stop(tail, tol, start) + 1))

    @pytest.mark.parametrize("start", [0, 3])
    @pytest.mark.parametrize("kind", ["hurwitz", "fraction", "int", "certified", "long"])
    def test_the_bound_may_raise_past_twice_the_stop(self, kind, start):
        # a float bound that overflows far past the stop (2.0**K at K = 1024,
        # say) must not be read there
        term, tail, tol = _hurwitz(F(5, 4)) if kind == "hurwitz" else _SERIES[kind]
        limit = start + 2 * (_linear_stop(tail, tol, start) - start) + 1

        def guarded(k):
            if k > limit:
                raise OverflowError(f"bound read at {k}, past {limit}")
            return tail(k)

        got = sum_series(term, guarded, tol, start=start)
        assert got == sum_series(term, tail, tol, start=start)

    @pytest.mark.parametrize(
        "bump",
        [lambda k: 10.0 if k % 3 == 1 else 1.0,
         lambda k: math.inf if 600 <= k < 1200 else 1.0],
        ids=["every-third-index", "a-band-past-the-first-stop"],
    )
    @pytest.mark.parametrize("a", [F(2, 3), F(17, 5)])
    def test_a_bound_that_increases_still_gives_a_sound_ball(self, a, bump):
        # anything above 1/(k+a) bounds the tail too, so the ball must stay
        # sound; the stop is an index whose bound was read and is below tol
        term, tail, tol = _hurwitz(a)
        read = {}

        def bumpy(k):
            read[k] = tail(k) * bump(k)
            return read[k]

        terms = []
        v = sum_series(_counted(term, terms), bumpy, tol)
        stop = terms[-1]
        assert terms == list(range(stop + 1))
        assert read[stop] < tol
        with mpmath.workdps(50):
            true = mpmath.zeta(2, mpmath.mpf(a.numerator) / a.denominator)
            assert abs(true - mpmath.mpf(v.value)) <= v.abs_error_bound


def _hurwitz(a):
    """(term, tail bound, tolerance) of zeta(2, a) = sum 1/(k+a)^2: the tail
    beyond K is below the integral 1/(K+a), and it drops below 1e-3 at
    K of about 1,000."""
    return (lambda k: 1 / (k + a) ** 2), (lambda k: 1.0 / float(k + a)), 1e-3


def _counted(fn, calls):
    """fn, appending each argument it is called with to ``calls``."""

    def counted(k):
        calls.append(k)
        return fn(k)

    return counted


def _linear_stop(tail_bound, tolerance, start):
    """The first K >= start with tail_bound(K) < tolerance, by a linear scan."""
    k = start
    while not tail_bound(k) < tolerance:
        k += 1
    return k


def test_float_rows_are_bit_identical_under_the_linear_fold(monkeypatch):
    # a passing float row prints no value, so the golden report cannot see
    # a sum that stopped at another K; compare every side's ball instead
    keys = [k for k in list_identities() if "float" in get_identity(k).tags]
    assert len(keys) == 8

    def balls():
        out = []
        for key in keys:
            identity = get_identity(key)
            with row_scope():
                for vals in _cases(identity, None, None):
                    sides = [identity.lhs(*vals), identity.rhs(*vals)]
                    out.append(
                        (key, vals, [(s.value, s.abs_error_bound) for s in sides])
                    )
        return out

    searched = balls()
    monkeypatch.setattr(
        identities,
        "sum_series",
        lambda term, tail, tol, start=0: _certified_fold(term, tail, tol, start),
    )
    assert balls() == searched


def _certified_fold(term, tail_bound, tolerance, start):
    total = CertifiedReal(0.0, 0.0)
    k = start
    while True:
        total = total + as_certified(term(k))
        tb = tail_bound(k)
        if tb < tolerance:
            return CertifiedReal(total.value, total.abs_error_bound + tb)
        k += 1


def _mixed_term(k):
    return (
        F((-1) ** k, k + 1),
        k * k - 7,
        (-0.8) ** k / 3,
        CertifiedReal(0.9**k, 1e-17 * (k + 1)),
    )[k % 4]


#: kind -> (term, tail bound, tolerance); the tails are whatever makes the
#: loop stop, not bounds on these series.  "long" mixes magnitudes over
#: 300 terms, so the order of the bound's additions shows in its last bits.
_SERIES = {
    "fraction": (lambda k: F((-1) ** k * (k + 1), 3**k), lambda k: 3.0**-k, 1e-12),
    "int": (
        lambda k: (-1) ** k * (k * k + 1),
        lambda k: 0.0 if k >= 25 else math.inf,
        1.0,
    ),
    "float": (lambda k: (-0.6) ** k / (k + 1), lambda k: 0.6 ** (k + 1) / 0.4, 1e-12),
    "certified": (
        lambda k: CertifiedReal(1.0 / (k + 1) ** 2, 1e-18 * (k + 1)),
        lambda k: 1.0 / (k + 1),
        1e-2,
    ),
    "mixed": (_mixed_term, lambda k: 0.0 if k >= 40 else math.inf, 1.0),
    "long": (
        lambda k: F((-1) ** k * (k * 7919 % 1000 + 1), 10 ** (k % 9)),
        lambda k: 0.0 if k >= 300 else math.inf,
        1.0,
    ),
}


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

    def test_ball_contains_mpmath(self):
        # The k-th difference of e^(+-x) is (e^(+-1) - 1)^k e^(+-x).
        with mpmath.workdps(50):
            e = mpmath.e
            for kind in ("sinh", "cosh"):
                for k in range(31):
                    for i in range(-40, 41):
                        x = i / 4.0
                        up = (e - 1) ** k * mpmath.exp(x)
                        down = (1 / e - 1) ** k * mpmath.exp(-x)
                        true = (up - down) / 2 if kind == "sinh" else (up + down) / 2
                        v = delta_hyperbolic_closed_form(kind, k, x)
                        error = abs(mpmath.mpf(v.value) - true)
                        assert error <= v.abs_error_bound, (kind, k, x)

    @pytest.mark.parametrize("x", [F(1, 3), F(-7, 5), F(5, 2)])
    def test_ball_contains_mpmath_at_exact_rationals(self, x):
        with mpmath.workdps(60):
            e, t = mpmath.e, _mp(x)
            for kind in ("sinh", "cosh"):
                for k in range(31):
                    up = (e - 1) ** k * mpmath.exp(t)
                    down = (1 / e - 1) ** k * mpmath.exp(-t)
                    true = (up - down) / 2 if kind == "sinh" else (up + down) / 2
                    v = delta_hyperbolic_closed_form(kind, k, x)
                    assert abs(mpmath.mpf(v.value) - true) <= v.abs_error_bound, (kind, k)

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
