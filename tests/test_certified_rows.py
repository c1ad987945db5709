"""The certified float rows against an independent mpmath oracle.

Each side of every ``float`` row is a ``CertifiedReal``: a float with an
absolute error bound that covers the truncated tail and the rounding.
With no tolerance in the audit, these bounds alone decide the float
verdicts, so every such interval must contain the side's true value.

* ``t1-1.23``, ``t2-1.23``, ``t1-2.16`` and ``t2-2.16``: computed at 50
  digits; series are summed directly far past the point where their
  terms drop below 10^-100, and closed forms come from mpmath's own
  functions.
* ``prop-one11-sinh``, ``prop-one11-cosh``, ``rem-one11-x0`` and
  ``prop-one6``, on every case of their default domains: computed at 60
  digits; each left side is its alternating binomial sum of mpmath's
  sinh, cosh or digamma, each right side its closed form.
"""

import mpmath
import pytest

from hyperseq.identities import _cases, get_identity, row_scope

mpf = mpmath.mpf


def _h(k, r):
    """h(k, r) = C(k+r-1, r-1) (H(k+r-1) - H(r-1)), in mpmath."""
    return mpmath.binomial(k + r - 1, r - 1) * (
        mpmath.harmonic(k + r - 1) - mpmath.harmonic(r - 1)
    )


def _oracles(key, r):
    """The true values of the row's left and right sides."""
    if key == "t1-1.23":
        lhs = mpmath.fsum(mpmath.harmonic(k) / mpf(2) ** k for k in range(500))
        return lhs, 2 * mpmath.log(2)
    if key == "t2-1.23":
        lhs = mpmath.fsum(_h(k, r) / mpf(2) ** k for k in range(500))
        return lhs, mpf(2) ** r * mpmath.log(2)
    if key == "t1-2.16":
        lhs = mpmath.fsum(
            mpmath.harmonic(k) / mpmath.factorial(k) for k in range(1, 120)
        )
        # sum_k (-1)^(k-1)/(k! k) = Ein(1) = gamma + E1(1)
        return lhs, mpmath.e * (mpmath.euler + mpmath.e1(1))
    lhs = mpmath.fsum(
        _h(k, r) / (mpmath.binomial(r - 1 + k, k) ** 2 * mpmath.factorial(k))
        for k in range(1, 120)
    )
    rhs = mpmath.e * mpmath.fsum(
        mpf(-1) ** k / ((r + k) ** 2 * mpmath.factorial(k)) for k in range(120)
    )
    return lhs, rhs


CASES = (
    [("t1-1.23", None), ("t1-2.16", None)]
    + [("t2-1.23", r) for r in range(2, 5)]
    + [("t2-2.16", r) for r in range(1, 9)]
)


@pytest.mark.parametrize("key, r", CASES, ids=[f"{k}-r{r}" for k, r in CASES])
def test_each_side_interval_contains_the_true_value(key, r):
    identity = get_identity(key)
    params = {} if r is None else {"r": r}
    with row_scope():
        sides = (identity.lhs(**params), identity.rhs(**params))
    with mpmath.workdps(50):
        for side, true in zip(sides, _oracles(key, r)):
            assert abs(mpf(side.value) - true) <= mpf(side.abs_error_bound)


def _hyperbolic_difference(kind, k, x):
    """The k-th forward difference of sinh or cosh at x, in closed form.

    The difference of e^(+-x) is (e^(+-1) - 1)^k e^(+-x).
    """
    e = mpmath.e
    up = (e - 1) ** k * mpmath.exp(x)
    down = (1 / e - 1) ** k * mpmath.exp(-x)
    return (up - down) / 2 if kind == "sinh" else (up + down) / 2


def _alternating(k, fn, x):
    """sum_i (-1)^(k-i) C(k, i) fn(x + i), the k-th forward difference."""
    return mpmath.fsum(
        (-1) ** (k - i) * mpmath.binomial(k, i) * fn(x + i) for i in range(k + 1)
    )


def _difference_oracles(key, pa):
    """The true values of the row's left and right sides at ``pa``."""
    if key == "prop-one6":
        k, x = pa["k"], mpf(pa["x"].numerator) / pa["x"].denominator
        lhs = (-1) ** k * _alternating(k, mpmath.digamma, x)
        return lhs, -mpmath.factorial(k - 1) / mpmath.rf(x, k)
    if key == "rem-one11-x0":
        kind, x = ("sinh", "cosh")[pa["part"]], mpf(0)
    else:
        kind = key.rsplit("-", 1)[1]
        x = mpf(pa["x"].numerator) / pa["x"].denominator
    k = pa["k"]
    fn = mpmath.sinh if kind == "sinh" else mpmath.cosh
    return _alternating(k, fn, x), _hyperbolic_difference(kind, k, x)


@pytest.mark.parametrize(
    "key", ["prop-one11-sinh", "prop-one11-cosh", "rem-one11-x0", "prop-one6"]
)
def test_every_case_interval_contains_the_true_value(key):
    # the sides the audit compares, from the engine's own case stream
    cases = 0
    with mpmath.workdps(60), row_scope():
        for pa, lv, (rv,) in _cases(get_identity(key), None, None):
            cases += 1
            for side, true in zip((lv, rv), _difference_oracles(key, pa)):
                error = abs(mpf(side.value) - true)
                assert error <= mpf(side.abs_error_bound), (pa, side, true)
    assert cases == {"prop-one6": 40, "rem-one11-x0": 32}.get(key, 144)
