"""The certified float rows against an independent 50-digit oracle.

Each side of ``t1-1.23``, ``t2-1.23``, ``t1-2.16`` and ``t2-2.16`` is a
``CertifiedReal``: a float with an absolute error bound that covers the
truncated tail and the rounding.  Every such interval must contain the
side's true value, computed here with mpmath at 50 digits: series are
summed directly far past the point where their terms drop below
10^-100, and closed forms come from mpmath's own functions.
"""

import mpmath
import pytest

from hyperseq.identities import get_identity, row_scope

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
