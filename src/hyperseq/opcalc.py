"""Operator calculus over exact rationals.

Forward differences (computed two independent ways and cross-checked),
the binomial transform pair, the exact derivative at zero of a
reciprocal rising factorial, leaping binomial coefficients, and
truncated formal power series for the generating functions.

A term oracle is any pure callable from an integer index to an exact
rational; determinism is the caller's contract.

The kernels that combine many exact values (the power-series product,
the binomial transform pair and the iterated branch of
``forward_difference``) bring their inputs to plain integers over one
common denominator with ``exactnum.over_common_denominator``, do all
the arithmetic on those integers, and build one ``Fraction`` per
result.  The alternating branch of ``forward_difference`` goes through
``exactnum.dot`` instead, so the two branches share no arithmetic code.
Both of those refuse a value that is not an int or ``Fraction`` with
``TypeError``, and so do the kernels here that read a rational argument
themselves; none passes a value through ``Fraction()``.
``dx_reciprocal_rising`` brings its factor offsets to integers over one
denominator and reads the one derivative kernel,
``exactnum.derivative_at_zero``, which differentiates by the product
rule.

``gf_hyperharmonic`` does not multiply series when r <= order: dividing
by (1-z) is one prefix sum, so it reads the r-fold partial sums of
``exactnum.reciprocal_partial_sums``, the definition of h(n, r) that
the DEF method reads too.  That costs r*order big-int additions, so for
r > order it forms the bounded-cost product
``log_series(order) * geom_power_series(r, order)`` instead.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from ._records import record
from .errors import ComputationIntegrityError, DomainError
from .exactnum import (
    _ratio,
    binomial_int,
    derivative_at_zero,
    dot,
    factorial,
    format_rational,
    over_common_denominator,
    reciprocal_partial_sums,
    signed_binomial_row,
)

_F = Fraction

TermOracle = Callable[[int], Fraction]


def forward_difference(f: TermOracle, k: int, x: int) -> Fraction:
    """k-th forward difference of f at x, from f(x), ..., f(x + k).

    Evaluated both by k-fold iterated first differences and by the
    alternating binomial sum; the two must agree exactly and the common
    value is returned.  A mismatch raises ComputationIntegrityError
    (a bug, not bad input).
    """
    if k < 0:
        raise DomainError(f"difference order must be >= 0, got {k}")
    vals = [f(x + i) for i in range(k + 1)]

    row, d = over_common_denominator(vals)
    for _ in range(k):
        row = list(map(operator.sub, row[1:], row[:-1]))
    iterated = _F(row[0], d)

    alternating = dot(signed_binomial_row(k), vals)
    if iterated != alternating:
        raise ComputationIntegrityError(
            f"difference algorithms disagree at k={k}, x={x}: "
            f"{iterated} vs {alternating}"
        )
    return iterated


def binomial_transform(b: Sequence) -> list[Fraction]:
    """a_k = sum_i binom(k, i) b_i."""
    nums, d = over_common_denominator(b)
    out = []
    row = [1]  # binom(k, i) for i = 0..k, advanced by Pascal's rule
    for k in range(len(nums)):
        out.append(_F(sum(map(operator.mul, row, nums)), d))
        row = [1, *map(operator.add, row, row[1:]), 1]
    return out


def inverse_binomial_transform(a: Sequence) -> list[Fraction]:
    """b_k = sum_i (-1)**(k+i) binom(k, i) a_i; inverse of the transform."""
    nums, d = over_common_denominator(a)
    return [
        _F(sum(map(operator.mul, signed_binomial_row(k), nums)), d)
        for k in range(len(nums))
    ]


def leaping_binomial(x, n: int, m: int) -> Fraction:
    """Leaping binomial coefficient: (1/(n!)**m) * prod_{i=1..n} (x + i**m).

    Reduces to the ordinary binomial binom(x+n, n) at m = 1, and its
    derivative at x = 0 is the generalized harmonic number of order m.
    """
    if n < 1 or m < 1:
        raise DomainError(f"leaping binomial needs n >= 1 and m >= 1, got ({n}, {m})")
    p, q = _ratio(x, "leaping_binomial")
    prod = math.prod(p + i**m * q for i in range(1, n + 1))
    return _F(prod, q**n * factorial(n) ** m)


def dx_reciprocal_rising(c, k: int) -> Fraction:
    """Derivative at j = 0 of 1 / (c + j)(c + j + 1)...(c + j + k - 1).

    Equals -(sum_{i<k} 1/(c+i)) / rising(c, k); zero when k = 0.
    """
    if k < 0:
        raise DomainError(f"needs k >= 0, got {k}")
    p, q = _ratio(c, "dx_reciprocal_rising")
    shifted = [p + i * q for i in range(k)]  # q (c + i)
    if 0 in shifted:
        raise DomainError(
            f"pole at i={shifted.index(0)} in the rising factorial of {c}"
        )
    return derivative_at_zero(shifted, q, 1, -1)


class PowerSeries(record("PowerSeries", ("coeffs",))):
    """Truncated formal power series with exact rational coefficients.

    Arithmetic never reads beyond the truncation order; sums and
    products truncate to the smaller order of the two operands.
    Immutable and hashable; compares and prints by its coefficients.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable):
        coeffs = tuple(
            c if type(c) is _F else _F(*_ratio(c, "PowerSeries")) for c in coeffs
        )
        if not coeffs:
            raise ValueError("a power series needs at least the constant term")
        super().__init__(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise DomainError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        order = min(self.order, other.order)
        return PowerSeries(
            tuple(self.coeffs[i] + other.coeffs[i] for i in range(order + 1))
        )

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        order = min(self.order, other.order)
        a, da = over_common_denominator(self.coeffs[: order + 1])
        b, db = over_common_denominator(other.coeffs[: order + 1])
        d = da * db
        return PowerSeries(
            tuple(
                _F(sum(map(operator.mul, a[: n + 1], b[n::-1])), d)
                for n in range(order + 1)
            )
        )

    def scale(self, s) -> "PowerSeries":
        _ratio(s, "PowerSeries.scale")
        return PowerSeries(tuple(s * c for c in self.coeffs))

    def to_json_list(self) -> list[str]:
        """Coefficients as canonical rational strings, index = exponent."""
        return [format_rational(c) for c in self.coeffs]


def log_series(order: int) -> PowerSeries:
    """-ln(1-z) truncated: coefficient k is 1/k (0 at k = 0).

    Coefficients are emitted directly; no analytic logarithm is involved.
    """
    return PowerSeries(tuple(_F(0) if k == 0 else _F(1, k) for k in range(order + 1)))


def geom_power_series(r: int, order: int) -> PowerSeries:
    """(1-z)**(-r) truncated: coefficient k is binom(k+r-1, k)."""
    if r < 0:
        raise DomainError(f"needs r >= 0, got {r}")
    return PowerSeries(
        tuple(_F(binomial_int(k + r - 1, k)) for k in range(order + 1))
    )


def gf_hyperharmonic(r: int, order: int) -> PowerSeries:
    """Truncation of -ln(1-z)/(1-z)**r; coefficient n is h(n, r).

    For r <= order it is ``exactnum.reciprocal_partial_sums(r, order)``:
    each of the r divisions by (1-z) is one prefix sum.  For r > order,
    where r prefix sums would cost more than the order's convolution, it
    is the product ``log_series(order) * geom_power_series(r, order)``.
    """
    if r < 1:
        raise DomainError(f"needs r >= 1, got {r}")
    if r > order:
        return log_series(order) * geom_power_series(r, order)
    nums, d = reciprocal_partial_sums(r, order)
    return PowerSeries(tuple(_F(c, d) for c in nums))


def gf_harmonic(order: int) -> PowerSeries:
    """Truncation of -ln(1-z)/(1-z); coefficient n is H(n)."""
    return gf_hyperharmonic(1, order)


def gf_beta(r: int, order: int) -> PowerSeries:
    """Truncation of 1/(r (1-z)**r); coefficient k is beta(k, r)."""
    if r < 1:
        raise DomainError(f"needs r >= 1, got {r}")
    return geom_power_series(r, order).scale(_F(1, r))


def gf_alpha(r: int, order: int) -> PowerSeries:
    """Truncation of z/(1-z) - r ln(1-z); coefficient k >= 1 is alpha(k, r)."""
    if r < 0:
        raise DomainError(f"needs r >= 0, got {r}")
    geom_minus_one = PowerSeries(
        tuple(_F(0) if k == 0 else _F(1) for k in range(order + 1))
    )
    return geom_minus_one + log_series(order).scale(r)
