"""Certified floating-point evaluation for the transcendental pieces.

Every result is a :class:`CertifiedReal` carrying an absolute error
bound that is meant to be honest: truncation remainders of the
asymptotic expansions are bounded by the first omitted term, and
rounding is charged conservatively per operation.  Digamma and
log-gamma use argument shifting followed by the Bernoulli-coefficient
asymptotic series; no negative real arguments are supported.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Union

from ._records import record
from .errors import ConvergenceError, DomainError

_EPS = 2.0**-52

Exactish = Union[Fraction, int, float]

class CertifiedReal(record("CertifiedReal", ("value", "abs_error_bound"), frozen=True)):
    """A double plus an absolute error bound containing the true value.

    Immutable and hashable; compares and prints by its two fields.
    """

    __slots__ = ()

    @staticmethod
    def from_exact(x: Fraction | int) -> "CertifiedReal":
        v = float(Fraction(x))
        return CertifiedReal(v, abs(v) * _EPS)

    @staticmethod
    def from_float(v: float, extra_ulps: float = 1.0) -> "CertifiedReal":
        return CertifiedReal(v, abs(v) * _EPS * extra_ulps)

    def __add__(self, other: "CertifiedReal") -> "CertifiedReal":
        v = self.value + other.value
        return CertifiedReal(
            v, self.abs_error_bound + other.abs_error_bound + abs(v) * _EPS
        )

    def __sub__(self, other: "CertifiedReal") -> "CertifiedReal":
        # a - b is a + (-b) in IEEE arithmetic, so the ball is the same
        return self + CertifiedReal(-other.value, other.abs_error_bound)

    def __mul__(self, other: "CertifiedReal") -> "CertifiedReal":
        v = self.value * other.value
        bound = (
            abs(self.value) * other.abs_error_bound
            + abs(other.value) * self.abs_error_bound
            + self.abs_error_bound * other.abs_error_bound
            + abs(v) * _EPS
        )
        return CertifiedReal(v, bound)

    def scaled(self, c: Fraction | int) -> "CertifiedReal":
        fc = float(Fraction(c))
        v = fc * self.value
        return CertifiedReal(
            v, abs(fc) * self.abs_error_bound + abs(v) * 2 * _EPS
        )

    def to_json_obj(self) -> dict:
        """Both fields as JSON numbers; a non-finite one as "inf", "-inf"
        or "nan", since JSON has no literal for it."""
        return {
            "value": _json_float(self.value),
            "abs_error_bound": _json_float(self.abs_error_bound),
        }


def _json_float(v: float):
    return v if math.isfinite(v) else str(v)


def as_certified(x) -> CertifiedReal:
    if isinstance(x, CertifiedReal):
        return x
    if isinstance(x, Fraction) or isinstance(x, int):
        return CertifiedReal.from_exact(x)
    return CertifiedReal.from_float(float(x))


# Asymptotic tail coefficients B_{2j}/(2j) for psi, j = 1..6; truncation
# error after the last kept term is below the first omitted one,
# 1/(12 x**14).
_PSI_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)

_PSI_SHIFT = 10.0


def digamma(x: Exactish) -> CertifiedReal:
    """psi(x) for finite real x > 0.

    Shifts the argument above 10 by psi(x+1) = psi(x) + 1/x, then sums
    the asymptotic expansion through the 1/x**12 term.
    """
    x = x0 = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"digamma needs finite x > 0, got {x}")
    acc = 0.0
    acc_abs = 0.0
    ops = 0
    while x < _PSI_SHIFT:
        acc -= 1.0 / x
        acc_abs += 1.0 / x
        ops += 1
        x += 1.0
    u = 1.0 / (x * x)
    tail = 0.0
    upow = u
    for coeff in _PSI_TAIL:
        tail += coeff * upow
        upow *= u
        ops += 2
    lnx = math.log(x)
    value = acc + lnx - 0.5 / x - tail
    acc_abs += abs(lnx) + 0.5 / x + abs(tail)
    trunc = upow * x * x / 12.0  # first omitted term, 1/(12 x**14)
    bound = trunc + (ops + 6) * _EPS * acc_abs
    if not (math.isfinite(value) and math.isfinite(bound)):
        # a subnormal x: the first shift step 1/x already overflows
        raise DomainError(f"digamma({x0!r}) is not finite in double precision")
    return CertifiedReal(value, bound)


#: gamma = 0.57721566490153286060651209008240... to double precision.
_EULER_GAMMA = 0.5772156649015329


def euler_gamma() -> CertifiedReal:
    """The Euler-Mascheroni constant, correctly rounded to double."""
    return CertifiedReal(_EULER_GAMMA, 1e-15)


# Stirling coefficients B_{2j}/((2j)(2j-1)) for log-gamma, j = 1..6;
# remainder below 1/(156 x**13).
_LGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
)

_HALF_LOG_TWO_PI = 0.9189385332046727


def log_gamma(x: Exactish) -> CertifiedReal:
    """ln Gamma(x) for finite real x > 0, by shift-and-Stirling with an explicit
    remainder bound.

    Past x of about 2.55e305 the ball overflows, which is a DomainError.
    """
    x = x0 = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"log_gamma needs finite x > 0, got {x}")
    shift = 0.0
    shift_abs = 0.0
    ops = 0
    while x < _PSI_SHIFT:
        lg = math.log(x)
        shift -= lg
        shift_abs += abs(lg)
        ops += 2
        x += 1.0
    u = 1.0 / (x * x)
    tail = 0.0
    upow = 1.0 / x
    for coeff in _LGAMMA_TAIL:
        tail += coeff * upow
        upow *= u
        ops += 2
    value = shift + (x - 0.5) * math.log(x) - x + _HALF_LOG_TWO_PI + tail
    mag = shift_abs + abs((x - 0.5) * math.log(x)) + x + 1.0 + abs(tail)
    trunc = upow / 156.0 * x * x / x  # first omitted term, 1/(156 x**13)
    rounding = (ops + 8) * _EPS * mag
    bound = trunc + rounding
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise DomainError(f"log_gamma({x0!r}) is not finite in double precision")
    return CertifiedReal(value, bound)


def hyperharmonic_real(z: Exactish, w: Exactish) -> CertifiedReal:
    """h(z, w) = Gamma(z+w)/(Gamma(z+1) Gamma(w)) * (psi(z+w) - psi(w)).

    Restricted to w > 0, z + w > 0 and z > -1 so every gamma/digamma
    argument stays positive.  Bounds are honest: below 1e-10 while the
    result stays of order ten, and growing roughly like 2e-12 times the
    magnitude of the result beyond that (the log-gamma route cannot
    certify a fixed absolute bound for large values in doubles).  From z
    around 1e13 the log-gamma error makes the bound exceed the value, and
    past about 3e15 the bound is infinite.  Past about 2.55e305, where the
    log-gamma ball itself overflows, it raises DomainError.
    """
    z = float(z)
    w = float(w)
    if w <= 0.0 or z + w <= 0.0 or z + 1.0 <= 0.0:
        raise DomainError(
            f"hyperharmonic_real needs w > 0, z + w > 0 and z > -1, got ({z}, {w})"
        )
    lg = log_gamma(z + w)
    lg1 = log_gamma(z + 1.0)
    lgw = log_gamma(w)
    log_pref = (lg - lg1) - lgw
    pref_value = math.exp(log_pref.value)
    # |e^(v+d) - e^v| <= e^v (e^|d| - 1), and e^|d| - 1 <= 1.2 |d| for |d| <= 0.3
    d = log_pref.abs_error_bound
    if d <= 0.3:
        rel = 1.2 * d
    else:
        try:
            rel = math.expm1(d) * (1.0 + 4 * _EPS)  # rounded up
        except OverflowError:
            rel = math.inf
    pref = CertifiedReal(pref_value, pref_value * (rel + 2 * _EPS))
    diff = digamma(z + w) - digamma(w)
    return pref * diff


def sum_series(
    term: Callable[[int], CertifiedReal | Fraction | int],
    tail_bound: Callable[[int], float],
    tolerance: float,
    start: int = 0,
    max_terms: int = 10**6,
) -> CertifiedReal:
    """Partial sum up to the first K with tail_bound(K) < tolerance.

    ``tail_bound(K)`` must bound the absolute value of the tail beyond
    index K (it may return ``inf`` while a bound is not yet valid).  The
    result's error bound is that tail plus accumulated rounding.

    The running value and bound are two plain floats, updated exactly as
    ``CertifiedReal.__add__(as_certified(term))`` would update them: an
    int or ``Fraction`` term adds its rounded value and one ulp-sized
    bound, any other term its own certified fields.  One ``CertifiedReal``
    is built, for the result.
    """
    value = bound = 0.0
    k = start
    count = 0
    while True:
        t = term(k)
        if isinstance(t, (int, Fraction)):
            tv = float(t)
            te = abs(tv) * _EPS
        else:
            t = as_certified(t)
            tv, te = t.value, t.abs_error_bound
        value = value + tv
        bound = bound + te + abs(value) * _EPS
        tb = tail_bound(k)
        if tb < tolerance:
            return CertifiedReal(value, bound + tb)
        k += 1
        count += 1
        if count > max_terms:
            raise ConvergenceError(
                f"tail bound still {tb} after {max_terms} terms (tolerance {tolerance})"
            )


def delta_hyperbolic_closed_form(kind: str, k: int, x: float) -> CertifiedReal:
    """Closed form of the k-th forward difference of sinh or cosh at x.

    sinh: (1/(2 e**x)) (1 - 1/e)**k (e**(2x+k) + (-1)**(k+1));
    cosh: the same with (-1)**k.
    """
    if kind not in ("sinh", "cosh"):
        raise DomainError(f"kind must be 'sinh' or 'cosh', got {kind!r}")
    if k < 0:
        raise DomainError(f"needs k >= 0, got {k}")
    sign = 1.0 if (k % 2 == 0) == (kind == "cosh") else -1.0
    big = math.exp(2.0 * x + k)
    value = 0.5 * math.exp(-x) * (1.0 - 1.0 / math.e) ** k * (big + sign)
    mag = 0.5 * math.exp(-x) * (1.0 - 1.0 / math.e) ** k * (big + 1.0)
    return CertifiedReal(value, (k + 8) * _EPS * mag)
