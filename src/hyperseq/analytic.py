"""Certified floating-point evaluation for the transcendental pieces.

Every result is a :class:`CertifiedReal`, a double centre and a radius
that contains the true value.  Truncation remainders are bounded by the
first omitted term.  Rounding is charged by one rule, :func:`_radius`: a
rounded double v is within |v| 2**-52 plus 2**-1074, one ulp of an
underflow, of the real it stands for, and an error term that is a product
of magnitudes is 0 when either factor is 0.  Every ball constructor and
operation takes its radius from it; digamma and log-gamma (argument
shifting, then the Bernoulli asymptotic series, for x > 0 only) keep
their own per-operation charge.

The one trusted error: libm's ``math.exp``, ``math.expm1`` and
``math.log`` are within one ulp (:func:`exp_ball`, :func:`ln2`).  A
centre past the double range, a nan radius or a non-finite double
argument is a ``DomainError`` everywhere here, so the audit skips the case.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Union

from ._records import record
from .errors import ConvergenceError, DomainError
from .exactnum import reduced

_EPS = 2.0**-52
_TINY = 2.0**-1074

Exactish = Union[Fraction, int, float]

class CertifiedReal(record("CertifiedReal", ("value", "abs_error_bound"))):
    """A double plus an absolute error bound containing the true value.

    Immutable and hashable; compares and prints by its two fields.
    """

    __slots__ = ()

    @staticmethod
    def from_exact(x: Fraction | int) -> "CertifiedReal":
        return _ball(_or_inf(float, x), 0.0, "a rational", ulps=bool(x))

    @staticmethod
    def from_float(v: float) -> "CertifiedReal":
        """A double taken to be within one ulp of the real it stands for."""
        return _ball(v, 0.0, "the double {!r}", v)

    def __add__(self, other: "CertifiedReal") -> "CertifiedReal":
        v = self.value + other.value
        return _ball(v, self.abs_error_bound + other.abs_error_bound, "a sum")

    def __sub__(self, other: "CertifiedReal") -> "CertifiedReal":
        v = self.value - other.value
        return _ball(v, self.abs_error_bound + other.abs_error_bound, "a difference")

    def __mul__(self, other: "CertifiedReal") -> "CertifiedReal":
        return _product(self, other.value, other.abs_error_bound, "a product")

    def scaled(self, c: Fraction | int) -> "CertifiedReal":
        fc = _or_inf(float, c)
        return _product(self, fc, _radius(fc, ulps=bool(c)), "a scaled ball")

    def to_json_obj(self) -> dict:
        """Both fields as JSON numbers; a non-finite one as "inf", "-inf"
        or "nan", since JSON has no literal for it."""
        return {
            "value": _json_float(self.value),
            "abs_error_bound": _json_float(self.abs_error_bound),
        }


def _json_float(v: float):
    return v if math.isfinite(v) else str(v)


def _or_inf(f: Callable[[Exactish], float], x: Exactish) -> float:
    """f(x), or an infinity of x's sign where it overflows the double range."""
    try:
        return f(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _arg(x: Exactish) -> float:
    """x as a double argument; a non-finite one is a DomainError."""
    xf = _or_inf(float, x)
    if math.isfinite(xf):
        return xf
    raise DomainError(f"the argument {xf} is not finite in double precision")


def _mag(a: float, b: float) -> float:
    """a * b for two magnitudes, 0 when either is 0 (so 0 * inf is 0)."""
    return a * b if a and b else 0.0


def _radius(v: float, err: float = 0.0, ulps: float = 1.0) -> float:
    """err plus the rule's charge for a double v whose error is ulps units of
    |v| 2**-52: those units plus 2**-1074.  An exact v (ulps 0) adds nothing."""
    if not ulps:
        return err
    return (abs(v) * _EPS * ulps if v else 0.0) + _TINY + err


def _ball(value: float, err: float, what: str, *args, ulps=1.0) -> CertifiedReal:
    """The ball value +- _radius(value, err, ulps), unless its centre left
    the double range or its radius is nan."""
    bound = _radius(value, err, ulps)
    if math.isfinite(value) and not math.isnan(bound):
        return CertifiedReal(value, bound)
    raise DomainError(f"{what.format(*args)} is not finite in double precision")


def _product(x: CertifiedReal, b: float, s: float, what: str) -> CertifiedReal:
    """x times the ball b +- s; a product with a zero factor is exact."""
    a, r = x.value, x.abs_error_bound
    err = _mag(abs(a), s) + _mag(abs(b), r) + _mag(r, s)
    return _ball(a * b, err, what, ulps=a != 0 and b != 0)


def exp_ball(x: Exactish | CertifiedReal) -> CertifiedReal:
    """e**x.  At an exact x: math.exp at the double xf nearest x is one ulp from
    e**xf, and e**(x - xf) within |xf| ulp of 1.  At a ball c +- d: e**c <= v + u,
    with v = math.exp(c) and u its one-ulp radius, so d widens the ball by
    (v + u)(e**d - 1), e**d - 1 from math.expm1 rounded up."""
    if isinstance(x, CertifiedReal):
        v = _or_inf(math.exp, x.value)
        em1 = _or_inf(math.expm1, x.abs_error_bound)
        return _ball(v, _mag(v + _radius(v), _radius(em1, em1)), "exp({})", x)
    xf = _arg(x) if isinstance(x, float) else _or_inf(float, x)
    v = _or_inf(math.exp, xf)
    return _ball(v, 0.0, "exp({})", x, ulps=1.0 + abs(xf))


def ln2() -> CertifiedReal:
    """ln 2, from math.log within one ulp."""
    return CertifiedReal.from_float(math.log(2.0))


def as_certified(x) -> CertifiedReal:
    if isinstance(x, CertifiedReal):
        return x
    if isinstance(x, Fraction) or isinstance(x, int):
        return CertifiedReal.from_exact(x)
    return CertifiedReal.from_float(float(x))


# Asymptotic tail coefficients B_{2j}/(2j) for psi, j = 1..6; truncation
# error after the last kept term is below the first omitted one,
# 1/(12 x**14).
_PSI_TAIL = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760)

_PSI_SHIFT = 10.0


def digamma(x: Exactish) -> CertifiedReal:
    """psi(x) for finite real x > 0.

    Shifts the argument above 10 by psi(x+1) = psi(x) + 1/x, then sums
    the asymptotic expansion through the 1/x**12 term.
    """
    x = x0 = float(x)
    if not 0.0 < x < math.inf:  # _arg raises first for nan and inf
        raise DomainError(f"digamma needs finite x > 0, got {_arg(x)}")
    acc = acc_abs = 0.0
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
    # a subnormal x: the first shift step 1/x already overflows
    return _ball(value, trunc + (ops + 6) * _EPS * acc_abs, "digamma({!r})", x0, ulps=0)


# Stirling coefficients B_{2j}/((2j)(2j-1)) for log-gamma, j = 1..6;
# remainder below 1/(156 x**13).
_LGAMMA_TAIL = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)

_HALF_LOG_TWO_PI = 0.9189385332046727


def log_gamma(x: Exactish) -> CertifiedReal:
    """ln Gamma(x) for finite real x > 0, by shift-and-Stirling with an explicit
    remainder bound.

    Past x of about 2.55e305 the ball overflows, which is a DomainError.
    """
    x = x0 = float(x)
    if not 0.0 < x < math.inf:  # _arg raises first for nan and inf
        raise DomainError(f"log_gamma needs finite x > 0, got {_arg(x)}")
    shift = shift_abs = 0.0
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
    return _ball(value, trunc + (ops + 8) * _EPS * mag, "log_gamma({!r})", x0, ulps=0)


def hyperharmonic_real(z: Exactish, w: Exactish) -> CertifiedReal:
    """h(z, w) = Gamma(z+w)/(Gamma(z+1) Gamma(w)) * (psi(z+w) - psi(w)).

    Needs w > 0, z + w > 0 and z > -1, so every gamma/digamma argument is
    positive.  The bound is below 5e-11 for integer z <= 10 at w = 1/2,
    3/2 and 5/2 (values up to about 50) and below 2e-12 times the value for
    z up to 30; from z of about 3e12 it exceeds the value, and from about
    2e15 it is infinite.  A value past the double range (from z = w = 1000,
    say) raises DomainError.
    """
    z, w = _arg(z), _arg(w)
    if w <= 0.0 or z + w <= 0.0 or z + 1.0 <= 0.0:
        raise DomainError(
            f"hyperharmonic_real needs w > 0, z + w > 0 and z > -1, got ({z}, {w})"
        )
    log_ratio = (log_gamma(z + w) - log_gamma(z + 1.0)) - log_gamma(w)
    return exp_ball(log_ratio) * (digamma(z + w) - digamma(w))


def sum_series(
    term: Callable[[int], CertifiedReal | Fraction | int],
    tail_bound: Callable[[int], float | Fraction],
    tolerance: float,
    start: int = 0,
    max_terms: int = 10**6,
) -> CertifiedReal:
    """Partial sum of terms start..K at the first K with tail_bound(K) < tolerance.

    ``tail_bound(K)`` must bound the absolute value of the tail beyond
    index K (it may return ``inf`` while a bound is not yet valid; an exact
    rational cannot overflow).  The result's error bound is that tail plus
    accumulated rounding.

    K is found before any term is read, by probing the bound at start,
    start+1, start+3, start+7, ... and bisecting the last gap, so a K-term
    series costs about 2 log2 K bound calls and K term calls.  The search
    needs the bound not to increase with K; then K is the first index
    where the bound drops below ``tolerance``.  A bound that increases
    somewhere still gives a sound ball (K is always an index whose bound
    was evaluated and is below ``tolerance``), but maybe not at the first
    such K.  The bound is read at no index past
    max(start, start + 2(K - start) - 1), nor past the last of the
    ``max_terms`` indices.

    The running value and bound are two floats, updated exactly as
    ``CertifiedReal.__add__(as_certified(term))`` would update them, so one
    ``CertifiedReal`` is built, for the result.  A partial sum that leaves
    the double range is a DomainError; a bound that stays at or above
    ``tolerance`` through ``max_terms`` terms is a ConvergenceError.
    """
    if not tolerance > 0 or max_terms < 1:
        raise DomainError(
            f"sum_series needs tolerance > 0 and max_terms >= 1, "
            f"got {tolerance} and {max_terms}"
        )
    stop, tb = _stop_index(tail_bound, tolerance, start, start + max_terms - 1)
    value = bound = 0.0
    for k in range(start, stop + 1):
        t = term(k)
        if isinstance(t, (int, Fraction)):
            p, q = t.as_integer_ratio()
            try:
                tv = p / q  # float(t), correctly rounded
            except OverflowError:
                tv = math.inf if p > 0 else -math.inf
            te = _radius(tv, 0.0, p != 0)
        else:
            t = as_certified(t)
            tv, te = t.value, t.abs_error_bound
        value = value + tv
        bound = _radius(value, bound + te)
        if not math.isfinite(value):
            break
    if not tb < tolerance and math.isfinite(value):
        raise ConvergenceError(
            f"tail bound still {tb} after {max_terms} terms (tolerance {tolerance})"
        )
    return _ball(value, bound + _or_inf(float, tb), "a series", ulps=0)


def _stop_index(tail_bound, tolerance, start: int, last: int):
    """(K, tail_bound(K)) for a K in start..last whose bound is below
    ``tolerance``, or (last, tail_bound(last)) when that bound is not.

    Probes start + 2**j - 1 for j = 0, 1, ... (and last), then bisects
    between the last probe that failed and the first that passed; for a
    bound that does not increase, K is the first index below ``tolerance``.
    """
    failed, k = start - 1, start
    tb = tail_bound(k)
    while not tb < tolerance:
        if k == last:
            return k, tb
        failed, k = k, min(2 * k - start + 1, last)
        tb = tail_bound(k)
    while k - failed > 1:
        mid = (failed + k) // 2
        tb_mid = tail_bound(mid)
        if tb_mid < tolerance:
            k, tb = mid, tb_mid
        else:
            failed = mid
    return k, tb


def delta_hyperbolic_closed_form(kind: str, k: int, x: Exactish) -> CertifiedReal:
    """Closed form of the k-th forward difference of sinh or cosh at x.

    sinh: (1/(2 e**x)) (1 - 1/e)**k (e**(2x+k) + (-1)**(k+1));
    cosh: the same with (-1)**k.  Evaluated in ball arithmetic at the
    exact x (a float x stands for its exact value).
    """
    if kind not in ("sinh", "cosh"):
        raise DomainError(f"kind must be 'sinh' or 'cosh', got {kind!r}")
    if k < 0:
        raise DomainError(f"needs k >= 0, got {k}")
    if isinstance(x, float):
        x = Fraction(_arg(x))
    one = CertifiedReal.from_exact(1)
    sign = CertifiedReal.from_exact(1 if (k % 2 == 0) == (kind == "cosh") else -1)
    twice = math.prod([one - exp_ball(-1)] * k, start=exp_ball(2 * x + k) + sign)
    return (twice * exp_ball(-x)).scaled(reduced(1, 2))
