"""Exact rational arithmetic and the factorial/binomial primitives.

Every exact value in the package is a ``fractions.Fraction``: an
arbitrary-precision fraction that is always reduced, has a positive
denominator, and represents zero uniquely as 0/1.  The alias
``ExactRational`` names that contract.  On top of it this module provides
the factorial, rising/falling factorial and binomial-coefficient
primitives the sequence and operator modules build on, the exact dot
product every binomial-weighted sum goes through, plus the canonical
``p/q`` text rendering used by the CLI and report files.

``dot(coeffs, values)`` is the exact sum of ``c * v`` over two sequences
of equal length (a length mismatch raises ``ValueError``).  Its inputs
must be ints or ``Fraction``s; anything else, a float or a certified
float included, raises ``TypeError``, so an inexact value can never leak
into an exact sum.  The terms are accumulated as plain integers over one
common denominator, the ``math.lcm`` of the term denominators, and the
result is normalized once, by the single ``Fraction`` built at the end.
An empty sum is 0.

``signed_binomial_row(k)`` is the tuple of the k-th difference weights,
``(-1)**(k-i) * C(k, i)`` for i = 0..k, as ints (so it can be sliced and
passed to ``dot`` as the coefficients).  A negative k raises
``ValueError``.  Rows with k <= ``MEMO_CAP`` are built once and shared,
which is safe because tuples are immutable.

Factorials, small binomial coefficients and signed binomial rows are
memoized up to ``MEMO_CAP`` because the identity audit evaluates the
same coefficients millions of times; larger arguments fall through to
``math`` directly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

ExactRational = Fraction

#: Arguments up to this value are served from the memo caches.
MEMO_CAP = 256

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def make_rational(p: int, q: int = 1) -> Fraction:
    """Build the reduced fraction p/q with a positive denominator.

    Raises ``ZeroDivisionError`` when ``q`` is zero.
    """
    return Fraction(p, q)


def format_rational(x: Fraction) -> str:
    """Canonical text form: ``p/q``, or just ``p`` when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse the canonical rendering, plus an optional leading sign.

    Accepts exactly ``[+-]?digits`` or ``[+-]?digits/digits``; anything
    else (whitespace, decimals, signed denominators, a zero denominator)
    is rejected with ``ValueError``.
    """
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a canonical rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


@lru_cache(maxsize=None)
def _factorial_cached(n: int) -> int:
    return math.factorial(n)


def factorial(n: int) -> int:
    """n! for n >= 0, memoized for n <= MEMO_CAP."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    if n <= MEMO_CAP:
        return _factorial_cached(n)
    return math.factorial(n)


@lru_cache(maxsize=None)
def _comb_cached(n: int, k: int) -> int:
    return math.comb(n, k)


def binomial_int(n: int, k: int) -> int:
    """Integer binomial coefficient with the standard conventions.

    Returns 0 for k < 0 and for k > n >= 0.  A negative upper index is
    defined through the falling-factorial (generalized) binomial, so
    binomial_int(-m, k) == (-1)**k * binomial_int(m + k - 1, k); the
    summation-table rows need those signed values.
    """
    if k < 0:
        return 0
    if n >= 0:
        if k > n:
            return 0
        if n <= MEMO_CAP:
            return _comb_cached(n, k)
        return math.comb(n, k)
    m = k - n - 1
    top = _comb_cached(m, k) if m <= MEMO_CAP else math.comb(m, k)
    return -top if k % 2 else top


def _signed_row(k: int) -> tuple:
    row = []
    c = 1
    for i in range(k + 1):  # c = C(k, i)
        row.append(-c if (k - i) % 2 else c)
        c = c * (k - i) // (i + 1)
    return tuple(row)


_signed_row_cached = lru_cache(maxsize=None)(_signed_row)


def signed_binomial_row(k: int) -> tuple:
    """((-1)**(k-i) C(k, i) for i = 0..k), memoized for k <= MEMO_CAP."""
    if k < 0:
        raise ValueError("signed binomial row of a negative order")
    if k <= MEMO_CAP:
        return _signed_row_cached(k)
    return _signed_row(k)


def dot(coeffs, values) -> Fraction:
    """Exact sum of c * v over paired ints and Fractions, normalized once."""
    nums = []
    dens = []
    for c, v in zip(coeffs, values, strict=True):
        if type(c) is int and type(v) is Fraction:  # the common case, first
            nums.append(c * v.numerator)
            dens.append(v.denominator)
            continue
        if isinstance(c, int):
            cn, cd = c, 1
        elif isinstance(c, Fraction):
            cn, cd = c.numerator, c.denominator
        else:
            raise TypeError(f"dot needs ints or Fractions, got {type(c).__name__}")
        if isinstance(v, int):
            nums.append(cn * v)
            dens.append(cd)
        elif isinstance(v, Fraction):
            nums.append(cn * v.numerator)
            dens.append(cd * v.denominator)
        else:
            raise TypeError(f"dot needs ints or Fractions, got {type(v).__name__}")
    scale = math.lcm(*dens)
    if scale == 1:
        return Fraction(sum(nums))
    return Fraction(sum([p * (scale // q) for p, q in zip(nums, dens)]), scale)


def _num_den(x) -> tuple[int, int]:
    if isinstance(x, int):
        return x, 1
    x = Fraction(x)
    return x.numerator, x.denominator


def _shifted_product(x, n: int, step: int) -> tuple[int, int]:
    """(numerator, denominator) of x(x+step)...(x+(n-1)step) as ints."""
    p, q = _num_den(x)
    num = 1
    for i in range(n):
        num *= p + step * i * q
    return num, q**n


def rising_factorial(x, n: int) -> Fraction:
    """x(x+1)...(x+n-1); the empty product (n = 0) is 1."""
    if n < 0:
        raise ValueError("rising factorial needs n >= 0")
    return Fraction(*_shifted_product(x, n, 1))


def falling_factorial(x, n: int) -> Fraction:
    """x(x-1)...(x-n+1); the empty product (n = 0) is 1."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    return Fraction(*_shifted_product(x, n, -1))


def binomial_general(x, n: int) -> Fraction:
    """Binomial coefficient with an arbitrary rational upper argument.

    Equals falling_factorial(x, n) / n!; agrees with ``binomial_int`` on
    integer x of either sign.
    """
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    num, den = _shifted_product(x, n, -1)
    return Fraction(num, den * factorial(n))
