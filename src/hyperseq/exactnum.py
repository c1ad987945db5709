"""Exact rational arithmetic and the factorial/binomial primitives.

Every exact value in the package is a ``fractions.Fraction``: an
arbitrary-precision fraction that is always reduced, has a positive
denominator, and represents zero uniquely as 0/1.  On top of it this
module provides the factorial, rising/falling factorial and
binomial-coefficient primitives the sequence and operator modules build
on, the exact dot product every binomial-weighted sum goes through, plus
the canonical ``p/q`` text rendering used by the CLI and report files.

``dot(coeffs, values)`` is the exact sum of ``c * v`` over two sequences
of equal length (a length mismatch raises ``ValueError``).  Its inputs
must be ints or ``Fraction``s; anything else, a float or a certified
float included, raises ``TypeError``, so an inexact value can never leak
into an exact sum.  The terms are accumulated as plain integers over one
common denominator, the ``math.lcm`` of the term denominators, and the
result is normalized once, by the single ``Fraction`` built at the end.
An empty sum is 0.

``over_common_denominator(values)`` brings a sequence (not an
iterator) of ints and ``Fraction``s to plain integers over one
denominator: it returns ``(numerators, d)`` with
``values[i] == numerators[i] / d`` for every i, where d >= 1 is the
``math.lcm`` of the denominators (1 for an empty or all-integer
sequence).  The numerators are not reduced against d.  Any other type
raises ``TypeError``.  Kernels that add, subtract or convolve many exact
values (power-series products, the binomial transforms, the iterated
branch of ``forward_difference``) call it once per operand, work on the
integers, and build one ``Fraction`` per result; ``dot`` keeps its own
loop.

``derivative_at_zero(offsets, q, scale, power)`` is D_x of
scale * prod_i (x + p_i/q)**power at x = 0 for power +1 or -1, over int
numerators p_i and one denominator q >= 1: the product is
``math.prod(p) / q**len`` and sum 1/a_i is q * sum(L // p_i) / L over
L = lcm(p), so one ``Fraction`` is built.  No factor gives 0, and a zero
p_i raises ``ZeroDivisionError``.  ``opcalc`` and the rational h(n, w) read it.

``signed_binomial_row(k)`` is the tuple of the k-th difference weights,
``(-1)**(k-i) * C(k, i)`` for i = 0..k, as ints (so it can be sliced and
passed to ``dot`` as the coefficients).  A negative k raises
``ValueError``.  Rows with k <= ``MEMO_CAP`` are built once and shared,
which is safe because tuples are immutable.

Only the signed binomial rows are memoized: one audit asks 20,174 times
for a row it has already built, and each would otherwise be rebuilt in a
Python loop.  Factorials and C(n, k) are not: a cache in front of
``math.factorial`` and ``math.comb`` would save only 1-2% of a 1.8 s
audit.  Replaying its 475,506 ``binomial_int`` calls (1,976 distinct) took
62-86 ms on ``math.comb`` and 41-52 ms with an ``lru_cache`` in front, and
its 5,755 factorials 0.8-0.9 ms against 0.6-0.7 ms.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

#: Signed binomial rows up to this order are served from the memo.
MEMO_CAP = 256

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def _int_text(n: int) -> str:
    """``str(n)`` at any size.

    ``str`` refuses an int past the interpreter's int/str digit limit
    (4,300 digits by default); ``Decimal`` renders it without that limit,
    which stays in force for every other conversion.
    """
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def format_rational(x: Fraction) -> str:
    """Canonical text form: ``p/q``, or just ``p`` when the denominator is 1.

    Any size renders; ``parse_rational`` keeps the interpreter's digit
    limit, because it checks input.
    """
    x = Fraction(x)
    if x.denominator == 1:
        return _int_text(x.numerator)
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"


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


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    return math.factorial(n)


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
        return math.comb(n, k)  # 0 for k > n
    top = math.comb(k - n - 1, k)
    return -top if k % 2 else top


def _signed_row(k: int) -> tuple:
    row = []
    c = 1
    for i in range(k + 1):  # c = C(k, i)
        row.append(-c if (k - i) % 2 else c)
        c = c * (k - i) // (i + 1)
    return tuple(row)


#: 41 rows serve 20,174 of one audit's calls; see the module docstring.
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


def over_common_denominator(values) -> tuple[list[int], int]:
    """(numerators, d): every value as an integer over the lcm d of the denominators."""
    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(
                f"over_common_denominator needs ints or Fractions, got {type(v).__name__}"
            )
    d = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def derivative_at_zero(offsets, q: int = 1, scale=1, power: int = 1) -> Fraction:
    """D_x scale * prod_i (x + p_i/q)**power at x = 0, for power +1 or -1."""
    lcm = math.lcm(*offsets)  # 0 when some p is 0, and then lcm // 0 raises
    # scale * sum 1/a_i = recip / (t * lcm), and prod a_i = prod / q**len
    recip = scale.numerator * q * sum([lcm // p for p in offsets])
    prod, qn, t = math.prod(offsets), q ** len(offsets), scale.denominator
    if power == 1:
        return Fraction(recip * prod, t * lcm * qn)
    return Fraction(-recip * qn, t * lcm * prod)


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
