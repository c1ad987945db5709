"""Exact rational arithmetic and the factorial/binomial primitives.

Every exact value in the package is a ``fractions.Fraction``: an
arbitrary-precision fraction that is always reduced, has a positive
denominator, and represents zero uniquely as 0/1.  On top of it this
module provides the factorial, rising/falling factorial and
binomial-coefficient primitives the sequence and operator modules build
on, the exact sum of products every identity side that is not a line
goes through, plus the canonical ``p/q`` text rendering used by the CLI
and report files.

``reduced(p, q)`` is the one way an integer pair becomes a ``Fraction``
anywhere in the package: it divides p and q by their gcd, puts the sign
on p, and fills the two slots of a bare ``Fraction`` (what CPython
3.12+ does inside ``Fraction._from_coprime_ints``).  The value, hash,
repr and pickle are those of ``Fraction(p, q)``; what it skips is
``Fraction.__new__``'s dispatch on its arguments' types, which costs
several times the gcd it wraps: ``Fraction(7, 12)`` takes about 0.57 us,
``reduced(7, 12)`` 0.23 us and ``math.gcd(7, 12)`` 0.04 us (best of 15
timeit runs, Python 3.11.7, 2-vCPU VM).  The package's sums and kernels
hold their results as integer pairs, so every one of them ends in it.
It takes ints only: a float, a string or a ``Fraction`` is a
``TypeError`` (from ``math.gcd``), and a zero q a ``ZeroDivisionError``
with ``Fraction(p, 0)``'s message.

``product_sum(terms)`` is the exact sum of prod(up) / prod(down) over
``(up, down)`` pairs of factor sequences, for a sum of products and
quotients that would otherwise normalize after every ``*``, ``/`` and
``+``.  Each factor is read once: an int as it is, a ``Fraction`` from
its two slots, anything else through ``_ratio``, so a float, a string, a
``Decimal`` or a certified float raises ``TypeError`` naming
``product_sum``, and an inexact value can never leak into an exact sum.
A term's numerator and denominator are multiplied out as plain integers,
and the terms are summed in one pass over a running total / scale, where
scale is the lcm of the denominators so far: a term over the scale is
one integer addition, any other one gcd, two floor divisions and one
multiply-add, and no list of terms is built.  The result is normalized
once, by the single ``reduced`` at the end.  A zero divisor raises
``ZeroDivisionError`` there: a row checks its poles before it sums.  An
empty sum is 0.

``over_common_denominator(values)`` brings ints and ``Fraction``s to
plain integers over one denominator: it returns ``(numerators, d)``
with ``values[i] == numerators[i] / d`` for every i, where d >= 1 is the
``math.lcm`` of the denominators (1 for an empty or all-integer
sequence).  The numerators are not reduced against d.  Any other type
raises ``TypeError``.  Kernels that add, subtract or convolve many exact
values (power-series products, the binomial transforms, the iterated
branch of ``forward_difference``) call it once per operand, work on the
integers, and build one ``Fraction`` per result; ``product_sum`` keeps
its own loop.

``reciprocal_partial_sums(r, n)`` is the definition of h(n, r): it
returns ``(nums, d)`` with ``nums[i] / d == h(i, r)`` for i = 0..n, as r
prefix sums of the integers d // k over d = lcm(1..n).  ``_lcm_upto``
takes that lcm over n/2 < k <= n only, since every smaller k divides one
of them; the convolution h(n, r) reads it too.  The DEF h(n, r)
method and ``opcalc.gf_hyperharmonic`` both read it.

Every exact argument is read once, by ``_ratio(x, who)``: an int or
``Fraction`` (a subclass too) gives ``x.as_integer_ratio()``, one C call
where a ``Fraction``'s ``numerator`` and ``denominator`` are two
Python-level getters.  Anything else, a float, a string or a ``Decimal``,
raises ``TypeError`` naming ``who``; nothing goes through ``Fraction()``.
Only ``product_sum``'s ``Fraction`` factors read their pair inline, from
the ``_numerator`` and ``_denominator`` slots that ``reduced`` fills.
Each integer argument of a ``sequences`` function is read by
``_int(x, who)``: an int (a subclass too) passes; anything else, a float
equal to an int too, raises ``TypeError`` naming ``who``.

``derivative_at_zero(offsets, q, scale, power)`` is D_x of
scale * prod_i (x + p_i/q)**power at x = 0 for power +1 or -1 (any
other power raises ``ValueError``), over a
sequence of int numerators p_i and one denominator q >= 1.  It
differentiates by the product rule on integers: it carries (p0, p1) with
prod_i (q x + p_i) = p0 + p1 x + O(x**2), one step per factor, and builds
one ``Fraction``, p1 / q**len at power +1 and -p1 q**len / p0**2 at
power -1.  No factor gives 0.  At power +1 nothing divides by an offset,
so a zero p_i is a value: D_x of x (x + 1)...(x + n - 1) at 0 is (n-1)!.
At power -1 a zero p_i is a pole and raises ``ZeroDivisionError``.  The
D_x rows of ``identities``, ``opcalc.dx_reciprocal_rising`` and the
rational h(n, w) read it.

``signed_binomial_row(k)`` is the tuple of the k-th difference weights,
``(-1)**(k-i) * C(k, i)`` for i = 0..k, as ints (so it can be sliced and
passed to a sum as the coefficients).  A negative k raises
``ValueError``.  Rows with k <= ``MEMO_CAP`` are built once and shared,
which is safe because tuples are immutable.

Only the signed binomial rows are memoized: one audit asks 20,174 times
for a row it has already built, and each would otherwise be rebuilt in a
Python loop.  Factorials and C(n, k) are not: a cold ``run_suite()``
makes 197,796 ``binomial_int`` and 7,466 ``factorial`` calls (1,976 and
38 distinct).  Replayed, they took 29-36 and 1.1-1.3 ms, and 16-23 and
0.3-0.5 ms behind an ``lru_cache`` (2-vCPU VM, Python 3.11.7): about 2%
of an audit, and a cached ``binomial_int`` measured -2.2%, +0.7% and
0.0% end to end.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

#: Signed binomial rows up to this order are served from the memo.
MEMO_CAP = 256

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


_new_object = object.__new__


def reduced(p: int, q: int) -> Fraction:
    """p/q as a ``Fraction``, from two ints, q != 0; see the module docstring."""
    g = math.gcd(p, q)  # a TypeError for anything but ints
    if q <= 0:
        if not q:
            raise ZeroDivisionError("Fraction(%s, 0)" % p)
        g = -g
    x = _new_object(Fraction)
    x._numerator = p // g
    x._denominator = q // g
    return x


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


def _ratio(x, who: str) -> tuple[int, int]:
    """``x.as_integer_ratio()`` of an int or ``Fraction``; else ``TypeError``."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"{who} needs ints or Fractions, got {type(x).__name__}")
    return x.as_integer_ratio()


def _int(x, who: str) -> int:
    """``x`` if it is an int (a subclass too); else ``TypeError``."""
    if not isinstance(x, int):
        raise TypeError(f"{who} needs ints, got {type(x).__name__}")
    return x


def format_rational(x: Fraction) -> str:
    """Canonical text form: ``p/q``, or just ``p`` when the denominator is 1.

    Any size renders; ``parse_rational`` keeps the interpreter's digit
    limit, because it checks input.
    """
    p, q = _ratio(x, "format_rational")
    if q == 1:
        return _int_text(p)
    return f"{_int_text(p)}/{_int_text(q)}"


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


def product_sum(terms) -> Fraction:
    """Exact sum of prod(up) / prod(down) over (up, down) terms, in one pass."""
    total, scale = 0, 1  # the terms so far sum to total / scale
    for up, down in terms:
        p = q = 1
        for f in up:
            if type(f) is int:
                p *= f
            elif type(f) is Fraction:
                p *= f._numerator
                q *= f._denominator
            else:
                a, b = _ratio(f, "product_sum")
                p *= a
                q *= b
        for f in down:
            if type(f) is int:
                q *= f
            elif type(f) is Fraction:
                p *= f._denominator
                q *= f._numerator
            else:
                a, b = _ratio(f, "product_sum")
                p *= b
                q *= a
        if q == scale:
            total += p
            continue
        if q < 0:
            p, q = -p, -q
        g = math.gcd(scale, q)  # scale = 0 after a zero divisor, and stays 0
        m = q // g
        total = total * m + p * (scale // g)
        scale *= m
    return reduced(total, scale)  # a zero divisor is its ZeroDivisionError


def over_common_denominator(values) -> tuple[list[int], int]:
    """(numerators, d): every value as an integer over the lcm d of the denominators."""
    ratios = [_ratio(v, "over_common_denominator") for v in values]
    d = math.lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


def _lcm_upto(n: int) -> int:
    """lcm(1..n), 1 for n <= 0: every k <= n/2 divides some j in n/2 < j <= n."""
    return math.lcm(*range(n // 2 + 1, n + 1))


def reciprocal_partial_sums(r: int, n: int) -> tuple[list[int], int]:
    """(nums, d) with nums[i] / d = h(i, r), the r-fold partial sum of 1/k."""
    d = _lcm_upto(n)
    nums = [0, *(d // k for k in range(1, n + 1))]
    for _ in range(r):
        nums = list(accumulate(nums))
    return nums, d


def derivative_at_zero(offsets, q: int = 1, scale=1, power: int = 1) -> Fraction:
    """D_x scale * prod_i (x + p_i/q)**power at x = 0, for power +1 or -1."""
    if power not in (1, -1):
        raise ValueError(f"derivative_at_zero needs power 1 or -1, got {power}")
    p0, p1 = 1, 0  # prod_i (q x + p_i) = p0 + p1 x + O(x**2)
    for p in offsets:
        p0, p1 = p0 * p, p1 * p + p0 * q
    s, t = _ratio(scale, "derivative_at_zero")
    qn = q ** len(offsets)
    if power == 1:
        return reduced(s * p1, t * qn)
    return reduced(-s * p1 * qn, t * p0 * p0)


def _shifted_product(x, n: int, step: int, name: str) -> tuple[int, int]:
    """(numerator, denominator) of x(x+step)...(x+(n-1)step) as ints."""
    if n < 0:
        raise ValueError(f"{name} needs n >= 0")
    p, q = _ratio(x, name)
    num = 1
    for i in range(n):
        num *= p + step * i * q
    return num, q**n


def rising_factorial(x, n: int) -> Fraction:
    """x(x+1)...(x+n-1); the empty product (n = 0) is 1."""
    return reduced(*_shifted_product(x, n, 1, "rising_factorial"))


def falling_factorial(x, n: int) -> Fraction:
    """x(x-1)...(x-n+1); the empty product (n = 0) is 1."""
    return reduced(*_shifted_product(x, n, -1, "falling_factorial"))


def binomial_general(x, n: int) -> Fraction:
    """Binomial coefficient with an arbitrary rational upper argument.

    Equals falling_factorial(x, n) / n!; agrees with ``binomial_int`` on
    integer x of either sign.
    """
    num, den = _shifted_product(x, n, -1, "binomial_general")
    return reduced(num, den * factorial(n))
