"""The number families: harmonic, hyperharmonic, Fibonacci.

Hyperharmonic numbers h(n, r) are computed by five independent
algorithms (see :class:`HyperharmonicMethod`) that must agree wherever
their domains overlap.  The audit reads only the closed form, through
``identities.h``; the five are cross-checked by the tests
``test_five_method_agreement`` and ``test_def_oracle_agreement`` and by
``check_kernel_pass`` in the ``kernels-mix`` benchmark.  Conventions:

* h(0, r) = 0 for r >= 1,
* h(n, 0) = 1/n for n >= 1 (h(0, 0) is a domain error),
* h(n, 1) = H(n).

Negative orders use the piecewise closed form of
:func:`hyperharmonic_neg`; rational orders the digamma-telescoped exact
form of :func:`hyperharmonic_rational_order`.  The two extensions
disagree in general, so callers pick explicitly.

The loops that add many terms stay on plain integers and build one
``Fraction`` per result: the convolution sums its integer terms over
lcm(1..n), the recurrences in n and in r each carry an unreduced
numerator and denominator and divide out their gcd every 64 steps, and
the rational order differentiates C(x+w+n-1, n) at x = 0 by the product
rule on integers, in ``exactnum.derivative_at_zero``.  Each method still
runs its own algorithm.

H(n) is row 1 of the generalized harmonic table.  Each DEF row is built
whole from ``exactnum.reciprocal_partial_sums``, one per order asked,
and never changed after.  The shared tables change only under
``_lock``; a value already in its table is read without the lock.
Fibonacci numbers have no table: each F(k) is computed by fast doubling
in O(log |k|) big-integer steps and kept nowhere.  The harmonic table
and the DEF rows are all this module caches, and every value has at
most one cache: the h(n, w) the audit reads, at any order, are kept by
the one memo on ``identities.h``, not here.
"""

from __future__ import annotations

import enum
import math
import threading
from fractions import Fraction

from .errors import DomainError
from .exactnum import _int, _ratio, binomial_general, binomial_int, derivative_at_zero
from .exactnum import factorial, product_sum, reciprocal_partial_sums, reduced

_F = Fraction

_lock = threading.Lock()


def harmonic(n: int) -> Fraction:
    """H(n) = 1 + 1/2 + ... + 1/n; zero for n <= 0 (empty sum)."""
    return gen_harmonic(_int(n, "harmonic"), 1)


#: Row m is [0, H(1; m), H(2; m), ...]; row 1 is the H list.
_gen_harmonic_prefix: dict[int, list[Fraction]] = {}


def gen_harmonic(n: int, m: int) -> Fraction:
    """Generalized harmonic number: sum of 1/k**m for k = 1..n.

    Any integer order m is accepted; m <= 0 yields plain power sums.
    Zero for n <= 0.
    """
    n, m = _int(n, "gen_harmonic"), _int(m, "gen_harmonic")
    if n <= 0:
        return _F(0)
    row = _gen_harmonic_prefix.get(m)
    if row is None or n >= len(row):
        with _lock:
            row = _gen_harmonic_prefix.setdefault(m, [_F(0)])
            while len(row) <= n:
                k = len(row)
                term = reduced(1, k**m) if m > 0 else _F(k ** (-m))
                row.append(row[k - 1] + term)
    return row[n]


class HyperharmonicMethod(enum.Enum):
    """Five interchangeable algorithms for h(n, r), r >= 1."""

    DEF = "def"              # r-fold iterated partial sums (memo table)
    CLOSED = "closed"        # binom(n+r-1, r-1) * (H(n+r-1) - H(r-1))
    CONV = "conv"            # sum_k binom(n+r-k-1, r-1) / k
    REC_LOWER = "rec-lower"  # recurrence in n from h(0, r) = 0
    REC_UPPER = "rec-upper"  # recurrence in r from h(n, 1) = H(n)


# DEF memo table: _def_rows[r] is [h(0,r), ..., h(N,r)] for the largest n
# asked at order r.  It stays for the process: a warm lookup takes about
# 0.5 us, an integer r-fold sum per call 90-120 us at n <= 200, r <= 24,
# which would add 2-3 ms to each 29 ms kernels-mix pass (scaled wall_s,
# 2-vCPU VM).  A warm lookup reads row r without _lock; a row is replaced
# whole, under it, and never mutated, so a reader sees an old row or a new
# one.  A longer row reuses the old row's Fractions; rebuilding them
# tripled DEF's kernels-mix time.
_def_rows: dict[int, list[Fraction]] = {}


def _hyper_def(n: int, r: int) -> Fraction:
    row = _def_rows.get(r)
    if row is None or n >= len(row):
        with _lock:
            row = _def_rows.get(r, [])
            if n >= len(row):
                nums, d = reciprocal_partial_sums(r, n)
                row = _def_rows[r] = row + [reduced(c, d) for c in nums[len(row):]]
    return row[n]


def _hyper_closed(n: int, r: int) -> Fraction:
    c = binomial_int(n + r - 1, r - 1)
    if r <= n:
        return c * (harmonic(n + r - 1) - harmonic(r - 1))
    # H(n+r-1) - H(r-1) as n integers over their lcm: reading the H table
    # would first grow it to n + r - 1 entries, which never ends at r = 10**6
    d = math.lcm(*range(r, n + r))
    return reduced(c * sum([d // j for j in range(r, n + r)]), d)


def _hyper_conv(n: int, r: int) -> Fraction:
    d = math.lcm(*range(1, n + 1))
    return reduced(
        sum(binomial_int(n + r - k - 1, r - 1) * (d // k) for k in range(1, n + 1)), d
    )


#: Steps between gcd reductions in both recurrences.  Unreduced, the
#: pair grows by about log2(m(m+r)) bits a step; at n = 4,000 never
#: reducing is about 3x slower than reducing every 64 steps, and so is
#: the recurrence in r at n = 200, r = 4,000 (174 ms against 64 ms).
_GCD_EVERY = 64


def _hyper_rec_lower(n: int, r: int) -> Fraction:
    p, q = 0, 1  # h = p/q, unreduced between gcd steps
    for m in range(1, n + 1):
        s = m + r - 1
        # h(m) = (s/m) h(m-1) + C(s, r-1)/s
        p, q = s * s * p + binomial_int(s, r - 1) * m * q, m * s * q
        if m % _GCD_EVERY == 0:
            g = math.gcd(p, q)
            p, q = p // g, q // g
    return reduced(p, q)


def _hyper_rec_upper(n: int, r: int) -> Fraction:
    h = harmonic(n)
    p, q = h.numerator, h.denominator  # h = p/q, unreduced between gcd steps
    for s in range(1, r):
        # (alpha - 1) h(n, s+1) = alpha h(n, s) - beta with alpha - 1 = s/n,
        # so h(n, s+1) = ((n+s) h(n, s) - n beta)/s, and n beta = C(n+s-1, s)
        p, q = (n + s) * p - binomial_int(n + s - 1, s) * q, s * q
        if s % _GCD_EVERY == 0:
            g = math.gcd(p, q)
            p, q = p // g, q // g
    return reduced(p, q)


_METHOD_IMPL = {
    HyperharmonicMethod.DEF: _hyper_def,
    HyperharmonicMethod.CLOSED: _hyper_closed,
    HyperharmonicMethod.CONV: _hyper_conv,
    HyperharmonicMethod.REC_LOWER: _hyper_rec_lower,
    HyperharmonicMethod.REC_UPPER: _hyper_rec_upper,
}


def hyperharmonic(
    n: int, r: int, method: HyperharmonicMethod = HyperharmonicMethod.CLOSED
) -> Fraction:
    """h(n, r) for n >= 0, r >= 0 under the conventions above."""
    n, r = _int(n, "hyperharmonic"), _int(r, "hyperharmonic")
    if n < 0 or r < 0:
        raise DomainError(f"hyperharmonic needs n >= 0 and r >= 0, got ({n}, {r})")
    if r == 0:
        if n == 0:
            raise DomainError("h(0, 0) is undefined")
        return reduced(1, n)
    if n == 0:
        return _F(0)
    return _METHOD_IMPL[method](n, r)


def hyperharmonic_neg(n: int, r: int) -> Fraction:
    """Negative-ordered hyperharmonic number h(n, -r) for n, r >= 1.

    Piecewise: (-1)**r r! / (n falling r+1) = (-1)**r / ((r+1) C(n, r+1))
    when n > r, zero when r >= n > 1, and 1 when n = 1.
    """
    n, r = _int(n, "hyperharmonic_neg"), _int(r, "hyperharmonic_neg")
    if n < 1 or r < 1:
        raise DomainError(f"hyperharmonic_neg needs n >= 1 and r >= 1, got ({n}, {r})")
    if n == 1:
        return _F(1)
    if r >= n:
        return _F(0)
    sign = -1 if r % 2 else 1
    return reduced(sign, (r + 1) * binomial_int(n, r + 1))


def hyperharmonic_rational_order(n: int, w) -> Fraction:
    """h(n, w) for integer n >= 1 and rational order w.

    Exact reduction of the digamma/gamma extension at an integer lower
    index: D_x C(x+w+n-1, n) at x = 0, or binom(w+n-1, n) * sum_{i<n} 1/(w+i).
    Every integer order w <= 0 is a domain error: negative integer orders
    are served by :func:`hyperharmonic_neg` and order 0 by
    :func:`hyperharmonic`, never silently here.  The message names the
    pole, the i with w + i = 0, when it falls inside the telescoping range.
    """
    n = _int(n, "hyperharmonic_rational_order")
    p, q = _ratio(w, "hyperharmonic_rational_order")
    if n < 1:
        raise DomainError(f"hyperharmonic_rational_order needs n >= 1, got {n}")
    if q == 1 and p <= 0:
        pole = f"; digamma pole in telescoping range at i={-p}" if -p < n else ""
        raise DomainError(
            f"order {p} is an integer <= 0: h(n, -r) is hyperharmonic_neg(n, r) "
            f"and h(n, 0) is hyperharmonic(n, 0){pole}"
        )
    # C(x+w+n-1, n) = prod_{i<n} (x + (p+iq)/q) / n!; no p + iq is 0 now
    return derivative_at_zero([p + i * q for i in range(n)], q, reduced(1, factorial(n)))


def hyperharmonic_half_integer_alt(n: int, w) -> Fraction:
    """Alternative reading of half-integer-order hyperharmonic numbers.

    For w = m + 1/2 this evaluates
    binom(w+n-1, n) * ((H(2m+2n) - H(2m)) - (H(m+n) - H(m))),
    which at m = 0 is binom(n-1/2, n)(H(2n) - H(n)).  Several audited
    table rows only balance under this reading, so the audit reports
    half-integer rows under both conventions.
    """
    n = _int(n, "hyperharmonic_half_integer_alt")
    p, q = _ratio(w, "hyperharmonic_half_integer_alt")
    if q != 2 or p < 1:
        raise DomainError(
            f"order must be m + 1/2 with integer m >= 0, got {reduced(p, q)}"
        )
    if n < 1:
        raise DomainError(f"needs n >= 1, got {n}")
    m = p // 2
    c = binomial_general(reduced(p + 2 * (n - 1), 2), n)  # C(w+n-1, n)
    return product_sum([((c, harmonic(2 * (m + n))), ()), ((-1, c, harmonic(2 * m)), ()),
                        ((-1, c, harmonic(m + n)), ()), ((c, harmonic(m)), ())])


def alpha(n: int, r: int) -> Fraction:
    """Recurrence coefficient alpha(n, r) = 1 + r/n for n >= 1, r >= 0."""
    n, r = _int(n, "alpha"), _int(r, "alpha")
    if n < 1 or r < 0:
        raise DomainError(f"alpha needs n >= 1 and r >= 0, got ({n}, {r})")
    return reduced(n + r, n)


def beta(n: int, r: int) -> Fraction:
    """Recurrence coefficient beta(n, r) = binom(n+r, r)/(n+r) for n >= 0, r >= 1."""
    n, r = _int(n, "beta"), _int(r, "beta")
    if n < 0 or r < 1:
        raise DomainError(f"beta needs n >= 0 and r >= 1, got ({n}, {r})")
    return reduced(binomial_int(n + r, r), n + r)


def fibonacci(k: int) -> int:
    """F(k) for any integer k; F(-k) = (-1)**(k+1) F(k).

    Fast doubling: F(2j) = F(j) (2 F(j+1) - F(j)) and
    F(2j+1) = F(j)^2 + F(j+1)^2, one step per bit of |k|.
    """
    k = _int(k, "fibonacci")
    a, b = 0, 1  # F(j), F(j+1) for j the leading bits of |k| read so far
    for bit in bin(abs(k))[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    if k < 0 and k % 2 == 0:
        return -a
    return a
