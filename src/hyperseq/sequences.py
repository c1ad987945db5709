"""The number families: harmonic, hyperharmonic, Fibonacci.

Hyperharmonic numbers h(n, r) are computed by five independent
algorithms (see :class:`HyperharmonicMethod`) that must agree wherever
their domains overlap; the audit leans on that redundancy.  Conventions:

* h(0, r) = 0 for r >= 1,
* h(n, 0) = 1/n for n >= 1 (h(0, 0) is a domain error),
* h(n, 1) = H(n).

Negative orders use the piecewise closed form of
:func:`hyperharmonic_neg`; rational orders the digamma-telescoped exact
form of :func:`hyperharmonic_rational_order`.  The two extensions
disagree in general, so callers pick explicitly.
"""

from __future__ import annotations

import enum
import threading
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .exactnum import binomial_general, binomial_int

_F = Fraction

_lock = threading.Lock()

_harmonic_prefix: list[Fraction] = [_F(0)]  # index n -> H_n


def harmonic(n: int) -> Fraction:
    """H(n) = 1 + 1/2 + ... + 1/n; zero for n <= 0 (empty sum)."""
    if n <= 0:
        return _F(0)
    if n >= len(_harmonic_prefix):
        with _lock:
            while len(_harmonic_prefix) <= n:
                m = len(_harmonic_prefix)
                _harmonic_prefix.append(_harmonic_prefix[m - 1] + _F(1, m))
    return _harmonic_prefix[n]


_gen_harmonic_prefix: dict[int, list[Fraction]] = {}


def gen_harmonic(n: int, m: int) -> Fraction:
    """Generalized harmonic number: sum of 1/k**m for k = 1..n.

    Any integer order m is accepted; m <= 0 yields plain power sums.
    Zero for n <= 0.
    """
    if n <= 0:
        return _F(0)
    row = _gen_harmonic_prefix.get(m)
    if row is None or n >= len(row):
        with _lock:
            row = _gen_harmonic_prefix.setdefault(m, [_F(0)])
            while len(row) <= n:
                k = len(row)
                term = _F(1, k**m) if m > 0 else _F(k ** (-m))
                row.append(row[k - 1] + term)
    return row[n]


class HyperharmonicMethod(enum.Enum):
    """Five interchangeable algorithms for h(n, r), r >= 1."""

    DEF = "def"              # r-fold iterated partial sums (memo table)
    CLOSED = "closed"        # binom(n+r-1, r-1) * (H(n+r-1) - H(r-1))
    CONV = "conv"            # sum_k binom(n+r-k-1, r-1) / k
    REC_LOWER = "rec-lower"  # recurrence in n from h(0, r) = 0
    REC_UPPER = "rec-upper"  # recurrence in r from h(n, 1) = H(n)


# DEF memo table: _def_rows[r] is the prefix list [h(0,r), ..., h(N,r)].
_def_rows: dict[int, list[Fraction]] = {1: [_F(0)]}


def _hyper_def(n: int, r: int) -> Fraction:
    with _lock:
        row1 = _def_rows[1]
        while len(row1) <= n:
            m = len(row1)
            row1.append(row1[m - 1] + _F(1, m))
        for s in range(2, r + 1):
            row = _def_rows.setdefault(s, [_F(0)])
            below = _def_rows[s - 1]
            while len(row) <= n:
                m = len(row)
                row.append(row[m - 1] + below[m])
        return _def_rows[r][n]


#: Entries kept by each bounded h memo (closed form, rational orders); a
#: full audit needs about 1,200 closed-form and 440 rational-order values.
CLOSED_MEMO_SIZE = 4096


@lru_cache(maxsize=CLOSED_MEMO_SIZE)
def _hyper_closed(n: int, r: int) -> Fraction:
    return binomial_int(n + r - 1, r - 1) * (harmonic(n + r - 1) - harmonic(r - 1))


def _hyper_conv(n: int, r: int) -> Fraction:
    return sum(
        (_F(binomial_int(n + r - k - 1, r - 1), k) for k in range(1, n + 1)),
        _F(0),
    )


def _hyper_rec_lower(n: int, r: int) -> Fraction:
    h = _F(0)
    for m in range(1, n + 1):
        h = _F(m + r - 1, m) * h + _F(binomial_int(m + r - 1, r - 1), m + r - 1)
    return h


def _hyper_rec_upper(n: int, r: int) -> Fraction:
    h = harmonic(n)
    for s in range(1, r):
        # (alpha - 1) h(n, s+1) = alpha h(n, s) - beta, alpha - 1 = s/n
        beta = _F(binomial_int(n + s, s), n + s)
        h = _F(n + s, s) * h - _F(n, s) * beta
    return h


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
    if n < 0 or r < 0:
        raise DomainError(f"hyperharmonic needs n >= 0 and r >= 0, got ({n}, {r})")
    if r == 0:
        if n == 0:
            raise DomainError("h(0, 0) is undefined")
        return _F(1, n)
    if n == 0:
        return _F(0)
    if method is HyperharmonicMethod.CLOSED:  # the audit's path; no enum hash
        return _hyper_closed(n, r)
    return _METHOD_IMPL[method](n, r)


def hyperharmonic_neg(n: int, r: int) -> Fraction:
    """Negative-ordered hyperharmonic number h(n, -r) for n, r >= 1.

    Piecewise: (-1)**r r! / (n falling r+1) = (-1)**r / ((r+1) C(n, r+1))
    when n > r, zero when r >= n > 1, and 1 when n = 1.
    """
    if n < 1 or r < 1:
        raise DomainError(f"hyperharmonic_neg needs n >= 1 and r >= 1, got ({n}, {r})")
    if n == 1:
        return _F(1)
    if r >= n:
        return _F(0)
    sign = -1 if r % 2 else 1
    return _F(sign, (r + 1) * binomial_int(n, r + 1))


@lru_cache(maxsize=CLOSED_MEMO_SIZE)
def hyperharmonic_rational_order(n: int, w) -> Fraction:
    """h(n, w) for integer n >= 1 and rational order w.

    Exact reduction of the digamma/gamma extension at an integer lower
    index: binom(w+n-1, n) * sum_{i=0}^{n-1} 1/(w+i).  Any i with
    w + i = 0 is a pole and a domain error; negative integer orders are
    served by :func:`hyperharmonic_neg` instead, never silently here.
    """
    w = _F(w)
    if n < 1:
        raise DomainError(f"hyperharmonic_rational_order needs n >= 1, got {n}")
    tele = _F(0)
    for i in range(n):
        if w + i == 0:
            raise DomainError(f"digamma pole in telescoping range at i={i} (order {w})")
        tele += 1 / (w + i)
    return binomial_general(w + n - 1, n) * tele


@lru_cache(maxsize=CLOSED_MEMO_SIZE)
def hyperharmonic_half_integer_alt(n: int, w) -> Fraction:
    """Alternative reading of half-integer-order hyperharmonic numbers.

    For w = m + 1/2 this evaluates
    binom(w+n-1, n) * ((H(2m+2n) - H(2m)) - (H(m+n) - H(m))),
    which at m = 0 is binom(n-1/2, n)(H(2n) - H(n)).  Several audited
    table rows only balance under this reading, so the audit reports
    half-integer rows under both conventions.
    """
    w = _F(w)
    m2 = w - _F(1, 2)
    if m2.denominator != 1 or m2 < 0:
        raise DomainError(f"order must be m + 1/2 with integer m >= 0, got {w}")
    if n < 1:
        raise DomainError(f"needs n >= 1, got {n}")
    m = int(m2)
    tele = (harmonic(2 * (m + n)) - harmonic(2 * m)) - (harmonic(m + n) - harmonic(m))
    return binomial_general(w + n - 1, n) * tele


def alpha(n: int, r: int) -> Fraction:
    """Recurrence coefficient alpha(n, r) = 1 + r/n for n >= 1, r >= 0."""
    if n < 1 or r < 0:
        raise DomainError(f"alpha needs n >= 1 and r >= 0, got ({n}, {r})")
    return _F(n + r, n)


def beta(n: int, r: int) -> Fraction:
    """Recurrence coefficient beta(n, r) = binom(n+r, r)/(n+r) for n >= 0, r >= 1."""
    if n < 0 or r < 1:
        raise DomainError(f"beta needs n >= 0 and r >= 1, got ({n}, {r})")
    return _F(binomial_int(n + r, r), n + r)


_fib_prefix: list[int] = [0, 1]


def fibonacci(k: int) -> int:
    """F(k) for any integer k; F(-k) = (-1)**(k+1) F(k)."""
    a = abs(k)
    if a >= len(_fib_prefix):
        with _lock:
            while len(_fib_prefix) <= a:
                _fib_prefix.append(_fib_prefix[-1] + _fib_prefix[-2])
    v = _fib_prefix[a]
    if k < 0 and a % 2 == 0:
        return -v
    return v
