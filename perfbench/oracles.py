"""Independent reference values for the benchmark's output checks.

Nothing here imports ``hyperseq``: exact values come from brute-force
``Fraction`` sums straight from the definitions, and certified floats are
checked against mpmath at 50 digits.  All of it runs in the parent,
outside any timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

mpmath.mp.dps = 50


def fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Exact:
    """Brute-force exact tables: H(n) and h(n, r) by iterated partial sums,
    and generalized harmonic prefixes, grown on demand."""

    def __init__(self, n_max: int, r_max: int):
        self._gen = {}
        row = [Fraction(0)] + [Fraction(1, k) for k in range(1, n_max + 1)]  # h(k, 0) = 1/k
        self.h = {}
        for r in range(1, r_max + 1):
            acc = Fraction(0)
            nxt = [Fraction(0)]
            for k in range(1, n_max + 1):
                acc += row[k]
                nxt.append(acc)
            self.h[r] = nxt
            row = nxt

    def hyper(self, n: int, r: int) -> Fraction:
        if r == 0:
            return Fraction(1, n)
        return self.h[r][n]

    def harmonic(self, n: int) -> Fraction:
        return self.h[1][n]

    def gen_harmonic(self, n: int, m: int) -> Fraction:
        """sum of 1/k**m for k = 1..n (k**-m when m <= 0)."""
        row = self._gen.setdefault(m, [Fraction(0)])
        while len(row) <= n:
            k = len(row)
            row.append(row[-1] + (Fraction(1, k**m) if m > 0 else Fraction(k ** (-m))))
        return row[n]


def hyper_neg(n: int, r: int) -> Fraction:
    """h(n, -r): (-1)^r r! / (n falling r+1) for n > r, 0 for r >= n > 1, 1 at n = 1."""
    if n == 1:
        return Fraction(1)
    if r >= n:
        return Fraction(0)
    return Fraction((-1) ** r * math.factorial(r), math.perm(n, r + 1))


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(abs(k)):
        a, b = b, a + b
    return -a if k < 0 and k % 2 == 0 else a


def diff_poly(coeffs, k: int, x: int) -> Fraction:
    """k-th forward difference at x of the polynomial with ascending coeffs,
    by differencing the coefficient list: p(t+1) - p(t) expanded binomially."""
    c = [Fraction(v) for v in coeffs]
    for _ in range(k):
        out = [Fraction(0)] * max(len(c) - 1, 1)
        for j, cj in enumerate(c):
            for i in range(j):
                out[i] += cj * math.comb(j, i)
        c = out
    return sum((cj * Fraction(x) ** j for j, cj in enumerate(c)), Fraction(0))


def binomial_transform(b):
    return [sum((math.comb(k, i) * b[i] for i in range(k + 1)), Fraction(0)) for k in range(len(b))]


def _mp(x):
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def hyper_real(z, w):
    """h(z, w) = Gamma(z+w)/(Gamma(z+1) Gamma(w)) (psi(z+w) - psi(w)) at 50 digits."""
    z, w = _mp(z), _mp(w)
    return mpmath.gamma(z + w) / (mpmath.gamma(z + 1) * mpmath.gamma(w)) * (
        mpmath.digamma(z + w) - mpmath.digamma(w))


def digamma(x):
    return mpmath.digamma(_mp(x))


def log_gamma(x):
    return mpmath.loggamma(_mp(x))


def exp(x):
    return mpmath.exp(_mp(x))


def hurwitz2(a):
    return mpmath.zeta(2, _mp(a))


def contains(certified, reference) -> bool:
    """Does [value - bound, value + bound] contain the reference value?"""
    value, bound = certified
    return abs(_mp(value) - reference) <= _mp(bound)


def close(exact: Fraction, reference, rel=mpmath.mpf(10) ** -40) -> bool:
    """An exact rational against a 50-digit value, to 40 digits."""
    return abs(_mp(exact) - reference) <= rel * max(1, abs(reference))
