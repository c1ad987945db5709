"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output).  Oracles used here are written
locally and independently of the library paths they check.
"""

import functools
import json
import math
import random
import time
from fractions import Fraction

from hyperseq.analytic import digamma, hyperharmonic_real, sum_series
from hyperseq.cli import main as cli_main
from hyperseq.exactnum import derivative_at_zero, over_common_denominator
from hyperseq.identities import get_identity, list_identities, run_suite, verify
from hyperseq.opcalc import (
    binomial_transform,
    forward_difference,
    gf_hyperharmonic,
    inverse_binomial_transform,
)
from hyperseq.sequences import (
    HyperharmonicMethod,
    harmonic,
    hyperharmonic,
    hyperharmonic_rational_order,
)

F = Fraction
GAMMA = 0.5772156649015328606


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:>2}: FAIL - {desc}")
                raise
            print(f"ACCEPTANCE {num:>2}: PASS - {desc}")

        return wrapper

    return deco


# -- independent oracles ----------------------------------------------------


def brute_hyperharmonic_table(n_max, r_max):
    """Iterated partial sums, straight from the definition."""
    rows = {1: [F(0)]}
    for n in range(1, n_max + 1):
        rows[1].append(rows[1][n - 1] + F(1, n))
    for r in range(2, r_max + 1):
        rows[r] = [F(0)]
        for n in range(1, n_max + 1):
            rows[r].append(rows[r][n - 1] + rows[r - 1][n])
    return rows


def brute_harmonic(n):
    return sum((F(1, k) for k in range(1, n + 1)), F(0))


def expand_linear_factors(offsets):
    coeffs = [F(1)]
    for a in offsets:
        nxt = [F(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j] += c * a
            nxt[j + 1] += c
        coeffs = nxt
    return coeffs


@criterion(1, "five-method hyperharmonic agreement, n <= 60, r <= 12, < 10 s")
def test_five_method_agreement():
    start = time.monotonic()
    for n in range(1, 61):
        for r in range(1, 13):
            values = {
                method: hyperharmonic(n, r, method)
                for method in HyperharmonicMethod
            }
            assert len(set(values.values())) == 1, (n, r, values)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


@criterion(2, "h(2, r) = (r - 1) + 1 + 1/2 for 2 <= r <= 100, exact")
def test_second_row_closed_form():
    for r in range(2, 101):
        assert hyperharmonic(2, r) == (r - 1) + 1 + F(1, 2)


@criterion(3, "h(n, 2) = (n+1) H(n) - n for 1 <= n <= 200, exact")
def test_second_order_closed_form():
    for n in range(1, 201):
        assert hyperharmonic(n, 2) == (n + 1) * harmonic(n) - n


@criterion(4, "core suite all-PASS over default domains")
def test_core_suite_all_pass(full_audit):
    # the core rows of the session's one full audit over default domains
    by_key = {
        key: row
        for key, row in full_audit.rows.items()
        if "core" in get_identity(key).tags
    }
    assert len(by_key) == 37
    failing = [key for key, row in by_key.items() if row["verdict"] != "PASS"]
    assert failing == []
    # spot value of the index-balance identity
    prop5 = get_identity("prop-5")
    assert prop5.lhs(n=3, r=2) == F(1, 3)
    assert prop5.rhs(n=3, r=2) == F(1, 3)
    # parity-split alternating sum covers n <= 30
    assert by_key["cor-w"]["tested"] == 30
    # Fibonacci binomial representation and sign rule cover k <= 40
    assert by_key["cor-nf"]["tested"] == 41
    assert by_key["cor-fib-sign"]["tested"] == 41


@criterion(5, "generating-function coefficients equal h(n, r), n <= 64, r <= 8")
def test_generating_function_equality():
    for r in range(1, 9):
        series = gf_hyperharmonic(r, 64)
        for n in range(65):
            assert series.coeff(n) == hyperharmonic(n, r), (n, r)


T1_MUST_PASS = [
    "t1-1.41", "t1-1.42", "t1-1.44", "t1-3.2", "t1-3.36", "t1-3.100",
    "t1-3.108", "t1-6.19", "t1-6.22", "t1-7.2",
]


@criterion(6, "table-1 rows pass exactly for all parameters <= 25")
def test_table1_required_rows():
    for key in T1_MUST_PASS:
        report = verify(key, max_bound=25)
        assert report.verdict == "PASS", (key, report.counterexamples[:2])
        assert report.skipped == 0
    assert get_identity("t1-6.19").lhs(n=2, r=2) == 3
    assert get_identity("t1-6.19").rhs(n=2, r=2) == 3
    assert get_identity("t1-3.36").lhs(n=1) == 1
    assert get_identity("t1-3.36").rhs(n=1) == 1
    assert get_identity("t1-6.22").lhs(n=1) == -2
    assert get_identity("t1-6.22").rhs(n=1) == -2


T2_MUST_PASS = {
    "t2-1.41": {"r": (1, 20)},
    "t2-3.2": {"r": (1, 20)},
    "t2-3.36": {"r": (1, 20)},
    "t2-6.19": {"j": (1, 20)},
    "t2-7.2": {"r": (1, 20)},
}


@criterion(7, "table-2 rows pass exactly for parameters <= 20")
def test_table2_required_rows():
    for key, bounds in T2_MUST_PASS.items():
        report = verify(key, max_bound=20, param_bounds=bounds)
        assert report.verdict == "PASS", (key, report.counterexamples[:2])
    assert get_identity("t2-1.41").lhs(n=2, r=2) == F(5, 18)
    assert get_identity("t2-1.41").rhs(n=2, r=2) == F(5, 18)
    assert get_identity("t2-3.2").lhs(n=2, r=1) == F(7, 2)
    assert get_identity("t2-3.2").rhs(n=2, r=1) == F(7, 2)
    assert get_identity("t2-6.19").lhs(n=2, r=1, j=2) == 8
    assert get_identity("t2-6.19").rhs(n=2, r=1, j=2) == 8


@criterion(8, "numeric series rows within stated tolerances, certified tails")
def test_numeric_series():
    v = sum_series(
        lambda k: harmonic(k) / F(2) ** k,
        lambda K: (K + 2.0) / 2.0**K if K >= 1 else math.inf,
        1e-13,
    )
    assert abs(v.value - 2.0 * math.log(2.0)) < 1e-12
    assert v.abs_error_bound < 1e-12
    for r in range(1, 5):
        vr = sum_series(
            lambda k, r=r: hyperharmonic(k, r) / F(2) ** k,
            lambda K, r=r: (
                4.0 * float(K + 1 + r) ** r / 2.0 ** (K + 1)
                if K >= 2 * r
                else math.inf
            ),
            1e-10,
        )
        assert abs(vr.value - 2.0**r * math.log(2.0)) < 1e-9, r
    # factorial-weighted row, both sides truncated at k = 30
    lhs = float(sum((harmonic(k) / math.factorial(k) for k in range(1, 31)), F(0)))
    rhs = math.e * float(
        sum((F((-1) ** (k - 1), math.factorial(k) * k) for k in range(1, 31)), F(0))
    )
    assert abs(lhs - rhs) < 1e-12
    assert verify("t1-2.16").verdict == "PASS"


@criterion(9, "digamma and hyperbolic identities within stated tolerances")
def test_digamma_and_hyperbolic():
    for n in range(1, 51):
        psi = digamma(float(n))
        assert abs(psi.value - (float(harmonic(n - 1)) - GAMMA)) < 1e-10
    # difference of digamma telescopes to a reciprocal rising factorial
    for x in (F(1), F(1, 2), F(3, 2), F(5)):
        for k in range(1, 11):
            acc = 0.0
            for i in range(k + 1):
                acc += (-1) ** i * math.comb(k, i) * digamma(float(x) + i).value
            expected = -math.factorial(k - 1) / float(
                math.prod(x + j for j in range(k))
            )
            assert abs(acc - expected) < 1e-9
    for key in ("prop-one11-sinh", "prop-one11-cosh", "rem-one11-x0"):
        assert verify(key).verdict == "PASS", key


@criterion(10, "rational-order consistency and the Z.58 convention split")
def test_rational_order_consistency():
    for w in (F(1, 2), F(3, 2), F(5, 2), F(1, 3)):
        for n in range(1, 31):
            exact = float(hyperharmonic_rational_order(n, w))
            approx = hyperharmonic_real(float(n), float(w))
            assert abs(approx.value - exact) <= 1e-9 * abs(exact), (n, w)
    report = verify("t1-Z.58", max_bound=20)
    assert report.verdict == "FAIL"  # default convention, recorded
    ((name, alternative),) = report.readings
    assert name == "alternative"
    assert (alternative.verdict, alternative.tested) == ("PASS", 20)


@criterion(11, "full audit emits well-formed JSON; misprint rows carry "
               "oracle-checked counterexamples; exit code 3 propagates")
def test_audit_integrity(tmp_path, capsys):
    report = run_suite(max_bound=6)
    data = json.loads(report.to_json())
    assert {row["identity_id"] for row in data} == set(list_identities())
    for row in data:
        assert row["verdict"] in ("PASS", "FAIL", "SKIPPED")
        assert row["tested"] + row["skipped"] >= 1
        for cex in row["counterexamples"]:
            assert set(cex) == {"params", "lhs", "rhs"}

    by_id = {row["identity_id"]: row for row in data}

    # t1-3.95 at n = 1 against a local oracle
    row = by_id["t1-3.95"]
    assert row["verdict"] == "FAIL"
    n = 1
    lhs = sum(
        F((-1) ** k * math.comb(2 * n - 2 * k, n - k) * math.comb(2 * k, k), k)
        for k in range(1, n + 1)
    )
    half = F(math.comb(2 * n, n), 4**n)  # C(n - 1/2, n)
    h_half = half * sum(F(2, 2 * i + 1) for i in range(n))
    rhs = F(4) ** n * (h_half - half * brute_harmonic(n))
    first = row["counterexamples"][0]
    assert first["params"] == {"n": 1}
    assert first["lhs"] == str(lhs) == "-2"
    assert first["rhs"] == str(rhs) == "2"

    # t2-1.42 at n = 1, r = 2 against a brute-force table
    row = by_id["t2-1.42"]
    assert row["verdict"] == "FAIL"
    table = brute_hyperharmonic_table(8, 8)
    n, r = 1, 2
    lhs = sum(
        (-1) ** (k - 1)
        * math.comb(n, k)
        * table[r][k]
        / F(math.comb(k + r - 1, k)) ** 2
        for k in range(1, n + 1)
    )
    first = row["counterexamples"][0]
    assert first["params"] == {"n": 1, "r": 2}
    assert first["lhs"] == str(lhs) == "1/4"
    assert first["rhs"] == str(F(1, n + r - 1)) == "1/2"

    # exit code 3 propagates through the CLI on any failing row
    out_path = tmp_path / "audit.json"
    code = cli_main(
        ["audit", "--max", "4", "--format", "json", "--out", str(out_path)]
    )
    capsys.readouterr()
    assert code == 3
    assert json.loads(out_path.read_text())


@criterion(12, "randomized property suites: 1000 cases each, zero failures")
def test_property_suites():
    rng = random.Random(20260810)

    def rational(lo=-50, hi=50, dmax=24, nonzero=False):
        while True:
            v = F(rng.randint(lo, hi), rng.randint(1, dmax))
            if v != 0 or not nonzero:
                return v

    # binomial transform involution on vectors of length <= 32
    for _ in range(1000):
        b = [rational() for _ in range(rng.randint(0, 32))]
        assert inverse_binomial_transform(binomial_transform(b)) == b

    # forward-difference product rule on random polynomial oracles
    for _ in range(1000):
        deg = rng.randint(0, 6)
        cs = [rational(-9, 9, 6) for _ in range(deg + 1)]
        f = lambda t, cs=cs: sum((c * t**j for j, c in enumerate(cs)), F(0))
        n = rng.randint(1, 6)
        x = rng.randint(0, 10)
        lhs = forward_difference(lambda t: t * f(t), n, x)
        rhs = x * forward_difference(f, n, x) + n * forward_difference(
            f, n - 1, x + 1
        )
        assert lhs == rhs

    # derivative engine against the polynomial-expansion oracle
    for _ in range(1000):
        offsets = [rational(-12, 12, 8, nonzero=True) for _ in range(rng.randint(1, 8))]
        scale = rational(-9, 9, 4, nonzero=True)
        expansion = expand_linear_factors(offsets)
        nums, q = over_common_denominator(offsets)
        assert derivative_at_zero(nums, q, 1 / scale) == expansion[1] / scale
