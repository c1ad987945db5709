"""Seeded inputs and output checks for the three workloads.

Inputs are generated here, in the parent, from the seed alone; the
program under test only ever sees the generated inputs.  Every check
compares against ``expected_audit.json`` (recorded at the seed commit)
or an independent oracle from ``oracles.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from fractions import Fraction

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "expected_audit.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)

METHODS = ("def", "closed", "conv", "rec-lower", "rec-upper")
AUDIT_FAIL_EXIT = 3

#: Largest h(n, r) any workload asks for: kernels-mix goes to the CLI's
#: order-512 series cap, with r <= 24.
N_MAX, R_MAX = 512, 24


class Checks:
    """Counts output checks; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


# ------------------------------------------------------------------ audit


def check_audit_rows(checks: Checks, rows: list, expected: dict, label: str):
    """Each recorded row must be present with its verdict, tested and skipped
    counts (and alternative verdict); rows added later are not failures.
    Every exact counterexample must have lhs != rhs."""
    by_id = {r["identity_id"]: r for r in rows}
    for key, want in expected.items():
        got = by_id.get(key)
        if got is None:
            checks.check(False, f"{label}: row {key} missing")
            continue
        alt = got.get("alternative", {}).get("verdict")
        same = (got["verdict"], got["tested"], got["skipped"], alt) == (
            want["verdict"], want["tested"], want["skipped"], want["alternative"])
        cex_ok = all(_counterexample_differs(c) for c in got["counterexamples"])
        cex_ok = cex_ok and (got["verdict"] != "FAIL" or bool(got["counterexamples"]))
        checks.check(same and cex_ok, f"{label}: row {key} gave {got['verdict']} "
                     f"tested={got['tested']} skipped={got['skipped']} alt={alt}, "
                     f"recorded {want}")


def _counterexample_differs(cex) -> bool:
    lhs, rhs = cex["lhs"], cex["rhs"]
    if isinstance(lhs, str) and isinstance(rhs, str):
        return Fraction(lhs) != Fraction(rhs)
    return lhs != rhs


def audit_expected_rc() -> int:
    fails = any(r["verdict"] == "FAIL" for r in EXPECTED["rows"].values())
    return AUDIT_FAIL_EXIT if fails else 0


def check_full_audit(checks: Checks, rc: int, stdout: str, label: str):
    try:
        rows = json.loads(stdout)
    except ValueError:
        checks.check(False, f"{label}: report is not JSON")
        return 0
    checks.check(rc == audit_expected_rc(), f"{label}: exit code {rc}")
    check_audit_rows(checks, rows, EXPECTED["rows"], label)
    return sum(r["tested"] for r in rows)


# ------------------------------------------------------------ cli-oneshot


def _rat(rng, lo_num, hi_num, dens=(2, 3, 4, 5, 6)):
    """A non-integer rational p/q with lo_num <= p <= hi_num."""
    while True:
        q = rng.choice(dens)
        p = rng.randint(lo_num, hi_num)
        if p % q:
            return Fraction(p, q)


def cli_pass(rng: random.Random) -> list:
    """One pass of short CLI calls: 24 calls in fixed proportions.

    Four ``audit --suite core --max 6`` calls (1/6 of the pass) are the
    slowest kind, so the 90th percentile falls inside that block; the
    import-dominated calls make up the rest.
    """
    r = rng.randint
    calls = []

    def add(argv, check):
        calls.append({"argv": [str(a) for a in argv], "check": check})

    n = r(1, 500)
    add(["compute", "harmonic", "--n", n], ["harmonic", n])
    n, m = r(1, 200), r(-3, 6)
    add(["compute", "gen-harmonic", "--n", n, "--m", m], ["gen_harmonic", n, m])
    for _ in range(3):
        n, k, meth = r(1, 200), r(1, 24), rng.choice(METHODS)
        add(["compute", "hyperharmonic", "--n", n, "--r", k, "--method", meth], ["hyper", n, k])
    n, k = r(1, 40), r(1, 40)
    add(["compute", "hyperharmonic-neg", "--n", n, "--r", k], ["hyper_neg", n, k])
    n, w = r(1, 40), _rat(rng, 1, 40)
    add(["compute", "hyperharmonic-q", "--n", n, "--w", oracles.fmt(w)], ["hyper_q", n, str(w)])
    k = r(-300, 300)
    add(["compute", "fibonacci", "--k", k], ["fibonacci", k])
    n, k = r(1, 500), r(0, 100)
    add(["compute", "alpha", "--n", n, "--r", k], ["alpha", n, k])
    n, k = r(0, 300), r(1, 50)
    add(["compute", "beta", "--n", n, "--r", k], ["beta", n, k])
    x = oracles.fmt(_rat(rng, 1, 300)) if rng.random() < 0.5 else f"{rng.uniform(0.05, 60):.4f}"
    add(["compute", "digamma", "--arg", x], ["digamma", x])
    for _ in range(2):
        gf, k, order = rng.choice(("harmonic", "hyperharmonic", "alpha", "beta")), r(1, 12), r(16, 128)
        add(["series", "--gf", gf, "--r", k, "--order", order], ["series", gf, k, order])
    for _ in range(2):
        seq = rng.choice(("hyperharmonic", "hyperharmonic-neg", "beta"))
        n0, k0 = r(1, 10), r(1, 5)
        n1, k1 = n0 + r(0, 10), k0 + r(0, 5)
        add(["table", seq, "--n", f"{n0}:{n1}", "--r", f"{k0}:{k1}", "--format", "json"],
            ["table", seq, n0, n1, k0, k1])
    for _ in range(2):
        suite = rng.choice((None, "core", "table1", "table2", "float"))
        add(["identities"] + (["--suite", suite] if suite else []), ["identities", suite])
    for _ in range(3):
        key = rng.choice(EXPECTED["oneshot_rows"])
        add(["audit", "--only", key, "--format", "json"], ["audit_only", key])
    for _ in range(4):
        add(["audit", "--suite", "core", "--max", 6, "--format", "json"], ["audit_core6"])
    rng.shuffle(calls)
    return calls


def _grid_oracle(exact, seq, n0, n1, k0, k1):
    def value(n, k):
        if seq == "hyperharmonic":
            return exact.hyper(n, k)
        if seq == "hyperharmonic-neg":
            return oracles.hyper_neg(n, k)
        return Fraction(math.comb(n + k, k), n + k)

    return [[oracles.fmt(value(n, k)) for k in range(k0, k1 + 1)] for n in range(n0, n1 + 1)]


def _series_oracle(exact, gf, k, order):
    if gf == "harmonic":
        vals = [exact.harmonic(i) for i in range(order + 1)]
    elif gf == "hyperharmonic":
        vals = [exact.hyper(i, k) for i in range(order + 1)]
    elif gf == "alpha":
        vals = [Fraction(0)] + [Fraction(i + k, i) for i in range(1, order + 1)]
    else:
        vals = [Fraction(math.comb(i + k - 1, i), k) for i in range(order + 1)]
    return [oracles.fmt(v) for v in vals]


def check_cli_call(checks: Checks, exact, call, rc: int, stdout: str):
    """Exit code and stdout of one CLI call against its oracle."""
    kind, *a = call["check"]
    label = "hyperseq " + " ".join(call["argv"])
    out = stdout.strip()
    want_rc = 0
    try:
        if kind == "harmonic":
            ok = out == oracles.fmt(exact.harmonic(a[0]))
        elif kind == "gen_harmonic":
            ok = out == oracles.fmt(exact.gen_harmonic(*a))
        elif kind == "hyper":
            ok = out == oracles.fmt(exact.hyper(*a))
        elif kind == "hyper_neg":
            ok = out == oracles.fmt(oracles.hyper_neg(*a))
        elif kind == "hyper_q":
            ok = oracles.close(Fraction(out), oracles.hyper_real(a[0], Fraction(a[1])))
        elif kind == "fibonacci":
            ok = out == str(oracles.fibonacci(a[0]))
        elif kind == "alpha":
            ok = out == oracles.fmt(Fraction(a[0] + a[1], a[0]))
        elif kind == "beta":
            ok = out == oracles.fmt(Fraction(math.comb(a[0] + a[1], a[1]), a[0] + a[1]))
        elif kind == "digamma":
            raw = a[0]
            x = float(Fraction(raw)) if "/" in raw else float(raw)
            obj = json.loads(out)
            ok = oracles.contains((obj["value"], obj["abs_error_bound"]), oracles.digamma(x))
        elif kind == "series":
            ok = json.loads(out) == _series_oracle(exact, *a)
        elif kind == "table":
            ok = json.loads(out) == _grid_oracle(exact, *a)
        elif kind == "identities":
            suite = a[0]
            listed = {line.split("\t")[0] for line in out.splitlines()}
            want = {key for key, row in EXPECTED["rows"].items() if suite is None or suite in row["tags"]}
            ok = want <= listed
        elif kind == "audit_only":
            row = EXPECTED["rows"][a[0]]
            want_rc = AUDIT_FAIL_EXIT if row["verdict"] == "FAIL" else 0
            before = checks.failed
            check_audit_rows(checks, json.loads(out), {a[0]: row}, label)
            ok = checks.failed == before
        elif kind == "audit_core6":
            rows = json.loads(out)
            got = {r["identity_id"]: (r["verdict"], r["tested"], r["skipped"]) for r in rows}
            ok = all(got.get(key) == ("PASS", tested, 0) for key, tested in EXPECTED["core_max6"].items())
        else:
            ok = False
    except (ValueError, KeyError, TypeError) as exc:
        ok = False
        label += f" ({type(exc).__name__}: {exc})"
    checks.check(ok and rc == want_rc, f"{label}: exit {rc}, output {out[:120]!r}")


# ------------------------------------------------------------ kernels-mix


def kernels_pass(rng: random.Random) -> list:
    """One pass of library calls in fixed proportions (394 calls).

    Arguments are drawn fresh for every pass, so memo reuse stays low.
    """
    r, u = rng.randint, rng.uniform
    calls = []
    for _ in range(24):
        n, k = r(1, 200), r(1, 24)
        calls += [["hh", n, k, m] for m in METHODS]
    # r from 12 up: below that the order-512 product's cost swings with r,
    # which would make the pass time depend on the seed.
    calls += [["gf", r(12, R_MAX), order] for order in (64, 128, 256, N_MAX)]
    for _ in range(6):
        calls.append(["bt", [oracles.fmt(Fraction(r(-50, 50), r(1, 12))) for _ in range(r(12, 32))]])
    for _ in range(16):
        coeffs = [oracles.fmt(Fraction(r(-20, 20), r(1, 9))) for _ in range(r(3, 9))]
        calls.append(["fd", coeffs, r(0, 10), r(-20, 20)])
    calls += [["gh", r(1, 300), r(-3, 6)] for _ in range(40)]
    calls += [["hq", r(1, 60), oracles.fmt(_rat(rng, 1, 48))] for _ in range(40)]
    calls += [["psi", u(0.01, 60.0)] for _ in range(60)]
    calls += [["lgam", u(0.01, 60.0)] for _ in range(60)]
    calls += [["hreal", u(0.0, 30.0), u(0.05, 10.0)] for _ in range(40)]
    calls += [["sum_exp", oracles.fmt(_rat(rng, 1, 16, (4, 5, 6)))] for _ in range(4)]
    calls += [["sum_hz", oracles.fmt(_rat(rng, 4, 20, (4, 5, 6)))] for _ in range(4)]
    rng.shuffle(calls)
    return calls


class KernelOracle:
    """Reference results for kernels-mix calls, memoised across passes."""

    def __init__(self, exact):
        self.exact = exact
        self._digests = {}

    def gf_digest(self, k, order):
        key = (k, order)
        if key not in self._digests:
            text = "\n".join(oracles.fmt(self.exact.hyper(i, k)) for i in range(order + 1))
            self._digests[key] = hashlib.sha256(text.encode()).hexdigest()
        return self._digests[key]

    def ok(self, call, result) -> bool:
        kind, *a = call
        if kind == "hh":
            return result == oracles.fmt(self.exact.hyper(a[0], a[1]))
        if kind == "gf":
            return result == self.gf_digest(*a)
        if kind == "bt":
            b = [Fraction(v) for v in a[0]]
            fwd, back = result
            return fwd == [oracles.fmt(v) for v in oracles.binomial_transform(b)] and back == a[0]
        if kind == "fd":
            return result == oracles.fmt(oracles.diff_poly(*a))
        if kind == "gh":
            return result == oracles.fmt(self.exact.gen_harmonic(*a))
        if kind == "hq":
            return oracles.close(Fraction(result), oracles.hyper_real(a[0], Fraction(a[1])))
        reference = {
            "psi": oracles.digamma,
            "lgam": oracles.log_gamma,
            "hreal": oracles.hyper_real,
            "sum_exp": lambda x: oracles.exp(Fraction(x)),
            "sum_hz": lambda x: oracles.hurwitz2(Fraction(x)),
        }[kind](*a)
        return oracles.contains(result, reference)


def check_kernel_pass(checks: Checks, oracle: KernelOracle, calls, results, label: str):
    """Every result against its oracle; the five h(n, r) methods must agree."""
    by_pair = {}
    for call, result in zip(calls, results):
        checks.check(oracle.ok(call, result), f"{label}: {call[:4]} gave {str(result)[:80]}")
        if call[0] == "hh":
            by_pair.setdefault((call[1], call[2]), set()).add(result)
    for pair, values in by_pair.items():
        checks.check(len(values) == 1, f"{label}: methods disagree on h{pair}")
