"""Registry of verifiable identities and the audit engine.

Each :class:`Identity` is a claim: two evaluators over a declared
finite parameter domain, compared either exactly (rational equality) or
within a tolerance plus certified error bounds.  ``verify`` checks one
identity, ``run_suite`` a tagged subset, one row after another in key
order.  Failures are first-class data recorded as counterexamples, never
exceptions, because part of the point of the audit is to document table
rows that do not balance as printed.  A report passes only when every
row is PASS: a row with no tested case (SKIPPED) proves nothing.
Values that repeat across one row's cases (h(n, r) at any integer
order, h(k, r)/C(r-1+k, k)^2, generalized binomials, the polynomial
oracle's points) are memoized for that row only; ``verify`` runs each
row in ``row_scope()``, which empties those memos when the row ends,
even when it raises.

Table rows keep the summation numbering of Gould's "Combinatorial
Identities" tables they were derived from (ids ``t1-*``/``t2-*``); the
``core`` tag covers the recurrence/operator/difference identities, and
``float`` the transcendental ones.

Half-integer hyperharmonic orders default to the exact digamma-telescoped
evaluation.  A row whose verdict depends on that convention also carries
``alt_rhs``, its right side under the alternative reading
(:func:`hyperseq.sequences.hyperharmonic_half_integer_alt`), which is
checked against the same left side; the report records the verdict under
each.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import time
from fractions import Fraction
from typing import Union

from ._records import record
from .analytic import CertifiedReal, as_certified, digamma, sum_series
from .analytic import delta_hyperbolic_closed_form
from .errors import DomainError
from . import exactnum
from .exactnum import (
    binomial_int,
    dot,
    factorial,
    falling_factorial,
    format_rational,
    rising_factorial,
    signed_binomial_row,
)
from .opcalc import (
    dx_reciprocal_rising,
    forward_difference,
    gf_alpha,
    gf_beta,
    gf_hyperharmonic,
)
from .sequences import (
    alpha,
    beta,
    fibonacci,
    gen_harmonic,
    harmonic,
    hyperharmonic,
    hyperharmonic_half_integer_alt,
    hyperharmonic_neg,
    hyperharmonic_rational_order,
)

F = Fraction

#: The scalar type evaluators produce: exact rational or certified float.
SequenceValue = Union[Fraction, CertifiedReal]

#: Fixed reproducible sample list for identities with a free rational
#: parameter; each row filters it for pole validity.
SAMPLE_RATIONALS = (F(0), F(1), F(1, 2), F(-1, 3), F(5, 2), F(3))

#: Nine-point grid on [-2, 2] for the hyperbolic difference rows.
HYPERBOLIC_GRID = tuple(F(i, 2) for i in range(-4, 5))

#: Digamma-difference sample arguments.
PSI_SAMPLES = (F(1), F(1, 2), F(3, 2), F(5))


# --------------------------------------------------------------------------
# Parameter domains and identity records
# --------------------------------------------------------------------------


class IntRange(record("IntRange", ("name", "lo", "hi"), frozen=True)):
    """An integer parameter running over lo..hi inclusive; immutable."""

    __slots__ = ()


class RationalChoice(record("RationalChoice", ("name", "values"), frozen=True)):
    """A rational parameter sampled from a fixed tuple; immutable."""

    __slots__ = ()


Params = dict


class Identity(
    record(
        "Identity",
        (
            "key", "anchor", "params", "lhs", "rhs", "tags",
            "mode", "tol", "valid", "alt_rhs",
        ),
        {"mode": "exact", "tol": 0.0, "valid": None, "alt_rhs": None},
        frozen=True,
    )
):
    """One registry row: two evaluators over a parameter domain; immutable.

    ``params`` is a tuple of :class:`IntRange`/:class:`RationalChoice`;
    ``lhs``/``rhs`` map an assignment dict to a value.  ``mode`` is
    "exact" or "float"; ``valid`` filters assignments; ``alt_rhs``, when
    set, is the right side under the alternative half-integer
    convention, checked against ``lhs``.
    """

    __slots__ = ()

    @property
    def dual_convention(self) -> bool:
        return self.alt_rhs is not None


class ConventionResult(
    record("ConventionResult", ("verdict", "tested", "skipped", "counterexamples"))
):
    """The verdict of one row under the alternative convention."""

    __slots__ = ()


class IdentityReport(
    record(
        "IdentityReport",
        (
            "key", "anchor", "mode", "verdict", "tested", "skipped",
            "counterexamples", "skip_reasons", "alternative", "elapsed",
        ),
        {"skip_reasons": [], "alternative": None, "elapsed": 0.0},
    )
):
    """The outcome of verifying one row."""

    __slots__ = ()

    def to_json_obj(self) -> dict:
        obj = {
            "identity_id": self.key,
            "anchor": self.anchor,
            "mode": self.mode,
            "verdict": self.verdict,
            "tested": self.tested,
            "skipped": self.skipped,
            "counterexamples": self.counterexamples,
        }
        if self.skip_reasons:
            obj["skip_reasons"] = self.skip_reasons
        if self.alternative is not None:
            obj["alternative"] = {
                f: getattr(self.alternative, f) for f in ConventionResult._fields
            }
        return obj


class AuditReport(record("AuditReport", ("entries",))):
    """The reports of an audit's rows, in key order."""

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(e.verdict == "PASS" for e in self.entries)

    def counts(self) -> dict:
        out = {"PASS": 0, "FAIL": 0, "SKIPPED": 0}
        for e in self.entries:
            out[e.verdict] += 1
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            [e.to_json_obj() for e in self.entries], indent=indent
        )

    def to_csv(self) -> str:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "identity_id",
                "mode",
                "verdict",
                "tested",
                "skipped",
                "counterexamples",
                "alternative_verdict",
            ]
        )
        for e in self.entries:
            writer.writerow(
                [
                    e.key,
                    e.mode,
                    e.verdict,
                    e.tested,
                    e.skipped,
                    len(e.counterexamples),
                    e.alternative.verdict if e.alternative else "",
                ]
            )
        return buf.getvalue()

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            extra = ""
            if e.alternative is not None:
                extra = f"  [alt: {e.alternative.verdict}]"
            lines.append(
                f"{e.key:<16} {e.verdict:<7} tested={e.tested} "
                f"skipped={e.skipped} fails={len(e.counterexamples)} "
                f"({e.elapsed:.2f}s){extra}"
            )
        lines.append(self.summary_line())
        return "\n".join(lines) + "\n"

    def summary_line(self) -> str:
        c = self.counts()
        return (
            f"{len(self.entries)} identities: {c['PASS']} PASS, "
            f"{c['FAIL']} FAIL, {c['SKIPPED']} SKIPPED"
        )


# --------------------------------------------------------------------------
# Evaluation engine
# --------------------------------------------------------------------------


def _render_value(v) -> object:
    if isinstance(v, CertifiedReal):
        return v.to_json_obj()
    return format_rational(F(v))


def _render_params(pa: Params) -> dict:
    return {
        name: (value if isinstance(value, int) else format_rational(value))
        for name, value in pa.items()
    }


def _axis_values(p, max_bound, param_bounds):
    override = (param_bounds or {}).get(p.name)
    if isinstance(p, IntRange):
        lo, hi = p.lo, p.hi
        if isinstance(override, int):
            lo = hi = override
        elif override is not None and override[0] is not None:
            lo, hi = override
        else:
            # No override, or a (None, cap) one: keep the row's own lower
            # bound and clamp only the top.
            if override is not None:
                hi = min(hi, override[1])
            if max_bound is not None:
                hi = min(hi, max_bound)
        return [(p.name, v) for v in range(lo, hi + 1)]
    values = p.values
    if override is not None:
        if isinstance(override, (list, tuple)):
            values = tuple(F(v) for v in override)
        else:
            values = (F(override),)
    return [(p.name, v) for v in values]


def _assignments(identity, max_bound, param_bounds):
    axes = [_axis_values(p, max_bound, param_bounds) for p in identity.params]
    for combo in itertools.product(*axes):
        pa = dict(combo)
        if identity.valid is not None and not identity.valid(pa):
            continue
        yield pa


def _values_agree(identity, lv, rv, tol_override) -> bool:
    if identity.mode == "exact":
        if type(lv) is type(rv) is F:
            return lv == rv
        return F(lv) == F(rv)
    lc, rc = as_certified(lv), as_certified(rv)
    tol = identity.tol if tol_override is None else tol_override
    return abs(lc.value - rc.value) <= tol + lc.abs_error_bound + rc.abs_error_bound


def _evaluate_pair(identity, lhs, rhs, assignments, cap, tol_override):
    tested = 0
    skipped = 0
    fails = 0
    counterexamples = []
    skip_reasons = []
    for pa in assignments:
        try:
            lv = lhs(pa)
            rv = rhs(pa)
        except DomainError as exc:
            skipped += 1
            if len(skip_reasons) < 3:
                skip_reasons.append(
                    {"params": _render_params(pa), "reason": str(exc)}
                )
            continue
        tested += 1
        if not _values_agree(identity, lv, rv, tol_override):
            fails += 1
            if len(counterexamples) < cap:
                counterexamples.append(
                    {
                        "params": _render_params(pa),
                        "lhs": _render_value(lv),
                        "rhs": _render_value(rv),
                    }
                )
    if fails:
        verdict = "FAIL"
    elif tested:
        verdict = "PASS"
    else:
        verdict = "SKIPPED"
    return verdict, tested, skipped, counterexamples, skip_reasons


def verify(
    key: str,
    *,
    max_bound: int | None = None,
    param_bounds: dict | None = None,
    counterexample_cap: int = 5,
    tolerance_override: float | None = None,
) -> IdentityReport:
    """Check one registered identity over its (possibly overridden) domain."""
    identity = get_identity(key)
    start = time.monotonic()
    with row_scope():
        verdict, tested, skipped, cex, reasons = _evaluate_pair(
            identity,
            identity.lhs,
            identity.rhs,
            _assignments(identity, max_bound, param_bounds),
            counterexample_cap,
            tolerance_override,
        )
        alternative = None
        if identity.dual_convention:
            a_verdict, a_tested, a_skipped, a_cex, _ = _evaluate_pair(
                identity,
                identity.lhs,
                identity.alt_rhs,
                _assignments(identity, max_bound, param_bounds),
                counterexample_cap,
                tolerance_override,
            )
            alternative = ConventionResult(a_verdict, a_tested, a_skipped, a_cex)
    return IdentityReport(
        key=identity.key,
        anchor=identity.anchor,
        mode=(
            "exact" if identity.mode == "exact" else f"float({identity.tol:g})"
        ),
        verdict=verdict,
        tested=tested,
        skipped=skipped,
        counterexamples=cex,
        skip_reasons=reasons,
        alternative=alternative,
        elapsed=time.monotonic() - start,
    )


def run_suite(
    tags=frozenset(),
    *,
    only=None,
    max_bound: int | None = None,
    param_bounds: dict | None = None,
    counterexample_cap: int = 5,
    tolerance_override: float | None = None,
) -> AuditReport:
    """Run every identity matching the tag filter (empty = everything).

    ``only`` optionally restricts to keys equal to, or ending with, one
    of the given tokens (so ``3.95`` selects ``t1-3.95`` inside the
    table1 suite).  Identities run one after another in key order.
    """
    tags = frozenset(tags)
    keys = []
    for key in list_identities():
        identity = get_identity(key)
        if tags and not (tags & identity.tags):
            continue
        if only:
            tokens = [only] if isinstance(only, str) else list(only)
            if not any(key == t or key.endswith("-" + t) for t in tokens):
                continue
        keys.append(key)

    return AuditReport(
        [
            verify(
                key,
                max_bound=max_bound,
                param_bounds=param_bounds,
                counterexample_cap=counterexample_cap,
                tolerance_override=tolerance_override,
            )
            for key in keys
        ]
    )


# --------------------------------------------------------------------------
# Shared evaluator helpers
# --------------------------------------------------------------------------


#: Every row-scoped memo; ``row_scope`` empties them all when a row ends.
_ROW_MEMOS: list = []


@contextlib.contextmanager
def row_scope():
    """Evaluate one row's cases; empty every row memo on exit, even on error.

    ``verify`` runs each row in one; so should any caller that evaluates
    ``lhs``/``rhs`` directly, or the memos keep that row's values.
    """
    try:
        yield
    finally:
        for memo in _ROW_MEMOS:  # hold at most one row's working set
            memo.cache_clear()


def _row_memo(fn):
    """Memoize ``fn`` for the duration of one audit row.

    A row evaluates the same h(n, r), binomial and oracle values case
    after case; between rows the values mostly differ, so holding them
    for the life of the process would only grow memory.
    """
    memo = functools.lru_cache(maxsize=None)(fn)
    _ROW_MEMOS.append(memo)
    return memo


#: The rows' generalized binomial, memoized per row; the library's
#: ``exactnum.binomial_general`` stays unmemoized.
binomial_general = _row_memo(exactnum.binomial_general)


@_row_memo
def _hz(n: int, order: int) -> Fraction:
    """h(n, order) for any integer order (positive, zero, or negative)."""
    if order >= 0:
        return hyperharmonic(n, order)
    return hyperharmonic_neg(n, -order)


def _h_any_order(n: int, w) -> Fraction:
    """h(n, w) for a positive rational order w (integer orders included)."""
    w = F(w)
    if w.denominator == 1:
        return _hz(n, int(w))
    return hyperharmonic_rational_order(n, w)


def _bsum(lo: int, hi: int, coeff, term) -> Fraction:
    """sum_{i=lo..hi} coeff(i) term(i), as one exact dot product."""
    idx = range(lo, hi + 1)
    return dot([coeff(i) for i in idx], [term(i) for i in idx])


def _alt_sum(k: int, term, lo: int = 0) -> Fraction:
    """sum_{i=lo..k} (-1)^(k-i) C(k,i) term(i), the k-th difference form."""
    return dot(signed_binomial_row(k)[lo:], [term(i) for i in range(lo, k + 1)])


def _total(values) -> Fraction:
    """Plain exact sum of a finite sequence of ints and Fractions."""
    values = list(values)
    return dot([1] * len(values), values)


@functools.lru_cache(maxsize=None)
def _gf_hyper_cached(r: int, order: int):
    return gf_hyperharmonic(r, order)


def _gf_hyper_coeff(r: int, n: int) -> Fraction:
    order = 64 * max(1, (n + 63) // 64)  # n rounded up to a multiple of 64
    return _gf_hyper_cached(r, order).coeff(n)


@_row_memo
def _h_over_c2(k: int, r: int) -> Fraction:
    """h(k, r) / C(r-1+k, k)^2, a function of (k, r) alone."""
    return hyperharmonic(k, r) / binomial_int(r - 1 + k, k) ** 2


@_row_memo
def _t2_3108_side(n: int, m: int, r: int) -> Fraction:
    """One side of Gould (3.108) at order r; ``t1-3.108`` is r = 1."""
    return dot(
        [binomial_int(k + r + m, m) for k in range(n + 1)]
        + [binomial_int(k + r - 1, k) for k in range(n + 1)],
        [hyperharmonic(k, r) for k in range(n + 1)]
        + [hyperharmonic(m, k + r + 1) for k in range(n + 1)],
    )


@_row_memo
def _poly_point(deg: int, t) -> Fraction:
    """The fixed degree-``deg`` test polynomial at t, by Horner's rule.

    Its coefficients are (-1)^j (j+1)/(j+2) for j = 0..deg.
    """
    acc = F(0)
    for j in range(deg, -1, -1):
        acc = acc * t + F((-1) ** j * (j + 1), j + 2)
    return acc


def _fixed_poly(deg: int):
    """Deterministic degree-``deg`` polynomial oracle for operator checks."""
    return functools.partial(_poly_point, deg)


def _poly_coeffs_from_shifts(shifts) -> list:
    """Ascending coefficients of prod_i (t + s_i)."""
    coeffs = [F(1)]
    for s in shifts:
        s = F(s)
        out = [F(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            out[j] += c * s
            out[j + 1] += c
        coeffs = out
    return coeffs


def _poly_derivative_at(coeffs, t) -> Fraction:
    t = F(t)
    acc = F(0)
    for j in range(len(coeffs) - 1, 0, -1):
        acc = acc * t + j * coeffs[j]
    return acc


def _alternating_certified_sum(k: int, values) -> CertifiedReal:
    """sum_i (-1)**(k-i) binom(k, i) values[i] with error tracking."""
    total = CertifiedReal(0.0, 0.0)
    for coeff, v in zip(signed_binomial_row(k), values, strict=True):
        total = total + as_certified(v).scaled(coeff)
    return total


_LOG2 = math.log(2.0)
_ULP = 2.0**-52


# --------------------------------------------------------------------------
# Registry construction
# --------------------------------------------------------------------------

_REGISTRY: dict[str, Identity] = {}


def _add(key, anchor, params, lhs, rhs, tags, mode="exact", tol=0.0,
         valid=None, alt_rhs=None):
    if key in _REGISTRY:
        raise ValueError(f"duplicate identity key {key}")
    _REGISTRY[key] = Identity(
        key=key,
        anchor=anchor,
        params=tuple(params),
        lhs=lhs,
        rhs=rhs,
        tags=frozenset(tags),
        mode=mode,
        tol=tol,
        valid=valid,
        alt_rhs=alt_rhs,
    )


def get_identity(key: str) -> Identity:
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(f"unknown identity id: {key}") from None


def list_identities() -> list:
    return sorted(_REGISTRY)


def _core_recurrences():
    _add(
        "prop-5",
        "sum_{s=1..n} h(s,r-1) - sum_{k=1..r} h(n-1,k) = 1/n",
        (IntRange("n", 1, 25), IntRange("r", 1, 12)),
        lambda v: dot(
            [1] * v["n"] + [-1] * v["r"],
            [_hz(s, v["r"] - 1) for s in range(1, v["n"] + 1)]
            + [_hz(v["n"] - 1, k) for k in range(1, v["r"] + 1)],
        ),
        lambda v: F(1, v["n"]),
        {"core"},
    )
    _add(
        "rem-bgg",
        "h(n,r+s) - h(n,s) = sum_{k=1..r} h(n-1,k+s)   (s = 0 gives the "
        "h(n,r) = sum h(n-1,k) + 1/n form)",
        (IntRange("n", 1, 25), IntRange("r", 1, 12), IntRange("s", 0, 6)),
        lambda v: _hz(v["n"], v["r"] + v["s"]) - _hz(v["n"], v["s"]),
        lambda v: _total(_hz(v["n"] - 1, k + v["s"]) for k in range(1, v["r"] + 1)),
        {"core"},
    )
    _add(
        "eq-8",
        "h(n,r+1) = alpha(n,r) h(n-1,r+1) + beta(n,r)",
        (IntRange("n", 1, 25), IntRange("r", 1, 12)),
        lambda v: hyperharmonic(v["n"], v["r"] + 1),
        lambda v: alpha(v["n"], v["r"]) * hyperharmonic(v["n"] - 1, v["r"] + 1)
        + beta(v["n"], v["r"]),
        {"core"},
    )
    _add(
        "eq-9",
        "(alpha - 1) h(n,r+1) = alpha h(n,r) - beta",
        (IntRange("n", 1, 25), IntRange("r", 1, 12)),
        lambda v: (alpha(v["n"], v["r"]) - 1) * hyperharmonic(v["n"], v["r"] + 1),
        lambda v: alpha(v["n"], v["r"]) * hyperharmonic(v["n"], v["r"])
        - beta(v["n"], v["r"]),
        {"core"},
    )

    def _ab_lhs(v):
        part, n, r = v["part"], v["n"], v["r"]
        if part == 0:
            return alpha(n, r)
        if part == 1:
            return beta(n, r)
        if part == 2:
            return gf_beta(r, n).coeff(n)
        return gf_alpha(r, n).coeff(n)

    def _ab_rhs(v):
        part, n, r = v["part"], v["n"], v["r"]
        if part == 0:
            return F(r, n) * alpha(r, n)
        if part == 1:
            return beta(r, n)
        if part == 2:
            return beta(n, r)
        return alpha(n, r)

    _add(
        "rem-alpha-beta",
        "alpha(n,r) = (r/n) alpha(r,n); beta(n,r) = beta(r,n); "
        "[z^k] 1/(r(1-z)^r) = beta(k,r); [z^k] (z/(1-z) - r ln(1-z)) = alpha(k,r)",
        (IntRange("part", 0, 3), IntRange("n", 1, 20), IntRange("r", 1, 12)),
        _ab_lhs,
        _ab_rhs,
        {"core"},
    )
    _add(
        "prop-bt",
        "sum_{k=0..n} beta(k,r) = alpha(n,r) beta(n,r) / (alpha(n,r) - 1)",
        (IntRange("n", 1, 25), IntRange("r", 1, 12)),
        lambda v: _total(beta(k, v["r"]) for k in range(v["n"] + 1)),
        lambda v: alpha(v["n"], v["r"])
        * beta(v["n"], v["r"])
        / (alpha(v["n"], v["r"]) - 1),
        {"core"},
    )
    _add(
        "prop-falling",
        "sum_{k=0..n} C(k+r,r)/(k+r)^falling(m) = C(n+r-m+1,n)/r^falling(m)",
        (IntRange("m", 1, 12), IntRange("r", 1, 12), IntRange("n", 0, 25)),
        lambda v: _bsum(
            0,
            v["n"],
            lambda k: binomial_int(k + v["r"], v["r"]),
            lambda k: 1 / falling_factorial(k + v["r"], v["m"]),
        ),
        lambda v: binomial_int(v["n"] + v["r"] - v["m"] + 1, v["n"])
        / falling_factorial(F(v["r"]), v["m"]),
        {"core"},
        valid=lambda v: v["m"] <= v["r"],
    )


def _core_derivatives():
    from .opcalc import derivative_at_zero_linear_factors as dlin
    from .opcalc import leaping_binomial

    _add(
        "eq-10",
        "D_x C(x+n,n) at 0 = H(n)",
        (IntRange("n", 0, 25),),
        lambda v: dlin(range(1, v["n"] + 1), factorial(v["n"])),
        lambda v: harmonic(v["n"]),
        {"core"},
    )
    _add(
        "eq-Dgh",
        "D_x of the leaping binomial at 0 = H(n, order m)",
        (IntRange("n", 1, 12), IntRange("m", 1, 4)),
        lambda v: dlin(
            [i ** v["m"] for i in range(1, v["n"] + 1)],
            factorial(v["n"]) ** v["m"],
        ),
        lambda v: gen_harmonic(v["n"], v["m"]),
        {"core"},
    )

    def _leap_rel_rhs(v):
        n, m, x = v["n"], v["m"], v["x"]
        num = (
            F(factorial(n**m), factorial(n) ** m)
            * binomial_general(x + n**m, n**m)
        )
        den = F(1)
        for i in range(2, n + 1):
            width = i**m - (i - 1) ** m - 1
            den *= binomial_general(x + i**m - 1, width) * factorial(width)
        return num / den

    _add(
        "prop-leap-rel",
        "leaping binomial vs classical binomials (n >= 2)",
        (
            IntRange("n", 2, 6),
            IntRange("m", 1, 3),
            RationalChoice("x", SAMPLE_RATIONALS),
        ),
        lambda v: leaping_binomial(v["x"], v["n"], v["m"]),
        _leap_rel_rhs,
        {"core"},
    )
    _add(
        "eq-11",
        "D_x C(x+n+r-1,n) at 0 = h(n,r)",
        (IntRange("n", 0, 20), IntRange("r", 1, 12)),
        lambda v: dlin(
            range(v["r"], v["n"] + v["r"]), factorial(v["n"])
        ),
        lambda v: hyperharmonic(v["n"], v["r"]),
        {"core"},
    )

    def _pd_lhs(v):
        n, z = v["n"], v["z"]
        coeffs = _poly_coeffs_from_shifts(range(n))
        return _poly_derivative_at(coeffs, z)

    def _pd_rhs(v):
        n, z = v["n"], v["z"]
        tele = _total(1 / (z + i) for i in range(n))
        return rising_factorial(z, n) * tele

    _add(
        "eq-pd",
        "D_z z^rising(n) = z^rising(n) (psi(z+n) - psi(z)), telescoped "
        "exactly at rational z",
        (IntRange("n", 1, 10), RationalChoice("z", SAMPLE_RATIONALS)),
        _pd_lhs,
        _pd_rhs,
        {"core"},
        valid=lambda v: all(v["z"] + i != 0 for i in range(v["n"])),
    )
    _add(
        "eq-13",
        "sum_{j=0..n} C(x+j+r-1,j) = (1 + n/(x+r)) C(x+n+r-1,n)",
        (
            IntRange("n", 0, 20),
            IntRange("r", 1, 8),
            RationalChoice("x", SAMPLE_RATIONALS),
        ),
        lambda v: _total(
            binomial_general(v["x"] + (j + v["r"] - 1), j) for j in range(v["n"] + 1)
        ),
        lambda v: (1 + F(v["n"]) / (v["x"] + v["r"]))
        * binomial_general(v["x"] + v["n"] + v["r"] - 1, v["n"]),
        {"core"},
        valid=lambda v: v["x"] + v["r"] != 0,
    )
    _add(
        "gf-harmonic",
        "[z^n] -ln(1-z)/(1-z) = H(n)",
        (IntRange("n", 0, 64),),
        lambda v: _gf_hyper_coeff(1, v["n"]),
        lambda v: harmonic(v["n"]),
        {"core"},
    )
    _add(
        "gf-hyperharmonic",
        "[z^n] -ln(1-z)/(1-z)^r = h(n,r)",
        (IntRange("r", 1, 8), IntRange("n", 0, 64)),
        lambda v: _gf_hyper_coeff(v["r"], v["n"]),
        lambda v: hyperharmonic(v["n"], v["r"]),
        {"core"},
    )


def _core_differences():
    def _teo4_lhs(v):
        f = _fixed_poly(v["deg"])
        return forward_difference(lambda t: F(t) * f(t), v["n"], v["x"])

    def _teo4_rhs(v):
        f = _fixed_poly(v["deg"])
        return F(v["x"]) * forward_difference(f, v["n"], v["x"]) + v[
            "n"
        ] * forward_difference(f, v["n"] - 1, v["x"] + 1)

    _add(
        "prop-teo4",
        "Delta^n (x f(x)) = x Delta^n f(x) + n Delta^(n-1) f(x+1)",
        (IntRange("deg", 0, 6), IntRange("n", 1, 6), IntRange("x", 0, 10)),
        _teo4_lhs,
        _teo4_rhs,
        {"core"},
    )
    _add(
        "prop-son1",
        "sum_i (-1)^(i+1) C(k,i) H(n+i) = (k-1)!/(n+1)^rising(k)",
        (IntRange("k", 1, 10), IntRange("n", 0, 20)),
        lambda v: _bsum(
            0,
            v["k"],
            lambda i: (-1) ** (i + 1) * binomial_int(v["k"], i),
            lambda i: harmonic(v["n"] + i),
        ),
        lambda v: factorial(v["k"] - 1)
        / rising_factorial(F(v["n"] + 1), v["k"]),
        {"core"},
    )
    _add(
        "cor-son4",
        "sum_{i=1..k} (-1)^(i+1) C(k,i) H(i) = 1/k",
        (IntRange("k", 1, 25),),
        lambda v: _bsum(
            1, v["k"], lambda i: (-1) ** (i + 1) * binomial_int(v["k"], i), harmonic
        ),
        lambda v: F(1, v["k"]),
        {"core"},
    )
    _add(
        "eq-hrp",
        "sum_{i=1..k} (-1)^(i+1) C(k,i)/i = H(k)",
        (IntRange("k", 1, 25),),
        lambda v: _bsum(
            1,
            v["k"],
            lambda i: (-1) ** (i + 1) * binomial_int(v["k"], i),
            lambda i: F(1, i),
        ),
        lambda v: harmonic(v["k"]),
        {"core"},
    )
    _add(
        "prop-son8",
        "sum_i (-1)^i C(k,i)(n+i) H(n+i) = (k-2)!/(n+1)^rising(k-1), k >= 2",
        (IntRange("k", 2, 12), IntRange("n", 0, 20)),
        lambda v: _bsum(
            0,
            v["k"],
            lambda i: (-1) ** i * binomial_int(v["k"], i) * (v["n"] + i),
            lambda i: harmonic(v["n"] + i),
        ),
        lambda v: factorial(v["k"] - 2)
        / rising_factorial(F(v["n"] + 1), v["k"] - 1),
        {"core"},
    )
    _add(
        "cor-bih",
        "sum_{i=1..k} (-1)^i C(k,i) i H(i) = 1/(k-1), k >= 2",
        (IntRange("k", 2, 25),),
        lambda v: _bsum(
            1, v["k"], lambda i: (-1) ** i * binomial_int(v["k"], i) * i, harmonic
        ),
        lambda v: F(1, v["k"] - 1),
        {"core"},
    )
    _add(
        "rem-kHk",
        "k (H(k) - 1) = sum_{i=2..k} C(k,i) (-1)^i/(i-1)",
        (IntRange("k", 1, 25),),
        lambda v: v["k"] * (harmonic(v["k"]) - 1),
        lambda v: _bsum(
            2,
            v["k"],
            lambda i: binomial_int(v["k"], i) * (-1) ** i,
            lambda i: F(1, i - 1),
        ),
        {"core"},
    )
    _add(
        "cor-w",
        "sum_{i=1..n-1} (-1)^(i+1) C(n+1,i+1) H(i) = 2 H(n) for even n, 0 "
        "for odd n",
        (IntRange("n", 1, 30),),
        lambda v: _bsum(
            1,
            v["n"] - 1,
            lambda i: (-1) ** (i + 1) * binomial_int(v["n"] + 1, i + 1),
            harmonic,
        ),
        lambda v: 2 * harmonic(v["n"]) if v["n"] % 2 == 0 else F(0),
        {"core"},
    )


def _core_negative_orders():
    def _hhr_valid(v):
        n, r = v["n"], v["r"]
        if r >= 1:
            return True
        # Below order zero the piecewise definition only satisfies the
        # downward recurrence outside the band 1 < index <= |order| + 1.
        if r == 0:
            return n >= 2
        return n >= 2 - r

    _add(
        "eq-hhr",
        "h(n,r-1) = h(n,r) - h(n-1,r)",
        (IntRange("n", 1, 25), IntRange("r", -8, 12)),
        lambda v: _hz(v["n"], v["r"] - 1),
        lambda v: _hz(v["n"], v["r"]) - _hz(v["n"] - 1, v["r"]),
        {"core"},
        valid=_hhr_valid,
    )
    _add(
        "prop-one1-n",
        "h(n+k,r-k) = sum_i (-1)^(k-i) C(k,i) h(n+i,r)",
        (IntRange("n", 0, 25), IntRange("k", 0, 25), IntRange("r", -6, 12)),
        lambda v: _hz(v["n"] + v["k"], v["r"] - v["k"]),
        lambda v: _alt_sum(v["k"], lambda i: _hz(v["n"] + i, v["r"])),
        {"core"},
        valid=lambda v: v["r"] >= 1 or v["n"] >= 1 - v["r"],
    )
    _add(
        "prop-one1-r",
        "h(n-k,r+k) = sum_i (-1)^(k-i) C(k,i) h(n,r+i), k <= n",
        (IntRange("n", 1, 25), IntRange("k", 0, 12), IntRange("r", -6, 12)),
        lambda v: _hz(v["n"] - v["k"], v["r"] + v["k"]),
        lambda v: _alt_sum(v["k"], lambda i: _hz(v["n"], v["r"] + i)),
        {"core"},
        valid=lambda v: v["k"] <= v["n"]
        and (v["r"] >= 1 or v["n"] >= v["k"] + 1 - v["r"]),
    )

    def _shift_lhs(v):
        if v["part"] == 0:
            return _hz(v["n"] - v["k"], v["k"])
        return _alt_sum(v["k"], lambda i: _hz(v["k"], v["r"] + i))

    def _shift_rhs(v):
        if v["part"] == 0:
            return _alt_sum(v["k"], lambda i: _hz(v["n"], i))
        return F(0)

    _add(
        "cor-hk-shift",
        "h(n-k,k) = sum_i (-1)^(k-i) C(k,i) h(n,i); "
        "sum_i (-1)^(k-i) C(k,i) h(k,r+i) = 0",
        (
            IntRange("part", 0, 1),
            IntRange("n", 1, 25),
            IntRange("k", 1, 12),
            IntRange("r", 1, 12),
        ),
        _shift_lhs,
        _shift_rhs,
        {"core"},
        valid=lambda v: (
            (v["part"] == 0 and v["r"] == 1 and v["k"] <= v["n"])
            or (v["part"] == 1 and v["n"] == 1)
        ),
    )
    _add(
        "cor-e",
        "h(n+k,-k) = sum_i (-1)^(k-i) C(k,i) / (n+i)",
        (IntRange("n", 1, 25), IntRange("k", 1, 12)),
        lambda v: hyperharmonic_neg(v["n"] + v["k"], v["k"]),
        lambda v: _alt_sum(v["k"], lambda i: F(1, v["n"] + i)),
        {"core"},
    )
    _add(
        "cor-lower",
        "h(k,r-k) = sum_{i=1..k} (-1)^(k-i) C(k,i) h(i,r)",
        (IntRange("k", 1, 12), IntRange("r", 1, 12)),
        lambda v: _hz(v["k"], v["r"] - v["k"]),
        lambda v: _alt_sum(v["k"], lambda i: _hz(i, v["r"]), lo=1),
        {"core"},
    )
    _add(
        "cor-recip",
        "1/(k+1) = sum_i C(k,i) h(i+1,-i)",
        (IntRange("k", 0, 25),),
        lambda v: F(1, v["k"] + 1),
        lambda v: _bsum(
            0, v["k"], lambda i: binomial_int(v["k"], i), lambda i: _hz(i + 1, -i)
        ),
        {"core"},
    )
    _add(
        "cor-e2",
        "H(n) = sum_{i=1..n} C(n,i) h(i,1-i)",
        (IntRange("n", 1, 25),),
        lambda v: harmonic(v["n"]),
        lambda v: _bsum(
            1, v["n"], lambda i: binomial_int(v["n"], i), lambda i: _hz(i, 1 - i)
        ),
        {"core"},
    )
    _add(
        "rem-Hk-hik",
        "H(k) = sum_i (-1)^(k-i) C(k,i) h(i,k+1); "
        "1/k = sum_i (-1)^(k-i) C(k,i) h(i,k)",
        (IntRange("part", 0, 1), IntRange("k", 1, 20)),
        lambda v: harmonic(v["k"]) if v["part"] == 0 else F(1, v["k"]),
        lambda v: _alt_sum(
            v["k"], lambda i: hyperharmonic(i, v["k"] + 1 - v["part"]), lo=1
        ),
        {"core"},
    )
    _add(
        "rem-doublesum",
        "H(n) = sum_{1<=i<=k<=n} (-1)^(k-i) C(k,i) h(i,k)",
        (IntRange("n", 1, 20),),
        lambda v: harmonic(v["n"]),
        lambda v: dot(
            [
                c
                for k in range(1, v["n"] + 1)
                for c in signed_binomial_row(k)[1:]
            ],
            [
                hyperharmonic(i, k)
                for k in range(1, v["n"] + 1)
                for i in range(1, k + 1)
            ],
        ),
        {"core"},
    )


def _core_fibonacci():
    _add(
        "prop-one2",
        "F(n-k) = sum_i (-1)^(k-i) C(k,i) F(n+i)",
        (IntRange("n", 0, 25), IntRange("k", 0, 25)),
        lambda v: F(fibonacci(v["n"] - v["k"])),
        lambda v: _alt_sum(v["k"], lambda i: fibonacci(v["n"] + i)),
        {"core"},
    )
    _add(
        "cor-nf",
        "F(-k) = sum_i (-1)^(k-i) C(k,i) F(i)",
        (IntRange("k", 0, 40),),
        lambda v: F(fibonacci(-v["k"])),
        lambda v: _alt_sum(v["k"], fibonacci),

        {"core"},
    )
    _add(
        "cor-son6",
        "F(-k) = F(-k-1) + F(-k-2)",
        (IntRange("k", 0, 40),),
        lambda v: F(fibonacci(-v["k"])),
        lambda v: F(fibonacci(-v["k"] - 1) + fibonacci(-v["k"] - 2)),
        {"core"},
    )
    _add(
        "cor-fib-sign",
        "F(-k) = (-1)^(k+1) F(k)",
        (IntRange("k", 0, 40),),
        lambda v: F(fibonacci(-v["k"])),
        lambda v: F((-1) ** (v["k"] + 1) * fibonacci(v["k"])),
        {"core"},
    )


def _float_rows():
    def _hyp_direct(kind, k, x):
        fn = math.sinh if kind == "sinh" else math.cosh
        xf = float(x)
        return _alternating_certified_sum(
            k, [CertifiedReal.from_float(fn(xf + i), 2.0) for i in range(k + 1)]
        )

    for kind in ("sinh", "cosh"):
        _add(
            f"prop-one11-{kind}",
            f"alternating binomial sum of {kind}(x+i) has the closed "
            "exponential form",
            (IntRange("k", 0, 15), RationalChoice("x", HYPERBOLIC_GRID)),
            (lambda v, kd=kind: _hyp_direct(kd, v["k"], v["x"])),
            (
                lambda v, kd=kind: delta_hyperbolic_closed_form(
                    kd, v["k"], float(v["x"])
                )
            ),
            {"float"},
            mode="float",
            tol=1e-12,
        )

    def _x0_rhs(v):
        k = v["k"]
        kind = "sinh" if v["part"] == 0 else "cosh"
        sign = 1.0 if (k % 2 == 0) == (kind == "cosh") else -1.0
        value = (math.e - 1.0) ** k * (math.e**k + sign) / (2.0 * math.e**k)
        mag = (math.e - 1.0) ** k * (math.e**k + 1.0) / (2.0 * math.e**k)
        return CertifiedReal(value, (k + 8) * _ULP * mag)

    _add(
        "rem-one11-x0",
        "the x = 0 specializations of the hyperbolic difference forms",
        (IntRange("part", 0, 1), IntRange("k", 0, 15)),
        lambda v: _hyp_direct("sinh" if v["part"] == 0 else "cosh", v["k"], F(0)),
        _x0_rhs,
        {"float"},
        mode="float",
        tol=1e-12,
    )

    def _one6_lhs(v):
        k, x = v["k"], v["x"]
        total = CertifiedReal(0.0, 0.0)
        for i in range(k + 1):
            total = total + digamma(float(x) + i).scaled(
                (-1) ** i * binomial_int(k, i)
            )
        return total

    _add(
        "prop-one6",
        "sum_i (-1)^i C(k,i) psi(x+i) = -(k-1)!/x^rising(k)  (sign fixed to "
        "match the k = 1 digamma recurrence)",
        (IntRange("k", 1, 10), RationalChoice("x", PSI_SAMPLES)),
        _one6_lhs,
        lambda v: CertifiedReal.from_exact(
            -factorial(v["k"] - 1) / rising_factorial(v["x"], v["k"])
        ),
        {"float"},
        mode="float",
        tol=1e-9,
    )


def _table1_rows():
    def _t1_123_lhs(v):
        return sum_series(
            lambda k: harmonic(k) / F(2) ** k,
            lambda K: (K + 2.0) / 2.0**K if K >= 1 else math.inf,
            2.5e-13,
        )

    _add(
        "t1-1.23",
        "Gould (1.23): sum_k H(k)/2^k = 2 ln 2",
        (),
        _t1_123_lhs,
        lambda v: CertifiedReal(2.0 * _LOG2, 4.0 * _ULP),
        {"table1", "float"},
        mode="float",
        tol=1e-12,
    )
    _add(
        "t1-1.41",
        "Gould (1.41): sum_k (-1)^(k-1) C(n,k)/k = H(n)",
        (IntRange("n", 1, 25),),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: (-1) ** (k - 1) * binomial_int(v["n"], k),
            lambda k: F(1, k),
        ),
        lambda v: harmonic(v["n"]),
        {"table1"},
    )
    _add(
        "t1-1.42",
        "Gould (1.42): sum_k (-1)^(k-1) C(n,k) H(k) = 1/n",
        (IntRange("n", 1, 25),),
        lambda v: _bsum(
            1, v["n"], lambda k: (-1) ** (k - 1) * binomial_int(v["n"], k), harmonic
        ),
        lambda v: F(1, v["n"]),
        {"table1"},
    )
    _add(
        "t1-1.44",
        "Gould (1.44): sum_k (-1)^(k-1) C(n+1,k+1) H(k) = H(n)",
        (IntRange("n", 1, 25),),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: (-1) ** (k - 1) * binomial_int(v["n"] + 1, k + 1),
            harmonic,
        ),
        lambda v: harmonic(v["n"]),
        {"table1"},
    )

    def _t1_216_lhs(v):
        partial = _bsum(1, 30, lambda k: F(1, factorial(k)), harmonic)
        tail = 2.0 / math.factorial(30)
        val = float(partial)
        return CertifiedReal(val, abs(val) * 4 * _ULP + tail)

    def _t1_216_rhs(v):
        partial = _bsum(
            1, 30, lambda k: (-1) ** (k - 1), lambda k: F(1, factorial(k) * k)
        )
        tail = math.e / (math.factorial(31) * 31)
        val = math.e * float(partial)
        return CertifiedReal(val, abs(val) * 6 * _ULP + tail)

    _add(
        "t1-2.16",
        "Gould (2.16): sum_k H(k)/k! = e sum_k (-1)^(k-1)/(k! k)",
        (),
        _t1_216_lhs,
        _t1_216_rhs,
        {"table1", "float"},
        mode="float",
        tol=1e-12,
    )
    _add(
        "t1-3.2",
        "Gould (3.2): sum_k C(r-2+n-k,n-k) H(k) = h(n,r)",
        (IntRange("n", 1, 25), IntRange("r", 1, 25)),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: binomial_int(v["r"] - 2 + v["n"] - k, v["n"] - k),
            harmonic,
        ),
        lambda v: hyperharmonic(v["n"], v["r"]),
        {"table1"},
    )
    _add(
        "t1-3.36",
        "Gould (3.36): 2 sum_{k=1..2n} (-1)^k H(k) = H(n)",
        (IntRange("n", 1, 25),),
        lambda v: _bsum(1, 2 * v["n"], lambda k: 2 * (-1) ** k, harmonic),
        lambda v: harmonic(v["n"]),
        {"table1"},
    )

    def _t1_395_lhs(v):
        n = v["n"]
        return _bsum(
            1,
            n,
            lambda k: (-1) ** k
            * binomial_int(2 * n - 2 * k, n - k)
            * binomial_int(2 * k, k),
            lambda k: F(1, k),
        )

    def _t1_395_rhs(hw):
        def rhs(v):
            n = v["n"]
            return F(4) ** n * (
                hw(n, F(1, 2))
                - binomial_general(F(n) - F(1, 2), n) * harmonic(n)
            )

        return rhs

    _add(
        "t1-3.95",
        "Gould (3.95): sum_k (-1)^k C(2n-2k,n-k) C(2k,k)/k = "
        "4^n (h(n,1/2) - C(n-1/2,n) H(n))",
        (IntRange("n", 1, 25),),
        _t1_395_lhs,
        _t1_395_rhs(hyperharmonic_rational_order),
        {"table1"},
        alt_rhs=_t1_395_rhs(hyperharmonic_half_integer_alt),
    )
    _add(
        "t1-3.100",
        "Gould (3.100): sum_k (-1)^k C(n+k,2k) C(2k,k)/k = -2 H(n)",
        (IntRange("n", 1, 25),),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: (-1) ** k
            * binomial_int(v["n"] + k, 2 * k)
            * binomial_int(2 * k, k),
            lambda k: F(1, k),
        ),
        lambda v: -2 * harmonic(v["n"]),
        {"table1"},
    )

    _add(
        "t1-3.108",
        "Gould (3.108): the (n,m)-symmetric binomial-harmonic double sum",
        (IntRange("n", 0, 25), IntRange("m", 0, 25)),
        lambda v: _t2_3108_side(v["n"], v["m"], 1),
        lambda v: _t2_3108_side(v["m"], v["n"], 1),
        {"table1"},
    )

    def _t1_43_lhs(v):
        n, x = v["n"], v["x"]
        return _bsum(
            1,
            n,
            lambda k: (-1) ** (k - 1) * binomial_int(n, k),
            lambda k: x**k * harmonic(k),
        )

    def _t1_43_rhs(v):
        n, x = v["n"], v["x"]
        return dot(
            [n] + [binomial_int(n, k) for k in range(1, n + 1)],
            [(1 - x) ** (n - 1)]
            + [(x - k) ** k * (1 - x + k) ** (n - k) / k for k in range(1, n + 1)],
        )

    _add(
        "t1-4.3",
        "Gould (4.3): alternating binomial x^k H(k) sum vs the "
        "(x-k)^k (1-x+k)^(n-k) form",
        (IntRange("n", 1, 20), RationalChoice("x", SAMPLE_RATIONALS)),
        _t1_43_lhs,
        _t1_43_rhs,
        {"table1"},
    )
    _add(
        "t1-6.19",
        "Gould (6.19): sum_k C(n,k) C(r,k) h(n+r,1-k) = H(n) + H(r)",
        (IntRange("n", 1, 25), IntRange("r", 1, 25)),
        lambda v: _bsum(
            0,
            v["n"],
            lambda k: binomial_int(v["n"], k) * binomial_int(v["r"], k),
            lambda k: _hz(v["n"] + v["r"], 1 - k),
        ),
        lambda v: harmonic(v["n"]) + harmonic(v["r"]),
        {"table1"},
    )
    _add(
        "t1-6.22",
        "Gould (6.22): sum_k (-1)^k C(2n,k) C(2n-k,n)^2/k = "
        "C(2n,n)(h(n,n+1) - C(2n,n) H(n))",
        (IntRange("n", 1, 25),),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: (-1) ** k
            * binomial_int(2 * v["n"], k)
            * binomial_int(2 * v["n"] - k, v["n"]) ** 2,
            lambda k: F(1, k),
        ),
        lambda v: binomial_int(2 * v["n"], v["n"])
        * (
            hyperharmonic(v["n"], v["n"] + 1)
            - binomial_int(2 * v["n"], v["n"]) * harmonic(v["n"])
        ),
        {"table1"},
    )
    _add(
        "t1-7.2",
        "Gould (7.2): sum_k C(n,k) C(r,k) H(k) = C(r+n,n) H(n) - h(n,r+1)",
        (IntRange("n", 1, 25), IntRange("r", 1, 25)),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: binomial_int(v["n"], k) * binomial_int(v["r"], k),
            harmonic,
        ),
        lambda v: binomial_int(v["r"] + v["n"], v["n"]) * harmonic(v["n"])
        - hyperharmonic(v["n"], v["r"] + 1),
        {"table1"},
    )

    def _t1_79_lhs(v):
        n = v["n"]
        return _bsum(
            1,
            n,
            lambda k: F(
                (-1) ** k * binomial_int(n, k) * 4**k,
                (2 * k + 1) * binomial_int(2 * k, k),
            ),
            harmonic,
        )

    def _t1_79_rhs(hw):
        def rhs(v):
            n = v["n"]
            return (
                F(4**n, 2 * n + 1) / binomial_int(2 * n, n) * hw(n, F(1, 2))
            )

        return rhs

    _add(
        "t1-7.9",
        "Gould (7.9): alternating central-binomial H(k) sum vs "
        "4^n h(n,1/2)/((2n+1) C(2n,n))",
        (IntRange("n", 1, 20),),
        _t1_79_lhs,
        _t1_79_rhs(hyperharmonic_rational_order),
        {"table1"},
        alt_rhs=_t1_79_rhs(hyperharmonic_half_integer_alt),
    )
    _add(
        "t1-7.13",
        "Gould (7.13): sum_k (-1)^(k-1) C(n,k) C(2n-k,n-k) H(k) = "
        "sum_k C(n,k)^2/k",
        (IntRange("n", 1, 25),),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: (-1) ** (k - 1)
            * binomial_int(v["n"], k)
            * binomial_int(2 * v["n"] - k, v["n"] - k),
            harmonic,
        ),
        lambda v: _bsum(
            1, v["n"], lambda k: binomial_int(v["n"], k) ** 2, lambda k: F(1, k)
        ),
        {"table1"},
    )
    _add(
        "t1-7.15",
        "Gould (7.15): sum_k C(n,k) C(r,k) (H(k)^2 + H(k,2)) in closed form",
        (IntRange("n", 1, 25), IntRange("r", 1, 25)),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: binomial_int(v["n"], k) * binomial_int(v["r"], k),
            lambda k: harmonic(k) ** 2 + gen_harmonic(k, 2),
        ),
        lambda v: binomial_int(v["r"] + v["n"], v["n"])
        * (
            gen_harmonic(v["n"], 2)
            - gen_harmonic(v["n"] + v["r"], 2)
            + gen_harmonic(v["r"], 2)
        )
        + (
            binomial_int(v["r"] + v["n"], v["n"]) * harmonic(v["n"])
            - hyperharmonic(v["n"], v["r"] + 1)
        )
        * (harmonic(v["n"]) - harmonic(v["n"] + v["r"]) + harmonic(v["r"])),
        {"table1"},
    )

    def _t1_129a_lhs(v):
        n, x = v["n"], v["x"]
        prefs, inners = [], []
        for k in range(n + 1):
            big = binomial_general(x + k + 1 + n, n)
            prefs.append(binomial_int(n, k) / binomial_general(x + k, k) / big)
            inners.append(
                (x + 2 * k + 1) / (x + k + 1) * (
                    harmonic(k) - _h_any_order(n, x + k + 2) / big
                ) - F(k) / (x + k + 1) ** 2
            )
        return dot(prefs, inners)

    _add(
        "t1-12.9a",
        "Gould (12.9), first form: the C(x+k,k)-weighted telescoping sum "
        "is zero",
        (IntRange("n", 1, 15), RationalChoice("x", SAMPLE_RATIONALS)),
        _t1_129a_lhs,
        lambda v: F(0),
        {"table1"},
    )

    def _t1_129b_lhs(v):
        n, y = v["n"], v["y"]
        prefs, inners = [], []
        for k in range(n + 1):
            big = binomial_general(y + k + 1 + n, n)
            prefs.append(binomial_int(n, k) * binomial_general(y + k, k) / big)
            inners.append(
                (y + 2 * k + 1) / (y + k + 1) * (
                    harmonic(k) + _h_any_order(n, y + k + 2) / big
                ) - F(k) / (y + k + 1) ** 2
            )
        return dot(prefs, inners)


    _add(
        "t1-12.9b",
        "Gould (12.9), second form: the C(y+k,k)-weighted telescoping sum "
        "equals H(n)",
        (IntRange("n", 1, 15), RationalChoice("y", SAMPLE_RATIONALS)),
        _t1_129b_lhs,
        lambda v: harmonic(v["n"]),
        {"table1"},
    )

    def _t1_z58_rhs(hw):
        def rhs(v):
            n = v["n"]
            return (
                F(4) ** n
                / binomial_int(2 * n, n)
                * (
                    binomial_general(F(n) - F(1, 2), n) * harmonic(n)
                    + hw(n, F(1, 2))
                )
            )

        return rhs

    _add(
        "t1-Z.58",
        "Gould (Z.58): H(2n) = 4^n (C(n-1/2,n) H(n) + h(n,1/2)) / C(2n,n)",
        (IntRange("n", 1, 20),),
        lambda v: harmonic(2 * v["n"]),
        _t1_z58_rhs(hyperharmonic_rational_order),
        {"table1"},
        alt_rhs=_t1_z58_rhs(hyperharmonic_half_integer_alt),
    )


def _table2_rows():
    def _t2_123_lhs(v):
        r = v["r"]
        return sum_series(
            lambda k: hyperharmonic(k, r) / F(2) ** k,
            lambda K: (
                4.0 * (K + 1 + r) ** r / 2.0 ** (K + 1)
                if K >= 2 * r
                else math.inf
            ),
            1e-10,
        )

    _add(
        "t2-1.23",
        "Gould (1.23), order-r form: sum_k h(k,r)/2^k = 2^r ln 2",
        (IntRange("r", 2, 4),),
        _t2_123_lhs,
        lambda v: CertifiedReal(2.0 ** v["r"] * _LOG2, 2.0 ** v["r"] * 4 * _ULP),
        {"table2", "float"},
        mode="float",
        tol=1e-9,
    )
    _add(
        "t2-1.41",
        "Gould (1.41), order-r form: sum_k (-1)^(k-1) C(n,k) k/(k+r-1)^2 = "
        "h(n,r)/C(r-1+n,n)^2",
        (IntRange("n", 1, 20), IntRange("r", 1, 12)),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: (-1) ** (k - 1) * binomial_int(v["n"], k) * k,
            lambda k: F(1, (k + v["r"] - 1) ** 2),
        ),
        lambda v: hyperharmonic(v["n"], v["r"])
        / binomial_int(v["r"] - 1 + v["n"], v["n"]) ** 2,
        {"table2"},
    )
    _add(
        "t2-1.42",
        "Gould (1.42), order-r form: sum_k (-1)^(k-1) C(n,k) "
        "h(k,r)/C(k+r-1,k)^2 = 1/(n+r-1)",
        (IntRange("n", 1, 20), IntRange("r", 1, 12)),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: (-1) ** (k - 1) * binomial_int(v["n"], k),
            lambda k: _h_over_c2(k, v["r"]),
        ),
        lambda v: F(1, v["n"] + v["r"] - 1),
        {"table2"},
    )
    _add(
        "t2-1.44",
        "Gould (1.44), order-r form: sum_k (-1)^(k-1) C(n+1,k+1) "
        "h(k,r)/C(r-1+k,k)^2 = sum_k k/(k+r-1)^2",
        (IntRange("n", 1, 20), IntRange("r", 1, 12)),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: (-1) ** (k - 1) * binomial_int(v["n"] + 1, k + 1),
            lambda k: _h_over_c2(k, v["r"]),
        ),
        lambda v: _bsum(
            1, v["n"], lambda k: k, lambda k: F(1, (k + v["r"] - 1) ** 2)
        ),
        {"table2"},
    )

    def _t2_216_lhs(v):
        r = v["r"]
        partial = _bsum(
            1,
            30,
            lambda k: F(1, binomial_int(r - 1 + k, k) ** 2 * factorial(k)),
            lambda k: hyperharmonic(k, r),
        )
        tail = 2.0 * float(31 + r) ** r / math.factorial(31)
        val = float(partial)
        return CertifiedReal(val, abs(val) * 4 * _ULP + tail)

    def _t2_216_rhs(v):
        r = v["r"]
        partial = _bsum(
            0, 30, lambda k: (-1) ** k, lambda k: F(1, (r + k) ** 2 * factorial(k))
        )
        tail = math.e / (float(r + 31) ** 2 * math.factorial(31))
        val = math.e * float(partial)
        return CertifiedReal(val, abs(val) * 6 * _ULP + tail)

    _add(
        "t2-2.16",
        "Gould (2.16), order-r form: sum_k h(k,r)/(C(r-1+k,k)^2 k!) = "
        "e sum_k (-1)^k/((r+k)^2 k!)",
        (IntRange("r", 1, 8),),
        _t2_216_lhs,
        _t2_216_rhs,
        {"table2", "float"},
        mode="float",
        tol=1e-9,
    )
    _add(
        "t2-3.2",
        "Gould (3.2), order-r form: sum_k C(r+n-k,n-k) h(k,r) = h(n,2r+1) "
        "(the printed superscript r+n+1 coincides only at n = r; the "
        "convolution of the generating functions fixes it to 2r+1)",
        (IntRange("n", 1, 20), IntRange("r", 1, 12)),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: binomial_int(v["r"] + v["n"] - k, v["n"] - k),
            lambda k: hyperharmonic(k, v["r"]),
        ),
        lambda v: hyperharmonic(v["n"], 2 * v["r"] + 1),
        {"table2"},
    )
    _add(
        "t2-3.36",
        "Gould (3.36), order-r form: 2 sum_{k<=2n} (-1)^k C(r-1+2n-k,2n-k) "
        "h(k,r) = h(n,r)",
        (IntRange("n", 1, 20), IntRange("r", 1, 12)),
        lambda v: _bsum(
            1,
            2 * v["n"],
            lambda k: 2
            * (-1) ** k
            * binomial_int(v["r"] - 1 + 2 * v["n"] - k, 2 * v["n"] - k),
            lambda k: hyperharmonic(k, v["r"]),
        ),
        lambda v: hyperharmonic(v["n"], v["r"]),
        {"table2"},
    )

    def _t2_395_lhs(v):
        n, r = v["n"], v["r"]
        return _bsum(
            1,
            n,
            lambda k: (-1) ** k
            * binomial_int(2 * n - 2 * k, n - k)
            * binomial_int(2 * k, k)
            * k,
            lambda k: F(1, (r - 1 + k) ** 2),
        )

    def _t2_395_rhs(hw):
        def rhs(v):
            n, r = v["n"], v["r"]
            c = binomial_int(r - 1 + n, n)
            return (
                F(4) ** n
                / c
                * (
                    hw(n, F(r) - F(1, 2))
                    - binomial_general(F(r) - F(3, 2) + n, n)
                    * hyperharmonic(n, r)
                    / c
                )
            )

        return rhs

    _add(
        "t2-3.95",
        "Gould (3.95), order-r form with the half-integer order r-1/2",
        (IntRange("n", 1, 15), IntRange("r", 2, 8)),
        _t2_395_lhs,
        _t2_395_rhs(hyperharmonic_rational_order),
        {"table2"},
        alt_rhs=_t2_395_rhs(hyperharmonic_half_integer_alt),
    )
    _add(
        "t2-3.100",
        "Gould (3.100), order-r form with the negative order r-n-1",
        (IntRange("n", 1, 20), IntRange("r", 2, 12)),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: (-1) ** k
            * binomial_int(v["n"] + k, 2 * k)
            * binomial_int(2 * k, k)
            * k,
            lambda k: F(1, (v["r"] - 1 + k) ** 2),
        ),
        lambda v: F((-1) ** v["n"])
        / binomial_int(v["r"] - 1 + v["n"], v["n"])
        * (
            _hz(v["n"], v["r"] - v["n"] - 1)
            - binomial_int(v["r"] - 2, v["n"])
            * hyperharmonic(v["n"], v["r"])
            / binomial_int(v["r"] - 1 + v["n"], v["n"])
        ),
        {"table2"},
    )

    _add(
        "t2-3.108",
        "Gould (3.108), order-r form of the (n,m)-symmetric double sum",
        (IntRange("n", 0, 20), IntRange("m", 0, 20), IntRange("r", 1, 8)),
        lambda v: _t2_3108_side(v["n"], v["m"], v["r"]),
        lambda v: _t2_3108_side(v["m"], v["n"], v["r"]),
        {"table2"},
    )

    def _t2_43_lhs(v):
        n, r, x = v["n"], v["r"], v["x"]
        u = x + r - 1

        def term(k):
            c = binomial_int(r - 1 + k, k)
            return u ** (k - 1) / c * (k - u * hyperharmonic(k, r) / c)

        return _bsum(1, n, lambda k: (-1) ** k * binomial_int(n, k), term)

    _add(
        "t2-4.3",
        "Gould (4.3), order-r form of the (x-k)^k (1-x+k)^(n-k) identity",
        (
            IntRange("n", 1, 15),
            IntRange("r", 1, 8),
            RationalChoice("x", SAMPLE_RATIONALS),
        ),
        _t2_43_lhs,
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: binomial_int(v["n"], k) * k,
            lambda k: (v["x"] - k) ** k
            * (1 - v["x"] + k) ** (v["n"] - k)
            / (v["r"] - 1 + k) ** 2,
        ),
        {"table2"},
    )
    _add(
        "t2-6.19",
        "Gould (6.19), order-j form: sum_k C(n,k) C(r,k) h(n+r,j-k) = "
        "h(r,j) C(n+j-1,n) + C(r+j-1,r) h(n,j)",
        (IntRange("n", 1, 20), IntRange("r", 1, 20), IntRange("j", 1, 12)),
        lambda v: _bsum(
            0,
            v["n"],
            lambda k: binomial_int(v["n"], k) * binomial_int(v["r"], k),
            lambda k: _hz(v["n"] + v["r"], v["j"] - k),
        ),
        lambda v: hyperharmonic(v["r"], v["j"])
        * binomial_int(v["n"] + v["j"] - 1, v["n"])
        + binomial_int(v["r"] + v["j"] - 1, v["r"])
        * hyperharmonic(v["n"], v["j"]),
        {"table2"},
    )
    _add(
        "t2-6.22",
        "Gould (6.22), order-r form",
        (IntRange("n", 1, 15), IntRange("r", 1, 8)),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: (-1) ** k
            * binomial_int(2 * v["n"], k)
            * binomial_int(2 * v["n"] - k, v["n"]) ** 2
            * k,
            lambda k: F(1, (v["r"] - 1 + k) ** 2),
        ),
        lambda v: F(
            binomial_int(2 * v["n"], v["n"]),
            binomial_int(v["r"] - 1 + v["n"], v["n"]),
        )
        * (
            hyperharmonic(v["n"], v["n"] + v["r"])
            - binomial_int(2 * v["n"] + v["r"] - 1, v["n"])
            * hyperharmonic(v["n"], v["r"])
            / binomial_int(v["r"] - 1 + v["n"], v["n"])
        ),
        {"table2"},
    )
    _add(
        "t2-7.2",
        "Gould (7.2), order-r form: sum_k C(n,k) C(m,k) h(k,r)/C(r-1+k,k)^2 "
        "in closed form",
        (IntRange("n", 1, 20), IntRange("m", 1, 20), IntRange("r", 1, 8)),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: binomial_int(v["n"], k) * binomial_int(v["m"], k),
            lambda k: _h_over_c2(k, v["r"]),
        ),
        lambda v: (
            binomial_int(v["r"] - 1 + v["m"] + v["n"], v["n"])
            * hyperharmonic(v["n"], v["r"])
            / binomial_int(v["r"] - 1 + v["n"], v["n"])
            - hyperharmonic(v["n"], v["m"] + v["r"])
        )
        / binomial_int(v["r"] - 1 + v["n"], v["n"]),
        {"table2"},
    )

    def _t2_79_lhs(v):
        n, r = v["n"], v["r"]
        return _bsum(
            1,
            n,
            lambda k: F(
                (-1) ** k * binomial_int(n, k) * 4**k,
                (2 * k + 1) * binomial_int(2 * k, k),
            ),
            lambda k: hyperharmonic(k, r),
        )

    def _t2_79_rhs(hw):
        def rhs(v):
            n, r = v["n"], v["r"]
            return (
                F(4**n, 2 * n + 1)
                / binomial_int(2 * n, n)
                * hw(n, F(r) - F(1, 2))
            )

        return rhs

    _add(
        "t2-7.9",
        "Gould (7.9), order-r form with the half-integer order r-1/2",
        (IntRange("n", 1, 15), IntRange("r", 2, 8)),
        _t2_79_lhs,
        _t2_79_rhs(hyperharmonic_rational_order),
        {"table2"},
        alt_rhs=_t2_79_rhs(hyperharmonic_half_integer_alt),
    )
    _add(
        "t2-7.13",
        "Gould (7.13), order-j form with the negative upper index C(-n-1,n-k)",
        (IntRange("n", 1, 20), IntRange("j", 1, 12)),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: binomial_int(v["n"], k) * binomial_int(-v["n"] - 1, v["n"] - k),
            lambda k: _h_over_c2(k, v["j"]),
        ),
        lambda v: _bsum(
            1,
            v["n"],
            lambda k: (-1) ** (v["n"] + 1) * binomial_int(v["n"], k) ** 2 * k,
            lambda k: F(1, (k + v["j"] - 1) ** 2),
        ),
        {"table2"},
    )

    def _gould_hypergeom_row(n, r, upper):
        # d/dj F(upper, 1/2, n+r+j; 4) at j = 0, term by term: the k-th
        # coefficient rising(upper,k) rising(1/2,k) 4^k / k! multiplies the
        # derivative of the reciprocal rising factorial of (n+r).
        return _bsum(
            1,
            -upper,
            lambda k: rising_factorial(upper, k)
            * rising_factorial(F(1, 2), k)
            * 4**k
            / factorial(k),
            lambda k: dx_reciprocal_rising(n + r, k),
        )

    def _gould_hypergeom_rhs(n, r, m):
        return _bsum(
            1,
            m,
            lambda k: (-1) ** (k + 1) * binomial_int(m, k) * binomial_int(2 * k, k),
            lambda k: _h_over_c2(k, n + r),
        )

    _add(
        "t2-7.29",
        "Gould (7.29): d/dj F(-2n,1/2,n+j+r;4) at 0 equals the alternating "
        "C(2n,k) C(2k,k) h(k,n+r) sum",
        (IntRange("n", 1, 12), IntRange("r", 1, 12)),
        lambda v: _gould_hypergeom_row(v["n"], v["r"], -2 * v["n"]),
        lambda v: _gould_hypergeom_rhs(v["n"], v["r"], 2 * v["n"]),
        {"table2"},
    )
    _add(
        "t2-7.30",
        "Gould (7.30): d/dj F(-2n-1,1/2,n+j+r;4) at 0 equals the "
        "alternating C(2n+1,k) C(2k,k) h(k,n+r) sum",
        (IntRange("n", 1, 12), IntRange("r", 1, 12)),
        lambda v: _gould_hypergeom_row(v["n"], v["r"], -(2 * v["n"] + 1)),
        lambda v: _gould_hypergeom_rhs(v["n"], v["r"], 2 * v["n"] + 1),
        {"table2"},
    )

    def _t2_129a_lhs(v):
        n, r, x = v["n"], v["r"], v["x"]
        prefs, inners = [], []
        for k in range(n + 1):
            big = binomial_general(x + r + k + n, n)
            c = binomial_int(r - 1 + k, k)
            prefs.append(binomial_int(n, k) / binomial_general(x + k, k) / big * c)
            ratio = (x + r + 2 * k) / (x + r + k)
            inners.append(
                ratio * hyperharmonic(k, r) / c
                - ratio * _h_any_order(n, x + k + r + 1) / big
                - F(k) / (x + r + k) ** 2
            )
        return dot(prefs, inners)

    _add(
        "t2-12.9a",
        "Gould (12.9), first order-r form: the weighted telescoping sum is "
        "zero",
        (
            IntRange("n", 1, 10),
            IntRange("r", 1, 6),
            RationalChoice("x", SAMPLE_RATIONALS),
        ),
        _t2_129a_lhs,
        lambda v: F(0),
        {"table2"},
    )

    def _t2_129b_lhs(v):
        n, r, y = v["n"], v["r"], v["y"]
        prefs, inners = [], []
        for k in range(n + 1):
            big = binomial_general(r + y + k + n, n)
            c = binomial_int(r - 1 + k, k)
            prefs.append(binomial_int(n, k) * binomial_general(y + k, k) / big / c)
            ratio = (r + y + 2 * k) / (r + y + k)
            inners.append(
                ratio * hyperharmonic(k, r) / c
                + ratio * _h_any_order(n, y + k + r + 1) / big
                + F(k) / (r + y + k) ** 2
            )
        return dot(prefs, inners)


    _add(
        "t2-12.9b",
        "Gould (12.9), second order-r form: the weighted telescoping sum "
        "equals h(n,r)/C(r-1+n,n)^2",
        (
            IntRange("n", 1, 10),
            IntRange("r", 1, 6),
            RationalChoice("y", SAMPLE_RATIONALS),
        ),
        _t2_129b_lhs,
        lambda v: hyperharmonic(v["n"], v["r"])
        / binomial_int(v["r"] - 1 + v["n"], v["n"]) ** 2,
        {"table2"},
    )

    def _t2_z58_rhs(hw):
        def rhs(v):
            n, r = v["n"], v["r"]
            return F(4) ** n * (
                binomial_general(F(n) + r - F(3, 2), n) * hyperharmonic(n, r)
                + binomial_int(n + r - 1, n) * hw(n, F(r) - F(1, 2))
            )

        return rhs

    _add(
        "t2-Z.58",
        "Gould (Z.58), order-r form: C(2n,n) h(2n,2r-1) = "
        "4^n (C(n+r-3/2,n) h(n,r) + C(n+r-1,n) h(n,r-1/2))",
        (IntRange("n", 1, 15), IntRange("r", 1, 8)),
        lambda v: binomial_int(2 * v["n"], v["n"])
        * hyperharmonic(2 * v["n"], 2 * v["r"] - 1),
        _t2_z58_rhs(hyperharmonic_rational_order),
        {"table2"},
        alt_rhs=_t2_z58_rhs(hyperharmonic_half_integer_alt),
    )


_core_recurrences()
_core_derivatives()
_core_differences()
_core_negative_orders()
_core_fibonacci()
_float_rows()
_table1_rows()
_table2_rows()
