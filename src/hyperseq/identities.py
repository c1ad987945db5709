"""Registry of verifiable identities and the audit engine.

Each :class:`Identity` is a claim: two evaluators over a declared
finite parameter domain, compared exactly: by rational equality, or, on
a ``float`` row, by whether the two certified balls (a float centre and
an error radius) overlap, tested on the floats' exact rational values.
An exact side that is not exactly an ``int`` or ``Fraction`` (a float,
a bool, a ``Decimal``, a subclass), or a float side that is not exactly
a ``CertifiedReal`` (a bare float, an int), is a bug in its evaluator
and raises ``TypeError``; it is never compared by ``==``.
The radii alone decide a float verdict; there is no tolerance, and a
ball with a non-finite centre or radius fails.  ``verify`` checks one
identity, ``run_suite`` a tagged subset, one family of rows after
another, and reports them in key order.  Failures are first-class data
recorded as counterexamples, never exceptions, because part of the point
of the audit is to document table rows that do not balance as printed.  A report passes only when every
row is PASS: a row with no tested case (SKIPPED) proves nothing.

Every evaluator (``lhs``, ``rhs``, ``valid``, a reading's right side)
takes its row's declared parameters first, in declared order,
``lambda n, r: ...``, and ``_add`` refuses one that does not; the engine
calls it with a case's values by position and builds no dict per case.
Rows are written over one vocabulary, so that each reads like its
anchor: ``h(n, w)`` at any order (integer of either sign, or rational),
``H``/``Hm`` (harmonic and generalized harmonic numbers), ``C``
(integer binomial), ``Cg`` (generalized binomial), ``rising`` and
``falling`` factorials, and two sums: ``line_sum`` (a coefficient-weighted
line of one function along one argument, such as the k-th difference
form) and ``product_sum`` (the sum of prod(up)/prod(down) over (up, down)
terms, for every other side that would multiply, divide and add
``Fraction``s term by term: its factors' integer ratios are multiplied
and the side builds one ``Fraction``).  A
row divides through ``quot`` wherever its divisor can vanish, and checks
such a ``product_sum`` divisor with ``_nonzero`` first, so a pole is a
``DomainError``: the case is skipped and counted with its reason.  A
``valid`` filter drops cases uncounted, so a row has one only where its
region is not a product grid; a row whose domain is a grid declares it
in its axes (``eq-pd``'s z axis leaves out its rhs's pole at 0).  Every
piece a row would rebuild case after case across an axis it does not
read is memoized for that row's family only, keyed on exactly the
parameters it reads: a row of coefficients free of one parameter, always
a tuple so no case can change it (``_c_pair_row``, ``_c_up_row``,
``_c_row``, ``_gould43_row``), and a generating series built once per r
(``_gf_series``).  A piece memo takes a rational x as its integer pair,
which its row reads once per case (``_gould43_power``, ``_t2_129_k``,
``_t2_129_n``, ``_hyp_twice``).  A piece keeps each case's first
exception: a case reads term k's pieces at term k, as the per-term sum
did, a piece that raises is not stored, and a division it hoists goes
through ``quot``, after the row's own pole checks.  A ``line_sum`` reads
the row's line of its function: the values read so far, through the
function itself, as integers over one common denominator, so the sum is
one integer dot product; a function read only along a line (``_h_over_c2``,
``_t2_43_term``) needs no memo of its own.  Nothing in a line or a memo
assumes an identity, and every case still sums its own terms.
``verify`` runs each row in ``row_scope()``, and ``run_suite`` each family
of rows in one more around it: a pinned row with its source, and the
``t1-``/``t2-`` rows of one Gould identity.  The outermost scope empties
the row memos and the lines when it ends, even when a row raises, so a
family's later rows read the pieces its earlier ones built, and the memos
hold at most one family's working set.  ``h`` alone is memoized for the
process, since the rows repeat each other's h values.

Table rows keep the summation numbering of Gould's "Combinatorial
Identities" tables they were derived from (ids ``t1-*``/``t2-*``); the
``core`` tag covers the recurrence/operator/difference identities, and
``float`` the transcendental ones, whose sides are ``CertifiedReal``
balls built only from ``analytic``'s balls, arithmetic and ``sum_series``
(with exact-rational tails): no row sets a radius of its own.

Harmonic numbers are the hyperharmonic numbers of order one, H(n) =
h(n, 1), so no identity is written twice: ``_pinned_rows`` registers a
row that is another row at a pinned parameter as that row, with its own
key, anchor, grid and tags and the source's evaluators.  Fourteen are
their source at order one; ``eq-hrp`` and ``cor-son4`` are ``t2-1.41``
and ``t2-1.42`` at r = 1, and ``cor-nf`` is ``prop-one2`` at n = 0.
``t1-12.9b`` is ``t2-12.9b``'s lhs at r = 1 with the sign of one term
as printed.  Rows stay written out whose printed value differs from
their twin's (``t1-3.100``, ``t1-4.3``, ``t1-7.13``, ``t1-Z.58``; the
tests pin how), whose closed form the paper derives (``cor-bih``,
``cor-lower``, ``cor-e``), or whose lhs ball pinning would widen
(``t1-1.23``).

Half-integer hyperharmonic orders default to the exact digamma-telescoped
evaluation, read through the memoized ``h`` like every other order.
A row whose verdict depends on that convention is one row function with
a keyword ``hw=h``, and carries one further reading, ``"alternative"``:
the same function called with ``hw=h_alt``
(:func:`hyperseq.sequences.hyperharmonic_half_integer_alt`).  A row's
``readings`` are ``(name, rhs)`` pairs, each checked against the row's
left side and reported under its name.  ``verify`` evaluates each case's
lhs once, then every right side in one loop, the printed rhs first.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import operator
import time
from fractions import Fraction
from typing import Union

from ._records import record
from .analytic import CertifiedReal, as_certified, digamma, exp_ball, ln2, sum_series
from .analytic import delta_hyperbolic_closed_form
from .errors import DomainError
from . import exactnum
from .exactnum import binomial_general as Cg
from .exactnum import binomial_int as C
from .exactnum import derivative_at_zero as dx0
from .exactnum import factorial, format_rational, product_sum, reduced
from .exactnum import signed_binomial_row
from .exactnum import falling_factorial as falling
from .exactnum import rising_factorial as rising
from .opcalc import (
    dx_reciprocal_rising,
    forward_difference,
    gf_alpha,
    gf_beta,
    gf_hyperharmonic,
    leaping_binomial,
)
from .sequences import (
    alpha,
    beta,
    fibonacci,
    hyperharmonic,
    hyperharmonic_half_integer_alt as h_alt,
    hyperharmonic_neg,
    hyperharmonic_rational_order,
)
from .sequences import gen_harmonic as Hm
from .sequences import harmonic as H

F = Fraction

#: The scalar type evaluators produce: exact rational or certified float.
SequenceValue = Union[Fraction, CertifiedReal]

#: Fixed reproducible sample list for identities with a free rational
#: parameter.  It holds no negative integer, and 0, a pole of ``eq-pd``'s
#: rhs, is left out of that row's axis, so no default case meets a pole;
#: a pinned pole is a counted ``DomainError`` skip.
SAMPLE_RATIONALS = (F(0), F(1), reduced(1, 2), reduced(-1, 3), reduced(5, 2), F(3))

#: Nine-point grid on [-2, 2] for the hyperbolic difference rows.
HYPERBOLIC_GRID = tuple(reduced(i, 2) for i in range(-4, 5))

#: Digamma-difference sample arguments.
PSI_SAMPLES = (F(1), reduced(1, 2), reduced(3, 2), F(5))


# --------------------------------------------------------------------------
# Parameter domains and identity records
# --------------------------------------------------------------------------


class IntRange(record("IntRange", ("name", "lo", "hi"))):
    """An integer parameter running over lo..hi inclusive; immutable."""

    __slots__ = ()


class RationalChoice(record("RationalChoice", ("name", "values"))):
    """A rational parameter sampled from a fixed tuple; immutable."""

    __slots__ = ()


class Identity(
    record(
        "Identity",
        (
            "key", "anchor", "params", "lhs", "rhs", "tags", "valid", "readings",
        ),
        {"valid": None, "readings": ()},
    )
):
    """One registry row: two evaluators over a parameter domain; immutable.

    ``params`` is a tuple of :class:`IntRange`/:class:`RationalChoice`;
    ``lhs``/``rhs`` take the parameters' values positionally, in that
    order, and return a value.
    ``valid`` filters assignments; ``readings`` is a tuple of ``(name,
    rhs)`` pairs, each a further right side checked against ``lhs`` and
    reported under its name.  ``mode`` follows from the tags: a
    ``float`` row's sides are ``CertifiedReal`` balls, every other row's
    are exact rationals.
    """

    __slots__ = ()

    @property
    def mode(self) -> str:
        return "float" if "float" in self.tags else "exact"


class ConventionResult(
    record(
        "ConventionResult",
        ("verdict", "tested", "skipped", "counterexamples", "skip_reasons"),
        {"skip_reasons": ()},
    )
):
    """The verdict of one row under one of its further readings, with
    the reasons of its first few skips."""

    __slots__ = ()


def _verdict_json(result) -> dict:
    """The verdict fields of a report or a reading's result, as JSON writes
    them: ``skip_reasons`` only when there are any."""
    obj = {
        "verdict": result.verdict,
        "tested": result.tested,
        "skipped": result.skipped,
        "counterexamples": result.counterexamples,
    }
    if result.skip_reasons:
        obj["skip_reasons"] = result.skip_reasons
    return obj


class IdentityReport(
    record(
        "IdentityReport",
        (
            "key", "anchor", "mode", "verdict", "tested", "skipped", "failed",
            "counterexamples", "skip_reasons", "readings", "elapsed",
        ),
        {"skip_reasons": (), "readings": (), "elapsed": 0.0},
    )
):
    """The outcome of verifying one row: ``failed`` counts every failing
    case, ``counterexamples`` keeps the first few, and ``readings`` pairs
    each further reading's name with its :class:`ConventionResult`."""

    __slots__ = ()

    def to_json_obj(self) -> dict:
        obj = {
            "identity_id": self.key,
            "anchor": self.anchor,
            "mode": self.mode,
            **_verdict_json(self),
        }
        for name, result in self.readings:
            obj[name] = _verdict_json(result)
        return obj


class AuditReport(record("AuditReport", ("entries",))):
    """The reports of an audit's rows, in key order."""

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        """Every row is PASS; a report with no rows checked nothing, so fails."""
        return bool(self.entries) and all(e.verdict == "PASS" for e in self.entries)

    def counts(self) -> dict:
        out = {"PASS": 0, "FAIL": 0, "SKIPPED": 0}
        for e in self.entries:
            out[e.verdict] += 1
        return out

    def to_json(self) -> str:
        return json.dumps(
            [e.to_json_obj() for e in self.entries], indent=2, allow_nan=False
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
            alternative = dict(e.readings).get("alternative")
            writer.writerow(
                [
                    e.key,
                    e.mode,
                    e.verdict,
                    e.tested,
                    e.skipped,
                    len(e.counterexamples),
                    alternative.verdict if alternative else "",
                ]
            )
        return buf.getvalue()

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            alternative = dict(e.readings).get("alternative")
            extra = f"  [alt: {alternative.verdict}]" if alternative else ""
            lines.append(
                f"{e.key:<16} {e.verdict:<7} tested={e.tested} "
                f"skipped={e.skipped} fails={e.failed} "
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
    return v.to_json_obj() if type(v) is CertifiedReal else format_rational(v)


def _render_params(identity, vals) -> dict:
    return {
        p.name: (value if isinstance(value, int) else format_rational(value))
        for p, value in zip(identity.params, vals)
    }


def _axis_values(p, max_bound, param_bounds):
    """The values parameter ``p`` runs over.

    An override never goes below the row's own lower bound, and an
    integer axis takes only integral values: a rational pin that is not
    an integer leaves the axis empty.  ``max_bound`` and a
    ``(None, cap)`` override clamp only the top.
    """
    override = (param_bounds or {}).get(p.name)
    if isinstance(p, IntRange):
        lo, hi = p.lo, p.hi
        if isinstance(override, F):
            if override.denominator != 1:
                return ()
            override = override.numerator
        if isinstance(override, int):
            override = (override, override)
        if override is not None and override[0] is not None:
            lo, hi = override
        else:
            if override is not None:
                hi = min(hi, override[1])
            if max_bound is not None:
                hi = min(hi, max_bound)
        return range(max(lo, p.lo), hi + 1)
    return p.values if override is None else (F(override),)


def _cases(identity, max_bound, param_bounds):
    """A row's cases in grid order, each a tuple of values in the order of
    the row's parameters: every point of the axes' product that ``valid``
    keeps.  ``valid`` sees a point just before its case runs."""
    axes = [_axis_values(p, max_bound, param_bounds) for p in identity.params]
    grid = itertools.product(*axes)
    if identity.valid is None:
        return grid
    kept = itertools.starmap(identity.valid, itertools.product(*axes))
    return itertools.compress(grid, kept)


_EXACT_TYPES = (int, Fraction)


def _values_agree(exact, lv, rv) -> bool:
    if exact:
        # Reduced int/Fraction pairs are equal iff their integer ratios
        # are; that skips the ``Rational`` check in ``Fraction.__eq__``.
        if type(lv) in _EXACT_TYPES and type(rv) in _EXACT_TYPES:
            return lv.as_integer_ratio() == rv.as_integer_ratio()
        side = lv if type(lv) not in _EXACT_TYPES else rv
        raise TypeError(f"an exact side is {type(side).__name__}, not int or Fraction")
    if type(lv) is not CertifiedReal or type(rv) is not CertifiedReal:
        side = lv if type(lv) is not CertifiedReal else rv
        raise TypeError(f"a float side is {type(side).__name__}, not CertifiedReal")
    # Two balls agree iff they overlap, tested on the floats' exact values.
    # A non-finite centre or radius has no rational value and fails.
    ends = (lv.value, rv.value, lv.abs_error_bound, rv.abs_error_bound)
    if not all(map(math.isfinite, ends)):
        return False
    gap = abs(F(lv.value) - F(rv.value))
    return gap <= F(lv.abs_error_bound) + F(rv.abs_error_bound)


def verify(
    key: str,
    *,
    max_bound: int | None = None,
    param_bounds: dict | None = None,
    counterexample_cap: int = 5,
) -> IdentityReport:
    """Check one registered identity over its (possibly overridden) domain.

    Each case runs the lhs once, then each right side in turn: the
    printed rhs first, then each reading's, each called with the case's
    values in parameter order.  A right side that raises ``DomainError``
    skips the case under its reading only; an lhs that raises skips it
    under every reading, and no right side runs.  Equal exact sides pass
    inline; every other outcome settles through ``settle``.
    """
    identity = get_identity(key)
    lhs = identity.lhs
    # (index, side) pairs, the rhs first, built once per row, not per case
    sides = tuple(enumerate((identity.rhs, *(side for _, side in identity.readings))))
    exact = identity.mode == "exact"
    # the types whose equal sides pass inline; a float row's never do
    inline = _EXACT_TYPES if exact else ()
    start = time.monotonic()
    # the cases run and, per right side, the rhs first: cases skipped and
    # failed, and the first counterexamples
    cases, skipped, failed = 0, [0] * len(sides), [0] * len(sides)
    examples = [[] for _ in sides]
    reasons = [[] for _ in sides]  # the first skips

    def settle(i, vals, lv, rv):
        if isinstance(rv, DomainError):
            skipped[i] += 1
            if len(reasons[i]) < 3:
                reasons[i].append({"params": _render_params(identity, vals), "reason": str(rv)})
        elif not _values_agree(exact, lv, rv):
            failed[i] += 1
            if len(examples[i]) < counterexample_cap:
                examples[i].append(
                    {
                        "params": _render_params(identity, vals),
                        "lhs": _render_value(lv),
                        "rhs": _render_value(rv),
                    }
                )

    with row_scope():
        for vals in _cases(identity, max_bound, param_bounds):
            cases += 1
            try:
                lv = lhs(*vals)
            except DomainError as exc:
                for i, _ in sides:
                    settle(i, vals, exc, exc)
                continue
            for i, side in sides:
                try:
                    rv = side(*vals)
                except DomainError as exc:
                    rv = exc
                if not (type(lv) in inline and type(rv) in inline
                        and lv.as_integer_ratio() == rv.as_integer_ratio()):
                    settle(i, vals, lv, rv)

    def result(i):
        tested = cases - skipped[i]
        verdict = "FAIL" if failed[i] else "PASS" if tested else "SKIPPED"
        return ConventionResult(verdict, tested, skipped[i], examples[i], reasons[i])

    main = result(0)
    return IdentityReport(
        key=identity.key,
        anchor=identity.anchor,
        mode=identity.mode,
        verdict=main.verdict,
        tested=main.tested,
        skipped=main.skipped,
        failed=failed[0],
        counterexamples=main.counterexamples,
        skip_reasons=main.skip_reasons,
        readings=tuple((name, result(i)) for i, (name, _) in enumerate(identity.readings, 1)),
        elapsed=time.monotonic() - start,
    )


def run_suite(
    tags=frozenset(),
    *,
    only=None,
    max_bound: int | None = None,
    param_bounds: dict | None = None,
    counterexample_cap: int = 5,
) -> AuditReport:
    """Run the identities ``select(tags, only)`` picks, each family of them
    back to back in one ``row_scope()``, and report them in key order.

    A family's rows read the same row memos (see ``_family``), so a later
    row reads the pieces an earlier one built.
    """
    keys = select(tags, only)
    families: dict = {}
    for key in keys:
        families.setdefault(_family(key), []).append(key)
    reports = {}
    for family in families.values():
        with row_scope():
            for key in family:
                reports[key] = verify(
                    key,
                    max_bound=max_bound,
                    param_bounds=param_bounds,
                    counterexample_cap=counterexample_cap,
                )
    return AuditReport([reports[key] for key in keys])


def _family(key: str) -> str:
    """The family ``run_suite`` runs ``key`` in: a pinned row's source's,
    a Gould table row's number without its form letter (``t1-12.9b`` and
    ``t2-12.9a`` are ``12.9``), and any other row's own key."""
    key = _PINNED_SOURCE.get(key, key)
    if key.startswith(("t1-", "t2-")):
        return key[3:].rstrip("ab")
    return key


# --------------------------------------------------------------------------
# The row vocabulary
# --------------------------------------------------------------------------


#: Every row-scoped memo; the outermost ``row_scope`` empties them all.
_ROW_MEMOS: list = []
_scope_depth = 0


@contextlib.contextmanager
def row_scope():
    """Evaluate rows' cases; the outermost scope empties every row memo on
    exit, even on error, and a nested one leaves them to it.

    ``verify`` runs each row in one, and ``run_suite`` each family of rows;
    so should any caller that evaluates ``lhs``/``rhs`` directly, or the
    memos keep those rows' values.
    """
    global _scope_depth
    _scope_depth += 1
    try:
        yield
    finally:
        _scope_depth -= 1
        if not _scope_depth:  # hold at most one family's working set
            for memo in _ROW_MEMOS:
                memo.cache_clear()


def _row_memo(fn):
    """Memoize ``fn`` for the duration of one family of audit rows.

    A row evaluates the same h(n, r), binomial and oracle values case
    after case, and so does its family's next row; between families the
    values mostly differ, so holding them
    for the life of the process would only grow memory.  The keys are
    typed, so a float argument never reads the entry an equal int or
    ``Fraction`` filled; a cold one reaches ``fn``, so a function of a
    rational refuses it through ``exactnum._ratio``.
    """
    memo = functools.lru_cache(maxsize=None, typed=True)(fn)
    _ROW_MEMOS.append(memo)
    return memo


@functools.lru_cache(maxsize=4096, typed=True)
def h(n: int, w) -> Fraction:
    """h(n, w) at any order: an integer of either sign, or a rational.

    Integer orders w >= 0 are :func:`hyperharmonic`, negative ones
    :func:`hyperharmonic_neg` at -w, and every other rational the
    digamma-telescoped :func:`hyperharmonic_rational_order`.  An order
    that is not an int or ``Fraction`` is a ``TypeError`` naming ``h``; an
    index that is not an int, one naming the kernel it reaches.

    The one cache of h values, kept for the process since rows repeat
    each other's (one full audit: 2,936 misses, 58,897 hits; a
    ``line_sum`` reads each point once per family).  It is typed, so 0.5
    never reads the entry that ``F(1, 2)`` filled.
    """
    p, q = exactnum._ratio(w, "h")
    if q != 1:
        return hyperharmonic_rational_order(n, w)
    if p >= 0:
        return hyperharmonic(n, p)
    return hyperharmonic_neg(n, -p)


@_row_memo
def _line(fn, axis, *fixed) -> list:
    """The row's line of ``fn`` along argument ``axis``, the others ``fixed``.

    It is ``[nums, d]``: ``nums[p] / d`` is ``fn`` at point p of the axis,
    for each point read so far, over one common denominator d.
    """
    return [{}, 1]


def _grow(line, fn, axis, args) -> None:
    """Add to ``line`` the points of ``args[axis]`` it lacks, in range order.

    Each value is read through ``fn``, so the first point that raises does
    so as in the per-term sum, and nothing is added.
    """
    nums, d = line
    args = list(args)
    new = []
    for p in args[axis]:
        if p not in nums:
            args[axis] = p
            new.append((p, *exactnum._ratio(fn(*args), "line_sum")))
    scale = math.lcm(d, *[q for _, _, q in new])
    if scale != d:
        line[0] = nums = {p: v * (scale // d) for p, v in nums.items()}
        line[1] = scale
    for p, v, q in new:
        nums[p] = v * (scale // q)


def line_sum(coeffs, fn, *args) -> Fraction:
    """sum_j coeffs[j] fn(args with the one ``range`` in them at its j-th point).

    The sum is read off the row's line of ``fn`` along that axis: the
    values as integers over one denominator, so with int ``coeffs`` it is
    one integer dot product and one ``Fraction``.  Every case still sums
    its own terms.
    """
    axis = -1
    for i, a in enumerate(args):  # one pass, no list: 46,514 calls an audit
        if type(a) is range:
            axis = i if axis == -1 else -2  # -2: a second range
    if axis < 0:
        raise TypeError("line_sum needs exactly one range argument")
    points = args[axis]
    if len(coeffs) != len(points):
        raise ValueError("line_sum needs one coefficient per point")
    line = _line(fn, axis, *args[:axis], *args[axis + 1:])
    try:
        total = sum(map(operator.mul, coeffs, map(line[0].__getitem__, points)))
    except KeyError:
        _grow(line, fn, axis, args)
        total = sum(map(operator.mul, coeffs, map(line[0].__getitem__, points)))
    d = line[1]
    if type(total) is not int:  # a Fraction coefficient; a float one is refused
        total, q = exactnum._ratio(total, "line_sum")
        d *= q
    return reduced(total, d)


def quot(a, b) -> Fraction:
    """a / b, a ``Fraction`` for two ints too; b = 0 is a pole of the row,
    so a ``DomainError`` skips the case.

    Two ints or ``Fraction``s divide as integer pairs, in one ``reduced``.
    """
    if isinstance(a, _EXACT_TYPES) and isinstance(b, _EXACT_TYPES):
        s, t = b.as_integer_ratio()
        p, q = a.as_integer_ratio()
        return reduced(p * t, q * _nonzero(s))
    return a / _nonzero(b)


def _nonzero(b):
    """b, unless it is 0: a divisor's pole, as in ``quot``."""
    if b == 0:
        raise DomainError("pole: division by zero")
    return b


def _part(parts, part):
    """``parts[part]`` of a multi-part row; a part it lacks is a ``DomainError``."""
    if not 0 <= part < len(parts):
        raise DomainError(f"no part {part}: the row has parts 0..{len(parts) - 1}")
    return parts[part]


@_row_memo
def _gf_series(gf, r: int, order: int):
    return gf(r, order)


def _gf_coeff(gf, r: int, n: int, block: int = 64) -> Fraction:
    order = block * max(1, (n + block - 1) // block)  # n rounded up to a block
    return _gf_series(gf, r, order).coeff(n)


@_row_memo
def _c_pair_row(n: int, m: int, lo: int) -> tuple:
    """C(n, k) C(m, k), k = lo..n: Gould (6.19)'s weights free of j, (7.2)'s of r."""
    return tuple(C(n, k) * C(m, k) for k in range(lo, n + 1))


@_row_memo
def _c_up_row(s: int, n: int) -> tuple:
    """C(k+s, k), k = 0..n: ``prop-falling``'s and (3.108)'s weights, free of m."""
    return tuple(C(k + s, k) for k in range(n + 1))


@_row_memo
def _c_row(n: int, sign: int) -> tuple:
    """sign^k C(n, k) for k = 1..n: Gould (4.3)'s weights, free of x."""
    return tuple(sign**k * C(n, k) for k in range(1, n + 1))


#: falling(r, m), the ``prop-falling`` rhs divisor free of n.
_falling = _row_memo(falling)


def _h_over_c2(k: int, r: int) -> Fraction:
    """h(k, r) / C(r-1+k, k)^2, a function of (k, r) alone."""
    p, q = h(k, r).as_integer_ratio()
    return reduced(p, q * C(r - 1 + k, k) ** 2)


@_row_memo
def _t2_3108_side(n: int, m: int, r: int) -> Fraction:
    """One side of Gould (3.108) at order r; ``t1-3.108`` pins it to r = 1."""
    return (line_sum([C(k + r + m, m) for k in range(n + 1)], h, range(n + 1), r)
            + line_sum(_c_up_row(r - 1, n), h, m, range(r + 1, n + r + 2)))


def _recip(j: int, m: int) -> Fraction:
    """1/j^m, the term of the order-m harmonic sums."""
    return reduced(1, j**m)


def _inv_falling(x: int, m: int) -> Fraction:
    """1 / (x falling m), the ``prop-falling`` term."""
    return quot(1, falling(x, m))


def _gould43_num(p: int, q: int, n: int, k: int) -> int:
    """q^n (x-k)^k (1-x+k)^(n-k) at x = p/q, for 0 <= k <= n."""
    return (p - k * q) ** k * (q - p + k * q) ** (n - k)


@_row_memo
def _gould43_power(p: int, q: int, n: int) -> tuple:
    """(x-k)^k (1-x+k)^(n-k) at x = p/q for k = 1..n, the Gould (4.3) powers;
    free of the order r."""
    return tuple(reduced(_gould43_num(p, q, n, k), q**n) for k in range(1, n + 1))


def _t2_43_term(x, k: int, r: int) -> Fraction:
    """u^(k-1)/c (k - u h(k, r)/c), u = x+r-1, c = C(r-1+k, k): term k >= 1 of the
    order-r Gould (4.3) lhs, free of n."""
    p, q = exactnum._ratio(x, "_t2_43_term")
    a, c = p + (r - 1) * q, C(r - 1 + k, k)  # u = a/q
    return product_sum([((k, a ** (k - 1)), (q ** (k - 1), c)),
                        ((-1, a**k, h(k, r)), (q**k, c, c))])


@_row_memo
def _gould43_row(n: int, r: int) -> tuple:
    """C(n, k) k/(r-1+k)^2 for k = 1..n, the Gould (4.3) rhs weights; free of x."""
    return tuple(reduced(C(n, k) * k, (r - 1 + k) ** 2) for k in range(1, n + 1))


def _h_sq_plus_h2(k: int) -> Fraction:
    """H(k)^2 + H(k; 2), the Gould (7.15) term."""
    return H(k) ** 2 + Hm(k, 2)


@_row_memo
def _gould_coeff(upper: int, k: int) -> Fraction:
    """rising(upper, k) rising(1/2, k) 4^k / k!, Gould (7.29)/(7.30)'s k-th
    hypergeometric coefficient; free of r."""
    return product_sum([((rising(upper, k), rising(reduced(1, 2), k), 4**k), (factorial(k),))])


#: d/dj 1/rising(c + j, k) at j = 0, memoized per row for Gould (7.29)/(7.30).
_dx_reciprocal_rising = _row_memo(dx_reciprocal_rising)


@_row_memo
def _t2_129_k(p: int, q: int, r: int, k: int) -> tuple:
    """Term k of Gould (12.9)'s n-free pieces at order r and x = p/q:
    C(x+k, k)/C(r-1+k, k), ratio = (x+r+2k)/(x+r+k), ratio h(k, r)/C(r-1+k, k)
    and k/(x+r+k)^2."""
    c, a = C(r - 1 + k, k), p + (r + k) * q  # x + r + k = a/q
    ratio = quot(a + k * q, a)
    return (Cg(reduced(p + k * q, q), k) / c, ratio, product_sum([((ratio, h(k, r)), (c,))]),
            reduced(k * q * q, a * a))


@_row_memo
def _t2_129_n(p: int, q: int, n: int, s: int) -> tuple:
    """Gould (12.9)'s pieces at x = p/q that read k and r only through s = k+r:
    C(x+s+n, n) and h(n, x+s+1)/C(x+s+n, n)."""
    big = Cg(reduced(p + (s + n) * q, q), n)
    return big, quot(h(n, reduced(p + (s + 1) * q, q)), big)


def _t2_129a_lhs(n: int, r: int, x) -> Fraction:
    """The lhs of Gould (12.9), first form, at order r; ``t1-12.9a`` pins r = 1."""
    p, q = exactnum._ratio(x, "_t2_129_k")
    terms = []
    for k in range(n + 1):
        weight, ratio, head, tail = _t2_129_k(p, q, r, k)  # its poles come first
        big, hn = _t2_129_n(p, q, n, k + r)
        c, down = C(n, k), (_nonzero(weight), big)  # C(n, k)/(weight big)'s pole
        terms += [((c, head), down), ((-c, ratio, hn), down), ((-c, tail), down)]
    return product_sum(terms)


def _t2_129b_lhs(n: int, r: int, y, sign: int = 1) -> Fraction:
    """The lhs of Gould (12.9), second form, at order r; ``sign`` is the sign of its
    k/(y+r+k)^2 term: +1 in the order-r form, -1 as ``t1-12.9b`` transcribes it."""
    p, q = exactnum._ratio(y, "_t2_129_k")
    terms = []
    for k in range(n + 1):
        weight, ratio, head, tail = _t2_129_k(p, q, r, k)
        big, hn = _t2_129_n(p, q, n, k + r)  # big = 0 is its pole, so none here
        up, down = (C(n, k), weight), (big,)
        terms += [(up + (head,), down), (up + (ratio, hn), down), (up + (sign, tail), down)]
    return product_sum(terms)


@_row_memo
def _poly_point(deg: int, t) -> Fraction:
    """The fixed degree-``deg`` test polynomial at t, by Horner's rule.

    It is the oracle of the operator checks; its coefficients are
    (-1)^j (j+1)/(j+2) for j = 0..deg.
    """
    acc = F(0)
    for j in range(deg, -1, -1):
        acc = acc * t + reduced((-1) ** j * (j + 1), j + 2)
    return acc


def _cg_diag(x, c: int, j: int) -> Fraction:
    """C(x+j+c, j), the ``eq-13`` term, as a function along j."""
    return Cg(x + (j + c), j)


@_row_memo
def _hyp_twice(p: int, q: int, kind: str, i: int) -> CertifiedReal:
    """2 sinh(x+i) = e^(x+i) - e^(-x-i) at x = p/q, or 2 cosh(x+i) with +; free of k."""
    op = CertifiedReal.__sub__ if kind == "sinh" else CertifiedReal.__add__
    a = p + i * q  # x + i = a/q
    return op(exp_ball(reduced(a, q)), exp_ball(reduced(-a, q)))


def _alternating_certified_sum(k: int, values) -> CertifiedReal:
    """sum_i (-1)**(k-i) binom(k, i) values[i] with error tracking."""
    acc = CertifiedReal(0.0, 0.0)
    for coeff, v in zip(signed_binomial_row(k), values, strict=True):
        acc = acc + as_certified(v).scaled(coeff)
    return acc


# --------------------------------------------------------------------------
# Registry construction
# --------------------------------------------------------------------------

_REGISTRY: dict[str, Identity] = {}
#: Each pinned row's source row, whose family it runs in.
_PINNED_SOURCE: dict[str, str] = {}


def _positional_names(fn) -> tuple:
    """The names of the parameters ``fn`` takes positionally, in order."""
    code = fn.__code__
    return code.co_varnames[: code.co_argcount]


def _add(key, anchor, params, lhs, rhs, tags, valid=None, readings=()):
    """Register a row; each evaluator, and each reading's right side,
    must take the row's parameters positionally, in declared order, as
    the first of its own, since ``verify`` passes a case's values by
    position.  A reading's name must be new to the row's JSON object,
    which holds its result under that name."""
    if key in _REGISTRY:
        raise ValueError(f"duplicate identity key {key}")
    params = tuple(params)
    readings = tuple(readings)
    taken = {"identity_id", *IdentityReport._fields}
    for name, _ in readings:
        if name in taken:
            raise ValueError(f"{key}: reading {name!r} would overwrite a report key")
        taken.add(name)
    names = tuple(p.name for p in params)
    roles = [("lhs", lhs), ("rhs", rhs), ("valid", valid)]
    for role, fn in roles + [(f"reading {name!r}", fn) for name, fn in readings]:
        if fn is None:
            continue
        takes = _positional_names(fn)
        if takes[: len(names)] != names:
            raise ValueError(
                f"{key}: {role} takes {takes} positionally, "
                f"not the row's parameters {names} first"
            )
    _REGISTRY[key] = Identity(key, anchor, params, lhs, rhs, frozenset(tags), valid, readings)


def _add_pinned(key, anchor, params, tags, source, pins):
    """Register ``key`` as the registered row ``source`` with parameters pinned.

    ``pins`` maps a parameter of ``source`` to an int, or to the name of
    the row's own parameter passed on under the source's name.  The
    row's ``lhs``, ``rhs``, ``valid`` and each reading's right side are
    the source's, each wrapped once in a function of the row's own
    parameters that passes them and the pins on in the source's order,
    generated from source as ``_records`` generates ``__init__``.
    """
    src = get_identity(source)  # so a source must be registered first
    names = [p.name for p in params]
    consts, args = {}, []
    for p in src.params:
        value = pins.get(p.name, p.name)
        if not isinstance(value, str):
            name = f"_pin{len(consts)}"
            consts[name], value = value, name
        elif value not in names:
            raise ValueError(f"{key}: no parameter {value!r} for {source}'s {p.name!r}")
        args.append(value)
    lift = eval(f"lambda fn: lambda {', '.join(names)}: fn({', '.join(args)})", consts)

    def pin(fn):
        return None if fn is None else lift(fn)

    _add(key, anchor, params, pin(src.lhs), pin(src.rhs), tags, valid=pin(src.valid),
         readings=[(name, lift(fn)) for name, fn in src.readings])
    _PINNED_SOURCE[key] = source


def get_identity(key: str) -> Identity:
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(f"unknown identity id: {key}") from None


def list_identities() -> list:
    return sorted(_REGISTRY)


def select(tags=frozenset(), only=None) -> list:
    """The keys, in key order, of every identity matching the tag filter
    (empty = everything); a ``str`` is one tag, not its characters.

    ``only``, unless it is None, restricts to keys equal to, or ending
    with, one of the given tokens (so ``3.95`` selects ``t1-3.95``
    inside the table1 suite); an empty string or list selects nothing.
    """
    tags = frozenset([tags] if isinstance(tags, str) else tags)
    tokens = None if only is None else [only] if isinstance(only, str) else list(only)
    return [
        key
        for key in list_identities()
        if (not tags or tags & _REGISTRY[key].tags)
        and (tokens is None or any(key == t or key.endswith("-" + t) for t in tokens))
    ]


def _core_recurrences():
    _add(
        "prop-5",
        "sum_{s=1..n} h(s,r-1) - sum_{k=1..r} h(n-1,k) = 1/n",
        (IntRange("n", 1, 25), IntRange("r", 1, 12)),
        lambda n, r: line_sum([1] * n, h, range(1, n + 1), r - 1)
        - line_sum([1] * r, h, n - 1, range(1, r + 1)),
        lambda n, r: reduced(1, n),
        {"core"},
    )
    _add(
        "rem-bgg",
        "h(n,r+s) - h(n,s) = sum_{k=1..r} h(n-1,k+s)   (s = 0 gives the "
        "h(n,r) = sum h(n-1,k) + 1/n form)",
        (IntRange("n", 1, 25), IntRange("r", 1, 12), IntRange("s", 0, 6)),
        lambda n, r, s: h(n, r + s) - h(n, s),
        lambda n, r, s: line_sum([1] * r, h, n - 1, range(s + 1, s + r + 1)),
        {"core"},
    )
    _add(
        "eq-8",
        "h(n,r+1) = alpha(n,r) h(n-1,r+1) + beta(n,r)",
        (IntRange("n", 1, 25), IntRange("r", 1, 12)),
        lambda n, r: h(n, r + 1),
        lambda n, r: alpha(n, r) * h(n - 1, r + 1) + beta(n, r),
        {"core"},
    )
    _add(
        "eq-9",
        "(alpha - 1) h(n,r+1) = alpha h(n,r) - beta",
        (IntRange("n", 1, 25), IntRange("r", 1, 12)),
        lambda n, r: (alpha(n, r) - 1) * h(n, r + 1),
        lambda n, r: alpha(n, r) * h(n, r) - beta(n, r),
        {"core"},
    )

    # (lhs, rhs) of (n, r) for each part, in the anchor's order
    ab_parts = (
        (alpha, lambda n, r: reduced(r, n) * alpha(r, n)),
        (beta, lambda n, r: beta(r, n)),
        # blocks of 32: n <= 20 takes one series per r, a --max 6 audit a short one
        (lambda n, r: _gf_coeff(gf_beta, r, n, 32), beta),
        (lambda n, r: _gf_coeff(gf_alpha, r, n, 32), alpha),
    )

    _add(
        "rem-alpha-beta",
        "alpha(n,r) = (r/n) alpha(r,n); beta(n,r) = beta(r,n); "
        "[z^k] 1/(r(1-z)^r) = beta(k,r); [z^k] (z/(1-z) - r ln(1-z)) = alpha(k,r)",
        (IntRange("part", 0, 3), IntRange("n", 1, 20), IntRange("r", 1, 12)),
        lambda part, n, r: _part(ab_parts, part)[0](n, r),
        lambda part, n, r: _part(ab_parts, part)[1](n, r),
        {"core"},
    )
    _add(
        "prop-bt",
        "sum_{k=0..n} beta(k,r) = alpha(n,r) beta(n,r) / (alpha(n,r) - 1)",
        (IntRange("n", 1, 25), IntRange("r", 1, 12)),
        lambda n, r: line_sum([1] * (n + 1), beta, range(n + 1), r),
        lambda n, r: product_sum([((alpha(n, r), beta(n, r)), (alpha(n, r) - 1,))]),
        {"core"},
    )
    _add(
        "prop-falling",
        "sum_{k=0..n} C(k+r,r)/(k+r)^falling(m) = C(n+r-m+1,n)/r^falling(m)",
        (IntRange("m", 1, 12), IntRange("r", 1, 12), IntRange("n", 0, 25)),
        lambda m, r, n: line_sum(_c_up_row(r, n), _inv_falling, range(r, n + r + 1), m),
        lambda m, r, n: quot(C(n + r - m + 1, n), _falling(r, m)),
        {"core"},
        valid=lambda m, r, n: m <= r,
    )


def _core_derivatives():
    _add(
        "eq-Dgh",
        "D_x of the leaping binomial at 0 = H(n, order m)",
        (IntRange("n", 1, 12), IntRange("m", 1, 4)),
        lambda n, m: dx0([i**m for i in range(1, n + 1)], 1, reduced(1, factorial(n) ** m)),
        lambda n, m: Hm(n, m),
        {"core"},
    )

    def _leap_rel_rhs(n, m, x):
        num = reduced(factorial(n**m), factorial(n) ** m) * Cg(x + n**m, n**m)
        den = F(1)
        for i in range(2, n + 1):
            width = i**m - (i - 1) ** m - 1
            den *= Cg(x + i**m - 1, width) * factorial(width)
        return quot(num, den)

    _add(
        "prop-leap-rel",
        "leaping binomial vs classical binomials (n >= 2)",
        (IntRange("n", 2, 6), IntRange("m", 1, 3),
         RationalChoice("x", SAMPLE_RATIONALS)),
        lambda n, m, x: leaping_binomial(x, n, m),
        _leap_rel_rhs,
        {"core"},
    )
    _add(
        "eq-11",
        "D_x C(x+n+r-1,n) at 0 = h(n,r)",
        (IntRange("n", 0, 20), IntRange("r", 1, 12)),
        lambda n, r: dx0(range(r, n + r), 1, reduced(1, factorial(n))),
        lambda n, r: h(n, r),
        {"core"},
    )

    def _pd_lhs(n, z):
        # D_x (x + z)(x + z + 1)...(x + z + n - 1) at x = 0, over z = p/q
        p, q = z.as_integer_ratio()
        return dx0([p + i * q for i in range(n)], q)

    def _pd_rhs(n, z):
        head = rising(z, n)  # its ValueError at n < 0 comes first
        return product_sum(((head,), (_nonzero(z + i),)) for i in range(n))

    _add(
        "eq-pd",
        "D_z z^rising(n) = z^rising(n) (psi(z+n) - psi(z)), telescoped "
        "exactly at rational z",
        # z = 0 is the pole psi(0) of the rhs, so its axis leaves it out
        (IntRange("n", 1, 10), RationalChoice("z", SAMPLE_RATIONALS[1:])),
        _pd_lhs,
        _pd_rhs,
        {"core"},
    )
    _add(
        "eq-13",
        "sum_{j=0..n} C(x+j+r-1,j) = (1 + n/(x+r)) C(x+n+r-1,n)",
        (IntRange("n", 0, 20), IntRange("r", 1, 8),
         RationalChoice("x", SAMPLE_RATIONALS)),
        lambda n, r, x: line_sum([1] * (n + 1), _cg_diag, x, r - 1, range(n + 1)),
        lambda n, r, x: product_sum([((1 + quot(n, x + r), Cg(x + (n + r - 1), n)), ())]),
        {"core"},
    )
    _add(
        "gf-hyperharmonic",
        "[z^n] -ln(1-z)/(1-z)^r = h(n,r)",
        (IntRange("r", 1, 8), IntRange("n", 0, 64)),
        lambda r, n: _gf_coeff(gf_hyperharmonic, r, n),
        lambda r, n: h(n, r),
        {"core"},
    )


def _core_differences():
    def _teo4_rhs(deg, n, x):
        f = functools.partial(_poly_point, deg)
        return product_sum([((x, forward_difference(f, n, x)), ()),
                            ((n, forward_difference(f, n - 1, x + 1)), ())])

    _add(
        "prop-teo4",
        "Delta^n (x f(x)) = x Delta^n f(x) + n Delta^(n-1) f(x+1)",
        (IntRange("deg", 0, 6), IntRange("n", 1, 6), IntRange("x", 0, 10)),
        lambda deg, n, x: forward_difference(
            lambda t: product_sum([((t, _poly_point(deg, t)), ())]), n, x),
        _teo4_rhs,
        {"core"},
    )
    _add(
        "prop-son1",
        "sum_i (-1)^(i+1) C(k,i) H(n+i) = (k-1)!/(n+1)^rising(k)",
        (IntRange("k", 1, 10), IntRange("n", 0, 20)),
        lambda k, n: line_sum([(-1) ** (i + 1) * C(k, i) for i in range(k + 1)],
                              H, range(n, n + k + 1)),
        lambda k, n: factorial(k - 1) / rising(F(n + 1), k),
        {"core"},
    )
    _add(
        "prop-son8",
        "sum_i (-1)^i C(k,i)(n+i) H(n+i) = (k-2)!/(n+1)^rising(k-1), k >= 2",
        (IntRange("k", 2, 12), IntRange("n", 0, 20)),
        lambda k, n: line_sum([(-1) ** i * C(k, i) * (n + i) for i in range(k + 1)],
                              H, range(n, n + k + 1)),
        lambda k, n: factorial(k - 2) / rising(F(n + 1), k - 1),
        {"core"},
    )
    _add(
        "cor-bih",
        "sum_{i=1..k} (-1)^i C(k,i) i H(i) = 1/(k-1), k >= 2",
        (IntRange("k", 2, 25),),
        lambda k: line_sum([(-1) ** i * C(k, i) * i for i in range(1, k + 1)],
                           H, range(1, k + 1)),
        lambda k: reduced(1, k - 1),
        {"core"},
    )
    _add(
        "rem-kHk",
        "k (H(k) - 1) = sum_{i=2..k} C(k,i) (-1)^i/(i-1)",
        (IntRange("k", 1, 25),),
        lambda k: k * (H(k) - 1),
        lambda k: line_sum([C(k, i) * (-1) ** i for i in range(2, k + 1)],
                           _recip, range(1, k), 1),
        {"core"},
    )
    _add(
        "cor-w",
        "sum_{i=1..n-1} (-1)^(i+1) C(n+1,i+1) H(i) = 2 H(n) for even n, 0 "
        "for odd n",
        (IntRange("n", 1, 30),),
        lambda n: line_sum([(-1) ** (i + 1) * C(n + 1, i + 1) for i in range(1, n)],
                           H, range(1, n)),
        lambda n: 2 * H(n) if n % 2 == 0 else F(0),
        {"core"},
    )


def _core_negative_orders():
    _add(
        "eq-hhr",
        "h(n,r-1) = h(n,r) - h(n-1,r)",
        (IntRange("n", 1, 25), IntRange("r", -8, 12)),
        lambda n, r: h(n, r - 1),
        lambda n, r: h(n, r) - h(n - 1, r),
        {"core"},
        # Below order zero the piecewise definition only satisfies the
        # downward recurrence outside the band 1 < index <= |order| + 1.
        valid=lambda n, r: r >= 1 or n >= 2 - r,
    )
    _add(
        "prop-one1-n",
        "h(n+k,r-k) = sum_i (-1)^(k-i) C(k,i) h(n+i,r)",
        (IntRange("n", 0, 25), IntRange("k", 0, 25), IntRange("r", -6, 12)),
        lambda n, k, r: h(n + k, r - k),
        lambda n, k, r: line_sum(signed_binomial_row(k), h, range(n, n + k + 1), r),
        {"core"},
        valid=lambda n, k, r: r >= 1 or n >= 1 - r,
    )
    _add(
        "prop-one1-r",
        "h(n-k,r+k) = sum_i (-1)^(k-i) C(k,i) h(n,r+i), k <= n",
        (IntRange("n", 1, 25), IntRange("k", 0, 12), IntRange("r", -6, 12)),
        lambda n, k, r: h(n - k, r + k),
        lambda n, k, r: line_sum(signed_binomial_row(k), h, n, range(r, r + k + 1)),
        {"core"},
        valid=lambda n, k, r: k <= n and (r >= 1 or n >= k + 1 - r),
    )
    # (lhs, rhs) of (n, k, r) for each part, in the anchor's order
    hk_parts = (
        (lambda n, k, r: h(n - k, k),
         lambda n, k, r: line_sum(signed_binomial_row(k), h, n, range(k + 1))),
        (lambda n, k, r: line_sum(signed_binomial_row(k), h, k, range(r, r + k + 1)),
         lambda n, k, r: F(0)),
    )
    _add(
        "cor-hk-shift",
        "h(n-k,k) = sum_i (-1)^(k-i) C(k,i) h(n,i); "
        "sum_i (-1)^(k-i) C(k,i) h(k,r+i) = 0",
        (IntRange("part", 0, 1), IntRange("n", 1, 25), IntRange("k", 1, 12),
         IntRange("r", 1, 12)),
        lambda part, n, k, r: _part(hk_parts, part)[0](n, k, r),
        lambda part, n, k, r: _part(hk_parts, part)[1](n, k, r),
        {"core"},
        # part 0 reads n and k, part 1 reads k and r
        valid=lambda part, n, k, r: (part != 0 or (r == 1 and k <= n))
        and (part != 1 or n == 1),
    )
    _add(
        "cor-e",
        "h(n+k,-k) = sum_i (-1)^(k-i) C(k,i) / (n+i)",
        (IntRange("n", 1, 25), IntRange("k", 1, 12)),
        lambda n, k: h(n + k, -k),
        lambda n, k: line_sum(signed_binomial_row(k), _recip, range(n, n + k + 1), 1),
        {"core"},
    )
    _add(
        "cor-lower",
        "h(k,r-k) = sum_{i=1..k} (-1)^(k-i) C(k,i) h(i,r)",
        (IntRange("k", 1, 12), IntRange("r", 1, 12)),
        lambda k, r: h(k, r - k),
        lambda k, r: line_sum(signed_binomial_row(k)[1:], h, range(1, k + 1), r),
        {"core"},
    )
    _add(
        "cor-recip",
        "1/(k+1) = sum_i C(k,i) h(i+1,-i)",
        (IntRange("k", 0, 25),),
        lambda k: reduced(1, k + 1),
        lambda k: product_sum(((C(k, i), h(i + 1, -i)), ()) for i in range(k + 1)),
        {"core"},
    )
    _add(
        "cor-e2",
        "H(n) = sum_{i=1..n} C(n,i) h(i,1-i)",
        (IntRange("n", 1, 25),),
        lambda n: H(n),
        lambda n: product_sum(((C(n, i), h(i, 1 - i)), ()) for i in range(1, n + 1)),
        {"core"},
    )
    _add(
        "rem-Hk-hik",
        "H(k) = sum_i (-1)^(k-i) C(k,i) h(i,k+1); "
        "1/k = sum_i (-1)^(k-i) C(k,i) h(i,k)",
        (IntRange("part", 0, 1), IntRange("k", 1, 20)),
        lambda part, k: _part((H, lambda k: reduced(1, k)), part)(k),
        lambda part, k: line_sum(signed_binomial_row(k)[1:], h, range(1, k + 1), k + 1 - part),
        {"core"},
    )
    _add(
        "rem-doublesum",
        "H(n) = sum_{1<=i<=k<=n} (-1)^(k-i) C(k,i) h(i,k)",
        (IntRange("n", 1, 20),),
        lambda n: H(n),
        lambda n: product_sum(((c, h(i, k)), ()) for k in range(1, n + 1)
                              for i, c in enumerate(signed_binomial_row(k)[1:], 1)),
        {"core"},
    )


def _core_fibonacci():
    _add(
        "prop-one2",
        "F(n-k) = sum_i (-1)^(k-i) C(k,i) F(n+i)",
        (IntRange("n", 0, 25), IntRange("k", 0, 25)),
        lambda n, k: F(fibonacci(n - k)),
        lambda n, k: line_sum(signed_binomial_row(k), fibonacci, range(n, n + k + 1)),
        {"core"},
    )
    _add(
        "cor-son6",
        "F(-k) = F(-k-1) + F(-k-2)",
        (IntRange("k", 0, 40),),
        lambda k: F(fibonacci(-k)),
        lambda k: F(fibonacci(-k - 1) + fibonacci(-k - 2)),
        {"core"},
    )
    _add(
        "cor-fib-sign",
        "F(-k) = (-1)^(k+1) F(k)",
        (IntRange("k", 0, 40),),
        lambda k: F(fibonacci(-k)),
        lambda k: F((-1) ** (k + 1) * fibonacci(k)),
        {"core"},
    )


def _float_rows():
    def _hyp_direct(kind, k, x):
        p, q = exactnum._ratio(x, "_hyp_twice")  # exp_ball would take a float
        twice = [_hyp_twice(p, q, kind, i) for i in range(k + 1)]
        return _alternating_certified_sum(k, twice).scaled(reduced(1, 2))

    for kind in ("sinh", "cosh"):
        _add(
            f"prop-one11-{kind}",
            f"alternating binomial sum of {kind}(x+i) has the closed "
            "exponential form",
            (IntRange("k", 0, 15), RationalChoice("x", HYPERBOLIC_GRID)),
            lambda k, x, kd=kind: _hyp_direct(kd, k, x),
            lambda k, x, kd=kind: delta_hyperbolic_closed_form(kd, k, x),
            {"float"},
        )

    def _x0_rhs(part, k):
        # (e-1)^k (e^k +- 1)/(2 e^k), + for cosh at even k or sinh at odd k
        one = as_certified(1)
        sign = one if (k % 2 == 0) == (part == 1) else as_certified(-1)
        twice = math.prod([exp_ball(1) - one] * k, start=exp_ball(k) + sign)
        return (twice * exp_ball(-k)).scaled(reduced(1, 2))

    _add(
        "rem-one11-x0",
        "the x = 0 specializations of the hyperbolic difference forms",
        (IntRange("part", 0, 1), IntRange("k", 0, 15)),
        lambda part, k: _hyp_direct(_part(("sinh", "cosh"), part), k, F(0)),
        _x0_rhs,
        {"float"},
    )

    def _one6_lhs(k, x):
        # sum_i (-1)^i C(k,i) psi(x+i) is (-1)^k times the k-th difference
        values = [digamma(float(x) + i) for i in range(k + 1)]
        return _alternating_certified_sum(k, values).scaled((-1) ** k)

    _add(
        "prop-one6",
        "sum_i (-1)^i C(k,i) psi(x+i) = -(k-1)!/x^rising(k)  (sign fixed to "
        "match the k = 1 digamma recurrence)",
        (IntRange("k", 1, 10), RationalChoice("x", PSI_SAMPLES)),
        _one6_lhs,
        lambda k, x: CertifiedReal.from_exact(-factorial(k - 1) / rising(x, k)),
        {"float"},
    )


def _table1_rows():
    _add(
        "t1-1.23",
        "Gould (1.23): sum_k H(k)/2^k = 2 ln 2",
        (),
        lambda: sum_series(
            lambda k: H(k) / F(2) ** k,
            # H(k) <= k, so the tail is at most sum_{k>K} k/2^k = (K+2)/2^K.
            lambda K: (K + 2.0) / 2.0**K if K >= 1 else math.inf,
            2.5e-13,
        ),
        lambda: ln2().scaled(2),
        {"table1", "float"},
    )

    _add(
        "t1-3.2",
        "Gould (3.2): sum_k C(r-2+n-k,n-k) H(k) = h(n,r)",
        (IntRange("n", 1, 25), IntRange("r", 1, 25)),
        lambda n, r: line_sum([C(r - 2 + n - k, n - k) for k in range(1, n + 1)],
                              H, range(1, n + 1)),
        lambda n, r: h(n, r),
        {"table1"},
    )
    _add(
        "t1-3.100",
        "Gould (3.100): sum_k (-1)^k C(n+k,2k) C(2k,k)/k = -2 H(n)",
        (IntRange("n", 1, 25),),
        lambda n: line_sum([(-1) ** k * C(n + k, 2 * k) * C(2 * k, k)
                            for k in range(1, n + 1)], _recip, range(1, n + 1), 1),
        lambda n: -2 * H(n),
        {"table1"},
    )

    def _t1_43_lhs(n, x):
        p, q = exactnum._ratio(x, "t1-4.3")  # x^k = p^k / q^k
        return product_sum(((-c, p**k, H(k)), (q**k,)) for k, c in enumerate(_c_row(n, -1), 1))

    def _t1_43_rhs(n, x):
        # every (x, n, k) is one case's, so the row reads the power unmemoized
        p, q = exactnum._ratio(x, "t1-4.3")
        return product_sum([((n, (1 - x) ** (n - 1)), ())] + [
            ((c, _gould43_num(p, q, n, k)), (k, q**n)) for k, c in enumerate(_c_row(n, 1), 1)])

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
        "t1-7.13",
        "Gould (7.13): sum_k (-1)^(k-1) C(n,k) C(2n-k,n-k) H(k) = "
        "sum_k C(n,k)^2/k",
        (IntRange("n", 1, 25),),
        lambda n: line_sum(
            [(-1) ** (k - 1) * C(n, k) * C(2 * n - k, n - k) for k in range(1, n + 1)],
            H, range(1, n + 1)),
        lambda n: line_sum([C(n, k) ** 2 for k in range(1, n + 1)],
                           _recip, range(1, n + 1), 1),
        {"table1"},
    )

    def _t1_715_rhs(n, r):
        # c (Hm(n,2) - Hm(n+r,2) + Hm(r,2)) + (c H(n) - h(n,r+1)) (H(n) - H(n+r) + H(r))
        c, pm = C(r + n, n), ((1, n), (-1, n + r), (1, r))
        return product_sum([((c, s, Hm(m, 2)), ()) for s, m in pm] + [
            (u + (s, H(m)), ()) for u in ((c, H(n)), (-1, h(n, r + 1))) for s, m in pm])

    _add(
        "t1-7.15",
        "Gould (7.15): sum_k C(n,k) C(r,k) (H(k)^2 + H(k,2)) in closed form",
        (IntRange("n", 1, 25), IntRange("r", 1, 25)),
        lambda n, r: line_sum([C(n, k) * C(r, k) for k in range(1, n + 1)],
                              _h_sq_plus_h2, range(1, n + 1)),
        _t1_715_rhs,
        {"table1"},
    )
    _add(
        "t1-12.9b",
        "Gould (12.9), second form: the C(y+k,k)-weighted telescoping sum "
        "equals H(n)",
        (IntRange("n", 1, 15), RationalChoice("y", SAMPLE_RATIONALS)),
        lambda n, y: _t2_129b_lhs(n, 1, y, sign=-1),
        lambda n, y: H(n),
        {"table1"},
    )

    def _t1_z58_rhs(n, hw=h):
        head = F(4) ** n / C(2 * n, n)  # its ZeroDivisionError comes first
        return product_sum([((head, Cg(reduced(2 * n - 1, 2), n), H(n)), ()),
                            ((head, hw(n, reduced(1, 2))), ())])

    _add(
        "t1-Z.58",
        "Gould (Z.58): H(2n) = 4^n (C(n-1/2,n) H(n) + h(n,1/2)) / C(2n,n)",
        (IntRange("n", 1, 20),),
        lambda n: H(2 * n),
        _t1_z58_rhs,
        {"table1"},
        readings=[("alternative", lambda n: _t1_z58_rhs(n, hw=h_alt))],
    )


def _table2_rows():
    _add(
        "t2-1.23",
        "Gould (1.23), order-r form: sum_k h(k,r)/2^k = 2^r ln 2",
        (IntRange("r", 2, 4),),
        lambda r: sum_series(
            lambda k: h(k, r) / F(2) ** k,
            # h(k,r) = C(k+r-1,r-1) (H(k+r-1) - H(r-1)) <= (k+r)^(r-1) k/r
            # <= (k+r)^r.  For k > K >= 2r consecutive bounds (k+r)^r/2^k
            # shrink by (1 + 1/(k+r))^r/2 <= e^(r/(3r+1))/2 < e^(1/3)/2 < 0.7,
            # so the tail is below (K+1+r)^r/2^(K+1) / 0.3 < 4 (K+1+r)^r/2^(K+1).
            lambda K: reduced(4 * (K + 1 + r) ** r, 2 ** (K + 1)) if K >= 2 * r else math.inf,
            1e-10,
        ),
        lambda r: ln2().scaled(2**r),
        {"table2", "float"},
    )
    _add(
        "t2-1.41",
        "Gould (1.41), order-r form: sum_k (-1)^(k-1) C(n,k) k/(k+r-1)^2 = "
        "h(n,r)/C(r-1+n,n)^2",
        (IntRange("n", 1, 20), IntRange("r", 1, 12)),
        lambda n, r: line_sum([(-1) ** (k - 1) * C(n, k) * k for k in range(1, n + 1)],
                              _recip, range(r, n + r), 2),
        lambda n, r: h(n, r) / C(r - 1 + n, n) ** 2,
        {"table2"},
    )
    _add(
        "t2-1.42",
        "Gould (1.42), order-r form: sum_k (-1)^(k-1) C(n,k) "
        "h(k,r)/C(k+r-1,k)^2 = 1/(n+r-1)",
        (IntRange("n", 1, 20), IntRange("r", 1, 12)),
        lambda n, r: line_sum([(-1) ** (k - 1) * C(n, k) for k in range(1, n + 1)],
                              _h_over_c2, range(1, n + 1), r),
        lambda n, r: reduced(1, n + r - 1),
        {"table2"},
    )
    _add(
        "t2-1.44",
        "Gould (1.44), order-r form: sum_k (-1)^(k-1) C(n+1,k+1) "
        "h(k,r)/C(r-1+k,k)^2 = sum_k k/(k+r-1)^2",
        (IntRange("n", 1, 20), IntRange("r", 1, 12)),
        lambda n, r: line_sum([(-1) ** (k - 1) * C(n + 1, k + 1) for k in range(1, n + 1)],
                              _h_over_c2, range(1, n + 1), r),
        lambda n, r: line_sum(list(range(1, n + 1)), _recip, range(r, n + r), 2),
        {"table2"},
    )

    def _t2_216_lhs(r):
        # h(k,r) <= (k+r)^r (see t2-1.23) and C >= 1 bound term k by (k+r)^r/k!;
        # consecutive bounds shrink by (1 + 1/(k+r))^r/(k+1) < e/(k+1) < 1/2
        # for k >= 5, so the tail beyond K >= 4 is below 2 (K+1+r)^r/(K+1)!.
        return sum_series(
            lambda k: h(k, r) / (C(r - 1 + k, k) ** 2 * factorial(k)),
            lambda K: reduced(2 * (K + 1 + r) ** r, factorial(K + 1)) if K >= 4 else math.inf,
            1e-16,
            start=1,
        )

    def _t2_216_rhs(r):
        # The series alternates with decreasing terms 1/((r+k)^2 k!), so its
        # tail beyond K is at most the first omitted term, 1/((r+K+1)^2 (K+1)!).
        return exp_ball(1) * sum_series(
            lambda k: reduced((-1) ** k, (r + k) ** 2 * factorial(k)),
            lambda K: reduced(1, (r + K + 1) ** 2 * factorial(K + 1)),
            1e-16,
        )

    _add(
        "t2-2.16",
        "Gould (2.16), order-r form: sum_k h(k,r)/(C(r-1+k,k)^2 k!) = "
        "e sum_k (-1)^k/((r+k)^2 k!)",
        (IntRange("r", 1, 8),),
        _t2_216_lhs,
        _t2_216_rhs,
        {"table2", "float"},
    )
    _add(
        "t2-3.2",
        "Gould (3.2), order-r form: sum_k C(r+n-k,n-k) h(k,r) = h(n,2r+1) "
        "(the printed superscript r+n+1 coincides only at n = r; the "
        "convolution of the generating functions fixes it to 2r+1)",
        (IntRange("n", 1, 20), IntRange("r", 1, 12)),
        lambda n, r: line_sum([C(r + n - k, n - k) for k in range(1, n + 1)],
                              h, range(1, n + 1), r),
        lambda n, r: h(n, 2 * r + 1),
        {"table2"},
    )
    _add(
        "t2-3.36",
        "Gould (3.36), order-r form: 2 sum_{k<=2n} (-1)^k C(r-1+2n-k,2n-k) "
        "h(k,r) = h(n,r)",
        (IntRange("n", 1, 20), IntRange("r", 1, 12)),
        lambda n, r: line_sum(
            [2 * (-1) ** k * C(r - 1 + 2 * n - k, 2 * n - k) for k in range(1, 2 * n + 1)],
            h, range(1, 2 * n + 1), r),
        lambda n, r: h(n, r),
        {"table2"},
    )

    def _t2_395_rhs(n, r, hw=h):
        c = C(r - 1 + n, n)
        head = F(4) ** n / c  # its ZeroDivisionError comes first
        return product_sum([((head, hw(n, reduced(2 * r - 1, 2))), ()),
                            ((-1, head, Cg(reduced(2 * (r + n) - 3, 2), n), h(n, r)), (c,))])

    _add(
        "t2-3.95",
        "Gould (3.95), order-r form with the half-integer order r-1/2",
        (IntRange("n", 1, 15), IntRange("r", 2, 8)),
        lambda n, r: line_sum(
            [(-1) ** k * C(2 * n - 2 * k, n - k) * C(2 * k, k) * k for k in range(1, n + 1)],
            _recip, range(r, n + r), 2),
        _t2_395_rhs,
        {"table2"},
        readings=[("alternative", lambda n, r: _t2_395_rhs(n, r, hw=h_alt))],
    )
    _add(
        "t2-3.100",
        "Gould (3.100), order-r form with the negative order r-n-1",
        (IntRange("n", 1, 20), IntRange("r", 2, 12)),
        lambda n, r: line_sum(
            [(-1) ** k * C(n + k, 2 * k) * C(2 * k, k) * k for k in range(1, n + 1)],
            _recip, range(r, n + r), 2),
        lambda n, r: F((-1) ** n) / C(r - 1 + n, n)
        * (h(n, r - n - 1) - C(r - 2, n) * h(n, r) / C(r - 1 + n, n)),
        {"table2"},
    )

    _add(
        "t2-3.108",
        "Gould (3.108), order-r form of the (n,m)-symmetric double sum",
        (IntRange("n", 0, 20), IntRange("m", 0, 20), IntRange("r", 1, 8)),
        lambda n, m, r: _t2_3108_side(n, m, r),
        lambda n, m, r: _t2_3108_side(m, n, r),
        {"table2"},
    )

    def _t2_43_rhs(n, r, x):
        p, q = exactnum._ratio(x, "_gould43_power")
        return product_sum(((w, power), ())
                           for w, power in zip(_gould43_row(n, r), _gould43_power(p, q, n)))

    _add(
        "t2-4.3",
        "Gould (4.3), order-r form of the (x-k)^k (1-x+k)^(n-k) identity",
        (IntRange("n", 1, 15), IntRange("r", 1, 8),
         RationalChoice("x", SAMPLE_RATIONALS)),
        lambda n, r, x: line_sum(_c_row(n, -1), _t2_43_term, x, range(1, n + 1), r),
        _t2_43_rhs,
        {"table2"},
    )
    _add(
        "t2-6.19",
        "Gould (6.19), order-j form: sum_k C(n,k) C(r,k) h(n+r,j-k) = "
        "h(r,j) C(n+j-1,n) + C(r+j-1,r) h(n,j)",
        (IntRange("n", 1, 20), IntRange("r", 1, 20), IntRange("j", 1, 12)),
        lambda n, r, j: line_sum(_c_pair_row(n, r, 0), h, n + r, range(j, j - n - 1, -1)),
        lambda n, r, j: product_sum([((C(n + j - 1, n), h(r, j)), ()),
                                     ((C(r + j - 1, r), h(n, j)), ())]),
        {"table2"},
    )
    _add(
        "t2-6.22",
        "Gould (6.22), order-r form",
        (IntRange("n", 1, 15), IntRange("r", 1, 8)),
        lambda n, r: line_sum(
            [(-1) ** k * C(2 * n, k) * C(2 * n - k, n) ** 2 * k for k in range(1, n + 1)],
            _recip, range(r, n + r), 2),
        lambda n, r: reduced(C(2 * n, n), C(r - 1 + n, n))
        * (h(n, n + r) - C(2 * n + r - 1, n) * h(n, r) / C(r - 1 + n, n)),
        {"table2"},
    )

    def _t2_72_rhs(n, m, r):
        hn, c = h(n, r), C(r - 1 + n, n)
        return product_sum([((C(r - 1 + m + n, n), hn), (c, c)), ((-1, h(n, m + r)), (c,))])

    _add(
        "t2-7.2",
        "Gould (7.2), order-r form: sum_k C(n,k) C(m,k) h(k,r)/C(r-1+k,k)^2 "
        "in closed form",
        (IntRange("n", 1, 20), IntRange("m", 1, 20), IntRange("r", 1, 8)),
        lambda n, m, r: line_sum(_c_pair_row(n, m, 1), _h_over_c2, range(1, n + 1), r),
        _t2_72_rhs,
        {"table2"},
    )

    def _t2_79_rhs(n, r, hw=h):
        return product_sum([((reduced(4**n, 2 * n + 1), hw(n, reduced(2 * r - 1, 2))),
                             (C(2 * n, n),))])

    _add(
        "t2-7.9",
        "Gould (7.9), order-r form with the half-integer order r-1/2",
        (IntRange("n", 1, 15), IntRange("r", 2, 8)),
        lambda n, r: product_sum((((-1) ** k * C(n, k) * 4**k, h(k, r)),
                                  ((2 * k + 1) * C(2 * k, k),)) for k in range(1, n + 1)),
        _t2_79_rhs,
        {"table2"},
        readings=[("alternative", lambda n, r: _t2_79_rhs(n, r, hw=h_alt))],
    )
    _add(
        "t2-7.13",
        "Gould (7.13), order-j form with the negative upper index C(-n-1,n-k)",
        (IntRange("n", 1, 20), IntRange("j", 1, 12)),
        lambda n, j: line_sum([C(n, k) * C(-n - 1, n - k) for k in range(1, n + 1)],
                              _h_over_c2, range(1, n + 1), j),
        lambda n, j: line_sum([(-1) ** (n + 1) * C(n, k) ** 2 * k for k in range(1, n + 1)],
                              _recip, range(j, n + j), 2),
        {"table2"},
    )

    def _gould_hypergeom_row(n, r, upper):
        # d/dj F(upper, 1/2, n+r+j; 4) at j = 0, term by term
        return product_sum(((_gould_coeff(upper, k), _dx_reciprocal_rising(n + r, k)), ())
                           for k in range(1, 1 - upper))

    def _gould_hypergeom_rhs(n, r, m):
        return line_sum([(-1) ** (k + 1) * C(m, k) * C(2 * k, k) for k in range(1, m + 1)],
                        _h_over_c2, range(1, m + 1), n + r)

    _add(
        "t2-7.29",
        "Gould (7.29): d/dj F(-2n,1/2,n+j+r;4) at 0 equals the alternating "
        "C(2n,k) C(2k,k) h(k,n+r) sum",
        (IntRange("n", 1, 12), IntRange("r", 1, 12)),
        lambda n, r: _gould_hypergeom_row(n, r, -2 * n),
        lambda n, r: _gould_hypergeom_rhs(n, r, 2 * n),
        {"table2"},
    )
    _add(
        "t2-7.30",
        "Gould (7.30): d/dj F(-2n-1,1/2,n+j+r;4) at 0 equals the "
        "alternating C(2n+1,k) C(2k,k) h(k,n+r) sum",
        (IntRange("n", 1, 12), IntRange("r", 1, 12)),
        lambda n, r: _gould_hypergeom_row(n, r, -(2 * n + 1)),
        lambda n, r: _gould_hypergeom_rhs(n, r, 2 * n + 1),
        {"table2"},
    )

    _add(
        "t2-12.9a",
        "Gould (12.9), first order-r form: the weighted telescoping sum is "
        "zero",
        (IntRange("n", 1, 10), IntRange("r", 1, 6),
         RationalChoice("x", SAMPLE_RATIONALS)),
        _t2_129a_lhs,
        lambda n, r, x: F(0),
        {"table2"},
    )

    _add(
        "t2-12.9b",
        "Gould (12.9), second order-r form: the weighted telescoping sum "
        "equals h(n,r)/C(r-1+n,n)^2",
        (IntRange("n", 1, 10), IntRange("r", 1, 6),
         RationalChoice("y", SAMPLE_RATIONALS)),
        _t2_129b_lhs,
        lambda n, r, y: h(n, r) / C(r - 1 + n, n) ** 2,
        {"table2"},
    )

    def _t2_z58_rhs(n, r, hw=h):
        return product_sum([((4**n, Cg(reduced(2 * (n + r) - 3, 2), n), h(n, r)), ()),
                            ((4**n, C(n + r - 1, n), hw(n, reduced(2 * r - 1, 2))), ())])

    _add(
        "t2-Z.58",
        "Gould (Z.58), order-r form: C(2n,n) h(2n,2r-1) = "
        "4^n (C(n+r-3/2,n) h(n,r) + C(n+r-1,n) h(n,r-1/2))",
        (IntRange("n", 1, 15), IntRange("r", 1, 8)),
        lambda n, r: C(2 * n, n) * h(2 * n, 2 * r - 1),
        _t2_z58_rhs,
        {"table2"},
        readings=[("alternative", lambda n, r: _t2_z58_rhs(n, r, hw=h_alt))],
    )


def _pinned_rows():
    # key, anchor, grid, tags, then the source row and its pins: each row is
    # its source at a pinned parameter, mostly the order at one (t1-7.2's own
    # r is the source's m, and eq-hrp's and cor-son4's k the source's n)
    n, nr = [IntRange("n", 1, 25)], [IntRange("n", 1, 25), IntRange("r", 1, 25)]
    k = [IntRange("k", 1, 25)]
    core, t1 = {"core"}, {"table1"}
    r1 = {"r": 1}
    for key, anchor, params, tags, source, pins in (
        ("eq-10", "D_x C(x+n,n) at 0 = H(n)",
         [IntRange("n", 0, 25)], core, "eq-11", r1),
        ("gf-harmonic", "[z^n] -ln(1-z)/(1-z) = H(n)",
         [IntRange("n", 0, 64)], core, "gf-hyperharmonic", r1),
        ("eq-hrp", "sum_{i=1..k} (-1)^(i+1) C(k,i)/i = H(k)",
         k, core, "t2-1.41", {"n": "k", "r": 1}),
        ("cor-son4", "sum_{i=1..k} (-1)^(i+1) C(k,i) H(i) = 1/k",
         k, core, "t2-1.42", {"n": "k", "r": 1}),
        ("cor-nf", "F(-k) = sum_i (-1)^(k-i) C(k,i) F(i)",
         [IntRange("k", 0, 40)], core, "prop-one2", {"n": 0}),
        ("t1-1.41", "Gould (1.41): sum_k (-1)^(k-1) C(n,k)/k = H(n)",
         n, t1, "t2-1.41", r1),
        ("t1-1.42", "Gould (1.42): sum_k (-1)^(k-1) C(n,k) H(k) = 1/n",
         n, t1, "t2-1.42", r1),
        ("t1-1.44", "Gould (1.44): sum_k (-1)^(k-1) C(n+1,k+1) H(k) = H(n)",
         n, t1, "t2-1.44", r1),
        ("t1-2.16", "Gould (2.16): sum_k H(k)/k! = e sum_k (-1)^(k-1)/(k! k)",
         [], {"table1", "float"}, "t2-2.16", r1),
        ("t1-3.36", "Gould (3.36): 2 sum_{k=1..2n} (-1)^k H(k) = H(n)",
         n, t1, "t2-3.36", r1),
        ("t1-3.95", "Gould (3.95): sum_k (-1)^k C(2n-2k,n-k) C(2k,k)/k = "
         "4^n (h(n,1/2) - C(n-1/2,n) H(n))", n, t1, "t2-3.95", r1),
        ("t1-3.108", "Gould (3.108): the (n,m)-symmetric binomial-harmonic "
         "double sum", [IntRange("n", 0, 25), IntRange("m", 0, 25)], t1,
         "t2-3.108", r1),
        ("t1-6.19", "Gould (6.19): sum_k C(n,k) C(r,k) h(n+r,1-k) = H(n) + H(r)",
         nr, t1, "t2-6.19", {"j": 1}),
        ("t1-6.22", "Gould (6.22): sum_k (-1)^k C(2n,k) C(2n-k,n)^2/k = "
         "C(2n,n)(h(n,n+1) - C(2n,n) H(n))", n, t1, "t2-6.22", r1),
        ("t1-7.2", "Gould (7.2): sum_k C(n,k) C(r,k) H(k) = C(r+n,n) H(n) - "
         "h(n,r+1)", nr, t1, "t2-7.2", {"m": "r", "r": 1}),
        ("t1-7.9", "Gould (7.9): alternating central-binomial H(k) sum vs "
         "4^n h(n,1/2)/((2n+1) C(2n,n))", [IntRange("n", 1, 20)], t1,
         "t2-7.9", r1),
        ("t1-12.9a", "Gould (12.9), first form: the C(x+k,k)-weighted "
         "telescoping sum is zero",
         [IntRange("n", 1, 15), RationalChoice("x", SAMPLE_RATIONALS)],
         t1, "t2-12.9a", r1),
    ):
        _add_pinned(key, anchor, params, tags, source, pins)


_core_recurrences()
_core_derivatives()
_core_differences()
_core_negative_orders()
_core_fibonacci()
_float_rows()
_table1_rows()
_table2_rows()
_pinned_rows()
