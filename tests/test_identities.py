import cProfile
import functools
import itertools
import json
import math
import traceback
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperseq.identities as ident
from hyperseq.analytic import CertifiedReal
from hyperseq.errors import DomainError
from hyperseq.exactnum import binomial_general, signed_binomial_row
from hyperseq.opcalc import dx_reciprocal_rising, forward_difference
from hyperseq.opcalc import gf_alpha, gf_beta, gf_hyperharmonic
from hyperseq.sequences import alpha, beta, hyperharmonic_half_integer_alt
from hyperseq.identities import (
    Identity,
    IntRange,
    get_identity,
    list_identities,
    run_suite,
    verify,
)

F = Fraction


class _Float(float):
    pass


def _case_values(identity, vals):
    """``[lhs, rhs]`` at one case, plus each reading's right side, as
    ``verify`` evaluates them: a side that raises ``DomainError`` holds
    the error, and when the lhs raises, every side does."""
    rights = [identity.rhs, *(fn for _, fn in identity.readings)]
    try:
        out = [identity.lhs(*vals)]
    except DomainError as exc:
        return [exc] * (1 + len(rights))
    for side in rights:
        try:
            out.append(side(*vals))
        except DomainError as exc:
            out.append(exc)
    return out


def _side(identity, name):
    """A row's ``lhs``, its ``rhs``, or the right side of its reading ``name``."""
    return getattr(identity, name) if name in ("lhs", "rhs") else dict(identity.readings)[name]


def _named_cases(identity):
    """The cases ``verify`` runs on the row's default grid, by name."""
    names = [p.name for p in identity.params]
    return [dict(zip(names, vals)) for vals in ident._cases(identity, None, None)]

CORE_IDS = {
    # recurrences and coefficients
    "prop-5", "rem-bgg", "eq-8", "eq-9", "rem-alpha-beta", "prop-bt",
    "prop-falling",
    # derivative operator
    "eq-10", "eq-Dgh", "prop-leap-rel", "eq-11", "eq-pd", "eq-13",
    "gf-harmonic", "gf-hyperharmonic",
    # difference operator on harmonic numbers
    "prop-teo4", "prop-son1", "cor-son4", "eq-hrp", "prop-son8", "cor-bih",
    "rem-kHk", "cor-w",
    # difference operator on hyperharmonic numbers
    "eq-hhr", "prop-one1-n", "prop-one1-r", "cor-hk-shift", "cor-e",
    "cor-lower", "cor-recip", "cor-e2", "rem-Hk-hik", "rem-doublesum",
    # Fibonacci
    "prop-one2", "cor-nf", "cor-son6", "cor-fib-sign",
}

FLOAT_IDS = {"prop-one11-sinh", "prop-one11-cosh", "rem-one11-x0", "prop-one6"}

TABLE1_IDS = {
    "t1-1.23", "t1-1.41", "t1-1.42", "t1-1.44", "t1-2.16", "t1-3.2",
    "t1-3.36", "t1-3.95", "t1-3.100", "t1-3.108", "t1-4.3", "t1-6.19",
    "t1-6.22", "t1-7.2", "t1-7.9", "t1-7.13", "t1-7.15", "t1-12.9a",
    "t1-12.9b", "t1-Z.58",
}

TABLE2_IDS = {
    "t2-1.23", "t2-1.41", "t2-1.42", "t2-1.44", "t2-2.16", "t2-3.2",
    "t2-3.36", "t2-3.95", "t2-3.100", "t2-3.108", "t2-4.3", "t2-6.19",
    "t2-6.22", "t2-7.2", "t2-7.9", "t2-7.13", "t2-7.29", "t2-7.30",
    "t2-12.9a", "t2-12.9b", "t2-Z.58",
}


class TestRegistryCoverage:
    def test_exact_id_set(self):
        assert set(list_identities()) == CORE_IDS | FLOAT_IDS | TABLE1_IDS | TABLE2_IDS

    def test_every_id_is_anchored(self):
        for key in list_identities():
            assert get_identity(key).anchor.strip()

    def test_tags(self):
        for key in CORE_IDS:
            assert "core" in get_identity(key).tags
        for key in FLOAT_IDS:
            assert get_identity(key).tags == {"float"}
        for key in TABLE1_IDS:
            assert "table1" in get_identity(key).tags
        for key in TABLE2_IDS:
            assert "table2" in get_identity(key).tags

    def test_mode_follows_the_float_tag(self):
        # mode is derived from the tag, so the tag must match what the
        # sides return: balls on float rows, exact rationals elsewhere.
        for key in list_identities():
            identity = get_identity(key)
            with ident.row_scope():
                sides = _case_values(identity, next(ident._cases(identity, None, None)))
            if "float" in identity.tags:
                assert identity.mode == "float"
                assert all(isinstance(v, CertifiedReal) for v in sides), key
            else:
                assert identity.mode == "exact"
                assert all(type(v) in (int, F) for v in sides), key

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_identity("nope")

    def test_non_vacuous(self):
        rep = run_suite(max_bound=4)
        assert len(rep.entries) == len(list_identities())
        for e in rep.entries:
            assert e.tested >= 1, e.key


class TestVerify:
    def test_prop5_passes_with_spot_value(self):
        rep = verify("prop-5", max_bound=10)
        assert rep.verdict == "PASS"
        identity = get_identity("prop-5")
        assert identity.lhs(n=3, r=2) == F(1, 3)
        assert identity.rhs(n=3, r=2) == F(1, 3)

    def test_t1_619_spot(self):
        identity = get_identity("t1-6.19")
        assert identity.lhs(n=2, r=2) == 3
        assert identity.rhs(n=2, r=2) == 3

    def test_t1_336_spot(self):
        identity = get_identity("t1-3.36")
        assert identity.lhs(n=1) == 1
        assert identity.rhs(n=1) == 1

    def test_t1_622_spot(self):
        identity = get_identity("t1-6.22")
        assert identity.lhs(n=1) == -2
        assert identity.rhs(n=1) == -2

    def test_t1_395_fails_with_recorded_counterexample(self):
        rep = verify("t1-3.95", max_bound=3)
        assert rep.verdict == "FAIL"
        first = rep.counterexamples[0]
        assert first["params"] == {"n": 1}
        assert first["lhs"] == "-2"
        assert first["rhs"] == "2"
        assert [(name, alt.verdict) for name, alt in rep.readings] == [
            ("alternative", "FAIL")]

    def test_t2_142_counterexample_values(self):
        rep = verify("t2-1.42", max_bound=4)
        assert rep.verdict == "FAIL"
        first = rep.counterexamples[0]
        assert first["params"] == {"n": 1, "r": 2}
        assert first["lhs"] == "1/4"
        assert first["rhs"] == "1/2"

    def test_z58_passes_only_under_alternative(self):
        rep = verify("t1-Z.58", max_bound=8)
        assert rep.verdict == "FAIL"
        assert dict(rep.readings)["alternative"].verdict == "PASS"

    def test_domain_monotone(self):
        small = verify("t1-3.95", max_bound=1)
        large = verify("t1-3.95", max_bound=6)
        assert small.verdict == "FAIL"
        assert large.verdict == "FAIL"
        assert large.tested >= small.tested

    def test_param_bounds_override(self):
        rep = verify("t2-1.42", param_bounds={"n": (1, 1), "r": 1})
        assert rep.verdict == "PASS"
        assert rep.tested == 1

    def test_counterexample_cap(self):
        rep = verify("t1-3.95", max_bound=10, counterexample_cap=2)
        assert rep.verdict == "FAIL"
        assert len(rep.counterexamples) == 2

    def test_determinism_of_exact_evaluators(self):
        for key in ("prop-5", "t2-7.29", "eq-13"):
            identity = get_identity(key)
            vals = next(ident._cases(identity, 3, None))
            assert identity.lhs(*vals) == identity.lhs(*vals)
            assert identity.rhs(*vals) == identity.rhs(*vals)

    def test_skipped_assignments_recorded_with_reason(self, monkeypatch):
        probe = Identity(
            key="probe",
            anchor="h(n,0) = 1/n",
            params=(IntRange("n", 0, 3),),
            lhs=lambda n: ident.hyperharmonic(n, 0),
            rhs=lambda n: F(1, n) if n else F(0),
            tags=frozenset({"probe"}),
        )
        monkeypatch.setitem(ident._REGISTRY, probe.key, probe)
        rep = verify("probe")
        assert (rep.verdict, rep.tested, rep.skipped) == ("PASS", 3, 1)
        assert rep.skip_reasons[0]["params"] == {"n": 0}
        assert "h(0, 0)" in rep.skip_reasons[0]["reason"]

    def test_skip_reasons_are_written_to_the_json_report(self, monkeypatch):
        probe = Identity(
            key="probe-skip",
            anchor="h(n,0) = 1/n",
            params=(IntRange("n", 0, 2),),
            lhs=lambda n: ident.hyperharmonic(n, 0),
            rhs=lambda n: F(1, n),
            tags=frozenset({"probe"}),
        )
        monkeypatch.setitem(ident._REGISTRY, probe.key, probe)
        (row,) = json.loads(run_suite(only=["probe-skip"]).to_json())
        assert (row["verdict"], row["tested"], row["skipped"]) == ("PASS", 2, 1)
        (reason,) = row["skip_reasons"]
        assert reason["params"] == {"n": 0}
        assert "h(0, 0)" in reason["reason"]

    def test_text_report_shows_the_alternative_verdict(self):
        text = run_suite(only=["t1-Z.58", "t1-1.41"], max_bound=3).to_text()
        h141, z58 = (line for line in text.splitlines() if line.startswith("t1-"))
        assert z58.startswith("t1-Z.58 ") and z58.endswith("  [alt: PASS]")
        assert h141.startswith("t1-1.41 ") and "[alt:" not in h141

    def test_text_report_counts_every_failing_case(self):
        # all nine cases fail, and the report keeps the first five
        report = run_suite(only=["t2-Z.58"], max_bound=3)
        (entry,) = report.entries
        assert (entry.tested, entry.failed, len(entry.counterexamples)) == (9, 9, 5)
        assert " fails=9 " in report.to_text()
        assert "failed" not in entry.to_json_obj()
        assert report.to_csv().splitlines()[1] == "t2-Z.58,exact,FAIL,9,0,5,PASS"

    def test_evaluator_bug_is_raised_not_skipped(self, monkeypatch):
        # Only DomainError marks a case as outside the domain; a division
        # by zero inside an evaluator is a bug and must surface.
        probe = Identity(
            key="probe-zero",
            anchor="1/(n-n) = 0",
            params=(IntRange("n", 1, 3),),
            lhs=lambda n: F(1, n - n),
            rhs=lambda n: F(0),
            tags=frozenset({"probe"}),
        )
        monkeypatch.setitem(ident._REGISTRY, probe.key, probe)
        with pytest.raises(ZeroDivisionError):
            verify("probe-zero")

    @pytest.mark.parametrize("ball", [
        CertifiedReal(0.0, math.inf),
        CertifiedReal(math.nan, 0.0),
        CertifiedReal(math.inf, 0.0),
        CertifiedReal(0.0, math.nan),
    ], ids=["inf-radius", "nan-centre", "inf-centre", "nan-radius"])
    def test_non_finite_ball_fails_and_the_audit_runs_on(self, monkeypatch, ball):
        probe = Identity(
            key="probe-ball",
            anchor="a ball that is not a finite interval proves nothing",
            params=(IntRange("n", 1, 2),),
            lhs=lambda n: ball,
            rhs=lambda n: CertifiedReal(0.0, 0.0),
            tags=frozenset({"float"}),
        )
        monkeypatch.setitem(ident._REGISTRY, probe.key, probe)
        rep = verify("probe-ball")
        assert (rep.mode, rep.verdict, rep.tested) == ("float", "FAIL", 2)
        suite = run_suite({"float"}, max_bound=2)
        verdicts = {e.key: e.verdict for e in suite.entries}
        assert verdicts.pop("probe-ball") == "FAIL"
        assert set(verdicts.values()) == {"PASS"}
        assert suite.to_json() and suite.to_text()  # rendering does not raise

    def test_non_finite_ball_is_written_as_strict_json(self, monkeypatch):
        def no_constant(name):
            raise AssertionError(f"non-JSON literal {name} in the report")

        probe = Identity(
            key="probe-ball",
            anchor="a ball with no finite centre or radius",
            params=(IntRange("n", 1, 1),),
            lhs=lambda n: CertifiedReal(math.nan, math.inf),
            rhs=lambda n: CertifiedReal(-math.inf, 0.0),
            tags=frozenset({"float"}),
        )
        monkeypatch.setitem(ident._REGISTRY, probe.key, probe)
        (row,) = json.loads(
            run_suite(only=["probe-ball"]).to_json(), parse_constant=no_constant
        )
        assert row["counterexamples"][0] == {
            "params": {"n": 1},
            "lhs": {"value": "nan", "abs_error_bound": "inf"},
            "rhs": {"value": "-inf", "abs_error_bound": 0.0},
        }

    def test_float_verdict_is_an_exact_overlap_test(self, monkeypatch):
        # Centres 1e16 + 2 and 0.5 are 1e16 + 1.5 apart, which rounds to
        # 1e16 + 2 in floats, as does the radius sum 1e16 + 1.25; only the
        # exact comparison sees that these balls miss.
        for radius, verdict in ((1.25, "FAIL"), (1.5, "PASS")):
            probe = Identity(
                key="probe-gap",
                anchor="two balls whose gap floats cannot resolve",
                params=(),
                lhs=lambda: CertifiedReal(1e16 + 2, 1e16),
                rhs=lambda: CertifiedReal(0.5, radius),
                tags=frozenset({"float"}),
            )
            monkeypatch.setitem(ident._REGISTRY, probe.key, probe)
            assert verify("probe-gap").verdict == verdict, radius

    def _exact_probe(self, monkeypatch, lhs, rhs, tag="probe"):
        probe = Identity(
            key="probe-exact",
            anchor="two exact sides",
            params=(IntRange("n", 1, 3),),
            lhs=lhs,
            rhs=rhs,
            tags=frozenset({tag}),
        )
        monkeypatch.setitem(ident._REGISTRY, probe.key, probe)
        return verify("probe-exact")

    def test_equal_int_and_fraction_sides_pass(self, monkeypatch):
        for lhs, rhs in (
            (lambda n: 2 * n, lambda n: F(4 * n, 2)),
            (lambda n: F(n, 2), lambda n: F(2 * n, 4)),
            (lambda n: F(6, 3), lambda n: 2),
            (lambda n: n, lambda n: n),
        ):
            rep = self._exact_probe(monkeypatch, lhs, rhs)
            assert (rep.mode, rep.verdict, rep.tested) == ("exact", "PASS", 3)

    def test_unequal_exact_sides_fail_with_their_counterexamples(self, monkeypatch):
        rep = self._exact_probe(monkeypatch, lambda n: n, lambda n: F(2 * n + 1, 2))
        assert (rep.verdict, rep.tested) == ("FAIL", 3)
        assert rep.counterexamples == [
            {"params": {"n": 1}, "lhs": "1", "rhs": "3/2"},
            {"params": {"n": 2}, "lhs": "2", "rhs": "5/2"},
            {"params": {"n": 3}, "lhs": "3", "rhs": "7/2"},
        ]
        rep = self._exact_probe(monkeypatch, lambda n: F(1, n), lambda n: F(-1, n))
        assert rep.counterexamples[0] == {"params": {"n": 1}, "lhs": "1", "rhs": "-1"}

    @pytest.mark.parametrize("tag, lhs, rhs, message", [
        ("probe", lambda: 0.5, F(1, 2), "an exact side is float, not int or Fraction"),
        ("probe", lambda: 1.0, F(1), "an exact side is float, not int or Fraction"),
        ("probe", lambda: True, F(1), "an exact side is bool, not int or Fraction"),
        ("probe", lambda: Decimal("0.5"), F(1, 2), "an exact side is Decimal, not int"),
        ("probe", lambda: Decimal("1"), F(1), "an exact side is Decimal, not int"),
        ("probe", lambda: _Float(0.5), F(1, 2), "an exact side is _Float, not int"),
        ("probe", lambda: _Float(1.0), F(1), "an exact side is _Float, not int"),
        ("probe", lambda: F(1, 2), 0.5, "an exact side is float, not int"),
        ("float", lambda: 0.5, CertifiedReal(0.5, 0.0), "a float side is float, not Cert"),
        ("float", lambda: _Float(0.5), CertifiedReal(0.5, 0.0), "a float side is _Float,"),
        ("float", lambda: 1, CertifiedReal(1.0, 0.0), "a float side is int, not Cert"),
        ("float", lambda: math.inf, CertifiedReal(0.0, 0.0), "a float side is float,"),
        ("float", lambda: CertifiedReal(0.5, 0.0), F(1, 2), "a float side is Fraction,"),
    ], ids=["float", "float-one", "bool", "decimal", "decimal-one", "float-subclass",
            "float-subclass-one", "float-rhs", "float-row-float",
            "float-row-float-subclass", "float-row-int", "float-row-inf",
            "float-row-fraction-rhs"])
    def test_a_side_of_the_wrong_type_raises(self, monkeypatch, tag, lhs, rhs, message):
        # every side here == its other side, or overlaps it read as a ball,
        # so a comparison by == or as balls would PASS
        def probe_lhs(n):
            ident.Cg(F(1, 2), n)  # leaves a value in a row memo
            return lhs()

        with pytest.raises(TypeError, match=f"^{message}"):
            self._exact_probe(monkeypatch, probe_lhs, lambda n: rhs, tag)
        assert all(memo.cache_info().currsize == 0 for memo in ident._ROW_MEMOS)


def _leap_rel_pole(n, m, x):
    # C(x + i^m - 1, i^m - (i-1)^m - 1) vanishes, for some 2 <= i <= n,
    # exactly at the integers x with (i-1)^m < -x < i^m
    return any((i - 1) ** m < -x < i**m for i in range(2, n + 1))


def _t2_129a_pole(n, r, x):
    # over k = 0..n: C(x+k,k) = 0 at x = -1..-k, x+r+k = 0, and
    # C(x+r+k+n,n) = 0 at x = -(r+k+1)..-(r+k+n)
    return -n <= x <= -1 or -(r + 2 * n) <= x <= -r


def _t2_129b_pole(n, r, y):
    # over k = 0..n: y+r+k = 0 and C(y+r+k+n,n) = 0 at y = -(r+k+1)..-(r+k+n)
    return -(r + 2 * n) <= y <= -r


#: Rows whose rational parameter meets poles at negative integers: the
#: parameter, and a test that is true where an integer value of it is a
#: pole of the case.
POLE_ROWS = {
    "eq-13": ("x", lambda n, r, x: x + r == 0),
    "prop-leap-rel": ("x", _leap_rel_pole),
    "t1-12.9a": ("x", lambda n, x: _t2_129a_pole(n, 1, x)),
    "t1-12.9b": ("y", lambda n, y: _t2_129b_pole(n, 1, y)),
    "t2-12.9a": ("x", _t2_129a_pole),
    "t2-12.9b": ("y", _t2_129b_pole),
}


@pytest.mark.parametrize("key", sorted(POLE_ROWS))
def test_poles_are_skipped_with_a_reason(key):
    # Past every pole of the default grids (the last is -(r + 2n) = -26),
    # plus two non-integers between poles.  A pole is a DomainError the
    # row raises where it divides, not a filter.
    identity = get_identity(key)
    name, is_pole = POLE_ROWS[key]
    assert identity.valid is None
    pins = [F(-j) for j in range(1, 29)] + [F(-5, 2), F(-7, 3)]
    poles = 0
    for x in pins:
        with ident.row_scope():
            for vals in ident._cases(identity, None, {name: x}):
                sides = _case_values(identity, vals)
                if x.denominator == 1 and is_pole(*vals):
                    poles += 1
                    assert isinstance(sides[1], DomainError), vals
                    assert "pole" in str(sides[1]), vals
                else:
                    assert not any(isinstance(v, DomainError) for v in sides), vals
    assert poles > 0


@pytest.mark.parametrize(
    "key", [k for k in list_identities() if get_identity(k).valid is not None]
)
def test_every_filter_excludes_a_case(key):
    # A filter drops cases uncounted, so one that excludes nothing on its
    # row's default grid only restates a domain check
    identity = get_identity(key)
    axes = [ident._axis_values(p, None, None) for p in identity.params]
    combos = itertools.product(*axes)
    assert any(not identity.valid(*combo) for combo in combos)


def test_only_five_rows_keep_a_filter():
    # each states a region no product of the row's axes can: a filter
    # drops cases uncounted, so a row whose domain is a grid declares the grid
    assert {k for k in list_identities() if get_identity(k).valid is not None} == {
        "prop-falling", "eq-hhr", "prop-one1-n", "prop-one1-r", "cor-hk-shift"}


def test_eq_pd_differentiates_where_its_rhs_has_a_pole():
    # At z = 0 the lhs, D_z z(z+1)...(z+n-1), is (n-1)!, while the printed
    # rhs z^rising(n) sum 1/(z+i) divides by z
    identity = get_identity("eq-pd")
    for n in range(1, 11):
        assert identity.lhs(n=n, z=F(0)) == math.factorial(n - 1)
        with pytest.raises(DomainError, match="^pole: "):
            identity.rhs(n=n, z=F(0))


def test_quot_of_two_ints_is_exact():
    got = ident.quot(1, 2)
    assert type(got) is F and got == F(1, 2)
    assert ident.quot(F(1, 2), 3) == F(1, 6)


_wide = st.integers(-(2**256), 2**256)
_exact = _wide | st.builds(F, _wide, _wide.filter(bool)) | st.booleans()


@given(_exact, _exact.filter(bool))
def test_quot_of_exact_operands_is_the_fraction_quotient(a, b):
    got, want = ident.quot(a, b), F(a) / F(b)
    assert type(got) is F
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@pytest.mark.parametrize("zero", [0, F(0), False], ids=["int", "fraction", "bool"])
def test_quot_by_an_exact_zero_is_a_pole(zero):
    for a in (0, 3, F(-2, 7)):
        with pytest.raises(DomainError, match="^pole: division by zero$"):
            ident.quot(a, zero)


def test_quot_of_a_float_keeps_the_division():
    # an inexact operand is divided by ``/``, so a float row's value stays a float
    for a, b in ((0.5, 2), (1, 0.25), (F(1, 2), 0.5), (_Float(3.0), F(3, 2))):
        got = ident.quot(a, b)
        assert type(got) is float and got == a / b
    with pytest.raises(DomainError, match="^pole: division by zero$"):
        ident.quot(1, 0.0)


def test_prop_falling_divides_through_quot_at_a_filtered_point():
    # m > r makes r falling m = 0: the filter drops such cases, and each
    # side, called there, skips it as a pole, never a ZeroDivisionError
    identity = get_identity("prop-falling")
    assert not identity.valid(3, 2, 0)
    with ident.row_scope():
        for side in (identity.lhs, identity.rhs):
            with pytest.raises(DomainError, match="^pole: division by zero$"):
                side(3, 2, 0)


@pytest.mark.parametrize(
    "key", ["rem-alpha-beta", "cor-hk-shift", "rem-Hk-hik", "rem-one11-x0"]
)
def test_a_part_the_row_lacks_is_a_counted_skip(key):
    # parts 2..9 run past every row's last part; each such case is skipped
    # with its reason, and the parts the row has still pass
    rep = verify(key, max_bound=3, param_bounds={"part": (2, 9)})
    assert rep.verdict in ("PASS", "SKIPPED")
    assert rep.skipped > 0
    assert all(r["reason"].startswith("no part ") for r in rep.skip_reasons)


def test_t2_12_9b_at_order_one_balances_where_t1_12_9b_fails():
    # The two lhs differ only in the sign of the k/(y+k+1)^2 term: the
    # order-r form at r = 1 equals H(n) on every case of t1-12.9b's grid,
    # and t1-12.9b, as transcribed, fails on every one.
    t1, t2 = get_identity("t1-12.9b"), get_identity("t2-12.9b")
    cases = _named_cases(t1)
    assert len(cases) == 90
    with ident.row_scope():
        for pa in cases:
            n, y = pa["n"], pa["y"]
            order_one = t2.lhs(n=n, r=1, y=y)
            assert order_one == t2.rhs(n=n, r=1, y=y) == ident.H(n), pa
            assert t1.lhs(**pa) != t1.rhs(**pa), pa
            tail = sum((ident.C(n, k) * ident.Cg(y + k, k) / ident.Cg(y + k + 1 + n, n)
                        * F(k) / (y + k + 1) ** 2 for k in range(n + 1)), F(0))
            assert order_one - t1.lhs(**pa) == 2 * tail, pa


def test_a_pinned_row_needs_its_source_registered_first():
    with pytest.raises(KeyError, match="no-such-row"):
        ident._add_pinned("probe-pin", "probe", (), {"probe"}, "no-such-row", {"r": 1})
    assert "probe-pin" not in list_identities()


def _spy(calls):
    def side(n, r, x):
        calls.append((n, r, x))
        return F(0)

    return side


def test_a_pin_between_two_parameters_keeps_the_source_order(monkeypatch):
    # t1-12.9a is t2-12.9a (n, r, x) with r pinned to 1 between n and x,
    # so the pinned row's (n, x) must reach the source as (n, 1, x), by
    # position or by name
    monkeypatch.setattr(ident, "_REGISTRY", dict(ident._REGISTRY))
    calls = []
    source, t1 = get_identity("t2-12.9a"), get_identity("t1-12.9a")
    ident._add("probe-src", "probe", source.params, _spy(calls), _spy(calls), {"probe"})
    ident._add_pinned("probe-pin", "probe", t1.params, {"probe"}, "probe-src", {"r": 1})
    pinned = get_identity("probe-pin")
    x = F(1, 2)
    assert pinned.lhs(2, x) == pinned.lhs(n=2, x=x) == pinned.rhs(2, x=x) == 0
    assert calls == [(2, 1, x)] * 3
    with pytest.raises(TypeError, match="unexpected keyword argument 'r'"):
        pinned.lhs(n=2, r=1)
    with pytest.raises(ValueError, match="no parameter 'k' for probe-src's 'x'"):
        ident._add_pinned("probe-bad", "probe", t1.params, {"probe"}, "probe-src",
                          {"r": 1, "x": "k"})
    calls.clear()
    assert verify("probe-pin").tested == len(_named_cases(t1)) == 90
    assert calls[::2] == calls[1::2] == [
        (pa["n"], 1, pa["x"]) for pa in _named_cases(t1)
    ]
    # the registered row reads the same values as its source at r = 1
    with ident.row_scope():
        for pa in _named_cases(t1):
            assert t1.lhs(*pa.values()) == source.lhs(pa["n"], 1, pa["x"]), pa


def _rhs_with(n, r, hw=None):
    return F(n)


def _shifted(d, n, r):
    return F(n + d)


@pytest.mark.parametrize("arg, fn, role", [
    ("rhs", lambda r, n: F(n), "rhs"),
    ("valid", lambda r, n: True, "valid"),
    ("lhs", lambda n: F(n), "lhs"),
    ("lhs", lambda *vals: F(vals[0]), "lhs"),
    ("readings", [("fine", _rhs_with), ("swapped", lambda r, n: F(n))], "reading 'swapped'"),
], ids=["swapped", "swapped-valid", "too-few", "star-args", "swapped-reading"])
def test_an_evaluator_not_taking_the_parameters_in_order_is_refused(
    monkeypatch, arg, fn, role
):
    # verify passes a case's values by position, so an evaluator that
    # reads them in another order would silently check another identity
    monkeypatch.setattr(ident, "_REGISTRY", dict(ident._REGISTRY))
    evaluators = {"lhs": _rhs_with, "rhs": _rhs_with, arg: fn}
    with pytest.raises(ValueError, match=rf"^probe-order: {role} takes .* \('n', 'r'\)"):
        ident._add("probe-order", "probe", (IntRange("n", 0, 2), IntRange("r", 1, 2)),
                   tags={"probe"}, **evaluators)
    assert "probe-order" not in list_identities()


@pytest.mark.parametrize("names", [("verdict",), ("identity_id",), ("alt", "alt")])
def test_a_reading_named_like_a_report_key_is_refused(monkeypatch, names):
    # the JSON writes each reading's result under its name
    monkeypatch.setattr(ident, "_REGISTRY", dict(ident._REGISTRY))
    with pytest.raises(ValueError, match=rf"^probe-name: reading '{names[-1]}' would overwrite"):
        ident._add("probe-name", "probe", (IntRange("n", 0, 2), IntRange("r", 1, 2)),
                   _rhs_with, _rhs_with, {"probe"},
                   readings=[(name, _rhs_with) for name in names])
    assert "probe-name" not in list_identities()


def test_an_evaluator_may_take_defaulted_arguments_after_the_parameters(monkeypatch):
    monkeypatch.setattr(ident, "_REGISTRY", dict(ident._REGISTRY))
    ident._add("probe-order", "probe", (IntRange("n", 0, 2), IntRange("r", 1, 2)),
               _rhs_with, lambda n, r, d=0: _shifted(d, n, r), {"probe"},
               valid=lambda n, r, sign=1: True,
               readings=[("alternative", _rhs_with)])
    rep = verify("probe-order")
    assert (rep.verdict, rep.tested) == ("PASS", 6)
    assert [(name, alt.verdict) for name, alt in rep.readings] == [("alternative", "PASS")]


# How each hand-written Table-1 row relates to its order-r twin at order
# one, on every case of the Table-1 row's grid: (row, twin, the twin's
# pin, the sides compared, relation(pa, row value, twin value)).  The
# rows that equal their twin at order one are registered as the twin
# pinned to order one, so they have no entry here.
ORDER_ONE_RELATIONS = [
    ("t1-7.13", "t2-7.13", {"j": 1}, ("lhs", "rhs"),
     lambda pa, a, b: a == (-1) ** (pa["n"] + 1) * b),
    # One finding for two FAIL rows: the twin is the row times C(2n, n).
    ("t1-Z.58", "t2-Z.58", {"r": 1}, ("lhs", "rhs", "alternative"),
     lambda pa, a, b: ident.C(2 * pa["n"], pa["n"]) * a == b),
    ("t1-4.3", "t2-4.3", {"r": 1}, ("lhs", "rhs"),
     lambda pa, a, b: a - b == pa["n"] * (1 - pa["x"]) ** (pa["n"] - 1)),
    ("t1-3.100", "t2-3.100", {"r": 1}, ("lhs",), lambda pa, a, b: a == b),
    # h(n, -n) lies in the zero band of the negative-order definition for
    # n >= 2, which halves the twin's rhs there; so t2-3.100 starts at r = 2.
    ("t1-3.100", "t2-3.100", {"r": 1}, ("rhs",),
     lambda pa, a, b: a == (1 if pa["n"] == 1 else 2) * b),
]


@pytest.mark.parametrize(
    "row, twin, pin, sides, relation",
    ORDER_ONE_RELATIONS,
    ids=["-".join((rel[0], *rel[3])) for rel in ORDER_ONE_RELATIONS],
)
def test_table1_row_against_its_twin_at_order_one(row, twin, pin, sides, relation):
    t1, t2 = get_identity(row), get_identity(twin)
    cases = _named_cases(t1)
    assert cases
    with ident.row_scope():
        for pa in cases:
            for side in sides:
                a = _side(t1, side)(**pa)
                b = _side(t2, side)(**pa, **pin)
                assert relation(pa, a, b), (side, pa)


class TestReadings:
    """``verify`` evaluates each case's lhs once for the rhs and every
    further reading, and reports each reading under its name."""

    def _probe(self, monkeypatch, lhs, rhs, zeta, alpha):
        # the names are out of alphabetical order, so the report's order
        # shows it follows the declaration
        probe = Identity(
            key="probe-readings",
            anchor="n = n under three readings",
            params=(IntRange("n", 0, 4),),
            lhs=lhs,
            rhs=rhs,
            tags=frozenset({"probe"}),
            readings=(("zeta", zeta), ("alpha", alpha)),
        )
        monkeypatch.setitem(ident._REGISTRY, probe.key, probe)
        return verify(probe.key)

    @staticmethod
    def _value(n):
        return F(n)

    @staticmethod
    def _raises_at(n0):
        def side(n):
            if n == n0:
                raise DomainError(f"no value at n = {n}")
            return F(n)

        return side

    @staticmethod
    def _results(rep):
        return [(name, r.verdict, r.tested, r.skipped) for name, r in rep.readings]

    def test_json_lists_each_reading_under_its_name_in_order(self, monkeypatch):
        def wrong(n):
            return F(n + (n == 3))

        rep = self._probe(monkeypatch, self._value, self._value, wrong, self._raises_at(1))
        obj = json.loads(json.dumps(rep.to_json_obj()))
        assert list(obj)[-2:] == ["zeta", "alpha"]
        assert (obj["verdict"], obj["tested"], obj["skipped"]) == ("PASS", 5, 0)
        assert obj["zeta"] == {
            "verdict": "FAIL", "tested": 5, "skipped": 0,
            "counterexamples": [{"params": {"n": 3}, "lhs": "3", "rhs": "4"}],
        }
        assert obj["alpha"] == {
            "verdict": "PASS", "tested": 4, "skipped": 1, "counterexamples": [],
            "skip_reasons": [{"params": {"n": 1}, "reason": "no value at n = 1"}],
        }

    def test_lhs_is_called_once_per_case(self, monkeypatch):
        calls = []

        def lhs(n):
            calls.append(n)
            return F(n)

        rep = self._probe(monkeypatch, lhs, self._value, self._value, self._value)
        assert calls == [0, 1, 2, 3, 4]
        assert (rep.verdict, rep.tested) == ("PASS", 5)
        assert self._results(rep) == [("zeta", "PASS", 5, 0), ("alpha", "PASS", 5, 0)]

    def test_lhs_error_skips_every_reading(self, monkeypatch):
        rights = []

        def right(name):
            def side(n):
                rights.append((name, n))
                return F(n)

            return side

        rep = self._probe(monkeypatch, self._raises_at(2), right("rhs"), right("zeta"),
                          right("alpha"))
        assert rights == [(name, n) for n in (0, 1, 3, 4) for name in ("rhs", "zeta", "alpha")]
        assert (rep.tested, rep.skipped) == (4, 1)
        assert rep.skip_reasons == [{"params": {"n": 2}, "reason": "no value at n = 2"}]
        assert self._results(rep) == [("zeta", "PASS", 4, 1), ("alpha", "PASS", 4, 1)]

    def test_a_readings_error_skips_the_case_under_that_reading_only(self, monkeypatch):
        # the rhs is wrong at n = 3, so the rhs's verdict saw that case
        def wrong(n):
            return F(n + (n == 3))

        rep = self._probe(monkeypatch, self._value, wrong, self._raises_at(3), self._value)
        assert (rep.verdict, rep.tested, rep.skipped, rep.failed) == ("FAIL", 5, 0, 1)
        assert rep.counterexamples[0]["params"] == {"n": 3}
        assert rep.skip_reasons == []
        assert self._results(rep) == [("zeta", "PASS", 4, 1), ("alpha", "PASS", 5, 0)]
        zeta, alpha = (result for _, result in rep.readings)
        assert zeta.skip_reasons == [{"params": {"n": 3}, "reason": "no value at n = 3"}]
        assert alpha.skip_reasons == []

    def test_rhs_error_skips_the_case_under_the_rhs_only(self, monkeypatch):
        rep = self._probe(monkeypatch, self._value, self._raises_at(0), self._value,
                          self._value)
        assert (rep.verdict, rep.tested, rep.skipped) == ("PASS", 4, 1)
        assert rep.skip_reasons[0]["params"] == {"n": 0}
        assert self._results(rep) == [("zeta", "PASS", 5, 0), ("alpha", "PASS", 5, 0)]

    def test_an_int_reading_equal_to_a_fraction_lhs_passes(self, monkeypatch):
        # every right side, a reading's as well as the rhs's, passes an
        # equal int/Fraction pair by its integer ratio
        rep = self._probe(monkeypatch, self._value, int, int, lambda n: F(n + 1))
        assert (rep.verdict, rep.tested, rep.failed) == ("PASS", 5, 0)
        assert self._results(rep) == [("zeta", "PASS", 5, 0), ("alpha", "FAIL", 5, 0)]

    def test_a_float_reading_raises_the_rhs_type_error(self, monkeypatch):
        # an exact row's float side is an evaluator bug, not a FAIL, under
        # any reading
        messages = []
        for sides in ((float, self._value, self._value), (self._value, float, self._value)):
            with pytest.raises(TypeError) as exc:
                self._probe(monkeypatch, self._value, *sides)
            messages.append(str(exc.value))
        assert messages == ["an exact side is float, not int or Fraction"] * 2

    def test_a_pinned_row_reports_its_sources_readings(self, monkeypatch):
        monkeypatch.setattr(ident, "_REGISTRY", dict(ident._REGISTRY))
        monkeypatch.setattr(ident, "_PINNED_SOURCE", dict(ident._PINNED_SOURCE))
        ident._add("probe-src", "probe", (IntRange("n", 0, 4), IntRange("r", 1, 3)),
                   lambda n, r: F(n * r), lambda n, r: F(n * r), {"probe"},
                   readings=[("shifted", lambda n, r: F(n * r + (n == 2))),
                             ("scaled", lambda n, r: F(n * r * r))])
        ident._add_pinned("probe-pin", "probe", (IntRange("n", 0, 4),), {"probe"},
                          "probe-src", {"r": 1})
        rep = verify("probe-pin")
        assert (rep.verdict, rep.tested) == ("PASS", 5)
        assert self._results(rep) == [("shifted", "FAIL", 5, 0), ("scaled", "PASS", 5, 0)]
        assert dict(rep.readings)["shifted"].counterexamples == [
            {"params": {"n": 2}, "lhs": "2", "rhs": "3"}]


class TestRowMemos:
    def _sizes(self):
        return [memo.cache_info().currsize for memo in ident._ROW_MEMOS]

    def test_every_memo_is_empty_after_a_full_run(self, full_audit):
        assert sorted(full_audit.rows) == list_identities()
        assert full_audit.memo_sizes == [0] * len(ident._ROW_MEMOS)

    def test_memos_are_emptied_when_a_row_raises(self, monkeypatch):
        def lhs(n):
            # fill every row memo, then fail with a bug
            ident._poly_point(2, n)
            ident._gf_coeff(gf_hyperharmonic, 1, n)
            get_identity("t2-3.108").lhs(n=1, m=2, r=1)
            ident._gould43_power(1, 2, n + 1)
            ident._gould_coeff(-2 * n, n)
            ident._dx_reciprocal_rising(n + 1, n)
            ident._t2_129_k(1, 2, 2, n)
            ident.line_sum([1, -1], ident.h, range(n, n + 2), 2)
            ident._c_pair_row(n, 2, 0)
            ident._c_up_row(1, n)
            ident._c_row(n, -1)
            ident._gould43_row(n, 2)
            ident._falling(n + 2, 2)
            ident._t2_129_n(1, 2, n, 2)
            ident._hyp_twice(1, 2, "sinh", n)
            assert 0 not in self._sizes()
            return F(1, 0)

        probe = Identity(
            key="probe-raise",
            anchor="fills the row memos, then divides by zero",
            params=(IntRange("n", 1, 3),),
            lhs=lhs,
            rhs=lambda n: F(0),
            tags=frozenset({"probe"}),
        )
        monkeypatch.setitem(ident._REGISTRY, probe.key, probe)
        with pytest.raises(ZeroDivisionError):
            verify("probe-raise")
        assert len(ident._ROW_MEMOS) == 15  # the lhs above fills each one
        assert self._sizes() == [0] * 15
        assert ident._line in ident._ROW_MEMOS  # so the lines went too

    @pytest.mark.parametrize(
        "key",
        [
            "t2-3.108", "prop-teo4", "t2-7.2", "prop-one1-n", "t2-12.9a",
            "t2-4.3", "t1-7.15", "t2-7.29", "t2-7.30", "t2-12.9b", "t1-12.9a",
            "prop-one1-r", "t2-1.42", "rem-bgg", "t1-3.2", "eq-13",
            # the rows that read a coefficient row, piece or ball memo
            "t2-6.19", "t1-6.19", "t1-7.2", "t1-3.108", "prop-falling",
            "t1-4.3", "t1-12.9b", "rem-alpha-beta", "gf-hyperharmonic",
            "gf-harmonic", "prop-one11-sinh", "prop-one11-cosh", "rem-one11-x0",
        ],
    )
    def test_row_alone_matches_the_row_in_a_full_run(self, full_audit, key):
        # every field but elapsed
        assert verify(key).to_json_obj() == full_audit.rows[key]


class TestRowPieces:
    """Each coefficient row and piece memo is the per-case expression it
    replaced, and a row of them is a tuple, so no case can change it."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-3, 20), st.integers(-3, 20), st.integers(-3, 12),
           st.sampled_from(ident.SAMPLE_RATIONALS + (F(-1), F(-2), F(-3))))
    def test_each_piece_is_the_expression_it_replaced(self, n, m, r, x):
        C, h = ident.C, ident.h
        ks = range(1, n + 1)
        p, q = x.as_integer_ratio()
        with ident.row_scope():
            assert ident._c_pair_row(n, m, 0) == tuple(C(n, k) * C(m, k) for k in range(n + 1))
            assert ident._c_pair_row(n, m, 1) == tuple(C(n, k) * C(m, k) for k in ks)
            # (3.108)'s second sum at s = r - 1, and prop-falling's at s = r
            # (its m <= r reads the row only at r >= 0)
            assert ident._c_up_row(r - 1, n) == tuple(C(k + r - 1, k) for k in range(n + 1))
            if r >= 0:
                assert ident._c_up_row(r, n) == tuple(C(k + r, r) for k in range(n + 1))
            assert ident._c_row(n, -1) == tuple((-1) ** k * C(n, k) for k in ks)
            assert ident._c_row(n, 1) == tuple(C(n, k) for k in ks)
            if r >= 1:
                assert ident._gould43_row(n, r) == tuple(
                    F(C(n, k) * k, (r - 1 + k) ** 2) for k in ks)
            if m >= 0:
                assert ident._falling(r, m) == ident.falling(F(r), m)
            if n >= 0:
                assert ident._gould43_power(p, q, n) == tuple(
                    (x - k) ** k * (1 - x + k) ** (n - k) for k in ks)
            k = m % 3
            if r >= 1 and x + r + k:
                c, ratio = C(r - 1 + k, k), (x + r + 2 * k) / (x + r + k)
                assert ident._t2_129_k(p, q, r, k) == (
                    ident.Cg(x + k, k) / c, ratio, ratio * h(k, r) / c, k / (x + r + k) ** 2)
            if n >= 1 and r >= 1:
                s = r + k
                big = ident.Cg(x + s + n, n)
                if big:
                    assert ident._t2_129_n(p, q, n, s) == (big, h(n, x + s + 1) / big)
                else:
                    size = ident._t2_129_n.cache_info().currsize
                    for _ in range(2):  # a piece that raises is not stored
                        with pytest.raises(DomainError, match="^pole: division by zero$"):
                            ident._t2_129_n(p, q, n, s)
                    assert ident._t2_129_n.cache_info().currsize == size
            if n >= 0:
                assert ident._cg_diag(x, r - 1, n) == ident.Cg(x + (n + r - 1), n)
                for kind, op in (("sinh", CertifiedReal.__sub__),
                                 ("cosh", CertifiedReal.__add__)):
                    assert ident._hyp_twice(p, q, kind, n) == op(
                        ident.exp_ball(x + n), ident.exp_ball(-x - n))

    @pytest.mark.parametrize("gf", [gf_alpha, gf_beta, gf_hyperharmonic],
                             ids=["alpha", "beta", "hyperharmonic"])
    def test_a_series_coefficient_is_the_fresh_series_one(self, gf):
        with ident.row_scope():
            for r in range(1, 5):
                for n in (0, 1, 20, 31, 32, 33, 63, 64, 65, 130):
                    want = gf(r, n).coeff(n)
                    assert ident._gf_coeff(gf, r, n) == ident._gf_coeff(gf, r, n, 32) == want

    def test_every_memoized_row_is_a_tuple(self):
        with ident.row_scope():
            for row in (ident._c_pair_row(5, 3, 0), ident._c_pair_row(5, 3, 1),
                        ident._c_up_row(2, 5), ident._c_row(5, -1), ident._c_row(5, 1),
                        ident._gould43_row(5, 2), ident._gould43_power(1, 2, 5),
                        ident._t2_129_k(1, 2, 2, 3), ident._t2_129_n(1, 2, 5, 3)):
                assert type(row) is tuple

    @pytest.mark.parametrize("key, pa, message", [
        ("t2-12.9a", {"n": 1, "r": 0, "x": F(-1)}, "h(0, 0) is undefined"),
        ("t2-12.9a", {"n": 0, "r": 0, "x": F(1, 2)}, "h(0, 0) is undefined"),
        ("t2-12.9b", {"n": 1, "r": -1, "y": F(0)},
         "hyperharmonic_neg needs n >= 1 and r >= 1, got (0, 1)"),
    ])
    def test_a_case_keeps_its_first_exception(self, key, pa, message):
        # below the grid's r >= 1, term k's own pieces raise before the
        # pieces it shares at s = k + r, as they did before those were shared
        with ident.row_scope(), pytest.raises(DomainError) as exc:
            get_identity(key).lhs(**pa)
        assert str(exc.value) == message

    def test_rem_alpha_beta_passes_beyond_its_default_n(self):
        # the series cover every n asked for, not just the default 1..20
        rep = verify("rem-alpha-beta", param_bounds={"n": (30, 31)})
        assert (rep.verdict, rep.tested, rep.skipped) == ("PASS", 96, 0)


# -- the sides summed by product_sum or line_sum, against their earlier forms --
#
# Each form below is the side as it was written term by term in Fraction
# arithmetic, with the pieces it read from a memo written out unmemoized.

C, h, H, Hm, quot = ident.C, ident.h, ident.H, ident.Hm, ident.quot


def _form_129_k(x, k, r):
    c = C(r - 1 + k, k)
    ratio = quot(x + r + 2 * k, x + r + k)
    return binomial_general(x + k, k) / c, ratio, ratio * h(k, r) / c, F(k) / (x + r + k) ** 2


def _form_129_n(x, n, s):
    big = binomial_general(x + (s + n), n)
    return big, quot(h(n, x + (s + 1)), big)


def _form_129a(n, r, x):
    total = F(0)
    for k in range(n + 1):
        weight, ratio, head, tail = _form_129_k(x, k, r)
        big, hn = _form_129_n(x, n, k + r)
        total += quot(C(n, k), weight * big) * (head - ratio * hn - tail)
    return total


def _form_129b(n, r, y, sign=1):
    total = F(0)
    for k in range(n + 1):
        weight, ratio, head, tail = _form_129_k(y, k, r)
        big, hn = _form_129_n(y, n, k + r)
        total += quot(C(n, k) * weight, big) * (head + ratio * hn + sign * tail)
    return total


def _form_43_lhs(n, r, x):
    def term(k):
        u, c = x + r - 1, C(r - 1 + k, k)
        return u ** (k - 1) / c * (k - u * h(k, r) / c)

    return sum(((-1) ** k * C(n, k) * term(k) for k in range(1, n + 1)), F(0))


def _form_43_rhs(n, r, x):
    weights = [F(C(n, k) * k, (r - 1 + k) ** 2) for k in range(1, n + 1)]
    return sum((wk * (x - k) ** k * (1 - x + k) ** (n - k)
                for k, wk in enumerate(weights, 1)), F(0))


def _form_teo4_rhs(deg, n, x):
    f = functools.partial(ident._poly_point, deg)
    return F(x) * forward_difference(f, n, x) + n * forward_difference(f, n - 1, x + 1)


def _form_395(n, r, hw=h):
    c = C(r - 1 + n, n)
    return (F(4) ** n / c * (hw(n, F(r) - F(1, 2))
                             - binomial_general(F(r) - F(3, 2) + n, n) * h(n, r) / c))


def _form_79_lhs(n, r):
    return sum((F((-1) ** k * C(n, k) * 4**k, (2 * k + 1) * C(2 * k, k)) * h(k, r)
                for k in range(1, n + 1)), F(0))


def _form_79_rhs(n, r, hw=h):
    return F(4**n, 2 * n + 1) / C(2 * n, n) * hw(n, F(r) - F(1, 2))


def _form_hypergeom(n, r, upper):
    def coeff(k):
        return ident.rising(upper, k) * ident.rising(F(1, 2), k) * 4**k / ident.factorial(k)

    return sum((coeff(k) * dx_reciprocal_rising(n + r, k) for k in range(1, 1 - upper)), F(0))


def _form_z58(n, r, hw=h):
    return F(4) ** n * (binomial_general(F(n) + r - F(3, 2), n) * h(n, r)
                        + C(n + r - 1, n) * hw(n, F(r) - F(1, 2)))


def _form_t1_z58(n, hw=h):
    return F(4) ** n / C(2 * n, n) * (binomial_general(F(n) - F(1, 2), n) * H(n)
                                      + hw(n, F(1, 2)))


def _form_alt(k, term, lo=0):
    """sum_{i=lo..k} (-1)^(k-i) C(k, i) term(i), the k-th difference form."""
    row = signed_binomial_row(k)
    return sum((row[i] * term(i) for i in range(lo, k + 1)), F(0))


def _form_h_over_c2_sum(coeff, n, r):
    """sum_{k=1..n} coeff(k) h(k, r)/C(r-1+k, k)^2."""
    return sum((coeff(k) * (h(k, r) / C(r - 1 + k, k) ** 2) for k in range(1, n + 1)), F(0))


def _form_144(n, r):
    return _form_h_over_c2_sum(lambda k: (-1) ** (k - 1) * C(n + 1, k + 1), n, r)


def _form_hypergeom_rhs(n, r, m):
    return _form_h_over_c2_sum(lambda k: (-1) ** (k + 1) * C(m, k) * C(2 * k, k), m, n + r)


#: cor-hk-shift's (lhs, rhs) of (n, k, r) for each part
_HK_SHIFT_FORMS = (
    (lambda n, k, r: h(n - k, k), lambda n, k, r: _form_alt(k, lambda i: h(n, i))),
    (lambda n, k, r: _form_alt(k, lambda i: h(k, r + i)), lambda n, k, r: F(0)),
)

_half_alt = hyperharmonic_half_integer_alt

#: (row, side): the side's form before product_sum or line_sum summed it; a
#: pinned row's form is its source's at the pins
_EARLIER_FORMS = {
    ("prop-5", "lhs"): lambda n, r: sum((h(s, r - 1) for s in range(1, n + 1)), F(0))
    - sum((h(n - 1, k) for k in range(1, r + 1)), F(0)),
    ("cor-hk-shift", "lhs"): lambda part, n, k, r: ident._part(_HK_SHIFT_FORMS, part)[0](n, k, r),
    ("cor-hk-shift", "rhs"): lambda part, n, k, r: ident._part(_HK_SHIFT_FORMS, part)[1](n, k, r),
    ("cor-lower", "rhs"): lambda k, r: _form_alt(k, lambda i: h(i, r), 1),
    ("rem-Hk-hik", "rhs"): lambda part, k: _form_alt(k, lambda i: h(i, k + 1 - part), 1),
    ("cor-recip", "rhs"): lambda k: sum((C(k, i) * h(i + 1, -i) for i in range(k + 1)), F(0)),
    ("cor-e2", "rhs"): lambda n: sum((C(n, i) * h(i, 1 - i) for i in range(1, n + 1)), F(0)),
    ("rem-doublesum", "rhs"): lambda n: sum((signed_binomial_row(k)[i] * h(i, k)
                                              for k in range(1, n + 1) for i in range(1, k + 1)),
                                             F(0)),
    ("t2-1.44", "lhs"): _form_144,
    ("t1-1.44", "lhs"): lambda n: _form_144(n, 1),
    ("t2-7.13", "lhs"): lambda n, j: _form_h_over_c2_sum(
        lambda k: C(n, k) * C(-n - 1, n - k), n, j),
    ("t2-7.29", "rhs"): lambda n, r: _form_hypergeom_rhs(n, r, 2 * n),
    ("t2-7.30", "rhs"): lambda n, r: _form_hypergeom_rhs(n, r, 2 * n + 1),
    ("prop-bt", "rhs"): lambda n, r: alpha(n, r) * beta(n, r) / (alpha(n, r) - 1),
    ("eq-13", "rhs"): lambda n, r, x: (1 + quot(n, x + r))
    * binomial_general(x + n + r - 1, n),
    ("eq-pd", "rhs"): lambda n, z: ident.rising(z, n) * sum(
        [quot(1, z + i) for i in range(n)], F(0)),
    ("prop-teo4", "lhs"): lambda deg, n, x: forward_difference(
        lambda t: F(t) * ident._poly_point(deg, t), n, x),
    ("prop-teo4", "rhs"): _form_teo4_rhs,
    ("t1-4.3", "lhs"): lambda n, x: -sum(
        ((-1) ** k * C(n, k) * x**k * H(k) for k in range(1, n + 1)), F(0)),
    ("t1-4.3", "rhs"): lambda n, x: n * (1 - x) ** (n - 1) + sum(
        (C(n, k) * (x - k) ** k * (1 - x + k) ** (n - k) / k for k in range(1, n + 1)), F(0)),
    ("t1-7.15", "rhs"): lambda n, r: C(r + n, n) * (Hm(n, 2) - Hm(n + r, 2) + Hm(r, 2))
    + (C(r + n, n) * H(n) - h(n, r + 1)) * (H(n) - H(n + r) + H(r)),
    ("t2-3.95", "rhs"): _form_395,
    ("t2-3.95", "alternative"): functools.partial(_form_395, hw=_half_alt),
    ("t1-3.95", "rhs"): lambda n: _form_395(n, 1),
    ("t1-3.95", "alternative"): lambda n: _form_395(n, 1, _half_alt),
    ("t2-4.3", "lhs"): _form_43_lhs,
    ("t2-4.3", "rhs"): _form_43_rhs,
    ("t2-6.19", "rhs"): lambda n, r, j: h(r, j) * C(n + j - 1, n) + C(r + j - 1, r) * h(n, j),
    ("t1-6.19", "rhs"): lambda n, r: h(r, 1) * C(n, n) + C(r, r) * h(n, 1),
    ("t2-7.2", "rhs"): lambda n, m, r: (
        C(r - 1 + m + n, n) * h(n, r) / C(r - 1 + n, n) - h(n, m + r)) / C(r - 1 + n, n),
    ("t1-7.2", "rhs"): lambda n, r: (C(r + n, n) * h(n, 1) / C(n, n) - h(n, r + 1)) / C(n, n),
    ("t2-7.9", "lhs"): _form_79_lhs,
    ("t2-7.9", "rhs"): _form_79_rhs,
    ("t2-7.9", "alternative"): functools.partial(_form_79_rhs, hw=_half_alt),
    ("t1-7.9", "lhs"): lambda n: _form_79_lhs(n, 1),
    ("t1-7.9", "rhs"): lambda n: _form_79_rhs(n, 1),
    ("t1-7.9", "alternative"): lambda n: _form_79_rhs(n, 1, _half_alt),
    ("t2-7.29", "lhs"): lambda n, r: _form_hypergeom(n, r, -2 * n),
    ("t2-7.30", "lhs"): lambda n, r: _form_hypergeom(n, r, -(2 * n + 1)),
    ("t2-12.9a", "lhs"): _form_129a,
    ("t2-12.9b", "lhs"): _form_129b,
    ("t1-12.9a", "lhs"): lambda n, x: _form_129a(n, 1, x),
    ("t1-12.9b", "lhs"): lambda n, y: _form_129b(n, 1, y, -1),
    ("t1-Z.58", "rhs"): _form_t1_z58,
    ("t1-Z.58", "alternative"): functools.partial(_form_t1_z58, hw=_half_alt),
    ("t2-Z.58", "rhs"): _form_z58,
    ("t2-Z.58", "alternative"): functools.partial(_form_z58, hw=_half_alt),
}


def _widened_grid(identity):
    """Each case of the row's grid widened 3 below every lower bound, with
    x = -1, -2, -3 added to a rational choice."""
    axes = [range(p.lo - 3, p.hi + 1) if isinstance(p, IntRange)
            else p.values + (F(-1), F(-2), F(-3)) for p in identity.params]
    names = [p.name for p in identity.params]
    return [dict(zip(names, values)) for values in itertools.product(*axes)]


def _outcome(fn, pa):
    """A side's value with its type, or its exception class; a DomainError
    with its message too, since the report prints it as a skip reason."""
    try:
        value = fn(**pa)
    except DomainError as exc:
        return DomainError, str(exc)
    except Exception as exc:  # the class is the outcome
        return type(exc), None
    return type(value), value


@pytest.mark.parametrize("key, side", sorted(_EARLIER_FORMS))
def test_a_summed_side_keeps_the_earlier_forms_outcome(key, side):
    cases = _widened_grid(get_identity(key))
    with ident.row_scope():
        want = [_outcome(_EARLIER_FORMS[key, side], pa) for pa in cases]
    with ident.row_scope():
        got = [_outcome(_side(get_identity(key), side), pa) for pa in cases]
    assert [pa for pa, w, g in zip(cases, want, got) if w != g] == []
    assert {w[0] for w in want} & {F, DomainError}  # the grid reaches values


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 20), st.fractions(-4, 20, max_denominator=4))
def test_the_half_integer_alternative_keeps_its_telescoped_form(n, w):
    def form(n, w):
        p, q = w.as_integer_ratio()
        if q != 2 or p < 1:
            raise DomainError(f"order must be m + 1/2 with integer m >= 0, got {w}")
        if n < 1:
            raise DomainError(f"needs n >= 1, got {n}")
        m = p // 2
        tele = (H(2 * (m + n)) - H(2 * m)) - (H(m + n) - H(m))
        return binomial_general(w + n - 1, n) * tele

    assert _outcome(_half_alt, {"n": n, "w": w}) == _outcome(form, {"n": n, "w": w})


#: Fraction constructions in one warm ``verify`` of each row with a side
#: that product_sum sums: 10% above the count measured on CPython 3.11.
#: The term-by-term forms built 1.1-25x as many.  CPython 3.12 and later
#: build arithmetic results without ``Fraction.__new__`` and pass only an
#: int operand through it, so they count no more.  A ceiling of 0 is a row
#: whose sides do no ``Fraction`` arithmetic at all.
FRACTION_CEILINGS = {
    "eq-13": 4436, "prop-bt": 2323, "prop-teo4": 1179,
    "t1-12.9a": 205, "t1-12.9b": 106, "t1-3.95": 577, "t1-4.3": 264,
    "t1-6.19": 0, "t1-7.15": 1430, "t1-7.2": 0, "t1-7.9": 264, "t1-Z.58": 418,
    "t2-12.9a": 832, "t2-12.9b": 832, "t2-3.95": 2102, "t2-4.3": 0,
    "t2-6.19": 0, "t2-7.2": 0, "t2-7.29": 0, "t2-7.30": 0,
    "t2-7.9": 1155, "t2-Z.58": 1617,
}

#: ``Fraction.__hash__`` calls, counted the same way, of the rows whose
#: piece memos take x as its integer pair: 10% above the count on CPython
#: 3.11.  What is left is ``h`` at a rational order (the (12.9) n-pieces)
#: and ``line_sum``'s keys (``t2-4.3``'s lhs); memos keyed on x hashed
#: 1.2-2x as often, and the hyperbolic rows 32-144 times.
HASH_CEILINGS = {
    "t1-12.9a": 891, "t1-12.9b": 891, "t2-12.9a": 759, "t2-12.9b": 759,
    "t2-4.3": 792, "prop-one11-sinh": 0, "prop-one11-cosh": 0, "rem-one11-x0": 0,
}


def _fraction_calls(key, method):
    """Calls of ``Fraction.<method>`` in one warm ``verify`` of ``key``."""
    verify(key)  # fills the h memo and the harmonic tables the row reads
    profile = cProfile.Profile()
    profile.runcall(verify, key)
    profile.create_stats()
    return sum(calls for (path, _, name), (_, calls, *_) in profile.stats.items()
               if name == method and path.endswith("fractions.py"))


@pytest.mark.parametrize("key", sorted(FRACTION_CEILINGS))
def test_a_summed_row_stays_under_its_fraction_ceiling(key):
    assert _fraction_calls(key, "__new__") <= FRACTION_CEILINGS[key]


@pytest.mark.parametrize("key", sorted(HASH_CEILINGS))
def test_a_rational_keyed_row_stays_under_its_hash_ceiling(key):
    assert _fraction_calls(key, "__hash__") <= HASH_CEILINGS[key]


class TestLineSum:
    """``line_sum`` is the per-term dot product, read off one row's line."""

    # (fn, the fixed arguments, where the range goes, its lowest point):
    # h along n at an order of either sign, h along the order at one n
    # (its orders below 1 at n = 0 raise), H along n (0 below n = 1), and
    # h(k, r)/C(r-1+k, k)^2 along k >= 0 at r >= 1
    @staticmethod
    def _lines():
        return st.one_of(
            st.integers(-4, 6).map(lambda w: (ident.h, (w,), 0, -2)),
            st.integers(0, 8).map(lambda n: (ident.h, (n,), 1, -6)),
            st.just((ident.H, (), 0, -3)),
            st.integers(1, 6).map(lambda r: (ident._h_over_c2, (r,), 0, 0)),
        )

    @staticmethod
    def _per_term(coeffs, fn, fixed, axis, points):
        def value(p):
            args = list(fixed)
            args.insert(axis, p)
            return fn(*args)

        return sum((c * value(p) for c, p in zip(coeffs, points)), F(0))

    @staticmethod
    def _outcome(thunk):
        try:
            return thunk()
        except DomainError as exc:
            return type(exc), str(exc)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_the_per_term_sum(self, data):
        fn, fixed, axis, lowest = data.draw(self._lines())
        with ident.row_scope():
            # several sums on one line, so it grows up, down and not at all
            for _ in range(data.draw(st.integers(1, 4))):
                lo = data.draw(st.integers(lowest, 14))
                hi = data.draw(st.integers(lo, lo + 10))
                points = range(lo, hi + 1)
                if data.draw(st.booleans()):
                    points = points[::-1]
                coeffs = data.draw(st.lists(st.integers(-50, 50), min_size=len(points),
                                            max_size=len(points)))
                args = list(fixed)
                args.insert(axis, points)
                got = self._outcome(lambda: ident.line_sum(coeffs, fn, *args))
                want = self._outcome(
                    lambda: self._per_term(coeffs, fn, fixed, axis, points))
                assert got == want
                assert type(got) is type(want)
        assert ident._line.cache_info().currsize == 0

    @pytest.mark.parametrize("fixed, axis, points, message", [
        ((0,), 0, range(3, -1, -1), "h(0, 0) is undefined"),
        ((0,), 0, range(-1, 3), "hyperharmonic needs n >= 0 and r >= 0, got (-1, 0)"),
        ((0,), 1, range(2, -3, -1), "h(0, 0) is undefined"),
        ((0,), 1, range(-3, 3), "hyperharmonic_neg needs n >= 1 and r >= 1, got (0, 3)"),
    ], ids=["n-down-to-h00", "n-from-minus-1", "w-down-to-h00", "w-from-minus-3"])
    def test_a_domain_error_is_the_first_per_term_one(self, fixed, axis, points, message):
        def args(pts):
            out = list(fixed)
            out.insert(axis, pts)
            return out

        coeffs = list(range(1, len(points) + 1))
        with ident.row_scope():
            ident.line_sum([1], ident.h, *args(range(1, 2)))  # the line is warm
            with pytest.raises(DomainError) as per_term:
                self._per_term(coeffs, ident.h, fixed, axis, points)
            raised = []
            for _ in range(2):
                with pytest.raises(DomainError) as line:
                    ident.line_sum(coeffs, ident.h, *args(points))
                raised.append(line.value)
        assert str(per_term.value) == message
        for exc in raised:
            assert type(exc) is type(per_term.value) and str(exc) == message
        # each is a fresh exception, so the second's traceback is no longer
        assert raised[0] is not raised[1]
        depth = [len(traceback.extract_tb(exc.__traceback__)) for exc in raised]
        assert depth[0] == depth[1]

    def test_a_float_argument_is_refused_warm_or_cold(self):
        with ident.row_scope():
            for _ in range(2):  # cold, then after the Fraction line is warm
                with pytest.raises(TypeError, match="^h needs ints or Fractions, got float"):
                    ident.line_sum([1, 1], ident.h, range(1, 3), 0.5)
                ident.line_sum([1, 1], ident.h, range(1, 3), F(1, 2))

    @pytest.mark.parametrize("args", [([1], ident.h, 1, 2), ([1, 1], ident.h, range(2), range(2))],
                             ids=["no-range", "two-ranges"])
    def test_exactly_one_argument_is_a_range(self, args):
        with pytest.raises(TypeError, match="exactly one range"):
            ident.line_sum(*args)

    def test_a_fraction_coefficient_is_exact_and_a_float_one_refused(self):
        with ident.row_scope():
            assert ident.line_sum([F(1, 2), 3], ident.H, range(1, 3)) == F(1, 2) + 3 * F(3, 2)
            with pytest.raises(TypeError):
                ident.line_sum([0.5, 3], ident.H, range(1, 3))

    def test_one_coefficient_per_point(self):
        with pytest.raises(ValueError, match="one coefficient per point"):
            ident.line_sum([1, 2], ident.h, range(3), 1)


class TestFloatRefusal:
    """``Cg``, the line function ``_t2_43_term`` and the rows whose piece
    memos take x's integer pair refuse a float by name, warm or cold."""

    @pytest.mark.parametrize("memo, args, name", [
        (ident.Cg, (3,), "binomial_general"),
        (ident._t2_43_term, (2, 3), "_t2_43_term"),
    ], ids=["Cg", "t2_43_term"])
    def test_a_float_is_refused_warm_or_cold(self, memo, args, name):
        with ident.row_scope():
            for _ in range(2):  # cold, then after F(1, 2) filled the entry
                with pytest.raises(TypeError, match=f"^{name} needs ints or Fractions"):
                    memo(0.5, *args)
                memo(F(1, 2), *args)

    @pytest.mark.parametrize("side, memo", [
        (lambda x: ident._t2_129a_lhs(3, 2, x), ident._t2_129_k),
        (lambda y: ident._t2_129b_lhs(3, 2, y), ident._t2_129_k),
        (lambda x: get_identity("prop-one11-cosh").lhs(3, x), ident._hyp_twice),
        (lambda x: get_identity("t2-4.3").rhs(3, 2, x), ident._gould43_power),
    ], ids=["t2_129a_lhs", "t2_129b_lhs", "hyp_direct", "t2_43_rhs"])
    def test_a_row_refuses_a_float_before_its_memos(self, side, memo):
        with ident.row_scope():
            for _ in range(2):  # cold, then after F(1, 2) filled the memos
                before = [m.cache_info() for m in ident._ROW_MEMOS]
                with pytest.raises(TypeError, match=f"^{memo.__name__} needs ints or Fractions"):
                    side(0.5)
                assert [m.cache_info() for m in ident._ROW_MEMOS] == before
                side(F(1, 2))
            assert memo.cache_info().hits

    def test_equal_rationals_give_equal_values(self):
        with ident.row_scope():
            assert ident.Cg(F(5, 2), 3) == ident.Cg(F(10, 4), 3) == F(5, 16)
            assert ident.Cg(2, 3) == ident.Cg(F(2), 3) == 0


class TestHMemo:
    """``h`` is the one memo of h values, kept for the process."""

    def test_h_outlives_the_row(self):
        assert ident.h not in ident._ROW_MEMOS
        ident.h.cache_clear()
        with ident.row_scope():
            ident.h(4, F(1, 2))
        ident.h(4, F(1, 2))
        info = ident.h.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)

    def test_each_miss_is_one_kernel_call(self, monkeypatch):
        # nothing in sequences caches h a second time: from an empty memo,
        # a full audit calls the kernels once per distinct (n, w)
        calls = []
        for name in ("hyperharmonic", "hyperharmonic_neg", "hyperharmonic_rational_order"):
            def counted(*args, kernel=getattr(ident, name)):
                calls.append(args)
                return kernel(*args)

            monkeypatch.setattr(ident, name, counted)
        ident.h.cache_clear()
        run_suite()
        info = ident.h.cache_info()
        assert len(calls) == info.misses == info.currsize <= 4096


class TestRunSuite:
    def test_a_str_tag_is_one_tag(self):
        assert ident.select("core") == ident.select({"core"}) == sorted(CORE_IDS)

    @pytest.mark.parametrize("tags, only", [({"nope"}, None), ("nope", None), ((), [])])
    def test_an_empty_report_does_not_pass(self, tags, only):
        rep = run_suite(tags, only=only)
        assert rep.entries == [] and rep.all_pass is False

    def test_core_all_pass_small(self):
        rep = run_suite({"core"}, max_bound=8)
        assert rep.all_pass
        assert len(rep.entries) == len(CORE_IDS)

    def test_empty_filter_is_everything(self):
        rep = run_suite(max_bound=3)
        assert {e.key for e in rep.entries} == set(list_identities())

    def test_only_filter(self):
        rep = run_suite({"table1"}, only=["3.95"], max_bound=3)
        assert [e.key for e in rep.entries] == ["t1-3.95"]
        assert ident.select({"table1"}, only=iter(["3.95"])) == ["t1-3.95"]

    @pytest.mark.parametrize("only", ["", [""], []])
    def test_empty_only_filter_selects_nothing(self, only):
        # only=None is the one "no filter" value
        assert ident.select(only=only) == []
        assert run_suite(only=only).entries == []

    def test_vacuous_run_does_not_pass(self):
        # --max 0 empties most domains: a SKIPPED row proves nothing.
        rep = run_suite(max_bound=0)
        counts = rep.counts()
        assert counts["SKIPPED"] > 0 and counts["FAIL"] == 0
        assert rep.all_pass is False

    def test_gf_rows_build_one_series_per_r(self, monkeypatch):
        # n <= 64 is served by the order-64 series; none of order 128.
        built = []

        def recording_gf(r, order):
            built.append((r, order))
            return gf_hyperharmonic(r, order)

        monkeypatch.setattr(ident, "gf_hyperharmonic", recording_gf)
        assert verify("gf-harmonic").verdict == "PASS"
        assert built == [(1, 64)]
        built.clear()
        assert verify("gf-hyperharmonic").verdict == "PASS"
        assert built == [(r, 64) for r in range(1, 9)]

    def test_json_schema(self):
        rep = run_suite({"table2"}, only=["1.42"], max_bound=4)
        data = json.loads(rep.to_json())
        assert isinstance(data, list) and len(data) == 1
        row = data[0]
        for field in ("identity_id", "anchor", "mode", "verdict", "tested",
                      "skipped", "counterexamples"):
            assert field in row
        assert row["verdict"] == "FAIL"
        assert row["counterexamples"][0]["params"] == {"n": 1, "r": 2}

    def test_csv_has_header_and_rows(self):
        rep = run_suite({"float"}, max_bound=3)
        lines = rep.to_csv().splitlines()
        assert lines[0].startswith("identity_id,")
        # the float tag covers the transcendental identities plus the four
        # infinite-series table rows
        float_tagged = FLOAT_IDS | {"t1-1.23", "t1-2.16", "t2-1.23", "t2-2.16"}
        assert len(lines) == len(float_tagged) + 1

    def test_serialization_deterministic(self):
        a = run_suite({"table1"}, only=["Z.58"], max_bound=5)
        b = run_suite({"table1"}, only=["Z.58"], max_bound=5)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_certified_bounds_alone_cover_true_rows(self):
        # The certified radii alone must absorb the floating-point
        # discrepancy of every true float row, over the default domains.
        rep = run_suite({"float"})
        assert rep.all_pass, rep.to_text()
        assert {e.mode for e in rep.entries} == {"float"}


class TestFamilyScope:
    """``run_suite`` runs each family of rows in one ``row_scope()``, so a
    later row of the family reads the row memos an earlier one filled."""

    def _sizes(self):
        return [memo.cache_info().currsize for memo in ident._ROW_MEMOS]

    def test_only_the_outermost_scope_empties_the_memos(self):
        with ident.row_scope():
            with ident.row_scope():
                ident._c_row(5, -1)
            assert ident._c_row.cache_info().currsize == 1
        assert self._sizes() == [0] * len(ident._ROW_MEMOS)
        # a row verified on its own still empties them when it ends
        verify("t1-12.9a", max_bound=3)
        assert self._sizes() == [0] * len(ident._ROW_MEMOS)

    def test_a_row_raising_inside_a_family_empties_the_memos(self, monkeypatch):
        seen = []

        def fill(n):
            ident._c_row(n, -1)
            return F(0)

        def fail(n):
            seen.append(ident._c_row.cache_info().currsize)
            return F(1, 0)

        for key, lhs in (("probe-a", fill), ("probe-b", fail)):
            monkeypatch.setitem(ident._REGISTRY, key, Identity(
                key=key, anchor="probe", params=(IntRange("n", 1, 3),), lhs=lhs,
                rhs=lambda n: F(0), tags=frozenset({"probe"})))
        monkeypatch.setitem(ident._PINNED_SOURCE, "probe-b", "probe-a")
        with pytest.raises(ZeroDivisionError):
            run_suite(only=["probe-a", "probe-b"])
        assert seen == [3]  # probe-b ran with probe-a's entries still there
        assert self._sizes() == [0] * len(ident._ROW_MEMOS)
        assert ident._scope_depth == 0

    @pytest.mark.parametrize("only, calls", [
        (["t2-6.19", "eq-10", "t1-6.19", "eq-11"],
         ["eq-10", "eq-11", "t1-6.19", "t2-6.19"]),
        # cor-nf is prop-one2 at n = 0, so prop-one2 runs before cor-son4
        (["prop-one2", "cor-son4", "cor-nf"], ["cor-nf", "prop-one2", "cor-son4"]),
    ])
    def test_each_key_is_verified_once_and_reported_in_key_order(
            self, monkeypatch, only, calls):
        called = []

        def recording_verify(key, **kwargs):
            called.append(key)
            return verify(key, **kwargs)

        monkeypatch.setattr(ident, "verify", recording_verify)
        rep = run_suite(only=only, max_bound=4)
        assert called == calls
        assert [e.key for e in rep.entries] == sorted(only)
        for e in rep.entries:
            assert e.to_json_obj() == verify(e.key, max_bound=4).to_json_obj()

    @staticmethod
    def _last_row_n_memo(*keys):
        """The hits and misses of ``_t2_129_n``, the memo of the n-pieces by
        (x's pair, n, s), while the last of ``keys`` runs, after the others,
        all in one scope."""
        with ident.row_scope():
            for key in keys[:-1]:
                verify(key)
            before = ident._t2_129_n.cache_info()
            verify(keys[-1])
            after = ident._t2_129_n.cache_info()
        return after.hits - before.hits, after.misses - before.misses

    def test_t1_12_9b_reads_the_n_pieces_t1_12_9a_filled(self):
        # one read per term: 810 terms over the row's cases, each (x, n, k + 1)
        # once, so alone it misses every one and after t1-12.9a hits every one
        assert self._last_row_n_memo("t1-12.9b") == (0, 810)
        assert self._last_row_n_memo("t1-12.9a", "t1-12.9b") == (810, 0)

    @pytest.mark.parametrize("key, family", [
        ("eq-hrp", "1.41"), ("t1-12.9b", "12.9"), ("t2-12.9a", "12.9"),
        ("t1-Z.58", "Z.58"), ("cor-nf", "prop-one2"), ("prop-one1-n", "prop-one1-n"),
    ])
    def test_the_family_of_a_row(self, key, family):
        assert ident._family(key) == family
