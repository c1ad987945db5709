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
from hyperseq.opcalc import gf_hyperharmonic
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
                _, lv, rights = next(ident._cases(identity, None, None))
            sides = [lv, *rights]
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
        assert rep.alternative is not None
        assert rep.alternative.verdict == "FAIL"

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
        assert rep.alternative.verdict == "PASS"

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
            pa = next(ident._assignments(identity, 3, None))
            assert identity.lhs(**pa) == identity.lhs(**pa)
            assert identity.rhs(**pa) == identity.rhs(**pa)

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
            for pa, lv, rights in ident._cases(identity, None, {name: x}):
                if x.denominator == 1 and is_pole(**pa):
                    poles += 1
                    assert isinstance(rights[0], DomainError), pa
                    assert "pole" in str(rights[0]), pa
                else:
                    sides = [lv, *rights]
                    assert not any(isinstance(v, DomainError) for v in sides), pa
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
    assert any(not identity.valid(**dict(combo)) for combo in combos)


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
    cases = list(ident._assignments(t1, None, None))
    assert len(cases) == 90
    with ident.row_scope():
        for pa in cases:
            n, y = pa["n"], pa["y"]
            order_one = t2.lhs(n=n, r=1, y=y)
            assert order_one == t2.rhs(n=n, r=1, y=y) == ident.H(n), pa
            assert t1.lhs(**pa) != t1.rhs(**pa), pa
            tail = ident.bsum(
                0, n,
                lambda k: ident.C(n, k) * ident.Cg(y + k, k) / ident.Cg(y + k + 1 + n, n),
                lambda k: F(k) / (y + k + 1) ** 2,
            )
            assert order_one - t1.lhs(**pa) == 2 * tail, pa


def test_a_pinned_row_needs_its_source_registered_first():
    with pytest.raises(KeyError, match="no-such-row"):
        ident._add_pinned("probe-pin", "probe", (), {"probe"}, "no-such-row", {"r": 1})
    assert "probe-pin" not in list_identities()


# How each hand-written Table-1 row relates to its order-r twin at order
# one, on every case of the Table-1 row's grid: (row, twin, the twin's
# pin, the sides compared, relation(pa, row value, twin value)).  The
# rows that equal their twin at order one are registered as the twin
# pinned to order one, so they have no entry here.
ORDER_ONE_RELATIONS = [
    ("t1-7.13", "t2-7.13", {"j": 1}, ("lhs", "rhs"),
     lambda pa, a, b: a == (-1) ** (pa["n"] + 1) * b),
    # One finding for two FAIL rows: the twin is the row times C(2n, n).
    ("t1-Z.58", "t2-Z.58", {"r": 1}, ("lhs", "rhs", "alt_rhs"),
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
    cases = list(ident._assignments(t1, None, None))
    assert cases
    with ident.row_scope():
        for pa in cases:
            for side in sides:
                a = getattr(t1, side)(**pa)
                b = getattr(t2, side)(**pa, **pin)
                assert relation(pa, a, b), (side, pa)


class TestOnePass:
    """``verify`` evaluates each case once for both conventions."""

    def _probe(self, monkeypatch, lhs, rhs, alt_rhs):
        probe = Identity(
            key="probe-dual",
            anchor="n = n under two conventions",
            params=(IntRange("n", 0, 4),),
            lhs=lhs,
            rhs=rhs,
            tags=frozenset({"probe"}),
            alt_rhs=alt_rhs,
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

    def test_lhs_is_called_once_per_case(self, monkeypatch):
        calls = []

        def lhs(n):
            calls.append(n)
            return F(n)

        rep = self._probe(monkeypatch, lhs, self._value, self._value)
        assert calls == [0, 1, 2, 3, 4]
        assert (rep.verdict, rep.tested) == ("PASS", 5)
        assert (rep.alternative.verdict, rep.alternative.tested) == ("PASS", 5)

    def test_lhs_error_skips_both_conventions(self, monkeypatch):
        rights = []

        def rhs(n):
            rights.append(n)
            return F(n)

        rep = self._probe(monkeypatch, self._raises_at(2), rhs, rhs)
        assert rights == [0, 0, 1, 1, 3, 3, 4, 4]  # none at n = 2
        assert (rep.tested, rep.skipped) == (4, 1)
        assert rep.skip_reasons == [{"params": {"n": 2}, "reason": "no value at n = 2"}]
        alt = rep.alternative
        assert (alt.verdict, alt.tested, alt.skipped) == ("PASS", 4, 1)

    def test_alt_rhs_error_skips_only_the_alternative(self, monkeypatch):
        # the main rhs is wrong at n = 3, so the main verdict saw that case
        def wrong(n):
            return F(n + (n == 3))

        rep = self._probe(monkeypatch, self._value, wrong, self._raises_at(3))
        assert (rep.verdict, rep.tested, rep.skipped) == ("FAIL", 5, 0)
        assert rep.counterexamples[0]["params"] == {"n": 3}
        assert rep.skip_reasons == []
        alt = rep.alternative
        assert (alt.verdict, alt.tested, alt.skipped) == ("PASS", 4, 1)

    def test_rhs_error_skips_only_the_main_convention(self, monkeypatch):
        rep = self._probe(monkeypatch, self._value, self._raises_at(0), self._value)
        assert (rep.verdict, rep.tested, rep.skipped) == ("PASS", 4, 1)
        assert rep.skip_reasons[0]["params"] == {"n": 0}
        alt = rep.alternative
        assert (alt.verdict, alt.tested, alt.skipped) == ("PASS", 5, 0)


class TestRowMemos:
    def _sizes(self):
        return [memo.cache_info().currsize for memo in ident._ROW_MEMOS]

    def test_every_memo_is_empty_after_a_full_run(self, full_audit):
        assert sorted(full_audit.rows) == list_identities()
        assert full_audit.memo_sizes == [0] * len(ident._ROW_MEMOS)

    def test_memos_are_emptied_when_a_row_raises(self, monkeypatch):
        def lhs(n):
            # fill every row memo, then fail with a bug
            ident._h_over_c2(n, 2)
            ident.Cg(F(1, 2), n)
            ident._poly_point(2, n)
            ident._gf_hyper_coeff(1, n)
            get_identity("t2-3.108").lhs(n=1, m=2, r=1)
            ident._gould43_power(F(1, 2), n + 1, n)
            ident._t2_43_term(F(1, 2), n, 2)
            ident._gould_coeff(-2 * n, n)
            ident._dx_reciprocal_rising(n + 1, n)
            ident._t2_129_k(F(1, 2), n, 2)
            ident.line_sum([1, -1], ident.h, range(n, n + 2), 2)
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
        assert len(ident._ROW_MEMOS) == 11  # the lhs above fills each one
        assert self._sizes() == [0] * 11
        assert ident._line in ident._ROW_MEMOS  # so the lines went too

    @pytest.mark.parametrize(
        "key",
        [
            "t2-3.108", "prop-teo4", "t2-7.2", "prop-one1-n", "t2-12.9a",
            "t2-4.3", "t1-7.15", "t2-7.29", "t2-7.30", "t2-12.9b", "t1-12.9a",
            "prop-one1-r", "t2-1.42", "rem-bgg", "t1-3.2", "eq-13",
        ],
    )
    def test_row_alone_matches_the_row_in_a_full_run(self, full_audit, key):
        # every field but elapsed
        assert verify(key).to_json_obj() == full_audit.rows[key]


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

        return ident.dot(coeffs, [value(p) for p in points])

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


class TestRatioMemos:
    """The row memos of a rational argument are keyed on its integer ratio."""

    @pytest.mark.parametrize("memo, args, name", [
        (ident.Cg, (3,), "binomial_general"),
        (ident._gould43_power, (3, 2), "_gould43_power"),
        (ident._t2_43_term, (2, 3), "_t2_43_term"),
        (ident._t2_129_k, (2, 3), "_t2_129_k"),
    ], ids=["Cg", "gould43_power", "t2_43_term", "t2_129_k"])
    def test_a_float_is_refused_warm_or_cold(self, memo, args, name):
        with ident.row_scope():
            for _ in range(2):  # cold, then after F(1, 2) filled the entry
                with pytest.raises(TypeError, match=f"^{name} needs ints or Fractions"):
                    memo(0.5, *args)
                memo(F(1, 2), *args)

    def test_equal_rationals_share_one_entry(self):
        with ident.row_scope():
            assert ident.Cg(F(5, 2), 3) == ident.Cg(F(10, 4), 3) == F(5, 16)
            assert ident.Cg(2, 3) == ident.Cg(F(2), 3) == 0
            assert [m.cache_info().currsize for m in ident._ROW_MEMOS
                    if m.cache_info().currsize] == [2]


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
