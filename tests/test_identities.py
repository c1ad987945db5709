import json
from fractions import Fraction

import pytest

import hyperseq.identities as ident
from hyperseq.identities import (
    Identity,
    IntRange,
    get_identity,
    list_identities,
    run_suite,
    verify,
)

F = Fraction

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
        assert identity.lhs({"n": 3, "r": 2}) == F(1, 3)
        assert identity.rhs({"n": 3, "r": 2}) == F(1, 3)

    def test_t1_619_spot(self):
        identity = get_identity("t1-6.19")
        assert identity.lhs({"n": 2, "r": 2}) == 3
        assert identity.rhs({"n": 2, "r": 2}) == 3

    def test_t1_336_spot(self):
        identity = get_identity("t1-3.36")
        assert identity.lhs({"n": 1}) == 1
        assert identity.rhs({"n": 1}) == 1

    def test_t1_622_spot(self):
        identity = get_identity("t1-6.22")
        assert identity.lhs({"n": 1}) == -2
        assert identity.rhs({"n": 1}) == -2

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
            assert identity.lhs(pa) == identity.lhs(pa)
            assert identity.rhs(pa) == identity.rhs(pa)

    def test_skipped_assignments_recorded_with_reason(self):
        probe = Identity(
            key="probe",
            anchor="h(n,0) = 1/n",
            params=(IntRange("n", 0, 3),),
            lhs=lambda v: ident.hyperharmonic(v["n"], 0),
            rhs=lambda v: F(1, v["n"]) if v["n"] else F(0),
            tags=frozenset({"probe"}),
        )
        verdict, tested, skipped, cex, reasons = ident._evaluate_pair(
            probe, probe.lhs, probe.rhs, ident._assignments(probe, None, None), 5, None
        )
        assert (verdict, tested, skipped) == ("PASS", 3, 1)
        assert reasons[0]["params"] == {"n": 0}
        assert "h(0, 0)" in reasons[0]["reason"]

    def test_evaluator_bug_is_raised_not_skipped(self, monkeypatch):
        # Only DomainError marks a case as outside the domain; a division
        # by zero inside an evaluator is a bug and must surface.
        probe = Identity(
            key="probe-zero",
            anchor="1/(n-n) = 0",
            params=(IntRange("n", 1, 3),),
            lhs=lambda v: F(1, v["n"] - v["n"]),
            rhs=lambda v: F(0),
            tags=frozenset({"probe"}),
        )
        monkeypatch.setitem(ident._REGISTRY, probe.key, probe)
        with pytest.raises(ZeroDivisionError):
            verify("probe-zero")


@pytest.fixture(scope="module")
def full_audit():
    return run_suite()


class TestRowMemos:
    def _sizes(self):
        return [memo.cache_info().currsize for memo in ident._ROW_MEMOS]

    def test_every_memo_is_empty_after_a_full_run(self, full_audit):
        assert len(full_audit.entries) == len(list_identities())
        assert self._sizes() == [0] * len(ident._ROW_MEMOS)

    def test_memos_are_emptied_when_a_row_raises(self, monkeypatch):
        def lhs(v):
            # fill every row memo, then fail with a bug
            ident._hz(v["n"] + 1, -1)
            ident._h_over_c2(v["n"], 2)
            ident.binomial_general(F(1, 2), v["n"])
            ident._fixed_poly(2)(v["n"])
            get_identity("t2-3.108").lhs({"n": 1, "m": 2, "r": 1})
            return F(1, 0)

        probe = Identity(
            key="probe-raise",
            anchor="fills the row memos, then divides by zero",
            params=(IntRange("n", 1, 3),),
            lhs=lhs,
            rhs=lambda v: F(0),
            tags=frozenset({"probe"}),
        )
        monkeypatch.setitem(ident._REGISTRY, probe.key, probe)
        with pytest.raises(ZeroDivisionError):
            verify("probe-raise")
        assert len(ident._ROW_MEMOS) == 5  # the lhs above fills each one
        assert self._sizes() == [0] * 5

    @pytest.mark.parametrize(
        "key", ["t2-3.108", "prop-teo4", "t2-7.2", "prop-one1-n", "t2-12.9a"]
    )
    def test_row_alone_matches_the_row_in_a_full_run(self, full_audit, key):
        in_suite = next(e for e in full_audit.entries if e.key == key)
        alone = verify(key)
        # every field but elapsed
        assert alone.to_json_obj() == in_suite.to_json_obj()


class TestRunSuite:
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

    def test_vacuous_run_does_not_pass(self):
        # --max 0 empties most domains: a SKIPPED row proves nothing.
        rep = run_suite(max_bound=0)
        counts = rep.counts()
        assert counts["SKIPPED"] > 0 and counts["FAIL"] == 0
        assert rep.all_pass is False

    def test_gf_rows_build_one_series_per_r(self):
        # n <= 64 is served by the order-64 series; none of order 128.
        ident._gf_hyper_cached.cache_clear()
        for key in ("gf-harmonic", "gf-hyperharmonic"):
            assert verify(key).verdict == "PASS"
        assert ident._gf_hyper_cached.cache_info().currsize == 8

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
        # With the tolerance forced to ~zero the certified error bounds must
        # still absorb the floating-point discrepancy of every true float
        # row; this is the honesty check on CertifiedReal.
        rep = run_suite({"float"}, max_bound=10, tolerance_override=1e-30)
        assert rep.all_pass, rep.to_text()
