"""Behaviour of the package's record classes.

Each record is constructed by position and by keyword, compares and
prints by its fields in declaration order, and keeps that behaviour
whatever the class is built from.  Every record refuses assignment and
deletion, the reports ``verify`` and ``run_suite`` return too, and
hashes by its fields; one holding a list does not hash, as a tuple
holding one does not.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from hyperseq.analytic import CertifiedReal
from hyperseq.identities import (
    AuditReport,
    ConventionResult,
    Identity,
    IdentityReport,
    IntRange,
    RationalChoice,
    run_suite,
    verify,
)
from hyperseq.opcalc import PowerSeries

F = Fraction


def _lhs(pa):
    return F(pa["n"])


def _rhs(pa):
    return F(pa["n"])


def _valid(pa):
    return pa["n"] > 0


_CONVENTION = ConventionResult("FAIL", 4, 1, [{"params": {"n": 2}}], [{"reason": "pole"}])

_IDENTITY_REPORT = IdentityReport(
    "probe", "h = h", "exact", "PASS", 3, 1, 0, [], [{"reason": "pole"}],
    (("alternative", _CONVENTION),), 0.25,
)

#: class -> ((field name, value), ...) in declaration order, every field set.
RECORDS = {
    CertifiedReal: (("value", 1.5), ("abs_error_bound", 1e-9)),
    PowerSeries: (("coeffs", (F(1), F(1, 2))),),
    IntRange: (("name", "n"), ("lo", 0), ("hi", 3)),
    RationalChoice: (("name", "x"), ("values", (F(0), F(1, 2)))),
    Identity: (
        ("key", "probe"),
        ("anchor", "n = n"),
        ("params", (IntRange("n", 1, 3),)),
        ("lhs", _lhs),
        ("rhs", _rhs),
        ("tags", frozenset({"probe"})),
        ("valid", _valid),
        ("readings", (("alternative", _rhs),)),
    ),
    ConventionResult: (
        ("verdict", "FAIL"),
        ("tested", 4),
        ("skipped", 1),
        ("counterexamples", [{"params": {"n": 2}}]),
        ("skip_reasons", [{"reason": "pole"}]),
    ),
    IdentityReport: (
        ("key", "probe"),
        ("anchor", "h = h"),
        ("mode", "exact"),
        ("verdict", "PASS"),
        ("tested", 3),
        ("skipped", 1),
        ("failed", 0),
        ("counterexamples", []),
        ("skip_reasons", [{"reason": "pole"}]),
        ("readings", (("alternative", _CONVENTION),)),
        ("elapsed", 0.25),
    ),
    AuditReport: (("entries", [_IDENTITY_REPORT]),),
}

#: The records above whose every field value hashes.
HASHABLE = (CertifiedReal, PowerSeries, IntRange, RationalChoice, Identity)

_ids = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


def _build(cls, by_keyword=False):
    fields = RECORDS[cls]
    if by_keyword:
        return cls(**dict(fields))
    return cls(*(value for _, value in fields))


def _changed(value):
    """A value of the same kind that compares unequal to ``value``."""
    if isinstance(value, (tuple, list)):
        return value + value[:1] if value else type(value)([None])
    if isinstance(value, dict):
        return {**value, "other": None}
    if isinstance(value, frozenset):
        return value | {"other"}
    if isinstance(value, str):
        return value + "'"
    if isinstance(value, ConventionResult):
        return ConventionResult("PASS", 0, 0, [])
    if callable(value):
        return lambda pa: None
    return value + 1


@_ids
def test_position_and_keyword_construct_equal_records(cls):
    by_position, by_keyword = _build(cls), _build(cls, by_keyword=True)
    assert by_position == by_keyword
    for name, value in RECORDS[cls]:
        assert getattr(by_position, name) == value


@_ids
def test_repr_lists_fields_in_order(cls):
    fields = ", ".join(f"{name}={value!r}" for name, value in RECORDS[cls])
    assert repr(_build(cls)) == f"{cls.__name__}({fields})"


@_ids
def test_equality_is_by_every_field(cls):
    record = _build(cls)
    assert record != object()
    for name, value in RECORDS[cls]:
        fields = dict(RECORDS[cls])
        fields[name] = _changed(value)
        assert cls(**fields) != record, name


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda c: c.__name__)
def test_frozen_records_refuse_assignment_and_hash(cls):
    record = _build(cls)
    name, value = RECORDS[cls][0]
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) == value
    assert hash(record) == hash(_build(cls, by_keyword=True))
    assert len({record, _build(cls)}) == 1


@_ids
def test_copies_equal_the_original(cls):
    record = _build(cls)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record


@pytest.mark.parametrize(
    "cls", (CertifiedReal, PowerSeries, IntRange, RationalChoice),
    ids=lambda c: c.__name__,
)
def test_frozen_records_pickle(cls):
    record = _build(cls)
    assert pickle.loads(pickle.dumps(record)) == record


@_ids
def test_every_record_refuses_assignment(cls):
    record = _build(cls)
    for name, value in RECORDS[cls]:
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(record, name, _changed(value))
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(record, name)
    assert record == _build(cls)


def test_the_reports_verify_and_run_suite_return_refuse_assignment():
    report = verify("prop-5", max_bound=3)
    with pytest.raises(AttributeError):
        report.verdict = "FAIL"
    with pytest.raises(AttributeError):
        del report.counterexamples
    ((_, alternative),) = verify("t1-Z.58", max_bound=3).readings
    with pytest.raises(AttributeError):
        alternative.verdict = "FAIL"
    audit = run_suite(only=["prop-5"], max_bound=3)
    with pytest.raises(AttributeError):
        audit.entries = []
    assert report.verdict == audit.entries[0].verdict == "PASS"


@pytest.mark.parametrize("cls", [c for c in RECORDS if c not in HASHABLE],
                         ids=lambda c: c.__name__)
def test_a_record_holding_a_list_does_not_hash(cls):
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        hash(_build(cls))


def test_a_record_holding_only_tuples_hashes():
    result = ConventionResult("FAIL", 4, 1, ((("n", 2),),))
    assert hash(result) == hash(ConventionResult("FAIL", 4, 1, ((("n", 2),),)))
    assert len({AuditReport(()), AuditReport(())}) == 1


def test_defaults():
    report = IdentityReport("k", "a", "exact", "PASS", 1, 0, 0, [])
    assert (report.skip_reasons, report.readings, report.elapsed) == ((), (), 0.0)
    assert ConventionResult("PASS", 1, 0, []).skip_reasons == ()
    identity = Identity("k", "a", (), _lhs, _rhs, frozenset())
    assert (identity.mode, identity.valid, identity.readings) == ("exact", None, ())


def test_power_series_needs_a_constant_term():
    with pytest.raises(ValueError):
        PowerSeries(())


def test_power_series_coefficients_become_fractions():
    series = PowerSeries([1, F(1, 2), 3])
    assert series.coeffs == (F(1), F(1, 2), F(3))
    assert isinstance(series.coeffs, tuple)
    assert all(type(c) is Fraction for c in series.coeffs)
    assert series == PowerSeries(coeffs=(F(1), F(1, 2), F(3)))
