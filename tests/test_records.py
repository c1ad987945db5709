"""Behaviour of the package's record classes.

Each record is constructed by position and by keyword, compares and
prints by its fields in declaration order, and keeps that behaviour
whatever the class is built from.  Frozen records refuse assignment and
hash by their fields; mutable ones take assignment, do not hash, and
get a fresh list or dict for each defaulted container.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from hyperseq.analytic import CertifiedReal
from hyperseq.cli import CliConfig
from hyperseq.identities import (
    AuditReport,
    ConventionResult,
    Identity,
    IdentityReport,
    IntRange,
    RationalChoice,
)
from hyperseq.opcalc import PowerSeries

F = Fraction


def _lhs(pa):
    return F(pa["n"])


def _rhs(pa):
    return F(pa["n"])


def _valid(pa):
    return pa["n"] > 0


_CONVENTION = ConventionResult("FAIL", 4, 1, [{"params": {"n": 2}}])

_IDENTITY_REPORT = IdentityReport(
    "probe", "h = h", "exact", "PASS", 3, 1, [], [{"reason": "pole"}],
    _CONVENTION, 0.25,
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
        ("alt_rhs", _rhs),
    ),
    ConventionResult: (
        ("verdict", "FAIL"),
        ("tested", 4),
        ("skipped", 1),
        ("counterexamples", [{"params": {"n": 2}}]),
    ),
    IdentityReport: (
        ("key", "probe"),
        ("anchor", "h = h"),
        ("mode", "exact"),
        ("verdict", "PASS"),
        ("tested", 3),
        ("skipped", 1),
        ("counterexamples", []),
        ("skip_reasons", [{"reason": "pole"}]),
        ("alternative", _CONVENTION),
        ("elapsed", 0.25),
    ),
    AuditReport: (("entries", [_IDENTITY_REPORT]),),
    CliConfig: (
        ("bounds", {"n": (None, 4)}),
        ("format", "json"),
        ("counterexamples", 2),
    ),
}

FROZEN = (CertifiedReal, PowerSeries, IntRange, RationalChoice, Identity)
MUTABLE = (ConventionResult, IdentityReport, AuditReport, CliConfig)

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


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
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


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda c: c.__name__)
def test_mutable_records_take_assignment_and_do_not_hash(cls):
    record = _build(cls)
    name, value = RECORDS[cls][-1]
    setattr(record, name, _changed(value))
    assert getattr(record, name) == _changed(value)
    assert record != _build(cls)
    with pytest.raises(TypeError):
        hash(record)


def test_defaults():
    assert CliConfig() == CliConfig({}, "text", 5)
    report = IdentityReport("k", "a", "exact", "PASS", 1, 0, [])
    assert (report.skip_reasons, report.alternative, report.elapsed) == ([], None, 0.0)
    identity = Identity("k", "a", (), _lhs, _rhs, frozenset())
    assert (identity.mode, identity.valid, identity.alt_rhs) == (
        "exact", None, None,
    )
    assert not identity.dual_convention


def test_default_containers_are_not_shared():
    first, second = CliConfig(), CliConfig()
    first.bounds["n"] = (None, 3)
    assert second.bounds == {}
    reports = [IdentityReport("k", "a", "exact", "PASS", 1, 0, []) for _ in range(2)]
    reports[0].skip_reasons.append({"reason": "pole"})
    assert reports[1].skip_reasons == []


def test_power_series_needs_a_constant_term():
    with pytest.raises(ValueError):
        PowerSeries(())


def test_power_series_coefficients_become_fractions():
    series = PowerSeries([1, F(1, 2), 3])
    assert series.coeffs == (F(1), F(1, 2), F(3))
    assert isinstance(series.coeffs, tuple)
    assert all(type(c) is Fraction for c in series.coeffs)
    assert series == PowerSeries(coeffs=(F(1), F(1, 2), F(3)))
