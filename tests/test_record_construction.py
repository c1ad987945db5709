"""Records take exactly their declared fields.

Leaving out a field that has no default, passing a keyword that is not a
field, or passing more positional values than there are fields raises
``TypeError``; setting an attribute that is not a field raises
``AttributeError``, and no record has an instance ``__dict__``.
"""

import pytest

from hyperseq.analytic import CertifiedReal
from hyperseq.identities import (
    AuditReport,
    ConventionResult,
    Identity,
    IdentityReport,
    IntRange,
    RationalChoice,
)
from hyperseq.opcalc import PowerSeries
from test_records import RECORDS

#: class -> the fields it cannot be built without.
REQUIRED = {
    CertifiedReal: ("value", "abs_error_bound"),
    PowerSeries: ("coeffs",),
    IntRange: ("name", "lo", "hi"),
    RationalChoice: ("name", "values"),
    Identity: ("key", "anchor", "params", "lhs", "rhs", "tags"),
    ConventionResult: ("verdict", "tested", "skipped", "counterexamples"),
    IdentityReport: (
        "key", "anchor", "mode", "verdict", "tested", "skipped", "counterexamples",
    ),
    AuditReport: ("entries",),
}

_ids = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


def _without(cls, name):
    return {f: v for f, v in RECORDS[cls] if f != name}


@_ids
def test_missing_required_field_is_refused(cls):
    for name in REQUIRED[cls]:
        with pytest.raises(TypeError):
            cls(**_without(cls, name))


@_ids
def test_unknown_keyword_is_refused(cls):
    with pytest.raises(TypeError):
        cls(**dict(RECORDS[cls]), not_a_field=1)


@_ids
def test_extra_positional_value_is_refused(cls):
    values = [value for _, value in RECORDS[cls]]
    with pytest.raises(TypeError):
        cls(*values, values[-1])


@_ids
def test_setting_a_non_field_attribute_is_refused(cls):
    record = cls(**dict(RECORDS[cls]))
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert not hasattr(record, "__dict__")
