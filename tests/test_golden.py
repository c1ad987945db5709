"""Golden gates for the full audit.

Two fixtures pin the audit's results byte for byte:

* ``fixtures/audit_full.json`` is the exact stdout of
  ``hyperseq audit --format json`` over the default domains.
* ``fixtures/audit_rows.json`` maps every exact row (and ``<key>@alt``
  for the alternative half-integer convention of a dual-convention row)
  to a sha256 over the canonical ``p/q`` strings of both sides on every
  case.  It catches an evaluator rewrite that changes a value while the
  row still passes, e.g. a symmetric row whose two sides share a helper.

Regenerate both (only when a report change is intended) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from hyperseq.cli import main as cli_main
from hyperseq.errors import DomainError
from hyperseq.exactnum import format_rational
from hyperseq.identities import (
    _ROW_MEMOS,
    _assignments,
    get_identity,
    list_identities,
    row_scope,
)

FIXTURES = Path(__file__).parent / "fixtures"
AUDIT_JSON = FIXTURES / "audit_full.json"
ROW_DIGESTS = FIXTURES / "audit_rows.json"


def _side_digest(identity, lhs, rhs) -> str:
    h = hashlib.sha256()
    for pa in _assignments(identity, None, None):
        params = json.dumps(
            {k: format_rational(v) for k, v in pa.items()}, sort_keys=True
        )
        try:
            line = f"{params}\t{format_rational(lhs(pa))}\t{format_rational(rhs(pa))}"
        except DomainError:
            line = f"{params}\tskip"
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def row_digests() -> dict:
    out = {}
    for key in list_identities():
        identity = get_identity(key)
        if identity.mode != "exact":
            continue
        with row_scope():
            out[key] = _side_digest(identity, identity.lhs, identity.rhs)
            if identity.dual_convention:
                out[key + "@alt"] = _side_digest(
                    identity, identity.lhs, identity.alt_rhs
                )
    return out


@pytest.fixture(scope="module")
def digests_then_memo_sizes():
    """``row_digests()`` and the size of every row memo right after it."""
    got = row_digests()
    return got, [memo.cache_info().currsize for memo in _ROW_MEMOS]


def audit_stdout() -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli_main(["audit", "--format", "json"])
    return buf.getvalue()


def test_full_audit_json_is_byte_identical():
    assert audit_stdout() == AUDIT_JSON.read_text()


def test_exact_row_digests(digests_then_memo_sizes):
    expected = json.loads(ROW_DIGESTS.read_text())
    got, _ = digests_then_memo_sizes
    assert sorted(got) == sorted(expected)
    changed = [k for k in expected if got[k] != expected[k]]
    assert changed == []


def test_row_memos_are_empty_after_row_digests(digests_then_memo_sizes):
    # the digests call lhs/rhs directly, outside verify
    _, sizes = digests_then_memo_sizes
    assert sizes == [0] * len(_ROW_MEMOS)


def test_fixture_covers_every_exact_row_and_convention():
    expected = json.loads(ROW_DIGESTS.read_text())
    rows = [k for k in expected if not k.endswith("@alt")]
    alts = [k for k in expected if k.endswith("@alt")]
    assert len(rows) == 74
    assert len(alts) == 6


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    AUDIT_JSON.write_text(audit_stdout())
    ROW_DIGESTS.write_text(json.dumps(row_digests(), indent=2, sort_keys=True) + "\n")
