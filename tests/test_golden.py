"""Golden gates for the full audit.

Two fixtures pin the audit's results byte for byte:

* ``fixtures/audit_full.json`` is the exact stdout of
  ``hyperseq audit --format json`` over the default domains.
* ``fixtures/audit_rows.json`` maps every exact row (and ``<key>@alt``
  for the alternative half-integer convention of a dual-convention row)
  to a sha256 over the canonical ``p/q`` strings of both sides on every
  case.  It catches an evaluator rewrite that changes a value while the
  row still passes, e.g. a symmetric row whose two sides share a helper.

The module does not import pytest, so the check also runs without it;
it prints each changed row digest and any change to the audit JSON, and
exits 1 on a change::

    PYTHONPATH=src python tests/test_golden.py --check

Regenerate both (only when a report change is intended) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import difflib
import hashlib
import io
import json
import sys
from pathlib import Path

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
            lv, rv = lhs(**pa), rhs(**pa)
            line = f"{params}\t{format_rational(lv)}\t{format_rational(rv)}"
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


def changed_digests(got: dict) -> list:
    """The keys whose digest in ``got`` differs from the fixture, in key
    order; a key missing from either side counts as changed."""
    expected = json.loads(ROW_DIGESTS.read_text())
    keys = expected.keys() | got.keys()
    return sorted(k for k in keys if got.get(k) != expected.get(k))


def audit_stdout() -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        cli_main(["audit", "--format", "json"])
    return buf.getvalue()


def test_full_audit_json_is_byte_identical(full_audit):
    # the same stdout as audit_stdout(), from the session's one full run
    assert full_audit.stdout == AUDIT_JSON.read_text()


def test_exact_row_digests(digests_then_memo_sizes):
    got, _ = digests_then_memo_sizes
    assert changed_digests(got) == []


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
    if sys.argv[1:] == ["--write"]:
        AUDIT_JSON.write_text(audit_stdout())
        ROW_DIGESTS.write_text(
            json.dumps(row_digests(), indent=2, sort_keys=True) + "\n"
        )
    elif sys.argv[1:] == ["--check"]:
        changed = changed_digests(row_digests())
        for key in changed:
            print("changed row digest:", key, file=sys.stderr)
        audit_diff = list(
            difflib.unified_diff(
                AUDIT_JSON.read_text().splitlines(keepends=True),
                audit_stdout().splitlines(keepends=True),
                str(AUDIT_JSON),
                "hyperseq audit --format json",
            )
        )
        sys.stderr.writelines(audit_diff)
        print(
            f"{len(changed)} row digests changed; the audit JSON "
            + ("changed" if audit_diff else "is unchanged"),
            file=sys.stderr,
        )
        sys.exit(1 if changed or audit_diff else 0)
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write|--check")
