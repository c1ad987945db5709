"""Golden gates for the full audit.

Two fixtures pin the audit's results byte for byte:

* ``fixtures/audit_full.json`` is the exact stdout of
  ``hyperseq audit --format json`` over the default domains.
* ``fixtures/audit_rows.json`` maps every exact row (and ``<key>@alt``
  for the alternative half-integer convention of a dual-convention row)
  to a sha256 over the canonical ``p/q`` strings of both sides on every
  case.  It catches an evaluator rewrite that changes a value while the
  row still passes, e.g. a symmetric row whose two sides share a helper.

Both come from one run of the audit: ``hashing_cases`` wraps the
engine's case stream while ``hyperseq audit --format json`` runs, so
the digests hash the very values the verdicts compare, and each case is
evaluated once.  ``run_audit`` is that run; a pytest session makes it
once, in the ``full_audit`` fixture, and ``--check`` and ``--write``
once each.

The module does not import pytest, so the check also runs without it;
it prints each changed row digest and any change to the audit JSON, and
exits 1 on a change or when the audit does not exit 3::

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

from hyperseq import identities
from hyperseq.cli import main as cli_main
from hyperseq.errors import DomainError
from hyperseq.exactnum import format_rational

FIXTURES = Path(__file__).parent / "fixtures"
AUDIT_JSON = FIXTURES / "audit_full.json"
ROW_DIGESTS = FIXTURES / "audit_rows.json"


@contextlib.contextmanager
def hashing_cases():
    """While open, every exact row the engine runs hashes its cases.

    Wraps ``identities._cases``, the one stream of evaluated cases that
    ``verify`` reads, so the digests see the engine's own values.
    Yields ``{key: [sha256, number of cases]}``, with ``<key>@alt`` for
    the alternative convention, filled as the rows run.
    """
    hashes = {}
    cases = identities._cases

    def hashed(identity, max_bound, param_bounds):
        stream = cases(identity, max_bound, param_bounds)
        if identity.mode != "exact":
            yield from stream
            return
        keys = (identity.key, identity.key + "@alt")[: 1 + identity.dual_convention]
        entries = [hashes.setdefault(k, [hashlib.sha256(), 0]) for k in keys]
        for pa, lv, rights in stream:
            params = json.dumps(
                {k: format_rational(v) for k, v in pa.items()}, sort_keys=True
            )
            for entry, rv in zip(entries, rights):
                if isinstance(rv, DomainError):
                    line = f"{params}\tskip"
                else:
                    line = f"{params}\t{format_rational(lv)}\t{format_rational(rv)}"
                entry[0].update(line.encode() + b"\n")
                entry[1] += 1
            yield pa, lv, rights

    identities._cases = hashed
    try:
        yield hashes
    finally:
        identities._cases = cases


class FullAudit:
    """One ``hyperseq audit --format json`` over the default domains.

    ``exit_code`` is what the command returned, ``stdout`` the report as
    printed, ``rows`` maps each identity id to its parsed row,
    ``digests`` and ``cases`` map each exact row (and ``<key>@alt``) to
    the sha256 of its cases and their number, and ``memo_sizes`` holds
    the size of every row memo right after the run.
    """

    def __init__(self, exit_code, stdout, hashes, memo_sizes):
        self.exit_code = exit_code
        self.stdout = stdout
        self.rows = {row["identity_id"]: row for row in json.loads(stdout)}
        self.digests = {k: sha.hexdigest() for k, (sha, _) in hashes.items()}
        self.cases = {k: n for k, (_, n) in hashes.items()}
        self.memo_sizes = memo_sizes


def run_audit() -> FullAudit:
    """Run the full audit once, hashing every exact row's cases."""
    buf = io.StringIO()
    with hashing_cases() as hashes, contextlib.redirect_stdout(buf):
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(["audit", "--format", "json"])
    sizes = [memo.cache_info().currsize for memo in identities._ROW_MEMOS]
    return FullAudit(code, buf.getvalue(), hashes, sizes)


def changed_digests(got: dict) -> list:
    """The keys whose digest in ``got`` differs from the fixture, in key
    order; a key missing from either side counts as changed."""
    expected = json.loads(ROW_DIGESTS.read_text())
    keys = expected.keys() | got.keys()
    return sorted(k for k in keys if got.get(k) != expected.get(k))


def test_full_audit_json_is_byte_identical(full_audit):
    assert full_audit.stdout == AUDIT_JSON.read_text()
    # exit 3: the shipped registry keeps its misprinted rows as FAIL
    assert full_audit.exit_code == 3


def test_exact_row_digests(full_audit):
    assert changed_digests(full_audit.digests) == []


def test_digests_hash_every_case_the_report_counts(full_audit):
    # the digests and the verdicts read the same cases, under each convention
    expected = {}
    for key, row in full_audit.rows.items():
        if row["mode"] == "exact":
            expected[key] = row["tested"] + row["skipped"]
            if "alternative" in row:
                alt = row["alternative"]
                expected[key + "@alt"] = alt["tested"] + alt["skipped"]
    assert full_audit.cases == expected


def test_fixture_covers_every_exact_row_and_convention():
    expected = json.loads(ROW_DIGESTS.read_text())
    rows = [k for k in expected if not k.endswith("@alt")]
    alts = [k for k in expected if k.endswith("@alt")]
    assert len(rows) == 74
    assert len(alts) == 6


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        audit = run_audit()
        AUDIT_JSON.write_text(audit.stdout)
        ROW_DIGESTS.write_text(
            json.dumps(audit.digests, indent=2, sort_keys=True) + "\n"
        )
    elif sys.argv[1:] == ["--check"]:
        audit = run_audit()
        changed = changed_digests(audit.digests)
        for key in changed:
            print("changed row digest:", key, file=sys.stderr)
        audit_diff = list(
            difflib.unified_diff(
                AUDIT_JSON.read_text().splitlines(keepends=True),
                audit.stdout.splitlines(keepends=True),
                str(AUDIT_JSON),
                "hyperseq audit --format json",
            )
        )
        sys.stderr.writelines(audit_diff)
        print(
            f"{len(changed)} row digests changed; the audit JSON "
            + ("changed" if audit_diff else "is unchanged")
            + ("" if audit.exit_code == 3 else f"; the audit exited {audit.exit_code}, not 3"),
            file=sys.stderr,
        )
        sys.exit(1 if changed or audit_diff or audit.exit_code != 3 else 0)
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write|--check")
