"""Golden gates for the full audit.

Two fixtures pin the audit's results byte for byte:

* ``fixtures/audit_full.json`` is the exact stdout of
  ``hyperseq audit --format json`` over the default domains.
* ``fixtures/audit_rows.json`` maps every exact row (and ``<key>@alt``
  for a row's ``"alternative"`` reading, ``<key>@<name>`` for any other
  reading) to a sha256 over the canonical ``p/q`` strings of both sides
  on every case.  It catches an evaluator rewrite that changes a value
  while the row still passes, e.g. a symmetric row whose two sides share
  a helper.

Both come from one run of the audit: ``hashing_cases`` wraps the sides
of each row the engine runs while ``hyperseq audit --format json`` runs, so
the digests hash the very values the verdicts compare, and each case is
evaluated once.  ``run_audit`` is that run; a pytest session makes it
once, in the ``full_audit`` fixture, and ``--check`` and ``--write``
once each.  The same run counts each row memo's hits, and a memo that
no row of the audit hits is a failure: it only costs.

The module does not import pytest, so the check also runs without it;
it prints each changed row digest, any change to the audit JSON and each
row memo with no hit, and exits 1 on any of them or when the audit does
not exit 3::

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


def digest_key(key, reading):
    """The row-digest key of row ``key``'s further reading ``reading``."""
    return f"{key}@{'alt' if reading == 'alternative' else reading}"


@contextlib.contextmanager
def hashing_cases():
    """While open, every exact row the engine runs hashes its cases.

    Wraps ``identities.get_identity``, through which ``verify`` reads
    its row, and hands ``verify`` the row with each side wrapped to hash
    the value it returns, so the digests see the engine's own values.
    ``verify`` runs a case's lhs first, and its right sides only when the
    lhs has a value; a side that raises ``DomainError`` hashes a skip for
    its reading, an lhs one for every reading.  Yields ``{key: [sha256,
    number of cases]}``, with ``digest_key(key, name)`` for each further
    reading, filled as the rows run.
    """
    hashes = {}
    get_identity = identities.get_identity

    def hashed(key):
        identity = get_identity(key)
        if identity.mode != "exact":
            return identity
        keys = [identity.key]
        keys += (digest_key(identity.key, name) for name, _ in identity.readings)
        entries = [hashes.setdefault(k, [hashlib.sha256(), 0]) for k in keys]
        case = []  # the running case: its params line, then its lhs value

        def add(entry, line):
            entry[0].update(line.encode() + b"\n")
            entry[1] += 1

        def lhs(*vals):
            case[:] = [json.dumps(
                {p.name: format_rational(v) for p, v in zip(identity.params, vals)},
                sort_keys=True,
            )]
            try:
                case.append(identity.lhs(*vals))
            except DomainError:
                for entry in entries:
                    add(entry, f"{case[0]}\tskip")
                raise
            return case[1]

        def right(entry, side):
            def hashed_side(*vals):
                params, lv = case
                try:
                    rv = side(*vals)
                except DomainError:
                    add(entry, f"{params}\tskip")
                    raise
                add(entry, f"{params}\t{format_rational(lv)}\t{format_rational(rv)}")
                return rv

            return hashed_side

        fields = {f: getattr(identity, f) for f in identity._fields}
        fields["lhs"] = lhs
        fields["rhs"] = right(entries[0], identity.rhs)
        fields["readings"] = tuple(
            (name, right(entry, side))
            for (name, side), entry in zip(identity.readings, entries[1:])
        )
        return identities.Identity(**fields)

    identities.get_identity = hashed
    try:
        yield hashes
    finally:
        identities.get_identity = get_identity


@contextlib.contextmanager
def counting_memo_hits():
    """While open, every outermost row scope adds up its row memos' hits.

    Wraps ``identities.row_scope``, reading each memo's ``cache_info()``
    when the outermost scope exits, before it empties the memos: a nested
    scope empties nothing, so the hits it saw are still counted there.
    Yields ``{memo name: hits}``.
    """
    hits = dict.fromkeys((memo.__name__ for memo in identities._ROW_MEMOS), 0)
    scope = identities.row_scope
    depth = [0]

    @contextlib.contextmanager
    def counted():
        with scope():
            depth[0] += 1
            try:
                yield
            finally:
                depth[0] -= 1
                if not depth[0]:
                    for memo in identities._ROW_MEMOS:
                        hits[memo.__name__] += memo.cache_info().hits

    identities.row_scope = counted
    try:
        yield hits
    finally:
        identities.row_scope = scope


class FullAudit:
    """One ``hyperseq audit --format json`` over the default domains.

    ``exit_code`` is what the command returned, ``stdout`` the report as
    printed, ``rows`` maps each identity id to its parsed row,
    ``digests`` and ``cases`` map each exact row (and its readings) to
    the sha256 of its cases and their number, ``memo_sizes`` holds
    the size of every row memo right after the run, and ``memo_hits``
    maps each row memo's name to its hits over the run.
    """

    def __init__(self, exit_code, stdout, hashes, memo_sizes, memo_hits):
        self.exit_code = exit_code
        self.stdout = stdout
        self.rows = {row["identity_id"]: row for row in json.loads(stdout)}
        self.digests = {k: sha.hexdigest() for k, (sha, _) in hashes.items()}
        self.cases = {k: n for k, (_, n) in hashes.items()}
        self.memo_sizes = memo_sizes
        self.memo_hits = memo_hits


def run_audit() -> FullAudit:
    """Run the full audit once, hashing every exact row's cases."""
    buf = io.StringIO()
    with hashing_cases() as hashes, counting_memo_hits() as hits:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(["audit", "--format", "json"])
    sizes = [memo.cache_info().currsize for memo in identities._ROW_MEMOS]
    return FullAudit(code, buf.getvalue(), hashes, sizes, hits)


def changed_digests(got: dict) -> list:
    """The keys whose digest in ``got`` differs from the fixture, in key
    order; a key missing from either side counts as changed."""
    expected = json.loads(ROW_DIGESTS.read_text())
    keys = expected.keys() | got.keys()
    return sorted(k for k in keys if got.get(k) != expected.get(k))


def dead_memos(hits: dict) -> list:
    """The row memos that no row hit, in registration order."""
    return [name for name, n in hits.items() if n == 0]


def test_full_audit_json_is_byte_identical(full_audit):
    assert full_audit.stdout == AUDIT_JSON.read_text()
    # exit 3: the shipped registry keeps its misprinted rows as FAIL
    assert full_audit.exit_code == 3


def test_exact_row_digests(full_audit):
    assert changed_digests(full_audit.digests) == []


def test_digests_hash_every_case_the_report_counts(full_audit):
    # the digests and the verdicts read the same cases, under each reading
    expected = {}
    for key, row in full_audit.rows.items():
        if row["mode"] == "exact":
            expected[key] = row["tested"] + row["skipped"]
            for name, _ in identities.get_identity(key).readings:
                expected[digest_key(key, name)] = row[name]["tested"] + row[name]["skipped"]
    assert full_audit.cases == expected


def test_every_row_memo_is_hit(full_audit):
    assert len(full_audit.memo_hits) == len(identities._ROW_MEMOS)
    assert dead_memos(full_audit.memo_hits) == []


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
        dead = dead_memos(audit.memo_hits)
        for name in dead:
            print("row memo with no hit:", name, file=sys.stderr)
        print(
            f"{len(changed)} row digests changed; the audit JSON "
            + ("changed" if audit_diff else "is unchanged")
            + f"; {len(dead)} of {len(audit.memo_hits)} row memos have no hit"
            + ("" if audit.exit_code == 3 else f"; the audit exited {audit.exit_code}, not 3"),
            file=sys.stderr,
        )
        sys.exit(1 if changed or audit_diff or dead or audit.exit_code != 3 else 0)
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write|--check")
