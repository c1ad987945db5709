"""Fixtures shared across test modules."""

import contextlib
import io
import json

import pytest

from hyperseq.cli import main as cli_main
from hyperseq.identities import _ROW_MEMOS


class FullAudit:
    """One ``hyperseq audit --format json`` over the default domains.

    ``stdout`` is the report as printed, ``rows`` maps each identity id
    to its parsed row, and ``memo_sizes`` holds the size of every row
    memo right after the run.
    """

    def __init__(self, stdout, memo_sizes):
        self.stdout = stdout
        self.rows = {row["identity_id"]: row for row in json.loads(stdout)}
        self.memo_sizes = memo_sizes


@pytest.fixture(scope="session")
def full_audit():
    """The full audit, run once for every test that only reads it."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli_main(["audit", "--format", "json"])
    sizes = [memo.cache_info().currsize for memo in _ROW_MEMOS]
    return FullAudit(buf.getvalue(), sizes)


@pytest.fixture(scope="module")
def digests_then_memo_sizes():
    """``test_golden.row_digests()`` and the size of every row memo right
    after it."""
    from test_golden import row_digests

    got = row_digests()
    return got, [memo.cache_info().currsize for memo in _ROW_MEMOS]
