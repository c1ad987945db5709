"""Fixtures shared across test modules."""

import pytest

from test_golden import run_audit


@pytest.fixture(scope="session")
def full_audit():
    """The full audit, run once for every test that only reads it: its
    stdout, rows, row digests and case counts, and the row-memo sizes
    right after it (see ``test_golden.FullAudit``)."""
    return run_audit()
