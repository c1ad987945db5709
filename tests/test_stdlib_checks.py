"""``tools/stdlib_checks.py`` passes on the standard library alone, and its
400 MB cap on each child holds."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "stdlib_checks.py"

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux only"
)


def test_every_check_passes_with_no_site_packages():
    # -S loads no site-packages, so pytest, hypothesis and mpmath cannot be
    # imported: a passing run imported only the standard library
    proc = subprocess.run(
        [sys.executable, "-S", "-W", "error", str(SCRIPT)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "ok   check_def_at_order_a_million",
        "ok   check_fibonacci_300000",
    ]


def test_the_capped_runner_fails_a_child_that_allocates_a_gigabyte():
    # a cap that silently did not apply would let every check pass
    run_capped = runpy.run_path(str(SCRIPT))["run_capped"]
    with pytest.raises(AssertionError, match="MemoryError"):
        run_capped("-c", "bytearray(10**9)")
