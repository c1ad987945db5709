"""The checks no pytest test makes, runnable with the standard library alone.

Each check is a function of plain asserts over ``python -W error -m
hyperseq ...`` run in a child whose address space is capped at 400 MB.
Run them all from the repository root::

    PYTHONPATH=src python -W error tools/stdlib_checks.py

It prints each check's name and outcome and exits 1 if any failed.  It
imports only the standard library, so it runs on an install without the
``[test]`` extra, and even under ``python -S``.  Linux only: the cap is
``RLIMIT_AS``, which macOS does not enforce.
"""

import resource
import subprocess
import sys

#: The address space of each child, in bytes.
CAP = 400_000_000


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))


def run_capped(*argv):
    """The stdout of ``python -W error *argv`` run in a child capped at CAP.

    A child that exits nonzero, one that runs out of memory included,
    fails the calling check.
    """
    proc = subprocess.run(
        [sys.executable, "-W", "error", *argv],
        capture_output=True,
        text=True,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 0, f"{argv} exited {proc.returncode}: {proc.stderr[-400:]}"
    return proc.stdout


def check_def_at_order_a_million():
    """The DEF method at order 10**6 equals the closed form."""
    argv = ("-m", "hyperseq", "compute", "hyperharmonic", "--n", "3", "--r", "1000000")
    by_def = run_capped(*argv, "--method", "def")
    closed = run_capped(*argv)
    assert by_def.strip(), "the DEF method printed nothing"
    assert by_def == closed, f"DEF gives {by_def!r}, the closed form {closed!r}"


def check_fibonacci_300000():
    """F(300000) has 62,696 digits and matches a plain loop mod a prime."""
    digits = run_capped("-m", "hyperseq", "compute", "fibonacci", "--k", "300000").strip()
    p = 1_000_000_007
    got = 0
    for ch in digits:  # no int(): 62,696 digits pass the str-conversion limit
        got = (got * 10 + int(ch)) % p
    a, b = 0, 1
    for _ in range(300000):
        a, b = b, (a + b) % p
    assert len(digits) == 62696, f"F(300000) has {len(digits)} digits"
    assert got == a, f"F(300000) is {got} mod p, the loop gives {a}"


CHECKS = (check_def_at_order_a_million, check_fibonacci_300000)


def main():
    # under -O every assert is gone and each check would pass unread
    if not __debug__:
        sys.exit("the checks are asserts: run them without -O")
    failed = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
