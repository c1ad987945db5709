"""Every public kernel has a reader.

Each public function and method defined in ``exactnum``, ``sequences``,
``opcalc`` and ``analytic`` must be entered by the audit or by a command
of the CLI, or be listed in ``BENCHMARK_ONLY`` with the benchmark
workload that calls it.  A name in ``BENCHMARK_ONLY`` must exist and
must not be entered, so the list cannot go stale.

The reach is recorded with ``sys.setprofile`` over
``identities.run_suite(max_bound=3)`` and the in-process CLI calls in
``ARGVS``: every ``compute`` sequence, every ``--method``, every
``--gf`` (one of them with r > order) and every ``table`` sequence.
Those calls enter the same kernels as the full audit in well under a
second.  The kernels' own memos and ``identities.h``, the one memo of h
values, are emptied first, since a memo hit does not enter the function
behind it.

The module does not import pytest, so the check also runs without it;
it prints each name that breaks the rule and exits 1 on any::

    PYTHONPATH=src python tests/test_kernel_reach.py --check
"""

import contextlib
import functools
import inspect
import io
import sys

from hyperseq import analytic, exactnum, identities, opcalc, sequences
from hyperseq.cli import main as cli_main

MODULES = (exactnum, sequences, opcalc, analytic)

#: Public kernels that no row and no CLI command calls, and the benchmark
#: workload that does.
BENCHMARK_ONLY = {
    "opcalc.binomial_transform": "kernels-mix",
    "opcalc.inverse_binomial_transform": "kernels-mix",
    "analytic.log_gamma": "kernels-mix",
    "analytic.hyperharmonic_real": "kernels-mix",
}

ARGVS = [
    ["compute", "harmonic", "--n", "5"],
    ["compute", "gen-harmonic", "--n", "4", "--m", "2"],
    *(
        ["compute", "hyperharmonic", "--n", "6", "--r", "3", "--method", m]
        for m in ("def", "closed", "conv", "rec-lower", "rec-upper")
    ),
    ["compute", "hyperharmonic-neg", "--n", "3", "--r", "2"],
    ["compute", "hyperharmonic-q", "--n", "2", "--w", "1/2"],
    ["compute", "fibonacci", "--k", "10"],
    ["compute", "alpha", "--n", "3", "--r", "2"],
    ["compute", "beta", "--n", "3", "--r", "2"],
    ["compute", "digamma", "--arg", "1/2"],
    *(
        ["series", "--gf", gf, "--r", "2", "--order", "4"]
        for gf in ("harmonic", "hyperharmonic", "alpha", "beta")
    ),
    ["series", "--gf", "hyperharmonic", "--r", "9", "--order", "4"],
    *(
        ["table", seq, "--n", "1:3", "--r", "1:2"]
        for seq in ("hyperharmonic", "hyperharmonic-neg", "beta")
    ),
]


def _code(fn):
    if isinstance(fn, staticmethod):
        fn = fn.__func__
    if isinstance(fn, property):
        fn = fn.fget
    fn = inspect.unwrap(fn)
    return fn.__code__ if inspect.isfunction(fn) else None


def public_kernels() -> dict:
    """``{"module.name": code}`` for every public function, and every public
    or operator method of a public class, defined in ``MODULES``."""
    kernels = {}
    for module in MODULES:
        prefix = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not isinstance(obj, type):
                members = {name: obj}
            else:
                members = {
                    f"{name}.{attr}": v
                    for attr, v in vars(obj).items()
                    if not attr.startswith("_") or attr.endswith("__")
                }
            for key, fn in members.items():
                code = _code(fn)
                # not an inherited Enum.__new__ or a generated method
                if code is not None and code.co_filename == module.__file__:
                    kernels[f"{prefix}.{key}"] = code
    return kernels


@functools.cache
def entered() -> frozenset:
    """The code objects entered by the audit at ``max_bound=3`` and ``ARGVS``."""
    for module in MODULES:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    identities.h.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        identities.run_suite(max_bound=3)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            codes = [cli_main(argv) for argv in ARGVS]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(ARGVS), codes
    return frozenset(seen)


def unread() -> list:
    """Public kernels that nothing enters and ``BENCHMARK_ONLY`` does not list."""
    return sorted(
        name
        for name, code in public_kernels().items()
        if code not in entered() and name not in BENCHMARK_ONLY
    )


def stale() -> list:
    """``BENCHMARK_ONLY`` names that are gone or that the audit or CLI enters."""
    kernels = public_kernels()
    return sorted(
        name
        for name in BENCHMARK_ONLY
        if name not in kernels or kernels[name] in entered()
    )


def test_every_public_kernel_has_a_reader():
    assert unread() == []


def test_benchmark_only_names_exist_and_are_not_reached():
    assert stale() == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--check"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_kernel_reach.py --check")
    no_reader, gone = unread(), stale()
    for name in no_reader:
        print("no reader:", name, file=sys.stderr)
    for name in gone:
        print("stale BENCHMARK_ONLY entry:", name, file=sys.stderr)
    bad = len(no_reader) + len(gone)
    print(f"{bad} of {len(public_kernels())} public kernels break the rule", file=sys.stderr)
    sys.exit(1 if bad else 0)
