"""Command-line front end.

Subcommands: ``compute`` (single values), ``series`` (generating-function
coefficients), ``table`` (2-D value grids), ``audit`` (identity
verification).  Data goes to stdout, diagnostics to stderr.  Exit codes:
0 success / all-pass, 2 usage or configuration error, 3 audit failures
present, 4 evaluator domain error, 5 I/O error.  Each bad flag or config
value raises ``ConfigError`` where it is read; ``main`` catches only that
and ``DomainError``, so any other exception is a bug: a traceback, exit 1.

Exact values render as canonical rational strings unless ``--decimal N``
asks for an annotated half-even rounding.  An optional plain
``key = value`` configuration file is read from ``--config`` or the
``HYPERSEQ_CONFIG`` environment variable; flags override it, and unknown
keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import ConfigError, DomainError
from .exactnum import format_rational, parse_rational
from .sequences import (
    HyperharmonicMethod,
    alpha,
    beta,
    fibonacci,
    gen_harmonic,
    harmonic,
    hyperharmonic,
    hyperharmonic_neg,
    hyperharmonic_rational_order,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_AUDIT_FAIL = 3
EXIT_DOMAIN = 4
EXIT_IO = 5

_BOUND_PARAMS = ("n", "r", "k", "m", "j", "s")
_SAMPLE_PARAMS = ("x", "y", "z")
_SERIES_CAP = 512

_SUITES = ("core", "table1", "table2", "float", "all")
_FORMATS = ("json", "csv", "text")

# each exact ``compute`` sequence: its function and the flags it reads, in
# argument order; each is required but ``--method``, which defaults to closed
_COMPUTE = {
    "harmonic": (harmonic, ("n",)),
    "gen-harmonic": (gen_harmonic, ("n", "m")),
    "hyperharmonic": (
        lambda n, r, method: hyperharmonic(
            n, r, HyperharmonicMethod(method or HyperharmonicMethod.CLOSED.value)
        ),
        ("n", "r", "method"),
    ),
    "hyperharmonic-neg": (hyperharmonic_neg, ("n", "r")),
    "hyperharmonic-q": (
        lambda n, w: hyperharmonic_rational_order(n, _parse(parse_rational, w)),
        ("n", "w"),
    ),
    "fibonacci": (fibonacci, ("k",)),
    "alpha": (alpha, ("n", "r")),
    "beta": (beta, ("n", "r")),
}
# every ``compute`` flag; each exact sequence also reads --decimal, and a
# flag the sequence does not read is an error rather than ignored
_COMPUTE_FLAGS = ("n", "m", "r", "k", "w", "arg", "method", "decimal")

# each ``series --gf`` X calls ``opcalc.gf_X(r, order)``, but harmonic,
# which takes the order alone
_SERIES = ("harmonic", "hyperharmonic", "alpha", "beta")

_TABLE = {
    "hyperharmonic": hyperharmonic,
    "hyperharmonic-neg": hyperharmonic_neg,
    "beta": beta,
}


def _parse(convert, text: str, message: str | None = None):
    """``convert(text)``; text it cannot read is a ConfigError, with
    ``message`` or else the converter's own."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(message or str(exc)) from None


def _load_config(args) -> tuple[dict, str, int]:
    """The config file's bounds, format and counterexample cap, each at its
    default where the file leaves it out; ``bounds`` maps a parameter name
    to ``(None, cap)``.  The file is ``--config`` if given, even empty; else
    a non-empty ``HYPERSEQ_CONFIG``."""
    bounds, fmt, cap = {}, "text", 5
    path = args.config
    if path is None:
        path = os.environ.get("HYPERSEQ_CONFIG") or None
    if path is None:
        return bounds, fmt, cap
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        not_int = f"{path}:{lineno}: {key} is not a valid int: {value!r}"
        if key.startswith("max_") and key[4:] in _BOUND_PARAMS:
            bound = _parse(int, value, not_int)
            if bound <= 0:
                raise ConfigError(f"{path}:{lineno}: bounds must be positive")
            bounds[key[4:]] = (None, bound)  # clamp only the top
        elif key == "counterexamples":
            cap = _parse(int, value, not_int)
            if cap <= 0:
                raise ConfigError(f"{path}:{lineno}: {key} must be positive")
        elif key == "format":
            if value not in _FORMATS:
                raise ConfigError(f"{path}:{lineno}: unknown format {value!r}")
            fmt = value
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return bounds, fmt, cap


def _settings(args) -> tuple[dict, str, int]:
    """The bounds, report format and counterexample cap a command reads:
    a flag wins over the config file, which wins over the default."""
    bounds, fmt, cap = _load_config(args)
    fmt = getattr(args, "format", None) or fmt
    if args.command != "audit":
        return bounds, fmt, cap
    if args.counterexamples is not None:
        cap = args.counterexamples
        if cap <= 0:
            raise ConfigError(f"--counterexamples must be positive, got {cap}")
    for name in _BOUND_PARAMS:
        raw = getattr(args, name)
        if raw is not None:
            bounds[name] = _parse_span(raw, f"--{name}")
    for name in _SAMPLE_PARAMS:
        raw = getattr(args, name)
        if raw is not None:
            bounds[name] = _parse(parse_rational, raw)
    return bounds, fmt, cap


def _round_half_even(x: Fraction, places: int) -> str:
    """Exact banker's rounding of a rational to a fixed decimal string."""
    q = round(x * 10**places)  # Fraction.__round__: exact, ties to even
    sign = "-" if q < 0 else ""
    digits = format_rational(abs(q)).rjust(places + 1, "0")
    if places == 0:
        return f"{sign}{digits}"
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _render_exact(value: Fraction, decimal: int | None) -> str:
    if decimal is None:
        return format_rational(value)
    return f"{_round_half_even(value, decimal)} (half-even to {decimal} places)"


def _parse_span(text: str, flag: str) -> tuple[int, int]:
    """``V`` or ``LO:HI``; ``HI = LO - 1`` is the empty span, lower is an error."""
    parts = text.split(":", 1)
    message = f"{flag} needs V or LO:HI in integers, not {text!r}"
    lo, hi = (_parse(int, part, message) for part in (parts[0], parts[-1]))
    if hi < lo - 1:
        raise ConfigError(f"span {text!r} runs backwards")
    return lo, hi


def _add_bound_flags(parser):
    for name in _BOUND_PARAMS:
        parser.add_argument(
            f"--{name}", metavar="V|LO:HI", help=f"override the {name} domain"
        )
    for name in _SAMPLE_PARAMS:
        parser.add_argument(
            f"--{name}",
            metavar="RAT",
            help=f"pin the sampled rational parameter {name}",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperseq",
        description="Exact harmonic-family sequences and the identity audit.",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="print one sequence value")
    compute.add_argument("sequence", choices=[*_COMPUTE, "digamma"])
    compute.add_argument("--n", type=int)
    compute.add_argument("--m", type=int)
    compute.add_argument("--r", type=int)
    compute.add_argument("--k", type=int)
    compute.add_argument("--w", help="rational order, e.g. 1/2")
    compute.add_argument("--arg", help="real or rational argument (digamma)")
    compute.add_argument(
        "--method", choices=[m.value for m in HyperharmonicMethod]
    )
    compute.add_argument("--decimal", type=int, metavar="N")

    series = sub.add_parser("series", help="generating-function coefficients")
    series.add_argument("--gf", required=True, choices=_SERIES)
    series.add_argument("--r", type=int, default=1)
    series.add_argument("--order", type=int, required=True)

    table = sub.add_parser("table", help="2-D grid of exact values")
    table.add_argument("sequence", choices=list(_TABLE))
    table.add_argument("--n", required=True, metavar="LO:HI")
    table.add_argument("--r", required=True, metavar="LO:HI")
    table.add_argument("--format", choices=_FORMATS)

    audit = sub.add_parser("audit", help="verify registered identities")
    audit.add_argument(
        "--suite",
        action="append",
        choices=_SUITES,
        help="tag filter; repeatable (default: all)",
    )
    audit.add_argument("--only", help="comma-separated id suffixes, e.g. 3.95")
    audit.add_argument("--max", type=int, help="clamp every integer domain")
    audit.add_argument("--format", choices=_FORMATS)
    audit.add_argument("--out", help="write the report to this path")
    audit.add_argument("--counterexamples", type=int, metavar="CAP")
    _add_bound_flags(audit)

    ids = sub.add_parser("identities", help="list registered identity ids")
    ids.add_argument(
        "--suite", action="append", choices=_SUITES, help="tag filter"
    )

    return parser


def _cmd_compute(args) -> int:
    if args.decimal is not None and args.decimal < 0:
        raise ConfigError(f"--decimal must be non-negative, got {args.decimal}")
    fn, flags = _COMPUTE.get(args.sequence, (None, ("arg",)))  # None: digamma
    for flag in flags:
        if getattr(args, flag) is None and flag != "method":
            raise ConfigError(f"{args.sequence} requires --{flag}")
    reads = flags + (("decimal",) if fn else ())
    for flag in _COMPUTE_FLAGS:
        if flag not in reads and getattr(args, flag) is not None:
            raise ConfigError(f"{args.sequence} does not read --{flag}")
    if fn is None:
        from .analytic import digamma  # the one command that needs analytic

        raw = args.arg
        to_float = (lambda t: float(Fraction(t))) if "/" in raw else float
        x = _parse(to_float, raw, f"bad argument {raw!r}")
        value = digamma(x)
        print(json.dumps(value.to_json_obj(), allow_nan=False))
        return EXIT_OK
    value = fn(*[getattr(args, flag) for flag in flags])
    print(_render_exact(value, args.decimal))
    return EXIT_OK


def _cmd_series(args) -> int:
    if args.order < 0 or args.order > _SERIES_CAP:
        raise ConfigError(f"--order must be in [0, {_SERIES_CAP}]")
    from . import opcalc  # the one command that needs opcalc

    gf = getattr(opcalc, f"gf_{args.gf}")
    ps = gf(args.order) if args.gf == "harmonic" else gf(args.r, args.order)
    print(json.dumps(ps.to_json_list(), allow_nan=False))
    return EXIT_OK


def _cmd_table(args, fmt: str) -> int:
    n_lo, n_hi = _parse_span(args.n, "--n")
    r_lo, r_hi = _parse_span(args.r, "--r")
    fn = _TABLE[args.sequence]
    grid = [
        [format_rational(fn(n, r)) for r in range(r_lo, r_hi + 1)]
        for n in range(n_lo, n_hi + 1)
    ]
    if fmt == "json":
        print(json.dumps(grid, allow_nan=False))
    elif fmt == "csv":
        header = ["n\\r"] + [str(r) for r in range(r_lo, r_hi + 1)]
        print(",".join(header))
        for n, row in zip(range(n_lo, n_hi + 1), grid):
            print(",".join([str(n)] + row))
    else:
        for row in grid:
            print("\t".join(row))
    return EXIT_OK


def _tags(args) -> frozenset:
    """The tag filter ``--suite`` asks for; empty (every row) if none or all."""
    suites = set(args.suite or [])
    return frozenset() if (not suites or "all" in suites) else frozenset(suites)


def _cmd_audit(args, bounds: dict, fmt: str, cap: int) -> int:
    # Only audit and identities load the registry; other commands skip it.
    from . import identities

    only = None if args.only is None else args.only.split(",")
    keys = identities.select(_tags(args), only)
    if only and not keys:
        raise ConfigError(f"no identity matches --only {args.only!r}")
    read = {p.name for key in keys for p in identities.get_identity(key).params}
    for name in _BOUND_PARAMS + _SAMPLE_PARAMS:
        if getattr(args, name) is not None and name not in read:
            raise ConfigError(f"no selected identity reads --{name}")
    report = identities.run_suite(
        _tags(args),
        only=only,
        max_bound=args.max,
        param_bounds=bounds or None,
        counterexample_cap=cap,
    )
    if fmt == "json":
        payload = report.to_json() + "\n"
    elif fmt == "csv":
        payload = report.to_csv()
    else:
        payload = report.to_text()
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(payload)
    if fmt != "text" or args.out is not None:  # a text report ends with the line
        print(report.summary_line(), file=sys.stderr)
    return EXIT_OK if report.all_pass else EXIT_AUDIT_FAIL


def _cmd_identities(args) -> int:
    from . import identities

    for key in identities.select(_tags(args)):
        identity = identities.get_identity(key)
        print(f"{key}\t{','.join(sorted(identity.tags))}\t{identity.anchor}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        bounds, fmt, cap = _settings(args)
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "series":
            return _cmd_series(args)
        if args.command == "table":
            return _cmd_table(args, fmt)
        if args.command == "audit":
            return _cmd_audit(args, bounds, fmt, cap)
        return _cmd_identities(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
