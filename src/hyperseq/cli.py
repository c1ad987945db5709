"""Command-line front end.

Subcommands: ``compute`` (single values), ``series`` (generating-function
coefficients), ``table`` (2-D value grids), ``audit`` (identity
verification).  Data goes to stdout, diagnostics to stderr.  Exit codes:
0 success / all-pass, 2 usage or configuration error, 3 audit failures
present, 4 evaluator domain error, 5 I/O error.

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

from ._records import record
from .analytic import digamma
from .errors import ConfigError, DomainError
from .exactnum import format_rational, parse_rational
from .opcalc import gf_alpha, gf_beta, gf_harmonic, gf_hyperharmonic
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
_SAMPLE_PARAMS = ("x", "y", "z", "w")
_SERIES_CAP = 512


#: Audit settings that are both a config key and a flag: the type the
#: value parses to, its range check, and the rule an error message states.
_AUDIT_SETTINGS = {
    "tolerance": (float, lambda v: 0.0 < v < 1.0, "must be in (0, 1)"),
    "counterexamples": (int, lambda v: v > 0, "must be positive"),
}

_SUITES = ("core", "table1", "table2", "float", "all")


class CliConfig(
    record(
        "CliConfig",
        ("bounds", "tolerance", "format", "counterexamples"),
        {"bounds": {}, "tolerance": None, "format": "text", "counterexamples": 5},
    )
):
    """Settings read from the config file; flags override them.

    ``bounds`` maps a parameter name to ``(None, cap)``.
    """

    __slots__ = ()


def _convert(kind, value: str, where: str):
    """``kind(value)``; a value that does not convert is a ConfigError."""
    try:
        return kind(value)
    except ValueError:
        message = f"{where} is not a valid {kind.__name__}: {value!r}"
        raise ConfigError(message) from None


def _parse_config_file(path: str) -> CliConfig:
    cfg = CliConfig()
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
        if key.startswith("max_") and key[4:] in _BOUND_PARAMS:
            bound = _convert(int, value, f"{path}:{lineno}: {key}")
            if bound <= 0:
                raise ConfigError(f"{path}:{lineno}: bounds must be positive")
            cfg.bounds[key[4:]] = (None, bound)  # clamp only the top
        elif key in _AUDIT_SETTINGS:
            kind, valid, rule = _AUDIT_SETTINGS[key]
            setting = _convert(kind, value, f"{path}:{lineno}: {key}")
            if not valid(setting):
                raise ConfigError(f"{path}:{lineno}: {key} {rule}")
            setattr(cfg, key, setting)
        elif key == "format":
            if value not in ("json", "csv", "text"):
                raise ConfigError(f"{path}:{lineno}: unknown format {value!r}")
            cfg.format = value
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return cfg


def _load_config(args) -> CliConfig:
    path = args.config or os.environ.get("HYPERSEQ_CONFIG")
    return _parse_config_file(path) if path else CliConfig()


def _round_half_even(x: Fraction, places: int) -> str:
    """Exact banker's rounding of a rational to a fixed decimal string."""
    scaled = x * Fraction(10) ** places
    q, rem = divmod(scaled.numerator, scaled.denominator)
    half = Fraction(rem, scaled.denominator)
    if half > Fraction(1, 2) or (half == Fraction(1, 2) and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    digits = str(abs(q)).rjust(places + 1, "0")
    if places == 0:
        return f"{sign}{digits}"
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _render_exact(value: Fraction, decimal: int | None) -> str:
    if decimal is None:
        return format_rational(value)
    return f"{_round_half_even(value, decimal)} (half-even to {decimal} places)"


def _parse_span(text: str) -> tuple[int, int]:
    """``V`` or ``LO:HI``; ``HI = LO - 1`` is the empty span, lower is an error."""
    if ":" in text:
        lo, hi = (int(part) for part in text.split(":", 1))
        if hi < lo - 1:
            raise ValueError(f"span {text!r} runs backwards")
        return lo, hi
    v = int(text)
    return v, v


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


def _collect_bounds(args, cfg: CliConfig) -> dict:
    bounds = dict(cfg.bounds)
    for name in _BOUND_PARAMS:
        raw = getattr(args, name, None)
        if raw is not None:
            bounds[name] = _parse_span(raw)
    for name in _SAMPLE_PARAMS:
        raw = getattr(args, name, None)
        if raw is not None:
            bounds[name] = parse_rational(raw)
    return bounds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperseq",
        description="Exact harmonic-family sequences and the identity audit.",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="print one sequence value")
    compute.add_argument(
        "sequence",
        choices=[
            "harmonic",
            "gen-harmonic",
            "hyperharmonic",
            "hyperharmonic-neg",
            "hyperharmonic-q",
            "fibonacci",
            "alpha",
            "beta",
            "digamma",
        ],
    )
    compute.add_argument("--n", type=int)
    compute.add_argument("--m", type=int)
    compute.add_argument("--r", type=int)
    compute.add_argument("--k", type=int)
    compute.add_argument("--w", help="rational order, e.g. 1/2")
    compute.add_argument("--arg", help="real or rational argument (digamma)")
    compute.add_argument(
        "--method",
        choices=[m.value for m in HyperharmonicMethod],
        default=HyperharmonicMethod.CLOSED.value,
    )
    compute.add_argument("--decimal", type=int, metavar="N")

    series = sub.add_parser("series", help="generating-function coefficients")
    series.add_argument(
        "--gf",
        required=True,
        choices=["harmonic", "hyperharmonic", "alpha", "beta"],
    )
    series.add_argument("--r", type=int, default=1)
    series.add_argument("--order", type=int, required=True)

    table = sub.add_parser("table", help="2-D grid of exact values")
    table.add_argument(
        "sequence", choices=["hyperharmonic", "hyperharmonic-neg", "beta"]
    )
    table.add_argument("--n", required=True, metavar="LO:HI")
    table.add_argument("--r", required=True, metavar="LO:HI")
    table.add_argument("--format", choices=["json", "csv", "text"])

    audit = sub.add_parser("audit", help="verify registered identities")
    audit.add_argument(
        "--suite",
        action="append",
        choices=_SUITES,
        help="tag filter; repeatable (default: all)",
    )
    audit.add_argument("--only", help="comma-separated id suffixes, e.g. 3.95")
    audit.add_argument("--max", type=int, help="clamp every integer domain")
    audit.add_argument("--format", choices=["json", "csv", "text"])
    audit.add_argument("--out", help="write the report to this path")
    audit.add_argument("--counterexamples", type=int, metavar="CAP")
    audit.add_argument("--tolerance", type=float)
    _add_bound_flags(audit)

    ids = sub.add_parser("identities", help="list registered identity ids")
    ids.add_argument(
        "--suite", action="append", choices=_SUITES, help="tag filter"
    )

    return parser


def _cmd_compute(args) -> int:
    def need(flag, value):
        if value is None:
            raise ValueError(f"{args.sequence} requires --{flag}")
        return value

    if args.decimal is not None and args.decimal < 0:
        raise ValueError(f"--decimal must be non-negative, got {args.decimal}")
    seq = args.sequence
    if seq == "digamma":
        raw = need("arg", args.arg)
        try:
            x = float(Fraction(raw)) if "/" in raw else float(raw)
        except (ValueError, ZeroDivisionError):
            print(f"error: bad argument {raw!r}", file=sys.stderr)
            return EXIT_USAGE
        value = digamma(x)
        print(json.dumps(value.to_json_obj()))
        return EXIT_OK
    if seq == "harmonic":
        value = harmonic(need("n", args.n))
    elif seq == "gen-harmonic":
        value = gen_harmonic(need("n", args.n), need("m", args.m))
    elif seq == "hyperharmonic":
        value = hyperharmonic(
            need("n", args.n),
            need("r", args.r),
            HyperharmonicMethod(args.method),
        )
    elif seq == "hyperharmonic-neg":
        value = hyperharmonic_neg(need("n", args.n), need("r", args.r))
    elif seq == "hyperharmonic-q":
        value = hyperharmonic_rational_order(
            need("n", args.n), parse_rational(need("w", args.w))
        )
    elif seq == "fibonacci":
        value = Fraction(fibonacci(need("k", args.k)))
    elif seq == "alpha":
        value = alpha(need("n", args.n), need("r", args.r))
    else:
        value = beta(need("n", args.n), need("r", args.r))
    print(_render_exact(value, args.decimal))
    return EXIT_OK


def _cmd_series(args) -> int:
    if args.order < 0 or args.order > _SERIES_CAP:
        print(
            f"error: --order must be in [0, {_SERIES_CAP}]", file=sys.stderr
        )
        return EXIT_USAGE
    if args.gf == "harmonic":
        ps = gf_harmonic(args.order)
    elif args.gf == "hyperharmonic":
        ps = gf_hyperharmonic(args.r, args.order)
    elif args.gf == "alpha":
        ps = gf_alpha(args.r, args.order)
    else:
        ps = gf_beta(args.r, args.order)
    print(json.dumps(ps.to_json_list()))
    return EXIT_OK


def _cmd_table(args, cfg: CliConfig) -> int:
    n_lo, n_hi = _parse_span(args.n)
    r_lo, r_hi = _parse_span(args.r)
    fn = {
        "hyperharmonic": hyperharmonic,
        "hyperharmonic-neg": hyperharmonic_neg,
        "beta": beta,
    }[args.sequence]
    grid = [
        [format_rational(fn(n, r)) for r in range(r_lo, r_hi + 1)]
        for n in range(n_lo, n_hi + 1)
    ]
    fmt = args.format or cfg.format
    if fmt == "json":
        print(json.dumps(grid))
    elif fmt == "csv":
        header = ["n\\r"] + [str(r) for r in range(r_lo, r_hi + 1)]
        print(",".join(header))
        for n, row in zip(range(n_lo, n_hi + 1), grid):
            print(",".join([str(n)] + row))
    else:
        for row in grid:
            print("\t".join(row))
    return EXIT_OK


def _audit_setting(args, cfg: CliConfig, key: str):
    """The flag's value, checked by its config key's rule; else the config's."""
    value = getattr(args, key)
    if value is None:
        return getattr(cfg, key)
    _, valid, rule = _AUDIT_SETTINGS[key]
    if not valid(value):
        raise ValueError(f"--{key} {rule}, got {value}")
    return value


def _cmd_audit(args, cfg: CliConfig) -> int:
    # Only audit and identities load the registry; other commands skip it.
    from . import identities

    suites = set(args.suite or [])
    tags = frozenset() if (not suites or "all" in suites) else frozenset(suites)
    only = args.only.split(",") if args.only else None
    report = identities.run_suite(
        tags,
        only=only,
        max_bound=args.max,
        param_bounds=_collect_bounds(args, cfg) or None,
        counterexample_cap=_audit_setting(args, cfg, "counterexamples"),
        tolerance_override=_audit_setting(args, cfg, "tolerance"),
    )
    if only and not report.entries:
        print(f"error: no identity matches --only {args.only!r}", file=sys.stderr)
        return EXIT_USAGE
    fmt = args.format or cfg.format
    if fmt == "json":
        payload = report.to_json() + "\n"
    elif fmt == "csv":
        payload = report.to_csv()
    else:
        payload = report.to_text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(payload)
    print(report.summary_line(), file=sys.stderr)
    return EXIT_OK if report.all_pass else EXIT_AUDIT_FAIL


def _cmd_identities(args) -> int:
    from . import identities

    suites = set(args.suite or [])
    tags = frozenset() if (not suites or "all" in suites) else frozenset(suites)
    for key in identities.list_identities():
        identity = identities.get_identity(key)
        if tags and not (tags & identity.tags):
            continue
        print(f"{key}\t{','.join(sorted(identity.tags))}\t{identity.anchor}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "series":
            return _cmd_series(args)
        if args.command == "table":
            return _cmd_table(args, cfg)
        if args.command == "audit":
            return _cmd_audit(args, cfg)
        return _cmd_identities(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
