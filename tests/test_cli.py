import importlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import hyperseq
import hyperseq.cli as cli
from hyperseq.cli import main
from hyperseq.errors import DomainError
from hyperseq.exactnum import factorial
from hyperseq.sequences import fibonacci, harmonic


#: Every public name the package exports, eagerly or on first use.
PACKAGE_EXPORTS = {
    # errors
    "ComputationIntegrityError", "ConfigError", "ConvergenceError", "DomainError",
    # exactnum
    "binomial_general", "binomial_int", "factorial", "falling_factorial",
    "format_rational", "parse_rational", "rising_factorial",
    # sequences
    "HyperharmonicMethod", "alpha", "beta", "fibonacci", "gen_harmonic",
    "harmonic", "hyperharmonic", "hyperharmonic_half_integer_alt",
    "hyperharmonic_neg", "hyperharmonic_rational_order",
    # analytic
    "CertifiedReal", "delta_hyperbolic_closed_form", "digamma",
    "hyperharmonic_real", "log_gamma", "sum_series",
    # opcalc
    "PowerSeries", "binomial_transform", "dx_reciprocal_rising",
    "forward_difference", "gf_alpha", "gf_beta", "gf_harmonic",
    "gf_hyperharmonic", "inverse_binomial_transform", "leaping_binomial",
    # identities
    "AuditReport", "Identity", "SequenceValue", "get_identity",
    "list_identities", "run_suite", "verify",
}


def run_python(*argv):
    """``python ...`` in a fresh child that imports this same package."""
    src = str(Path(hyperseq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_module(*argv):
    """``python -m hyperseq ...`` in a child that imports this same package."""
    return run_python("-m", "hyperseq", *argv)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_hyperharmonic(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "hyperharmonic", "--n", "3", "--r", "2")
        assert (code, out.strip()) == (0, "13/3")

    def test_every_method_agrees(self, capsys):
        for method in ("def", "closed", "conv", "rec-lower", "rec-upper"):
            code, out, _ = run_cli(
                capsys, "compute", "hyperharmonic", "--n", "6", "--r", "3",
                "--method", method,
            )
            assert (code, out.strip()) == (0, "341/10")

    def test_fibonacci_negative(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "fibonacci", "--k", "-3")
        assert (code, out.strip()) == (0, "2")

    def test_harmonic_zero(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "harmonic", "--n", "0")
        assert (code, out.strip()) == (0, "0")

    def test_rational_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "hyperharmonic-q", "--n", "2", "--w", "1/2"
        )
        assert (code, out.strip()) == (0, "1")

    def test_decimal_rendering(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "hyperharmonic", "--n", "3", "--r", "2",
            "--decimal", "4",
        )
        assert code == 0
        assert out.startswith("4.3333 ")
        code, out, _ = run_cli(
            capsys, "compute", "harmonic", "--n", "2", "--decimal", "0"
        )
        # 3/2 rounds half-even to 2
        assert out.startswith("2 ")

    def test_digamma_is_certified_json(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "digamma", "--arg", "1")
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["value"] + 0.5772156649015329) < 1e-12
        assert obj["abs_error_bound"] < 1e-12

    def test_bad_sequence_name_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "not-a-sequence", "--n", "1"])
        assert exc.value.code == 2

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "compute", "hyperharmonic", "--n", "0", "--r", "0")
        assert code == 4
        assert "domain error" in err

    def test_an_evaluator_value_error_is_a_bug_not_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._COMPUTE, "harmonic", (lambda n: factorial(-n), ("n",)))
        with pytest.raises(ValueError, match="factorial of a negative integer"):
            main(["compute", "harmonic", "--n", "3"])
        assert capsys.readouterr().err == ""

    def test_an_evaluator_domain_error_is_exit_four(self, capsys, monkeypatch):
        def outside(n):
            raise DomainError(f"no value at {n}")

        monkeypatch.setitem(cli._COMPUTE, "harmonic", (outside, ("n",)))
        code, out, err = run_cli(capsys, "compute", "harmonic", "--n", "3")
        assert (code, out, err) == (4, "", "domain error: no value at 3\n")

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "harmonic")
        assert code == 2
        assert "requires --n" in err

    @pytest.mark.parametrize("argv, flag", [
        (["harmonic", "--n", "5", "--r", "3"], "--r"),
        (["harmonic", "--n", "5", "--method", "def"], "--method"),
        (["digamma", "--arg", "2.5", "--decimal", "3"], "--decimal"),
        (["digamma", "--arg", "2.5", "--n", "1"], "--n"),
        (["fibonacci", "--k", "3", "--arg", "1"], "--arg"),
        (["hyperharmonic-q", "--n", "2", "--w", "1/2", "--r", "1"], "--r"),
        (["beta", "--n", "2", "--r", "1", "--m", "2"], "--m"),
    ])
    def test_unread_flag_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "compute", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {argv[0]} does not read {flag}\n"

    @pytest.mark.parametrize("argv, message", [
        (["harmonic", "--r", "3", "--decimal", "-1"], "--decimal must be"),
        (["harmonic", "--r", "3"], "harmonic requires --n"),
        (["digamma", "--decimal", "2"], "digamma requires --arg"),
    ])
    def test_unread_flag_is_checked_last(self, capsys, argv, message):
        code, _, err = run_cli(capsys, "compute", *argv)
        assert code == 2
        assert err.startswith(f"error: {message}")

    def test_every_compute_flag_is_checked(self):
        from hyperseq.cli import _COMPUTE_FLAGS, _build_parser

        args = vars(_build_parser().parse_args(["compute", "harmonic"]))
        assert set(args) - {"config", "command", "sequence"} == set(_COMPUTE_FLAGS)

    def test_method_defaults_to_closed(self, capsys):
        _, default, _ = run_cli(capsys, "compute", "hyperharmonic", "--n", "6",
                                "--r", "3")
        _, closed, _ = run_cli(capsys, "compute", "hyperharmonic", "--n", "6",
                               "--r", "3", "--method", "closed")
        assert default == closed == "341/10\n"


class TestValuesPastTheDigitLimit:
    """Exact values longer than the interpreter's int/str digit limit
    (4,300 digits by default) print in full."""

    def test_fibonacci(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "fibonacci", "--k", "30000")
        text = out.strip()
        assert (code, len(text)) == (0, 6270)
        assert int(Decimal(text)) == fibonacci(30000)

    def test_harmonic(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "harmonic", "--n", "20000")
        p, q = out.strip().split("/")
        assert (code, len(p), len(q)) == (0, 8677, 8676)
        assert Fraction(int(Decimal(p)), int(Decimal(q))) == harmonic(20000)

    def test_decimal(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "fibonacci", "--k", "30000", "--decimal", "2"
        )
        whole, suffix = out.strip().split(".", 1)
        assert (code, suffix) == (0, "00 (half-even to 2 places)")
        assert int(Decimal(whole)) == fibonacci(30000)


class TestSeries:
    def test_hyperharmonic_series(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--gf", "hyperharmonic", "--r", "2", "--order", "3"
        )
        assert code == 0
        assert json.loads(out) == ["0", "1", "5/2", "13/3"]

    def test_harmonic_series(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--gf", "harmonic", "--order", "2")
        assert json.loads(out) == ["0", "1", "3/2"]

    def test_order_zero(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--gf", "harmonic", "--order", "0")
        assert json.loads(out) == ["0"]

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "series", "--gf", "harmonic", "--order", "513")
        assert code == 2


class TestTable:
    def test_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "hyperharmonic", "--n", "1:2", "--r", "1:2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == [["1", "1"], ["3/2", "5/2"]]

    def test_neg_first_row_all_ones(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "hyperharmonic-neg", "--n", "1:1", "--r", "1:6",
            "--format", "json",
        )
        assert json.loads(out) == [["1"] * 6]

    def test_empty_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "hyperharmonic", "--n", "1:0", "--r", "1:2",
            "--format", "json",
        )
        assert (code, json.loads(out)) == (0, [])

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "beta", "--n", "0:1", "--r", "1:2", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[0] == "n\\r,1,2"
        assert lines[1] == "0,1,1/2"


class TestAudit:
    def test_core_all_pass_exit_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "audit", "--suite", "core", "--max", "6", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert all(row["verdict"] == "PASS" for row in data)
        assert "PASS" in err

    def test_failing_row_exit_three(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--suite", "table1", "--only", "3.95", "--max", "3",
            "--format", "json",
        )
        assert code == 3
        data = json.loads(out)
        assert data[0]["verdict"] == "FAIL"
        assert data[0]["counterexamples"][0] == {
            "params": {"n": 1}, "lhs": "-2", "rhs": "2",
        }

    def test_float_row_with_pinned_r(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--suite", "table2", "--only", "1.23", "--r", "2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)[0]["tested"] == 1

    def test_byte_identical_json(self, capsys):
        args = ("audit", "--suite", "float", "--max", "5", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_report_written_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "audit", "--suite", "core", "--only", "prop-5", "--max", "4",
            "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())[0]["identity_id"] == "prop-5"

    def test_unwritable_out_is_io_error(self, capsys):
        code, _, err = run_cli(
            capsys, "audit", "--suite", "core", "--only", "prop-5", "--max", "2",
            "--out", "/nonexistent-dir/report.json",
        )
        assert code == 5

    def test_unknown_only_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "audit", "--only", "9.99", "--max", "2")
        assert code == 2
        assert "no identity matches" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--suite", "table2", "--only", "Z.58", "--max", "4",
            "--format", "csv",
        )
        assert code == 3
        lines = out.splitlines()
        assert lines[0].startswith("identity_id,")
        assert lines[1].startswith("t2-Z.58,exact,FAIL")
        assert lines[1].endswith(",PASS")  # alternative-convention verdict

    def test_vacuous_audit_exit_three(self, capsys):
        code, out, err = run_cli(capsys, "audit", "--max", "0", "--format", "json")
        assert code == 3
        verdicts = {row["verdict"] for row in json.loads(out)}
        assert verdicts == {"PASS", "SKIPPED"}
        assert "0 FAIL" in err

    @pytest.mark.parametrize("fmt,out", [
        ("text", None), ("json", None), ("csv", None), ("text", "report.txt"),
    ])
    def test_summary_line_is_printed_once(self, fmt, out, tmp_path, capsys):
        # a text report on stdout ends with the summary line; every other
        # report leaves it to stderr
        argv = ["audit", "--only", "t2-Z.58", "--max", "3", "--format", fmt]
        if out is not None:
            argv += ["--out", str(tmp_path / out)]
        code, stdout, stderr = run_cli(capsys, *argv)
        line = "1 identities: 0 PASS, 1 FAIL, 0 SKIPPED\n"
        assert code == 3
        assert (stdout + stderr).count(line) == 1
        if out is not None:
            assert (tmp_path / out).read_text().endswith(line)

    def test_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--only", "prop-5", "--max", "2", "--workers", "2"])
        assert exc.value.code == 2


class TestConfig:
    def test_config_file_applies(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "hyperseq.conf"
        cfg.write_text("max_n = 2\nformat = json\n")
        monkeypatch.setenv("HYPERSEQ_CONFIG", str(cfg))
        code, out, _ = run_cli(capsys, "audit", "--suite", "table1", "--only", "1.41")
        assert code == 0
        assert json.loads(out)[0]["tested"] == 2

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "hyperseq.conf"
        cfg.write_text("max_n = 2\n")
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "audit", "--suite", "table1",
            "--only", "1.41", "--n", "1:5", "--format", "json",
        )
        assert json.loads(out)[0]["tested"] == 5

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "hyperseq.conf"
        cfg.write_text("max_q = 2\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "compute",
                               "harmonic", "--n", "1")
        assert code == 2
        assert "unknown key" in err

    def test_unreadable_config_file_names_its_path(self, tmp_path, capsys):
        missing = tmp_path / "missing.conf"
        code, out, err = run_cli(capsys, "--config", str(missing), "identities")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config file {missing}: ")

    def test_line_without_equals_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "hyperseq.conf"
        cfg.write_text("format = json\n# a comment\nmax_n 4\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "identities")
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}:3: expected 'key = value'\n"

    def test_workers_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "hyperseq.conf"
        cfg.write_text("workers = 2\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "audit",
                               "--only", "prop-5", "--max", "2")
        assert code == 2
        assert "unknown key" in err

    @pytest.mark.parametrize("key, line, span", [
        ("eq-hhr", "max_r = 5", "--r=-8:5"),
        ("prop-leap-rel", "max_n = 4", "--n=2:4"),
    ])
    def test_max_key_clamps_only_the_top(self, tmp_path, capsys, key, line, span):
        cfg = tmp_path / "hyperseq.conf"
        cfg.write_text(line + "\n")
        code, via_config, _ = run_cli(
            capsys, "--config", str(cfg), "audit", "--only", key, "--format", "json"
        )
        assert code == 0
        _, via_flag, _ = run_cli(capsys, "audit", "--only", key, span, "--format", "json")
        assert via_config == via_flag

    def test_tolerance_key_rejected(self, tmp_path, capsys):
        # float verdicts come from the certified radii alone
        cfg = tmp_path / "hyperseq.conf"
        cfg.write_text("tolerance = 1e-6\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "audit",
                                 "--only", "prop-5", "--max", "2")
        assert (code, out) == (2, "")
        assert "unknown key 'tolerance'" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_counterexamples_key_rejected(self, tmp_path, capsys, value):
        cfg = tmp_path / "hyperseq.conf"
        cfg.write_text(f"counterexamples = {value}\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "audit",
                                 "--only", "prop-5", "--max", "2")
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}:1: counterexamples must be positive\n"

    @pytest.mark.parametrize("line", ["max_n = abc", "counterexamples = x"])
    def test_unconvertible_value_names_file_line_and_key(self, tmp_path, capsys, line):
        cfg = tmp_path / "hyperseq.conf"
        cfg.write_text("# comment\n" + line + "\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "compute",
                                 "harmonic", "--n", "1")
        assert (code, out) == (2, "")
        key, _, value = (part.strip() for part in line.partition("="))
        assert err.startswith(f"error: {cfg}:2: {key} ")
        assert repr(value) in err


class TestAuditFlags:
    @pytest.mark.parametrize("flag", ["--counterexamples"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_out_of_range_flag_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "audit", "--only", "prop-5", "--max", "2", flag, value
        )
        assert code == 2
        assert out == ""
        assert flag in err

    def test_flag_wins_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "hyperseq.conf"
        cfg.write_text("counterexamples = 4\n")
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "audit", "--suite", "table2",
            "--only", "1.42", "--max", "4", "--format", "json",
            "--counterexamples", "1",
        )
        assert code == 3
        assert len(json.loads(out)[0]["counterexamples"]) == 1

    def test_a_pinned_pole_is_a_counted_skip(self, capsys):
        # eq-pd's grid leaves out z = 0, the pole psi(0) of its rhs; pinned
        # there, each case is skipped and counted, never dropped uncounted
        code, out, _ = run_cli(capsys, "audit", "--only", "eq-pd", "--z", "0",
                               "--format", "json")
        (row,) = json.loads(out)
        assert code == 3
        assert (row["verdict"], row["tested"], row["skipped"]) == ("SKIPPED", 0, 10)
        assert [r["reason"] for r in row["skip_reasons"]] == ["pole: division by zero"] * 3

    def test_pin_flags_name_registry_parameters(self):
        # a flag that pins no registry parameter (like a past --w) fails here
        from hyperseq.cli import _BOUND_PARAMS, _SAMPLE_PARAMS
        from hyperseq.identities import (
            IntRange,
            RationalChoice,
            get_identity,
            list_identities,
        )

        params = [p for key in list_identities() for p in get_identity(key).params]
        ints = {p.name for p in params if isinstance(p, IntRange)}
        rationals = {p.name for p in params if isinstance(p, RationalChoice)}
        assert set(_BOUND_PARAMS) <= ints
        assert set(_SAMPLE_PARAMS) == rationals


class TestGarbageInput:
    """Inputs that used to print plausible output and exit 0."""

    @pytest.mark.parametrize("arg", ["nan", "inf", "-inf", "1e-310"])
    def test_non_finite_digamma_is_domain_error(self, capsys, arg):
        # 1e-310 is finite but subnormal: 1/x overflows and the ball is
        # (-inf, inf), which used to print as the non-JSON -Infinity
        code, out, err = run_cli(capsys, "compute", "digamma", f"--arg={arg}")
        assert (code, out) == (4, "")
        assert "finite" in err

    @pytest.mark.parametrize("argv", [
        ("compute", "digamma", "--arg", "1e-300"),
        ("series", "--gf", "hyperharmonic", "--r", "3", "--order", "8"),
        ("table", "beta", "--n", "0:3", "--r", "1:3", "--format", "json"),
        ("audit", "--only", "prop-one11-sinh", "--max", "3", "--format", "json"),
    ], ids=["compute", "series", "table", "audit"])
    def test_json_output_is_strict_json(self, capsys, argv):
        def no_constant(name):
            raise AssertionError(f"non-JSON literal {name} in the output")

        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        json.loads(out, parse_constant=no_constant)

    @pytest.mark.parametrize("sequence, flags", [
        ("harmonic", ("--n", "3")),
        ("hyperharmonic", ("--n", "3", "--r", "2")),
    ])
    def test_negative_decimal_is_usage_error(self, capsys, sequence, flags):
        code, out, err = run_cli(capsys, "compute", sequence, *flags, "--decimal", "-1")
        assert (code, out) == (2, "")
        assert "--decimal" in err

    @pytest.mark.parametrize("argv", [
        ("table", "hyperharmonic", "--n", "5:1", "--r", "1:2"),
        ("table", "beta", "--n", "1:2", "--r", "3:1"),
        ("audit", "--only", "prop-5", "--n", "5:1"),
    ])
    def test_backwards_span_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "runs backwards" in err

    @pytest.mark.parametrize("argv", [
        ("audit", "--only", "eq-13", "--n", "3:"),
        ("table", "beta", "--n", "3:", "--r", "1:2"),
    ])
    def test_malformed_span_names_its_flag(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "--n" in err and "'3:'" in err
        assert "invalid literal" not in err

    @pytest.mark.parametrize("n, w", [("2", "-2"), ("3", "-2"), ("1", "-5"), ("4", "0")])
    def test_integer_order_at_most_zero_is_domain_error(self, capsys, n, w):
        # h(2, -2) is 0 (hyperharmonic_neg); the rational-order formula gives -3/2
        code, out, err = run_cli(capsys, "compute", "hyperharmonic-q", "--n", n, "--w", w)
        assert (code, out) == (4, "")
        assert "hyperharmonic_neg" in err

    @pytest.mark.parametrize("argv", [
        ("compute", "digamma", "--arg", "1/0"),
        ("compute", "hyperharmonic-q", "--n", "2", "--w", "1/0"),
        ("audit", "--only", "prop-5", "--x", "1/0"),
    ], ids=["digamma", "hyperharmonic-q", "audit-x"])
    def test_zero_denominator_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "1/0" in err

    @pytest.mark.parametrize("flag, key, first", [
        ("--n", "prop-5", "eq-10"),
        ("--r", "eq-8", "eq-hhr"),
        ("--k", "cor-son4", "cor-nf"),
        ("--j", "t2-6.19", None),
    ])
    def test_override_below_a_row_lower_bound_skips_the_row(
        self, capsys, flag, key, first
    ):
        # A row never runs below its own lower bound: rows that start at 1
        # are SKIPPED under a pin at 0, rows that start at or below 0 run.
        code, out, err = run_cli(capsys, "audit", flag, "0", "--max", "3",
                                 "--format", "json")
        assert code == 3 and "Traceback" not in err
        rows = {row["identity_id"]: row for row in json.loads(out)}
        assert len(rows) == 82
        assert (rows[key]["verdict"], rows[key]["tested"]) == ("SKIPPED", 0)
        if first is not None:
            assert rows[first]["verdict"] == "PASS" and rows[first]["tested"] > 0

    def test_override_low_end_is_clamped_to_the_row(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--only", "t2-1.42", "--r", "0:1",
                               "--format", "json")
        row = json.loads(out)[0]
        assert (code, row["verdict"], row["tested"]) == (0, "PASS", 20)

    @pytest.mark.parametrize("pin, code, tested", [
        ("3", 0, 42), ("1/2", 3, 0), ("-1", 3, 0),
    ])
    def test_rational_pin_on_an_integer_axis(self, capsys, pin, code, tested):
        # prop-teo4's x is an integer in [0, 10]; only an integral pin in
        # range runs it (7 degrees x 6 orders).
        got, out, _ = run_cli(capsys, "audit", "--only", "prop-teo4", f"--x={pin}",
                              "--format", "json")
        assert (got, json.loads(out)[0]["tested"]) == (code, tested)

    def test_whole_audit_with_a_pinned_x(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--x", "3", "--max", "3",
                               "--format", "json")
        # some rows read x, so the pin is no error for the whole registry
        assert code == 3
        rows = {row["identity_id"]: row for row in json.loads(out)}
        assert len(rows) == 82
        assert rows["prop-teo4"]["verdict"] == "PASS"

    @pytest.mark.parametrize("argv, flag", [
        (("--only", "t2-1.42", "--x", "1/2"), "--x"),
        (("--only", "t2-1.42", "--s", "3", "--max", "2"), "--s"),
        (("--suite", "float", "--n", "2"), "--n"),
    ])
    def test_pin_that_no_selected_row_reads_is_usage_error(self, capsys, argv, flag):
        # t2-1.42 reads n and r only; no float row reads n
        code, out, err = run_cli(capsys, "audit", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: no selected identity reads {flag}\n"

    def test_unmatched_only_is_reported_before_an_unread_pin(self, capsys):
        code, out, err = run_cli(capsys, "audit", "--only", "9.99", "--x", "1")
        assert (code, out) == (2, "")
        assert "no identity matches --only '9.99'" in err

    @pytest.mark.parametrize("x", ["-1", "-2", "-3", "-7"])
    @pytest.mark.parametrize("key, flag", [
        ("eq-13", "--x"),
        ("prop-leap-rel", "--x"),
        ("t1-12.9a", "--x"),
        ("t1-12.9b", "--y"),
        ("t2-12.9a", "--x"),
        ("t2-12.9b", "--y"),
    ])
    def test_negative_integer_at_a_pole_row(self, capsys, key, flag, x):
        code, out, err = run_cli(capsys, "audit", "--only", key, f"{flag}={x}",
                                 "--format", "json")
        assert code in (0, 3) and "Traceback" not in err
        [row] = json.loads(out)
        assert row["identity_id"] == key
        if (key, x) == ("prop-leap-rel", "-1"):
            # C(i^m - 2, i^m - (i-1)^m - 1) vanishes for no i >= 2: no pole
            assert (row["tested"], row["skipped"]) == (15, 0)
        else:
            assert row["skipped"] > 0
            assert "pole" in row["skip_reasons"][0]["reason"]
        if (key, x) == ("t2-12.9a", "-1"):
            # every case meets a pole; a row with no tested case is
            # SKIPPED, which does not pass
            assert (code, row["tested"], row["skipped"]) == (3, 0, 60)

    @pytest.mark.parametrize("command", ["identities", "audit"])
    def test_unknown_suite_is_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--suite", "bogus"])
        assert exc.value.code == 2

    def test_audit_has_no_w_pin(self, capsys):
        # No row has a parameter w, so the pin would be dropped silently.
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--only", "prop-5", "--w", "3", "--max", "2"])
        assert exc.value.code == 2
        assert "--w" in capsys.readouterr().err

    def test_empty_only_matches_no_identity(self, capsys):
        # an empty value is a value, not an absent flag: it used to audit
        # every row
        code, out, err = run_cli(capsys, "audit", "--only", "")
        assert (code, out) == (2, "")
        assert err == "error: no identity matches --only ''\n"

    def test_empty_out_path_cannot_be_written(self, capsys):
        # it used to print the report to stdout and exit 0
        code, out, err = run_cli(capsys, "audit", "--only", "prop-5", "--max", "2",
                                 "--out", "")
        assert (code, out) == (5, "")
        assert err.startswith("error: cannot write : ")

    def test_empty_config_path_cannot_be_read(self, capsys, tmp_path, monkeypatch):
        # it used to run with no config file, or with HYPERSEQ_CONFIG's
        cfg = tmp_path / "h.cfg"
        cfg.write_text("format = json\n")
        monkeypatch.setenv("HYPERSEQ_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, "--config", "", "identities")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read config file : ")

    def test_empty_config_variable_means_unset(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERSEQ_CONFIG", "")
        code, out, _ = run_cli(capsys, "identities", "--suite", "float")
        assert code == 0 and len(out.splitlines()) == 8

    def test_audit_has_no_tolerance(self, capsys):
        # Float verdicts come from the certified radii alone.
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--only", "prop-5", "--tolerance", "1e-6"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tolerance" in captured.err


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = run_module("compute", "hyperharmonic", "--n", "3", "--r", "2")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "13/3"

    def test_exit_code_three_through_process(self):
        proc = run_module(
            "audit", "--suite", "table2", "--only", "1.42", "--max", "3",
            "--format", "json",
        )
        assert proc.returncode == 3

    def test_import_loads_no_thread_pool_or_logging(self):
        # A cold start loads neither the identity registry nor the
        # modules only it, the CSV writer, digamma or the series need.
        lazy = {"hyperseq.identities", "hyperseq.analytic", "hyperseq.opcalc"}
        unwanted = lazy | {"concurrent.futures", "logging", "dataclasses", "inspect", "csv"}
        report = f"print(sorted({unwanted!r} & set(sys.modules)))"
        proc = run_python("-c", f"import sys, hyperseq.cli; {report}")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

        def loaded_by(*argv):
            """The unwanted modules a cold ``hyperseq argv`` loads."""
            proc = run_python(
                "-c",
                "import atexit, runpy, sys; "
                f"atexit.register(lambda: {report}); "
                f"sys.argv = ['hyperseq', *{list(argv)!r}]; "
                "runpy.run_module('hyperseq', run_name='__main__', alter_sys=True)",
            )
            assert proc.returncode == 0, proc.stderr
            *out, modules = proc.stdout.splitlines()
            return out, modules

        assert loaded_by("compute", "harmonic", "--n", "5") == (["137/60"], "[]")
        assert loaded_by("compute", "digamma", "--arg", "1/2")[1] == "['hyperseq.analytic']"
        out, modules = loaded_by("series", "--gf", "harmonic", "--order", "3")
        assert (out, modules) == (['["0", "1", "3/2", "11/6"]'], "['hyperseq.opcalc']")

        # Every export is still listed, and the deferred ones resolve to
        # their module's object on first use.
        from hyperseq import analytic, opcalc

        assert PACKAGE_EXPORTS <= set(dir(hyperseq))
        for name in sorted(PACKAGE_EXPORTS):
            assert getattr(hyperseq, name) is not None, name
        assert hyperseq.digamma is analytic.digamma
        assert hyperseq.PowerSeries is opcalc.PowerSeries

        # The registry's names still resolve from the package, on first use.
        proc = run_python(
            "-c",
            "import sys, hyperseq; "
            "loaded = 'hyperseq.identities' in sys.modules; "
            "from hyperseq import (AuditReport, Identity, SequenceValue, "
            "get_identity, list_identities, run_suite, verify); "
            "from hyperseq import identities; "
            "print(loaded, run_suite is identities.run_suite, "
            "get_identity('prop-5').key, len(list_identities()))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True", "prop-5", "82"]

        with pytest.raises(AttributeError, match="no_such_name"):
            hyperseq.no_such_name

    def test_import_and_config_file_load_no_record(self, tmp_path):
        cfg = tmp_path / "hyperseq.cfg"
        cfg.write_text("format = csv\nmax_n = 3\ncounterexamples = 2\n")
        proc = run_python(
            "-c",
            "import sys, hyperseq.cli; "
            "print('hyperseq._records' in sys.modules); "
            "hyperseq.cli.main(['--config', sys.argv[1], 'table', 'beta', "
            "'--n', '1:1', '--r', '1:1']); "
            "print('hyperseq._records' in sys.modules)",
            str(cfg),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "n\\r,1", "1,1", "False"]

    def test_library_imports_only_the_standard_library(self):
        proc = run_python(
            "-c",
            "import sys; before = set(sys.modules); "
            "import hyperseq.identities, hyperseq.cli; "
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(new - set(sys.stdlib_module_names) - {'hyperseq'}))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestLazyRegistryNames:
    def test_registry_names_resolve_from_the_package(self):
        from hyperseq import identities

        assert hyperseq.run_suite is identities.run_suite
        assert hyperseq.verify is identities.verify
        assert {"run_suite", "verify", "harmonic"} <= set(dir(hyperseq))

    def test_every_lazy_export_resolves_and_is_listed(self):
        # A name left in the lazy table after its function is deleted
        # would fail only on first use
        for name, module in hyperseq._LAZY_EXPORTS.items():
            source = importlib.import_module(f"hyperseq.{module}")
            assert getattr(hyperseq, name) is getattr(source, name), name
            assert name in PACKAGE_EXPORTS, name


class TestIdentitiesListing:
    def test_lists_all(self, capsys):
        code, out, _ = run_cli(capsys, "identities")
        assert code == 0
        assert len(out.splitlines()) == 82

    def test_suite_filter(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--suite", "float")
        keys = [line.split("\t")[0] for line in out.splitlines()]
        assert "prop-one6" in keys and "prop-5" not in keys
