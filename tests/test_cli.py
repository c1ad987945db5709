import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperseq
from hyperseq.cli import main


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

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "harmonic")
        assert code == 2
        assert "requires --n" in err


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

    def test_bad_tolerance_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "hyperseq.conf"
        cfg.write_text("tolerance = 2.0\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "compute",
                               "harmonic", "--n", "1")
        assert code == 2


class TestAuditFlags:
    @pytest.mark.parametrize("flag", ["--tolerance", "--counterexamples"])
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


class TestGarbageInput:
    """Inputs that used to print plausible output and exit 0."""

    @pytest.mark.parametrize("arg", ["nan", "inf", "-inf"])
    def test_non_finite_digamma_is_domain_error(self, capsys, arg):
        code, out, err = run_cli(capsys, "compute", "digamma", f"--arg={arg}")
        assert (code, out) == (4, "")
        assert "finite" in err

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

    @pytest.mark.parametrize("command", ["identities", "audit"])
    def test_unknown_suite_is_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--suite", "bogus"])
        assert exc.value.code == 2


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
        proc = run_python(
            "-c",
            "import sys, hyperseq.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestIdentitiesListing:
    def test_lists_all(self, capsys):
        code, out, _ = run_cli(capsys, "identities")
        assert code == 0
        assert len(out.splitlines()) == 82

    def test_suite_filter(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--suite", "float")
        keys = [line.split("\t")[0] for line in out.splitlines()]
        assert "prop-one6" in keys and "prop-5" not in keys
