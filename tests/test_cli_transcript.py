"""Golden transcript of the command line.

``fixtures/cli_transcript.json`` maps each argv below to the exit code,
stdout and stderr of ``hyperseq`` run in-process.  An entry with a
``config`` text first writes it to a file and passes that file's path
where the argv says ``{config}``; the path is written back as
``{config}`` in stderr.  For argparse's own usage errors only the exit
code and the order of the offered choices are pinned, because argparse's
wording changes between Python patch releases.

The module does not import pytest, so the check also runs without it::

    PYTHONPATH=src python tests/test_cli_transcript.py --check

Regenerate the fixture (only when a CLI change is intended) with::

    PYTHONPATH=src python tests/test_cli_transcript.py --write
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from hyperseq.cli import main as cli_main

TRANSCRIPT = Path(__file__).parent / "fixtures" / "cli_transcript.json"

SEQUENCES = [
    "harmonic",
    "gen-harmonic",
    "hyperharmonic",
    "hyperharmonic-neg",
    "hyperharmonic-q",
    "fibonacci",
    "alpha",
    "beta",
    "digamma",
]
METHODS = ["def", "closed", "conv", "rec-lower", "rec-upper"]


def _compute_cases():
    c = "compute"
    cases = [
        [c, "harmonic", "--n", "5"],
        [c, "harmonic", "--n", "0"],
        [c, "harmonic", "--n", "-1"],
        [c, "harmonic", "--n", "5", "--decimal", "4"],
        [c, "harmonic"],
        [c, "gen-harmonic", "--n", "4", "--m", "2"],
        [c, "gen-harmonic", "--n", "3", "--m", "-1"],
        [c, "gen-harmonic", "--n", "4", "--m", "2", "--decimal", "0"],
        [c, "gen-harmonic", "--m", "2"],
        [c, "gen-harmonic", "--n", "4"],
        [c, "gen-harmonic"],
    ]
    cases += [
        [c, "hyperharmonic", "--n", "6", "--r", "3", "--method", m]
        for m in METHODS
    ]
    cases += [
        [c, "hyperharmonic", "--n", "3", "--r", "2"],
        [c, "hyperharmonic", "--n", "6", "--r", "3", "--decimal", "6"],
        [c, "hyperharmonic", "--n", "-1", "--r", "2"],
        [c, "hyperharmonic", "--n", "0", "--r", "0"],
        [c, "hyperharmonic", "--r", "2"],
        [c, "hyperharmonic", "--n", "3"],
        [c, "hyperharmonic-neg", "--n", "3", "--r", "2"],
        [c, "hyperharmonic-neg", "--n", "3", "--r", "2", "--decimal", "3"],
        [c, "hyperharmonic-neg", "--n", "-1", "--r", "2"],
        [c, "hyperharmonic-neg", "--r", "2"],
        [c, "hyperharmonic-neg", "--n", "3"],
        [c, "hyperharmonic-q", "--n", "2", "--w", "1/2"],
        [c, "hyperharmonic-q", "--n", "4", "--w=-3/2", "--decimal", "5"],
        [c, "hyperharmonic-q", "--n", "-1", "--w", "1/2"],
        [c, "hyperharmonic-q", "--n", "2", "--w", "abc"],
        [c, "hyperharmonic-q", "--w", "1/2"],
        [c, "hyperharmonic-q", "--n", "2"],
        [c, "fibonacci", "--k", "10"],
        [c, "fibonacci", "--k", "-3"],
        [c, "fibonacci", "--k", "7", "--decimal", "2"],
        [c, "fibonacci"],
        [c, "alpha", "--n", "3", "--r", "2"],
        [c, "alpha", "--n", "3", "--r", "2", "--decimal", "4"],
        [c, "alpha", "--n", "0", "--r", "0"],
        [c, "alpha", "--r", "2"],
        [c, "alpha", "--n", "3"],
        [c, "beta", "--n", "3", "--r", "2"],
        [c, "beta", "--n", "3", "--r", "2", "--decimal", "4"],
        [c, "beta", "--n", "-1", "--r", "1"],
        [c, "beta", "--r", "2"],
        [c, "beta", "--n", "3"],
        [c, "beta", "--n", "3", "--r", "2", "--decimal", "-1"],
        [c, "digamma", "--arg", "1"],
        [c, "digamma", "--arg", "1/2"],
        [c, "digamma", "--arg", "2.5", "--decimal", "3"],
        [c, "digamma", "--arg", "0"],
        [c, "digamma", "--arg", "1e-310"],
        [c, "digamma", "--arg", "xyz"],
        [c, "digamma", "--arg", "1/0"],
        [c, "digamma"],
        [c, "digamma", "--arg", "1", "--decimal", "-1"],
    ]
    return cases


def _series_cases():
    cases = [
        ["series", "--gf", gf, "--r", "2", "--order", "4"]
        for gf in ("harmonic", "hyperharmonic", "alpha", "beta")
    ]
    return cases + [
        ["series", "--gf", "harmonic", "--order", "0"],
        ["series", "--gf", "beta", "--order", "3"],
        ["series", "--gf", "beta", "--r", "0", "--order", "3"],
        ["series", "--gf", "alpha", "--r", "-1", "--order", "3"],
        ["series", "--gf", "harmonic", "--order", "513"],
        ["series", "--gf", "hyperharmonic", "--order", "-1"],
    ]


def _table_cases():
    spans = {
        "hyperharmonic": ["--n", "0:3", "--r", "1:3"],
        "hyperharmonic-neg": ["--n", "1:3", "--r", "1:2"],
        "beta": ["--n", "0:3", "--r", "1:3"],
    }
    cases = [
        ["table", seq, *span, "--format", fmt]
        for seq, span in spans.items()
        for fmt in ("json", "csv", "text")
    ]
    return cases + [
        ["table", "hyperharmonic", "--n", "2", "--r", "1:3"],
        ["table", "hyperharmonic", "--n", "2:1", "--r", "1:3", "--format", "json"],
        ["table", "hyperharmonic", "--n", "3:1", "--r", "1:3"],
        ["table", "hyperharmonic", "--n", "0:3", "--r", "0:2"],
        ["table", "beta", "--n", "0:2", "--r", "0:1"],
    ]


CASES = [
    *_compute_cases(),
    *_series_cases(),
    *_table_cases(),
    ["identities"],
    ["identities", "--suite", "table1"],
    ["identities", "--suite", "float", "--suite", "core"],
    ["identities", "--suite", "all"],
    ["audit", "--only", "1.41", "--format", "json"],
    ["audit", "--only", "1.41", "--format", "csv"],
    ["audit", "--only", "3.95", "--format", "csv"],
    ["audit", "--suite", "table1", "--only", "1.41", "--format", "json"],
    ["audit", "--only", "9.99", "--max", "2"],
]

# (config text, argv): the file applies, a flag wins, bad keys are rejected
CONFIG_CASES = [
    ("format = csv\n", ["--config", "{config}", "table", "beta", "--n", "1:2", "--r", "1:2"]),
    ("format = csv\n", ["--config", "{config}", "table", "beta", "--n", "1:2", "--r", "1:2",
                        "--format", "json"]),
    ("max_n = 2\nformat = json\n", ["--config", "{config}", "audit", "--only", "t1-1.41"]),
    ("max_n = 2\n", ["--config", "{config}", "audit", "--only", "t1-1.41", "--n", "4",
                     "--format", "json"]),
    ("colour = red\n", ["--config", "{config}", "compute", "harmonic", "--n", "2"]),
    ("format = yaml\n", ["--config", "{config}", "compute", "harmonic", "--n", "2"]),
    ("max_n = 0\n", ["--config", "{config}", "audit", "--only", "t1-1.41"]),
]

# argparse usage errors: argv and the choices it must offer, in order
USAGE_CASES = [
    (["compute", "bogus"], SEQUENCES),
    (["series", "--gf", "bogus", "--order", "2"],
     ["harmonic", "hyperharmonic", "alpha", "beta"]),
    (["table", "bogus", "--n", "0", "--r", "0"],
     ["hyperharmonic", "hyperharmonic-neg", "beta"]),
    (["table", "beta", "--n", "1", "--r", "1", "--format", "yaml"],
     ["json", "csv", "text"]),
    (["audit", "--format", "yaml"], ["json", "csv", "text"]),
]

# gf_hyperharmonic sums prefixes for r <= order and multiplies for r > order;
# recorded after every entry above
GF_DISPATCH_CASES = [
    ["series", "--gf", "hyperharmonic", "--r", str(r), "--order", "6"] for r in (3, 6, 7)
] + [["series", "--gf", "harmonic", "--order", "8"]]

# a pinned parameter that no selected row reads is a usage error;
# recorded after every entry above
UNREAD_FLAG_CASES = [
    ["audit", "--only", "t2-1.42", "--x", "1/2"],
    ["audit", "--only", "t2-1.42", "--s", "3", "--max", "2"],
]


def run(argv, config=None):
    """Exit code, stdout and stderr of ``hyperseq argv`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("HYPERSEQ_CONFIG", None)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "hyperseq.cfg")
            if config is not None:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(config)
            argv = [path if a == "{config}" else a for a in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_main(argv)
                except SystemExit as exc:
                    code = exc.code
    finally:
        if saved is not None:
            os.environ["HYPERSEQ_CONFIG"] = saved
    return code, out.getvalue(), err.getvalue().replace(path, "{config}")


def offers_in_order(stderr, choices):
    """True if ``choices`` appear as one unbroken run of words in ``stderr``."""
    words = re.findall(r"[\w-]+", stderr)
    n = len(choices)
    return any(words[i:i + n] == choices for i in range(len(words) - n + 1))


def transcript():
    entries = []
    for argv in CASES:
        code, out, err = run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    for config, argv in CONFIG_CASES:
        code, out, err = run(argv, config)
        entries.append(
            {"argv": argv, "config": config, "exit": code, "stdout": out, "stderr": err}
        )
    for argv, choices in USAGE_CASES:
        code, _, err = run(argv)
        assert code == 2 and offers_in_order(err, choices), (argv, err)
        entries.append({"argv": argv, "exit": 2, "choices": choices})
    for argv in GF_DISPATCH_CASES + UNREAD_FLAG_CASES:
        code, out, err = run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    return entries


def mismatches():
    """The argv of every fixture entry that no longer replays unchanged."""
    bad = []
    for entry in json.loads(TRANSCRIPT.read_text(encoding="utf-8")):
        code, out, err = run(entry["argv"], entry.get("config"))
        if "choices" in entry:
            same = code == entry["exit"] and offers_in_order(err, entry["choices"])
        else:
            same = (code, out, err) == (entry["exit"], entry["stdout"], entry["stderr"])
        if not same:
            bad.append(entry["argv"])
    return bad


def test_fixture_covers_every_case():
    recorded = [e["argv"] for e in json.loads(TRANSCRIPT.read_text(encoding="utf-8"))]
    expected = (
        CASES
        + [a for _, a in CONFIG_CASES]
        + [a for a, _ in USAGE_CASES]
        + GF_DISPATCH_CASES
        + UNREAD_FLAG_CASES
    )
    assert recorded == expected


def test_every_compute_sequence_and_method_is_covered():
    seen = {a[1] for a in CASES if a[0] == "compute"}
    methods = {a[a.index("--method") + 1] for a in CASES if "--method" in a}
    assert seen == set(SEQUENCES)
    assert methods == set(METHODS)


def test_transcript_replays_unchanged():
    assert mismatches() == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        TRANSCRIPT.write_text(
            json.dumps(transcript(), indent=1, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
    elif sys.argv[1:] == ["--check"]:
        bad = mismatches()
        for argv in bad:
            print("changed:", " ".join(argv), file=sys.stderr)
        print(f"{len(bad)} of the transcript's entries changed", file=sys.stderr)
        sys.exit(1 if bad else 0)
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_transcript.py --write|--check")
