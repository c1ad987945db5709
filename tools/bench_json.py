"""Summarize paired perfbench runs of two checkouts into one BENCH_<n>.json.

Usage (from the repository root, after running perfbench in both
checkouts with the same seeds):

    python3 tools/bench_json.py --parent ../parent --change ../change \
        --out BENCH_7.json --claim kernels-mix:wall_s

Each checkout's ``.perfbench_out/result-<workload>-seed<N>-trace<T>.json``
files are read.  Untraced runs (trace 0) are paired by workload and
seed; for every end-to-end metric the file lists both sides' per-run
scaled values in seed order, their median and quartiles (``statistics``
inclusive method), the ratio of the medians and how many pairs the
change won.  Traced runs (trace 1) are listed per seed with every
per-layer value.  Metric directions come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import subprocess

_NAME = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json\Z")


def load_runs(checkout: str) -> dict:
    """{(workload, seed, trace): result document} for one checkout."""
    runs = {}
    for path in glob.glob(os.path.join(checkout, ".perfbench_out", "result-*.json")):
        m = _NAME.match(os.path.basename(path))
        if m:
            with open(path, encoding="utf-8") as fh:
                runs[(m["workload"], int(m["seed"]), int(m["trace"]))] = json.load(fh)
    return runs


def spread(values: list) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def summarize(parent: dict, change: dict, better: dict) -> dict:
    out = {}
    keys = sorted(k for k in parent if k in change and k[2] == 0)
    for workload in sorted({k[0] for k in keys}):
        seeds = [k[1] for k in keys if k[0] == workload]
        pairs = [(parent[(workload, s, 0)], change[(workload, s, 0)]) for s in seeds]
        metrics = {}
        for name in pairs[0][0]["metrics"]:
            p = [a["metrics"][name]["value"] for a, _ in pairs]
            c = [b["metrics"][name]["value"] for _, b in pairs]
            lower = better.get(name, "lower") == "lower"
            ps, cs = spread(p), spread(c)
            metrics[name] = {
                "unit": pairs[0][0]["metrics"][name]["unit"],
                "better": "lower" if lower else "higher",
                "parent": ps,
                "change": cs,
                "change_over_parent_median": cs["median"] / ps["median"] if ps["median"] else None,
                "change_wins": sum((y < x) if lower else (y > x) for x, y in zip(p, c)),
            }
        metrics["failed_checks"] = {
            "parent": [a["failed"] for a, _ in pairs],
            "change": [b["failed"] for _, b in pairs],
        }
        out[workload] = {"seeds": seeds, "pairs": len(seeds), "metrics": metrics}
    return out


def traced(parent: dict, change: dict) -> dict:
    out = {}
    for key in sorted(k for k in parent if k in change and k[2] == 1):
        out[f"{key[0]}-seed{key[1]}"] = {
            side: {"failed": doc["failed"],
                   "per_layer": {k: v["value"] for k, v in doc["metrics"].items()}}
            for side, doc in (("parent", parent[key]), ("change", change[key]))
        }
    return out


def commit_of(runs: dict) -> str:
    commits = {doc["meta"]["commit"] for doc in runs.values()}
    if len(commits) != 1:
        raise SystemExit(f"runs come from several commits: {sorted(commits)}")
    return commits.pop()


def src_tree(checkout: str):
    """Git tree hash of the checkout's ``src/``: equal trees, equal code."""
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD:src"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                    help="a metric the change claims to improve (repeatable)")
    ap.add_argument("--note", action="append", default=[], help="free-text note (repeatable)")
    args = ap.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    any_run = next(iter(parent.values()))["meta"]
    doc = {
        "harness": " ".join(bench["command"]) + " --workload W --seed N --seconds S --trace T",
        "seconds": any_run["seconds"],
        "python": any_run["python"],
        "nproc": any_run["nproc"],
        "parent_commit": commit_of(parent),
        "change_commit": commit_of(change),
        "parent_src_tree": src_tree(args.parent),
        "change_src_tree": src_tree(args.change),
        "claims": args.claim,
        "notes": args.note,
        "workloads": summarize(parent, change, better),
        "traced": traced(parent, change),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
