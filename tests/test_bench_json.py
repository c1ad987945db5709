import json
import runpy
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_json.py"


def write_run(checkout, workload, seed, trace, commit, metrics, failed=0):
    out = checkout / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "meta": {"workload": workload, "seed": seed, "seconds": 25, "trace": trace,
                 "commit": commit, "python": "3.11.7", "nproc": 2},
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
    }
    (out / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(doc))


def test_pairs_by_seed_and_counts_wins(tmp_path):
    main = runpy.run_path(str(TOOL))["main"]
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in zip((11, 12, 13), ((1.0, 0.5), (2.0, 0.4), (3.0, 3.5))):
        write_run(parent, "kernels-mix", seed, 0, "aaa", {"wall_s": p, "ops_per_s": 1 / p})
        write_run(change, "kernels-mix", seed, 0, "bbb", {"wall_s": c, "ops_per_s": 1 / c})
    write_run(parent, "kernels-mix", 20, 1, "aaa", {"fractions.new.calls": 9})
    write_run(change, "kernels-mix", 20, 1, "bbb", {"fractions.new.calls": 4})
    write_run(change, "kernels-mix", 14, 0, "bbb", {"wall_s": 0.1, "ops_per_s": 10})  # unpaired
    out = tmp_path / "BENCH.json"
    assert main(["--parent", str(parent), "--change", str(change), "--out", str(out),
                 "--claim", "kernels-mix:wall_s"]) == 0
    doc = json.loads(out.read_text())
    assert (doc["parent_commit"], doc["change_commit"]) == ("aaa", "bbb")
    w = doc["workloads"]["kernels-mix"]
    assert w["seeds"] == [11, 12, 13]
    wall = w["metrics"]["wall_s"]
    assert wall["parent"]["runs"] == [1.0, 2.0, 3.0]
    assert (wall["parent"]["q1"], wall["parent"]["median"], wall["parent"]["q3"]) == (1.5, 2.0, 2.5)
    assert wall["change_over_parent_median"] == 0.5 / 2.0
    assert wall["change_wins"] == 2
    assert w["metrics"]["ops_per_s"]["change_wins"] == 2  # higher is better
    assert doc["traced"]["kernels-mix-seed20"]["change"]["per_layer"] == {"fractions.new.calls": 4}


def test_committed_records_claim_only_benchmark_metrics():
    root = TOOL.parents[1]
    bench = json.loads((root / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    records = sorted(root.glob("BENCH_*.json"))
    assert records
    for path in records:
        doc = json.loads(path.read_text())
        for claim in doc["claims"]:
            workload, metric = claim.split(":")
            assert workload in workloads, (path.name, claim)
            assert metric in end_to_end, (path.name, claim)
            claimed = doc["workloads"][workload]["metrics"][metric]
            assert "change_wins" in claimed, (path.name, claim)
