"""hyperseq benchmark: three workloads, each in fresh child interpreters.

    python3 perfbench/run.py --workload audit-full --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics, with times
scaled to the reference speed (see reference.py); with ``--trace 1`` it
makes one untraced and one traced pass and prints the per-layer metrics.
One child runs at a time.  The last stdout line is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 1 when any output check failed.  Each run also writes its result
(with seed, commit, Python version, nproc and load average) and, when
traced, its spans and profile under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import oracles
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Most kernels-mix passes one child is given.
KERNEL_PASSES = 48
CHILD_TIMEOUT_S = 170

WORKLOADS = ("audit-full", "cli-oneshot", "kernels-mix")

#: Layers each workload is meant to exercise; the traced run's self-check
#: fails when one of them shows no calls.
EXERCISED = {
    "audit-full": tracing.LAYERS,
    "cli-oneshot": tracing.LAYERS,
    "kernels-mix": ("fractions", "exactnum", "sequences", "opcalc", "analytic"),
}


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.pop("HYPERSEQ_CONFIG", None)  # a config file would change the audit's domains
    return env


ENV = child_env()


def spawn(argv, stdin_text=None):
    """Run one child to completion; return (exit code, stdout, stderr, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, input=stdin_text, capture_output=True, text=True,
                          cwd=ROOT, env=ENV, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def child(mode, *args, stdin_text=None):
    """A ``child.py`` job; returns (its final JSON payload, wall seconds,
    the JSON lines it printed before that)."""
    rc, out, err, wall = spawn([sys.executable, os.path.join(HERE, "child.py"), mode, *args], stdin_text)
    if rc != 0:
        raise ChildError(f"child {mode} {' '.join(args)} exited {rc}: {err.strip()[-800:]}")
    *lines, last = [json.loads(line) for line in out.splitlines()]
    return last, wall, lines


def percentile(samples, q):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


# ------------------------------------------------------------------ set-up


class Setup:
    """Times ``import hyperseq.cli``, registry build included, in fresh
    import-only children.

    ``sample()`` runs ``per_gap`` of them; the workloads call it before
    each unit and run_one once more after the last, so setup_s is a
    median over the whole run, not over one moment of it.  Each sample is
    ``(raw, scaled)``, scaled by the host speed each child measures
    right after its import (see reference.py).
    """

    def __init__(self, per_gap):
        self.per_gap = per_gap
        self.samples = []
        first = child("import")[0]  # writes the bytecode; not counted
        if os.path.dirname(os.path.dirname(first["module"])) != SRC:
            raise ChildError(f"children import hyperseq from {first['module']}, not {SRC}")

    def sample(self):
        for _ in range(self.per_gap):
            payload = child("import")[0]
            self.samples.append((payload["import_s"], payload["import_s"] * payload["speed"]))


# ------------------------------------------------------------- workloads


class AuditFull:
    """cli.main(["audit", "--format", "json"]) with default flags, one
    fresh interpreter per audit.  It has no seeded inputs."""

    min_units = 2  # whole audits per untraced run, at least
    setup_per_gap = 3

    def measure(self, checks, seed, seconds, min_units, setup):
        start = time.perf_counter()
        units, lat, outs, rss = [], [], [], []
        while len(units) < min_units or time.perf_counter() - start < seconds:
            setup.sample()
            payload = child("audit")[0]
            cases = workloads.check_full_audit(checks, payload["rc"], payload["stdout"],
                                               f"audit {len(units)}")
            units.append((*payload["wall_s"], cases))
            lat += payload["row_s"]
            rss.append(payload["rss_kb"])
            outs.append(payload["stdout"])
        return {"units": units, "lat": lat, "outputs": outs, "rss_kb": rss,
                "base_s": statistics.median(u[0] for u in units)}

    def traced(self, checks, seed, base):
        payload = child("audit", "--trace")[0]
        workloads.check_full_audit(checks, payload["rc"], payload["stdout"], "traced audit")
        checks.check(payload["stdout"] == base["outputs"][0], "traced audit report differs from untraced")
        return [payload], payload["traced_s"] / base["base_s"]


class CliOneshot:
    """A seeded list of short CLI calls, each `python3 -m hyperseq ...` in
    a fresh interpreter (through cli_call.py, which adds the peak-RSS
    line), timed from spawn to exit."""

    min_units = 5  # passes of 24 calls: p90 then has >= 10 samples beyond it
    setup_per_gap = 2

    def passes(self, seed):
        rng = random.Random(seed)
        while True:
            yield workloads.cli_pass(rng)

    def measure(self, checks, seed, seconds, min_units, setup):
        exact = oracles.Exact(500, workloads.R_MAX)
        start = time.perf_counter()
        units, lat, outs, rss = [], [], [], []
        for calls in self.passes(seed):
            if len(units) >= min_units and time.perf_counter() - start >= seconds:
                break
            setup.sample()
            pass_lat = []
            for call in calls:
                rc, out, err, wall = spawn([sys.executable, os.path.join(HERE, "cli_call.py"), *call["argv"]])
                kb, _, factor, _, spent = err.rsplit("peak_rss_kb", 1)[1].split()
                rss.append(int(kb))
                # The speed ticks ran inside the call after the command; take them out.
                raw = wall - float(spent)
                pass_lat.append((raw, raw * float(factor)))
                workloads.check_cli_call(checks, exact, call, rc, out)
                if not units:
                    outs.append((rc, out))
            lat += pass_lat
            units.append((sum(t[0] for t in pass_lat), sum(t[1] for t in pass_lat), len(calls)))
        return {"units": units, "lat": lat, "outputs": outs, "exact": exact, "rss_kb": rss,
                "base_s": units[0][0]}

    def traced(self, checks, seed, base):
        calls = next(self.passes(seed))
        payloads, total = [], 0.0
        for call, (rc0, out0) in zip(calls, base["outputs"]):
            payload, wall, _ = child("cli", "--trace", "--", *call["argv"])
            total += wall
            workloads.check_cli_call(checks, base["exact"], call, payload["rc"], payload["stdout"])
            checks.check((payload["rc"], payload["stdout"]) == (rc0, out0),
                         f"traced output differs: {' '.join(call['argv'])}")
            payloads.append(payload)
        return payloads, total / base["base_s"]


class KernelsMix:
    """A seeded in-process stream of library calls the audit barely makes,
    in one fresh interpreter."""

    min_units = 1
    setup_per_gap = 6

    def passes(self, seed, count):
        rng = random.Random(seed)
        return [workloads.kernels_pass(rng) for _ in range(count)]

    def _oracle(self):
        return workloads.KernelOracle(oracles.Exact(workloads.N_MAX, workloads.R_MAX))

    def measure(self, checks, seed, seconds, min_units, setup):
        passes = self.passes(seed, KERNEL_PASSES)
        spec = {"passes": passes, "seconds": seconds, "min_passes": min_units}
        setup.sample()
        last, _, done = child("kernels", stdin_text=json.dumps(spec))
        oracle = self._oracle()
        for i, p in enumerate(done):
            workloads.check_kernel_pass(checks, oracle, passes[i], p["results"], f"pass {i}")
        units = [(sum(t[0] for t in p["lat"]), sum(t[1] for t in p["lat"]), len(passes[i]))
                 for i, p in enumerate(done)]
        return {"units": units, "lat": [t for p in done for t in p["lat"]],
                "outputs": [p["results"] for p in done], "oracle": oracle,
                "base_s": units[0][0], "rss_kb": [last["rss_kb"]]}

    def traced(self, checks, seed, base):
        passes = self.passes(seed, 1)
        payload = child("kernels", "--trace", stdin_text=json.dumps({"passes": passes}))[0]
        workloads.check_kernel_pass(checks, base["oracle"], passes[0], payload["results"][0], "traced pass")
        checks.check(payload["results"][0] == base["outputs"][0], "traced kernel results differ from untraced")
        return [payload], payload["traced_s"] / base["base_s"]


# ----------------------------------------------------------------- metrics


def end_to_end(measured, setup, which):
    """The end-to-end metrics from raw times (``which`` 0) or from times at
    the reference speed (``which`` 1).  A unit is ``(raw s, scaled s, ops)``."""
    units = measured["units"]
    ms = [t[which] * 1000.0 for t in measured["lat"]]
    return {
        "latency_p50_ms": (percentile(ms, 50), "ms"),
        "latency_p90_ms": (percentile(ms, 90), "ms"),
        "ops_per_s": (statistics.median(u[2] / u[which] for u in units), "1/s"),
        "wall_s": (statistics.median(u[which] for u in units), "s"),
        "peak_rss_mb": (max(measured["rss_kb"]) / 1024.0, "MB"),
        "setup_s": (statistics.median(s[which] for s in setup), "s"),
    }


def import_split(repeats=3):
    """Cumulative import time of hyperseq.identities and hyperseq.cli, from
    `python -X importtime`, median of a few fresh interpreters."""
    found = {"hyperseq.identities": [], "hyperseq.cli": []}
    for _ in range(repeats):
        rc, _out, err, _ = spawn([sys.executable, "-X", "importtime", "-c", "import hyperseq.cli"])
        if rc != 0:
            raise ChildError(f"importtime run exited {rc}: {err.strip()[-400:]}")
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in found:
                found[parts[2]].append(int(parts[1]) / 1e6)
    return {k: statistics.median(v) if v else 0.0 for k, v in found.items()}


def spawn_floor(repeats=5):
    return statistics.median(spawn([sys.executable, "-c", "pass"])[3] for _ in range(repeats))


def _sum_profiles(payloads):
    modules, funcs = {}, {}
    for p in payloads:
        for name, agg in p["profile"]["modules"].items():
            m = modules.setdefault(name, {"calls": 0, "self_s": 0.0})
            for k in m:
                m[k] += agg[k]
        for name, agg in p["profile"]["funcs"].items():
            f = funcs.setdefault(name, {"calls": 0, "self_s": 0.0, "busy_s": 0.0})
            for k in f:
                f[k] += agg[k]
    return modules, funcs


def _ratio(hits, total):
    return hits / total if total else 0.0


def per_layer(payloads, imports, spawn_s, overhead):
    """The per-layer metrics of one traced pass (summed over its children)."""
    modules, funcs = _sum_profiles(payloads)

    def fn(name, field):
        return funcs.get(name, {}).get(field, 0)

    def self_s(module):
        return modules.get(module, {}).get("self_s", 0.0)

    caches = {}
    for p in payloads:
        for name, c in p["caches"].items():
            agg = caches.setdefault(name, {"hits": 0, "misses": 0})
            agg["hits"] += c["hits"]
            agg["misses"] += c["misses"]
    suites = dict.fromkeys(tracing.SUITES, 0.0)
    rows = dict.fromkeys(tracing.ROWS, 0.0)
    serialize = 0.0
    for p in payloads:
        for span in p["spans"]:
            dur = span["end"] - span["start"]
            if span["name"] == "verify":
                key = span["tags"]["row"]
                for tag in p["row_tags"].get(key, ()):
                    if tag in suites:
                        suites[tag] += dur
                if key in rows:
                    rows[key] += dur
            elif span["name"] == "to_json":
                serialize += dur
    probe_calls = sum(p["probe"]["calls"] for p in payloads)
    probe_distinct = sum(p["probe"]["distinct"] for p in payloads)
    memo, rat = caches.get("exactnum.memo", {}), caches.get("sequences.rational_order", {})

    m = {
        "fractions.new.calls": (fn("fractions.__new__", "calls"), "count"),
        "fractions.self_s": (self_s("fractions"), "s"),
        "exactnum.binomial_int.calls": (fn("exactnum.binomial_int", "calls"), "count"),
        "exactnum.binomial_int.self_s": (fn("exactnum.binomial_int", "self_s"), "s"),
        "exactnum.binomial_general.busy_s": (fn("exactnum.binomial_general", "busy_s"), "s"),
        "exactnum.factorials.self_s": (sum(fn(f"exactnum.{f}", "self_s") for f in (
            "factorial", "_factorial_cached", "rising_factorial", "falling_factorial")), "s"),
        "exactnum.memo.hit_ratio": (_ratio(memo.get("hits", 0), memo.get("hits", 0) + memo.get("misses", 0)), "ratio"),
        "exactnum.self_s": (self_s("exactnum"), "s"),
        "sequences.hyperharmonic.calls": (fn("sequences.hyperharmonic", "calls"), "count"),
        "sequences.hyperharmonic.distinct_ratio": (_ratio(probe_distinct, probe_calls), "ratio"),
    }
    for method, func in tracing.METHOD_FUNCS.items():
        m[f"sequences.hyperharmonic.{method}.busy_s"] = (fn(f"sequences.{func}", "busy_s"), "s")
    m.update({
        "sequences.harmonic.calls": (fn("sequences.harmonic", "calls"), "count"),
        "sequences.gen_harmonic.self_s": (fn("sequences.gen_harmonic", "self_s"), "s"),
        "sequences.rational_order.busy_s": (fn("sequences.hyperharmonic_rational_order", "busy_s"), "s"),
        "sequences.rational_order.hit_ratio": (_ratio(rat.get("hits", 0), rat.get("hits", 0) + rat.get("misses", 0)), "ratio"),
        "sequences.self_s": (self_s("sequences"), "s"),
        "opcalc.forward_difference.busy_s": (fn("opcalc.forward_difference", "busy_s"), "s"),
        "opcalc.power_series_mul.calls": (fn("opcalc.__mul__", "calls"), "count"),
        "opcalc.power_series_mul.busy_s": (fn("opcalc.__mul__", "busy_s"), "s"),
        "opcalc.transforms.busy_s": (fn("opcalc.binomial_transform", "busy_s")
                                     + fn("opcalc.inverse_binomial_transform", "busy_s"), "s"),
        "opcalc.self_s": (self_s("opcalc"), "s"),
        "analytic.digamma.calls": (fn("analytic.digamma", "calls"), "count"),
        "analytic.log_gamma.calls": (fn("analytic.log_gamma", "calls"), "count"),
        "analytic.hyperharmonic_real.busy_s": (fn("analytic.hyperharmonic_real", "busy_s"), "s"),
        "analytic.sum_series.busy_s": (fn("analytic.sum_series", "busy_s"), "s"),
        "analytic.self_s": (self_s("analytic"), "s"),
        "identities.verify.calls": (fn("identities.verify", "calls"), "count"),
        "identities.verify.busy_s": (fn("identities.verify", "busy_s"), "s"),
        "identities.self_s": (self_s("identities"), "s"),
    })
    for suite in tracing.SUITES:
        m[f"identities.suite.{suite}.busy_s"] = (suites[suite], "s")
    for key in tracing.ROWS:
        m[f"identities.row.{key}.busy_s"] = (rows[key], "s")
    m.update({
        "identities.cases.tested": (sum(p["cases_tested"] for p in payloads), "count"),
        "identities.cases.skipped": (sum(p["cases_skipped"] for p in payloads), "count"),
        "identities.import_s": (imports["hyperseq.identities"], "s"),
        "cli.import_s": (imports["hyperseq.cli"], "s"),
        "proc.spawn_s": (spawn_s, "s"),
        "cli.main.busy_s": (fn("cli.main", "busy_s"), "s"),
        "cli.serialize_s": (serialize, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return m, modules, funcs


def self_check(workload, checks, payloads, modules, funcs):
    """Fail when an exercised layer shows no calls; explain probe gaps.

    cProfile counts every call of a code object.  The spans and the h(n, r)
    probe sit behind patched module attributes, which a name bound at
    import or a function object captured in a closure can bypass.
    """
    notes = []
    for layer in EXERCISED[workload]:
        calls = modules.get(layer, {}).get("calls", 0)
        checks.check(calls > 0, f"self-check: layer {layer} shows no calls on {workload}")
    profiled = funcs.get("sequences.hyperharmonic", {}).get("calls", 0)
    probed = sum(p["probe"]["calls"] for p in payloads)
    if profiled:
        checks.check(probed > 0, "self-check: the h(n, r) probe saw none of "
                     f"{profiled} calls; distinct_ratio is not measured")
    if probed != profiled:
        notes.append(f"h(n, r): cProfile counted {profiled} calls, the patched name saw {probed}; "
                     f"{profiled - probed} went through a name bound at import or captured in a "
                     "closure, and distinct_ratio covers only the probed ones")
    verify_calls = funcs.get("identities.verify", {}).get("calls", 0)
    verify_spans = sum(1 for p in payloads for s in p["spans"] if s["name"] == "verify")
    checks.check(verify_spans == verify_calls,
                 f"self-check: {verify_calls} verify calls but {verify_spans} verify spans; "
                 "per-suite and per-row times would be wrong")
    return notes


# -------------------------------------------------------------------- main


def run_one(args) -> dict:
    workload = {"audit-full": AuditFull, "cli-oneshot": CliOneshot, "kernels-mix": KernelsMix}[args.workload]()
    meta = metadata(args)
    checks = workloads.Checks()
    setup = Setup(0 if args.trace else workload.setup_per_gap)
    notes = []
    trace_doc = None
    if not args.trace:
        measured = workload.measure(checks, args.seed, args.seconds, workload.min_units, setup)
        setup.sample()
        metrics = end_to_end(measured, setup.samples, 1)
        raw = end_to_end(measured, setup.samples, 0)
        detail = {"samples": len(measured["lat"]), "units": len(measured["units"]),
                  "setup_samples": len(setup.samples), "raw_metrics": {k: v for k, (v, _) in raw.items()},
                  "unit_s": measured["units"]}
    else:
        base = workload.measure(checks, args.seed, 0, 1, setup)
        payloads, overhead = workload.traced(checks, args.seed, base)
        metrics, modules, funcs = per_layer(payloads, import_split(), spawn_floor(), overhead)
        notes = self_check(args.workload, checks, payloads, modules, funcs)
        detail = {"children": len(payloads)}
        trace_doc = {"meta": meta, "per_layer": {k: v[0] for k, v in metrics.items()},
                     "self_check": notes, "modules": modules,
                     "functions": dict(sorted(funcs.items(), key=lambda kv: -kv[1]["self_s"])[:60]),
                     "spans": [{"trace": i, **s} for i, p in enumerate(payloads) for s in p["spans"]]}
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, **detail, "failures": checks.messages, **result}, fh, indent=1)
    if trace_doc is not None:
        with open(os.path.join(OUT_DIR, f"trace-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump(trace_doc, fh)

    print(f"# {json.dumps(meta)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:42s} {value:14.6g} {unit}")
    ratio = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"{args.workload:12s} {'fail_ratio':42s} {ratio:14.6g} ratio ({checks.failed}/{checks.attempted} checks)")
    for key, value in detail.items():
        if isinstance(value, int):
            print(f"{args.workload:12s} {key:42s} {value:14d} count")
    for note in notes:
        print(f"# self-check: {note}")
    for message in checks.messages:
        print(f"# FAILED: {message}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyperseq", "cli.py")):
        print(f"error: no hyperseq sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_one(argparse.Namespace(**{**vars(args), "workload": name})))
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
