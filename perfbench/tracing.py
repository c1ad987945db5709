"""Tracing for one child interpreter: spans, probes and a cProfile summary.

Spans are recorded by wrapping the package's public entry points from
the outside (``cli.main``, ``identities.run_suite``, ``identities.verify``,
``AuditReport.to_json``) and around each kernels-mix call.  They stay in
memory and are handed to the parent at the end of the run.

Call counts and self/busy times of high-frequency functions come from
``cProfile``, grouped by the module file that defines each function.
cProfile sees code objects, so it cannot be bypassed; a patched module
attribute can (``from .sequences import hyperharmonic`` binds the name at
import, and closures capture function objects).  ``self_check`` compares
the two and fails when a layer a workload is meant to exercise shows no
calls at all.
"""

from __future__ import annotations

import cProfile
import fractions
import functools
import os
import pstats
import sys
import time

#: Layers are this package's modules plus stdlib ``fractions``.
LAYERS = ("fractions", "exactnum", "sequences", "opcalc", "analytic", "identities", "cli")

SUITES = ("core", "table1", "table2", "float")
ROWS = ("t2-3.108", "prop-one1-n", "t2-6.19")
#: HyperharmonicMethod value -> the sequences function that implements it.
METHOD_FUNCS = {
    "def": "_hyper_def",
    "closed": "_hyper_closed",
    "conv": "_hyper_conv",
    "rec-lower": "_hyper_rec_lower",
    "rec-upper": "_hyper_rec_upper",
}


class Tracer:
    """In-memory span recorder with parent ids."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 1

    def begin(self, name, **tags):
        span = {"id": self._next_id, "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "start": time.perf_counter()}
        if tags:
            span["tags"] = tags
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapper


def rebind(original, replacement):
    """Point every module-level name bound to ``original`` in the loaded
    ``hyperseq`` modules at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hyperseq" or name.startswith("hyperseq.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class HyperharmonicProbe:
    """Counts h(n, r) calls and their distinct arguments behind a patched name."""

    def __init__(self, original):
        self.original = original
        self.calls = 0
        self.distinct = set()

    def __call__(self, n, r, *rest, **kwargs):
        self.calls += 1
        self.distinct.add((n, r) + rest + tuple(kwargs.items()))
        return self.original(n, r, *rest, **kwargs)


def install_audit_probes(tracer: Tracer, reports: list):
    """Spans around run_suite / verify / to_json and the h(n, r) probe."""
    from hyperseq import identities, sequences

    verify = identities.verify

    def traced_verify(key, *args, **kwargs):
        span = tracer.begin("verify", row=key)
        try:
            report = verify(key, *args, **kwargs)
        finally:
            tracer.end(span)
        reports.append(report)
        return report

    rebind(verify, traced_verify)
    rebind(identities.run_suite, tracer.wrap(identities.run_suite, "run_suite"))
    report_cls = identities.AuditReport
    report_cls.to_json = tracer.wrap(report_cls.to_json, "to_json")
    probe = HyperharmonicProbe(sequences.hyperharmonic)
    rebind(sequences.hyperharmonic, probe)
    return probe


def _module_of(filename: str, pkg_dir: str) -> str:
    if filename == fractions.__file__:
        return "fractions"
    if filename.startswith(pkg_dir):
        return os.path.splitext(os.path.basename(filename))[0]
    return "other"


def summarize_profile(profile: cProfile.Profile) -> dict:
    """Per-module call counts and self time, plus the named functions'
    calls (nc), self time (tt) and busy time (ct)."""
    import hyperseq

    pkg_dir = os.path.dirname(hyperseq.__file__) + os.sep
    modules = {}
    funcs = {}
    for (filename, _line, func), (_cc, nc, tt, ct, _callers) in pstats.Stats(profile).stats.items():
        module = _module_of(filename, pkg_dir)
        agg = modules.setdefault(module, {"calls": 0, "self_s": 0.0})
        agg["calls"] += nc
        agg["self_s"] += tt
        if module != "other":
            f = funcs.setdefault(f"{module}.{func}", {"calls": 0, "self_s": 0.0, "busy_s": 0.0})
            f["calls"] += nc
            f["self_s"] += tt
            f["busy_s"] += ct
    return {"modules": modules, "funcs": funcs}


def cache_counts() -> dict:
    """Hits and misses of the package's lru_cache memos, by layer."""
    from hyperseq import exactnum, sequences

    def total(module, names=None):
        hits = misses = 0
        for name, value in vars(module).items():
            if names is not None and name not in names:
                continue
            info = getattr(value, "cache_info", None)
            if callable(info):
                ci = info()
                hits += ci.hits
                misses += ci.misses
        return {"hits": hits, "misses": misses}

    return {
        "exactnum.memo": total(exactnum),
        "sequences.rational_order": total(sequences, {"hyperharmonic_rational_order"}),
    }


def profiled(fn):
    """Run ``fn()`` under cProfile; return (result, summary, seconds)."""
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    elapsed = time.perf_counter() - start
    return result, summarize_profile(profile), elapsed
