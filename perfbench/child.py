"""The benchmark's child interpreter: one fresh process per job.

    python3 perfbench/child.py import
    python3 perfbench/child.py audit [--trace]
    python3 perfbench/child.py kernels [--trace] < inputs.json
    python3 perfbench/child.py cli --trace -- ARGV...

The first thing each mode does is time ``import hyperseq.cli`` (registry
build included), before anything else is imported, so the figure is what
a user's fresh interpreter pays.  The child prints JSON lines on stdout
(kernels-mix prints one per pass); the last carries ``import_s`` and
``rss_kb``.  The parent (``run.py``) checks the outputs and computes
the metrics.
"""

import sys
import time

_t0 = time.perf_counter()
import hyperseq.cli  # noqa: E402  (timed import)

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
from fractions import Fraction  # noqa: E402

from cli_call import peak_rss_kb  # noqa: E402
from reference import SpeedTrack, speed  # noqa: E402

# tracing (cProfile, pstats) and hashlib are imported only by the modes
# that use them, so an untraced audit child's peak RSS carries as little
# of the harness as possible.


def _emit(obj):
    obj["import_s"] = IMPORT_S
    obj["rss_kb"] = peak_rss_kb()
    sys.stdout.write(json.dumps(obj) + "\n")


def _run_cli(argv, main=hyperseq.cli.main):
    """main(argv) with stdout captured; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


def _layer_extras(reports, probe):
    import tracing
    from hyperseq import identities

    return {
        "cases_tested": sum(r.tested for r in reports),
        "cases_skipped": sum(r.skipped for r in reports),
        "row_tags": {r.key: sorted(identities.get_identity(r.key).tags) for r in reports},
        "probe": {"calls": probe.calls, "distinct": len(probe.distinct)},
        "caches": tracing.cache_counts(),
    }


def _traced_cli(argv):
    """One CLI call under cProfile with spans; the payload the parent sums."""
    import tracing

    tracer = tracing.Tracer()
    reports = []
    probe = tracing.install_audit_probes(tracer, reports)
    main = tracer.wrap(hyperseq.cli.main, "cli.main")
    (rc, out), profile, elapsed = tracing.profiled(lambda: _run_cli(argv, main))
    payload = {"rc": rc, "stdout": out, "traced_s": elapsed, "profile": profile,
               "spans": tracer.spans}
    payload.update(_layer_extras(reports, probe))
    return payload


def mode_import(_args):
    _emit({"module": hyperseq.__file__, "speed": speed()[0]})


def mode_audit(args):
    argv = ["audit", "--format", "json"]
    if "--trace" in args:
        _emit(_traced_cli(argv))
        return
    from hyperseq import identities

    verify = identities.verify
    track = SpeedTrack()
    row_s = []

    def timed_verify(*a, **k):
        start = time.perf_counter()
        report = verify(*a, **k)
        # The audit's own per-row timer; a tick after each row tracks speed.
        track.mark()
        row_s.append([report.elapsed, track.scale(start, report.elapsed)])
        return report

    identities.verify = timed_verify
    ticks_before = track.spent
    start = time.perf_counter()
    rc, out = _run_cli(argv)
    wall = time.perf_counter() - start - (track.spent - ticks_before)
    # Time outside the rows (argument parsing, JSON) at the audit's mean speed.
    rows_raw = sum(r[0] for r in row_s)
    rows_scaled = sum(r[1] for r in row_s)
    outside = (wall - rows_raw) * rows_scaled / rows_raw
    _emit({"rc": rc, "stdout": out, "wall_s": [wall, rows_scaled + outside], "row_s": row_s})


def mode_cli(args):
    argv = args[args.index("--") + 1:]
    _emit(_traced_cli(argv))


# ---------------------------------------------------------------- kernels-mix


def _rat(text):
    return Fraction(text)


def _fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _poly(coeffs):
    coeffs = [Fraction(c) for c in coeffs]

    def f(t):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    return f


def _exp_tail(x):
    def bound(k):
        if k + 2 < 2 * x:
            return float("inf")
        return 2.0 * float(x) ** (k + 1) / math.factorial(k + 1)

    return bound


def _kernel_table():
    """Call kind -> (build the call from JSON args, serialise the result)."""
    import hashlib

    from hyperseq import analytic, opcalc, sequences

    def series_digest(ps):
        text = "\n".join(_fmt(c) for c in ps.coeffs)
        return hashlib.sha256(text.encode()).hexdigest()

    def certified(c):
        return [c.value, c.abs_error_bound]

    def bt_pair(b):
        a = opcalc.binomial_transform(b)
        return a, opcalc.inverse_binomial_transform(a)

    method = {m.value: m for m in sequences.HyperharmonicMethod}
    return {
        "hh": (lambda n, r, m: (lambda: sequences.hyperharmonic(n, r, method[m])), _fmt),
        "gf": (lambda r, order: (lambda: opcalc.gf_hyperharmonic(r, order)), series_digest),
        "bt": (lambda b: (lambda bb=[_rat(v) for v in b]: bt_pair(bb)),
               lambda ab: [[_fmt(v) for v in ab[0]], [_fmt(v) for v in ab[1]]]),
        "fd": (lambda coeffs, k, x: (lambda f=_poly(coeffs): opcalc.forward_difference(f, k, x)), _fmt),
        "gh": (lambda n, m: (lambda: sequences.gen_harmonic(n, m)), _fmt),
        "hq": (lambda n, w: (lambda ww=_rat(w): sequences.hyperharmonic_rational_order(n, ww)), _fmt),
        "psi": (lambda x: (lambda: analytic.digamma(x)), certified),
        "lgam": (lambda x: (lambda: analytic.log_gamma(x)), certified),
        "hreal": (lambda z, w: (lambda: analytic.hyperharmonic_real(z, w)), certified),
        "sum_exp": (lambda x: (lambda xx=_rat(x): analytic.sum_series(
            lambda k: xx**k / math.factorial(k), _exp_tail(xx), 1e-12)), certified),
        "sum_hz": (lambda a: (lambda aa=_rat(a): analytic.sum_series(
            lambda k: 1 / (k + aa) ** 2, lambda k: 1.0 / float(k + aa), 1e-3)), certified),
    }


def _thunks(table, calls):
    return [table[c[0]][0](*c[1:]) for c in calls]


#: Seconds of kernel calls between speed ticks.
TICK_EVERY_S = 0.05


def _run_pass(calls, thunks, tracer=None, track=None):
    """Run one pass; per library call, return [raw seconds, seconds at the
    reference speed] (or just raw when untracked), and the results."""
    lat = []
    results = []
    clock = time.perf_counter
    for call, thunk in zip(calls, thunks):
        span = tracer.begin(call[0]) if tracer else None
        t = clock()
        results.append(thunk())
        lat.append((t, clock() - t))
        if span:
            tracer.end(span)
        if track and clock() - track.ends[-1] > TICK_EVERY_S:
            track.mark()
    if track is None:
        return [d for _, d in lat], results
    track.mark()
    return [[d, track.scale(t, d)] for t, d in lat], results


def mode_kernels(args):
    spec = json.loads(sys.stdin.read())
    passes = spec["passes"]
    if "--trace" in args:
        import tracing

        tracer = tracing.Tracer()
        reports = []
        probe = tracing.install_audit_probes(tracer, reports)
        table = _kernel_table()  # built after the probes, so calls go through them
        thunks = _thunks(table, passes[0])
        top = tracer.begin("kernels.pass")
        (lat, results), profile, elapsed = tracing.profiled(
            lambda: _run_pass(passes[0], thunks, tracer))
        tracer.end(top)
        payload = {"traced_s": elapsed, "profile": profile, "spans": tracer.spans,
                   "results": [[table[c[0]][1](v) for c, v in zip(passes[0], results)]]}
        payload.update(_layer_extras(reports, probe))
        _emit(payload)
        return
    table = _kernel_table()
    deadline = time.perf_counter() + spec["seconds"]
    track = SpeedTrack()
    for i, calls in enumerate(passes):
        if i >= spec["min_passes"] and time.perf_counter() >= deadline:
            break
        thunks = _thunks(table, calls)
        lat, results = _run_pass(calls, thunks, track=track)
        # One line per pass, so results do not pile up in this process's memory.
        print(json.dumps({"lat": lat,
                          "results": [table[c[0]][1](v) for c, v in zip(calls, results)]}), flush=True)
    _emit({})


if __name__ == "__main__":
    mode = sys.argv[1]
    {"import": mode_import, "audit": mode_audit, "cli": mode_cli,
     "kernels": mode_kernels}[mode](sys.argv[2:])
