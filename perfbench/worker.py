"""One benchmark process: set up, run the jobs, check the answers.

Started by ``run.py`` as a fresh interpreter, so that ``setup_s`` covers
interpreter start, ``import weylops`` and ``weylops.cli``, and the
workload's fixed objects.  Modes:

``probe``  set up, print the time set-up finished, exit;
``run``    set up, read the inputs from stdin, run the seeded rounds in a
           closed loop (one client, one thread), each job once, then check
           every answer against its pin and a seeded sample against
           independent oracles;
``trace``  run a fixed number of rounds, alternately untraced and with the
           tracing hooks attached, and report per-layer metrics.

The timed modes measure the machine's speed between jobs
(``calibration.py``) and report job times both as measured and scaled to
the reference speed.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins"
# answers per stratum that the oracles re-check; the first ones in the
# seeded job order, so the sample is seeded too
ORACLE_SAMPLE = 3
# untraced and traced passes of the traced run, alternating
TRACE_PAIRS = 3


def import_package():
    """Import weylops from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import weylops
    import weylops.cli  # noqa: F401  (part of set-up: the CLI's imports)

    if Path(weylops.__file__).resolve().parent != src / "weylops":
        raise SystemExit(f"weylops imported from {weylops.__file__}, not {src}")
    return weylops


def digest(rendered) -> str:
    text = json.dumps(rendered, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_pins(name):
    with open(PINS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def corrupt_first_product(W):
    """Fault injection for the benchmark's own tests: the first nonzero
    ``DiffOp.__mul__`` result gets one coefficient changed by +1."""
    original = W.DiffOp.__mul__
    state = {"done": False}

    def corrupted(self, other):
        out = original(self, other)
        if state["done"] or out is NotImplemented or not out.terms:
            return out
        field = out.ring.field
        terms = dict(out.terms)
        for alpha, f in terms.items():
            for exp, c in f.terms.items():
                new = field.add(c, field.one())
                if not field.is_zero(new):
                    terms[alpha] = W.Polynomial(out.ring, {**f.terms, exp: new})
                    state["done"] = True
                    return W.DiffOp(out.ring, terms)
        return out

    W.DiffOp.__mul__ = corrupted


class Runner:
    """Runs rounds of one workload and keeps what the checks need."""

    def __init__(self, wl, pool, pins):
        self.wl = wl
        self.pool = pool
        self.pins = pins
        self.latencies = []
        self.digests = []
        self.failures = []
        self.samples = []
        self._sampled = {}
        # calibration times, and for each job the last one before it
        self.cals = []
        self.segments = []
        self._since_cal = 0.0

    def calibrate(self):
        self.cals.append(calibration.measure())
        self._since_cal = 0.0

    def round(self, ctx, jobs, keep_sample=True, calibrate_within=True):
        """Run one round of ``[stratum, pool index]`` jobs in a closed loop.
        Inputs are prepared before the clock starts, and answers are
        digested and pinned after it stops.  The machine's speed is measured
        before the first job and, with ``calibrate_within``, after every
        ``calibration.EVERY_S`` of job time."""
        wl = self.wl
        objs = [wl.prepare(ctx, stratum, self.pool[stratum][idx])
                for stratum, idx in jobs]
        outs = []
        if not self.cals:
            self.calibrate()
        for (stratum, idx), obj in zip(jobs, objs):
            t0 = time.perf_counter()
            try:
                outs.append(wl.run(ctx, stratum, obj))
            except Exception as exc:  # a job that raises is a failed job
                outs.append(exc)
            lat = time.perf_counter() - t0
            self.latencies.append(lat)
            self.segments.append(len(self.cals) - 1)
            self._since_cal += lat
            if calibrate_within and self._since_cal >= calibration.EVERY_S:
                self.calibrate()
        for (stratum, idx), obj, out in zip(jobs, objs, outs):
            if isinstance(out, Exception):
                self.digests.append(None)
                self.failures.append(f"{stratum}[{idx}] raised {out!r}")
                traceback.print_exception(out, file=sys.stderr)
                continue
            rendered, kept = out
            d = digest(rendered)
            self.digests.append(d)
            if d != self.pins[stratum][idx]:
                self.failures.append(f"{stratum}[{idx}] answer differs from its pin")
            elif keep_sample and self._sampled.get(stratum, 0) < ORACLE_SAMPLE:
                self._sampled[stratum] = self._sampled.get(stratum, 0) + 1
                self.samples.append((stratum, idx, obj, kept))

    def scaled_latencies(self):
        """Every job's time at the reference speed: scaled by the median of
        the two calibrations before it and the two after it, so that one
        calibration caught in a short stall does not skew its jobs."""
        self.calibrate()
        cals = self.cals
        return [lat * calibration.REFERENCE_S
                / statistics.median(cals[max(0, s - 1):s + 3])
                for lat, s in zip(self.latencies, self.segments)]

    def check_samples(self, ctx):
        """Independent oracles on the kept sample; returns checks run."""
        import workloads

        for stratum, idx, obj, kept in self.samples:
            try:
                self.wl.check(ctx, stratum, obj, kept)
            except workloads.CheckFailed as exc:
                self.failures.append(f"{stratum}[{idx}] oracle: {exc}")
            except Exception as exc:
                self.failures.append(f"{stratum}[{idx}] oracle raised {exc!r}")
        return len(self.samples)


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _betacf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _betacf(b, a, 1.0 - x) / b


def percentile(sorted_values, q):
    """Harrell-Davis estimate of the ``q``-th percentile of an ascending list.

    A mean of the order statistics weighted by a Beta((n+1)p, (n+1)(1-p))
    distribution, p = q / 100.  Where the jobs near the percentile are of
    few kinds far apart in cost (the builds and tables of ``artinian``), a
    single order statistic jumps from kind to kind with the noise of one
    job; this weighted mean does not.
    """
    n = len(sorted_values)
    p = q / 100
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    # weights more than 12 standard deviations from p are below 1e-30
    sd = math.sqrt(p * (1 - p) / (n + 2))
    lo = max(0, math.floor((p - 12 * sd) * n))
    hi = min(n, math.ceil((p + 12 * sd) * n))
    cdf = [_beta_cdf(a, b, i / n) for i in range(lo, hi + 1)]
    weights = [cdf[k + 1] - cdf[k] for k in range(hi - lo)]
    return sum(w * v for w, v in zip(weights, sorted_values[lo:hi])) / sum(weights)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args(argv)
    if args.mode == "run" and args.seconds is None:
        ap.error("--mode run needs --seconds")

    W = import_package()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    ctx = wl.setup(W)
    ready = time.monotonic()
    if args.mode == "probe":
        print(json.dumps({"ready": ready}))
        return 0

    inputs = json.load(sys.stdin)
    rounds, pool = inputs["rounds"], inputs["pool"]
    if args.smoke:
        rounds = [rounds[0][:6]]
    pins = load_pins(wl.name)
    if args.inject_fault:
        corrupt_first_product(W)
    if args.mode == "trace":
        return trace(W, wl, ctx, rounds, pool, pins, ready)

    # Whole seeded rounds run until ``--seconds`` of job time and at least
    # ``min_jobs`` jobs; every job is timed once, and no job runs twice
    # unless a run outlasts the pool.
    runner = Runner(wl, pool, pins)
    n_rounds = 0
    while True:
        runner.round(ctx, rounds[n_rounds % len(rounds)])
        n_rounds += 1
        if args.smoke or (sum(runner.latencies) >= args.seconds
                          and len(runner.latencies) >= wl.min_jobs):
            break
    raw = sorted(runner.latencies)
    lat = sorted(runner.scaled_latencies())
    p90 = percentile(lat, 90)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checks = runner.check_samples(ctx)
    if wl.name == "artinian":
        try:
            workloads.dual_numbers_check(W)
        except workloads.CheckFailed as exc:
            runner.failures.append(str(exc))
        checks += 1

    strata = {}
    for r in range(n_rounds):
        for stratum, _idx in rounds[r % len(rounds)]:
            strata[stratum] = strata.get(stratum, 0) + 1
    print(json.dumps({
        "ready": ready,
        "kernel_backend": W.KERNEL_BACKEND,
        "attempted": len(lat),
        "rounds": n_rounds,
        "jobs_by_stratum": strata,
        "calibrations": len(runner.cals),
        "calibration_median_s": statistics.median(runner.cals),
        "busy_s": sum(lat),
        "p50_s": percentile(lat, 50),
        "p90_s": p90,
        "beyond_p90": sum(1 for v in lat if v > p90),
        "measured": {"busy_s": sum(raw), "p50_s": percentile(raw, 50),
                     "p90_s": percentile(raw, 90)},
        "peak_rss_kb": peak_rss_kb,
        "oracle_checks": checks,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
    }))
    return 0


def trace(W, wl, ctx, rounds, pool, pins, ready):
    """Alternate untraced and traced passes over the same fixed rounds.

    The per-layer metrics come from the first traced pass, so calls and
    counts repeat exactly for a seed; ``trace.overhead_frac`` compares the
    median traced pass with the median untraced one, both at the reference
    speed.  Calibration runs between rounds only, outside every span.
    """
    import tracing

    prefix = rounds[: wl.trace_rounds]
    untraced_s, traced_s = [], []
    runners = []
    for k in range(TRACE_PAIRS):
        plain = Runner(wl, pool, pins)
        for rnd in prefix:
            plain.calibrate()
            plain.round(ctx, rnd, keep_sample=k == 0, calibrate_within=False)
        untraced_s.append(sum(plain.scaled_latencies()))
        tracer = tracing.Tracer(W)
        tracer.attach()
        traced = Runner(wl, pool, pins)
        try:
            if k == 0:
                with tracer.span("setup"):
                    traced_ctx = wl.setup(W)
            for rnd in prefix:
                traced.calibrate()
                with tracer.span("round"):
                    traced.round(traced_ctx, rnd, keep_sample=False,
                                 calibrate_within=False)
        finally:
            tracer.detach()
        traced_s.append(sum(traced.scaled_latencies()))
        if k == 0:
            first = tracer
        runners += [plain, traced]

    runners[0].check_samples(ctx)
    failures = [f for r in runners for f in r.failures]
    if any(r.digests != runners[0].digests for r in runners):
        failures.append("traced answers differ from untraced answers")
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    print(json.dumps({
        "ready": ready,
        "kernel_backend": W.KERNEL_BACKEND,
        "attempted": sum(len(r.latencies) for r in runners),
        "rounds": len(prefix),
        "passes": TRACE_PAIRS,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(first.spans),
        "missing_hooks": first.missing,
        "metrics": first.metrics(overhead),
        "ranking": first.ranking(),
        "failed": len(failures),
        "failures": failures[:20],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
