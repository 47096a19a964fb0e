#!/usr/bin/env python3
"""Seeded end-to-end benchmark of weylops.

    python3 perfbench/run.py --workload weyl_q --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The seed fixes the inputs, which are generated here, before any timing, and
handed to a fresh worker process (``worker.py``) on stdin.  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run over a fixed job prefix.
Every time is scaled to a reference machine speed, measured as the run goes
(job times by ``calibration.py``, set-up times by the start of a reference
interpreter); the ``env`` line also gives the times as measured.

Output on stdout: a ``{"env": ...}`` line (commit, Python, kernel backend,
CPU count, seed, job counts, sample counts), with ``--trace 1`` a
``{"ranking": ...}`` line of layers by self time, and last the result
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every answer was correct, i.e. when error_rate = failed / attempted is
0.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# fresh interpreters whose set-up time is measured, besides the run itself
SETUP_PROBES = 16
# every process of one run must end within this many seconds
RUN_DEADLINE_S = 170.0
# A fresh interpreter that loads part of the standard library: process start
# and module loading as in the worker's set-up, but nothing of weylops.  It
# starts just before each set-up that is timed, and the set-up time is
# reported as a multiple of its start time, times REFERENCE_START_S.
REFERENCE_START = ("import argparse, dataclasses, decimal, fractions, inspect, "
                   "json, statistics, typing")
# the reference interpreter's start time on the reference machine
REFERENCE_START_S = 0.1


class BenchError(Exception):
    pass


def make_inputs(wl, seed) -> bytes:
    """The worker's whole input: the job pool and the seeded rounds."""
    payload = {"workload": wl.name, "pool": wl.make_pool(), "rounds": wl.rounds(seed)}
    return json.dumps(payload, separators=(",", ":")).encode()


def spawn(args, stdin_bytes, deadline):
    """Run ``worker.py`` to completion; returns (start time, result dict)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, input=stdin_bytes, stdout=subprocess.PIPE,
                              env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    return t0, json.loads(lines[-1])


def reference_start(deadline):
    """Time to start, run and end the reference interpreter."""
    t0 = time.monotonic()
    try:
        subprocess.run([sys.executable, "-c", REFERENCE_START], check=True,
                       env=dict(os.environ, PYTHONHASHSEED="0"),
                       timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"reference interpreter: {exc}") from None
    return time.monotonic() - t0


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(wl, args):
    deadline = time.monotonic() + RUN_DEADLINE_S
    inputs = make_inputs(wl, args.seed)
    input_digest = hashlib.sha256(inputs).hexdigest()[:16]
    # The pool does not depend on the seed, and a pool entry that changed
    # would miss its pin; so the self-check makes only the seeded part twice.
    if json.loads(inputs)["rounds"] != wl.rounds(args.seed):
        raise BenchError("the same seed gave different inputs")

    common = ["--workload", wl.name] + (["--smoke"] if args.smoke else [])
    common += ["--inject-fault"] if args.inject_fault else []
    env = {
        "workload": wl.name,
        "why": wl.why,
        "commit": git_commit(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": input_digest,
    }

    if args.trace:
        _t0, res = spawn(common + ["--mode", "trace"], inputs, deadline)
        env.update(kernel_backend=res["kernel_backend"], rounds=res["rounds"],
                   passes=res["passes"], spans=res["spans"],
                   untraced_s=res["untraced_s"], traced_s=res["traced_s"],
                   missing_hooks=res["missing_hooks"],
                   error_rate=res["failed"] / res["attempted"], failures=res["failures"])
        units = {name: unit for name, unit, _b in tracing.metric_specs()}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in res["metrics"].items()}
        extra = [{"ranking": res["ranking"]}]
    else:
        def probes(n):
            for _ in range(n):
                refs.append(reference_start(deadline))
                t0, probe = spawn(common + ["--mode", "probe"], None, deadline)
                setups.append(probe["ready"] - t0)

        # half of the probes before the run and half after, so that one
        # slow moment of the machine does not set the median
        setups, refs = [], []
        probes(0 if args.smoke else SETUP_PROBES // 2)
        refs.append(reference_start(deadline))
        t0, res = spawn(common + ["--mode", "run", "--seconds", str(args.seconds)],
                        inputs, deadline)
        setups.append(res["ready"] - t0)
        probes(0 if args.smoke else SETUP_PROBES - SETUP_PROBES // 2)
        jobs = res["attempted"]
        env.update(
            kernel_backend=res["kernel_backend"], jobs=jobs,
            rounds=res["rounds"], jobs_by_stratum=res["jobs_by_stratum"],
            samples={"setup_s": len(setups), "job_p50_ms": jobs, "job_p90_ms": jobs,
                     "beyond_p90": res["beyond_p90"]},
            oracle_checks=res["oracle_checks"],
            error_rate=res["failed"] / res["attempted"], failures=res["failures"],
            calibrations=res["calibrations"],
            calibration_median_s=res["calibration_median_s"],
            reference_start_s=statistics.median(refs),
            measured={"setup_s": statistics.median(setups),
                      "jobs_per_s": jobs / res["measured"]["busy_s"],
                      "job_p50_ms": res["measured"]["p50_s"] * 1e3,
                      "job_p90_ms": res["measured"]["p90_s"] * 1e3})
        scaled_setups = [t / r * REFERENCE_START_S for t, r in zip(setups, refs)]
        metrics = {
            "setup_s": {"value": statistics.median(scaled_setups), "unit": "s"},
            "jobs_per_s": {"value": jobs / res["busy_s"], "unit": "1/s"},
            "job_p50_ms": {"value": res["p50_s"] * 1e3, "unit": "ms"},
            "job_p90_ms": {"value": res["p90_s"] * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
        }
        extra = []

    print(json.dumps({"env": env}))
    for line in extra:
        print(json.dumps(line))
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)
    return result["correct"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few jobs per workload, for the benchmark's own tests")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one operator product; the run must fail")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "weylops" / "__init__.py").is_file():
        print(f"no weylops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            ok = run_workload(workloads.WORKLOADS[name], args) and ok
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
