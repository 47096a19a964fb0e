"""The benchmark's own tests: smoke runs, fault detection, seeding, hooks.

    python3 -m pytest perfbench/tests -q

Each smoke run starts real worker processes on a few jobs, so the whole
file takes well under a minute.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, [json.loads(line) for line in lines]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name):
    code, lines = bench("--workload", name, "--seed", "3", "--seconds", "1", "--smoke")
    assert code == 0
    env, result = lines[0]["env"], lines[-1]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert env["error_rate"] == 0 and env["seed"] == 3
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["unit"] == units[k] and v["value"] > 0
               for k, v in result["metrics"].items())


def test_traced_smoke_run_reports_every_layer_metric():
    code, lines = bench("--workload", "modular", "--seed", "3", "--seconds", "1",
                        "--smoke", "--trace", "1")
    assert code == 0
    env, ranking, result = lines[0]["env"], lines[1]["ranking"], lines[-1]
    assert result["correct"] and env["missing_hooks"] == []
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    self_times = [row[1] for row in ranking]
    assert self_times == sorted(self_times, reverse=True)


def test_corrupted_product_fails_the_run():
    code, lines = bench("--workload", "weyl_q", "--seed", "3", "--seconds", "1",
                        "--smoke", "--inject-fault")
    assert code != 0
    env, result = lines[0]["env"], lines[-1]
    assert not result["correct"] and result["failed"] > 0
    assert env["error_rate"] > 0


def test_refuses_to_run_without_the_package(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", BENCH)  # a directory with no src/
    assert run.main(["--workload", "weyl_q", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_one_input_digest(name):
    wl = workloads.WORKLOADS[name]
    digests = [hashlib.sha256(run.make_inputs(wl, seed)).hexdigest()
               for seed in (5, 5, 6)]
    assert digests[0] == digests[1] != digests[2]


def test_benchmark_json_names_what_the_code_reports():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == (
        tracing.metric_specs())


def test_percentile_weighs_the_order_statistics_around_the_rank():
    import worker

    assert worker.percentile(list(range(1, 12)), 50) == pytest.approx(6)
    assert worker.percentile([2.5] * 7, 90) == pytest.approx(2.5)
    # nine cheap jobs and two dear ones: the 90th percentile lies between
    p90 = worker.percentile([1.0] * 9 + [10.0] * 2, 90)
    assert 1.0 < p90 < 10.0


def test_job_times_are_scaled_by_the_calibrations_around_them(monkeypatch):
    import calibration
    import worker

    ref = calibration.REFERENCE_S
    runner = worker.Runner(None, None, None)
    runner.latencies = [0.010, 0.010]
    runner.segments = [0, 2]
    # the machine runs at half the reference speed; one calibration stalled
    runner.cals = [2 * ref, 2 * ref, 50 * ref, 2 * ref]
    monkeypatch.setattr(calibration, "measure", lambda reps=5: 2 * ref)
    assert runner.scaled_latencies() == pytest.approx([0.005, 0.005])


def test_hooks_rebind_imported_names_and_report_missing_targets(monkeypatch):
    import weylops
    import weylops.invariants as inv
    import weylops.transpose as tr

    hooks = tracing.HOOKS + (("gone.helper", "weylops.linalg", "span_gone",
                              None, ("calls",)),)
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    original = tr.transport_via_coordinates
    tracer = tracing.Tracer(weylops)
    tracer.attach()
    try:
        assert tracer.missing == ["gone.helper"]
        assert inv.transport_via_coordinates is tr.transport_via_coordinates
        assert inv.transport_via_coordinates.__wrapped__ is original
    finally:
        tracer.detach()
    assert inv.transport_via_coordinates is original
