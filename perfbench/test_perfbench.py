"""The benchmark's own tests (smoke sizes, a few seconds per workload).

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.bootstrap()

import numpy as np  # noqa: E402

from oracle import mismatched_rows, reference_scores  # noqa: E402
from tracer import LAYERS, UNATTRIBUTED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def _result(*args) -> dict:
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, units: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_reports_every_end_to_end_metric(workload):
    result = _result("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--smoke")
    _assert_metrics(result, run.END_TO_END)
    for name in run.END_TO_END:
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_reports_every_layer_metric(workload):
    result = _result("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--smoke")
    _assert_metrics(result, run.per_layer_units())
    values = {n: m["value"] for n, m in result["metrics"].items()}
    for layer in LAYERS[:-1]:
        assert values[f"{layer}.self_s"] >= 0.0, layer
    assert values["unattributed_s"] >= 0.0


def test_registry_records_the_invocation(tmp_path):
    from repro.registry import RunRegistry

    _result("--workload", "serve-batch", "--seed", "3", "--seconds", "1",
            "--trace", "0", "--smoke", "--registry", str(tmp_path))
    runs = RunRegistry(tmp_path, create=False).list(tag="bench:serve-batch")
    assert len(runs) == 1
    assert runs[0].status == "green"
    assert runs[0].metrics["wall_s"] > 0.0


def test_missing_program_sources_exit_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "serve-batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _served_batch(tmp_path, n_rows=32):
    from repro.serve import Predictor

    workload = WORKLOADS["serve-batch"](5, tmp_path, smoke=True)
    snapshot = workload.store.load(workload.store.versions()[0])
    X = workload.task.test.X[:n_rows]
    served = Predictor(snapshot).topk(X, 5)
    return served, reference_scores(snapshot.state, workload.n_layers, X)


def test_oracle_accepts_served_labels_and_flags_a_corrupted_one(tmp_path):
    served, scores = _served_batch(tmp_path)
    assert mismatched_rows(served, scores, 5) == 0
    corrupted = served.copy()
    row = 7
    # Swap the best label for the row's lowest-scoring one.
    corrupted[row, 0] = int(np.argmin(scores[row]))
    assert mismatched_rows(corrupted, scores, 5) == 1
    duplicated = served.copy()
    duplicated[row, 1] = duplicated[row, 0]
    assert mismatched_rows(duplicated, scores, 5) == 1


def test_self_times_reconcile_to_traced_wall(tmp_path):
    from repro.sparse import mlp

    workload = WORKLOADS["serve-mixed"](2, tmp_path, smoke=True)
    original = mlp.SparseMLP.forward
    tracer = Tracer()
    rep = run.timed_rep(workload, tracer)
    assert mlp.SparseMLP.forward is original  # patches removed on exit
    assert rep.failures == []
    selfs = tracer.self_times()
    assert all(seconds >= 0.0 for seconds in selfs.values())
    assert sum(selfs.values()) == pytest.approx(tracer.covered_s(), abs=1e-9)
    assert tracer.breakdown(rep.wall_s)[UNATTRIBUTED] >= 0.0
    assert run.trace_breaks([(rep, tracer)]) == []
    assert run.trace_breaks([(dataclasses.replace(rep, wall_s=0.0), tracer)])
    calls = tracer.calls()
    assert calls["serve.queue"] > 0 and calls["sparse.topk"] > 0
    assert calls.get("sparse.loss", 0) == 0  # serving never touches loss


def test_wall_is_scaled_to_reference_speed():
    from workloads import Rep

    rep = Rep(wall_s=2.0, samples=100, sim={"sim.samples_per_s": 1.0},
              attempted=1)
    timings = run.Timings(setups=[1.0, 1.2, 4.0], setup_speeds=[2.0, 1.0, 0.5],
                          plain=[rep, rep], speeds=[0.5, 1.0])
    assert timings.walls_s() == [1.0, 2.0]
    assert run.speed(run.REFERENCE_KERNEL_S, 3 * run.REFERENCE_KERNEL_S) == 0.5
    values = run.end_to_end(timings)
    assert values["setup_s"] == pytest.approx(2.0)
    assert values["wall_s"] == pytest.approx(1.5)
    assert values["samples_per_s"] == pytest.approx(75.0)
    assert run.reference_kernel_s() > 0.0


def test_benchmark_json_declares_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())
    for workload in spec["workloads"]:
        assert WORKLOADS[workload["name"]].why == workload["why"]
