"""The benchmark's workloads, driven through the public API.

Each workload has four phases, called by ``run.py``:

- ``__init__(seed, workdir, smoke)`` -- set-up: dataset generation and the
  trainer / snapshot / store / engine construction a user's process pays
  before any work (timed as ``setup_s``, together with import). Benchmark
  work done inside it -- the capacity probe that sets the offered rate --
  is timed into ``untimed_s`` and left out of ``setup_s``;
- ``prepare()`` -- untimed per-repetition state: a fresh trainer or engine,
  so every repetition starts cold, as one ``repro train`` / ``repro serve``
  process does;
- ``execute(prepared)`` -- the timed section (``wall_s``);
- ``check(prepared, output, wall_s)`` -- correctness checks and the
  sim-clock metrics, returned as a :class:`Rep`.

Loads are open loop on the sim clock: arrival times are drawn from the seed
up front and latency runs from each request's scheduled arrival. The
program receives only generated inputs.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List

import numpy as np

from oracle import mismatched_rows, reference_scores
from repro.api import make_engine, make_trainer
from repro.data.registry import load_task
from repro.elastic import ClusterMembership
from repro.harness.experiment import ExperimentSpec
from repro.harness.figures import default_config_for
from repro.serve import (
    LoadSpec,
    ModelSnapshot,
    SnapshotStore,
    TenantLoad,
    generate_arrivals,
    generate_multi_tenant_arrivals,
    sample_query_rows,
)
from repro.serve.loadgen import nearest_rank_percentile
from repro.sparse.mlp import MLPArchitecture, SparseMLP

#: Served requests re-scored by the reference top-k in every repetition.
ORACLE_SAMPLE = 64
K = 5


@dataclass
class Rep:
    """One repetition's outcome."""

    wall_s: float
    #: Work items: training samples, or offered requests.
    samples: int
    #: Sim-clock metrics; deterministic per seed.
    sim: Dict[str, float]
    attempted: int
    failures: List[str] = field(default_factory=list)
    #: Serving counts for the traced per-layer table.
    counts: Dict[str, float] = field(default_factory=dict)


class _Workload:
    """Shared ``prepare``: the set-up's own trainer or engine serves the
    first repetition; every later one gets a fresh one from ``_build``."""

    _first = None
    #: Host seconds of benchmark-only work inside ``__init__``.
    untimed_s = 0.0

    def _build(self):
        raise NotImplementedError

    def prepare(self):
        fresh, self._first = self._first, None
        return fresh if fresh is not None else self._build()


def _n_layers(arch) -> int:
    return len(arch.layer_dims) - 1


def _fixed_sample(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 7])
    return np.sort(rng.choice(n, size=min(ORACLE_SAMPLE, n), replace=False))


def _oracle_failures(result, X, states: Dict[int, object], n_layers: int,
                     sample: np.ndarray) -> List[str]:
    """Re-score ``sample`` requests under the version each was served by."""
    failures = []
    by_version: Dict[int, List] = {}
    for i in sample:
        request = result.requests[i]
        if request.t_done is None:
            continue
        by_version.setdefault(request.served_version, []).append(request)
    for version, requests in sorted(by_version.items()):
        rows = np.array([r.row for r in requests])
        served = np.array([r.labels for r in requests])
        scores = reference_scores(states[version], n_layers, X[rows])
        bad = mismatched_rows(served, scores, K)
        failures += [f"wrong top-{K} labels (version {version})"] * bad
    return failures


def _capacity_rps(engine, X) -> float:
    """Modeled sequential capacity of ``engine``'s cluster on one query."""
    per_request = engine.server.gpus[0].cost_model.inference_time(
        engine.predictor.workload(X[:1]), n_active_gpus=engine.server.n_gpus,
    )
    return engine.server.n_gpus / per_request


def _serve_failures(result, n_offered: int) -> List[str]:
    """Shed requests and invariant breaks of one serving run."""
    completed = sum(1 for r in result.requests if r.t_done is not None)
    failures = ["shed request"] * result.n_shed
    lost = n_offered - completed - result.n_shed
    if lost:
        failures.append(f"offered != completed + shed (off by {lost})")
    failures += ["mis-versioned request"] * result.mis_versioned
    failures += ["failed swap"] * result.n_swap_failures
    return failures


def _serve_counts(result) -> Dict[str, float]:
    report = result.report
    return {
        "serve.batches": float(len(report.batch_sizes)),
        "serve.mean_batch_size": float(report.mean_batch_size),
        "serve.queue.shed": float(result.n_shed),
        "serve.queue.wait_p99_ms": nearest_rank_percentile(
            report.queue_delays_s, 99) * 1e3,
        "serve.swap.attempts": float(len(result.swaps)),
        "serve.swap.commits": float(result.n_swaps),
        "serve.swap.rollbacks": float(result.n_rollbacks),
        "elastic.membership.events": float(result.n_membership_events),
    }


def _serve_sim(result) -> Dict[str, float]:
    report = result.report
    return {
        "sim.samples_per_s": float(report.throughput_rps),
        "sim.throughput_rps": float(report.throughput_rps),
        "sim.p50_ms": report.percentile(50) * 1e3,
        "sim.p99_ms": report.percentile(99) * 1e3,
    }


class TrainAmazon(_Workload):
    """``repro train --dataset amazon670k-tiny --gpus 4 --snapshot``."""

    name = "train-amazon"
    why = ("6144 labels over 1536 features, so softmax cross-entropy and "
           "eval top-k dominate host time")
    dataset = "amazon670k-tiny"
    n_gpus = 4
    #: Fixed top-1 target for time-to-accuracy, below every seed's best.
    tta_target = 0.2

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.stem = workdir / "train-snapshot"
        self.budget = 0.03 if smoke else 0.2
        self.task = load_task(self.dataset, seed=seed)
        self.spec = ExperimentSpec(
            dataset=self.dataset,
            algorithms=("adaptive",),
            gpu_counts=(self.n_gpus,),
            time_budget_s=self.budget,
            config=default_config_for(self.dataset),
            seed=seed,
        )
        self._first = self._build()

    def _build(self):
        return make_trainer("adaptive", self.spec, task=self.task)

    def execute(self, trainer):
        trace = trainer.run(time_budget_s=self.budget)
        trainer.save_snapshot(self.stem, time_budget_s=self.budget)
        return trace

    def check(self, trainer, trace, wall_s: float) -> Rep:
        failures = [
            f"non-finite loss at t={p.time_s:.4f}"
            for p in trace.points[1:] if not math.isfinite(p.loss)
        ]
        loaded = ModelSnapshot.load(self.stem)
        if not (
            loaded.arch == trainer.arch
            and loaded.state.vector.dtype == trainer.final_state.vector.dtype
            and loaded.state.vector.tobytes()
            == trainer.final_state.vector.tobytes()
        ):
            failures.append("snapshot round trip is not bit-identical")
        last = trace.points[-1]
        tta = trace.time_to_accuracy(self.tta_target)
        sim = {
            "sim.samples_per_s": last.samples / last.time_s,
            "sim.final_accuracy": trace.final_accuracy,
            "sim.best_accuracy": trace.best_accuracy,
            "sim.tta_s": tta if tta is not None else math.inf,
            "sim.updates": float(last.updates),
        }
        return Rep(
            wall_s=wall_s,
            samples=last.samples,
            sim=sim,
            attempted=last.updates + len(trace.points),
            failures=failures,
        )


class _Serving(_Workload):
    """Serving from a :class:`SnapshotStore` under a churn preset.

    Version 1 serves from t=0 and the other versions are published at even
    fractions of the arrival window, so every engine loads, spawns and
    canaries them mid-run while requests keep arriving.
    """

    n_gpus = 2
    n_versions = 4
    #: Membership preset whose events land inside the arrival window.
    churn = "spot-churn"
    #: ``make_engine`` options of the workload.
    engine_options: dict = {}
    tenants = classes = None

    def _publish(self, root: Path, snapshots, window: float) -> None:
        self.store = SnapshotStore(root / "store")
        for i, snapshot in enumerate(snapshots):
            self.store.publish(
                snapshot, published_s=window * i / self.n_versions,
            )
        self.n_layers = _n_layers(snapshots[0].arch)
        self._states = None

    def _oracle_states(self) -> Dict[int, object]:
        """Every store version's weights, loaded on first use (untimed)."""
        if self._states is None:
            self._states = {
                v: self.store.load(v).state for v in self.store.versions()
            }
        return self._states

    def _capacity(self, snapshot) -> float:
        t0 = perf_counter()
        probe = make_engine(snapshot, n_gpus=self.n_gpus, seed=self.seed)
        capacity = _capacity_rps(probe, self.task.test.X)
        self.untimed_s += perf_counter() - t0
        return capacity

    def _build(self):
        engine = make_engine(
            self.store, k=K, n_gpus=self.n_gpus, seed=self.seed,
            **self.engine_options,
        )
        membership = ClusterMembership(
            engine.server, self.churn,
            duration_s=float(self.times[-1]), seed=self.seed,
        )
        return engine, membership

    def execute(self, prepared):
        engine, membership = prepared
        return engine.serve(
            self.task.test.X, self.times, k=K, row_indices=self.rows,
            canary_labels=self.task.test.Y, tenants=self.tenants,
            priority_classes=self.classes, membership=membership,
        )

    def check(self, prepared, result, wall_s: float) -> Rep:
        failures = _serve_failures(result, self.n_offered)
        failures += _oracle_failures(
            result, self.task.test.X, self._oracle_states(), self.n_layers,
            self.sample,
        )
        sim = _serve_sim(result)
        if self.tenants is not None:
            sim["sim.victim_p99_ms"] = (
                result.tenants["victim"]["latency_p99_ms"]
            )
        return Rep(
            wall_s=wall_s,
            samples=self.n_offered,
            sim=sim,
            attempted=self.n_offered,
            failures=failures,
            counts=_serve_counts(result),
        )


class ServeBatch(_Serving):
    """One tenant, exact scoring, adaptive micro-batching, saturated."""

    name = "serve-batch"
    why = ("saturated exact serving of an L=6144 model in ~190-row batches, "
           "with 3 hot swaps and a throttled GPU; per-row top-k dominates "
           "host time")
    dataset = "amazon670k-tiny"
    #: A throttle and its recovery. A saturated run serves ~10x longer
    #: than its arrival window, so a fail/join pair would swap a device
    #: for most of the run and make the modeled capacity a property of the
    #: seed's joining device rather than of the serving stack.
    churn = "flaky-one"
    engine_options = {
        "mode": "adaptive", "scoring": "exact", "target_latency_s": 2e-3,
    }
    #: Offered rate over the modeled cluster's sequential capacity.
    overload = 10.0

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.n_offered = 2000 if smoke else 20000
        self.task = load_task(self.dataset, seed=seed)
        arch = MLPArchitecture(
            self.task.n_features, self.task.n_labels,
            hidden=ExperimentSpec().hidden,
        )
        # Seeded initial weights: ranking costs the same as for a trained
        # model, and the oracle re-scores under whichever version served.
        snapshots = [
            ModelSnapshot(
                arch=arch,
                state=SparseMLP(arch).init_state(
                    seed=seed * self.n_versions + v),
                meta={"dataset": self.dataset},
            )
            for v in range(self.n_versions)
        ]
        self.times = generate_arrivals(LoadSpec(
            n_requests=self.n_offered,
            rate_rps=self.overload * self._capacity(snapshots[0]),
            seed=seed,
        ))
        self.rows = sample_query_rows(
            self.task.test.X.shape[0], self.n_offered, seed=seed,
        )
        self._publish(
            Path(tempfile.mkdtemp(dir=workdir)), snapshots,
            window=float(self.times[-1]),
        )
        self.sample = _fixed_sample(self.n_offered, seed)
        self._first = self._build()


class ServeMixed(_Serving):
    """Two tenants and many tiny batches on an L=64 model."""

    name = "serve-mixed"
    why = ("many tiny batches with tenants, hot swaps and churn, so per-call "
           "queue, engine and event-loop cost dominates host time")
    dataset = "micro"
    engine_options = {"mode": "adaptive", "class_slo_ms": {0: 2.0, 1: 2.0}}
    #: Training budget (sim s) whose checkpoints become the store versions.
    train_budget = 0.04
    victim_load = 0.3      # class-0 Poisson rate, x modeled capacity
    aggressor_load = 0.5   # class-1 bursty mean rate, x capacity (peaks 2x)

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        n_victim = 600 if smoke else 5600
        self.task = load_task(self.dataset, seed=seed)
        spec = ExperimentSpec(
            dataset=self.dataset,
            algorithms=("adaptive",),
            gpu_counts=(self.n_gpus,),
            time_budget_s=self.train_budget,
            config=default_config_for(self.dataset),
            seed=seed,
        )
        # A short training session supplies the versions (checkpoints of a
        # learning model, so the recall canary sees no regression).
        trainer = make_trainer("adaptive", spec, task=self.task)
        root = Path(tempfile.mkdtemp(dir=workdir))
        staging = SnapshotStore(root / "staging")
        trainer.publish_snapshot(
            staging, every_s=self.train_budget / self.n_versions,
        )
        trainer.run(time_budget_s=self.train_budget)
        versions = staging.versions()[: self.n_versions]
        if len(versions) < self.n_versions:
            raise RuntimeError(f"training published only {versions}")
        snapshots = [staging.load(v) for v in versions]

        capacity = self._capacity(snapshots[0])
        victim_rate = self.victim_load * capacity
        window = n_victim / victim_rate
        aggressor_rate = self.aggressor_load * capacity
        self.times, self.tenants, self.classes = generate_multi_tenant_arrivals([
            TenantLoad("victim", LoadSpec(
                n_requests=n_victim, rate_rps=victim_rate, seed=seed,
            ), priority_class=0),
            TenantLoad("aggressor", LoadSpec(
                n_requests=int(aggressor_rate * window),
                rate_rps=aggressor_rate, pattern="burst", seed=seed + 1,
            ), priority_class=1),
        ])
        self.n_offered = int(self.times.size)
        self.rows = sample_query_rows(
            self.task.test.X.shape[0], self.n_offered, seed=seed,
        )
        self._publish(root, snapshots, window)
        self.sample = _fixed_sample(self.n_offered, seed)
        self._first = self._build()


WORKLOADS = {w.name: w for w in (TrainAmazon, ServeBatch, ServeMixed)}
