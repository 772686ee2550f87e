"""End-to-end host-time benchmark of the repro training and serving paths.

Run from the repository root:

    python3 perfbench/run.py --workload train-amazon --seed 1 --seconds 55 --trace 0

``--trace 0`` repeats, until ``--seconds`` have passed (at least three
times), a fresh set-up of the workload followed by one untraced run of the
timed section on it, and reports the medians of both. Each set-up and each
run of the timed section is bracketed by a fixed reference kernel, and
``setup_s`` and ``wall_s`` are their host times scaled to the machine speed
at which that kernel takes :data:`REFERENCE_KERNEL_S` (see
:func:`reference_kernel_s`). ``--trace 1`` adds a
traced repetition after each untraced one and reports the per-layer
breakdown of the median traced one; it also writes a Chrome trace and the
layer table under ``.perfbench_out/``. Human-readable lines come first; the
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> ``{"value", "unit"}``).
See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_ROOT = ROOT / ".perfbench_tmp"

#: BLAS/OpenMP pool size inside the benchmark process (<= nproc): one
#: thread keeps runs comparable across machines and steady under load.
THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
)
MIN_REPS = 3
#: Fresh-interpreter import probes per set-up; a set-up counts their mean.
IMPORT_PROBES = 2
#: Host seconds of :func:`reference_kernel_s` at the reference machine
#: speed: its usual time on a 2-vCPU Xeon VM with one BLAS thread.
REFERENCE_KERNEL_S = 0.2
IMPORT_PROBE = (
    "import repro.api, repro.serve, repro.elastic, repro.harness.experiment"
)

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim.samples_per_s": "1/sim_s",
}
#: Sim-clock metrics printed in the table (not all apply to every workload).
SIM_UNITS = {
    "sim.final_accuracy": "top1",
    "sim.best_accuracy": "top1",
    "sim.tta_s": "sim_s",
    "sim.updates": "count",
    "sim.throughput_rps": "1/sim_s",
    "sim.p50_ms": "sim_ms",
    "sim.p99_ms": "sim_ms",
    "sim.victim_p99_ms": "sim_ms",
}
SERVE_COUNT_UNITS = {
    "serve.batches": "count",
    "serve.mean_batch_size": "rows",
    "serve.queue.shed": "count",
    "serve.queue.wait_p99_ms": "sim_ms",
    "serve.swap.attempts": "count",
    "serve.swap.commits": "count",
    "serve.swap.rollbacks": "count",
    "elastic.membership.events": "count",
}


def bootstrap() -> None:
    """Pin BLAS threads and put the program's ``src`` on the path.

    Must run before numpy is imported. Exits with code 2 when the program
    sources are missing (the benchmark alone cannot run).
    """
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


def per_layer_units():
    """name -> unit of every per-layer metric (``--trace 1``)."""
    from tracer import COUNTERS, LAYERS, UNATTRIBUTED

    units = {}
    for layer in LAYERS:
        if layer == UNATTRIBUTED:
            units["unattributed_s"] = "s"
        else:
            units[f"{layer}.self_s"] = "s"
            units[f"{layer}.calls"] = "count"
    units.update({
        "comm.allreduce.bytes": "bytes",
        **{name: "count" for name in COUNTERS if name != "comm.allreduce.bytes"},
    })
    units.update(SERVE_COUNT_UNITS)
    units["trace.wall_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def machine_facts() -> dict:
    import numpy
    import scipy
    from repro.registry import git_state

    return {
        "nproc": os.cpu_count(),
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": git_state(ROOT).get("git_commit"),
    }


def import_seconds() -> float:
    """Host time of a fresh interpreter importing the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
        timeout=120, cwd=ROOT,
    )
    return perf_counter() - t0


@functools.lru_cache(maxsize=1)
def _kernel_inputs():
    import numpy as np
    import scipy.sparse as sp

    rng = np.random.default_rng(0)
    scores = rng.standard_normal((190, 6144)).astype(np.float32)
    X = sp.random(256, 1536, density=0.01, format="csr", dtype=np.float32,
                  random_state=1)
    W = rng.standard_normal((1536, 128)).astype(np.float32)
    return scores, X, W


def reference_kernel_s() -> float:
    """Host seconds of a fixed kernel that mixes the kinds of work the
    workloads do: row top-k, a sparse-dense product, ``exp`` and
    interpreted dict updates, on fixed inputs.

    It runs none of the program's code, so only the speed of the machine
    moves it. A shared host runs the same work up to about 1.6x slower for
    seconds to minutes at a time; timing this kernel on both sides of a
    set-up or a repetition measures how fast the machine was meanwhile.
    """
    import numpy as np

    scores, X, W = _kernel_inputs()
    t0 = perf_counter()
    for _ in range(24):
        np.argpartition(-scores, 5, axis=1)
        X @ W
        np.exp(scores)
        tally = {}
        for i in range(3000):
            tally[i % 97] = tally.get(i % 97, 0) + i
    return perf_counter() - t0


def timed_setup(cls, seed: int, workdir: Path, smoke: bool):
    """Build the workload once; return it and its set-up seconds: the mean
    of :data:`IMPORT_PROBES` fresh-interpreter imports of the program plus
    the construction, less the benchmark's own work inside it."""
    gc.collect()
    imports = [import_seconds() for _ in range(IMPORT_PROBES)]
    t0 = perf_counter()
    workload = cls(seed, workdir, smoke)
    build_s = perf_counter() - t0 - workload.untimed_s
    return workload, statistics.mean(imports) + build_s


def timed_rep(workload, tracer=None):
    """One repetition: fresh state, the timed section, then its checks."""
    prepared = workload.prepare()
    gc.collect()
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = perf_counter()
        output = workload.execute(prepared)
        wall = perf_counter() - t0
    if tracer is not None:
        tracer.t0 = t0
    return workload.check(prepared, output, wall)


def speed(before_s: float, after_s: float) -> float:
    """The machine's speed between two timings of the reference kernel:
    1.0 at the reference speed, below 1.0 when slower."""
    return REFERENCE_KERNEL_S / statistics.mean((before_s, after_s))


def trace_breaks(traced) -> list:
    """A traced repetition whose spans do not reconcile with its wall time:
    a layer with negative self time, or more span time than wall time."""
    return [
        f"negative {layer} self time in a traced repetition"
        for rep, tracer in traced
        for layer, seconds in tracer.breakdown(rep.wall_s).items()
        if seconds < 0.0
    ]


def sim_breaks(reps) -> list:
    """A repetition whose sim-clock metrics differ from the first's."""
    first = reps[0].sim
    return [
        f"sim metrics differ between repetitions 0 and {i}"
        for i, rep in enumerate(reps[1:], 1) if rep.sim != first
    ]


def layer_metrics(tracer, rep, overhead: float) -> dict:
    from tracer import UNATTRIBUTED

    breakdown = tracer.breakdown(rep.wall_s)
    calls = tracer.calls()
    out = {}
    for layer, seconds in breakdown.items():
        if layer == UNATTRIBUTED:
            out["unattributed_s"] = seconds
        else:
            out[f"{layer}.self_s"] = seconds
            out[f"{layer}.calls"] = calls.get(layer, 0)
    for name in per_layer_units():
        if name not in out:
            out[name] = tracer.counts.get(name, rep.counts.get(name, 0))
    out["trace.wall_s"] = rep.wall_s
    out["trace.overhead"] = overhead
    return out


def fmt(value) -> str:
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run(args) -> dict:
    """Run one benchmark invocation; return the result object."""
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    TMP_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        return _run(cls, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cls, args, workdir: Path):
    """Set up and run the workload until ``args.seconds`` pass.

    Each iteration sets the workload up afresh (timed) and runs one
    untraced repetition on what the set-up built, so set-ups and
    repetitions sample the same stretch of machine time. The reference
    kernel runs before the set-up, between it and the repetition, and
    after the repetition. Traced runs add a
    traced repetition on a fresh trainer or engine. Untraced runs iterate
    at least :data:`MIN_REPS` times, traced runs at least once. Returns
    a :class:`Timings`.
    """
    from tracer import Tracer

    timings = Timings()
    plain, traced = timings.plain, timings.traced
    t_begin = perf_counter()
    for i in itertools.count():
        workload = None  # free the last set-up before building the next
        shutil.rmtree(workdir / str(i - 1), ignore_errors=True)
        (workdir / str(i)).mkdir()
        before = reference_kernel_s()
        workload, setup_s = timed_setup(
            cls, args.seed, workdir / str(i), args.smoke,
        )
        between = reference_kernel_s()
        plain.append(timed_rep(workload))
        after = reference_kernel_s()
        timings.setups.append(setup_s)
        timings.setup_speeds.append(speed(before, between))
        timings.speeds.append(speed(between, after))
        if args.trace:
            tracer = Tracer()
            traced.append((timed_rep(workload, tracer), tracer))
        spent = perf_counter() - t_begin
        step = spent / len(plain)
        enough = len(plain) >= (1 if args.trace else MIN_REPS)
        if enough and spent + step > args.seconds:
            return timings


@dataclasses.dataclass
class Timings:
    """What :func:`measure` timed, and the machine speed during each."""

    #: Host seconds of each set-up, and the speed during it.
    setups: list = dataclasses.field(default_factory=list)
    setup_speeds: list = dataclasses.field(default_factory=list)
    #: Untraced repetitions, and the speed during each.
    plain: list = dataclasses.field(default_factory=list)
    speeds: list = dataclasses.field(default_factory=list)
    #: ``(traced rep, its tracer)`` pairs.
    traced: list = dataclasses.field(default_factory=list)

    def setups_s(self) -> list:
        """Each set-up's host seconds at reference speed."""
        return [s * v for s, v in zip(self.setups, self.setup_speeds)]

    def walls_s(self) -> list:
        """Each untraced repetition's host seconds at reference speed."""
        return [rep.wall_s * v for rep, v in zip(self.plain, self.speeds)]


def end_to_end(timings: Timings) -> dict:
    """The end-to-end metrics: medians over set-ups and repetitions."""
    plain = timings.plain
    return {
        "setup_s": statistics.median(timings.setups_s()),
        "wall_s": statistics.median(timings.walls_s()),
        "samples_per_s": statistics.median(
            rep.samples / wall
            for rep, wall in zip(plain, timings.walls_s())
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "sim.samples_per_s": plain[0].sim["sim.samples_per_s"],
    }


def print_table(values: dict, units: dict, width: float = 0.0) -> None:
    """One ``name value unit`` line per metric; seconds also as a share of
    ``width`` when it is given."""
    for name, value in values.items():
        unit = units[name]
        share = (
            f"  {100.0 * value / width:5.1f}%"
            if width and unit == "s" and name != "trace.wall_s" else ""
        )
        print(f"  {name:<28} {fmt(value):>14} {unit}{share}")


def traced_layers(cls, seed: int, facts: dict, plain, traced) -> dict:
    """Per-layer metrics of the median traced repetition; writes the
    Chrome trace and the layer table."""
    from tracer import write_trace_files

    ordered = sorted(traced, key=lambda pair: pair[0].wall_s)
    rep, tracer = ordered[len(ordered) // 2]
    overhead = (
        statistics.median(r.wall_s for r, _ in traced)
        / statistics.median(r.wall_s for r in plain) - 1.0
    )
    metrics = layer_metrics(tracer, rep, overhead)
    paths = write_trace_files(
        OUT_DIR, f"{cls.name}-seed{seed}",
        tracer.chrome_trace(rep.wall_s, cls.name),
        {"workload": cls.name, "seed": seed, "machine": facts,
         "metrics": metrics, "units": per_layer_units()},
    )
    print(f"trace     : {paths[0]} (Chrome) {paths[1]} (layers)")
    print_table(metrics, per_layer_units(), width=rep.wall_s)
    return metrics


def _run(cls, args, workdir: Path) -> dict:
    facts = machine_facts()
    print(f"workload  : {cls.name} (seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'})")
    print(f"why       : {cls.why}")
    print("machine   : " + ", ".join(f"{k}={v}" for k, v in facts.items()))

    timings = measure(cls, args, workdir)
    plain, traced = timings.plain, timings.traced
    all_reps = plain + [rep for rep, _ in traced]
    failures = [f for rep in all_reps for f in rep.failures]
    failures += sim_breaks(all_reps) + trace_breaks(traced)
    attempted = sum(rep.attempted for rep in all_reps)

    print(f"reps      : {len(plain)} untraced"
          + (f" + {len(traced)} traced" if traced else "")
          + f"; walls {' '.join(f'{r.wall_s:.3f}' for r in plain)} s")
    print(f"speeds    : {' '.join(f'{s:.3f}' for s in timings.speeds)}"
          " x reference")
    print(f"setups    : {' '.join(f'{s:.3f}' for s in timings.setups)} s"
          " at speeds "
          + " ".join(f"{s:.3f}" for s in timings.setup_speeds))
    values = end_to_end(timings)
    table = dict(values, **plain[0].sim)
    table["failed_share"] = len(failures) / attempted
    table["host.setup_s"] = statistics.median(timings.setups)
    table["host.wall_s"] = statistics.median(rep.wall_s for rep in plain)
    if cls.name.startswith("serve"):
        table["requests_per_s"] = values["samples_per_s"]
    print_table(table, dict(END_TO_END, **SIM_UNITS, failed_share="ratio",
                            requests_per_s="1/s",
                            **{"host.setup_s": "s", "host.wall_s": "s"}))
    for failure in sorted(set(failures)):
        print(f"FAILED    : {failure} (x{failures.count(failure)})")

    if args.trace:
        metrics = traced_layers(cls, args.seed, facts, plain, traced)
        units = per_layer_units()
    else:
        metrics, units = values, END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    if args.registry:
        from repro.registry import RunRegistry, record_bench_run

        run_id = record_bench_run(
            RunRegistry(args.registry), cls.name, dict(table, **metrics),
            status="green" if result["correct"] else "red",
            extra={"seed": args.seed, "trace": args.trace, **facts},
        )
        print(f"registered: {run_id} (registry {args.registry})")
    return result


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train-amazon", "serve-batch", "serve-mixed"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--registry", metavar="DIR", default=None,
                   help="register the result in this run registry")
    p.add_argument("--smoke", action="store_true",
                   help="tiny workload sizes (for the benchmark's own tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    result = run(args)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
