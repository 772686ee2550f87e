"""Host-time spans around the public functions of each layer.

The tracer patches the layer boundaries listed in :data:`LAYER_TARGETS`
from outside the program (nothing under ``src/`` knows it exists), records
one span per call in memory -- ``[layer, start, end, parent]`` on
``time.perf_counter`` -- and restores every original on exit. Self time is
a span's duration minus the durations of its direct children; the calls
are plain functions on one thread, so children never overlap and the self
times of all spans sum exactly to the time the top-level spans cover.
Whatever the timed section spent outside every span is the
``unattributed`` residual: the sim event loop, trainer and engine glue.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

UNATTRIBUTED = "unattributed"


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


#: (module, owner class or None for a module-level name, attribute, layer,
#: optional (counter name, fn(args, kwargs, result) -> work count)).
#: A module-level name is patched where the caller looks it up, e.g.
#: ``softmax_cross_entropy`` as bound in ``repro.sparse.mlp``.
LAYER_TARGETS: Tuple[tuple, ...] = (
    ("repro.data.batching", "BatchCursor", "next_batch", "data.batch",
     ("data.batch.nnz", lambda a, k, r: r.nnz)),
    ("repro.core.scheduler", "DynamicScheduler", "try_dispatch",
     "core.scheduler", None),
    ("repro.core.scheduler", "DynamicScheduler", "record_completion",
     "core.scheduler", None),
    ("repro.core.scheduler", "DynamicScheduler", "mega_batch_boundary",
     "core.scheduler", None),
    ("repro.core.adaptive", None, "compute_merge_weights", "core.merge", None),
    ("repro.core.adaptive", None, "merge_models", "core.merge", None),
    ("repro.sparse.model_state", "ModelState", "l2_norm_per_param",
     "core.merge", None),
    ("repro.comm.ring", "RingAllReduce", "reduce", "comm.allreduce", None),
    ("repro.comm.ring", "RingAllReduce", "time_seconds", "comm.allreduce",
     ("comm.allreduce.bytes", lambda a, k, r: int(_arg(a, k, 1, "nbytes")))),
    ("repro.sparse.mlp", "SparseMLP", "forward", "sparse.forward", None),
    ("repro.sparse.mlp", None, "softmax_cross_entropy", "sparse.loss",
     ("sparse.loss.elements", lambda a, k, r: int(_arg(a, k, 0, "logits").size))),
    ("repro.sparse.mlp", "SparseMLP", "loss_and_grad", "sparse.backward", None),
    ("repro.core.adaptive", None, "sgd_step", "sparse.sgd", None),
    ("repro.sparse.metrics", None, "topk_indices", "sparse.topk",
     ("sparse.topk.rows", lambda a, k, r: int(r.shape[0]))),
    ("repro.serve.predictor", None, "topk_indices", "sparse.topk",
     ("sparse.topk.rows", lambda a, k, r: int(r.shape[0]))),
    ("repro.harness.trainer_base", "TrainerBase", "evaluate", "harness.eval",
     None),
    ("repro.gpu.device", "VirtualGPU", "step_time", "gpu.cost", None),
    ("repro.gpu.device", "VirtualGPU", "model_transfer_time", "gpu.cost", None),
    ("repro.gpu.cost", "GpuCostModel", "inference_time", "gpu.cost", None),
    ("repro.serve.predictor", "Predictor", "topk", "serve.predictor", None),
    ("repro.serve.predictor", "Predictor", "workload", "serve.predictor", None),
    ("repro.serve.queue", "TenantScheduler", "push", "serve.queue", None),
    ("repro.serve.queue", "TenantScheduler", "pop_batch", "serve.queue", None),
    ("repro.serve.queue", "TenantScheduler", "next_class", "serve.queue", None),
    ("repro.serve.store", "SnapshotStore", "poll", "serve.store", None),
    ("repro.serve.store", "SnapshotStore", "load", "serve.store", None),
    ("repro.serve.store", "SnapshotStore", "publish", "serve.store", None),
    ("repro.serve.snapshot", "ModelSnapshot", "save", "serve.store", None),
    ("repro.serve.snapshot", "ModelSnapshot", "load", "serve.store", None),
    ("repro.serve.predictor", "Predictor", "spawn", "serve.store", None),
    ("repro.elastic.membership", "ClusterMembership", "poll",
     "elastic.membership", None),
)

#: Every layer in report order (the residual last).
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[3] for t in LAYER_TARGETS)) + (
    UNATTRIBUTED,
)
#: Every work counter, in report order.
COUNTERS: Tuple[str, ...] = tuple(
    dict.fromkeys(t[4][0] for t in LAYER_TARGETS if t[4] is not None)
)


class Tracer:
    """Records spans around :data:`LAYER_TARGETS` while installed.

    Use as a context manager; nothing is patched outside the ``with``
    block, so untraced runs execute the program's own functions.
    """

    def __init__(self) -> None:
        #: ``[layer, start, end, parent index or -1]`` per call, call order.
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: ``perf_counter`` at the start of the traced section (set by the
        #: caller; the Chrome export's time origin).
        self.t0 = 0.0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------
    def _traced(self, func: Callable, layer: str, counter) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [layer, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, owner_name, attr, layer, counter in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._traced(raw.__func__, layer, counter))
            else:
                patched = self._traced(raw, layer, counter)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, raw))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis -----------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Layer -> summed self time (span minus its direct children)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for (layer, start, end, _), inner in zip(self.spans, child):
            out[layer] += (end - start) - inner
        return dict(out)

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return dict(out)

    def covered_s(self) -> float:
        """Host time inside any span: the top-level spans' durations."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def breakdown(self, wall_s: float) -> Dict[str, float]:
        """Per-layer self time plus the residual; sums to ``wall_s``."""
        selfs = self.self_times()
        out = {layer: selfs.get(layer, 0.0) for layer in LAYERS[:-1]}
        out[UNATTRIBUTED] = wall_s - sum(out.values())
        return out

    def chrome_trace(self, wall_s: float, name: str) -> dict:
        """Chrome-trace JSON: the timed section plus one event per span."""
        events = [{
            "name": name, "ph": "X", "pid": 1, "tid": 1,
            "ts": 0.0, "dur": wall_s * 1e6, "args": {"parent": None},
        }]
        for i, (layer, start, end, parent) in enumerate(self.spans):
            events.append({
                "name": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - self.t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": i, "parent": parent if parent >= 0 else None},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_trace_files(
    out_dir: Path, stem: str, chrome: dict, table: dict
) -> Tuple[Path, Path]:
    """Write ``<stem>.trace.json`` (Chrome) and ``<stem>.layers.json``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    chrome_path = out_dir / f"{stem}.trace.json"
    table_path = out_dir / f"{stem}.layers.json"
    chrome_path.write_text(json.dumps(chrome))
    table_path.write_text(json.dumps(table, indent=2, sort_keys=True))
    return chrome_path, table_path


__all__ = [
    "COUNTERS",
    "LAYERS",
    "LAYER_TARGETS",
    "Tracer",
    "UNATTRIBUTED",
    "write_trace_files",
]
