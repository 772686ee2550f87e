"""The original per-row LSH top-k loop, kept as a test oracle.

The serving path ranks LSH candidates with the batched
:func:`repro.perf.lsh_topk.lsh_topk` kernel. This module keeps the loop it
replaced (dict-table lookups, per-row ``sampled_logits`` and a 1-row top-k)
so the tests can assert the batched kernel is bit-identical to it on
arbitrary snapshots. Slow by construction; nothing under ``src/`` uses it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConfigurationError
from repro.serve.predictor import Predictor
from repro.sparse.metrics import topk_indices
from repro.sparse.ops import sampled_logits

__all__ = ["topk_lsh_reference"]


def topk_lsh_reference(pred: Predictor, X: sp.csr_matrix, k: int) -> np.ndarray:
    """Top-``k`` label ids for ``X`` through ``pred``'s LSH index, row by row.

    Rows with fewer than ``k`` candidates are padded with the lowest label
    ids not retrieved, exactly as :meth:`Predictor.topk_lsh` does.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if not pred._lsh_built:
        pred.rebuild_lsh()
    L = pred.arch.n_labels
    k = min(k, L)
    n = X.shape[0]
    out = np.empty((n, k), dtype=np.int64)
    if n == 0:
        return out
    H = np.array(pred.hidden(X), copy=True)
    W_out = pred.state[pred._out_name]
    b_out = pred.state[pred._bias_name]
    candidates = pred._lsh.query_batch(H, n_probes=pred.lsh_probes)
    for i, cand in enumerate(candidates):
        if cand.size < k:
            # Deterministic fill: lowest label ids not retrieved.
            missing = np.setdiff1d(
                np.arange(min(L, k + cand.size), dtype=np.int64), cand
            )[: k - cand.size]
            logits = sampled_logits(H[i], W_out, b_out, cand)
            order = topk_indices(logits[None, :], cand.size)[0] if cand.size else []
            out[i, : cand.size] = cand[order]
            out[i, cand.size:] = missing
        else:
            logits = sampled_logits(H[i], W_out, b_out, cand)
            # cand is sorted ascending, so positional tie-break == the
            # lowest-label-id rule the exact path uses.
            best = topk_indices(logits[None, :], k)[0]
            out[i] = cand[best]
    return out
