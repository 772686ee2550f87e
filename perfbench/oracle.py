"""Reference top-k for checking served labels.

The reference is deliberately naive: a dense float64 forward pass through
the snapshot's weights, then a stable argsort of the negated scores, which
breaks ties toward the lowest label id -- the order the program promises.
The served path computes in float32 with sparse kernels, so two labels
whose float64 scores agree to within rounding may legitimately swap; a
served row is accepted when it is the reference row, or when every
position holds a label whose reference score equals the reference label's
score at that position within ``rtol * (1 + max |score|)`` and no label
repeats. A corrupted label fails unless it is a genuine near-tie.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: Relative score tolerance for a near-tie (float32 rounding of O(1)
#: logits accumulated over the hidden width is ~1e-6 relative).
RTOL = 1e-5


def reference_scores(state, n_layers: int, X: sp.csr_matrix) -> np.ndarray:
    """Dense float64 logits of ``X`` under ``state`` (ReLU hidden layers)."""
    h = X.toarray().astype(np.float64)
    for layer in range(1, n_layers + 1):
        h = h @ state[f"W{layer}"].astype(np.float64) + state[f"b{layer}"]
        if layer < n_layers:
            np.maximum(h, 0.0, out=h)
    return h


def reference_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` ids per row, best first, ties toward the lowest id."""
    return np.argsort(-scores, axis=1, kind="stable")[:, :k]


def mismatched_rows(served: np.ndarray, scores: np.ndarray, k: int) -> int:
    """How many rows of ``served`` (n, k) disagree with the reference."""
    served = np.asarray(served)
    ref = reference_topk(scores, k)
    if served.shape != ref.shape:
        return ref.shape[0]
    bad = 0
    for got, want, row in zip(served, ref, scores):
        if np.array_equal(got, want):
            continue
        in_range = got.min() >= 0 and got.max() < row.size
        tol = RTOL * (1.0 + float(np.abs(row).max()))
        if not (
            in_range
            and np.unique(got).size == k
            and np.all(np.abs(row[got] - row[want]) <= tol)
        ):
            bad += 1
    return bad
