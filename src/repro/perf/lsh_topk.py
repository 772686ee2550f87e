"""Vectorized multi-probe LSH top-k inference kernel.

The reference serving path (`Predictor.topk_lsh` before this module) ran
one Python iteration per query: a dict-based bucket lookup, an
``np.unique`` union, a per-row ``sampled_logits`` GEMV and a 1-row top-k.
At 512 queries that is ~2000 small numpy calls — the candidate machinery
cost ~25x the dense GEMM it was supposed to beat.

This kernel batches all of it over the query block:

1. **probe** — every query's bucket signatures for all tables and probes
   come from one einsum (:meth:`SimHashLSH.probe_codes`), and all
   ``n · T · P`` bucket lookups resolve with a single ``np.searchsorted``
   against the index's flat sorted ``(table << bits) | code`` key array;
2. **gather** — bucket member lists are flattened into one entry list via
   ``np.repeat`` + segment-arange (no per-bucket concatenation), and
   per-row dedup is a bitmap scatter into a reused ``(n, L)`` uint8
   workspace mask; ``np.flatnonzero`` of that mask *is* the CSR-shaped
   candidate set — ``(row_ptr, candidate_ids)`` with ids sorted ascending
   within each row, exactly the order the per-row ``np.unique`` produced;
3. **score** — one blocked gather-dot (``einsum('ej,ej->e')`` over paired
   row gathers of the hidden block and the transposed output weights)
   computes every candidate logit in O(entries · h), never touching the
   dense ``(n, L)`` grid;
4. **top-k** — rows with ≥ k candidates are ranked together by packing
   their logits into a ``-inf``-padded rectangle and reusing the
   deterministic :func:`~repro.sparse.metrics.topk_indices` (pads can
   never enter the top-k of a row with k real entries, and ascending
   candidate position == ascending label id, so the tie-break is identical
   to the exact path); underfull rows keep the reference padding loop
   verbatim — they are the rare case by construction.

``tests/test_perf_lsh_topk.py`` checks the kernel against the original
per-row loop (kept under ``tests/`` as an oracle) for bit-identical ids
on randomized snapshots, plus the empty-row / k > L / all-underfull edges.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from repro.perf import profile as _profile
from repro.perf.workspace import Workspace
from repro.sparse.metrics import topk_indices

__all__ = ["probe_candidates", "score_entries", "segmented_topk", "lsh_topk"]

#: Entries per gather block in the flat scoring pass — bounds the paired
#: row-gather scratch at two ``(2**15, hidden)`` float32 temporaries.
_GATHER_BLOCK = 1 << 15


def _segment_arange(counts: np.ndarray) -> np.ndarray:
    """``concat(arange(c) for c in counts)`` without a Python loop."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def probe_candidates(
    lsh,
    H: np.ndarray,
    *,
    n_probes: int = 1,
    workspace: Optional[Workspace] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR candidate sets for a query block: ``(row_ptr, candidate_ids)``.

    ``row_ptr`` is ``(n + 1,)`` int64; row *i*'s candidates are
    ``candidate_ids[row_ptr[i]:row_ptr[i + 1]]``, sorted ascending and
    unique — element-for-element what ``lsh.query_batch(H)`` returns, but
    computed with three vectorized passes instead of ``n`` dict walks.
    """
    prof = _profile.active
    n = H.shape[0]
    L = lsh.n_items
    indptr = np.zeros(n + 1, dtype=np.int64)
    if n == 0 or L == 0:
        return indptr, np.empty(0, dtype=np.int64)

    # -- probe: hash the block, binary-search every bucket at once --------
    t0 = perf_counter() if prof is not None else 0.0
    codes = lsh.probe_codes(H, n_probes)  # (T, P, n)
    T, P, _ = codes.shape
    flat_codes, flat_offsets, flat_items = lsh.flat_tables()
    keys = codes | (np.arange(T, dtype=np.int64) << lsh.n_bits)[:, None, None]
    # (n, T·P) so each query's probes are contiguous in the flat order.
    keys = np.ascontiguousarray(keys.transpose(2, 0, 1)).reshape(n, T * P)
    flat_keys = keys.ravel()
    pos = np.searchsorted(flat_codes, flat_keys)
    pos_c = np.minimum(pos, flat_codes.size - 1)
    hit = flat_codes[pos_c] == flat_keys
    bucket_counts = np.where(
        hit, flat_offsets[pos_c + 1] - flat_offsets[pos_c], 0
    )
    if prof is not None:
        prof.add("lsh_probe", perf_counter() - t0, units=n * T * P)

    # -- gather: flatten bucket members, dedup per row via bitmap ---------
    t0 = perf_counter() if prof is not None else 0.0
    total = int(bucket_counts.sum())
    if total == 0:
        if prof is not None:
            prof.add("lsh_gather", perf_counter() - t0, units=0)
        return indptr, np.empty(0, dtype=np.int64)
    starts = np.where(hit, flat_offsets[pos_c], 0)
    entry_items = flat_items[
        np.repeat(starts, bucket_counts) + _segment_arange(bucket_counts)
    ]
    entry_rows = np.repeat(
        np.repeat(np.arange(n, dtype=np.int64), T * P), bucket_counts
    )
    if workspace is not None:
        mask = workspace.buffer("lsh-mask", n, L, dtype=np.uint8)
    else:
        mask = np.empty((n, L), dtype=np.uint8)
    mask[...] = 0
    flat_mask = mask.reshape(-1)
    flat_mask[entry_rows * L + entry_items] = 1
    nz = np.flatnonzero(flat_mask)  # ascending ⇒ (row, id) lexicographic
    rows = nz // L
    ids = nz % L
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    if prof is not None:
        prof.add("lsh_gather", perf_counter() - t0, units=total)
    return indptr, ids


def score_entries(
    H: np.ndarray,
    W_T: np.ndarray,
    b: np.ndarray,
    rows: np.ndarray,
    ids: np.ndarray,
) -> np.ndarray:
    """Logits at the flat ``(rows, ids)`` entries — blocked gather-dot.

    ``H`` is the ``(n, h)`` hidden block, ``W_T`` the row-major ``(L, h)``
    transpose of the output weights (contiguous label rows make the gather
    stream), ``b`` the ``(L,)`` bias. Cost is O(entries · h) with scratch
    bounded by the gather block, independent of ``n × L``.
    """
    prof = _profile.active
    t0 = perf_counter() if prof is not None else 0.0
    total = ids.size
    logits = np.empty(total, dtype=np.float32)
    for s in range(0, total, _GATHER_BLOCK):
        e = min(s + _GATHER_BLOCK, total)
        np.einsum(
            "ej,ej->e", H[rows[s:e]], W_T[ids[s:e]], out=logits[s:e]
        )
    logits += b[ids]
    if prof is not None:
        prof.add("lsh_score", perf_counter() - t0, units=total)
    return logits


def segmented_topk(
    indptr: np.ndarray,
    ids: np.ndarray,
    logits: np.ndarray,
    L: int,
    k: int,
) -> np.ndarray:
    """Deterministic top-``k`` over CSR-segmented candidate logits.

    Matches the per-row reference exactly: rows with ≥ k candidates rank
    them with :func:`topk_indices` semantics (ties toward the lowest label
    id — candidate ids ascend within a row, so positional tie-break is the
    id tie-break); rows with < k candidates list all candidates best-first
    and pad with the lowest-id unretrieved labels.
    """
    prof = _profile.active
    t0 = perf_counter() if prof is not None else 0.0
    n = indptr.size - 1
    out = np.empty((n, k), dtype=np.int64)
    counts = np.diff(indptr)
    full = counts >= k

    if full.any():
        fcounts = counts[full]
        maxc = int(fcounts.max())
        n_full = int(full.sum())
        padded = np.full((n_full, maxc), -np.inf, dtype=np.float32)
        entry_full = np.repeat(full, counts)
        padded[
            np.repeat(np.arange(n_full, dtype=np.int64), fcounts),
            _segment_arange(fcounts),
        ] = logits[entry_full]
        # Pads sort strictly below every finite logit, so with ≥ k real
        # entries per row the member set and tie behaviour are exactly
        # those of topk_indices on the un-padded row.
        best = topk_indices(padded, k)
        starts_full = indptr[:-1][full]
        out[full] = ids[starts_full[:, None] + best]

    if not full.all():
        # Underfull rows: the reference padding loop, verbatim. Rare by
        # construction (the bench regime retrieves ≫ k candidates).
        for i in np.flatnonzero(~full):
            cand = ids[indptr[i]:indptr[i + 1]]
            lg = logits[indptr[i]:indptr[i + 1]]
            missing = np.setdiff1d(
                np.arange(min(L, k + cand.size), dtype=np.int64), cand
            )[: k - cand.size]
            order = (
                topk_indices(lg[None, :], cand.size)[0] if cand.size else []
            )
            out[i, : cand.size] = cand[order]
            out[i, cand.size:] = missing
    if prof is not None:
        prof.add("lsh_topk", perf_counter() - t0, units=n)
    return out


def lsh_topk(
    lsh,
    H: np.ndarray,
    W_T: np.ndarray,
    b: np.ndarray,
    k: int,
    *,
    n_probes: int = 1,
    workspace: Optional[Workspace] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The fused pipeline: probe → gather → score → segmented top-k.

    Returns ``(topk_ids, candidate_counts)`` — the ``(n, k)`` best-first
    label ids and the per-row candidate-set sizes (the selectivity signal
    the crossover calibration feeds on). ``k`` must already be clamped to
    ``[1, L]`` by the caller.
    """
    n = H.shape[0]
    L = lsh.n_items
    if n == 0:
        return (
            np.empty((0, k), dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    indptr, ids = probe_candidates(
        lsh, H, n_probes=n_probes, workspace=workspace
    )
    counts = np.diff(indptr)
    rows = np.repeat(np.arange(n, dtype=np.int64), counts)
    logits = score_entries(H, W_T, b, rows, ids)
    out = segmented_topk(indptr, ids, logits, L, k)
    return out, counts
