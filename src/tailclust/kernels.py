"""Hot numeric kernels of the pipeline, one vectorized numpy body each.

pairwise_abs_diff_sums feeds the madogram chi matrix, subset_gap_sum the
SECO criterion, and eco_labels the greedy ECO clustering. The test suite
pins each kernel against a plain-loop oracle.
"""

from __future__ import annotations

import numpy as np

# retained for run records that name the backend; there is no compiled path
USE_NUMBA = False

__all__ = [
    "pairwise_abs_diff_sums",
    "subset_gap_sum",
    "eco_labels",
]


def pairwise_abs_diff_sums(u):
    """Symmetric d x d matrix of sum_i |u[i, a] - u[i, b]|, zero diagonal."""
    k, d = u.shape
    out = np.zeros((d, d))
    # one contiguous 1-D reduction per pair: the summation tree then depends
    # only on k, so relabeling columns permutes the result bit for bit
    for a in range(d - 1):
        for b in range(a + 1, d):
            s = float(np.abs(u[:, a] - u[:, b]).sum())
            out[a, b] = s
            out[b, a] = s
    return out


def subset_gap_sum(u, idx):
    """Sum over rows of max minus mean of the columns idx, clamped at 0."""
    sub = u[:, idx]
    gaps = sub.max(axis=1) - sub.mean(axis=1)
    # max >= mean holds exactly in real arithmetic; clamp fp dust
    np.clip(gaps, 0.0, None, out=gaps)
    return float(gaps.sum())


def eco_labels(chi, tau):
    """Greedy ECO cluster label of each variable, in extraction order."""
    d = chi.shape[0]
    labels = np.full(d, -1, np.int64)
    active = np.ones(d, dtype=bool)
    cid = 0
    while active.any():
        idx = np.flatnonzero(active)
        if idx.size == 1:
            labels[idx[0]] = cid
            active[idx[0]] = False
            cid += 1
            continue
        sub = chi[np.ix_(idx, idx)]
        rows, cols = np.triu_indices(idx.size, k=1)
        vals = sub[rows, cols]
        # argmax returns the first (row-major) hit: the lexicographically
        # smallest maximizing pair
        j = int(np.argmax(vals))
        a = int(idx[rows[j]])
        b = int(idx[cols[j]])
        if vals[j] <= tau:
            labels[a] = cid
            active[a] = False
        else:
            members = idx[np.minimum(chi[a, idx], chi[b, idx]) >= tau]
            labels[members] = cid
            active[members] = False
        cid += 1
    return labels
