"""Hot numeric kernels of the pipeline, one vectorized numpy body each.

pairwise_abs_diff_sums feeds the madogram chi matrix, one numpy reduction
per column a over all of its partner columns b > a; subset_gap_sum feeds
the SECO criterion; pair_order sorts the pairs of a chi matrix once,
and eco_labels runs greedy ECO clustering for one threshold as a
forward-only sweep over that order, so a threshold scan shares one sort.
The test suite pins each kernel against a plain-loop oracle.
"""

from __future__ import annotations

import numpy as np

# retained for run records that name the backend; there is no compiled path
USE_NUMBA = False

__all__ = [
    "pairwise_abs_diff_sums",
    "subset_gap_sum",
    "pair_order",
    "eco_labels",
]

# first window of the skip over dead pairs in eco_labels; doubles on a miss
_SKIP_WINDOW = 32


def pairwise_abs_diff_sums(u):
    """Symmetric d x d matrix of sum_i |u[i, a] - u[i, b]|, zero diagonal."""
    d = u.shape[1]
    out = np.zeros((d, d))
    # column j of u as contiguous row j, and one buffer for a's partners
    ut = np.ascontiguousarray(u.T)
    buf = np.empty_like(ut[1:])
    for a in range(d - 1):
        diff = buf[a:]
        np.subtract(ut[a + 1:], ut[a], out=diff)
        np.abs(diff, out=diff)
        # each pair (a, b) is one contiguous length-k reduction along axis 1:
        # the summation tree depends only on k, so relabeling columns
        # permutes the result bit for bit and it equals a per-pair 1-D .sum()
        s = diff.sum(axis=1)
        out[a, a + 1:] = s
        out[a + 1:, a] = s
    return out


def subset_gap_sum(u, idx):
    """Sum over rows of max minus mean of the columns idx, clamped at 0."""
    sub = u[:, idx]
    gaps = sub.max(axis=1) - sub.mean(axis=1)
    # max >= mean holds exactly in real arithmetic; clamp fp dust
    np.clip(gaps, 0.0, None, out=gaps)
    return float(gaps.sum())


def pair_order(chi):
    """Pairs a < b of a symmetric matrix by descending chi[a, b].

    Returns a read-only 2 x d(d-1)/2 int array of (a, b) columns. Ties keep
    row-major order, so among equal values the lexicographically smallest
    pair comes first (the order of lexsort((b, a, -chi))).
    """
    rows, cols = np.triu_indices(chi.shape[0], k=1)
    # a stable argsort of the row-major values breaks ties by (a, b); it
    # allocates less than lexsort on three keys
    order = np.argsort(-chi[rows, cols], kind="stable")
    pairs = np.stack((rows[order], cols[order]))
    pairs.flags.writeable = False
    return pairs


def _first_live(first, second, active, pos):
    """Index of the first pair at or after pos whose two ends are active."""
    width = _SKIP_WINDOW
    while True:
        live = active[first[pos:pos + width]] & active[second[pos:pos + width]]
        hit = np.flatnonzero(live)
        if hit.size:
            return pos + int(hit[0])
        pos += width
        width *= 2


def eco_labels(chi, tau, order):
    """Greedy ECO cluster label of each variable, in extraction order.

    order is pair_order(chi). Variables only ever leave the active set, so
    the first pair of order with both ends active, the argmax seed pair,
    moves forward only, and a scan over many taus shares one sort.
    """
    d = chi.shape[0]
    first, second = order
    labels = np.full(d, -1, np.int64)
    active = np.ones(d, dtype=bool)
    remaining = d
    cid = 0
    pos = 0
    while remaining:
        if remaining == 1:
            labels[active] = cid
            break
        # two active variables leave at least one live pair ahead of pos
        pos = _first_live(first, second, active, pos)
        a = int(first[pos])
        b = int(second[pos])
        if chi[a, b] <= tau:
            labels[a] = cid
            active[a] = False
            remaining -= 1
        else:
            idx = np.flatnonzero(active)
            members = idx[np.minimum(chi[a, idx], chi[b, idx]) >= tau]
            labels[members] = cid
            active[members] = False
            remaining -= members.size
        cid += 1
    return labels
