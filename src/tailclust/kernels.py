"""Hot numeric kernels of the pipeline, one vectorized numpy body each.

pairwise_abs_diff_sums feeds the madogram chi matrix, one numpy reduction
per tile of column a's partner columns b > a: its scratch is one
transposed copy of the input and one tile of at most _PAIR_TILE entries,
whatever d is. subset_gap_sum feeds the SECO criterion; pair_order sorts
the pairs of a chi matrix once, and eco_labels runs greedy ECO clustering
(cluster.eco_cluster states the rule) for one threshold as a forward-only
sweep over that order, so a threshold scan shares one sort.
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
# float64 entries of the tile of partner columns that pairwise_abs_diff_sums
# differences at once (512 KiB); a tile holds at least one partner
_PAIR_TILE = 1 << 16


def pairwise_abs_diff_sums(u, lo=0, hi=None):
    """Symmetric d x d matrix of sum_i |u[i, a] - u[i, b]|, zero diagonal.

    Only the pairs a < b with lo <= a < hi are summed, every pair by
    default; the other entries are 0. Each entry is the same reduction in
    any range, so the sums over disjoint row ranges add up to the whole
    matrix bit for bit.
    """
    k, d = u.shape
    hi = d - 1 if hi is None else hi
    out = np.zeros((d, d))
    # columns lo.. of u as contiguous rows, and one tile for a's partners
    ut = np.ascontiguousarray(u[:, lo:].T)
    rows = max(1, _PAIR_TILE // k)
    tile = np.empty((min(rows, len(ut)), k))
    for a in range(lo, hi):
        j = a - lo
        for b in range(a + 1, d, rows):
            diff = tile[:min(rows, d - b)]
            np.subtract(ut[b - lo:b - lo + len(diff)], ut[j], out=diff)
            np.abs(diff, out=diff)
            # each pair (a, b) is one contiguous length-k reduction along
            # axis 1: the summation tree depends only on k, so relabeling
            # columns permutes the result bit for bit and it equals a
            # per-pair 1-D .sum()
            s = diff.sum(axis=1)
            out[a, b:b + len(s)] = s
            out[b:b + len(s), a] = s
    return out


def subset_gap_sum(u, idx):
    """Sum over rows of max minus mean of the columns idx, clamped at 0."""
    # the gather is F-contiguous for a C- or F-ordered u (numpy 2.4), and
    # mean(axis=1) sums it in that layout: a C-ordered copy changes the
    # bits of about a quarter of the row means at |B| = 20, k = 1000
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
    """Greedy ECO cluster label of each variable; see cluster.eco_cluster.

    order is pair_order(chi). Labels 0 .. c-1 are the clusters of two or
    more variables in extraction order; the singletons follow in index
    order. Variables only ever leave the active set, so the first pair of
    order with both ends active, the argmax seed pair, moves forward only,
    and a scan over many taus shares one sort.
    """
    d = chi.shape[0]
    first, second = order
    labels = np.full(d, -1, np.int64)
    active = np.ones(d, dtype=bool)
    remaining = d
    cid = 0
    pos = 0
    while remaining > 1:
        # two active variables leave at least one live pair ahead of pos
        pos = _first_live(first, second, active, pos)
        a = int(first[pos])
        b = int(second[pos])
        if chi[a, b] <= tau:
            # every later seed has a chi no larger, so it fails too
            break
        idx = np.flatnonzero(active)
        members = idx[np.minimum(chi[a, idx], chi[b, idx]) >= tau]
        labels[members] = cid
        active[members] = False
        remaining -= members.size
        cid += 1
    labels[active] = np.arange(cid, cid + remaining)
    return labels
