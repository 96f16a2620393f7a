"""Baseline clustering algorithms for the experiment comparisons.

Both baselines need the number of clusters g as an oracle input; the greedy
threshold algorithm in cluster.py does not.
"""

from __future__ import annotations

import numpy as np

from .core import InvalidG, InvalidParam, Partition, PseudoObs, _from_labels

__all__ = ["madogram_dissimilarity", "hc_cluster", "skmeans_cluster"]


def madogram_dissimilarity(pobs: PseudoObs) -> np.ndarray:
    """Pairwise madogram (1/(2k)) sum_i |U[i,a] - U[i,b]|, zero diagonal.

    Identical to the bivariate subset madogram, via max - mean = |x - y|/2.
    """
    if pobs.d < 2:
        raise InvalidParam("need at least two variables")
    return pobs.abs_diff_sums / (2.0 * pobs.k)


def hc_cluster(dissim: np.ndarray, g: int) -> Partition:
    """Average-linkage agglomerative clustering cut at exactly g clusters.

    Merge ties are broken toward the lexicographically smallest pair of
    clusters, clusters being identified by their smallest member. The
    unweighted average update keeps cluster distances equal to the mean of
    all cross pairs. The distances are read from the upper triangle of
    dissim, which must be finite, symmetric and zero on the diagonal.
    """
    dissim = np.asarray(dissim, dtype=float)
    if dissim.ndim != 2 or dissim.shape[0] != dissim.shape[1]:
        raise InvalidParam("dissimilarity matrix must be square")
    d = dissim.shape[0]
    if not 1 <= g <= d:
        raise InvalidG(f"g = {g} outside 1..{d}")
    if not np.isfinite(dissim).all():
        raise InvalidParam("dissimilarities must be finite")
    if not np.allclose(dissim, dissim.T):
        raise InvalidParam("dissimilarity matrix must be symmetric")
    if np.diagonal(dissim).any():
        raise InvalidParam("dissimilarity diagonal must be zero")
    if dissim.min() < 0.0:
        raise InvalidParam("dissimilarities must be nonnegative")

    # exactly symmetric, so the first row-major minimum (i, j) has i < j and
    # is the lexicographically smallest minimal pair; merged clusters' rows
    # and columns hold inf, so no alive mask is needed
    dist = np.triu(dissim)
    dist += dist.T
    np.fill_diagonal(dist, np.inf)
    sizes = np.ones(d)
    labels = np.arange(d)
    # positions stay sorted by smallest member: a merge keeps the smaller
    # position, so the row-major argmin is the lexicographic tie-break
    for _ in range(d - g):
        i, j = divmod(int(np.argmin(dist)), d)
        new = (sizes[i] * dist[i] + sizes[j] * dist[j]) / (sizes[i] + sizes[j])
        dist[i] = new
        dist[:, i] = new
        dist[i, i] = np.inf
        sizes[i] += sizes[j]
        dist[j] = np.inf
        dist[:, j] = np.inf
        labels[labels == j] = i
    return _from_labels(labels)


def skmeans_cluster(
    pobs: PseudoObs, g: int, restarts: int, rng: np.random.Generator
) -> Partition:
    """Spherical k-means over variables: each variable is its unit-normalized
    k-vector of pseudo-observations, assignment maximizes cosine similarity.

    Each restart seeds greedily (farthest point: first center uniform at
    random, then repeatedly the variable least similar to its nearest chosen
    center) and iterates assign/update to a fixed point. The best total
    cosine objective across restarts wins; ties keep the earliest restart.

    Per iteration, the member counts are one bincount, the repair of empty
    clusters runs only when a count is zero, and one stable argsort of the
    labels lays each cluster's rows out as one contiguous slice to average.
    A cluster that a repair empties after its own turn keeps no rows; its
    centre is NaN, as the mean of no rows is, and its restart's NaN
    objective never wins.
    """
    d = pobs.d
    if not 1 <= g <= d:
        raise InvalidG(f"g = {g} outside 1..{d}")
    if restarts < 1:
        raise InvalidParam("restarts must be positive")
    x = pobs.values.T.copy()
    x /= np.linalg.norm(x, axis=1, keepdims=True)  # rows are positive, norm > 0

    best_obj = -np.inf
    best_labels: np.ndarray | None = None
    for _ in range(restarts):
        labels, obj = _one_skmeans_run(x, g, rng)
        if obj > best_obj:
            best_obj = obj
            best_labels = labels
    assert best_labels is not None
    return _from_labels(best_labels)


def _one_skmeans_run(x: np.ndarray, g: int, rng: np.random.Generator):
    d = x.shape[0]
    first = int(rng.integers(d))
    chosen = [first]
    nearest = x @ x[first]
    for _ in range(1, g):
        cand = int(np.argmin(nearest))
        chosen.append(cand)
        np.maximum(nearest, x @ x[cand], out=nearest)
    centers = x[chosen].copy()

    labels = np.full(d, -1, dtype=np.int64)
    for _ in range(200):
        sims = x @ centers.T
        new_labels = np.argmax(sims, axis=1)
        fit = sims[np.arange(d), new_labels]
        counts = np.bincount(new_labels, minlength=g)
        if not counts.all():
            for cid in range(g):
                # counts follow the moves, so a cluster a steal empties is
                # refilled when its turn comes, and one already passed is not
                if counts[cid] == 0:
                    worst = int(np.argmin(fit))
                    counts[new_labels[worst]] -= 1
                    counts[cid] += 1
                    new_labels[worst] = cid
                    fit[worst] = np.inf  # cannot be stolen by another empty cluster
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # each cluster's rows, contiguous and in index order: a slice is the
        # same C-ordered block as x[labels == cid], so its mean has the same bits
        grouped = x[np.argsort(labels, kind="stable")]
        ends = np.cumsum(counts)
        for cid in range(g):
            if counts[cid] == 0:
                centers[cid] = np.nan  # the mean of no rows
                continue
            mean = grouped[ends[cid] - counts[cid]:ends[cid]].mean(axis=0)
            centers[cid] = mean / np.linalg.norm(mean)
    sims = x @ centers.T
    objective = float(sims[np.arange(d), labels].sum())
    return labels, objective
