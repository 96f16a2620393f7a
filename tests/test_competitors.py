"""Baseline algorithms: average-linkage clustering and spherical k-means."""

import math
import warnings

import numpy as np
import pytest

from tailclust import (
    InvalidG,
    InvalidParam,
    NestedModel,
    PseudoObs,
    RepetitionConfig,
    block_maxima,
    canonicalize,
    chi_matrix,
    hc_cluster,
    madogram,
    madogram_dissimilarity,
    partitions_equal,
    pseudo_obs,
    repetition_process,
    skmeans_cluster,
)

from tailclust import kernels
from tailclust.competitors import _one_skmeans_run

from conftest import pobs_of, random_pobs

COUNTERMONOTONE = np.array(
    [[0.25, 1.0], [0.5, 0.75], [0.75, 0.5], [1.0, 0.25]]
)


def hc_cluster_loops(dissim, g):
    """Average linkage with an alive mask and a lower-triangle mask rebuilt per merge."""
    d = dissim.shape[0]
    dist = np.array(dissim, dtype=float)
    np.fill_diagonal(dist, np.inf)
    alive = np.ones(d, dtype=bool)
    sizes = np.ones(d)
    members = [[j] for j in range(d)]
    for _ in range(d - g):
        masked = np.where(np.outer(alive, alive), dist, np.inf)
        masked[np.tril_indices(d)] = np.inf
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        new = (sizes[i] * dist[i] + sizes[j] * dist[j]) / (sizes[i] + sizes[j])
        dist[i] = new
        dist[:, i] = new
        dist[i, i] = np.inf
        sizes[i] += sizes[j]
        alive[j] = False
        dist[j] = np.inf
        dist[:, j] = np.inf
        members[i].extend(members[j])
    return canonicalize((members[i] for i in np.flatnonzero(alive)), d)


def skmeans_run_loops(x, g, rng):
    """One spherical k-means restart with per-cluster masks. Also returns the
    repairs of empty clusters it made, and the clusters a repair left empty
    (their mean is NaN, with numpy's empty-slice warnings)."""
    d = x.shape[0]
    first = int(rng.integers(d))
    chosen = [first]
    nearest = x @ x[first]
    for _ in range(1, g):
        cand = int(np.argmin(nearest))
        chosen.append(cand)
        np.maximum(nearest, x @ x[cand], out=nearest)
    centers = x[chosen].copy()

    repaired = emptied = 0
    labels = np.full(d, -1, dtype=np.int64)
    for _ in range(200):
        sims = x @ centers.T
        new_labels = np.argmax(sims, axis=1)
        fit = sims[np.arange(d), new_labels]
        for cid in range(g):
            if not (new_labels == cid).any():
                repaired += 1
                worst = int(np.argmin(fit))
                new_labels[worst] = cid
                fit[worst] = np.inf
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for cid in range(g):
            emptied += not (labels == cid).any()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                mean = x[labels == cid].mean(axis=0)
            centers[cid] = mean / np.linalg.norm(mean)
    sims = x @ centers.T
    objective = float(sims[np.arange(d), labels].sum())
    return labels, objective, repaired, emptied


def sym(entries, d):
    out = np.zeros((d, d))
    for (a, b), v in entries.items():
        out[a, b] = out[b, a] = v
    return out


# ---------------------------------------------------------------------------
# madogram dissimilarity


def test_dissimilarity_comonotone_and_countermonotone(rng):
    twin = pobs_of(np.repeat(rng.random((10, 1)), 2, axis=1))
    assert madogram_dissimilarity(twin)[0, 1] == 0.0
    anti = pobs_of(COUNTERMONOTONE)
    assert madogram_dissimilarity(anti)[0, 1] == pytest.approx(0.25, abs=1e-15)


def test_dissimilarity_matches_subset_madogram(rng):
    p = random_pobs(rng, 23, 5)
    dis = madogram_dissimilarity(p)
    assert np.allclose(dis, dis.T) and not np.diagonal(dis).any()
    for a in range(5):
        for b in range(a + 1, 5):
            assert dis[a, b] == pytest.approx(madogram(p, [a, b]).value, abs=1e-12)


def test_chi_and_dissimilarity_share_one_pairwise_pass(rng, monkeypatch):
    calls = []
    pairwise = kernels.pairwise_abs_diff_sums

    def counted(u):
        calls.append(u.shape)
        return pairwise(u)

    monkeypatch.setattr(kernels, "pairwise_abs_diff_sums", counted)
    p = random_pobs(rng, 30, 6)
    chi = chi_matrix(p)
    dis = madogram_dissimilarity(p)
    assert calls == [(30, 6)]
    sums = p.abs_diff_sums
    assert sums is p.abs_diff_sums and not sums.flags.writeable
    assert np.array_equal(sums, pairwise(p.values))
    # both layers derive from the shared sums by the same expression
    nu = sums / (2.0 * p.k)
    assert np.array_equal(dis, nu)
    expected = 2.0 - (0.5 + nu) / (0.5 - nu)
    np.fill_diagonal(expected, 1.0)
    assert np.array_equal(chi.values, expected)
    # the callers get arrays of their own
    assert dis.flags.writeable and not np.shares_memory(dis, sums)
    # an equal-valued instance computes its own
    madogram_dissimilarity(PseudoObs(p.values))
    assert len(calls) == 2


def test_dissimilarity_needs_two_variables(rng):
    with pytest.raises(InvalidParam):
        madogram_dissimilarity(random_pobs(rng, 10, 1))


# ---------------------------------------------------------------------------
# hierarchical clustering


def test_hc_trivial_cuts(rng):
    dis = madogram_dissimilarity(random_pobs(rng, 20, 4))
    assert hc_cluster(dis, 4).groups == ((0,), (1,), (2,), (3,))
    assert hc_cluster(dis, 1).groups == ((0, 1, 2, 3),)


def test_hc_two_blocks():
    dis = np.full((4, 4), 0.4)
    dis[0, 1] = dis[1, 0] = 0.1
    dis[2, 3] = dis[3, 2] = 0.1
    np.fill_diagonal(dis, 0.0)
    assert hc_cluster(dis, 2).groups == ((0, 1), (2, 3))


def test_hc_linkage_is_average_not_single():
    # after merging (0,1): average dist to 2 is (0.2+0.6)/2 = 0.4 > d(2,3) =
    # 0.35, so average linkage pairs (2,3); single linkage would pick 0.2
    dis = sym({(0, 1): 0.1, (0, 2): 0.2, (1, 2): 0.6, (2, 3): 0.35, (0, 3): 0.9, (1, 3): 0.9}, 4)
    assert hc_cluster(dis, 2).groups == ((0, 1), (2, 3))


def test_hc_linkage_is_average_not_complete():
    # average dist from {0,1} to 2 is 0.35 < 0.37 = d(2,3); complete linkage
    # would see 0.4 and merge (2,3) instead
    dis = sym({(0, 1): 0.1, (0, 2): 0.3, (1, 2): 0.4, (2, 3): 0.37, (0, 3): 0.9, (1, 3): 0.9}, 4)
    assert hc_cluster(dis, 2).groups == ((0, 1, 2), (3,))


def test_hc_average_is_unweighted():
    # {0,1,2} forms first; the unweighted average to 3 is
    # (0.8+0.8+0.2)/3 = 0.6 > d(3,4) = 0.55, so (3,4) merge; the weighted
    # variant would see ((0.8+0.8)/2 + 0.2)/2 = 0.5 and absorb 3 instead
    dis = sym(
        {
            (0, 1): 0.05,
            (0, 2): 0.1,
            (1, 2): 0.1,
            (0, 3): 0.8,
            (1, 3): 0.8,
            (2, 3): 0.2,
            (0, 4): 0.9,
            (1, 4): 0.9,
            (2, 4): 0.9,
            (3, 4): 0.55,
        },
        5,
    )
    assert hc_cluster(dis, 2).groups == ((0, 1, 2), (3, 4))


def test_hc_merge_tie_breaks_lexicographically():
    dis = np.full((4, 4), 0.5)
    dis[0, 1] = dis[1, 0] = 0.1
    dis[2, 3] = dis[3, 2] = 0.1
    np.fill_diagonal(dis, 0.0)
    assert hc_cluster(dis, 3).groups == ((0, 1), (2,), (3,))
    # symmetric within tolerance, but the lower entry (2, 0) is smaller: the
    # distances are read from the upper triangle, where (0, 1) ties (0, 2)
    dis = np.full((3, 3), 0.5)
    np.fill_diagonal(dis, 0.0)
    dis[2, 0] -= 1e-12
    assert hc_cluster(dis, 2).groups == ((0, 1), (2,)) == hc_cluster_loops(dis, 2).groups


def test_hc_group_count_and_determinism(rng):
    for _ in range(30):
        d = int(rng.integers(2, 9))
        dis = madogram_dissimilarity(random_pobs(rng, 15, d))
        g = int(rng.integers(1, d + 1))
        part = hc_cluster(dis, g)
        assert part.n_groups == g
        assert partitions_equal(part, hc_cluster(dis, g))


def test_hc_permutation_equivariance(rng):
    d = 6
    dis = madogram_dissimilarity(random_pobs(rng, 40, d))
    perm = rng.permutation(d)
    base = hc_cluster(dis, 3)
    permuted = hc_cluster(dis[np.ix_(perm, perm)], 3)
    inverse = np.empty(d, dtype=int)
    inverse[perm] = np.arange(d)
    relabeled = canonicalize([[int(inverse[i]) for i in g] for g in base.groups], d)
    assert partitions_equal(permuted, relabeled)


def test_hc_matches_masked_argmin_loop_at_every_g(rng):
    # rounded dissimilarities tie often, which exercises the tie-break
    for trial in range(40):
        d = int(rng.integers(2, 26))
        dis = madogram_dissimilarity(random_pobs(rng, int(rng.integers(5, 40)), d))
        dis = np.round(dis, 1 if trial % 2 else 2)
        for g in range(1, d + 1):
            assert hc_cluster(dis, g).groups == hc_cluster_loops(dis, g).groups
    # all dissimilarities equal: every merge is a tie
    flat = np.full((7, 7), 0.25)
    np.fill_diagonal(flat, 0.0)
    for g in range(1, 8):
        assert hc_cluster(flat, g).groups == hc_cluster_loops(flat, g).groups


def test_hc_validation(rng):
    dis = madogram_dissimilarity(random_pobs(rng, 10, 3))
    with pytest.raises(InvalidG):
        hc_cluster(dis, 0)
    with pytest.raises(InvalidG):
        hc_cluster(dis, 4)
    with pytest.raises(InvalidParam):
        hc_cluster(np.ones((2, 3)), 1)
    bad = dis.copy()
    bad[0, 1] += 0.2
    with pytest.raises(InvalidParam):
        hc_cluster(bad, 2)
    with pytest.raises(InvalidParam):
        hc_cluster(dis + np.eye(3), 2)
    with pytest.raises(InvalidParam):
        hc_cluster(dis - 0.5, 2)
    # non-finite entries fail before the symmetry check
    far = np.full((3, 3), np.inf)
    np.fill_diagonal(far, 0.0)
    with pytest.raises(InvalidParam, match="finite"):
        hc_cluster(far, 1)
    bad = dis.copy()
    bad[0, 2] = np.nan
    with pytest.raises(InvalidParam, match="finite"):
        hc_cluster(bad, 2)


# ---------------------------------------------------------------------------
# spherical k-means


def test_skmeans_duplicated_columns_co_cluster(rng):
    raw = rng.random((30, 2))
    p = pobs_of(np.hstack([raw, raw[:, :1]]))  # columns 0 and 2 identical
    part = skmeans_cluster(p, 2, 5, np.random.default_rng(1))
    labels = part.to_labels()
    assert labels[0] == labels[2]


def test_skmeans_trivial_g(rng):
    p = random_pobs(rng, 25, 4)
    assert skmeans_cluster(p, 1, 3, np.random.default_rng(2)).groups == ((0, 1, 2, 3),)


def test_skmeans_recovers_separated_blocks():
    model = NestedModel(theta=1.0, beta0=1.0, group_betas=(10 / 7, 10 / 7), group_sizes=(4, 4))
    series = repetition_process(
        RepetitionConfig(p=1.0, n=10_000, model=model), np.random.default_rng(33)
    )
    p = pseudo_obs(block_maxima(series, 20))
    part = skmeans_cluster(p, 2, 10, np.random.default_rng(34))
    assert part.groups == ((0, 1, 2, 3), (4, 5, 6, 7))


def test_skmeans_deterministic_given_generator_state(rng):
    p = random_pobs(rng, 40, 6)
    a = skmeans_cluster(p, 3, 4, np.random.default_rng(55))
    b = skmeans_cluster(p, 3, 4, np.random.default_rng(55))
    assert partitions_equal(a, b)


def test_skmeans_validation(rng):
    p = random_pobs(rng, 10, 3)
    with pytest.raises(InvalidG):
        skmeans_cluster(p, 0, 3, np.random.default_rng(0))
    with pytest.raises(InvalidG):
        skmeans_cluster(p, 4, 3, np.random.default_rng(0))
    with pytest.raises(InvalidParam):
        skmeans_cluster(p, 2, 0, np.random.default_rng(0))


def test_skmeans_run_matches_per_cluster_loop(rng):
    cases = []
    for _ in range(30):
        cases.append(random_pobs(rng, int(rng.integers(5, 40)), int(rng.integers(2, 12))))
    for _ in range(60):
        # duplicated columns make whole clusters coincide, so the repair of
        # empty clusters runs, and a steal can empty a cluster it has passed
        k = int(rng.integers(2, 8))
        base = rng.integers(1, k + 1, size=(k, int(rng.integers(1, 5)))) / k
        cols = rng.integers(0, base.shape[1], size=int(rng.integers(2, 10)))
        cases.append(PseudoObs(base[:, cols]))
    repaired = emptied = 0
    for ci, p in enumerate(cases):
        x = p.values.T.copy()
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        for g in sorted({1, 2, p.d // 2 or 1, p.d}):
            seed = 1000 * ci + g
            ours_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            labels, obj = _one_skmeans_run(x, g, ours_rng)
            ref_labels, ref_obj, ref_repaired, ref_emptied = skmeans_run_loops(x, g, ref_rng)
            assert np.array_equal(labels, ref_labels)
            assert obj == ref_obj or (math.isnan(obj) and math.isnan(ref_obj))
            assert ours_rng.bit_generator.state == ref_rng.bit_generator.state
            repaired += ref_repaired
            emptied += ref_emptied
    assert repaired > 0 and emptied > 0
