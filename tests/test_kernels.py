"""Each numpy kernel against its plain-loop oracle."""

import numpy as np
import pytest

from tailclust import kernels


# ---------------------------------------------------------------------------
# plain-loop oracles: one scalar statement per step of the definition

def pairwise_loops(u):
    k, d = u.shape
    out = np.zeros((d, d))
    for a in range(d - 1):
        for b in range(a + 1, d):
            s = 0.0
            for i in range(k):
                s += abs(u[i, a] - u[i, b])
            out[a, b] = s
            out[b, a] = s
    return out


def gap_sum_loops(u, idx):
    k = u.shape[0]
    p = idx.size
    total = 0.0
    for i in range(k):
        mx = u[i, idx[0]]
        s = mx
        for j in range(1, p):
            v = u[i, idx[j]]
            s += v
            if v > mx:
                mx = v
        gap = mx - s / p
        # max >= mean holds exactly in real arithmetic; clamp fp dust
        if gap > 0.0:
            total += gap
    return total


def eco_labels_loops(chi, tau):
    d = chi.shape[0]
    labels = np.full(d, -1, np.int64)
    active = np.ones(d, np.bool_)
    remaining = d
    cid = 0
    while remaining > 0:
        if remaining == 1:
            for i in range(d):
                if active[i]:
                    labels[i] = cid
                    active[i] = False
            remaining = 0
            cid += 1
            continue
        best = -np.inf
        ba = -1
        bb = -1
        for a in range(d):
            if active[a]:
                for b in range(a + 1, d):
                    if active[b] and chi[a, b] > best:
                        best = chi[a, b]
                        ba = a
                        bb = b
        if best <= tau:
            labels[ba] = cid
            active[ba] = False
            remaining -= 1
        else:
            for s in range(d):
                if active[s] and min(chi[ba, s], chi[bb, s]) >= tau:
                    labels[s] = cid
                    active[s] = False
                    remaining -= 1
        cid += 1
    return labels


def random_chi(rng, d, quantize=False):
    vals = rng.uniform(-0.2, 1.0, size=(d, d))
    if quantize:
        vals = np.round(vals, 1)  # heavy ties to stress the tie-break
    vals = np.triu(vals, k=1)
    vals = vals + vals.T
    np.fill_diagonal(vals, 1.0)
    return vals


def test_numpy_pairwise_matches_brute_force(rng):
    u = rng.random((7, 4))
    assert np.allclose(kernels.pairwise_abs_diff_sums(u), pairwise_loops(u), atol=1e-12)


def test_numpy_gap_sum_matches_brute_force(rng):
    u = rng.random((9, 5))
    idx = np.array([0, 2, 4], dtype=np.int64)
    assert kernels.subset_gap_sum(u, idx) == pytest.approx(gap_sum_loops(u, idx), abs=1e-12)


def test_loop_bodies_match_numpy_paths(rng):
    for _ in range(20):
        k = int(rng.integers(1, 30))
        d = int(rng.integers(2, 8))
        u = rng.random((k, d))
        assert np.allclose(pairwise_loops(u), kernels.pairwise_abs_diff_sums(u), atol=1e-12)
        idx = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)).astype(np.int64)
        assert gap_sum_loops(u, idx) == pytest.approx(kernels.subset_gap_sum(u, idx), abs=1e-12)


def test_eco_label_paths_agree_exactly(rng):
    for trial in range(60):
        d = int(rng.integers(2, 41 if trial % 3 == 0 else 10))
        chi = random_chi(rng, d, quantize=trial % 2 == 0)
        if trial % 4 < 2:
            tau = float(rng.uniform(0.0, 1.0))
        else:
            # tau equal to a chi value puts the strict seed test (best <= tau)
            # and the non-strict membership test (>= tau) on their boundary
            tau = float(rng.choice(chi[np.triu_indices(d, k=1)]))
        assert np.array_equal(eco_labels_loops(chi, tau), kernels.eco_labels(chi, tau))


def test_gap_sum_never_negative_for_identical_columns():
    # max - mean of equal columns is 0 in real arithmetic; the kernel clamps
    # the floating-point dust so downstream madograms stay at exactly 0
    u = np.repeat(np.linspace(0.1, 1.0, 10).reshape(-1, 1), 3, axis=1)
    idx = np.arange(3, dtype=np.int64)
    assert kernels.subset_gap_sum(u, idx) == 0.0
    assert gap_sum_loops(u, idx) == 0.0
