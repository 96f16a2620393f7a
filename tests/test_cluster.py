"""Greedy extremal-correlation clustering and SECO threshold selection."""

import numpy as np
import pytest

from tailclust import (
    ChiMatrix,
    DimensionMismatch,
    EmptyGrid,
    InvalidParam,
    ThresholdScan,
    canonicalize,
    chi_matrix,
    default_grid,
    eco_cluster,
    partitions_equal,
    scan_to_csv,
    seco,
    select_threshold,
    tau_theory,
)
from tailclust import kernels

from conftest import pobs_of, random_pobs


def chi_of(vals, k=100):
    vals = np.asarray(vals, dtype=float)
    np.fill_diagonal(vals, 1.0)
    return ChiMatrix(np.maximum(vals, vals.T), k=k)


def two_block_chi():
    """Documented hand-trace matrix: chi(0,1)=0.8, chi(2,3)=0.6, cross 0.05."""
    vals = np.full((4, 4), 0.05)
    vals[0, 1] = 0.8
    vals[2, 3] = 0.6
    return chi_of(vals)


# ---------------------------------------------------------------------------
# eco_cluster


def test_hand_trace_low_threshold():
    # step 1: argmax pair (0,1) at 0.8 > 0.2 absorbs nothing else (cross 0.05)
    # step 2: pair (2,3) at 0.6 > 0.2 -> {2,3}
    part = eco_cluster(two_block_chi(), 0.2)
    assert part.groups == ((0, 1), (2, 3))


def test_hand_trace_high_threshold():
    # (0,1) still clears 0.7; 0.6 <= 0.7 fails the seed test, so 2 leaves
    # alone and 3 survives as the last variable
    part = eco_cluster(two_block_chi(), 0.7)
    assert part.groups == ((0, 1), (2,), (3,))


def test_all_below_threshold_gives_singletons():
    vals = np.full((5, 5), 0.1)
    part = eco_cluster(chi_of(vals), 0.3)
    assert part.groups == tuple((j,) for j in range(5))


def test_all_above_threshold_gives_one_cluster():
    vals = np.full((5, 5), 0.9)
    part = eco_cluster(chi_of(vals), 0.3)
    assert part.groups == (tuple(range(5)),)


def test_seed_test_is_strict_and_membership_is_not():
    # seed pair sits exactly at tau -> seed fails, emits only the smaller index
    vals = np.zeros((2, 2))
    vals[0, 1] = 0.5
    part = eco_cluster(chi_of(vals), 0.5)
    assert part.groups == ((0,), (1,))

    # membership exactly at tau joins: min(chi(0,2), chi(1,2)) == tau
    vals = np.zeros((3, 3))
    vals[0, 1] = 0.8
    vals[0, 2] = 0.5
    vals[1, 2] = 0.5
    part = eco_cluster(chi_of(vals), 0.5)
    assert part.groups == ((0, 1, 2),)


def test_failed_seed_returns_partner_to_pool():
    # all correlations equal and below tau: each step emits one singleton
    vals = np.full((3, 3), 0.3)
    part = eco_cluster(chi_of(vals), 0.5)
    assert part.groups == ((0,), (1,), (2,))


def test_argmax_tie_breaks_to_lexicographic_pair():
    # (0,3) and (1,2) tie at 0.8; the smaller pair (0,3) must seed first and
    # absorb nothing, leaving (1,2) to form the second group
    vals = np.full((4, 4), 0.05)
    vals[0, 3] = 0.8
    vals[1, 2] = 0.8
    part = eco_cluster(chi_of(vals), 0.5)
    assert part.groups == ((0, 3), (1, 2))


def test_tau_validation():
    chi = two_block_chi()
    with pytest.raises(InvalidParam):
        eco_cluster(chi, -0.1)
    with pytest.raises(InvalidParam):
        eco_cluster(chi, float("nan"))
    # one block: every chi is exactly 1, so any tau would merge everything
    with pytest.raises(InvalidParam):
        eco_cluster(chi_of(np.ones((3, 3)), k=1), 0.5)


def test_output_is_always_a_valid_partition(rng):
    # the Partition constructor enforces validity; survival = success
    for _ in range(200):
        d = int(rng.integers(2, 9))
        raw = rng.uniform(-0.5, 1.0, size=(d, d))
        chi = chi_of(raw, k=50)
        tau = float(rng.uniform(0.0, 1.0))
        part = eco_cluster(chi, tau)
        assert part.d == d


def test_relabeling_equivariance_tie_free(rng):
    for _ in range(50):
        d = 6
        # distinct off-diagonal values make every argmax unique
        n_off = d * (d - 1) // 2
        vals = np.zeros((d, d))
        tri = rng.permutation(n_off) / n_off + rng.uniform(0, 1 / (3 * n_off))
        vals[np.triu_indices(d, k=1)] = tri
        chi = chi_of(vals)
        perm = rng.permutation(d)
        permuted = chi_of(chi.values[np.ix_(perm, perm)])
        tau = float(rng.uniform(0.1, 0.9))
        base = eco_cluster(chi, tau)
        relabeled = canonicalize([[int(np.flatnonzero(perm == i)[0]) for i in g] for g in base.groups], d)
        assert partitions_equal(eco_cluster(permuted, tau), relabeled)


# ---------------------------------------------------------------------------
# select_threshold


def test_select_threshold_matches_direct_scan(rng):
    grid = [0.05, 0.15, 0.3, 0.5, 0.8]
    # d = 30 sums up to 30 group coefficients, where another summation
    # order would show in the last bits
    for k, d in [(60, 5)] + [(200, 30)] * 4:
        p = random_pobs(rng, k, d)
        chi = chi_matrix(p)
        scan = select_threshold(p, chi, grid)
        secos = [seco(p, eco_cluster(chi, t)) for t in grid]
        # the memoised group coefficients sum in the same order as seco
        assert scan.secos == tuple(secos)
        best = min(secos)
        assert scan.selected == max(t for t, s in zip(grid, secos) if s <= best)
        assert scan.n_clusters == tuple(eco_cluster(chi, t).n_groups for t in grid)


def test_select_threshold_single_point_grid(rng):
    p = random_pobs(rng, 30, 3)
    assert select_threshold(p, chi_matrix(p), [0.4]).selected == 0.4


def test_select_threshold_prefers_largest_minimizer(rng):
    # a comonotone pair keeps the partition and its seco constant across the
    # whole grid, so the tie must resolve to the last grid point
    twin = np.repeat(rng.random((40, 1)), 2, axis=1)
    p = pobs_of(twin)
    scan = select_threshold(p, chi_matrix(p), [0.1, 0.5, 0.9])
    assert scan.selected == 0.9


def test_select_threshold_abs_tol_widens_the_tie(rng):
    p = random_pobs(rng, 50, 4)
    grid = [0.1, 0.3, 0.6, 0.9]
    loose = select_threshold(p, chi_matrix(p), grid, abs_tol=1e9)
    assert loose.selected == 0.9


def test_select_threshold_validation(rng):
    p = random_pobs(rng, 20, 3)
    chi = chi_matrix(p)
    with pytest.raises(EmptyGrid):
        select_threshold(p, chi, [])
    with pytest.raises(InvalidParam):
        select_threshold(p, chi, [0.3, 0.2])
    with pytest.raises(InvalidParam):
        select_threshold(p, chi, [-0.1, 0.2])
    with pytest.raises(InvalidParam):
        select_threshold(p, chi, [0.1, 0.2], abs_tol=-1.0)
    # a chi matrix of other data is refused, not scanned
    with pytest.raises(DimensionMismatch):
        select_threshold(p, chi_matrix(random_pobs(rng, 20, 4)), [0.1, 0.2])
    with pytest.raises(DimensionMismatch):
        select_threshold(p, chi_matrix(random_pobs(rng, 21, 3)), [0.1, 0.2])


def test_select_threshold_never_recomputes_chi(rng, monkeypatch):
    p = random_pobs(rng, 60, 5)
    chi = chi_matrix(p)
    calls = []
    pairwise = kernels.pairwise_abs_diff_sums

    def counted(u):
        calls.append(u.shape)
        return pairwise(u)

    monkeypatch.setattr(kernels, "pairwise_abs_diff_sums", counted)
    scan = select_threshold(p, chi, [0.05, 0.15, 0.3, 0.5, 0.8])
    assert calls == []
    chi_matrix(p)  # the counter does see a chi computation
    assert calls == [(60, 5)]
    assert len(scan.secos) == 5


def test_threshold_scan_validation():
    with pytest.raises(EmptyGrid):
        ThresholdScan((), (), (), 0.0)
    with pytest.raises(InvalidParam):
        ThresholdScan((0.1, 0.2), (0.0,), (1, 2), 0.1)
    with pytest.raises(InvalidParam):
        ThresholdScan((0.2, 0.1), (0.0, 0.0), (1, 2), 0.1)
    with pytest.raises(InvalidParam):
        ThresholdScan((0.1, 0.2), (0.0, 0.0), (1, 2), 0.15)


# ---------------------------------------------------------------------------
# default_grid and CSV export


def test_default_grid_shape_and_span():
    grid = default_grid(20, 200, 500)
    tau0 = tau_theory(20, 200, 500)
    assert len(grid) == 41
    assert grid[0] == pytest.approx(0.1 * tau0, abs=1e-15)
    assert grid[-1] == pytest.approx(2.5 * tau0, abs=1e-15)
    assert grid[0] == pytest.approx(0.030587991386335944, abs=1e-15)
    assert grid[-1] == pytest.approx(0.7646997846583986, abs=1e-15)
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_scan_to_csv_flags_selected_row(rng):
    p = random_pobs(rng, 40, 4)
    scan = select_threshold(p, chi_matrix(p), [0.1, 0.3, 0.5])
    text = scan_to_csv(scan)
    lines = text.strip().split("\n")
    assert lines[0] == "tau,seco,n_clusters,selected"
    assert len(lines) == 4
    flagged = [row for row in lines[1:] if row.endswith(",1")]
    assert len(flagged) == 1
    assert float(flagged[0].split(",")[0]) == scan.selected
