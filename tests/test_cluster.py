"""Greedy extremal-correlation clustering and SECO threshold selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailclust import (
    ChiMatrix,
    DimensionMismatch,
    EmptyGrid,
    InvalidParam,
    MaximaMatrix,
    PseudoObs,
    ThresholdScan,
    canonicalize,
    chi_matrix,
    default_grid,
    eco_cluster,
    partitions_equal,
    pseudo_obs,
    scan_to_csv,
    seco,
    select_threshold,
    tau_theory,
)
from tailclust import kernels
from tailclust.simulate import RepetitionConfig, build_experiment_model, repetition_block_maxima

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
    # every seed test chi <= inf would pass, leaving every variable alone
    with pytest.raises(InvalidParam, match="^tau must be a nonnegative real$"):
        eco_cluster(chi, float("inf"))
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


def _tied_chi_and_permuted():
    """chi of a seeded E2 input with exact ties, chi of its columns permuted, and the permutation."""
    rng = np.random.default_rng(85)
    d, k = int(rng.integers(8, 40)), int(rng.integers(30, 301))
    model, _ = build_experiment_model("E2", d, 10 / 7, rng)
    maxima = repetition_block_maxima(RepetitionConfig(p=0.9, n=10 * k, model=model), 10, rng)
    perm = rng.permutation(d)
    permuted = MaximaMatrix(maxima.values[:, perm], maxima.block_length, maxima.source_length)
    return chi_matrix(pseudo_obs(maxima)), chi_matrix(pseudo_obs(permuted)), perm


def test_chi_permutes_bit_for_bit_with_its_columns():
    chi, permuted, perm = _tied_chi_and_permuted()
    assert (chi.d, chi.k) == (30, 42)
    assert permuted.values.tobytes() == chi.values[np.ix_(perm, perm)].tobytes()
    # few distinct values at small k: ties that ECO's seed pair must break
    assert np.unique(chi.values[np.triu_indices(chi.d, 1)]).size == 186


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: ECO breaks exact chi ties by column label")
def test_eco_partitions_do_not_depend_on_column_order_under_chi_ties():
    chi, permuted, perm = _tied_chi_and_permuted()
    differ = []
    for i, tau in enumerate(default_grid(10, chi.d, chi.k)):
        groups = eco_cluster(permuted, tau).groups
        if canonicalize([[int(perm[j]) for j in g] for g in groups], chi.d) != eco_cluster(chi, tau):
            differ.append(i)
    assert differ == []


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 25),
    rounded=st.booleans(),
    tau_from_chi=st.booleans(),
)
def test_every_group_has_a_seed_pair(seed, d, rounded, tau_from_chi):
    # each non-singleton group holds a pair (a, b) with chi(a, b) > tau and
    # min(chi(a, s), chi(b, s)) >= tau for every member s
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-0.2, 1.0, size=(d, d))
    if rounded:
        raw = np.round(raw, 1)  # heavy ties
    chi = chi_of(raw)
    vals = chi.values
    off = vals[np.triu_indices(d, k=1)]
    off = off[off >= 0.0]
    if tau_from_chi and off.size:
        # a tau equal to a chi value sits on the boundary of both tests
        tau = float(rng.choice(off))
    else:
        tau = float(rng.uniform(0.0, 1.0))
    for g in eco_cluster(chi, tau).groups:
        if len(g) == 1:
            continue
        sub = vals[np.ix_(g, g)]
        assert any(
            sub[i, j] > tau and np.minimum(sub[i], sub[j]).min() >= tau
            for i in range(len(g))
            for j in range(i + 1, len(g))
        )


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


def test_select_threshold_validation(rng):
    p = random_pobs(rng, 20, 3)
    chi = chi_matrix(p)
    with pytest.raises(EmptyGrid, match="empty threshold grid"):
        select_threshold(p, chi, [])
    with pytest.raises(InvalidParam, match="grid must be strictly ascending"):
        select_threshold(p, chi, [0.3, 0.2])
    with pytest.raises(InvalidParam, match="grid values must be nonnegative"):
        select_threshold(p, chi, [-0.1, 0.2])
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
    # the counter does see a chi computation; p itself already holds its
    # pairwise sums, so a fresh instance is needed
    chi_matrix(PseudoObs(p.values))
    assert calls == [(60, 5)]
    assert len(scan.secos) == 5


def test_threshold_scan_validation():
    with pytest.raises(EmptyGrid, match="empty threshold grid"):
        ThresholdScan((), (), (), 0.0)
    with pytest.raises(InvalidParam, match="grid, secos and n_clusters must align"):
        ThresholdScan((0.1, 0.2), (0.0,), (1, 2), 0.1)
    with pytest.raises(InvalidParam, match="grid must be strictly ascending"):
        ThresholdScan((0.2, 0.1), (0.0, 0.0), (1, 2), 0.1)
    with pytest.raises(InvalidParam, match="selected tau must be a grid point"):
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
