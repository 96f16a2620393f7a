"""Each numpy kernel against its plain-loop oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailclust import ChiMatrix, kernels

from conftest import scratch_peak


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


def pairwise_pair_sums(u):
    # one contiguous 1-D .sum() per pair: numpy's pairwise summation tree for
    # length k, the order the kernel promises to reproduce bit for bit
    k, d = u.shape
    out = np.zeros((d, d))
    for a in range(d - 1):
        for b in range(a + 1, d):
            s = float(np.abs(u[:, a] - u[:, b]).sum())
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


def assert_matches_oracle(labels, oracle):
    # the partition is the contract: the c clusters of two or more variables
    # keep the oracle's labels 0 .. c-1, and the singletons follow in index
    # order (the oracle numbers them in the order its failed seeds met them)
    c = int(np.count_nonzero(np.bincount(oracle) >= 2))
    head = oracle < c
    assert np.array_equal(labels[head], oracle[head])
    assert np.array_equal(labels[~head], np.arange(c, c + np.count_nonzero(~head)))


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
        labels = kernels.eco_labels(chi, tau, kernels.pair_order(chi))
        assert_matches_oracle(labels, eco_labels_loops(chi, tau))


@pytest.mark.parametrize(
    "k, d", [(2, 9), (129, 9), (997, 70), (3333, 40), (5, 1), (1, 3), (40000, 3)]
)
def test_pairwise_matches_per_pair_sums_bit_for_bit(rng, k, d):
    # short and long reductions (k = 1 to 40000; numpy's pairwise summation
    # splits blocks of more than 128 terms), wide inputs, and d = 1 with no pairs
    u = rng.random((k, d))
    assert np.array_equal(kernels.pairwise_abs_diff_sums(u), pairwise_pair_sums(u))
    # a column-major input (a transposed view) gives the same bits
    assert np.array_equal(kernels.pairwise_abs_diff_sums(np.asfortranarray(u)), pairwise_pair_sums(u))


@pytest.mark.parametrize("k, d", [(129, 9), (997, 70), (5, 1), (1, 3)])
def test_pairwise_row_ranges_add_up_to_the_whole_matrix_bit_for_bit(rng, k, d):
    u = rng.random((k, d))
    whole = kernels.pairwise_abs_diff_sums(u)
    rows, cols = np.indices((d, d))
    for c in range(d):
        first = kernels.pairwise_abs_diff_sums(u, 0, c)
        rest = kernels.pairwise_abs_diff_sums(u, c, d - 1)
        # each range holds exactly its pairs and their mirror, and zero elsewhere
        assert np.array_equal(first != 0, (np.minimum(rows, cols) < c) & (rows != cols))
        assert np.array_equal(first + rest, whole), c
    assert np.array_equal(kernels.pairwise_abs_diff_sums(u, 0, d - 1), whole)


@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 50),
    perm=st.integers(2, 12).flatmap(lambda d: st.permutations(range(d))),
    q=st.floats(0.0, 1.0),
)
def test_column_permutation_permutes_chi_and_relabels_eco(seed, k, perm, q):
    perm = np.array(perm)
    d = perm.size
    u = np.random.default_rng(seed).random((k, d))
    sums = kernels.pairwise_abs_diff_sums(u)
    permuted = kernels.pairwise_abs_diff_sums(u[:, perm])
    assert np.array_equal(permuted, sums[np.ix_(perm, perm)])

    # a similarity in chi's role; ties would let the lexicographic
    # tie-break depend on the labels, so the property assumes none
    chi = 1.0 - sums / k
    np.fill_diagonal(chi, 1.0)
    off = chi[np.triu_indices(d, k=1)]
    assume(np.unique(off).size == off.size)
    tau = float(np.quantile(off, q))
    chi_p = chi[np.ix_(perm, perm)]
    base = kernels.eco_labels(chi, tau, kernels.pair_order(chi))
    relabeled = kernels.eco_labels(chi_p, tau, kernels.pair_order(chi_p))

    def groups(labels, names):
        return {frozenset(int(names[i]) for i in np.flatnonzero(labels == c)) for c in set(labels)}

    assert groups(relabeled, perm) == groups(base, np.arange(d))


def tau_grid(rng, off):
    # every off-diagonal value is a boundary case for the seed and the
    # membership tests; above the largest value all are singletons
    grid = np.unique(np.concatenate([off, rng.uniform(0.0, 1.0, 5), [off.max() + 0.1]]))
    return [float(tau) for tau in grid[grid >= 0.0]]


def test_eco_labels_shared_order_matches_loops_on_a_grid(rng):
    for trial in range(12):
        d = int(rng.integers(2, 30))
        vals = random_chi(rng, d, quantize=trial % 2 == 0)
        chi = ChiMatrix(vals, k=100)
        order = chi.pair_order
        rows, cols = np.triu_indices(d, k=1)
        off = vals[rows, cols]
        expected = np.lexsort((cols, rows, -off))
        assert np.array_equal(order, np.stack((rows[expected], cols[expected])))
        assert chi.pair_order is order and not order.flags.writeable
        for tau in tau_grid(rng, off):
            labels = kernels.eco_labels(vals, tau, order)
            assert_matches_oracle(labels, eco_labels_loops(vals, tau))
        assert np.array_equal(labels, np.arange(d))


def test_eco_labels_stops_at_the_first_failed_seed(rng, monkeypatch):
    calls = []
    first_live = kernels._first_live

    def counted(*args):
        calls.append(args)
        return first_live(*args)

    monkeypatch.setattr(kernels, "_first_live", counted)
    for d in (3, 4, 17):
        vals = random_chi(rng, d)
        off = vals[np.triu_indices(d, k=1)]
        # the first seed fails, so one search decides all d singletons
        calls.clear()
        labels = kernels.eco_labels(vals, float(off.max()) + 0.05, kernels.pair_order(vals))
        assert np.array_equal(labels, np.arange(d)) and len(calls) == 1
    for trial in range(12):
        d = int(rng.integers(2, 30))
        vals = random_chi(rng, d, quantize=trial % 2 == 0)
        order = kernels.pair_order(vals)
        for tau in tau_grid(rng, vals[np.triu_indices(d, k=1)]):
            calls.clear()
            labels = kernels.eco_labels(vals, tau, order)
            # one search per cluster of two or more, and at most one failed seed
            c = int(np.count_nonzero(np.bincount(labels) >= 2))
            assert len(calls) <= c + 1


def test_gap_sum_never_negative_for_identical_columns():
    # max - mean of equal columns is 0 in real arithmetic; the kernel clamps
    # the floating-point dust so downstream madograms stay at exactly 0
    u = np.repeat(np.linspace(0.1, 1.0, 10).reshape(-1, 1), 3, axis=1)
    idx = np.arange(3, dtype=np.int64)
    assert kernels.subset_gap_sum(u, idx) == 0.0
    assert gap_sum_loops(u, idx) == 0.0


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 10, 11])
def test_pairwise_in_tiles_matches_per_pair_sums_at_every_row_range(rows, rng, monkeypatch):
    # tiles of one partner, tiles that do and do not divide the partner
    # counts, and one tile for all; every range start c lands on or off a
    # tile edge
    k, d = 37, 11
    monkeypatch.setattr(kernels, "_SCRATCH", rows * k)
    u = rng.random((k, d))
    whole = pairwise_pair_sums(u)
    assert np.array_equal(kernels.pairwise_abs_diff_sums(u), whole)
    for c in range(d):
        first = kernels.pairwise_abs_diff_sums(u, 0, c)
        assert np.array_equal(first + kernels.pairwise_abs_diff_sums(u, c, d - 1), whole), c
        for hi in range(c, d):
            part = kernels.pairwise_abs_diff_sums(u, c, hi)
            inside = np.zeros((d, d), dtype=bool)
            inside[c:hi, :] = np.triu(np.ones((d, d), dtype=bool), k=1)[c:hi, :]
            inside |= inside.T
            assert np.array_equal(part, np.where(inside, whole, 0.0)), (c, hi)


def test_pairwise_takes_one_partner_per_tile_at_large_k(rng):
    k = kernels._SCRATCH + 5
    u = rng.random((k, 3))
    assert np.array_equal(kernels.pairwise_abs_diff_sums(u), pairwise_pair_sums(u))


@pytest.mark.parametrize("k, d", [(3333, 60), (1000, 400)])
def test_pairwise_scratch_is_one_copy_one_tile_and_the_output(k, d, rng):
    u = rng.random((k, d))
    _, peak = scratch_peak(kernels.pairwise_abs_diff_sums, u)
    # the transposed copy, one tile of partners and the d x d output, plus
    # what a broadcasting ufunc may buffer (at most numpy's buffer size)
    assert peak <= 8 * (k * d + kernels._SCRATCH + d * d + np.getbufsize())
