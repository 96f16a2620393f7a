"""Block maxima and pseudo-observations."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tailclust import (
    BlockTooLarge,
    InvalidParam,
    MaximaMatrix,
    SeriesMatrix,
    block_maxima,
    pseudo_obs,
)

from tailclust import kernels

from conftest import pobs_of, scratch_peak


def pseudo_obs_loops(x):
    """Ranks / k one column at a time: a searchsorted per column."""
    k = x.shape[0]
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        col = x[:, j]
        srt = np.sort(col)
        if k >= 2 and srt[0] == srt[-1]:
            raise InvalidParam(
                f"column {j} has the same block maximum in all {k} blocks; "
                "its ranks carry no information"
            )
        out[:, j] = np.searchsorted(srt, col, side="right")
    out /= k
    return out


def test_block_maxima_hand_case():
    series = SeriesMatrix(np.array([5.0, 1, 4, 2, 9, 3, 7]).reshape(-1, 1))
    out = block_maxima(series, 3)
    # blocks [5,1,4], [2,9,3]; the trailing [7] is dropped
    assert out.values.tolist() == [[5.0], [9.0]]
    assert out.k == 2 and out.block_length == 3 and out.source_length == 7


def test_block_maxima_identity_when_m_is_one(rng):
    raw = rng.random((6, 3))
    out = block_maxima(SeriesMatrix(raw), 1)
    assert np.array_equal(out.values, raw)


def test_block_maxima_constant_column():
    series = SeriesMatrix(np.full((10, 1), 2.5))
    assert np.all(block_maxima(series, 3).values == 2.5)


def test_block_maxima_matches_per_block_loop(rng):
    raw = rng.normal(size=(23, 4))
    m = 5
    out = block_maxima(SeriesMatrix(raw), m)
    for i in range(out.k):
        for j in range(4):
            assert out.values[i, j] == raw[i * m : (i + 1) * m, j].max()


def test_block_maxima_errors():
    series = SeriesMatrix(np.ones((4, 1)))
    with pytest.raises(InvalidParam):
        block_maxima(series, 0)
    with pytest.raises(BlockTooLarge, match="^block length 5 exceeds series length 4$"):
        block_maxima(series, 5)


def test_pseudo_obs_hand_ranks():
    p = pobs_of(np.array([[3.0], [1.0], [2.0]]))
    assert p.values[:, 0].tolist() == [1.0, 1 / 3, 2 / 3]


def test_pseudo_obs_sorted_column_is_the_grid():
    k = 7
    p = pobs_of(np.arange(k, dtype=float).reshape(-1, 1))
    assert np.array_equal(p.values[:, 0], np.arange(1, k + 1) / k)


def test_pseudo_obs_tie_convention():
    # ties share the largest rank of their tie group
    p = pobs_of(np.array([[2.0], [2.0], [1.0]]))
    assert p.values[:, 0].tolist() == [1.0, 1.0, 1 / 3]


def test_pseudo_obs_monotone_invariance(rng):
    raw = rng.normal(size=(30, 2))
    transformed = raw.copy()
    transformed[:, 0] = np.exp(raw[:, 0])
    transformed[:, 1] = raw[:, 1] ** 3
    a = pseudo_obs(block_maxima(SeriesMatrix(raw), 3))
    b = pseudo_obs(block_maxima(SeriesMatrix(transformed), 3))
    assert np.array_equal(a.values, b.values)


def test_pipeline_permutation_equivariance(rng):
    raw = rng.random((24, 4))
    perm = np.array([2, 0, 3, 1])
    a = pseudo_obs(block_maxima(SeriesMatrix(raw[:, perm]), 4))
    b = pseudo_obs(block_maxima(SeriesMatrix(raw), 4))
    assert np.array_equal(a.values, b.values[:, perm])


def test_pseudo_obs_rejects_constant_column(rng):
    raw = rng.random((40, 4))
    raw[:, 2] = 5.0
    with pytest.raises(InvalidParam, match="column 2 "):
        pseudo_obs(block_maxima(SeriesMatrix(raw), 4))
    # one block (k = 1) ranks every column to 1; that stays allowed
    assert pseudo_obs(block_maxima(SeriesMatrix(raw), 40)).values.tolist() == [[1.0] * 4]


def test_pseudo_obs_range(rng):
    p = pobs_of(rng.standard_cauchy((50, 3)))
    assert (p.values > 0).all() and (p.values <= 1).all()


# mostly a handful of values, so columns are tie-heavy and often constant;
# sometimes a wide range, so tie-free columns occur too
_maxima = arrays(
    np.int64,
    st.tuples(st.integers(1, 40), st.integers(1, 8)),
    elements=st.integers(-2, 3) | st.integers(-10**6, 10**6),
)


@settings(max_examples=300, deadline=None)
@given(x=_maxima)
@example(x=np.array([[4]]))
@example(x=np.array([[4, 1, 0]]))
@example(x=np.array([[4, 1], [4, 2]]))
@example(x=np.array([[1, 2], [4, 2]]))
@example(x=np.array([[3, 3], [1, 3]]))
@example(x=np.array([[2, 7, 7], [2, 7, 7], [1, 7, 7]]))
def test_pseudo_obs_matches_per_column_searchsorted(x):
    x = x.astype(float)
    maxima = MaximaMatrix(x, block_length=1, source_length=x.shape[0])
    try:
        expected = pseudo_obs_loops(x)
    except InvalidParam as exc:
        with pytest.raises(InvalidParam) as info:
            pseudo_obs(maxima)
        assert str(info.value) == str(exc)
    else:
        assert np.array_equal(pseudo_obs(maxima).values, expected)


def _tied_columns(rng, k, d):
    """k x d maxima whose columns each take a few values, so every column has ties."""
    return rng.integers(0, 1 + rng.integers(1, 6, size=d), size=(k, d)).astype(float)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 7, 10, 11])
def test_pseudo_obs_in_column_slabs_matches_the_oracle_bit_for_bit(width, rng, monkeypatch):
    # slabs of one column, widths that do and do not divide d = 10, and one
    # slab for all; tie groups in every slab
    k, d = 40, 10
    monkeypatch.setattr(kernels, "_SCRATCH", width * k)
    x = _tied_columns(rng, k, d)
    x[:, ::4] = rng.random((k, 3))  # tie-free columns among them
    got = pseudo_obs(MaximaMatrix(x, block_length=1, source_length=k)).values
    assert np.array_equal(got, pseudo_obs_loops(x))


@pytest.mark.parametrize("width", [1, 3, 4, 10])
def test_pseudo_obs_names_the_lowest_constant_column_whatever_the_slab(width, rng, monkeypatch):
    k, d = 30, 10
    monkeypatch.setattr(kernels, "_SCRATCH", width * k)
    x = _tied_columns(rng, k, d)
    x[:, [5, 8, 9]] = 2.0
    with pytest.raises(InvalidParam, match="^column 5 "):
        pseudo_obs(MaximaMatrix(x, block_length=1, source_length=k))


def test_pseudo_obs_ranks_one_column_per_slab_at_large_k(rng):
    k = kernels._SCRATCH + 3
    x = np.column_stack([rng.random(k), rng.integers(0, 50, k), rng.integers(0, 2, k)]).astype(float)
    got = pseudo_obs(MaximaMatrix(x, block_length=1, source_length=k)).values
    assert np.array_equal(got, pseudo_obs_loops(x))


def test_pseudo_obs_scratch_stays_within_three_output_arrays(rng):
    # one experiment replication at m = 3: the output, the PseudoObs grid
    # check's scaled copy and one slab's sort buffers fit in 3 k x d arrays
    k, d = 3333, 60
    maxima = MaximaMatrix(rng.random((k, d)), block_length=1, source_length=k)
    pobs, peak = scratch_peak(pseudo_obs, maxima)
    assert pobs.values.shape == (k, d)
    assert peak <= 3 * k * d * 8
