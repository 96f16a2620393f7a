"""Block maxima and pseudo-observations."""

import numpy as np
import pytest

from tailclust import (
    BlockTooLarge,
    InvalidParam,
    SeriesMatrix,
    block_maxima,
    pseudo_obs,
)

from conftest import pobs_of


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
    with pytest.raises(BlockTooLarge):
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
