"""Shared helpers for the test suite.

Every randomized test draws from an explicitly seeded numpy Generator, and
hypothesis runs under a derandomized profile without an example database,
so the whole suite is deterministic run to run.
"""

import numpy as np
import pytest
from hypothesis import settings

from tailclust import SeriesMatrix, block_maxima, canonicalize, pseudo_obs

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pobs_of(raw, names=()):
    """Pseudo-observations of a raw matrix, ranking each column as is (m = 1)."""
    return pseudo_obs(block_maxima(SeriesMatrix(np.asarray(raw, dtype=float), names), 1))


def random_pobs(rng, k, d):
    """A valid tie-free PseudoObs instance from uniform raw data."""
    return pobs_of(rng.random((k, d)))


def random_partition(rng, d):
    """A uniformly messy (not uniformly distributed) random partition of range(d)."""
    labels = rng.integers(0, rng.integers(1, d + 1), size=d)
    groups = {}
    for idx, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(idx)
    return canonicalize(groups.values(), d)


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
