"""Block maxima and rank-based pseudo-observations."""

from __future__ import annotations

import numpy as np

from .core import BlockTooLarge, InvalidParam, MaximaMatrix, PseudoObs, SeriesMatrix

__all__ = ["block_maxima", "pseudo_obs"]


def block_maxima(series: SeriesMatrix, m: int) -> MaximaMatrix:
    """Component-wise maxima over k = floor(n/m) disjoint blocks of length m.

    The trailing remainder of length n - k*m is discarded. With m = 1 the
    output equals the input series.
    """
    if m < 1:
        raise InvalidParam("block length must be a positive integer")
    n, d = series.n, series.d
    k = n // m
    if k < 1:
        raise BlockTooLarge(f"block length {m} exceeds series length {n}")
    vals = series.values[: k * m].reshape(k, m, d).max(axis=1)
    return MaximaMatrix(vals, block_length=m, source_length=n)


def pseudo_obs(maxima: MaximaMatrix) -> PseudoObs:
    """Per-column empirical CDF evaluated at the observations (ranks / k).

    Entry (i, j) is #{r : M[r, j] <= M[i, j]} / k, so tied values share the
    largest rank of their tie group and a tie-free column carries exactly
    {1/k, ..., 1}.

    With k >= 2 blocks a constant column raises InvalidParam naming its
    index: every rank would be 1, and its chi of (3 - k)/(k + 1), near -1,
    against every tie-free column would make it a singleton on no evidence.
    """
    x = maxima.values
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
    return PseudoObs(out)
