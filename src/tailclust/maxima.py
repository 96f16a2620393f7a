"""Block maxima and rank-based pseudo-observations."""

from __future__ import annotations

import numpy as np

from . import kernels
from .core import InvalidParam, MaximaMatrix, PseudoObs, SeriesMatrix, _adopt, _check_block_length

__all__ = ["block_maxima", "pseudo_obs"]


def block_maxima(series: SeriesMatrix, m: int) -> MaximaMatrix:
    """Component-wise maxima over k = floor(n/m) disjoint blocks of length m.

    The trailing remainder of length n - k*m is discarded. With m = 1 the
    output equals the input series.
    """
    _check_block_length(m, series.n)
    return MaximaMatrix(_cut_blocks(series.values, 0, m)[1], block_length=m, source_length=series.n)


def _cut_blocks(rows: np.ndarray, offset: int, m: int):
    """Cut rows that start at series row `offset` along the blocks of length m.

    Returns the rows that finish the block open at `offset`, the maxima of
    the whole blocks after them, and the rows of a block left open.
    """
    head = min(-offset % m, len(rows))
    k = (len(rows) - head) // m
    stop = head + k * m
    maxima = rows[head:stop].reshape(k, m, rows.shape[1]).max(axis=1)
    return rows[:head], maxima, rows[stop:]


def pseudo_obs(maxima: MaximaMatrix) -> PseudoObs:
    """Per-column empirical CDF evaluated at the observations (ranks / k).

    Entry (i, j) is #{r : M[r, j] <= M[i, j]} / k, so tied values share the
    largest rank of their tie group and a tie-free column carries exactly
    {1/k, ..., 1}.

    The columns are ranked a slab of at most kernels._SCRATCH entries at a
    time, so the scratch stays bounded however wide the input is: one
    argsort along axis 0, then each sorted position takes, in the sort
    buffer itself, the rank of the end of its tie group, and the ranks are
    scattered through the sort order into the one output array. The order
    inside a tie group does not matter, so the sort need not be stable.
    Ranks are exact integers, so the slab width cannot change a bit. The
    output is handed to PseudoObs without a copy.

    With k >= 2 blocks a constant column raises InvalidParam naming the
    lowest such index: every rank would be 1, and its chi of (3 - k)/(k + 1),
    near -1, against every tie-free column would make it a singleton on no
    evidence.
    """
    x = maxima.values
    k, d = x.shape
    out = np.empty_like(x)
    positions = np.arange(1.0, k + 1.0)[:, None]
    width = max(1, kernels._SCRATCH // k)
    for j in range(0, d, width):
        cols = x[:, j:j + width]
        order = np.argsort(cols, axis=0)
        srt = np.take_along_axis(cols, order, axis=0)
        if k >= 2:
            constant = np.flatnonzero(srt[0] == srt[-1])
            if constant.size:
                raise InvalidParam(
                    f"column {j + int(constant[0])} has the same block maximum in all {k} blocks; "
                    "its ranks carry no information"
                )
        # a group end holds its rank, position + 1; every other position
        # holds k, so the running minimum from the bottom carries each end's
        # rank up through its group
        ends = np.empty(srt.shape, dtype=bool)
        ends[-1] = True
        np.not_equal(srt[1:], srt[:-1], out=ends[:-1])
        srt.fill(k)
        np.copyto(srt, positions, where=ends)
        up = srt[::-1]
        np.minimum.accumulate(up, axis=0, out=up)
        np.put_along_axis(out[:, j:j + width], order, srt, axis=0)
    out /= k
    return _adopt(PseudoObs, out)
