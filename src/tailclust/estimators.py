"""Madogram-based dependence estimators for block maxima.

The subset madogram is

    nu_hat(B) = (1/k) sum_i [ max_{j in B} U[i, j] - (1/|B|) sum_{j in B} U[i, j] ]

on pseudo-observations U. The plug-in extremal coefficient is
theta_hat = (1/2 + nu_hat) / (1/2 - nu_hat), the pairwise extremal
correlation is chi_hat = 2 - theta_hat, and SECO/MECO summarize a candidate
partition (group-wise coefficient surplus, minimal within-group correlation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .core import (
    ChiMatrix,
    DegenerateMadogram,
    DimensionMismatch,
    EmptySubset,
    IndexOutOfRange,
    InvalidParam,
    Partition,
    PseudoObs,
    _adopt,
    _check_blocks,
    _csv_pieces,
)

__all__ = [
    "SubsetMadogram",
    "ThetaEstimate",
    "madogram",
    "extremal_coefficient",
    "chi_matrix",
    "seco",
    "meco",
    "tau_theory",
    "chi_to_csv",
]


@dataclass(frozen=True)
class SubsetMadogram:
    """Madogram value nu_hat for one variable subset at block count k."""

    value: float
    subset: tuple[int, ...]
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParam("block count k must be positive")
        hi = (self.k - 1) / (2 * self.k)
        if not 0.0 <= self.value <= hi + 1e-9:
            raise DegenerateMadogram(
                f"nu_hat = {self.value} outside [0, {hi}] for k = {self.k}"
            )


@dataclass(frozen=True)
class ThetaEstimate:
    """Plug-in extremal coefficient theta_hat for one variable subset."""

    value: float
    subset: tuple[int, ...]


def _clean_subset(subset: Iterable[int], d: int) -> tuple[int, ...]:
    members = tuple(sorted(int(i) for i in subset))
    if not members:
        raise EmptySubset("subset must contain at least one variable")
    if members[0] < 0 or members[-1] >= d:
        raise IndexOutOfRange(f"subset {members} outside 0..{d - 1}")
    if len(set(members)) != len(members):
        raise InvalidParam(f"subset {members} has repeated indices")
    return members


def madogram(pobs: PseudoObs, subset: Iterable[int]) -> SubsetMadogram:
    """Subset madogram: mean over blocks of (max - mean) of the subset columns.

    Zero for singletons and for comonotone subsets; bounded above by
    (k-1)/(2k) for any rank-structured input.
    """
    members = _clean_subset(subset, pobs.d)
    idx = np.asarray(members, dtype=np.int64)
    total = kernels.subset_gap_sum(pobs.values, idx)
    return SubsetMadogram(value=float(total) / pobs.k, subset=members, k=pobs.k)


def extremal_coefficient(nu: SubsetMadogram) -> ThetaEstimate:
    """Map a madogram to the extremal coefficient, (1/2 + nu)/(1/2 - nu).

    The image of [0, (k-1)/(2k)] is [1, 2k-1]: 1 means complete extremal
    dependence and values may exceed the subset size on finite samples.
    """
    if nu.value >= 0.5:
        raise DegenerateMadogram(f"nu_hat = {nu.value} >= 1/2")
    value = (0.5 + nu.value) / (0.5 - nu.value)
    return ThetaEstimate(value=value, subset=nu.subset)


def chi_matrix(pobs: PseudoObs) -> ChiMatrix:
    """All pairwise extremal correlations chi_hat = 2 - theta_hat, diagonal 1.

    Agrees with 2 - extremal_coefficient(madogram(pobs, {a, b})) entry by
    entry; the pairwise madogram reduces to (1/(2k)) sum_i |U[i,a] - U[i,b]|.
    Values below zero are kept, not clipped. The ratio is formed in place
    on nu, so the scratch is nu and one denominator; 0.5 + nu = nu + 0.5,
    so the bits are those of 2 - (0.5 + nu) / (0.5 - nu).
    """
    k = pobs.k
    nu = pobs.abs_diff_sums / (2.0 * k)
    den = 0.5 - nu
    nu += 0.5
    nu /= den
    chi = np.subtract(2.0, nu, out=nu)
    np.fill_diagonal(chi, 1.0)
    return _adopt(ChiMatrix, chi, k=k)


def seco(pobs: PseudoObs, partition: Partition) -> float:
    """Sum of group-wise extremal coefficients minus the global one.

    Exactly zero for the single-group partition; the population value is
    zero precisely when the grouping is at least as coarse as the true
    asymptotically independent blocks, and positive otherwise. A single
    block (k = 1) makes every madogram 0 and is rejected, as in eco_cluster.
    """
    _check_blocks(pobs.k)
    if partition.d != pobs.d:
        raise DimensionMismatch(
            f"partition over {partition.d} variables, pseudo-observations have {pobs.d}"
        )
    return _seco(pobs, partition.groups, {})


def _seco(pobs: PseudoObs, groups: Sequence[tuple[int, ...]], thetas: dict) -> float:
    """seco of the partition into groups, memoizing each group's coefficient in thetas.

    The whole set is the group tuple(range(d)), so a scan that passes one
    dict for all its partitions computes every distinct group only once.
    """
    whole = tuple(range(pobs.d))
    for g in (whole, *groups):
        if g not in thetas:
            thetas[g] = extremal_coefficient(madogram(pobs, g)).value
    return sum(thetas[g] for g in groups) - thetas[whole]


def meco(chi: ChiMatrix, partition: Partition) -> float:
    """Minimal within-group extremal correlation; +inf when all groups are singletons."""
    if partition.d != chi.d:
        raise DimensionMismatch(
            f"partition over {partition.d} variables, chi matrix has {chi.d}"
        )
    best = math.inf
    vals = chi.values
    for g in partition.groups:
        for ai in range(len(g) - 1):
            a = g[ai]
            row = vals[a, list(g[ai + 1:])]
            m = row.min()
            if m < best:
                best = float(m)
    return best


def tau_theory(m: int, d: int, k: int) -> float:
    """Reference threshold 2 * (1/m + sqrt(ln d / k)).

    Instantiates the theoretical rate (bias of order 1/m plus estimation
    error of order sqrt(ln d / k)) with unit constants.
    """
    if m < 1 or k < 1:
        raise InvalidParam("m and k must be positive")
    if d < 2:
        raise InvalidParam("d must be at least 2")
    return 2.0 * (1.0 / m + math.sqrt(math.log(d) / k))


def chi_to_csv(chi: ChiMatrix, names: Sequence[str], clip: bool = False) -> str:
    """Render the full symmetric matrix as CSV with a header of variable names.

    With clip=True the off-diagonal entries are clamped into [0, 1] for
    display; estimation always keeps raw values.
    """
    if len(names) != chi.d:
        raise DimensionMismatch(f"{len(names)} names for {chi.d} variables")
    vals = chi.values
    if clip:
        vals = np.clip(vals, 0.0, 1.0)
    return "".join(_csv_pieces(names, vals))
