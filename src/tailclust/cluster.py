"""Greedy extremal-correlation clustering and threshold selection.

eco_cluster states the clustering rule: it takes the most extremally
correlated active pair as a seed and absorbs every active variable whose
correlation to both seeds clears the threshold tau. The data-driven
threshold scans a grid and keeps the greatest tau attaining the minimal
SECO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .core import (
    ChiMatrix,
    DimensionMismatch,
    EmptyGrid,
    InvalidParam,
    Partition,
    PseudoObs,
    _check_blocks,
    _fmt,
    _from_labels,
)
from .estimators import _seco, tau_theory

__all__ = [
    "eco_cluster",
    "ThresholdScan",
    "select_threshold",
    "default_grid",
    "scan_to_csv",
]


def eco_cluster(chi: ChiMatrix, tau: float) -> Partition:
    """Cluster variables whose block maxima stay dependent above tau.

    While two or more variables are active, seed on the argmax pair (a, b)
    of chi over active pairs (ties go to the lexicographically smallest
    pair) and emit every active s with min(chi(a, s), chi(b, s)) >= tau,
    reading chi(x, x) from the unit diagonal so both seeds always belong.
    Stop at the first seed with chi(a, b) <= tau: every later seed has a chi
    no larger and would fail too, so each variable still active forms its
    own group. The pairs are sorted once per chi matrix, O(d^2 log d), and
    cached on it (ChiMatrix.pair_order); each call is then one forward sweep
    over that order plus at most d membership tests of O(d) each, so a
    threshold scan pays for the sort once.
    A single block (k = 1) makes every chi exactly 1 and is rejected.
    """
    _check_tau(tau)
    _check_blocks(chi.k)
    return _from_labels(kernels.eco_labels(chi.values, float(tau), chi.pair_order))


def _check_tau(tau: float) -> None:
    """Reject a threshold that is negative, infinite or NaN."""
    if not 0.0 <= tau < np.inf:
        raise InvalidParam("tau must be a nonnegative real")


def _check_grid(grid: Sequence[float]) -> None:
    """Reject a threshold grid that is empty or not strictly ascending."""
    if not grid:
        raise EmptyGrid("empty threshold grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidParam("grid must be strictly ascending")


@dataclass(frozen=True)
class ThresholdScan:
    """SECO profile over a threshold grid plus the selected tau."""

    grid: tuple[float, ...]
    secos: tuple[float, ...]
    n_clusters: tuple[int, ...]
    selected: float

    def __post_init__(self):
        _check_grid(self.grid)
        if not (len(self.grid) == len(self.secos) == len(self.n_clusters)):
            raise InvalidParam("grid, secos and n_clusters must align")
        if self.selected not in self.grid:
            raise InvalidParam("selected tau must be a grid point")


def select_threshold(pobs: PseudoObs, chi: ChiMatrix, grid: Sequence[float]) -> ThresholdScan:
    """Scan tau over the grid and keep the greatest minimizer of the SECO.

    chi is chi_matrix(pobs), computed once by the caller and shared with the
    final eco_cluster call. Every grid point shares its pair order, the
    whole-set extremal coefficient and the coefficient of each distinct
    group, and each SECO equals seco(pobs, partition) bit for bit. selected
    is the largest tau whose SECO equals the minimum exactly.
    """
    taus = [float(t) for t in grid]
    if any(t < 0.0 for t in taus):
        raise InvalidParam("grid values must be nonnegative")
    _check_grid(taus)
    if (chi.d, chi.k) != (pobs.d, pobs.k):
        raise DimensionMismatch(
            f"chi matrix of d = {chi.d}, k = {chi.k} for pseudo-observations "
            f"of d = {pobs.d}, k = {pobs.k}"
        )
    thetas: dict[tuple[int, ...], float] = {}
    secos = []
    sizes = []
    for tau in taus:
        part = eco_cluster(chi, tau)
        secos.append(_seco(pobs, part.groups, thetas))
        sizes.append(part.n_groups)
    best = min(secos)
    selected = max(t for t, s in zip(taus, secos) if s == best)
    return ThresholdScan(
        grid=tuple(taus),
        secos=tuple(secos),
        n_clusters=tuple(sizes),
        selected=selected,
    )


def default_grid(m: int, d: int, k: int) -> list[float]:
    """41 equally spaced thresholds spanning [0.1, 2.5] times tau_theory(m, d, k)."""
    return _grid(m, d, k)


def _grid(m: int, d: int, k: int, lo: float | None = None, hi: float | None = None,
          n: int | None = None) -> list[float]:
    """default_grid(m, d, k) with its lower end, upper end or size replaced where given."""
    tau0 = tau_theory(m, d, k)
    lo = 0.1 * tau0 if lo is None else lo
    hi = 2.5 * tau0 if hi is None else hi
    _check_grid_ends(lo, hi)
    return [float(t) for t in np.unique(np.linspace(lo, hi, 41 if n is None else n))]


def _check_grid_ends(lo: float, hi: float) -> None:
    """Reject a scan range whose lower end lies above its upper end."""
    # np.unique would sort the reversed linspace into a scan over [hi, lo]
    if lo > hi:
        raise InvalidParam(f"scan grid lower end {lo!r} lies above its upper end {hi!r}")


def scan_to_csv(scan: ThresholdScan) -> str:
    """Columns tau, seco, n_clusters, selected (0/1), one row per grid point."""
    lines = ["tau,seco,n_clusters,selected"]
    for tau, s, size in zip(scan.grid, scan.secos, scan.n_clusters):
        flag = 1 if tau == scan.selected else 0
        lines.append(f"{_fmt(tau)},{_fmt(s)},{size},{flag}")
    return "\n".join(lines) + "\n"
