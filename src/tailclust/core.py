"""Domain types and partition algebra shared by the whole package.

Every array-backed type validates its invariants once at construction and
freezes its buffer (``writeable = False``), so instances are safe to share
across threads without copying.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import kernels

__all__ = [
    "TailclustError",
    "OverlapError",
    "CoverageError",
    "EmptyGroupError",
    "DimensionMismatch",
    "BlockTooLarge",
    "EmptySubset",
    "IndexOutOfRange",
    "DegenerateMadogram",
    "EmptyGrid",
    "InvalidAlpha",
    "InvalidParam",
    "IncompatibleDimension",
    "InvalidG",
    "MalformedInput",
    "SeriesMatrix",
    "MaximaMatrix",
    "PseudoObs",
    "ChiMatrix",
    "Partition",
    "canonicalize",
    "partitions_equal",
    "is_subpartition",
    "partition_to_json",
    "partition_from_json",
]


class TailclustError(Exception):
    """Base class for every error raised by this package."""


class OverlapError(TailclustError, ValueError):
    """An index appears in more than one group."""


class CoverageError(TailclustError, ValueError):
    """The groups do not cover every index in {0, ..., d-1}."""


class EmptyGroupError(TailclustError, ValueError):
    """A group is empty."""


class DimensionMismatch(TailclustError, ValueError):
    """Two objects disagree on the number of variables."""


class BlockTooLarge(TailclustError, ValueError):
    """The block length exceeds the series length."""


class EmptySubset(TailclustError, ValueError):
    """A variable subset is empty."""


class IndexOutOfRange(TailclustError, IndexError):
    """A variable index falls outside {0, ..., d-1}."""


class DegenerateMadogram(TailclustError, ValueError):
    """A madogram value is outside [0, (k-1)/(2k)]; the input is corrupted."""


class EmptyGrid(TailclustError, ValueError):
    """A threshold grid is empty."""


class InvalidAlpha(TailclustError, ValueError):
    """Stable exponent outside (0, 1]."""


class InvalidParam(TailclustError, ValueError):
    """A numeric parameter is outside its admissible range."""


class IncompatibleDimension(TailclustError, ValueError):
    """The requested dimension does not fit the experiment layout."""


class InvalidG(TailclustError, ValueError):
    """Requested number of clusters outside 1..d."""


class MalformedInput(TailclustError, ValueError):
    """A CSV or JSON input file cannot be parsed."""


def _frozen(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype, order="C", copy=True)
    arr.flags.writeable = False
    return arr


def _default_names(d: int) -> tuple[str, ...]:
    return tuple(f"v{j}" for j in range(d))


@dataclass(frozen=True)
class SeriesMatrix:
    """Raw stationary series: n time steps (rows) by d variables (columns)."""

    values: np.ndarray
    names: tuple[str, ...] = ()

    def __post_init__(self):
        arr = _frozen(self.values)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidParam("series must be a 2-D matrix with n >= 1 rows and d >= 1 columns")
        if not np.isfinite(arr).all():
            raise InvalidParam("series contains NaN or infinite entries")
        names = tuple(self.names) if self.names else _default_names(arr.shape[1])
        if len(names) != arr.shape[1]:
            raise DimensionMismatch(f"{len(names)} names for {arr.shape[1]} columns")
        if len(set(names)) != len(names):
            raise InvalidParam("variable names must be unique")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MaximaMatrix:
    """Component-wise maxima over k disjoint blocks of length m."""

    values: np.ndarray
    block_length: int
    source_length: int

    def __post_init__(self):
        arr = _frozen(self.values)
        m, n = self.block_length, self.source_length
        if arr.ndim != 2:
            raise InvalidParam("maxima must form a 2-D matrix")
        if m < 1 or n < 1:
            raise InvalidParam("block and source lengths must be positive")
        if n // m < 1:
            raise BlockTooLarge(f"block length {m} exceeds series length {n}")
        if arr.shape[0] != n // m:
            raise DimensionMismatch(
                f"expected k = floor({n}/{m}) = {n // m} rows, got {arr.shape[0]}"
            )
        if not np.isfinite(arr).all():
            raise InvalidParam("maxima contain NaN or infinite entries")
        object.__setattr__(self, "values", arr)

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PseudoObs:
    """Scaled ranks of block maxima, one empirical CDF per column.

    Entries live in (0, 1]. A column without ties carries exactly the grid
    {1/k, 2/k, ..., 1}; ties share the largest rank of their tie group.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.values)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidParam("pseudo-observations must form a nonempty 2-D matrix")
        if not ((arr > 0.0) & (arr <= 1.0)).all():
            raise InvalidParam("pseudo-observations must lie in (0, 1]")
        k = arr.shape[0]
        grid = np.arange(1, k + 1) / k
        for j in range(arr.shape[1]):
            col = np.sort(arr[:, j])
            if np.unique(col).size == k and not np.array_equal(col, grid):
                raise InvalidParam(f"column {j} is tie-free but is not the rank grid")
        object.__setattr__(self, "values", arr)

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ChiMatrix:
    """Pairwise extremal correlations (the chi statistic), unit diagonal."""

    values: np.ndarray
    k: int

    def __post_init__(self):
        arr = _frozen(self.values)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidParam("chi matrix must be square and nonempty")
        if self.k < 1:
            raise InvalidParam("block count k must be positive")
        if not np.isfinite(arr).all():
            raise InvalidParam("chi matrix contains NaN or infinite entries")
        if not np.array_equal(arr, arr.T):
            raise InvalidParam("chi matrix must be symmetric")
        if not (np.diagonal(arr) == 1.0).all():
            raise InvalidParam("chi matrix diagonal must be exactly 1")
        off = arr[~np.eye(arr.shape[0], dtype=bool)]
        lo = 3.0 - 2.0 * self.k
        if off.size and (off.min() < lo - 1e-9 or off.max() > 1.0 + 1e-9):
            raise InvalidParam(f"off-diagonal chi outside [{lo}, 1]")
        object.__setattr__(self, "values", arr)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @cached_property
    def pair_order(self) -> np.ndarray:
        """Pairs a < b by descending chi, ties in row-major order; sorted once.

        A read-only 2 x d(d-1)/2 int array (kernels.pair_order) that every
        eco_cluster call on this matrix shares.
        """
        return kernels.pair_order(self.values)


@dataclass(frozen=True)
class Partition:
    """Canonical partition of {0, ..., d-1}: groups sorted, ordered by smallest member."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.groups:
            raise EmptyGroupError("a partition needs at least one group")
        seen: set[int] = set()
        total = 0
        for g in self.groups:
            if not g:
                raise EmptyGroupError("empty group")
            if list(g) != sorted(g):
                raise InvalidParam("group members must be sorted ascending")
            for idx in g:
                if not isinstance(idx, int) or isinstance(idx, bool):
                    raise InvalidParam("indices must be plain ints")
                if idx in seen:
                    raise OverlapError(f"index {idx} appears twice")
                seen.add(idx)
            total += len(g)
        d = total
        if seen != set(range(d)):
            missing = sorted(set(range(max(seen) + 1)) - seen) if seen else [0]
            raise CoverageError(f"indices not contiguous from 0, first gap near {missing[:3]}")
        firsts = [g[0] for g in self.groups]
        if firsts != sorted(firsts):
            raise InvalidParam("groups must be ordered by smallest member")

    @property
    def d(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def to_labels(self) -> np.ndarray:
        """Group index of each variable, as an int array of length d."""
        labels = np.empty(self.d, dtype=np.int64)
        for gi, g in enumerate(self.groups):
            for idx in g:
                labels[idx] = gi
        return labels


def canonicalize(groups: Iterable[Iterable[int]], d: int) -> Partition:
    """Sort group members and order groups by smallest member; validate.

    Raises OverlapError for a duplicated index, CoverageError when the union
    is not all of {0, ..., d-1}, EmptyGroupError for an empty group, and
    IndexOutOfRange for indices outside the domain.
    """
    if d < 1:
        raise InvalidParam("d must be positive")
    cleaned = []
    seen: set[int] = set()
    for g in groups:
        members = sorted(int(i) for i in g)
        if not members:
            raise EmptyGroupError("empty group")
        for idx in members:
            if idx < 0 or idx >= d:
                raise IndexOutOfRange(f"index {idx} outside 0..{d - 1}")
            if idx in seen:
                raise OverlapError(f"index {idx} appears in more than one group")
            seen.add(idx)
        cleaned.append(tuple(members))
    if len(seen) != d:
        missing = sorted(set(range(d)) - seen)
        raise CoverageError(f"indices {missing[:5]} not covered")
    cleaned.sort(key=lambda g: g[0])
    return Partition(tuple(cleaned))


def _check_same_d(a: Partition, b: Partition) -> None:
    if a.d != b.d:
        raise DimensionMismatch(f"partitions over {a.d} and {b.d} variables")


def partitions_equal(a: Partition, b: Partition) -> bool:
    """Set-of-sets equality; canonical form makes it structural."""
    _check_same_d(a, b)
    return a.groups == b.groups


def is_subpartition(s: Partition, o: Partition) -> bool:
    """True iff every group of s lies inside some group of o."""
    _check_same_d(s, o)
    owner = o.to_labels()
    return all(np.all(owner[list(g)] == owner[g[0]]) for g in s.groups)


def partition_to_json(partition: Partition, names: Sequence[str]) -> str:
    """Serialize as {"clusters": [[name, ...], ...]} in canonical order."""
    if len(names) != partition.d:
        raise DimensionMismatch(f"{len(names)} names for {partition.d} variables")
    clusters = [[names[i] for i in g] for g in partition.groups]
    return json.dumps({"clusters": clusters}, indent=2) + "\n"


def partition_from_json(text: str, names: Sequence[str]) -> Partition:
    """Parse the JSON produced by partition_to_json, resolving names to indices."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid partition JSON: {exc}") from exc
    if not isinstance(obj, dict) or "clusters" not in obj:
        raise MalformedInput('partition JSON must be an object with a "clusters" key')
    index = {name: i for i, name in enumerate(names)}
    groups = []
    for cluster in obj["clusters"]:
        if not isinstance(cluster, list):
            raise MalformedInput("each cluster must be a list of names")
        try:
            groups.append([index[name] for name in cluster])
        except (KeyError, TypeError) as exc:
            raise MalformedInput(f"unknown variable name in partition: {exc}") from exc
    return canonicalize(groups, len(names))
