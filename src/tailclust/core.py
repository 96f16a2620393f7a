"""Domain types and partition algebra shared by the whole package.

Every array-backed type validates its invariants once at construction and
freezes its buffer (``writeable = False``), so instances are safe to share
across threads without copying. A public construction freezes a copy of the
caller's array; the package hands the arrays it has just built over without
one (_adopt), and the same checks run.
"""

from __future__ import annotations

import contextlib
import json
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


# the array _adopt hands to a constructor on this thread, if any
_handed = threading.local()


def _frozen(values, dtype=np.float64) -> np.ndarray:
    """A read-only C-ordered copy of values; the array that _adopt hands over is frozen as is."""
    handed = values is getattr(_handed, "array", None)
    if handed and values.dtype == dtype and values.flags.c_contiguous:
        values.flags.writeable = False
        return values
    arr = np.array(values, dtype=dtype, order="C", copy=True)
    arr.flags.writeable = False
    return arr


def _adopt(cls, values: np.ndarray, **fields):
    """cls(values, **fields), holding values itself rather than a copy of it.

    For an array the package has just built and nobody else holds: it is
    frozen in place. The constructor runs every check of cls once, with the
    same errors and messages as a public construction, which copies its
    input. An array that is not C-ordered of the class's dtype is still
    copied.
    """
    _handed.array = values
    try:
        return cls(values, **fields)
    finally:
        _handed.array = None


def _memo(obj, name: str, compute) -> np.ndarray:
    """compute() once per object, kept read-only in its instance dict.

    A plain dict entry, because the functools cached property decorator
    takes one lock for all instances on Python 3.11: two threads could not
    fill the memos of two different objects at once.
    """
    value = obj.__dict__.get(name)
    if value is None:
        value = compute()
        value.flags.writeable = False
        obj.__dict__[name] = value
    return value


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


def _check_block_length(m: int, n: int | None = None) -> None:
    """Reject a block length m that is not positive or exceeds n steps."""
    if m < 1:
        raise InvalidParam("block length must be a positive integer")
    if n is not None and n // m < 1:
        raise BlockTooLarge(f"block length {m} exceeds series length {n}")


def _check_blocks(k: int) -> None:
    """Reject a single block: at k = 1 every chi is 1 and every madogram 0."""
    if k < 2:
        raise InvalidParam("need at least 2 blocks; lower the block size")


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
        if n < 1:
            raise InvalidParam("source length must be positive")
        _check_block_length(m, n)
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
        # a column whose every entry is some i/k holds k values out of the k
        # grid points: it is the grid if tie-free, and valid if tied. Only
        # the other columns are sorted, to find the tie-free ones.
        k = arr.shape[0]
        snapped = arr * k
        np.rint(snapped, out=snapped)
        snapped /= k
        off_grid = np.flatnonzero((snapped != arr).any(axis=0))
        if off_grid.size:
            srt = np.sort(arr[:, off_grid], axis=0)
            bad = off_grid[(srt[1:] != srt[:-1]).all(axis=0)]
            if bad.size:
                raise InvalidParam(f"column {int(bad[0])} is tie-free but is not the rank grid")
        object.__setattr__(self, "values", arr)

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def abs_diff_sums(self) -> np.ndarray:
        """sum_i |U[i, a] - U[i, b]| for every pair, computed once per instance.

        A read-only d x d array (kernels.pairwise_abs_diff_sums) that
        chi_matrix and madogram_dissimilarity share.
        """
        return _memo(self, "_abs_diff_sums", lambda: kernels.pairwise_abs_diff_sums(self.values))


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
        # the unit diagonal lies inside [3 - 2k, 1]: no mask is needed
        lo = 3.0 - 2.0 * self.k
        if arr.min() < lo - 1e-9 or arr.max() > 1.0 + 1e-9:
            raise InvalidParam(f"off-diagonal chi outside [{lo}, 1]")
        object.__setattr__(self, "values", arr)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def pair_order(self) -> np.ndarray:
        """Pairs a < b by descending chi, ties in row-major order; sorted once.

        A read-only 2 x d(d-1)/2 int array (kernels.pair_order) that every
        eco_cluster call on this matrix shares.
        """
        return _memo(self, "_pair_order", lambda: kernels.pair_order(self.values))


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

    Raises EmptyGroupError for an empty group, IndexOutOfRange for indices
    outside the domain, OverlapError for a duplicated index, and
    CoverageError when the union is not all of {0, ..., d-1}. An input with
    several of these faults raises one of them.
    """
    if d < 1:
        raise InvalidParam("d must be positive")
    cleaned = []
    for g in groups:
        members = sorted(int(i) for i in g)
        for idx in members:
            if idx < 0 or idx >= d:
                raise IndexOutOfRange(f"index {idx} outside 0..{d - 1}")
        cleaned.append(tuple(members))
    # disjoint groups sort by their smallest member; Partition rejects empty
    # groups, overlaps and gaps, which leaves only a short cover to check
    part = Partition(tuple(sorted(cleaned))) if cleaned else None
    covered = part.d if part else 0
    if covered != d:
        raise CoverageError(f"indices {list(range(covered, d))[:5]} not covered")
    return part


def _from_labels(labels) -> Partition:
    """The partition whose groups are the sets of variables sharing a label.

    Any int labels work, negative or with gaps: a stable argsort lists each
    label's variables in index order, a label change starts a new group,
    and disjoint groups sort by their smallest member.
    """
    order = np.argsort(labels, kind="stable")
    srt = np.asarray(labels)[order]
    groups = np.split(order, np.flatnonzero(srt[1:] != srt[:-1]) + 1)
    return Partition(tuple(sorted(tuple(g.tolist()) for g in groups)))


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


def _fmt(x: float) -> str:
    """17 significant digits: every float64 reads back bit for bit."""
    return format(float(x), ".17g")


def _csv_pieces(names: Sequence[str], values: np.ndarray) -> Iterator[str]:
    """A header of names, then one row of _fmt cells per row of a 2-D array.

    Yields the header line, then the rows in slabs of at most
    kernels._SCRATCH cells (at least one row each), every line ending in a
    newline: the text held at once is one slab's, whatever the array's size.
    """
    # one % per row; each cell formats exactly as _fmt does
    row_fmt = ",".join(["%.17g"] * len(names)) + "\n"
    yield ",".join(names) + "\n"
    rows = max(1, kernels._SCRATCH // values.shape[1])
    for lo in range(0, len(values), rows):
        yield "".join(row_fmt % tuple(row) for row in values[lo : lo + rows].tolist())


def partition_to_json(partition: Partition, names: Sequence[str]) -> str:
    """Serialize as {"clusters": [[name, ...], ...]} in canonical order."""
    if len(names) != partition.d:
        raise DimensionMismatch(f"{len(names)} names for {partition.d} variables")
    clusters = [[names[i] for i in g] for g in partition.groups]
    return json.dumps({"clusters": clusters}, indent=2) + "\n"


def partition_from_json(text: str, names: Sequence[str]) -> Partition:
    """Parse the JSON produced by partition_to_json, resolving names to indices."""
    return _resolve_clusters(_load_clusters(text), names)


def _load_clusters(text: str) -> list[list]:
    """The clusters of a partition JSON, checked for syntax and shape; no name is resolved."""
    try:
        obj = json.loads(text.removeprefix("\ufeff"))  # a leading byte-order mark
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid partition JSON: {exc}") from exc
    if not isinstance(obj, dict) or "clusters" not in obj:
        raise MalformedInput('partition JSON must be an object with a "clusters" key')
    clusters = obj["clusters"]
    if not isinstance(clusters, list) or not all(isinstance(c, list) for c in clusters):
        raise MalformedInput("each cluster must be a list of names")
    return clusters


def _resolve_clusters(clusters: list[list], names: Sequence[str]) -> Partition:
    """The partition whose groups are the clusters of _load_clusters, names resolved to indices."""
    index = {name: i for i, name in enumerate(names)}
    try:
        groups = [[index[name] for name in cluster] for cluster in clusters]
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"unknown variable name in partition: {exc}") from exc
    return canonicalize(groups, len(names))


def _fork_is_safe() -> bool:
    """Whether this process may fork a child that runs package code.

    A fork starts the child with numpy and tailclust already imported, but
    copies only the calling thread: a lock that another thread holds stays
    locked in the child. Fork only a process with no other thread, on a
    platform that has fork.
    """
    # imported here: at module level it would slow `import tailclust`
    import multiprocessing

    return threading.active_count() == 1 and "fork" in multiprocessing.get_all_start_methods()


@contextlib.contextmanager
def _process_pool(workers: int):
    """A with block on a pool of `workers` processes, forked if _fork_is_safe(), else spawned.

    Every worker process the package starts comes from here. Without an
    error the block's exit waits for the tasks its workers run, as the
    pool's own exit does. An exception that leaves the block kills the
    workers first, so an error in the calling process does not wait for
    work whose result nobody reads. ProcessPoolExecutor on Python 3.11 has
    no public kill: the workers are killed through its process table, and
    the pool's exit then reaps them. With workers = 0 the block gets None and
    nothing is imported or started: _in_worker runs every task in the
    calling process.
    """
    if not workers:
        yield None
        return
    # imported here: at module level they would slow `import tailclust`
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork" if _fork_is_safe() else "spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        try:
            yield pool
        except BaseException:
            for process in list(pool._processes.values()):
                process.kill()
            # a worker killed halfway through sending a result leaves part of
            # it in the pipe; with this process's write end closed too, the
            # pool's reader thread sees end-of-file and marks the pool broken
            # instead of waiting for the rest, so the pool's exit returns
            pool._result_queue._writer.close()
            raise


def _in_worker(pool, fn, *args):
    """Start fn(*args) in a worker of the pool; returns a function that waits for the result.

    With no pool, or a worker that has died, fn runs in the calling process
    when its result is asked for.
    """
    future = None
    if pool:
        # imported here: at module level it would slow `import tailclust`
        from concurrent.futures import BrokenExecutor
        with contextlib.suppress(BrokenExecutor):
            future = pool.submit(fn, *args)

    def result():
        if future:
            with contextlib.suppress(BrokenExecutor):
                return future.result()
        return fn(*args)

    return result
