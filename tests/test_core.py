"""Domain types, partition algebra, and serialization."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tailclust
from tailclust import (
    ChiMatrix,
    CoverageError,
    DimensionMismatch,
    EmptyGroupError,
    IndexOutOfRange,
    InvalidParam,
    MaximaMatrix,
    OverlapError,
    Partition,
    PseudoObs,
    SeriesMatrix,
    canonicalize,
    chi_matrix,
    is_subpartition,
    partition_from_json,
    partition_to_json,
    partitions_equal,
)
from tailclust import cluster, competitors, core, estimators, experiments, kernels, maxima, simulate
from tailclust.core import MalformedInput, TailclustError, _from_labels

from conftest import assert_no_child_left, random_partition, random_pobs


# ---------------------------------------------------------------------------
# matrix types


def test_series_defaults_and_shape():
    s = SeriesMatrix(np.arange(6.0).reshape(3, 2))
    assert s.n == 3 and s.d == 2
    assert s.names == ("v0", "v1")


def test_series_custom_names():
    s = SeriesMatrix(np.ones((2, 2)), names=("left", "right"))
    assert s.names == ("left", "right")


def test_series_rejects_bad_input():
    with pytest.raises(InvalidParam):
        SeriesMatrix(np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(InvalidParam):
        SeriesMatrix(np.array([[np.nan, 1.0]]))
    with pytest.raises(InvalidParam):
        SeriesMatrix(np.array([[np.inf, 1.0]]))
    with pytest.raises(InvalidParam):
        SeriesMatrix(np.ones((2, 2)), names=("a", "a"))
    with pytest.raises(DimensionMismatch):
        SeriesMatrix(np.ones((2, 2)), names=("a",))
    with pytest.raises(InvalidParam):
        SeriesMatrix(np.empty((0, 2)))


def test_series_values_frozen_and_decoupled():
    raw = np.ones((2, 2))
    s = SeriesMatrix(raw)
    raw[0, 0] = 7.0  # construction copies, later writes must not leak in
    assert s.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        s.values[0, 0] = 3.0


def test_maxima_row_count_must_match():
    MaximaMatrix(np.ones((3, 2)), block_length=2, source_length=7)
    with pytest.raises(DimensionMismatch):
        MaximaMatrix(np.ones((4, 2)), block_length=2, source_length=7)


def test_maxima_block_larger_than_source():
    from tailclust import BlockTooLarge

    with pytest.raises(BlockTooLarge):
        MaximaMatrix(np.ones((1, 1)), block_length=9, source_length=5)


def test_pseudo_obs_accepts_rank_grid_and_ties():
    PseudoObs(np.array([[1.0, 1.0], [1 / 3, 1.0], [2 / 3, 1 / 3]]))


def test_pseudo_obs_rejects_out_of_range():
    with pytest.raises(InvalidParam):
        PseudoObs(np.array([[0.0], [0.5], [1.0]]))
    with pytest.raises(InvalidParam):
        PseudoObs(np.array([[0.5], [1.0], [1.5]]))


def test_pseudo_obs_rejects_tie_free_non_grid():
    # distinct values that are not {1/3, 2/3, 1} cannot be scaled ranks
    with pytest.raises(InvalidParam):
        PseudoObs(np.array([[0.2], [0.5], [1.0]]))


def rank_grid_check_loops(arr):
    """Raise as PseudoObs does for the first tie-free column off the rank grid."""
    k = arr.shape[0]
    grid = np.arange(1, k + 1) / k
    for j in range(arr.shape[1]):
        col = np.sort(arr[:, j])
        if np.unique(col).size == k and not np.array_equal(col, grid):
            raise InvalidParam(f"column {j} is tie-free but is not the rank grid")


@st.composite
def _rank_columns(draw):
    k = draw(st.integers(1, 12))
    d = draw(st.integers(1, 6))
    cols = []
    for _ in range(d):
        kind = draw(
            st.sampled_from(
                ("grid", "ties", "nudged", "scaled", "ties_nudged", "ties_scaled")
            )
        )
        if kind.startswith("ties"):
            ranks = draw(st.lists(st.integers(1, k), min_size=k, max_size=k))
            col = np.array(ranks) / k
        else:
            col = np.array(draw(st.permutations(range(1, k + 1)))) / k
        if kind.endswith("nudged"):
            # one entry one ulp off the grid: a tie-free column is no longer
            # ranks, a tied one usually stays tied
            i = draw(st.integers(0, k - 1))
            col[i] = np.nextafter(col[i], 0.0)
        elif kind.endswith("scaled"):
            # halved: off the grid unless every rank is even; tied columns stay valid
            col = col * 0.5
        cols.append(col)
    return np.column_stack(cols)


def _large_k_columns(k, nudge_grid):
    """Rank grid, tied ranks, and tied ranks scaled by 0.5 and nudged, at large k.

    With nudge_grid a fifth column, the grid with one entry one ulp low, is
    tie-free but off the grid and must be rejected.
    """
    rng = np.random.default_rng(k)
    grid = (rng.permutation(k) + 1.0) / k
    tied = rng.integers(1, k + 1, size=k) / k
    tied[1] = tied[0]
    nudged_tied = tied.copy()
    nudged_tied[2] = np.nextafter(nudged_tied[2], 0.0)
    cols = [grid, tied, tied * 0.5, nudged_tied]
    if nudge_grid:
        nudged = grid.copy()
        nudged[k // 2] = np.nextafter(nudged[k // 2], 0.0)
        cols.append(nudged)
    return np.column_stack(cols)


@settings(max_examples=300, deadline=None)
@given(arr=_rank_columns())
@example(arr=np.array([[1.0]]))
@example(arr=np.array([[0.5]]))
@example(arr=np.array([[1.0, 0.5], [0.5, 0.25]]))
@example(arr=_large_k_columns(1000, nudge_grid=False))
@example(arr=_large_k_columns(1000, nudge_grid=True))
@example(arr=_large_k_columns(3333, nudge_grid=False))
@example(arr=_large_k_columns(3333, nudge_grid=True))
def test_rank_grid_check_matches_per_column_loop(arr):
    try:
        rank_grid_check_loops(arr)
    except InvalidParam as exc:
        with pytest.raises(InvalidParam) as info:
            PseudoObs(arr)
        assert str(info.value) == str(exc)
    else:
        assert np.array_equal(PseudoObs(arr).values, arr)


def test_chi_matrix_validation():
    good = np.array([[1.0, 0.3], [0.3, 1.0]])
    ChiMatrix(good, k=10)
    with pytest.raises(InvalidParam):
        ChiMatrix(np.array([[1.0, 0.3], [0.2, 1.0]]), k=10)  # asymmetric
    with pytest.raises(InvalidParam):
        ChiMatrix(np.array([[0.9, 0.3], [0.3, 1.0]]), k=10)  # diagonal
    with pytest.raises(InvalidParam):
        ChiMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]), k=10)  # above 1
    with pytest.raises(InvalidParam):
        ChiMatrix(np.array([[1.0, -18.0], [-18.0, 1.0]]), k=10)  # below 3 - 2k
    with pytest.raises(InvalidParam):
        ChiMatrix(good, k=0)


@pytest.mark.parametrize(
    "kernel, instances, read",
    [
        (
            "pair_order",
            lambda rng: [chi_matrix(random_pobs(rng, 6, 3)) for _ in range(2)],
            lambda chi: chi.pair_order,
        ),
        (
            "pairwise_abs_diff_sums",
            lambda rng: [random_pobs(rng, 6, 3) for _ in range(2)],
            lambda pobs: pobs.abs_diff_sums,
        ),
    ],
    ids=["pair_order", "abs_diff_sums"],
)
def test_memos_of_two_instances_fill_concurrently(monkeypatch, rng, kernel, instances, read):
    objs = instances(rng)
    original = getattr(kernels, kernel)
    barrier = threading.Barrier(2, timeout=2)

    def waiting(values):
        # returns only once both threads are inside the kernel at once
        barrier.wait()
        return original(values)

    monkeypatch.setattr(kernels, kernel, waiting)
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(read, obj) for obj in objs]
        memos = [f.result(timeout=10) for f in futures]
    for obj, memo in zip(objs, memos):
        assert np.array_equal(memo, original(obj.values))
        assert read(obj) is memo and not memo.flags.writeable


# ---------------------------------------------------------------------------
# partitions


def test_canonicalize_sorts_members_and_groups():
    part = canonicalize([[1, 0], [2]], d=3)
    assert part.groups == ((0, 1), (2,))


def test_canonicalize_singletons_identity():
    part = canonicalize([[0], [1], [2]], d=3)
    assert part.groups == ((0,), (1,), (2,))


def test_canonicalize_errors():
    with pytest.raises(OverlapError):
        canonicalize([[0, 1], [1, 2]], d=3)
    with pytest.raises(CoverageError):
        canonicalize([[0], [2]], d=3)
    with pytest.raises(EmptyGroupError):
        canonicalize([[0, 1], []], d=2)
    with pytest.raises(IndexOutOfRange):
        canonicalize([[0, 5]], d=2)
    with pytest.raises(IndexOutOfRange):
        canonicalize([[-1, 0]], d=1)


def test_canonicalize_idempotent(rng):
    for _ in range(50):
        part = random_partition(rng, int(rng.integers(1, 9)))
        again = canonicalize(part.groups, part.d)
        assert again.groups == part.groups


def canonicalize_loop(groups, d):
    """canonicalize with its own overlap and coverage bookkeeping, one index at a time."""
    if d < 1:
        raise InvalidParam("d must be positive")
    cleaned = []
    seen = set()
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


def _faults(groups, d):
    """The error classes an input to canonicalize deserves, one per fault it has."""
    members = [i for g in groups for i in g]
    faults = set()
    if any(not g for g in groups):
        faults.add(EmptyGroupError)
    if any(not 0 <= i < d for i in members):
        faults.add(IndexOutOfRange)
    if len(set(members)) != len(members):
        faults.add(OverlapError)
    if not set(range(d)) <= set(members):
        faults.add(CoverageError)
    return faults


@st.composite
def _groups_and_d(draw):
    """A partition of range(d), in any order, with up to three faults put in."""
    d = draw(st.integers(-1, 6))
    labels = draw(st.lists(st.integers(0, 3), min_size=max(d, 0), max_size=max(d, 0)))
    groups = [
        list(draw(st.permutations([i for i in range(d) if labels[i] == lab])))
        for lab in draw(st.permutations(sorted(set(labels))))
    ]
    for fault in draw(st.lists(st.sampled_from(("empty", "outside", "overlap", "gap")), max_size=3)):
        members = [i for g in groups for i in g]
        if fault == "empty":
            groups.insert(draw(st.integers(0, len(groups))), [])
        elif fault == "outside":
            pos = draw(st.integers(0, len(groups)))
            if pos == len(groups):
                groups.append([])
            groups[pos].append(draw(st.sampled_from((-2, -1, d, d + 1))))
        elif fault == "overlap" and members:
            groups[draw(st.integers(0, len(groups) - 1))].append(draw(st.sampled_from(members)))
        elif fault == "gap" and members:
            victim = draw(st.sampled_from(members))
            groups = [h for h in ([i for i in g if i != victim] for g in groups) if h]
    return groups, d


def _outcome(fn, groups, d):
    try:
        return fn(groups, d)
    except TailclustError as exc:
        return exc


@settings(max_examples=1000, deadline=None)
@given(case=_groups_and_d())
@example(case=([[0, 1], [1, 2]], 3))
@example(case=([[0], [2]], 3))
@example(case=([[0, 1], []], 2))
@example(case=([[0, 5]], 2))
@example(case=([[-1, 0]], 1))
@example(case=([], 2))
@example(case=([[1, 0]], 3))
def test_canonicalize_matches_the_bookkeeping_loop(case):
    groups, d = case
    expect = _outcome(canonicalize_loop, groups, d)
    got = _outcome(canonicalize, groups, d)
    faults = _faults(groups, d)
    if d < 1:
        assert type(got) is type(expect) is InvalidParam
    elif not faults:
        assert got == expect
    elif len(faults) == 1:
        assert type(got) is type(expect) and type(got) in faults
        if isinstance(got, IndexOutOfRange):
            assert str(got) == str(expect)
    else:
        # several faults: each side may name a different one of them
        assert type(got) in faults and type(expect) in faults


@settings(max_examples=300, deadline=None)
@given(
    labels=st.lists(
        st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1)),
        min_size=1,
        max_size=12,
    )
)
def test_from_labels_groups_equal_labels(labels):
    groups = {}
    for idx, lab in enumerate(labels):
        groups.setdefault(lab, []).append(idx)
    expect = canonicalize(groups.values(), len(labels))
    assert _from_labels(labels) == expect
    assert _from_labels(np.array(labels, dtype=np.int64)) == expect


def test_package_exports_each_module_name_once():
    modules = (cluster, competitors, core, estimators, experiments, maxima, simulate)
    union = {name for module in modules for name in module.__all__}
    assert sum(len(module.__all__) for module in modules) == len(union)
    assert len(tailclust.__all__) == len(set(tailclust.__all__))
    assert set(tailclust.__all__) == {"__version__"} | union
    for module in modules:
        for name in module.__all__:
            assert getattr(tailclust, name) is getattr(module, name)


def test_partition_constructor_enforces_canonical_form():
    with pytest.raises(InvalidParam):
        Partition(((1, 0),))  # members unsorted
    with pytest.raises(InvalidParam):
        Partition(((2,), (0, 1)))  # groups out of order
    with pytest.raises(OverlapError):
        Partition(((0, 1), (1, 2)))
    with pytest.raises(CoverageError):
        Partition(((0,), (2,)))
    with pytest.raises(EmptyGroupError):
        Partition(())
    with pytest.raises(InvalidParam):
        Partition(((0, True),))  # bools are not indices


def test_partition_properties_and_labels():
    part = Partition(((0, 2), (1,)))
    assert part.d == 3
    assert part.n_groups == 2
    assert part.to_labels().tolist() == [0, 1, 0]


def test_partitions_equal_examples():
    a = canonicalize([[0, 1], [2]], 3)
    b = canonicalize([[2], [1, 0]], 3)
    c = canonicalize([[0], [1, 2]], 3)
    assert partitions_equal(a, b)
    assert not partitions_equal(a, c)
    assert partitions_equal(canonicalize([[0]], 1), canonicalize([[0]], 1))
    with pytest.raises(DimensionMismatch):
        partitions_equal(a, canonicalize([[0, 1]], 2))


def test_partitions_equal_matches_frozenset_comparison(rng):
    for _ in range(200):
        d = int(rng.integers(1, 9))
        a, b = random_partition(rng, d), random_partition(rng, d)
        brute = {frozenset(g) for g in a.groups} == {frozenset(g) for g in b.groups}
        assert partitions_equal(a, b) == brute


def test_is_subpartition_examples():
    singles = canonicalize([[i] for i in range(3)], 3)
    coarse = canonicalize([[0, 1], [2]], 3)
    assert is_subpartition(singles, coarse)
    assert not is_subpartition(canonicalize([[0, 1, 2]], 3), coarse)
    assert is_subpartition(
        canonicalize([[0, 1], [2], [3]], 4), canonicalize([[0, 1, 2], [3]], 4)
    )
    with pytest.raises(DimensionMismatch):
        is_subpartition(singles, canonicalize([[0]], 1))


def _brute_subpartition(s, o):
    return all(any(set(g) <= set(h) for h in o.groups) for g in s.groups)


def test_is_subpartition_reflexive_and_matches_brute_force(rng):
    for _ in range(200):
        d = int(rng.integers(1, 8))
        s, o = random_partition(rng, d), random_partition(rng, d)
        assert is_subpartition(s, s)
        assert is_subpartition(s, o) == _brute_subpartition(s, o)


def test_is_subpartition_transitive(rng):
    hits = 0
    for _ in range(500):
        d = int(rng.integers(2, 7))
        a, b, c = (random_partition(rng, d) for _ in range(3))
        if is_subpartition(a, b) and is_subpartition(b, c):
            hits += 1
            assert is_subpartition(a, c)
    assert hits > 0  # the property was actually exercised


def test_intersection_refines_both(rng):
    # common refinement via equivalence classes of paired labels
    for _ in range(100):
        d = int(rng.integers(1, 8))
        a, b = random_partition(rng, d), random_partition(rng, d)
        la, lb = a.to_labels(), b.to_labels()
        groups = {}
        for i in range(d):
            groups.setdefault((la[i], lb[i]), []).append(i)
        meet = canonicalize(groups.values(), d)
        assert is_subpartition(meet, a) and is_subpartition(meet, b)


# ---------------------------------------------------------------------------
# JSON round trip


def test_partition_json_round_trip():
    names = ("alpha", "beta", "gamma")
    part = canonicalize([[0, 2], [1]], 3)
    text = partition_to_json(part, names)
    assert partitions_equal(partition_from_json(text, names), part)
    assert '"clusters"' in text


def test_partition_json_name_order_is_canonical():
    text = partition_to_json(canonicalize([[2], [0, 1]], 3), ("a", "b", "c"))
    assert text.index('"a"') < text.index('"c"')


def test_partition_from_json_errors():
    names = ("a", "b")
    with pytest.raises(MalformedInput):
        partition_from_json("{not json", names)
    with pytest.raises(MalformedInput):
        partition_from_json('{"wrong": []}', names)
    with pytest.raises(MalformedInput):
        partition_from_json('{"clusters": [["a", "zzz"]]}', names)
    with pytest.raises(DimensionMismatch):
        partition_to_json(canonicalize([[0, 1]], 2), ("a",))


def test_partition_json_rejects_non_partitions():
    names = ("a", "b")
    with pytest.raises(OverlapError):
        partition_from_json('{"clusters": [["a", "b"], ["b"]]}', names)
    with pytest.raises(CoverageError):
        partition_from_json('{"clusters": [["a"]]}', names)


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "invalid partition JSON"),
        ('["a"]', 'partition JSON must be an object with a "clusters" key'),
        ('{"clusters": 5}', "each cluster must be a list of names"),
        ('{"clusters": [["a"], "b"]}', "each cluster must be a list of names"),
    ],
)
def test_partition_json_shape_is_checked_before_any_name(text, message):
    # _load_clusters needs no names; partition_from_json gives the same error
    with pytest.raises(MalformedInput, match=message):
        core._load_clusters(text)
    with pytest.raises(MalformedInput, match=message):
        partition_from_json(text, ("a", "b"))


def test_a_pool_killed_on_error_returns_before_its_busy_worker_would():
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="stopped in the caller"):
        with core._process_pool(1) as pool:
            busy = pool.submit(time.sleep, 60)
            raise RuntimeError("stopped in the caller")
    assert time.perf_counter() - start < 30
    assert busy.done()
    assert_no_child_left()
    # without an error the block waits for its worker's tasks, as a pool's own exit does
    with core._process_pool(1) as pool:
        done = pool.submit(sum, [1, 2])
    assert done.result() == 3
    assert_no_child_left()
