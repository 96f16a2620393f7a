"""Span tracing of tailclust from outside the package.

install() replaces each public function of each tailclust module with a
timing wrapper, in every module namespace where that function is looked up
(tailclust.cli.chi_matrix, tailclust.cluster.chi_matrix, the kernels module
attributes, ...), plus the __post_init__ validators of the four array types
as "core.validate". uninstall() puts the originals back. Nothing inside
src/tailclust changes.

A span is (id, name, start, end, parent, thread, note). Each thread keeps its
own stack of open spans; a span opened on a thread with an empty stack (a
worker of the experiment thread pool) takes as parent the innermost open span
of the thread that runs the job, so the threaded workload nests correctly.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

# Formatting helpers stay unwrapped, so their time counts as the self time of
# cli.main (parse, format and write).
UNWRAPPED = {"chi_to_csv", "scan_to_csv", "results_to_csv", "partition_to_json", "partition_from_json"}
LAYERS = ("cli", "experiments", "simulate", "maxima", "core", "estimators", "cluster", "kernels", "competitors")
VALIDATED = ("SeriesMatrix", "MaximaMatrix", "PseudoObs", "ChiMatrix")


def _pairwise_note(args, kwargs, result):
    k, d = args[0].shape
    pairs = d * (d - 1) // 2
    # the bytes the pairwise differences read: two k-vectors of float64 per pair
    return {"ops": k * pairs, "bytes": 16 * k * pairs}


# Counts read from a call's arguments and result, per span name.
NOTES = {
    "kernels.pairwise_abs_diff_sums": _pairwise_note,
    "kernels.subset_gap_sum": lambda a, kw, r: {"elements": a[0].shape[0] * a[1].size},
    "kernels.eco_labels": lambda a, kw, r: {"iterations": int(r.max()) + 1 if r.size else 0},
    "cluster.select_threshold": lambda a, kw, r: {"grid_points": len(r.grid)},
    "cluster.eco_cluster": lambda a, kw, r: {"partition": r.groups},
    "simulate.repetition_process": lambda a, kw, r: {"values_drawn": r.values.size},
}


class Tracer:
    """Collects spans from wrapped tailclust functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        note_of = NOTES.get(name)
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._job_stack[-1] if self._job_stack else 0)
            # next() on a count and list.append are single atomic calls in CPython
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            # a call that raised leaves no span; its job counts as failed
            note = note_of(args, kwargs, result) if note_of else None
            spans.append((sid, name, start, end, parent, threading.get_ident(), note))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced name in every tailclust module that binds it."""
        import tailclust
        from tailclust import core

        modules = [importlib.import_module(f"tailclust.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if callable(obj) and not isinstance(obj, type) and attr not in UNWRAPPED:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in [tailclust, *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for cls_name in VALIDATED:
            cls = getattr(core, cls_name)
            self._patch(cls, "__post_init__", self._wrap("core.validate", cls.__post_init__))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def job(self, fn):
        """Run fn() under a root span named "job"; return (result, job span id)."""
        stack = self._stack()
        self._job_stack = stack
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, "job", start, end, 0, threading.get_ident(), None))
        return result, sid


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - _union_length(children.get(sid, ()))
        for sid, _, start, end, _, _, _ in spans
    }


def job_metrics(spans, job_id: int, threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced job from its spans."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, parent, _, note in spans:
        if sid == job_id:
            continue
        out[f"{name}.self_s"] += selfs[sid]
        out[f"{name}.calls"] += 1
        if note and name != "cluster.eco_cluster":
            for key, value in note.items():
                out[f"{name}.{key}"] += value
    pairwise = "kernels.pairwise_abs_diff_sums"
    out[f"{pairwise}.mb_computed"] = out.pop(f"{pairwise}.bytes", 0.0) / 1e6

    scans = [s for s in spans if s[1] == "cluster.select_threshold"]
    distinct = 0
    for scan in scans:
        distinct += len({s[6]["partition"] for s in spans
                         if s[1] == "cluster.eco_cluster" and s[4] == scan[0] and s[6]})
    grid = out.get("cluster.select_threshold.grid_points", 0.0)
    out["cluster.scan.grid_points"] = grid
    out["cluster.scan.distinct_partitions"] = float(distinct)
    out["cluster.scan.useful_ratio"] = distinct / grid if grid else 0.0

    busy = wall = 0.0
    for run in (s for s in spans if s[1] == "experiments.run_experiment"):
        wall += (run[3] - run[2]) * threads
        busy += sum(s[3] - s[2] for s in spans if s[4] == run[0])
    out["experiments.busy_ratio"] = busy / wall if wall else 0.0

    job = by_id[job_id]
    covered = _union_length([(s[2], s[3]) for s in spans if s[4] == job_id])
    out["trace.uncovered_ratio"] = 1.0 - covered / (job[3] - job[2])
    return dict(out)
