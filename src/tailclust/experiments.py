"""Seeded experiment harness: recovery rates over parameter grids.

Framework F1 sweeps the block length m at fixed series length, F2 sweeps the
block count k at fixed m, F3 sweeps the clustering threshold tau at fixed
(n, m). Every (grid point, replication) pair gets an independent generator
seeded by (master_seed, grid index, replication index), so results do not
depend on the worker count.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cluster import default_grid, eco_cluster
from .competitors import hc_cluster, madogram_dissimilarity, skmeans_cluster
from .core import (
    BlockTooLarge,
    DimensionMismatch,
    InvalidParam,
    Partition,
    _check_block_length,
    _fmt,
    _in_worker,
    _process_pool,
    partitions_equal,
)
from .estimators import chi_matrix, seco, tau_theory
from .maxima import pseudo_obs
from .simulate import (
    RepetitionConfig,
    _check_layout,
    build_experiment_model,
    repetition_block_maxima,
)

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "exact_recovery_rate",
    "run_experiment",
    "results_to_csv",
]

_FRAMEWORKS = ("F1", "F2", "F3")


@dataclass(frozen=True)
class ExperimentConfig:
    """Layout, framework grid, and replication budget for one study.

    threads is the number of parallel workers: the calling process and, when
    > 1, threads - 1 worker processes (see run_experiment).
    """

    experiment: str
    framework: str
    d: int
    p: float = 1.0
    beta: float = 10.0 / 7.0
    reps: int = 100
    master_seed: int = 0
    n: int = 10_000
    m: int = 20
    m_grid: tuple[int, ...] = (3, 6, 9, 12, 15, 18, 21, 24, 27, 30)
    k_grid: tuple[int, ...] = (50, 100, 200, 300, 400, 500)
    tau_grid: tuple[float, ...] = ()
    include_competitors: bool = False
    skm_restarts: int = 10
    threads: int = 1

    def __post_init__(self):
        _check_layout(self.experiment, self.d)
        if self.framework not in _FRAMEWORKS:
            raise InvalidParam(f"framework must be one of {_FRAMEWORKS}")
        if self.reps < 1:
            raise InvalidParam("reps must be positive")
        if not 0.0 < self.p <= 1.0:
            raise InvalidParam("p must lie in (0, 1]")
        if not math.isfinite(self.beta):
            raise InvalidParam("beta must be finite")
        if not self.beta >= 1.0:
            raise InvalidParam("beta must be at least 1")
        if self.include_competitors and self.skm_restarts < 1:
            raise InvalidParam("restarts must be positive")
        if self.threads < 1:
            raise InvalidParam("threads must be positive")
        # every replication clusters, and clustering needs at least 2 blocks
        if self.framework == "F1":
            if not self.m_grid:
                raise InvalidParam("F1 needs a nonempty m grid")
            for m in self.m_grid:
                _check_two_blocks(m, self.n)
        elif self.framework == "F2":
            if not self.k_grid:
                raise InvalidParam("F2 needs a nonempty k grid")
            if min(self.k_grid) < 2:
                raise InvalidParam("every k grid value must be at least 2 blocks")
            # grid point k simulates k * m steps
            _check_block_length(self.m, self.m * min(self.k_grid))
        else:
            _check_two_blocks(self.m, self.n)
            if not all(math.isfinite(tau) and tau >= 0.0 for tau in self.tau_grid):
                raise InvalidParam("every tau grid value must be finite and nonnegative")

    def grid(self) -> tuple[str, tuple]:
        """Name and values of the active framework grid."""
        if self.framework == "F1":
            return "m", tuple(self.m_grid)
        if self.framework == "F2":
            return "k", tuple(self.k_grid)
        taus = self.tau_grid or tuple(default_grid(self.m, self.d, self.n // self.m))
        return "tau", taus


def _check_two_blocks(m: int, n: int) -> None:
    """Reject a block length m that leaves fewer than 2 blocks of n steps."""
    _check_block_length(m, n)
    if n // m < 2:
        raise BlockTooLarge(f"block length {m} leaves fewer than 2 blocks of series length {n}")


@dataclass(frozen=True)
class ResultRow:
    """Aggregate for one (grid point, algorithm) cell.

    wall_seconds is the clustering time summed over the cell's replications.
    It leaves out simulation and ranking, and HC's time leaves out the
    pairwise madogram sums, which it reuses from ECO's chi.
    """

    experiment: str
    framework: str
    grid_param: str
    grid_value: float
    algorithm: str
    recovery_rate: float
    mean_seco: float | None
    wall_seconds: float

    def __post_init__(self):
        if not 0.0 <= self.recovery_rate <= 1.0:
            raise InvalidParam("recovery rate must lie in [0, 1]")


def exact_recovery_rate(estimates: Sequence[Partition], truth: Partition) -> float:
    """Fraction of estimated partitions equal to the truth as sets of sets."""
    if not estimates:
        raise InvalidParam("need at least one estimate")
    for est in estimates:
        if est.d != truth.d:
            raise DimensionMismatch(f"partition over {est.d} variables, truth has {truth.d}")
    return sum(partitions_equal(est, truth) for est in estimates) / len(estimates)


def _one_rep(cfg: ExperimentConfig, gi: int, value, ri: int) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence((cfg.master_seed, gi, ri)))
    model, truth = build_experiment_model(cfg.experiment, cfg.d, cfg.beta, rng)
    if cfg.framework == "F1":
        m, n = int(value), cfg.n
    elif cfg.framework == "F2":
        m, n = cfg.m, cfg.m * int(value)
    else:
        m, n = cfg.m, cfg.n
    # the maxima are freed once ranked
    pobs = pseudo_obs(repetition_block_maxima(RepetitionConfig(p=cfg.p, n=n, model=model), m, rng))
    k = n // m

    out = {}
    t0 = time.perf_counter()
    chi = chi_matrix(pobs)
    tau = float(value) if cfg.framework == "F3" else tau_theory(m, cfg.d, k)
    part = eco_cluster(chi, tau)
    hit = partitions_equal(part, truth)
    s = seco(pobs, part) if cfg.framework == "F3" else None
    out["ECO"] = (hit, s, time.perf_counter() - t0)

    if cfg.include_competitors:
        g = truth.n_groups
        t0 = time.perf_counter()
        hc = hc_cluster(madogram_dissimilarity(pobs), g)
        out["HC"] = (partitions_equal(hc, truth), None, time.perf_counter() - t0)
        t0 = time.perf_counter()
        km = skmeans_cluster(pobs, g, cfg.skm_restarts, rng)
        out["SKM"] = (partitions_equal(km, truth), None, time.perf_counter() - t0)
    return out


def _run_task(cfg: ExperimentConfig, task: tuple) -> dict:
    # module level, so a process pool can pickle it; _one_rep is looked up
    # at call time
    return _one_rep(cfg, *task)


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Simulate, cluster, and aggregate recovery per grid point and algorithm.

    F1/F2 cluster at tau_theory(m, d, k) for the grid point's (m, k); F3
    clusters at the grid tau and also averages the SECO of the resulting
    partitions. Aggregation order is fixed by (grid index, replication
    index), so rows are identical for any worker count.

    The replications run on w = min(cfg.threads, replications) workers. The
    calling process is one of them: it runs every w-th replication from the
    first, and w - 1 worker processes run the others, since a replication
    makes many short numpy calls and threads would hand the interpreter lock
    to each other. Every worker task is handed out first; the results are
    then read in index order, and the calling process runs its own between
    reads. Workers are forked when no other thread is running, else spawned.
    Once a replication raises, the busy workers are killed, not waited for,
    and every worker has exited when this returns or raises. A worker that
    dies has its replications run by the calling process, with the same rows.
    """
    grid_param, grid_values = cfg.grid()
    tasks = [(gi, value, ri) for gi, value in enumerate(grid_values) for ri in range(cfg.reps)]
    run = functools.partial(_run_task, cfg)
    # a process pool starts all its workers at once, so never more than tasks
    workers = min(cfg.threads, len(tasks))
    with _process_pool(workers - 1) as pool:
        pending = [_in_worker(pool if i % workers else None, run, task) for i, task in enumerate(tasks)]
        results = [result() for result in pending]

    algorithms = ("ECO", "HC", "SKM") if cfg.include_competitors else ("ECO",)
    rows = []
    for gi, value in enumerate(grid_values):
        cell = results[gi * cfg.reps : (gi + 1) * cfg.reps]
        for alg in algorithms:
            hits = [rep[alg][0] for rep in cell]
            secos = [rep[alg][1] for rep in cell if rep[alg][1] is not None]
            elapsed = sum(rep[alg][2] for rep in cell)
            rows.append(
                ResultRow(
                    experiment=cfg.experiment,
                    framework=cfg.framework,
                    grid_param=grid_param,
                    grid_value=float(value),
                    algorithm=alg,
                    recovery_rate=sum(hits) / len(hits),
                    mean_seco=(sum(secos) / len(secos)) if secos else None,
                    wall_seconds=elapsed,
                )
            )
    return rows


def results_to_csv(rows: Sequence[ResultRow], timings: bool = False) -> str:
    """One row per ResultRow; wall-clock column only on request, since
    timings vary between byte-identical reruns."""
    header = "experiment,framework,grid_param,grid_value,algorithm,recovery_rate,mean_seco"
    if timings:
        header += ",wall_seconds"
    lines = [header]
    for r in rows:
        fields = [
            r.experiment,
            r.framework,
            r.grid_param,
            _fmt(r.grid_value),
            r.algorithm,
            _fmt(r.recovery_rate),
            "" if r.mean_seco is None else _fmt(r.mean_seco),
        ]
        if timings:
            fields.append(_fmt(r.wall_seconds))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"
