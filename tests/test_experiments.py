"""Experiment harness: configs, the replication grid, and CSV aggregation."""

import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from tailclust import (
    BlockTooLarge,
    DimensionMismatch,
    ExperimentConfig,
    InvalidParam,
    ResultRow,
    canonicalize,
    default_grid,
    exact_recovery_rate,
    results_to_csv,
    run_experiment,
)
from tailclust import core, experiments, simulate

from conftest import assert_no_child_left


def tiny_cfg(**overrides):
    base = dict(
        experiment="E1",
        framework="F1",
        d=4,
        p=1.0,
        reps=3,
        master_seed=17,
        n=2_000,
        m_grid=(10, 20),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(InvalidParam):
        tiny_cfg(experiment="E7")
    with pytest.raises(InvalidParam):
        tiny_cfg(framework="F9")
    with pytest.raises(InvalidParam):
        tiny_cfg(reps=0)
    with pytest.raises(InvalidParam):
        tiny_cfg(p=0.0)
    with pytest.raises(InvalidParam):
        tiny_cfg(p=1.2)
    with pytest.raises(InvalidParam):
        tiny_cfg(threads=0)
    with pytest.raises(InvalidParam):
        tiny_cfg(m_grid=())
    with pytest.raises(InvalidParam):
        tiny_cfg(framework="F2", k_grid=())


@pytest.mark.parametrize(
    "overrides, error",
    [
        (dict(m_grid=(10, 0)), InvalidParam),
        (dict(m_grid=(-3,)), InvalidParam),
        (dict(m_grid=(10, 20_000)), BlockTooLarge),
        (dict(m_grid=(1_001,)), BlockTooLarge),  # one block of 2000 steps
        (dict(framework="F2", k_grid=(0,)), InvalidParam),
        (dict(framework="F2", k_grid=(50, 1)), InvalidParam),
        (dict(framework="F2", m=0, k_grid=(50,)), InvalidParam),
        (dict(framework="F3", tau_grid=(0.1, -1.0)), InvalidParam),
        (dict(framework="F3", tau_grid=(float("nan"),)), InvalidParam),
        (dict(framework="F3", tau_grid=(float("inf"),)), InvalidParam),
        (dict(framework="F3", m=0), InvalidParam),
        (dict(framework="F3", m=1_500), BlockTooLarge),
    ],
)
def test_config_checks_the_active_grid(overrides, error):
    with pytest.raises(error):
        tiny_cfg(**overrides)


def test_config_ignores_the_inactive_grids():
    # only the framework's own grid is run, so only it is checked
    tiny_cfg(framework="F1", k_grid=(0,), tau_grid=(-1.0,), m=0)
    tiny_cfg(framework="F2", m=10, m_grid=(0,), tau_grid=(-1.0,))
    tiny_cfg(framework="F3", m=10, m_grid=(0,), k_grid=(0,), tau_grid=(0.0, 0.5))
    tiny_cfg(m_grid=(1, 1_000))  # the bounds: 2000 and 2 blocks


def test_config_grid_dispatch():
    assert tiny_cfg().grid() == ("m", (10, 20))
    assert tiny_cfg(framework="F2", k_grid=(50, 100)).grid() == ("k", (50, 100))
    name, taus = tiny_cfg(framework="F3", n=10_000, m=20).grid()
    assert name == "tau"
    assert list(taus) == default_grid(20, 4, 500)
    explicit = tiny_cfg(framework="F3", tau_grid=(0.1, 0.2)).grid()
    assert explicit == ("tau", (0.1, 0.2))


def test_result_row_validates_rate():
    with pytest.raises(InvalidParam):
        ResultRow("E1", "F1", "m", 10.0, "ECO", 1.5, None, 0.0)


# ---------------------------------------------------------------------------
# recovery metric


def test_exact_recovery_rate_counts_set_equality():
    truth = canonicalize([[0, 1], [2]], 3)
    same = canonicalize([[2], [1, 0]], 3)
    other = canonicalize([[0], [1], [2]], 3)
    assert exact_recovery_rate([same, other, truth], truth) == pytest.approx(2 / 3)
    with pytest.raises(InvalidParam):
        exact_recovery_rate([], truth)
    with pytest.raises(DimensionMismatch):
        exact_recovery_rate([canonicalize([[0]], 1)], truth)


# ---------------------------------------------------------------------------
# harness


def test_run_experiment_row_layout():
    rows = run_experiment(tiny_cfg())
    assert [(r.grid_param, r.grid_value, r.algorithm) for r in rows] == [
        ("m", 10.0, "ECO"),
        ("m", 20.0, "ECO"),
    ]
    for r in rows:
        assert 0.0 <= r.recovery_rate <= 1.0
        assert r.mean_seco is None  # seco is tracked only on the tau grid
        assert r.wall_seconds >= 0.0


def test_run_experiment_with_competitors_orders_algorithms():
    rows = run_experiment(tiny_cfg(include_competitors=True, skm_restarts=2))
    assert [r.algorithm for r in rows] == ["ECO", "HC", "SKM", "ECO", "HC", "SKM"]


def test_run_experiment_f3_reports_mean_seco():
    cfg = tiny_cfg(framework="F3", n=2_000, m=10, tau_grid=(0.2, 0.4))
    rows = run_experiment(cfg)
    assert len(rows) == 2
    for r in rows:
        assert r.grid_param == "tau"
        assert r.mean_seco is not None


def test_run_experiment_thread_count_does_not_change_results():
    for overrides in (
        dict(include_competitors=True, skm_restarts=2),
        dict(framework="F3", n=2_000, m=10, tau_grid=(0.2, 0.4)),  # with mean_seco
    ):
        csvs = {
            threads: results_to_csv(run_experiment(tiny_cfg(threads=threads, **overrides)))
            for threads in (1, 2, 4, 8)
        }
        assert csvs[1] == csvs[2] == csvs[4] == csvs[8]
        # every worker process has exited by the time the rows are back
        assert_no_child_left()


def test_run_experiment_starts_no_more_workers_than_replications(monkeypatch):
    started = []

    class RecordingPool:
        """Records the worker count and runs the tasks here, starting nothing."""

        def __init__(self, max_workers, mp_context=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # 2 replications: this process and one worker process
    rows = run_experiment(tiny_cfg(reps=1, threads=10**6))
    assert started == [1]
    assert results_to_csv(rows) == results_to_csv(run_experiment(tiny_cfg(reps=1)))
    run_experiment(tiny_cfg(reps=2, threads=3))  # 4 replications on 3 workers
    assert started == [1, 2]
    run_experiment(tiny_cfg(reps=1, m_grid=(10,), threads=10**6))  # 1: no process pool
    assert started == [1, 2]


def test_run_experiment_spawns_workers_while_another_thread_runs(monkeypatch):
    # a fork copies only the calling thread, so a process with another
    # thread running spawns its workers instead
    methods = []
    get_context = multiprocessing.get_context

    def recording(method=None):
        methods.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", recording)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        rows = run_experiment(tiny_cfg(threads=2))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert methods == ["spawn"]
    assert results_to_csv(rows) == results_to_csv(run_experiment(tiny_cfg(threads=1)))
    run_experiment(tiny_cfg(threads=2))
    assert methods[1:] == ["fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"]
    assert_no_child_left()


@pytest.mark.parametrize(
    "threads, fail, slow",
    [
        pytest.param(1, 0, None, id="1"),
        pytest.param(2, 0, None, id="2"),
        pytest.param(2, 1, None, id="2-in-worker"),
        # the caller fails at once while the worker sleeps 60 s in replication 1
        pytest.param(2, 0, 1, id="2-worker-busy"),
    ],
)
def test_run_experiment_stops_after_a_failed_replication(monkeypatch, tmp_path, threads, fail, slow):
    # one file per started replication, named by the task and holding the
    # pid, because a worker process cannot append to a list in this one
    def failing(cfg, gi, value, ri):
        (tmp_path / f"{gi}-{ri}").write_text(str(os.getpid()))
        if (gi, ri) == (0, fail):
            raise RuntimeError("replication failed")
        time.sleep(60 if (gi, ri) == (0, slow) else 0.05)  # so the failure is seen mid-run
        return {"ECO": (True, None, 0.0)}

    monkeypatch.setattr(experiments, "_one_rep", failing)
    reps = 20
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="replication failed"):
        run_experiment(tiny_cfg(reps=reps, threads=threads))
    # busy workers are killed, not waited for
    assert time.perf_counter() - start < 30
    started = {path.name: int(path.read_text()) for path in tmp_path.iterdir()}
    assert f"0-{fail}" in started
    assert len(started) < 10  # of 40 replications
    # this process runs every threads-th replication from the first, worker
    # processes the rest: with 2 workers a failure on either side stops both
    for name, pid in started.items():
        gi, ri = map(int, name.split("-"))
        assert (pid == os.getpid()) == ((gi * reps + ri) % threads == 0)
    assert_no_child_left()


@pytest.mark.parametrize("threads", [2, 4])
def test_run_experiment_runs_a_dead_workers_replications_itself(monkeypatch, tmp_path, threads):
    caller, one_rep = os.getpid(), experiments._one_rep
    died = tmp_path / "died"

    def dying(cfg, gi, value, ri):
        if os.getpid() != caller and (gi, ri) == (0, 1):
            died.write_text(str(os.getpid()))
            os._exit(1)
        return one_rep(cfg, gi, value, ri)

    monkeypatch.setattr(experiments, "_one_rep", dying)
    overrides = dict(reps=3, include_competitors=True, skm_restarts=2)
    alone = results_to_csv(run_experiment(tiny_cfg(**overrides)))
    assert not died.exists()
    # each replication is seeded by (master_seed, gi, ri), wherever it runs
    assert results_to_csv(run_experiment(tiny_cfg(threads=threads, **overrides))) == alone
    assert died.exists() == ("fork" in multiprocessing.get_all_start_methods())
    assert_no_child_left()


def test_import_loads_no_process_machinery():
    # the process pool is imported only when a run asks for workers, and
    # the CLI's reader imports multiprocessing only when it forks
    code = (
        "import sys, tailclust, tailclust.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


@pytest.mark.parametrize(
    "overrides",
    [
        dict(p=0.6),
        dict(framework="F2", m=10, k_grid=(30,), p=0.8, include_competitors=True, skm_restarts=2),
        dict(framework="F3", n=1_000, m=10, tau_grid=(0.3,)),
    ],
    ids=["F1", "F2", "F3"],
)
def test_a_replication_never_builds_the_series(monkeypatch, overrides):
    calls = {"SeriesMatrix": 0, "repetition_process": 0}
    validate = core.SeriesMatrix.__post_init__
    process = simulate.repetition_process

    def counted_validate(self):
        calls["SeriesMatrix"] += 1
        validate(self)

    def counted_process(*args, **kwargs):
        calls["repetition_process"] += 1
        return process(*args, **kwargs)

    monkeypatch.setattr(core.SeriesMatrix, "__post_init__", counted_validate)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tailclust" and getattr(module, "repetition_process", None) is process:
            monkeypatch.setattr(module, "repetition_process", counted_process)
    rows = run_experiment(tiny_cfg(reps=2, **overrides))
    assert rows
    assert calls == {"SeriesMatrix": 0, "repetition_process": 0}
    # the counters do count: the simulate command's path still builds one
    simulate.repetition_process(
        simulate.RepetitionConfig(p=0.5, n=10, model=simulate.NestedModel(1.0, 1.0, (1.5,), (2,))),
        np.random.default_rng(0),
    )
    assert calls == {"SeriesMatrix": 1, "repetition_process": 1}


def test_run_experiment_rerun_is_byte_identical():
    cfg = tiny_cfg()
    assert results_to_csv(run_experiment(cfg)) == results_to_csv(run_experiment(cfg))


def test_run_experiment_f2_scales_series_length():
    cfg = tiny_cfg(framework="F2", m=10, k_grid=(30, 60), reps=2)
    rows = run_experiment(cfg)
    assert [r.grid_value for r in rows] == [30.0, 60.0]


def test_results_to_csv_layout():
    rows = [
        ResultRow("E1", "F1", "m", 10.0, "ECO", 0.5, None, 1.25),
        ResultRow("E1", "F3", "tau", 0.25, "ECO", 1.0, 0.125, 2.5),
    ]
    text = results_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "experiment,framework,grid_param,grid_value,algorithm,recovery_rate,mean_seco"
    assert lines[1] == "E1,F1,m,10,ECO,0.5,"
    assert lines[2] == "E1,F3,tau,0.25,ECO,1,0.125"
    timed = results_to_csv(rows, timings=True)
    assert timed.startswith(lines[0] + ",wall_seconds")
    assert timed.strip().split("\n")[1].endswith(",1.25")
