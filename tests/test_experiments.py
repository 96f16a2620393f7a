"""Experiment harness: configs, the replication grid, and CSV aggregation."""

import sys
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
    cfg1 = tiny_cfg(include_competitors=True, skm_restarts=2, threads=1)
    cfg4 = tiny_cfg(include_competitors=True, skm_restarts=2, threads=4)
    assert results_to_csv(run_experiment(cfg1)) == results_to_csv(run_experiment(cfg4))


@pytest.mark.parametrize("threads", [1, 2])
def test_run_experiment_stops_after_a_failed_replication(monkeypatch, threads):
    started = []

    def failing(cfg, gi, value, ri):
        started.append((gi, ri))
        if (gi, ri) == (0, 0):
            raise RuntimeError("replication failed")
        time.sleep(0.05)  # releases the lock, so the failure is seen mid-run
        return {"ECO": (True, None, 0.0)}

    monkeypatch.setattr(experiments, "_one_rep", failing)
    with pytest.raises(RuntimeError, match="replication failed"):
        run_experiment(tiny_cfg(reps=20, threads=threads))
    assert len(started) < 10  # of 40 replications


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
