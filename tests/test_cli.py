"""Command-line surface: flags, exit codes, files, and determinism."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from tailclust import tau_theory
from tailclust.cli import main


def write_csv(path, values, names):
    lines = [",".join(names)]
    for row in np.atleast_2d(values):
        lines.append(",".join(format(v, ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def comonotone_csv(tmp_path):
    rng = np.random.default_rng(101)
    raw = np.repeat(rng.random((40, 1)), 2, axis=1)
    path = tmp_path / "pair.csv"
    write_csv(path, raw, ("left", "right"))
    return path


@pytest.fixture
def noise_csv(tmp_path):
    # three columns from disjoint generator streams: no tail dependence
    cols = [np.random.default_rng(s).random(2000) for s in (1, 2, 3)]
    path = tmp_path / "noise.csv"
    write_csv(path, np.stack(cols, axis=1), ("a", "b", "c"))
    return path


# ---------------------------------------------------------------------------
# cluster


def test_cluster_comonotone_pair(comonotone_csv, capsys):
    rc = main(["cluster", "--input", str(comonotone_csv), "--block-size", "5", "--tau", "0.5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"clusters": [["left", "right"]]}


def test_cluster_independent_noise_gives_singletons(noise_csv, capsys):
    rc = main(["cluster", "--input", str(noise_csv), "--block-size", "20", "--tau", "0.5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"clusters": [["a"], ["b"], ["c"]]}


def test_cluster_writes_partition_chi_and_scan(noise_csv, tmp_path, capsys):
    part = tmp_path / "part.json"
    chi = tmp_path / "chi.csv"
    scan = tmp_path / "scan.csv"
    rc = main(
        [
            "cluster",
            "--input", str(noise_csv),
            "--block-size", "10",
            "--auto-tau",
            "--out-partition", str(part),
            "--out-chi", str(chi),
            "--out-scan", str(scan),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert "clusters" in json.loads(part.read_text())

    chi_lines = chi.read_text().strip().split("\n")
    assert chi_lines[0] == "a,b,c"
    assert len(chi_lines) == 4

    scan_lines = scan.read_text().strip().split("\n")
    assert scan_lines[0] == "tau,seco,n_clusters,selected"
    assert len(scan_lines) == 42  # default grid has 41 points
    assert sum(row.endswith(",1") for row in scan_lines[1:]) == 1


def test_cluster_clip_chi(comonotone_csv, tmp_path, capsys):
    chi = tmp_path / "chi.csv"
    rc = main(
        [
            "cluster",
            "--input", str(comonotone_csv),
            "--block-size", "5",
            "--tau", "0.5",
            "--clip-chi",
            "--out-chi", str(chi),
            "--out-partition", str(tmp_path / "p.json"),
        ]
    )
    assert rc == 0
    rows = chi.read_text().strip().split("\n")[1:]
    vals = np.array([[float(c) for c in r.split(",")] for r in rows])
    assert vals.min() >= 0.0 and vals.max() <= 1.0


def test_cluster_grid_flags(noise_csv, capsys):
    rc = main(
        [
            "cluster",
            "--input", str(noise_csv),
            "--block-size", "10",
            "--auto-tau",
            "--grid-lo", "0.1",
            "--grid-hi", "0.5",
            "--grid-n", "5",
        ]
    )
    assert rc == 0
    capsys.readouterr()


def test_cluster_rerun_is_byte_identical(noise_csv, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        rc = main(
            ["cluster", "--input", str(noise_csv), "--block-size", "10",
             "--auto-tau", "--out-partition", str(p)]
        )
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cluster_flag_errors(noise_csv, capsys):
    # each bad invocation exits 2 with a one-line diagnostic
    bad = [
        ["cluster", "--input", str(noise_csv), "--tau", "0.5"],  # no block size
        ["cluster", "--input", str(noise_csv), "--block-size", "5"],  # no mode
        ["cluster", "--input", str(noise_csv), "--block-size", "5", "--tau", "0.1", "--auto-tau"],
        ["cluster", "--input", str(noise_csv), "--block-size", "5", "--tau", "0.1", "--grid-n", "3"],
        ["cluster", "--input", str(noise_csv), "--block-size", "5", "--tau", "0.1", "--out-scan", "s.csv"],
        ["cluster", "--input", str(noise_csv), "--block-size", "5", "--auto-tau", "--grid-n", "0"],
        ["cluster", "--input", "/no/such/file.csv", "--block-size", "5", "--tau", "0.1"],
        ["cluster", "--input", str(noise_csv), "--block-size", "0", "--tau", "0.1"],
        ["cluster", "--input", str(noise_csv), "--block-size", "9999", "--tau", "0.1"],
        ["cluster", "--input", str(noise_csv), "--block-size", "5", "--tau", "-0.2"],
        ["cluster", "--input", str(noise_csv), "--block-size", "1500", "--tau", "0.1"],  # k = 1
        ["cluster", "--input", str(noise_csv), "--block-size", "1500", "--auto-tau"],
        ["nonsense"],
    ]
    for argv in bad:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_cluster_malformed_csv(tmp_path, capsys):
    cases = {
        "empty.csv": "",
        "text.csv": "a,b\n1.0,oops\n",
        "jagged.csv": "a,b\n1.0\n",
        "noheadernums.csv": "a,b\n",
        "blankbody.csv": "a,b\n\n  \n",
        "commentbody.csv": "a,b\n# no rows yet\n",
    }
    for name, content in cases.items():
        path = tmp_path / name
        path.write_text(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. loadtxt's "input contained no data"
            assert main(["cluster", "--input", str(path), "--block-size", "2", "--tau", "0.1"]) == 2
        err = capsys.readouterr().err
        if name in ("noheadernums.csv", "blankbody.csv", "commentbody.csv"):
            assert err.endswith(f"{name}: no data rows\n")


def test_cluster_rejects_constant_column(tmp_path, capsys):
    raw = np.random.default_rng(5).random((200, 4))
    raw[:, 2] = 5.0
    path = tmp_path / "flat.csv"
    write_csv(path, raw, ("a", "b", "c", "d"))
    for mode in (["--tau", "0.3"], ["--auto-tau"]):
        assert main(["cluster", "--input", str(path), "--block-size", "10", *mode]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: column 2 ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "draw.csv"
    argv = [
        "simulate", "--experiment", "E1", "--d", "4", "--n", "50",
        "--p", "0.9", "--seed", "5", "--out", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "v0,v1,v2,v3"
    assert len(lines) == 51
    meta = json.loads((tmp_path / "draw.csv.json").read_text())
    assert meta["experiment"] == "E1"
    assert meta["group_sizes"] == [2, 2]
    assert meta["clusters"] == [["v0", "v1"], ["v2", "v3"]]
    assert meta["seed"] == 5 and meta["p"] == 0.9
    capsys.readouterr()


def test_simulate_rerun_is_byte_identical(tmp_path):
    outs = [tmp_path / "one.csv", tmp_path / "two.csv"]
    for out in outs:
        argv = [
            "simulate", "--experiment", "E2", "--d", "12", "--n", "80",
            "--seed", "9", "--margins", "frechet", "--out", str(out),
        ]
        assert main(argv) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_simulate_flag_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    bad = [
        ["simulate", "--experiment", "E1", "--d", "7", "--n", "50", "--out", out],
        ["simulate", "--experiment", "E3", "--d", "8", "--n", "50", "--out", out],
        ["simulate", "--experiment", "E1", "--d", "4", "--n", "0", "--out", out],
        ["simulate", "--experiment", "E1", "--d", "4", "--n", "50", "--p", "0", "--out", out],
        ["simulate", "--experiment", "E1", "--d", "4", "--n", "50", "--beta", "0.5", "--out", out],
        ["simulate", "--experiment", "E4", "--d", "4", "--n", "50", "--out", out],
        ["simulate", "--experiment", "E1", "--d", "4", "--n", "50", "--out", "/no/dir/x.csv"],
    ]
    for argv in bad:
        assert main(argv) == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# experiment


def test_experiment_writes_results(tmp_path, capsys):
    out = tmp_path / "res.csv"
    argv = [
        "experiment", "--experiment", "E1", "--framework", "F1", "--d", "4",
        "--reps", "2", "--seed", "3", "--n", "1000", "--m-grid", "10,20",
        "--out", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "experiment,framework,grid_param,grid_value,algorithm,recovery_rate,mean_seco"
    assert len(lines) == 3
    capsys.readouterr()


def test_experiment_timings_column_is_opt_in(tmp_path, capsys):
    out = tmp_path / "res.csv"
    argv = [
        "experiment", "--experiment", "E1", "--framework", "F1", "--d", "4",
        "--reps", "1", "--n", "500", "--m-grid", "10", "--timings",
        "--out", str(out),
    ]
    assert main(argv) == 0
    assert out.read_text().splitlines()[0].endswith(",wall_seconds")
    capsys.readouterr()


def test_experiment_runtime_failure_exits_three(tmp_path, capsys):
    out = tmp_path / "res.csv"
    argv = [
        "experiment", "--experiment", "E1", "--framework", "F2", "--d", "4",
        "--reps", "1", "--m", "10", "--k-grid", "0", "--out", str(out),
    ]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: experiment failed")
    assert not out.exists()


def test_experiment_flag_errors(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    bad = [
        ["experiment", "--experiment", "E1", "--framework", "F7", "--d", "4", "--out", out],
        ["experiment", "--experiment", "E1", "--framework", "F1", "--d", "4",
         "--m-grid", "ten", "--out", out],
        ["experiment", "--experiment", "E1", "--framework", "F1", "--d", "4",
         "--reps", "0", "--out", out],
        ["experiment", "--experiment", "E1", "--framework", "F1", "--d", "4"],
    ]
    for argv in bad:
        assert main(argv) == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# seco


def test_seco_single_group_prints_zero(comonotone_csv, tmp_path, capsys):
    part = tmp_path / "one.json"
    part.write_text('{"clusters": [["left", "right"]]}')
    rc = main(["seco", "--input", str(comonotone_csv), "--block-size", "5",
               "--partition", str(part)])
    assert rc == 0
    assert capsys.readouterr().out == "0\n"


def test_seco_matches_library_value(noise_csv, tmp_path, capsys):
    from conftest import pobs_of
    from tailclust import canonicalize, seco

    part = tmp_path / "p.json"
    part.write_text('{"clusters": [["a", "c"], ["b"]]}')
    rc = main(["seco", "--input", str(noise_csv), "--block-size", "10",
               "--partition", str(part)])
    assert rc == 0
    printed = float(capsys.readouterr().out)
    raw = np.loadtxt(noise_csv, delimiter=",", skiprows=1)
    k = raw.shape[0] // 10
    maxima = raw[: k * 10].reshape(k, 10, 3).max(axis=1)
    expect = seco(pobs_of(maxima), canonicalize([[0, 2], [1]], 3))
    assert printed == pytest.approx(expect, abs=1e-15)


def test_seco_errors(noise_csv, tmp_path, capsys):
    part = tmp_path / "bad.json"
    part.write_text('{"clusters": [["a", "zzz"], ["b"], ["c"]]}')
    assert main(["seco", "--input", str(noise_csv), "--block-size", "10",
                 "--partition", str(part)]) == 2
    capsys.readouterr()
    assert main(["seco", "--input", str(noise_csv), "--block-size", "10",
                 "--partition", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# round trip and wiring


def test_simulate_then_cluster_round_trip(tmp_path, capsys):
    data = tmp_path / "e1.csv"
    argv = [
        "simulate", "--experiment", "E1", "--d", "8", "--n", "10000",
        "--p", "1.0", "--seed", "7", "--out", str(data),
    ]
    assert main(argv) == 0
    truth = json.loads((tmp_path / "e1.csv.json").read_text())["clusters"]

    part = tmp_path / "est.json"
    tau = tau_theory(20, 8, 500)
    rc = main(["cluster", "--input", str(data), "--block-size", "20",
               "--tau", format(tau, ".17g"), "--out-partition", str(part)])
    assert rc == 0
    assert json.loads(part.read_text())["clusters"] == truth
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["cluster", "--help"]) == 0
    capsys.readouterr()


def test_module_and_console_entry_points():
    env = dict(os.environ)
    out = subprocess.run(
        [sys.executable, "-m", "tailclust", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0
    assert "cluster" in out.stdout
