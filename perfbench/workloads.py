"""Workload definitions: seeded inputs, one job each, and output checks.

A workload is a closed loop of identical jobs in one process. The seed picks
one of N_CASES input cases; reference outputs for every case are stored in
references.json (regenerate with make_refs.py), so a job's outputs are
checked exactly, or within CHI_TOL where a change of summation order may move
the last digits (chi and SECO values).

cli_autotau reads a CSV that this module generates with its own numpy code
(a max-linear Frechet factor model with 40 blocks), never with tailclust.simulate,
so a change to the simulator cannot shift that workload's input.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

N_CASES = 20
CHI_TOL = 1e-12

# cli_autotau sizes: d = 400 columns, n = 20000 rows, block length m = 20,
# so k = 1000 blocks. Block sizes are fixed and the factor loadings are an
# even grid, so seeds change the draw and the column order but not the
# amount of work, and the run-to-run spread stays small. With five blocks of
# 25 to 150 columns, or twenty of 20 with loadings from 0.3, the extremal
# coefficient of a block is large and its estimate noisy enough that the
# scan selects a wrong partition on some cases; forty blocks of 10 with
# loadings in [0.4, 0.8] are recovered on every stored case, so
# recovery_rate is never 0.
CLI_N, CLI_D, CLI_M = 20_000, 400, 20
CLI_BLOCKS = (10,) * 40
CLI_LOADINGS = (0.4, 0.8)

WORKLOADS = ("cli_autotau", "experiment_f1", "experiment_competitors")


def case_of(seed: int) -> int:
    """Input case for a seed: references exist for cases 0..N_CASES-1."""
    return seed % N_CASES


def experiment_config(workload: str, case: int):
    """The ExperimentConfig an experiment workload runs for one case."""
    from tailclust import ExperimentConfig

    if workload == "experiment_f1":
        return ExperimentConfig("E2", "F1", d=60, p=0.9, reps=16, threads=1, master_seed=case)
    if workload == "experiment_competitors":
        return ExperimentConfig(
            "E3", "F2", d=100, p=0.9, reps=8, threads=2,
            include_competitors=True, master_seed=case,
        )
    raise ValueError(f"not an experiment workload: {workload}")


# ---------------------------------------------------------------------------
# cli_autotau input


@dataclass(frozen=True)
class CliInput:
    csv: Path
    digest: str
    truth: tuple[tuple[str, ...], ...]


def write_cli_input(case: int, path: Path) -> CliInput:
    """Draw the factor model for a case, write it as CSV, return its digest.

    Column j loads on the Frechet factor of its block with weight w_j and on
    its own Frechet noise with weight 1 - w_j: X_j = max(w_j Z_b(j), (1 - w_j) E_j).
    Columns in one block have extremal correlation min(w_i, w_j) >= 0.4;
    columns in different blocks are asymptotically independent.
    """
    rng = np.random.default_rng(np.random.SeedSequence((20261017, case)))
    block = np.repeat(np.arange(len(CLI_BLOCKS)), CLI_BLOCKS)
    weights = np.linspace(*CLI_LOADINGS, CLI_D)
    block = block[rng.permutation(CLI_D)]
    weights = weights[rng.permutation(CLI_D)]
    factors = 1.0 / rng.standard_exponential((CLI_N, len(CLI_BLOCKS)))
    noise = 1.0 / rng.standard_exponential((CLI_N, CLI_D))
    x = np.maximum(weights * factors[:, block], (1.0 - weights) * noise)
    names = tuple(f"x{j:03d}" for j in range(CLI_D))
    np.savetxt(path, x, fmt="%.10g", delimiter=",", header=",".join(names), comments="")
    truth = tuple(
        tuple(names[j] for j in np.flatnonzero(block == b)) for b in range(len(CLI_BLOCKS))
    )
    return CliInput(path, file_digest(path), truth)


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def rank_distance_oracle(csv: Path) -> tuple[np.ndarray, str]:
    """Reference chi for the CSV from exact integer rank distances.

    Pseudo-observations are ranks / k, so the madogram of a pair is
    D[a, b] / (2 k^2) with D[a, b] = sum_i |R[i, a] - R[i, b]| an exact
    integer. Returns chi and the digest of D, which references.json pins.
    """
    x = np.loadtxt(csv, delimiter=",", skiprows=1)
    k = x.shape[0] // CLI_M
    maxima = x[: k * CLI_M].reshape(k, CLI_M, -1).max(axis=1)
    ranks = np.empty(maxima.shape, dtype=np.int64)
    for j in range(maxima.shape[1]):
        col = maxima[:, j]
        ranks[:, j] = np.searchsorted(np.sort(col), col, side="right")
    d = ranks.shape[1]
    dist = np.empty((d, d), dtype=np.int64)
    for a in range(0, d, 16):
        dist[a : a + 16] = np.abs(ranks[:, a : a + 16, None] - ranks[:, None, :]).sum(axis=0)
    nu = dist / (2.0 * k * k)
    chi = 2.0 - (0.5 + nu) / (0.5 - nu)
    np.fill_diagonal(chi, 1.0)
    return chi, hashlib.sha256(dist.tobytes()).hexdigest()


def cli_argv(csv: Path, workdir: Path) -> list[str]:
    return [
        "cluster", "--input", str(csv), "--block-size", str(CLI_M), "--auto-tau",
        "--out-partition", str(workdir / "partition.json"),
        "--out-chi", str(workdir / "chi.csv"),
        "--out-scan", str(workdir / "scan.csv"),
    ]


def read_cli_outputs(workdir: Path) -> dict:
    """Parse the three files one cluster call wrote."""
    with open(workdir / "partition.json") as fh:
        clusters = json.load(fh)["clusters"]
    with open(workdir / "scan.csv") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    return {
        "clusters": [sorted(c) for c in clusters],
        "selected_tau": next(r[0] for r in rows if r[3] == "1"),
        "n_clusters": [int(r[2]) for r in rows],
        "secos": [float(r[1]) for r in rows],
        "chi": np.loadtxt(workdir / "chi.csv", delimiter=",", skiprows=1),
    }


def recovered(clusters, truth) -> float:
    """1.0 when the clusters equal the truth as sets of sets, else 0.0."""
    as_sets = {frozenset(c) for c in clusters}
    return float(as_sets == {frozenset(t) for t in truth})


def check_cli(out: dict, ref: dict, chi_ref: np.ndarray) -> list[str]:
    """Differences between one cluster call's outputs and the reference."""
    problems = []
    for key in ("clusters", "selected_tau", "n_clusters"):
        if out[key] != ref[key]:
            problems.append(f"{key} differs from the reference")
    if len(out["secos"]) != len(ref["secos"]) or not all(
        abs(a - b) <= CHI_TOL for a, b in zip(out["secos"], ref["secos"])
    ):
        problems.append(f"SECO profile differs from the reference by more than {CHI_TOL}")
    if out["chi"].shape != chi_ref.shape or not np.all(np.abs(out["chi"] - chi_ref) <= CHI_TOL):
        problems.append(f"chi differs from the rank-distance oracle by more than {CHI_TOL}")
    return problems


# ---------------------------------------------------------------------------
# experiment workloads


def experiment_outputs(rows) -> list[list]:
    """(grid value, algorithm, recovery rate, mean SECO) of each result row."""
    return [[r.grid_value, r.algorithm, r.recovery_rate, r.mean_seco] for r in rows]


def mean_recovery(outputs: list[list]) -> float:
    """Mean recovery rate over grid cells and algorithms.

    Pooling the baselines with ECO on experiment_competitors keeps the
    seed-to-seed spread near 5% of the median; ECO alone spreads about 19%
    there, close to the widest bound a metric may have.
    """
    return sum(rate for _, _, rate, _ in outputs) / len(outputs)


def check_experiment(outputs: list[list], ref: list[list]) -> list[str]:
    if len(outputs) != len(ref):
        return ["row count differs from the reference"]
    problems = []
    for got, want in zip(outputs, ref):
        if got[:3] != want[:3]:
            problems.append(f"row {want[:2]}: recovery {got[2]} != {want[2]}")
        elif (got[3] is None) != (want[3] is None) or (
            got[3] is not None and not math.isclose(got[3], want[3], rel_tol=0.0, abs_tol=CHI_TOL)
        ):
            problems.append(f"row {want[:2]}: mean SECO {got[3]} != {want[3]}")
    return problems


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)
