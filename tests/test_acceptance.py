"""End-to-end acceptance checks.

Each test is one criterion: estimator exactness against brute force, the
hand-traced clustering example, sampler laws against closed-form targets,
recovery and threshold-selection behaviour of the full pipeline at realistic
scale, bias decay with growing block size, bulk randomized invariants, and
byte-level determinism of the command line. Monte-Carlo checks run on frozen
seeds with tolerances several standard errors wide, so every line below is
reproducible bit for bit.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.stats

from tailclust import (
    ChiMatrix,
    ExperimentConfig,
    Partition,
    RepetitionConfig,
    SubsetMadogram,
    block_maxima,
    build_experiment_model,
    chi_matrix,
    default_grid,
    eco_cluster,
    extremal_coefficient,
    hc_cluster,
    madogram,
    partitions_equal,
    pseudo_obs,
    repetition_process,
    run_experiment,
    sample_logistic_ev,
    sample_nested,
    sample_outer_power_clayton,
    sample_positive_stable,
    select_threshold,
    skmeans_cluster,
    tau_theory,
)
from tailclust.cli import main

from conftest import pobs_of, random_pobs


BETA = 10.0 / 7.0


def test_criterion_01_estimators_match_brute_force():
    """madogram, theta, and chi agree with a double-loop evaluation to 1e-12."""
    rng = np.random.default_rng(2001)
    t0 = time.perf_counter()
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        pobs = random_pobs(rng, k, d)
        u = pobs.values

        size = int(rng.integers(1, d + 1))
        subset = tuple(sorted(rng.choice(d, size=size, replace=False).tolist()))
        nu_bf = 0.0
        for i in range(k):
            row = [u[i, j] for j in subset]
            nu_bf += max(row) - sum(row) / len(row)
        nu_bf /= k
        theta_bf = (0.5 + nu_bf) / (0.5 - nu_bf)

        nu = madogram(pobs, subset)
        assert abs(nu.value - nu_bf) <= 1e-12
        assert abs(extremal_coefficient(nu).value - theta_bf) <= 1e-12

        if d >= 2:
            chi = chi_matrix(pobs)
            for a in range(d):
                for b in range(a + 1, d):
                    nu_ab = sum(
                        max(u[i, a], u[i, b]) - (u[i, a] + u[i, b]) / 2.0
                        for i in range(k)
                    ) / k
                    chi_bf = 2.0 - (0.5 + nu_ab) / (0.5 - nu_ab)
                    assert abs(chi.values[a, b] - chi_bf) <= 1e-12
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_hand_traced_clustering():
    """The documented 4-variable matrix splits as worked out by hand."""
    values = np.full((4, 4), 0.05)
    values[0, 1] = values[1, 0] = 0.8
    values[2, 3] = values[3, 2] = 0.6
    np.fill_diagonal(values, 1.0)
    chi = ChiMatrix(values, k=100)

    assert eco_cluster(chi, 0.2) == Partition(((0, 1), (2, 3)))
    assert eco_cluster(chi, 0.7) == Partition(((0, 1), (2,), (3,)))


def test_criterion_03_logistic_extremal_coefficient():
    """Plug-in theta on logistic samples hits the closed form d**(1/beta)."""
    rng = np.random.default_rng(2003)
    t0 = time.perf_counter()
    for dim, tol in ((2, 0.02), (3, 0.03)):
        u = sample_logistic_ev(BETA, dim, 100_000, rng)
        theta = extremal_coefficient(madogram(pobs_of(u), range(dim))).value
        assert abs(theta - dim ** 0.7) <= tol
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_kendall_tau_of_samplers():
    """Sampler dependence strength matches the Archimedean closed forms."""
    rng = np.random.default_rng(2004)
    t0 = time.perf_counter()

    u = sample_outer_power_clayton(1.0, BETA, 2, 100_000, rng)
    tau_within = scipy.stats.kendalltau(u[:, 0], u[:, 1]).statistic
    assert abs(tau_within - 8.0 / 15.0) <= 0.01

    model, _ = build_experiment_model("E1", 4, BETA, rng)
    v = sample_nested(model, 100_000, rng)
    tau_cross = scipy.stats.kendalltau(v[:, 0], v[:, 2]).statistic
    assert abs(tau_cross - 1.0 / 3.0) <= 0.01

    assert time.perf_counter() - t0 < 30.0


def test_criterion_05_stable_frailty_laplace_transform():
    """mean(exp(-S)) is 1/e for every alpha; the alpha=1/2 law is Levy."""
    rng = np.random.default_rng(2005)
    t0 = time.perf_counter()
    for alpha in (0.3, 0.5, 0.9):
        s = sample_positive_stable(alpha, rng, size=1_000_000)
        assert abs(np.mean(np.exp(-s)) - math.exp(-1.0)) <= 0.002
        if alpha == 0.5:
            assert abs(np.mean(s <= 1.0) - math.erfc(0.5)) <= 0.002
    assert time.perf_counter() - t0 < 20.0


def test_criterion_06_recovery_at_scale():
    """Two blocks of eight are recovered in at least 90% of 100 reps."""
    t0 = time.perf_counter()
    for p in (0.9, 1.0):
        cfg = ExperimentConfig(
            experiment="E1",
            framework="F1",
            d=16,
            p=p,
            beta=BETA,
            reps=100,
            master_seed=0,
            n=10_000,
            m_grid=(20,),
            threads=4,
        )
        rows = run_experiment(cfg)
        assert rows[0].recovery_rate >= 0.9
    assert time.perf_counter() - t0 < 120.0


def test_criterion_07_block_size_tradeoff_curve():
    """Recovery over the block-size grid peaks strictly inside the grid."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="E1",
        framework="F1",
        d=8,
        p=0.9,
        beta=BETA,
        reps=100,
        master_seed=19,
        n=10_000,
        m_grid=(3, 6, 9, 12, 15, 18, 21, 24, 27, 30),
        threads=4,
    )
    curve = [row.recovery_rate for row in run_experiment(cfg)]
    assert max(curve) > curve[0]
    assert max(curve) > curve[-1]
    assert time.perf_counter() - t0 < 300.0


def test_criterion_08_seco_selected_threshold_recovers_truth():
    """The SECO-minimizing tau reproduces the true partition in >= 90% of reps."""
    t0 = time.perf_counter()
    grid = default_grid(20, 16, 500)
    hits = 0
    reps = 50
    for ri in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((0, ri)))
        model, truth = build_experiment_model("E1", 16, BETA, rng)
        series = repetition_process(RepetitionConfig(p=1.0, n=10_000, model=model), rng)
        pobs = pseudo_obs(block_maxima(series, 20))
        chi = chi_matrix(pobs)
        scan = select_threshold(pobs, chi, grid)
        part = eco_cluster(chi, scan.selected)
        hits += partitions_equal(part, truth)
    assert hits / reps >= 0.9
    assert time.perf_counter() - t0 < 180.0


def test_criterion_09_bias_decays_with_block_size():
    """|chi_hat - chi_limit| shrinks as blocks grow, within 2 standard errors."""
    t0 = time.perf_counter()
    chi_limit = 2.0 - 2.0 ** (1.0 / BETA)
    k = 10_000
    reps = 6
    means, ses = [], []
    for mi, m in enumerate((5, 10, 20, 40)):
        gaps = []
        for ri in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence((0, mi, ri)))
            model, _ = build_experiment_model("E1", 4, BETA, rng)
            series = repetition_process(
                RepetitionConfig(p=1.0, n=m * k, model=model), rng
            )
            chi = chi_matrix(pseudo_obs(block_maxima(series, m)))
            gaps.append(abs(chi.values[0, 1] - chi_limit))
        gaps = np.asarray(gaps)
        means.append(gaps.mean())
        ses.append(gaps.std(ddof=1) / math.sqrt(reps))
    for i in range(len(means) - 1):
        slack = 2.0 * math.hypot(ses[i], ses[i + 1])
        assert means[i + 1] < means[i] + slack
    assert time.perf_counter() - t0 < 120.0


def test_criterion_10_randomized_invariant_suites():
    """Rank invariance, equivariance, bounds, Lipschitz bound, and output
    validity hold across at least 10,000 randomized trials inside a minute."""
    rng = np.random.default_rng(2010)
    t0 = time.perf_counter()
    checks = 0

    # rank invariance: strictly increasing transforms leave pseudo-obs alone
    transforms = (np.exp, lambda x: x**3 + x, np.arctan, lambda x: 3.0 * x - 7.0)
    for _ in range(2000):
        k = int(rng.integers(2, 30))
        d = int(rng.integers(1, 5))
        raw = rng.standard_normal((k, d))
        warped = transforms[int(rng.integers(len(transforms)))](raw)
        assert np.array_equal(pobs_of(raw).values, pobs_of(warped).values)
        checks += 1

    # permutation equivariance of the pairwise dependence matrix
    for _ in range(2000):
        k = int(rng.integers(3, 30))
        d = int(rng.integers(2, 6))
        raw = rng.random((k, d))
        perm = rng.permutation(d)
        full = chi_matrix(pobs_of(raw)).values
        shuffled = chi_matrix(pobs_of(raw[:, perm])).values
        assert np.array_equal(full[np.ix_(perm, perm)], shuffled)
        checks += 1

    # estimator ranges on random subsets
    for _ in range(2000):
        k = int(rng.integers(1, 40))
        d = int(rng.integers(1, 6))
        pobs = random_pobs(rng, k, d)
        size = int(rng.integers(1, d + 1))
        subset = rng.choice(d, size=size, replace=False)
        nu = madogram(pobs, subset)
        # the rational bounds hold up to one rounding step of the fp sums
        assert 0.0 <= nu.value <= (k - 1) / (2 * k) + 1e-12
        assert 1.0 <= extremal_coefficient(nu).value <= 2 * k - 1 + 1e-9
        checks += 1

    # the madogram-to-theta map is 9-Lipschitz below nu = 1/6
    for _ in range(2000):
        x, y = rng.random(2) / 6.0
        fx = extremal_coefficient(SubsetMadogram(x, (0, 1), 3)).value
        fy = extremal_coefficient(SubsetMadogram(y, (0, 1), 3)).value
        assert abs(fx - fy) <= 9.0 * abs(x - y) + 1e-12
        checks += 1

    # every clustering algorithm returns a valid partition of range(d)
    for _ in range(2000):
        k = int(rng.integers(3, 25))
        d = int(rng.integers(2, 8))
        chi = chi_matrix(random_pobs(rng, k, d))
        part = eco_cluster(chi, float(rng.random()))
        assert isinstance(part, Partition) and part.d == d
        checks += 1
    for _ in range(1000):
        d = int(rng.integers(2, 8))
        g = int(rng.integers(1, d + 1))
        halves = np.triu(rng.random((d, d)), 1)
        dissim = halves + halves.T
        part = hc_cluster(dissim, g)
        assert isinstance(part, Partition) and part.d == d and part.n_groups == g
        checks += 1
    for _ in range(1000):
        k = int(rng.integers(8, 30))
        d = int(rng.integers(2, 8))
        g = int(rng.integers(1, d + 1))
        part = skmeans_cluster(random_pobs(rng, k, d), g, 2, rng)
        assert isinstance(part, Partition) and part.d == d and part.n_groups == g
        checks += 1

    assert checks >= 10_000
    assert time.perf_counter() - t0 < 60.0


def test_criterion_11_seeded_commands_are_byte_identical(tmp_path):
    """Reruns of every seeded command match byte for byte at 1 and 8 threads."""
    base = [
        "experiment", "--experiment", "E1", "--framework", "F1", "--d", "6",
        "--p", "0.9", "--reps", "8", "--seed", "7", "--n", "4000",
        "--m-grid", "10,20", "--competitors", "--skm-restarts", "3",
    ]
    runs = []
    for tag, threads in (("t1", 1), ("t8", 8), ("t8_again", 8)):
        out = tmp_path / f"res_{tag}.csv"
        assert main(base + ["--threads", str(threads), "--out", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1] == runs[2]

    sims = []
    for tag in ("first", "second"):
        out = tmp_path / f"sim_{tag}.csv"
        rc = main([
            "simulate", "--experiment", "E2", "--d", "7", "--n", "3000",
            "--p", "0.8", "--beta", "1.6", "--seed", "11",
            "--margins", "frechet", "--out", str(out),
        ])
        assert rc == 0
        sims.append(out.read_bytes() + (tmp_path / f"sim_{tag}.csv.json").read_bytes())
    assert sims[0] == sims[1]

    arts = []
    for tag in ("first", "second"):
        paths = {
            kind: tmp_path / f"{kind}_{tag}{ext}"
            for kind, ext in (("part", ".json"), ("chi", ".csv"), ("scan", ".csv"))
        }
        rc = main([
            "cluster", "--input", str(tmp_path / "sim_first.csv"),
            "--block-size", "10", "--auto-tau",
            "--out-partition", str(paths["part"]),
            "--out-chi", str(paths["chi"]),
            "--out-scan", str(paths["scan"]),
        ])
        assert rc == 0
        arts.append(b"".join(paths[kind].read_bytes() for kind in ("part", "chi", "scan")))
    assert arts[0] == arts[1]
