"""Pipeline benchmark of tailclust on the numpy path.

Run from the repository root:

    python3 perfbench/run.py --workload cli_autotau --seed 0 --seconds 38 --trace 0

Workloads (see README.md for why each exists): cli_autotau,
experiment_f1, experiment_competitors. The seed selects the input case.
--trace 0 prints the end-to-end metrics; --trace 1 wraps the package's
public functions and prints the per-layer metrics. Every job's outputs are
checked against the references stored in references.json. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A run record and, with --trace 1, the spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

END_TO_END = {
    "job_s": "s",
    "reps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "recovery_rate": "ratio",
}
PER_LAYER = {
    "cluster.select_threshold.self_s": "s",
    "cluster.eco_cluster.self_s": "s",
    "kernels.eco_labels.calls": "count",
    "kernels.eco_labels.self_s": "s",
    "kernels.eco_labels.iterations": "count",
    "cluster.scan.grid_points": "count",
    "cluster.scan.distinct_partitions": "count",
    "cluster.scan.useful_ratio": "ratio",
    "estimators.seco.calls": "count",
    "estimators.seco.self_s": "s",
    "kernels.subset_gap_sum.calls": "count",
    "kernels.subset_gap_sum.self_s": "s",
    "kernels.subset_gap_sum.elements": "count",
    "estimators.chi_matrix.self_s": "s",
    "kernels.pairwise_abs_diff_sums.self_s": "s",
    "kernels.pairwise_abs_diff_sums.ops": "count",
    "kernels.pairwise_abs_diff_sums.mb_computed": "MB",
    "cli.main.self_s": "s",
    "cli.input_mb": "MB",
    "simulate.repetition_process.self_s": "s",
    "simulate.repetition_process.values_drawn": "count",
    "simulate.sample_nested.self_s": "s",
    "maxima.block_maxima.self_s": "s",
    "maxima.pseudo_obs.self_s": "s",
    "core.validate.calls": "count",
    "core.validate.self_s": "s",
    "competitors.madogram_dissimilarity.self_s": "s",
    "competitors.hc_cluster.self_s": "s",
    "competitors.skmeans_cluster.self_s": "s",
    "experiments.busy_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_ratio": "ratio",
}

def bench_env() -> dict:
    """Environment of every measured process: the package from src/, and
    single-threaded BLAS so a workload uses exactly the threads it states."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def prepare_cli_input(case: int, workdir: Path, ref: dict) -> None:
    """Write the case's CSV and the oracle chi; stop if either drifted."""
    inp = wl.write_cli_input(case, workdir / "input.csv")
    if inp.digest != ref["input_sha256"]:
        raise RuntimeError(f"cli_autotau input for case {case} does not match its stored digest")
    chi, dist_digest = wl.rank_distance_oracle(inp.csv)
    if dist_digest != ref["rank_distance_sha256"]:
        raise RuntimeError(f"rank-distance oracle for case {case} does not match its stored digest")
    np.save(workdir / "chi_ref.npy", chi)
    with open(workdir / "input.json", "w") as fh:
        json.dump({"csv": str(inp.csv), "truth": inp.truth}, fh)


def run_worker(args, case: int, workdir: Path, env: dict, deadline: float) -> dict:
    result_path = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--case", str(case), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(result_path),
    ]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("the workload did not finish in time")
    if code != 0:
        raise RuntimeError(f"the workload process exited with {code}")
    with open(result_path) as fh:
        return json.load(fh)


def end_to_end(result: dict) -> dict[str, float]:
    jobs = result["jobs"]
    reps = result["record"].get("replications", 1)
    seconds = [j["seconds"] for j in jobs]
    recovered = [j["recovery_rate"] for j in jobs if j["ok"]]
    return {
        "job_s": statistics.median(seconds),
        "reps_per_s": reps * len(seconds) / sum(seconds),
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "recovery_rate": recovered[0] if recovered else 0.0,
    }


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tailclust" / "__init__.py").is_file():
        print(f"error: no tailclust sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = bench_env()
    case = wl.case_of(args.seed)
    ref = wl.load_references()[args.workload][str(case)]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.workload == "cli_autotau":
            prepare_cli_input(case, workdir, ref)
        result = run_worker(args, case, workdir, env, deadline=started + 170)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = result["jobs"]
    failed = sum(not j["ok"] for j in jobs)
    if args.trace:
        layers = result["layers"]
        values = {name: layers.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = end_to_end(result)
        units = END_TO_END
    record = {**result["record"], "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "setup_samples_s": result["setup_s"], "jobs": jobs,
              "fail_ratio": failed / len(jobs), "metrics": values}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    info = {k: v for k, v in result["record"].items() if k != "workload"}
    print(f"{args.workload} seed={args.seed} case={case} trace={args.trace} {json.dumps(info)}")
    print(f"  jobs: {len(jobs)} ({sum(j['traced'] for j in jobs)} traced), "
          f"fail_ratio {failed / len(jobs):.4g} ratio")
    for name, value in values.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")
    for job in jobs:
        for problem in job["problems"]:
            print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
