"""The measured process of one workload run: a closed loop of jobs.

Started by run.py with the inputs already written to --workdir. Each job is
timed alone; its outputs are checked against the stored references after
the clock stops. The loop starts another job only while the median job
would end less than half a job past --seconds. With --trace 1 the jobs alternate untraced and
traced, so the traced run also yields the tracing overhead. The result,
with the run record, goes to --result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads as wl
from tracing import Tracer, job_metrics


# Import the package and run each kernel once on a tiny input, then print the
# system-wide monotonic clock, so the caller times the whole start-up.
SETUP_PROBE = """
import time
import numpy as np
from tailclust import SeriesMatrix, block_maxima, chi_matrix, eco_cluster, pseudo_obs, seco
raw = np.random.default_rng(0).random((40, 4))
pobs = pseudo_obs(block_maxima(SeriesMatrix(raw), 2))
seco(pobs, eco_cluster(chi_matrix(pobs), 0.3))
print(time.monotonic())
"""


def setup_seconds() -> float:
    """Seconds from starting a fresh interpreter until the kernels have run."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1]) - start


def _cli_workload(case: int, workdir: Path):
    from tailclust import cli

    ref = wl.load_references()["cli_autotau"][str(case)]
    with open(workdir / "input.json") as fh:
        meta = json.load(fh)
    csv, truth = Path(meta["csv"]), meta["truth"]
    chi_ref = np.load(workdir / "chi_ref.npy")
    argv = wl.cli_argv(csv, workdir)

    def job():
        return cli.main(argv)

    def check(rc):
        if rc != 0:
            return [f"cluster exited with {rc}"], None
        out = wl.read_cli_outputs(workdir)
        return wl.check_cli(out, ref, chi_ref), wl.recovered(out["clusters"], truth)

    k = wl.CLI_N // wl.CLI_M
    sizes = {"n": wl.CLI_N, "d": wl.CLI_D, "m": wl.CLI_M, "k": k, "threads": 1,
             "input_mb": os.path.getsize(csv) / 1e6}
    return job, check, sizes


def _experiment_workload(workload: str, case: int):
    from tailclust import experiments

    ref = wl.load_references()[workload][str(case)]
    cfg = wl.experiment_config(workload, case)

    def job():
        return experiments.run_experiment(cfg)

    def check(rows):
        out = wl.experiment_outputs(rows)
        return wl.check_experiment(out, ref), wl.mean_recovery(out)

    param, values = cfg.grid()
    if param == "m":
        ms, ks = list(values), [cfg.n // m for m in values]
        ns = [cfg.n]
    else:
        ms, ks = [cfg.m], list(values)
        ns = [cfg.m * k for k in values]
    sizes = {"n": ns, "d": cfg.d, "m": ms, "k": ks, "threads": cfg.threads,
             "replications": len(values) * cfg.reps}
    return job, check, sizes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--case", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    from tailclust import kernels

    if args.workload == "cli_autotau":
        job, check, sizes = _cli_workload(args.case, args.workdir)
    else:
        job, check, sizes = _experiment_workload(args.workload, args.case)

    tracer = Tracer() if args.trace else None
    min_jobs = 2 if args.trace else 1
    jobs, layer_rows, traced_spans, setup = [], [], [], []
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(jobs) % 2 == 1
        first_span = len(tracer.spans) if traced else 0
        error = None
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            if traced:
                result, job_id = tracer.job(job)
            else:
                result = job()
        except Exception:  # a job that raises counts as failed; the loop goes on
            error = traceback.format_exc(limit=3)
        finally:
            seconds = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if error is None:
            problems, recovery = check(result)
        else:
            problems, recovery = [error], None
        jobs.append({"seconds": seconds, "traced": traced, "ok": not problems,
                     "problems": problems, "recovery_rate": recovery})
        if tracer is None:
            # set-up samples after each job spread them over the whole run
            setup += [setup_seconds(), setup_seconds()]
        elif traced and error is None:
            spans = tracer.spans[first_span:]
            layer_rows.append(job_metrics(spans, job_id, sizes["threads"]))
            traced_spans.extend(spans)
        # stop when the next job would end, on the median, more than half a
        # job past --seconds: a run overshoots or falls short by half a job
        elapsed = time.perf_counter() - loop_start
        median_job = statistics.median(j["seconds"] for j in jobs)
        if len(jobs) >= min_jobs and elapsed + median_job / 2 > args.seconds:
            break

    result = {
        "jobs": jobs,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "record": {
            "workload": args.workload,
            "case": args.case,
            "backend": "numba" if kernels.USE_NUMBA else "numpy",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            **sizes,
        },
    }
    if tracer is not None:
        keys = sorted({key for row in layer_rows for key in row})
        layers = {key: statistics.median(row.get(key, 0.0) for row in layer_rows) for key in keys}
        # each traced job against the untraced jobs on either side of it, so
        # a drift of the machine's speed during the run cancels out
        seconds = [j["seconds"] for j in jobs]
        layers["trace.overhead_ratio"] = statistics.median(
            seconds[i] / statistics.mean(seconds[max(i - 1, 0) : i] + seconds[i + 1 : i + 2])
            for i, j in enumerate(jobs) if j["traced"]
        )
        layers["cli.input_mb"] = sizes.get("input_mb", 0.0)
        result["layers"] = layers
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["id", "name", "start", "end", "parent", "thread"],
                           "spans": [list(s[:6]) for s in traced_spans]}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
