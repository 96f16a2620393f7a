"""Regenerate references.json: the expected outputs of every workload case.

Run from the repository root, only when the expected outputs are meant to
change (a new input generator, or a deliberate change of results):

    python3 perfbench/make_refs.py
"""

import os

# same single-threaded BLAS as the measured processes (run.bench_env)
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads as wl  # noqa: E402
from tailclust import cli, run_experiment  # noqa: E402


def cli_reference(case: int, workdir: Path) -> dict:
    inp = wl.write_cli_input(case, workdir / "input.csv")
    _, dist_digest = wl.rank_distance_oracle(inp.csv)
    if cli.main(wl.cli_argv(inp.csv, workdir)) != 0:
        raise SystemExit(f"case {case}: cluster failed")
    out = wl.read_cli_outputs(workdir)
    if not wl.recovered(out["clusters"], inp.truth):
        print(f"warning: case {case}: the selected partition is not the truth", file=sys.stderr)
    return {
        "input_sha256": inp.digest,
        "rank_distance_sha256": dist_digest,
        "clusters": out["clusters"],
        "selected_tau": out["selected_tau"],
        "n_clusters": out["n_clusters"],
        "secos": out["secos"],
    }


def main() -> int:
    refs = {name: {} for name in wl.WORKLOADS}
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        for case in range(wl.N_CASES):
            refs["cli_autotau"][str(case)] = cli_reference(case, Path(tmp))
            for name in wl.WORKLOADS[1:]:
                rows = run_experiment(wl.experiment_config(name, case))
                refs[name][str(case)] = wl.experiment_outputs(rows)
            print(f"case {case} done", file=sys.stderr)
    write_references(refs)
    return 0


def write_references(refs: dict) -> None:
    """One line per (workload, case), so a changed reference shows as one line."""
    blocks = []
    for name, cases in refs.items():
        lines = ",\n".join(f"  {json.dumps(case)}: {json.dumps(ref)}" for case, ref in cases.items())
        blocks.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    with open(wl.REFERENCES, "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
