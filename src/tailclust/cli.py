"""Command-line interface: cluster, simulate, experiment, seco.

Exit codes: 0 success, 2 malformed flags or input files, 3 failure while
sampling or running an experiment. All floating-point output uses 17
significant digits so seeded reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .cluster import eco_cluster, scan_to_csv, select_threshold
from .core import (
    InvalidParam,
    MalformedInput,
    SeriesMatrix,
    TailclustError,
    partition_from_json,
    partition_to_json,
)
from .estimators import chi_matrix, chi_to_csv, seco, tau_theory
from .experiments import ExperimentConfig, results_to_csv, run_experiment
from .maxima import block_maxima, pseudo_obs
from .simulate import RepetitionConfig, build_experiment_model, repetition_process

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line diagnostics, exit status 2
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _read_series(path: str) -> SeriesMatrix:
    try:
        with open(path, newline="") as fh:
            header = fh.readline()
            if not header.strip():
                raise MalformedInput(f"{path}: empty input")
            names = tuple(cell.strip() for cell in header.rstrip("\r\n").split(","))
            # find a row with data before parsing: loadtxt warns on a body
            # of only blank or "#" comment lines
            start = fh.tell()
            line = fh.readline()
            while line and not line.split("#", 1)[0].strip():
                line = fh.readline()
            if not line:
                raise MalformedInput(f"{path}: no data rows")
            fh.seek(start)
            # parse from the handle: no string copy of the whole body
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise MalformedInput(f"{path}: {exc}") from exc
    if data.shape[1] != len(names):
        raise MalformedInput(
            f"{path}: header has {len(names)} names but rows have {data.shape[1]} cells"
        )
    return SeriesMatrix(data, names)


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}")


def cmd_cluster(args) -> int:
    if args.tau is not None:
        for flag in ("grid_lo", "grid_hi", "grid_n"):
            if getattr(args, flag) is not None:
                raise MalformedInput(f"--{flag.replace('_', '-')} requires --auto-tau")
        if args.out_scan:
            raise MalformedInput("--out-scan requires --auto-tau")
    elif args.grid_n is not None and args.grid_n < 1:
        raise MalformedInput("--grid-n must be positive")
    else:
        for flag in ("grid_lo", "grid_hi"):
            value = getattr(args, flag)
            if value is not None and not math.isfinite(value):
                raise InvalidParam(f"--{flag.replace('_', '-')} must be finite")
        if any(b is not None and b < 0.0 for b in (args.grid_lo, args.grid_hi)):
            raise InvalidParam("grid values must be nonnegative")
    series = _read_series(args.input)
    maxima = block_maxima(series, args.block_size)
    pobs = pseudo_obs(maxima)
    chi = chi_matrix(pobs)
    scan = None
    if args.tau is not None:
        part = eco_cluster(chi, args.tau)
    else:
        tau0 = tau_theory(args.block_size, series.d, maxima.k)
        lo = 0.1 * tau0 if args.grid_lo is None else args.grid_lo
        hi = 2.5 * tau0 if args.grid_hi is None else args.grid_hi
        n = 41 if args.grid_n is None else args.grid_n
        grid = [float(t) for t in np.unique(np.linspace(lo, hi, n))]
        scan = select_threshold(pobs, chi, grid)
        part = eco_cluster(chi, scan.selected)
    text = partition_to_json(part, series.names)
    if args.out_partition:
        _write(args.out_partition, text)
    else:
        sys.stdout.write(text)
    if args.out_chi:
        _write(args.out_chi, chi_to_csv(chi, series.names, clip=args.clip_chi))
    if args.out_scan:
        _write(args.out_scan, scan_to_csv(scan))
    return 0


def cmd_simulate(args) -> int:
    rng = np.random.default_rng(args.seed)
    model, truth = build_experiment_model(args.experiment, args.d, args.beta, rng)
    cfg = RepetitionConfig(p=args.p, n=args.n, model=model, margins=args.margins)
    try:
        series = repetition_process(cfg, rng)
        names = series.names
        # one % per row; each cell formats exactly as _fmt does
        row_fmt = ",".join(["%.17g"] * series.d)
        lines = [",".join(names)]
        lines.extend(row_fmt % tuple(row) for row in series.values.tolist())
        _write(args.out, "\n".join(lines) + "\n")
        meta = {
            "experiment": args.experiment,
            "d": args.d,
            "n": args.n,
            "p": args.p,
            "beta": args.beta,
            "seed": args.seed,
            "margins": args.margins,
            "theta": model.theta,
            "beta0": model.beta0,
            "group_sizes": list(model.group_sizes),
            "clusters": [[names[i] for i in g] for g in truth.groups],
        }
        _write(args.out + ".json", json.dumps(meta, indent=2) + "\n")
    except OSError:
        raise
    except Exception as exc:
        sys.stderr.write(f"error: sampling failed: {exc}\n")
        return 3
    return 0


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig(
        experiment=args.experiment,
        framework=args.framework,
        d=args.d,
        p=args.p,
        beta=args.beta,
        reps=args.reps,
        master_seed=args.seed,
        n=args.n,
        m=args.m,
        m_grid=args.m_grid,
        k_grid=args.k_grid,
        tau_grid=args.tau_grid or (),
        include_competitors=args.competitors,
        skm_restarts=args.skm_restarts,
        threads=args.threads,
    )
    try:
        rows = run_experiment(cfg)
        _write(args.out, results_to_csv(rows, timings=args.timings))
    except OSError:
        raise
    except Exception as exc:
        sys.stderr.write(f"error: experiment failed: {exc}\n")
        return 3
    return 0


def cmd_seco(args) -> int:
    series = _read_series(args.input)
    pobs = pseudo_obs(block_maxima(series, args.block_size))
    try:
        with open(args.partition) as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {args.partition}: {exc}") from exc
    part = partition_from_json(text, series.names)
    sys.stdout.write(_fmt(seco(pobs, part)) + "\n")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="tailclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("cluster", help="cluster the variables of a CSV series")
    c.add_argument("--input", required=True, help="CSV with a header row of names")
    c.add_argument("--block-size", type=int, required=True, metavar="M")
    mode = c.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tau", type=float, help="fixed clustering threshold")
    mode.add_argument("--auto-tau", action="store_true", help="pick tau by SECO scan")
    c.add_argument("--grid-lo", type=float, help="scan grid lower bound")
    c.add_argument("--grid-hi", type=float, help="scan grid upper bound")
    c.add_argument("--grid-n", type=int, help="scan grid size (default 41)")
    c.add_argument("--clip-chi", action="store_true", help="clamp exported chi to [0, 1]")
    c.add_argument("--out-partition", help="partition JSON path (default stdout)")
    c.add_argument("--out-chi", help="chi matrix CSV path")
    c.add_argument("--out-scan", help="threshold scan CSV path (auto-tau only)")
    c.set_defaults(func=cmd_cluster)

    s = sub.add_parser("simulate", help="write a seeded draw of an experiment model")
    s.add_argument("--experiment", required=True, choices=("E1", "E2", "E3"))
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=float, default=1.0)
    s.add_argument("--beta", type=float, default=10.0 / 7.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--margins", choices=("uniform", "frechet"), default="uniform")
    s.add_argument("--out", required=True, help="CSV path; sidecar written to <out>.json")
    s.set_defaults(func=cmd_simulate)

    e = sub.add_parser("experiment", help="run a recovery study over a grid")
    e.add_argument("--experiment", required=True, choices=("E1", "E2", "E3"))
    e.add_argument("--framework", required=True, choices=("F1", "F2", "F3"))
    e.add_argument("--d", type=int, required=True)
    e.add_argument("--p", type=float, default=1.0)
    e.add_argument("--beta", type=float, default=10.0 / 7.0)
    e.add_argument("--reps", type=int, default=100)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--n", type=int, default=10_000, help="series length (F1, F3)")
    e.add_argument("--m", type=int, default=20, help="block length (F2, F3)")
    e.add_argument("--m-grid", type=_int_list, default=(3, 6, 9, 12, 15, 18, 21, 24, 27, 30))
    e.add_argument("--k-grid", type=_int_list, default=(50, 100, 200, 300, 400, 500))
    e.add_argument("--tau-grid", type=_float_list, default=(), help="F3 grid (default: scan around tau_theory)")
    e.add_argument("--competitors", action="store_true", help="also run the oracle-g baselines")
    e.add_argument("--skm-restarts", type=int, default=10)
    e.add_argument("--threads", type=int, default=1,
                   help="parallel workers: this process and threads - 1 worker processes (default 1)")
    e.add_argument("--timings", action="store_true", help="append a wall_seconds column")
    e.add_argument("--out", required=True, help="results CSV path")
    e.set_defaults(func=cmd_experiment)

    q = sub.add_parser("seco", help="print the SECO of a partition on a CSV series")
    q.add_argument("--input", required=True, help="CSV with a header row of names")
    q.add_argument("--block-size", type=int, required=True, metavar="M")
    q.add_argument("--partition", required=True, help="partition JSON path")
    q.set_defaults(func=cmd_seco)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (TailclustError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
