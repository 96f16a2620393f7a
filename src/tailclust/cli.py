"""Command-line interface: cluster, simulate, experiment, seco.

Exit codes: 0 success, 2 malformed flags or input files, 3 failure while
sampling or running an experiment. All floating-point output uses 17
significant digits so seeded reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys

import numpy as np

from .cluster import eco_cluster, scan_to_csv, select_threshold
from .core import (
    InvalidParam,
    MalformedInput,
    MaximaMatrix,
    TailclustError,
    _check_block_length,
    _fork_is_safe,
    partition_from_json,
    partition_to_json,
)
from .estimators import chi_matrix, chi_to_csv, seco, tau_theory
from .experiments import ExperimentConfig, results_to_csv, run_experiment
from .maxima import _cut_blocks, pseudo_obs
from .simulate import RepetitionConfig, build_experiment_model, repetition_process

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line diagnostics, exit status 2
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# Below this many body bytes the caller parses both halves itself: importing
# multiprocessing and forking take about 25 ms, more than a parallel half
# saves below a few MB (loadtxt parses about 115 MB/s on one vCPU of a
# shared Xeon host).
_FORK_MIN_BYTES = 8 << 20


def _holds_a_line(fh, blank) -> bool:
    """Whether fh holds a line that blank(line) rejects; fh does not move."""
    start = fh.tell()
    line = fh.readline()
    while line and blank(line):
        line = fh.readline()
    fh.seek(start)
    return bool(line)


def _parse_rows(fh, path: str, width: int) -> np.ndarray:
    """The data rows of a text stream of CSV body lines, checked as a body.

    A stream of only empty and "#" comment lines, the lines loadtxt skips,
    gives 0 rows: loadtxt would warn that it holds no data.
    """
    try:
        if not _holds_a_line(fh, lambda line: not line.split("#", 1)[0].rstrip("\r\n")):
            return np.empty((0, width))
        # parse from the handle: no string copy of the body
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise MalformedInput(f"{path}: {exc}") from exc
    if rows.shape[1] != width:
        raise MalformedInput(f"{path}: header has {width} names but rows have {rows.shape[1]} cells")
    if not np.isfinite(rows).all():
        raise InvalidParam("series contains NaN or infinite entries")
    return rows


def _parse_range(path: str, encoding: str, width: int, lo: int, hi: int) -> np.ndarray:
    """_parse_rows of the body lines in bytes [lo, hi) of the file."""
    with open(path, "rb") as raw:
        raw.seek(lo)
        data = raw.read(hi - lo)
    return _parse_rows(io.TextIOWrapper(io.BytesIO(data), encoding, newline=""), path, width)


def _cut_second(rows: np.ndarray, offset: int, m: int):
    """(head, maxima, row count) of the second half: all that its caller needs."""
    head, maxima, _ = _cut_blocks(rows, offset, m)
    return head, maxima, len(rows)


def _second_half(conn, read, m: int) -> None:
    """Child side of _parse_halves: parse, learn the row offset, send the cut.

    Sends None if the half fails a check: the caller finds the error itself.
    """
    try:
        rows = read()
    except Exception:
        rows = None
    try:
        offset = conn.recv()
        conn.send(None if rows is None else _cut_second(rows, offset, m))
    except Exception:  # the caller has gone: there is no one to tell
        pass


def _parse_halves(read_first, read_second, m: int, fork: bool):
    """Parse both halves of a body, the second in a forked child if `fork`.

    Returns the first half's rows, and _cut_second of the second half at the
    first half's row count; None in its place if the child's half failed a
    check or the child died. A failure in the calling process raises, after
    the child is killed. The child has exited when this returns or raises.
    """
    if not fork:
        first, second = read_first(), read_second()
        return first, _cut_second(second, len(first), m)
    import multiprocessing

    context = multiprocessing.get_context("fork")
    conn, child_conn = context.Pipe()
    child = context.Process(target=_second_half, args=(child_conn, read_second, m))
    child.start()
    try:
        child_conn.close()
        first = read_first()
        try:
            conn.send(len(first))
            second = conn.recv()
        except (EOFError, OSError):  # the child died
            second = None
    except BaseException:
        child.kill()
        raise
    finally:
        conn.close()
        child.join()
        child.close()
    return first, second


def _parse_whole(path: str, width: int) -> np.ndarray:
    """_parse_rows of the whole body, from the file's own handle.

    0 rows if every line is blank or a "#" comment: whitespace too counts as
    blank here, though loadtxt would parse it as a cell.
    """
    with open(path, newline="") as fh:
        fh.readline()
        try:
            holds = _holds_a_line(fh, lambda line: not line.split("#", 1)[0].strip())
        except ValueError as exc:
            raise MalformedInput(f"{path}: {exc}") from exc
        return _parse_rows(fh, path, width) if holds else np.empty((0, width))


def _read_maxima(path: str, m: int, *, _split: int | None = None):
    """The column names and block maxima of a CSV series, never the n x d series.

    The body splits at the first line start after its byte midpoint (or at
    byte offset `_split`, which must be a line start). The calling process
    parses the first half while a forked child parses the second, when the
    body holds at least _FORK_MIN_BYTES and core._fork_is_safe(); otherwise
    the caller parses both halves in turn.

    Once the caller knows its row count r, it sends r to the child, which
    cuts its rows along the blocks of the whole series and sends back only
    its first (-r) % m rows, which finish the caller's open block, the
    maxima of its whole blocks, and its row count. A maximum is exact, so
    the result is bit-identical to block_maxima of the whole series.

    Each half runs every check of a whole body: parse errors, the cell count
    against the header, NaN or inf. A half that fails one does not report
    it: the body is parsed again in one piece, so that the message and the
    row numbers in it are the whole file's.
    """
    try:
        with open(path, newline="") as fh:
            try:
                header = fh.readline()
            except ValueError as exc:
                raise MalformedInput(f"{path}: {exc}") from exc
            encoding = fh.encoding
            end = os.fstat(fh.fileno()).st_size
        if not header.strip():
            raise MalformedInput(f"{path}: empty input")
        names = tuple(cell.strip() for cell in header.rstrip("\r\n").split(","))
        width = len(names)
        start = len(header.encode(encoding))
        split = _split
        if split is None:
            with open(path, "rb") as raw:
                raw.seek((start + end) // 2)
                raw.readline()
                split = raw.tell()
        fork = end - start >= _FORK_MIN_BYTES and _fork_is_safe()
        read = functools.partial(_parse_range, path, encoding, width)
        try:
            first, second = _parse_halves(
                functools.partial(read, start, split), functools.partial(read, split, end), m, fork
            )
        except ValueError:
            second = None
        if second is None:
            first = _parse_whole(path, width)
            second = (first[:0], first[:0], 0)  # the whole body is the first half
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    n = len(first) + second[2]
    if n == 0:
        raise MalformedInput(f"{path}: no data rows")
    if len(set(names)) != width:
        raise InvalidParam("variable names must be unique")
    if "" in names:
        raise MalformedInput(f"{path}: column {names.index('')} has an empty name")
    _check_block_length(m, n)
    _, maxima, left_open = _cut_blocks(first, 0, m)
    head, rest, _ = second
    # the block the first half leaves open, finished by the second's head
    straddle = _cut_blocks(np.concatenate([left_open, head]), 0, m)[1]
    values = np.concatenate([maxima, straddle, rest])
    return names, MaximaMatrix(values, block_length=m, source_length=n)


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
    _check_block_length(args.block_size)
    names, maxima = _read_maxima(args.input, args.block_size)
    pobs = pseudo_obs(maxima)
    chi = chi_matrix(pobs)
    scan = None
    if args.tau is not None:
        part = eco_cluster(chi, args.tau)
    else:
        tau0 = tau_theory(args.block_size, maxima.d, maxima.k)
        lo = 0.1 * tau0 if args.grid_lo is None else args.grid_lo
        hi = 2.5 * tau0 if args.grid_hi is None else args.grid_hi
        n = 41 if args.grid_n is None else args.grid_n
        grid = [float(t) for t in np.unique(np.linspace(lo, hi, n))]
        scan = select_threshold(pobs, chi, grid)
        part = eco_cluster(chi, scan.selected)
    text = partition_to_json(part, names)
    if args.out_partition:
        _write(args.out_partition, text)
    else:
        sys.stdout.write(text)
    if args.out_chi:
        _write(args.out_chi, chi_to_csv(chi, names, clip=args.clip_chi))
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
    _check_block_length(args.block_size)
    names, maxima = _read_maxima(args.input, args.block_size)
    pobs = pseudo_obs(maxima)
    try:
        with open(args.partition) as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {args.partition}: {exc}") from exc
    part = partition_from_json(text, names)
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
    e.add_argument("--timings", action="store_true",
                   help="append a wall_seconds column: the clustering time summed over a cell's "
                        "replications, without simulation and ranking; HC reuses the pairwise "
                        "sums that ECO computed")
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
