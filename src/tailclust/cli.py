"""Command-line interface: cluster, simulate, experiment, seco.

Exit codes: 0 success, 2 malformed flags or input files, 3 failure while
sampling or running an experiment. All floating-point output uses 17
significant digits so seeded reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from . import kernels
from .cluster import _check_grid_ends, _check_tau, _grid, eco_cluster, scan_to_csv, select_threshold
from .core import (
    InvalidParam,
    MalformedInput,
    MaximaMatrix,
    TailclustError,
    _adopt,
    _check_block_length,
    _csv_matrix,
    _fmt,
    _fork_is_safe,
    _in_worker,
    _load_clusters,
    _memo,
    _process_pool,
    _resolve_clusters,
    partition_to_json,
)
from .estimators import chi_matrix, chi_to_csv, seco
from .experiments import ExperimentConfig, results_to_csv, run_experiment
from .maxima import _cut_blocks, pseudo_obs
from .simulate import RepetitionConfig, build_experiment_model, repetition_process

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line diagnostics, exit status 2
        raise _UsageError(message)


# From this many file bytes, cluster and seco fork one worker that parses the
# first half of the body. In cluster it lives until the command ends, and
# also sums half of the pairs for chi and formats chi.csv. Below it the
# calling process does the same tasks itself: importing the process pool and
# a round trip through a forked one-worker pool take about 40 ms in a fresh
# process (about 19 ms once imported, with a 1.6 MB result), more than a
# parallel half of the parse saves below a few MB (loadtxt parses about
# 115 MB/s on one vCPU of a shared Xeon host).
_FORK_MIN_BYTES = 8 << 20


def _lines(raw, encoding: str, size: int):
    """The next `size` bytes of a binary file as text lines, with their ends.

    A line ends at "\n", "\r\n" or a bare "\r", as in a file read in text
    mode. Blank lines are dropped: empty, only whitespace, or whitespace and
    then a "#" comment.
    """
    while size > 0:
        line = raw.readline(size)
        if not line:
            return
        size -= len(line)
        # loadtxt takes a line that ends in "\r\n" or "\r" but rejects any
        # other "\r"; splitting only then spares the copy of every line
        end = len(line) - 1 - line.endswith(b"\r\n")
        for piece in line.splitlines(keepends=True) if line.find(b"\r", 0, end) >= 0 else (line,):
            text = piece.decode(encoding)
            # loadtxt would read a line of whitespace as one cell; only a line
            # that starts with whitespace or "#" can be blank
            if (text[0].isspace() or text[0] == "#") and not text.split("#", 1)[0].strip():
                continue
            yield text


def _parse_range(path: str, encoding: str, width: int, lo: int, hi: int):
    """The data rows of the body lines in bytes [lo, hi) of the file, checked as a body.

    The lines stream into loadtxt: no copy of the range is held. A range of
    only blank lines gives 0 rows: loadtxt would warn that it holds no data.
    """
    with open(path, "rb") as raw:
        raw.seek(lo)
        lines = _lines(raw, encoding, hi - lo)
        try:
            first = next(lines, None)
            if first is None:
                return np.empty((0, width))
            rows = np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2)
        except ValueError as exc:
            raise MalformedInput(f"{path}: {exc}") from exc
    if rows.shape[1] != width:
        raise MalformedInput(f"{path}: header has {width} names but rows have {rows.shape[1]} cells")
    if not np.isfinite(rows).all():
        raise InvalidParam("series contains NaN or infinite entries")
    return rows


def _first_blocks(path: str, encoding: str, width: int, lo: int, hi: int, m: int):
    """The worker's task: the first half of the body, cut along the blocks.

    The first half starts at series row 0, so its rows are cut without an
    offset. Returns the maxima of its whole blocks and the rows after them;
    its row count is len(maxima) * m + len(rows after them).
    """
    return _cut_blocks(_parse_range(path, encoding, width, lo, hi), 0, m)[1:]


def _workers_for(path: str) -> int:
    """1 for a file of at least _FORK_MIN_BYTES in a process that may fork, else 0.

    A path that cannot be stat'ed gives 0, and the reader reports it.
    """
    with contextlib.suppress(OSError):
        return int(os.stat(path).st_size >= _FORK_MIN_BYTES and _fork_is_safe())
    return 0


def _read_maxima(path: str, m: int, pool=None, *, _split: int | None = None):
    """The column names and block maxima of a CSV series, never the n x d series.

    The header's names are checked before the body is read; one leading
    byte-order mark is dropped from them. The body splits at the first line
    start after its byte midpoint (or at byte offset `_split`, which must be
    a line start). The first half goes to the pool's worker through
    core._in_worker, so with no pool, or a worker that dies, the calling
    process parses it after the second half. The first half comes back as
    only the maxima of its whole blocks and the rows after them. The caller
    cuts the second half's rows along the blocks of the whole series and
    finishes the block open at the split from both halves' rows. A maximum
    is exact, so the result is bit-identical to block_maxima of the whole
    series.

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
        start = len(header.encode(encoding))
        header = header.removeprefix("\ufeff")  # the byte-order mark of a "CSV UTF-8" export
        if not header.strip():
            raise MalformedInput(f"{path}: empty input")
        names = tuple(cell.strip() for cell in header.rstrip("\r\n").split(","))
        width = len(names)
        if len(set(names)) != width:
            raise InvalidParam("variable names must be unique")
        if "" in names:
            raise MalformedInput(f"{path}: column {names.index('')} has an empty name")
        split = _split
        if split is None:
            with open(path, "rb") as raw:
                raw.seek((start + end) // 2)
                raw.readline()
                split = raw.tell()
        first = _in_worker(pool, _first_blocks, path, encoding, width, start, split, m)
        try:
            rows = _parse_range(path, encoding, width, split, end)
            maxima, left_open = first()
        except ValueError:
            # the whole body in one piece, for the whole file's message
            rows = _parse_range(path, encoding, width, start, end)
            maxima = left_open = rows[:0]
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    r = len(maxima) * m + len(left_open)
    n = r + len(rows)
    if n == 0:
        raise MalformedInput(f"{path}: no data rows")
    head, rest, _ = _cut_blocks(rows, r, m)
    # the block left open at the split, finished by the second half's head
    straddle = _cut_blocks(np.concatenate([left_open, head]), 0, m)[1]
    values = np.concatenate([maxima, straddle, rest])
    return names, _adopt(MaximaMatrix, values, block_length=m, source_length=n)


def _pairwise_in_halves(pool, pobs) -> None:
    """Fill pobs.abs_diff_sums from two row ranges of its pairs, the first through core._in_worker.

    The first c rows of the upper triangle hold at least half of its pairs,
    and c is the least such count. The ranges sum disjoint entries, so the
    matrix is bit-identical to one kernel call over every row.
    """
    d = pobs.d
    c = next(c for c in range(d) if 2 * c * (2 * d - c - 1) >= d * (d - 1))
    theirs = _in_worker(pool, kernels.pairwise_abs_diff_sums, pobs.values, 0, c)
    mine = kernels.pairwise_abs_diff_sums(pobs.values, c, d - 1)
    _memo(pobs, "_abs_diff_sums", lambda: theirs() + mine)


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
        _check_tau(args.tau)
    elif args.grid_n is not None and args.grid_n < 1:
        raise MalformedInput("--grid-n must be positive")
    else:
        for flag in ("grid_lo", "grid_hi"):
            value = getattr(args, flag)
            if value is not None and not math.isfinite(value):
                raise InvalidParam(f"--{flag.replace('_', '-')} must be finite")
        if any(b is not None and b < 0.0 for b in (args.grid_lo, args.grid_hi)):
            raise InvalidParam("grid values must be nonnegative")
        if args.grid_lo is not None and args.grid_hi is not None:
            _check_grid_ends(args.grid_lo, args.grid_hi)
    _check_block_length(args.block_size)
    with _process_pool(_workers_for(args.input)) as pool:
        names, maxima = _read_maxima(args.input, args.block_size, pool)
        pobs = pseudo_obs(maxima)
        _pairwise_in_halves(pool, pobs)
        chi = chi_matrix(pobs)
        if args.out_chi:
            # a copy, whose instance dict the scan's pair-order memo leaves
            # alone while the pool pickles it
            chi_text = _in_worker(pool, chi_to_csv, copy.copy(chi), names, args.clip_chi)
        scan = None
        if args.tau is not None:
            part = eco_cluster(chi, args.tau)
        else:
            grid = _grid(args.block_size, maxima.d, maxima.k, args.grid_lo, args.grid_hi, args.grid_n)
            scan = select_threshold(pobs, chi, grid)
            part = eco_cluster(chi, scan.selected)
        text = partition_to_json(part, names)
        if args.out_partition:
            _write(args.out_partition, text)
        else:
            sys.stdout.write(text)
        if args.out_chi:
            _write(args.out_chi, chi_text())
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
        _write(args.out, _csv_matrix(names, series.values))
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
    given = vars(args)
    # the grid flags each framework reads; given to another, a flag would
    # have no effect, so it is refused before anything is simulated
    reads = {"F1": ("n", "m_grid"), "F2": ("m", "k_grid"), "F3": ("n", "m", "tau_grid")}
    unread = set().union(*reads.values()) - set(reads[args.framework])
    for key in given:
        if key in unread:
            raise MalformedInput(f"--{key.replace('_', '-')} is not read by framework {args.framework}")
    if "skm_restarts" in given and "include_competitors" not in given:
        raise MalformedInput("--skm-restarts requires --competitors")
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    cfg = ExperimentConfig(**{key: value for key, value in given.items() if key in fields})
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
    # a missing or malformed partition fails before the CSV's parse, about
    # 1 s at 100 MB; its names are resolved after it
    try:
        with open(args.partition) as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {args.partition}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{args.partition}: {exc}") from exc
    clusters = _load_clusters(text)
    with _process_pool(_workers_for(args.input)) as pool:
        names, maxima = _read_maxima(args.input, args.block_size, pool)
    pobs = pseudo_obs(maxima)
    part = _resolve_clusters(clusters, names)
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
    s.add_argument("--p", type=float, default=ExperimentConfig.p)
    s.add_argument("--beta", type=float, default=ExperimentConfig.beta)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--margins", choices=("uniform", "frechet"), default="uniform")
    s.add_argument("--out", required=True, help="CSV path; sidecar written to <out>.json")
    s.set_defaults(func=cmd_simulate)

    # a flag for an ExperimentConfig field has the field's name as its dest,
    # and a flag not given leaves the field's default
    e = sub.add_parser("experiment", help="run a recovery study over a grid",
                       argument_default=argparse.SUPPRESS)
    e.add_argument("--experiment", required=True, choices=("E1", "E2", "E3"))
    e.add_argument("--framework", required=True, choices=("F1", "F2", "F3"))
    e.add_argument("--d", type=int, required=True)
    e.add_argument("--p", type=float)
    e.add_argument("--beta", type=float)
    e.add_argument("--reps", type=int)
    e.add_argument("--seed", type=int, dest="master_seed", metavar="SEED")
    e.add_argument("--n", type=int, help="series length (F1, F3)")
    e.add_argument("--m", type=int, help="block length (F2, F3)")
    e.add_argument("--m-grid", type=_int_list)
    e.add_argument("--k-grid", type=_int_list)
    e.add_argument("--tau-grid", type=_float_list, help="F3 grid (default: scan around tau_theory)")
    e.add_argument("--competitors", action="store_true", dest="include_competitors",
                   help="also run the oracle-g baselines")
    e.add_argument("--skm-restarts", type=int)
    e.add_argument("--threads", type=int,
                   help="parallel workers: this process and threads - 1 worker processes (default 1)")
    e.add_argument("--timings", action="store_true", default=False,
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
