"""Command-line surface: flags, exit codes, files, and determinism."""

import itertools
import json
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from tailclust import SeriesMatrix, block_maxima, cli, kernels, tau_theory
from tailclust.cli import main
from tailclust.estimators import chi_to_csv

from conftest import assert_no_child_left


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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--grid-n", "0"], "--grid-n must be positive"),
        (["--grid-n", "-4", "--grid-lo", "0.1"], "--grid-n must be positive"),
        (["--grid-lo", "-0.1"], "grid values must be nonnegative"),
        (["--grid-hi", "-0.5"], "grid values must be nonnegative"),
        (["--grid-lo", "-1", "--grid-hi", "0.5", "--grid-n", "3"], "grid values must be nonnegative"),
        (["--grid-hi", "inf"], "--grid-hi must be finite"),
        (["--grid-hi=-inf"], "--grid-hi must be finite"),
        (["--grid-hi", "nan", "--grid-lo", "0.1"], "--grid-hi must be finite"),
        (["--grid-lo", "inf", "--grid-hi", "0.5"], "--grid-lo must be finite"),
        (["--grid-lo=-inf"], "--grid-lo must be finite"),
        (["--grid-lo", "nan", "--grid-hi", "nan"], "--grid-lo must be finite"),
        (["--block-size", "0"], "block length must be a positive integer"),
        (["--block-size", "-3", "--grid-n", "3"], "block length must be a positive integer"),
    ],
)
def test_cluster_rejects_grid_flags_before_reading_the_input(flags, message, monkeypatch, capsys):
    def reading(path, m, **private):
        raise AssertionError(f"{path} was read before the flags were checked")

    monkeypatch.setattr(cli, "_reading", reading)
    argv = ["cluster", "--input", "unread.csv", "--block-size", "5", "--auto-tau", *flags]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("tau", ["-1", "nan", "-inf", "-0.2"])
def test_cluster_rejects_tau_before_reading_the_input(tau, monkeypatch, capsys):
    def reading(path, m, **private):
        raise AssertionError(f"{path} was read before tau was checked")

    monkeypatch.setattr(cli, "_reading", reading)
    assert main(["cluster", "--input", "unread.csv", "--block-size", "5", f"--tau={tau}"]) == 2
    assert capsys.readouterr().err == "error: tau must be a nonnegative real\n"


def test_cluster_malformed_csv(tmp_path, capsys):
    cases = {
        "empty.csv": "",
        "text.csv": "a,b\n1.0,oops\n",
        "jagged.csv": "a,b\n1.0\n",
        "noheadernums.csv": "a,b\n",
        "blankbody.csv": "a,b\n\n  \n",
        "commentbody.csv": "a,b\n# no rows yet\n",
        "spacesfirst.csv": "a,b\n  \n1,2\n3,4\n",  # a blank line, then a single block
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
        if name == "spacesfirst.csv":
            assert err == "error: need at least 2 blocks; lower the block size\n"


def test_cluster_malformed_csv_messages_name_the_file_once(tmp_path, capsys):
    for name, content in {"empty.csv": "", "commentbody.csv": "a,b\n# no rows yet\n"}.items():
        path = tmp_path / name
        path.write_text(content)
        assert main(["cluster", "--input", str(path), "--block-size", "2", "--tau", "0.1"]) == 2
        reason = "empty input" if name == "empty.csv" else "no data rows"
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"


@pytest.mark.parametrize("header", ["a,,c", "a, ,c", "a,\t,c"])
def test_cluster_rejects_an_empty_column_name(header, tmp_path, capsys):
    path = tmp_path / "unnamed.csv"
    path.write_text(header + "\n" + "".join(f"{i},{i * i % 7},{-i}\n" for i in range(12)))
    assert main(["cluster", "--input", str(path), "--block-size", "3", "--tau", "0.5"]) == 2
    assert capsys.readouterr().err == f"error: {path}: column 1 has an empty name\n"


# ---------------------------------------------------------------------------
# the CSV reader: two halves split at a line start, the first in a forked child


@pytest.fixture
def record_forks(monkeypatch):
    """Fork at any body size, and record whether each read forked."""
    forks = []
    read, process_pool = cli._reading, cli._process_pool

    def reading(*args, **private):
        forks.append(False)
        return read(*args, **private)

    def forking(workers):
        assert workers == 1
        forks[-1] = True
        return process_pool(workers)

    monkeypatch.setattr(cli, "_FORK_MIN_BYTES", 0)
    monkeypatch.setattr(cli, "_reading", reading)
    monkeypatch.setattr(cli, "_process_pool", forking)
    return forks


# rows of a 3-column series: signed zeros and ties inside blocks, blank and
# comment lines (one after a row, one with \r\n, some of only whitespace)
# between them
_ROWS = [
    "0.0,-0.0,1.5",
    "",
    "-0.0,0.0,1.5",
    "# a comment",
    "2.25,-1e-300,7",
    " \t ",
    "1e300,3,  -2",
    "  # a note",
    "#",
    "0.5,0.5,0.5 # trailing note",
    "-0.0,-0.0,-0.0\r",
    "#",
    "4,4,1",
    "-3,-3.5,8",
    "",
    "",
    "6,0.0,-0.0",
    "0.125,9,9",
    "# before the last rows",
    "7,1,2",
    "-0.0,2,0.0",
    "5e-324,-5e-324,0",
]
# the series _ROWS holds: loadtxt itself would read a line of whitespace as one cell
_SERIES = SeriesMatrix(
    np.loadtxt([row for row in _ROWS if row.split("#")[0].strip()], delimiter=",", ndmin=2),
    ("a", "b", "c"),
)


@pytest.mark.parametrize("fork", [False, True], ids=["in-caller", "forked"])
@pytest.mark.parametrize("m", [1, 2, 3, 7])
def test_reader_equals_block_maxima_of_the_loaded_series_at_every_split(
    tmp_path, m, fork, monkeypatch, record_forks
):
    caller_ranges = []
    if fork:
        # a half that fails would hide behind the whole-body parse: a second
        # range that the calling process parses
        caller, parse_range = os.getpid(), cli._parse_range

        def parse_half(*args):
            if os.getpid() == caller:
                caller_ranges.append(args[3:])
            return parse_range(*args)

        monkeypatch.setattr(cli, "_parse_range", parse_half)
    else:
        monkeypatch.setattr(cli, "_FORK_MIN_BYTES", float("inf"))
    path = tmp_path / "series.csv"
    text = "a,b,c\n" + "\n".join(_ROWS) + "\n# the end\n"
    assert _SERIES.values.shape == (13, 3)
    expect = block_maxima(_SERIES, m)
    reads = 0
    for newline in ("\n", "\r", "\r\n"):  # a bare \r ends a line as \n and \r\n do
        body = text.replace("\n", newline).encode()
        path.write_bytes(body)
        starts = list(itertools.accumulate(map(len, body.splitlines(keepends=True))))
        for split in starts:  # every line start
            names, got = cli._read_maxima(str(path), m, _split=split)
            assert names == ("a", "b", "c")
            assert (got.block_length, got.source_length) == (m, 13)
            assert got.values.tobytes() == expect.values.tobytes(), (newline, split)
            if fork:
                assert caller_ranges == [(split, len(body))], "a half failed"
                caller_ranges.clear()
        reads += len(starts)
    assert record_forks == [fork] * reads
    assert_no_child_left()


def test_reader_parses_a_dead_childs_half_itself(tmp_path, monkeypatch, record_forks):
    path = tmp_path / "series.csv"
    text = "a,b,c\n" + "\n".join(_ROWS) + "\n"
    path.write_text(text)
    start, split = len("a,b,c\n"), len(text) // 2
    split = text.index("\n", split) + 1  # a line start in the body
    expect = block_maxima(_SERIES, 2)
    caller, caller_ranges = os.getpid(), []
    parse_range = cli._parse_range

    def die_in_child(*args):
        if os.getpid() != caller:
            os._exit(1)
        caller_ranges.append(args[3:])
        return parse_range(*args)

    monkeypatch.setattr(cli, "_parse_range", die_in_child)
    names, got = cli._read_maxima(str(path), 2, _split=split)
    assert got.values.tobytes() == expect.values.tobytes()
    # the child's half, not the whole body, after the caller's own half
    assert caller_ranges == [(split, len(text)), (start, split)]
    assert record_forks == [True]
    assert_no_child_left()


def _body_rows(bad_row, line):
    rows = [f"{i}.5,{9 - i}.25" for i in range(10)]
    rows[bad_row] = line
    rows.insert(5, "# comment")
    rows.insert(0, "")
    return "a,b\n" + "\n".join(rows) + "\n"


# each message is the one a single pass over the whole file gives
@pytest.mark.parametrize(
    "line, half, message",
    [
        ("3.5,oops", "first", "{path}: could not convert string 'oops' to float64 at row 1, column 2."),
        ("3.5,oops", "second", "{path}: could not convert string 'oops' to float64 at row 8, column 2."),
        ("3.5", "first", "{path}: the number of columns changed from 2 to 1 at row 2; "
                         "use `usecols` to select a subset and avoid this error"),
        ("3.5", "second", "{path}: the number of columns changed from 2 to 1 at row 9; "
                          "use `usecols` to select a subset and avoid this error"),
        ("3.5,1,2", "second", "{path}: the number of columns changed from 2 to 3 at row 9; "
                              "use `usecols` to select a subset and avoid this error"),
        # a blank line is dropped and counts as no row
        ("   \n3.5", "second", "{path}: the number of columns changed from 2 to 1 at row 9; "
                               "use `usecols` to select a subset and avoid this error"),
        ("nan,1", "first", "series contains NaN or infinite entries"),
        ("nan,1", "second", "series contains NaN or infinite entries"),
        ("1,-inf", "first", "series contains NaN or infinite entries"),
        ("1,-inf", "second", "series contains NaN or infinite entries"),
    ],
    ids=["cell-first", "cell-second", "jagged-first", "jagged-second", "wide-second", "blank-second",
         "nan-first", "nan-second", "inf-first", "inf-second"],
)
def test_reader_reports_a_bad_row_in_either_half_as_one_pass_does(
    line, half, message, tmp_path, capsys, record_forks
):
    path = tmp_path / f"bad_{half}.csv"
    text = _body_rows(1 if half == "first" else 8, line)
    path.write_text(text)
    # the bad line lies in the half the case names
    assert (text.index(f"\n{line}\n") < len(text) // 2) == (half == "first")
    assert main(["cluster", "--input", str(path), "--block-size", "2", "--tau", "0.1"]) == 2
    assert capsys.readouterr().err == "error: " + message.format(path=path) + "\n"
    assert record_forks == [True]
    assert_no_child_left()


@pytest.mark.parametrize("fork", [False, True], ids=["in-caller", "forked"])
def test_reader_skips_a_half_of_only_whitespace_lines(tmp_path, fork, monkeypatch, record_forks):
    if not fork:
        monkeypatch.setattr(cli, "_FORK_MIN_BYTES", float("inf"))
    path = tmp_path / "spaces.csv"
    rows = "a,b\n" + "".join(f"{i}.5,{i}\n" for i in range(10))
    path.write_text(rows + (" " * 40 + "\n") * 3 + "  # a note\n\t\n")
    raw = np.loadtxt(rows.splitlines()[1:], delimiter=",", ndmin=2)
    expect = block_maxima(SeriesMatrix(raw, ("a", "b")), 2)
    names, got = cli._read_maxima(str(path), 2, _split=len(rows))
    assert (names, got.source_length) == (("a", "b"), 10)
    assert got.values.tobytes() == expect.values.tobytes()
    assert record_forks == [fork]
    assert_no_child_left()


def test_reader_splits_a_last_line_that_ends_in_two_bare_returns(tmp_path):
    path = tmp_path / "cr.csv"
    path.write_bytes(b"a,b\n1,2\n3,4\r\r")  # the last line is empty
    names, got = cli._read_maxima(str(path), 1)
    assert got.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_reader_leaves_no_child_after_success_or_an_error_in_the_caller(
    noise_csv, tmp_path, capsys, monkeypatch, record_forks
):
    argv = ["cluster", "--input", str(noise_csv), "--block-size", "20", "--auto-tau",
            "--out-partition", str(tmp_path / "part.json")]
    assert main(argv) == 0
    assert_no_child_left()

    caller = os.getpid()
    parse_range = cli._parse_range

    def fail_in_caller(*args):
        if os.getpid() == caller:
            raise RuntimeError("stopped in the caller")
        return parse_range(*args)

    # the caller fails while the child may still be parsing its half
    monkeypatch.setattr(cli, "_parse_range", fail_in_caller)
    with pytest.raises(RuntimeError, match="stopped in the caller"):
        main(argv)
    assert record_forks == [True, True]
    assert_no_child_left()
    capsys.readouterr()


def test_reader_forks_only_without_another_thread(noise_csv, tmp_path, capsys, record_forks):
    argv = ["cluster", "--input", str(noise_csv), "--block-size", "20", "--tau", "0.5"]
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert main(argv) == 0
    finally:
        release.set()
        other.join()
    threaded = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == threaded
    assert record_forks == [False, True]


def test_reader_does_not_fork_for_a_small_body(noise_csv, monkeypatch, capsys):
    pools = []
    process_pool = cli._process_pool
    monkeypatch.setattr(cli, "_process_pool", lambda workers: pools.append(workers) or process_pool(workers))
    assert main(["cluster", "--input", str(noise_csv), "--block-size", "20", "--tau", "0.5"]) == 0
    assert pools == []
    capsys.readouterr()


def test_cluster_and_seco_never_build_the_series(noise_csv, tmp_path, monkeypatch, capsys, record_forks):
    def series(self):
        raise AssertionError("a SeriesMatrix was built")

    monkeypatch.setattr(SeriesMatrix, "__post_init__", series)
    part = tmp_path / "part.json"
    argv = ["cluster", "--input", str(noise_csv), "--block-size", "20", "--auto-tau",
            "--out-partition", str(part)]
    assert main(argv) == 0
    assert main(["seco", "--input", str(noise_csv), "--block-size", "20", "--partition", str(part)]) == 0
    assert record_forks == [True, True]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# cluster on both cores: the reader's worker also sums the first rows of the
# pairs and formats chi.csv

# the test process, and the pairwise kernel before any patch; a worker that
# unpickles a function finds it here by name
_TEST_PROCESS = os.getpid()
_PAIRWISE = kernels.pairwise_abs_diff_sums
_CALLER_PAIRWISE_ROWS = []


def _pairwise_recorded(u, lo=0, hi=None):
    if os.getpid() == _TEST_PROCESS:
        _CALLER_PAIRWISE_ROWS.append((lo, hi))
    return _PAIRWISE(u, lo, hi)


def _pairwise_dies_in_a_worker(u, lo=0, hi=None):
    if os.getpid() != _TEST_PROCESS:
        os._exit(1)
    return _PAIRWISE(u, lo, hi)


def _chi_to_csv_dies_in_a_worker(*args):
    if os.getpid() != _TEST_PROCESS:
        os._exit(1)
    return chi_to_csv(*args)


@pytest.fixture
def factor_csv(tmp_path):
    # 12 columns in 3 blocks of 4, each block sharing one Frechet factor
    rng = np.random.default_rng(17)
    d = 12
    factors = 1.0 / rng.standard_exponential((3000, 3))
    noise = 1.0 / rng.standard_exponential((3000, d))
    weights = np.linspace(0.4, 0.8, d)
    raw = np.maximum(weights * factors[:, np.arange(d) % 3], (1.0 - weights) * noise)
    path = tmp_path / "factor.csv"
    write_csv(path, raw, [f"x{j}" for j in range(d)])
    return path


def run_cluster(csv, flags, out, capsys):
    """Exit code, stdout and stderr of one cluster call, and the files it wrote into out.

    A flag value that names a .json or .csv file is taken inside out.
    """
    out.mkdir()
    argv = ["cluster", "--input", str(csv), "--block-size", "10"]
    argv += [str(out / f) if f.endswith((".json", ".csv")) else f for f in flags]
    rc = main(argv)
    std = capsys.readouterr()
    return rc, std.out, std.err, {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.mark.parametrize(
    "flags",
    [
        ["--auto-tau", "--out-partition", "part.json", "--out-chi", "chi.csv", "--out-scan", "scan.csv"],
        ["--tau", "0.4", "--out-partition", "part.json", "--out-chi", "chi.csv"],
        ["--auto-tau", "--clip-chi", "--out-partition", "part.json", "--out-chi", "chi.csv"],
        ["--auto-tau", "--out-partition", "part.json", "--out-scan", "scan.csv"],
        ["--auto-tau", "--out-chi", "chi.csv", "--out-scan", "scan.csv"],
    ],
    ids=["auto-tau", "tau", "clip-chi", "no-chi", "partition-to-stdout"],
)
def test_cluster_with_a_worker_writes_what_one_process_writes(
    flags, factor_csv, tmp_path, monkeypatch, capsys, record_forks
):
    monkeypatch.setattr(cli, "_FORK_MIN_BYTES", float("inf"))
    alone = run_cluster(factor_csv, flags, tmp_path / "alone", capsys)
    monkeypatch.setattr(cli, "_FORK_MIN_BYTES", 0)
    monkeypatch.setattr(kernels, "pairwise_abs_diff_sums", _pairwise_recorded)
    _CALLER_PAIRWISE_ROWS.clear()
    forked = run_cluster(factor_csv, flags, tmp_path / "forked", capsys)
    assert record_forks == [False, True]
    assert alone[0] == 0 and alone[3]
    assert forked == alone
    # the first 4 of 11 rows hold 38 of the 66 pairs: the worker sums them
    assert _CALLER_PAIRWISE_ROWS == [(4, 11)]
    assert_no_child_left()


@pytest.mark.parametrize("job", ["pairwise", "chi.csv"])
def test_cluster_does_a_dead_workers_job_itself(job, factor_csv, tmp_path, monkeypatch, capsys, record_forks):
    flags = ["--auto-tau", "--out-partition", "part.json", "--out-chi", "chi.csv", "--out-scan", "scan.csv"]
    monkeypatch.setattr(cli, "_FORK_MIN_BYTES", float("inf"))
    alone = run_cluster(factor_csv, flags, tmp_path / "alone", capsys)
    monkeypatch.setattr(cli, "_FORK_MIN_BYTES", 0)
    if job == "pairwise":
        monkeypatch.setattr(kernels, "pairwise_abs_diff_sums", _pairwise_dies_in_a_worker)
    else:
        monkeypatch.setattr(cli, "chi_to_csv", _chi_to_csv_dies_in_a_worker)
    assert run_cluster(factor_csv, flags, tmp_path / "forked", capsys) == alone
    assert record_forks == [False, True]
    assert_no_child_left()


@pytest.mark.parametrize("fork", [False, True], ids=["in-caller", "forked"])
def test_cluster_unwritable_chi_path_keeps_the_partition_and_writes_no_scan(
    fork, factor_csv, tmp_path, monkeypatch, capsys, record_forks
):
    if not fork:
        monkeypatch.setattr(cli, "_FORK_MIN_BYTES", float("inf"))
    flags = ["--auto-tau", "--out-partition", "part.json", "--out-chi", "missing/chi.csv",
             "--out-scan", "scan.csv"]
    rc, out, err, files = run_cluster(factor_csv, flags, tmp_path / "out", capsys)
    missing = tmp_path / "out" / "missing" / "chi.csv"
    assert (rc, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert list(files) == ["part.json"]
    assert record_forks == [fork]
    assert_no_child_left()


def test_cluster_kills_the_worker_when_the_caller_fails_after_the_read(
    factor_csv, tmp_path, monkeypatch, capsys, record_forks
):
    def failing(*args):
        raise RuntimeError("stopped in the scan")

    # the worker formats chi.csv while the scan fails
    monkeypatch.setattr(cli, "select_threshold", failing)
    flags = ["--auto-tau", "--out-partition", "part.json", "--out-chi", "chi.csv"]
    with pytest.raises(RuntimeError, match="stopped in the scan"):
        run_cluster(factor_csv, flags, tmp_path / "out", capsys)
    assert list((tmp_path / "out").iterdir()) == []
    assert record_forks == [True]
    assert_no_child_left()


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


def test_experiment_flags_land_in_their_config_fields(tmp_path, monkeypatch):
    from tailclust import ExperimentConfig

    configs = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: configs.append(cfg) or [])
    argv = ["experiment", "--experiment", "E1", "--framework", "F3", "--d", "4",
            "--out", str(tmp_path / "res.csv")]
    assert main(argv) == 0
    assert configs.pop() == ExperimentConfig("E1", "F3", 4)
    flags = [
        "--p", "0.9", "--beta", "2", "--reps", "7", "--seed", "11", "--n", "2000", "--m", "10",
        "--m-grid", "5,10", "--k-grid", "30,60", "--tau-grid", "0.25,0.5", "--competitors",
        "--skm-restarts", "3", "--threads", "2",
    ]
    assert main(argv + flags) == 0
    assert configs.pop() == ExperimentConfig(
        "E1", "F3", 4, p=0.9, beta=2.0, reps=7, master_seed=11, n=2000, m=10,
        m_grid=(5, 10), k_grid=(30, 60), tau_grid=(0.25, 0.5), include_competitors=True,
        skm_restarts=3, threads=2,
    )


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


def test_experiment_runtime_failure_exits_three(tmp_path, capsys, monkeypatch):
    from tailclust import InvalidParam, experiments

    def failing(cfg, gi, value, ri):
        if ri == 1:
            raise InvalidParam("replication failed")
        return {"ECO": (True, None, 0.0)}

    # a typed error raised inside a replication is a runtime failure, not a
    # flag error: the config passed its checks before any simulation began
    monkeypatch.setattr(experiments, "_one_rep", failing)
    out = tmp_path / "res.csv"
    argv = [
        "experiment", "--experiment", "E1", "--framework", "F2", "--d", "4",
        "--reps", "2", "--m", "10", "--k-grid", "20", "--out", str(out),
    ]
    # two replications: --threads 2 runs the failing second one in a worker process
    for threads in ("1", "2"):
        assert main(argv + ["--threads", threads]) == 3
        assert capsys.readouterr().err == "error: experiment failed: replication failed\n"
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
        # rejected by the config before any simulation starts
        ["experiment", "--experiment", "E2", "--framework", "F1", "--d", "3", "--out", out],
        ["experiment", "--experiment", "E1", "--framework", "F1", "--d", "9", "--out", out],
        ["experiment", "--experiment", "E1", "--framework", "F1", "--d", "4",
         "--beta", "0.5", "--out", out],
        ["experiment", "--experiment", "E1", "--framework", "F1", "--d", "4",
         "--competitors", "--skm-restarts", "0", "--out", out],
        # grid values of the active framework
        ["experiment", "--experiment", "E1", "--framework", "F1", "--d", "4",
         "--m-grid", "0", "--out", out],
        ["experiment", "--experiment", "E1", "--framework", "F1", "--d", "4",
         "--m-grid", "20000", "--n", "1000", "--out", out],
        ["experiment", "--experiment", "E1", "--framework", "F1", "--d", "4",
         "--m-grid", "10,1000", "--n", "1000", "--out", out],
        ["experiment", "--experiment", "E1", "--framework", "F3", "--d", "4",
         "--tau-grid", "-1", "--out", out],
        ["experiment", "--experiment", "E1", "--framework", "F3", "--d", "4",
         "--tau-grid", "0.5,nan", "--out", out],
        ["experiment", "--experiment", "E1", "--framework", "F3", "--d", "4",
         "--m", "0", "--out", out],
        ["experiment", "--experiment", "E1", "--framework", "F2", "--d", "4",
         "--k-grid", "0", "--out", out],
        ["experiment", "--experiment", "E1", "--framework", "F2", "--d", "4",
         "--k-grid", "50,1", "--out", out],
        ["experiment", "--experiment", "E1", "--framework", "F2", "--d", "4",
         "--m", "0", "--out", out],
    ]
    for argv in bad:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "r.csv").exists()


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


def test_seco_rejects_the_block_length_before_reading_the_input(monkeypatch, capsys):
    def read_maxima(path, m, **private):
        raise AssertionError(f"{path} was read before the block length was checked")

    monkeypatch.setattr(cli, "_read_maxima", read_maxima)
    argv = ["seco", "--input", "unread.csv", "--block-size", "0", "--partition", "unread.json"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: block length must be a positive integer\n"


def test_seco_reads_the_partition_before_the_input(monkeypatch, tmp_path, capsys):
    def read_maxima(path, m, **private):
        raise AssertionError(f"{path} was read before the partition")

    monkeypatch.setattr(cli, "_read_maxima", read_maxima)
    missing = tmp_path / "missing.json"
    argv = ["seco", "--input", "unread.csv", "--block-size", "2", "--partition", str(missing)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n"


def test_seco_rejects_a_malformed_partition_before_the_input(monkeypatch, tmp_path, capsys):
    def read_maxima(path, m, **private):
        raise AssertionError(f"{path} was read before the partition was parsed")

    monkeypatch.setattr(cli, "_read_maxima", read_maxima)
    part = tmp_path / "bad.json"
    cases = {
        b"{not json": "error: invalid partition JSON: ",
        b'{"clusters": [["a"], "b"]}': "error: each cluster must be a list of names\n",
        b'{"clusters": [["a\xff"]]}': f"error: {part}: ",
    }
    for content, message in cases.items():
        part.write_bytes(content)
        argv = ["seco", "--input", "unread.csv", "--block-size", "2", "--partition", str(part)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1


def test_seco_rejects_a_single_block(tmp_path, capsys):
    data = tmp_path / "four.csv"
    write_csv(data, np.random.default_rng(5).random((4, 2)), ("x", "y"))
    part = tmp_path / "p.json"
    part.write_text('{"clusters": [["x"], ["y"]]}')
    for m in ("3", "4"):  # k = 1
        assert main(["seco", "--input", str(data), "--block-size", m,
                     "--partition", str(part)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


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
