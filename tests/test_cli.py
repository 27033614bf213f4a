"""End-to-end tests of the command line entry points.

Everything goes through cli.main(argv) in-process so exit codes and
printed output are checked without spawning an interpreter.
"""

import csv
import dataclasses
import hashlib
import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gubcover import cli, model
from gubcover import io as gio
from gubcover.driver import SolverConfig

import oracle
from conftest import build_t1, solve_checked


@pytest.fixture(autouse=True)
def recounted_solves(monkeypatch):
    """Every solve the CLI runs goes through the oracle recount; forked
    bench workers inherit the patched module."""
    monkeypatch.setattr(cli, "solve", solve_checked)


@pytest.fixture()
def t1_file(tmp_path):
    path = tmp_path / "t1.gub"
    gio.write_gub(build_t1(), path)
    return str(path)


def _rows_without_elapsed(path):
    with open(path) as fh:
        header = fh.readline()
        rows = list(csv.DictReader(fh))
    for row in rows:
        row.pop("elapsed")
    return header, rows


# -- solve ---------------------------------------------------------------


def test_solve_reports_optimum(t1_file, capsys):
    rc = cli.main(["solve", "--instance", t1_file, "--target", "8",
                   "--time-limit", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "objective: 8" in out
    assert "feasible: yes" in out
    assert "bound:" in out


def test_solve_score_none(t1_file, capsys):
    rc = cli.main(["solve", "--instance", t1_file, "--score", "none",
                   "--target", "8", "--time-limit", "5"])
    assert rc == 0
    assert "objective: 8" in capsys.readouterr().out


def test_solve_writes_json(t1_file, tmp_path, capsys):
    out = tmp_path / "run.json"
    rc = cli.main(["solve", "--instance", t1_file, "--target", "8",
                   "--time-limit", "5", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["objective"] == 8
    assert sorted(payload["selected"]) == [1, 2]
    assert payload["instance_name"] == t1_file
    assert payload["build"].startswith("gubcover-")
    # the written selection, recounted from scratch
    t1 = build_t1()
    x = model.as_bool(t1.n, payload["selected"])
    s, blk = oracle.recount(t1, x)
    assert np.all(blk <= t1.cap)
    assert payload["feasible"] == bool(np.all(s >= t1.demand)) is True
    assert payload["objective"] == int(t1.cost[x].sum())
    want = oracle.penalized_value(t1, x, model.initial_weights(t1))
    assert payload["penalized"] == pytest.approx(want, rel=1e-9)


def test_solve_appends_csv(t1_file, tmp_path, capsys):
    out = tmp_path / "runs.csv"
    argv = ["solve", "--instance", t1_file, "--target", "8",
            "--time-limit", "5", "--out", str(out), "--emit", "csv"]
    assert cli.main(argv) == 0
    assert cli.main(argv) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(row["objective"] == "8" for row in rows)


def test_solve_missing_file(tmp_path, capsys):
    rc = cli.main(["solve", "--instance", str(tmp_path / "nope.gub")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_solve_reports_no_feasible(tmp_path, capsys):
    # two rows, one column each, both columns locked in a cap-1 block
    from gubcover.model import Instance

    inst = Instance.from_columns(
        cost=[5, 5], col_rows=[[0], [1]], demand=[1, 1],
        blocks=[(1, [0, 1])],
    )
    path = tmp_path / "stuck.gub"
    gio.write_gub(inst, path)
    rc = cli.main(["solve", "--instance", str(path), "--time-limit", "2",
                   "--max-iterations", "3"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "feasible: no" in out
    assert "no feasible solution found" in out


def test_solve_rejects_oversized_integer(t1_file, capsys):
    with open(t1_file) as fh:
        lines = fh.read().splitlines()
    lines[1] = "99999999999999999999 " + lines[1].split(" ", 1)[1]
    with open(t1_file, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert cli.main(["solve", "--instance", t1_file, "--time-limit", "1"]) == 1
    assert "error: line 2: cost of column 1 99999999999999999999 out of range" in capsys.readouterr().err


def test_solve_rejects_cost_sum_beyond_int64(tmp_path, capsys):
    path = tmp_path / "overflow.gub"
    path.write_text("1 2 1\n9223372036854775807 5\n1\n2 1 2\n1 2 1 2\n")
    assert cli.main(["solve", "--instance", str(path), "--time-limit", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cost_sum_overflow: costs sum to 9223372036854775812")


def test_solve_flags_set_every_config_field():
    args = cli._build_parser().parse_args([
        "solve", "--instance", "x.gub", "--score", "none", "--time-limit", "5",
        "--seed", "3", "--neighborhood", "1flip", "--no-path-relinking",
        "--uniform-greedy", "--target", "8", "--max-iterations", "2"])
    cfg, default = cli._solve_config(args), SolverConfig()
    for field in dataclasses.fields(SolverConfig):
        assert getattr(cfg, field.name) != getattr(default, field.name), field.name


def test_bare_flags_parse_to_the_dataclass_defaults(tmp_path, monkeypatch):
    args = cli._build_parser().parse_args(["solve", "--instance", "f"])
    assert cli._solve_config(args) == SolverConfig()

    made, generate = [], gio.generate

    def recorded(params):
        made.append(params)
        return generate(params)

    monkeypatch.setattr(gio, "generate", recorded)
    rc = cli.main(["generate", "--rows", "12", "--cols", "24", "--density", "0.3",
                   "--block-size", "6", "--cap", "3", "--out", str(tmp_path / "x.gub")])
    assert rc == 0
    assert made == [gio.GeneratorParams(rows=12, cols=24, density=0.3, block_size=6, cap=3)]


def test_solve_rejects_bad_config(t1_file, capsys):
    rc = cli.main(["solve", "--instance", t1_file, "--time-limit", "-1"])
    assert rc == 1
    assert "error: time_limit must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be a non-negative integer"),
    (["--target", "nan"], "target must not be NaN"),
])
def test_solve_rejects_bad_config_before_reading(tmp_path, capsys, flags, message):
    # the instance file does not exist, so only a check made before the
    # read can word the error
    rc = cli.main(["solve", "--instance", str(tmp_path / "missing.gub"), *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# -- check ---------------------------------------------------------------


def test_check_accepts_optimum(t1_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("2 3\n")
    rc = cli.main(["check", "--instance", t1_file, "--solution", str(sol),
                   "--expect", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "objective: 8" in out
    assert "ok" in out


def test_check_flags_cap_violation(t1_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("1 2 3\n")
    rc = cli.main(["check", "--instance", t1_file, "--solution", str(sol)])
    assert rc == 2
    assert "GUB cap violated: block 1" in capsys.readouterr().out


def test_check_flags_coverage_violation(t1_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("4\n")
    rc = cli.main(["check", "--instance", t1_file, "--solution", str(sol)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "coverage violated: row 1 (0 < 1)" in out
    assert "coverage violated: row 3 (1 < 2)" in out


def test_check_rejects_bad_token(t1_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("2 x\n")
    rc = cli.main(["check", "--instance", t1_file, "--solution", str(sol)])
    assert rc == 1
    assert "token 2" in capsys.readouterr().err


def test_check_rejects_out_of_range(t1_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("9\n")
    rc = cli.main(["check", "--instance", t1_file, "--solution", str(sol)])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


def test_check_rejects_index_beyond_int64(t1_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("1 99999999999999999999\n")
    rc = cli.main(["check", "--instance", t1_file, "--solution", str(sol)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: token 2: column index 99999999999999999999 out of range")


def test_check_expect_mismatch(t1_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("2 3\n")
    rc = cli.main(["check", "--instance", t1_file, "--solution", str(sol),
                   "--expect", "7"])
    assert rc == 1
    assert "objective mismatch" in capsys.readouterr().err


# -- generate ------------------------------------------------------------


def test_generate_class_family(tmp_path, capsys):
    out = tmp_path / "g1.gub"
    rc = cli.main(["generate", "--class", "G", "--type", "1",
                   "--out", str(out)])
    assert rc == 0
    inst = gio.read_instance(out, "gub")
    assert (inst.m, inst.n, inst.k) == (1000, 10000, 1000)
    assert np.all(inst.cap == 1)
    assert np.all(np.diff(inst.cost) >= 0)
    # the file's bytes are a benchmark input (G1, index 1, seed 0): a change
    # to the generator's draws or to the writer must not go unnoticed
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "f8d12f6e01d13097b3012db7300c02ab52bea972a1daa8c3d7d6fbeab16ddaee"


# the G-N families, written out apart from cli.CLASSES so that a mistyped
# entry there shows: class -> (rows, cols, density); class -> type ->
# (cap, block size); class -> bench time limit
FAMILY_SHAPES = {
    "G": (1000, 10000, 0.02),
    "H": (1000, 10000, 0.05),
    "I": (1000, 50000, 0.01),
    "J": (1000, 100000, 0.01),
    "K": (2000, 100000, 0.005),
    "L": (2000, 200000, 0.005),
    "M": (5000, 500000, 0.0025),
    "N": (5000, 1000000, 0.0025),
}
FAMILY_BLOCKS = {
    "G": {1: (1, 10), 2: (10, 100), 3: (5, 10), 4: (50, 100)},
    "H": {1: (1, 10), 2: (10, 100), 3: (5, 50), 4: (50, 100)},
    "I": {1: (1, 50), 2: (10, 500), 3: (5, 50), 4: (50, 500)},
    "J": {1: (1, 50), 2: (10, 500), 3: (5, 50), 4: (50, 500)},
    "K": {1: (1, 50), 2: (10, 500), 3: (5, 50), 4: (50, 500)},
    "L": {1: (1, 50), 2: (10, 500), 3: (5, 50), 4: (50, 500)},
    "M": {1: (1, 50), 2: (10, 500), 3: (5, 50), 4: (50, 500)},
    "N": {1: (1, 100), 2: (10, 1000), 3: (5, 100), 4: (50, 1000)},
}
FAMILY_TIME_LIMITS = {
    "G": 600, "H": 600, "I": 600, "J": 600,
    "K": 1200, "L": 1200, "M": 3000, "N": 3000,
}


class _Params(Exception):
    """Raised in place of generating, carrying the GeneratorParams."""


@pytest.mark.parametrize("klass", sorted(FAMILY_SHAPES))
def test_generate_class_builds_the_family_shape(tmp_path, monkeypatch, klass):
    def capture(params):
        raise _Params(params)

    monkeypatch.setattr(gio, "generate", capture)
    rows, cols, density = FAMILY_SHAPES[klass]
    for kind, (cap, block) in FAMILY_BLOCKS[klass].items():
        with pytest.raises(_Params) as made:
            cli.main(["generate", "--class", klass, "--type", str(kind),
                      "--out", str(tmp_path / "x.gub")])
        p = made.value.args[0]
        assert (p.rows, p.cols, p.density, p.block_size, p.cap) == (
            rows, cols, density, block, cap), kind
    assert cli._family(f"{klass}1.gub") == (FAMILY_TIME_LIMITS[klass], f"{klass}1")


def test_generate_manual_params(tmp_path, capsys):
    out = tmp_path / "small.gub"
    rc = cli.main(["generate", "--rows", "12", "--cols", "24",
                   "--density", "0.3", "--block-size", "6", "--cap", "3",
                   "--out", str(out)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "wrote" in printed and "density:" in printed
    inst = gio.read_instance(out, "gub")
    assert (inst.m, inst.n, inst.k) == (12, 24, 4)


def test_generate_rejects_too_few_columns(tmp_path, capsys):
    out = tmp_path / "x.gub"
    rc = cli.main(["generate", "--rows", "3", "--cols", "4", "--density", "0.5",
                   "--block-size", "1", "--cap", "1", "--demand-range", "5", "5",
                   "--out", str(out)])
    assert rc == 1
    assert "cols must be at least" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--class", "G", "--index", "-1"],
                                   ["--class", "G", "--seed", "-3"]])
def test_generate_class_rejects_negative_seed_or_index(tmp_path, capsys, flags):
    out = tmp_path / "x.gub"
    assert cli.main(["generate", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --seed and --index must be non-negative\n"
    assert not out.exists()


def test_generate_manual_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.gub"
    assert cli.main(["generate", "--rows", "12", "--cols", "24", "--density", "0.3",
                     "--block-size", "6", "--cap", "3", "--seed", "-3",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--block-size", "0", "--cap", "1"], "block_size must be positive"),
    (["--block-size", "6", "--cap", "3", "--cost-range", "1", "9223372036854775807"],
     "must fit in int64"),
])
def test_generate_manual_rejects_bad_shape_or_costs(tmp_path, capsys, flags, message):
    out = tmp_path / "x.gub"
    assert cli.main(["generate", "--rows", "12", "--cols", "24", "--density", "0.3",
                     *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == "" and not out.exists()


def test_generate_unknown_class(tmp_path, capsys):
    rc = cli.main(["generate", "--class", "Z", "--out", str(tmp_path / "z.gub")])
    assert rc == 1
    assert "unknown class" in capsys.readouterr().err


def test_generate_requires_full_manual_params(tmp_path, capsys):
    rc = cli.main(["generate", "--rows", "10", "--out", str(tmp_path / "x.gub")])
    assert rc == 1
    assert "either --class" in capsys.readouterr().err


def test_generate_then_solve_then_check(tmp_path, capsys):
    inst_path = tmp_path / "pipe.gub"
    assert cli.main(["generate", "--rows", "12", "--cols", "24",
                     "--density", "0.3", "--block-size", "6", "--cap", "3",
                     "--seed", "7", "--out", str(inst_path)]) == 0
    run = tmp_path / "run.json"
    assert cli.main(["solve", "--instance", str(inst_path),
                     "--time-limit", "2", "--out", str(run)]) == 0
    payload = json.loads(run.read_text())
    sol = tmp_path / "sol.txt"
    sol.write_text(" ".join(str(j + 1) for j in payload["selected"]))
    capsys.readouterr()
    assert cli.main(["check", "--instance", str(inst_path),
                     "--solution", str(sol),
                     "--expect", str(payload["objective"])]) == 0
    assert "ok" in capsys.readouterr().out


# -- bench ---------------------------------------------------------------


def test_bench_workers_agree(t1_file, tmp_path, capsys):
    instances = str(tmp_path)
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    base = ["bench", "--instances", instances, "--schemes", "pseudo,none",
            "--seeds", "2", "--time-limit", "0.3"]
    assert cli.main(base + ["--workers", "1", "--out", str(one)]) == 0
    assert cli.main(base + ["--workers", "2", "--out", str(two)]) == 0
    header1, rows1 = _rows_without_elapsed(one)
    header2, rows2 = _rows_without_elapsed(two)
    assert header1.startswith("# gubcover-bench-v1 build=")
    assert header1 == header2
    assert rows1 == rows2
    kinds = [row["kind"] for row in rows1]
    assert kinds.count("run") == 4 and kinds.count("avg") == 2


def _group_pids():
    """Processes in this process group, from /proc; None without /proc."""
    group = os.getpgrp()
    pids = set()
    try:
        names = os.listdir("/proc")
    except OSError:
        return None
    for name in names:
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # pgrp is the third field after the parenthesized command name
        if int(stat[stat.rindex(b")") + 2:].split()[2]) == group:
            pids.add(int(name))
    return pids


def test_bench_workers_fork_the_bound_and_agree(tmp_path, capsys):
    # the bound runs in a child of each pool worker; the rows match a
    # one-process bench and no process outlives the bench.  Every run finds
    # the optimum (412 and 403) in its first iteration, so the time limit
    # cannot move an objective.
    for seed in (1, 2):
        inst, _ = gio.generate(gio.GeneratorParams(rows=6, cols=16, density=0.3,
                                                   block_size=4, cap=3, seed=seed))
        gio.write_gub(inst, tmp_path / f"g{seed}.gub")
    before = _group_pids()
    base = ["bench", "--instances", str(tmp_path), "--schemes", "pseudo,none",
            "--seeds", "2", "--time-limit", "0.3"]
    rows = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}.csv"
        assert cli.main(base + ["--workers", str(workers), "--out", str(out)]) == 0
        _, got = _rows_without_elapsed(out)
        rows[workers] = [(r["instance"], r["scheme"], r["seed"], r["objective"],
                          r["lower_bound"]) for r in got if r["kind"] == "run"]
    assert len(rows[1]) == 8 and rows[1] == rows[2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if before is not None:
        assert _group_pids() <= before


def test_bench_reads_each_file_once(t1_file, tmp_path, capsys, monkeypatch):
    calls = []
    read = gio.read_instance

    def counting(path, fmt="gub"):
        calls.append(path)
        return read(path, fmt)

    monkeypatch.setattr(gio, "read_instance", counting)
    base = ["bench", "--instances", str(tmp_path), "--schemes", "pseudo,none",
            "--seeds", "2", "--time-limit", "0.3", "--workers", "1"]
    assert cli.main(base + ["--out", str(tmp_path / "a.csv")]) == 0
    assert calls == [t1_file]
    # the slot is cleared after each bench, so a second one reads again
    assert cli.main(base + ["--out", str(tmp_path / "b.csv")]) == 0
    assert calls == [t1_file, t1_file]


def test_bench_time_limit_follows_the_family_letter(tmp_path, monkeypatch):
    limits = {"G1.gub": 600, "K_1.gub": 1200, "K1.gub": 1200, "k1.gub": 1200,
              "l-2.gub": 1200, "m.gub": 3000, "n9_x.gub": 3000,
              "kx1.gub": 600, "mine.gub": 600, "t1.gub": 600}
    for name in limits:
        gio.write_gub(build_t1(), tmp_path / name)
    configs = []

    def recording(inst, cfg):
        configs.append(cfg)
        return SimpleNamespace(objective=8, feasible=True, penalized=8.0,
                               lower_bound=7.0, elapsed=0.0)

    monkeypatch.setattr(cli, "solve", recording)
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--instances", str(tmp_path), "--out", str(out)]) == 0
    assert [c.time_limit for c in configs] == [limits[name] for name in sorted(limits)]
    _, rows = _rows_without_elapsed(out)
    runs = {row["instance"]: row for row in rows if row["kind"] == "run"}
    assert {name: float(row["time_limit"]) for name, row in runs.items()} == limits
    # the class column names the stem up to the first '_' or '.', with a
    # family's letter in upper case, so k1 and K1 are one class
    assert runs["k1.gub"]["class"] == runs["K1.gub"]["class"] == "K1"
    assert runs["K_1.gub"]["class"] == "K" and runs["l-2.gub"]["class"] == "L-2"
    assert runs["mine.gub"]["class"] == "mine" and runs["t1.gub"]["class"] == "t1"


def test_bench_gap_against_best_known(t1_file, tmp_path, capsys):
    best = tmp_path / "best.csv"
    best.write_text("# name,value\nt1.gub,10\n")
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--instances", str(tmp_path), "--seeds", "1",
                   "--time-limit", "0.3", "--best-known", str(best),
                   "--out", str(out)])
    assert rc == 0
    _, rows = _rows_without_elapsed(out)
    runs = [row for row in rows if row["kind"] == "run"]
    assert runs[0]["objective"] == "8"
    # (8 - 10) / 8 * 100
    assert runs[0]["gap_pct"] == "-25.000"


def test_bench_gives_no_gap_to_an_infeasible_run(t1_file, tmp_path, capsys):
    # demand 3 on row 0, which only two columns cover; the name puts it in
    # class t1 beside the feasible t1.gub
    inst = model.Instance.from_columns([3, 4], [[0], [0]], [3], [(2, [0, 1])])
    gio.write_gub(inst, tmp_path / "t1_u.gub")
    best = tmp_path / "best.csv"
    best.write_text("t1_u.gub,10\nt1.gub,10\n")
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--instances", str(tmp_path), "--seeds", "2",
                   "--time-limit", "0.3", "--best-known", str(best),
                   "--out", str(out)])
    assert rc == 0
    _, rows = _rows_without_elapsed(out)
    runs = {(row["instance"], row["seed"]): row for row in rows if row["kind"] == "run"}
    for seed in ("0", "1"):
        assert runs["t1_u.gub", seed]["feasible"] == "0"
        assert runs["t1_u.gub", seed]["gap_pct"] == ""
        assert runs["t1.gub", seed]["gap_pct"] == "-25.000"
    (avg,) = [row for row in rows if row["kind"] == "avg"]
    assert avg["feasible"] == "0.50" and avg["gap_pct"] == "-25.000"


@pytest.fixture()
def no_solve(monkeypatch):
    """Fail the test on any solve: bad bench input must stop before the runs."""
    def refuse(inst, cfg):
        raise AssertionError("bench ran a solve")

    monkeypatch.setattr(cli, "solve", refuse)


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory"),
    ("# name,value\nt1.gub\n", "best.csv line 2: expected name,value"),
    ("t1.gub,10\nt2.gub,abc\n", "best.csv line 2: value 'abc' is not a finite number"),
    ("t1.gub,nan\n", "best.csv line 1: value 'nan' is not a finite number"),
])
def test_bench_checks_best_known_first(t1_file, tmp_path, capsys, no_solve,
                                       content, message):
    best = tmp_path / "best.csv"
    if content is not None:
        best.write_text(content)
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--instances", str(tmp_path), "--time-limit", "0.3",
                   "--best-known", str(best), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--seeds", "0"], "--seeds must be at least 1"),
    (["--schemes", ""], "--schemes names no scheme"),
    (["--schemes", " , "], "--schemes names no scheme"),
    (["--workers", "0"], "--workers must be at least 1"),
])
def test_bench_rejects_empty_grid(t1_file, tmp_path, capsys, no_solve, flags, message):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--instances", str(tmp_path), "--time-limit", "0.3",
                   *flags, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_bench_no_matching_instances(tmp_path, capsys):
    rc = cli.main(["bench", "--instances", str(tmp_path),
                   "--out", str(tmp_path / "none.csv")])
    assert rc == 1
    assert "no instances matching" in capsys.readouterr().err


def test_bench_rejects_unknown_scheme(t1_file, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--instances", str(tmp_path), "--schemes", "pseudo,bogus",
                   "--time-limit", "0.3", "--out", str(out)])
    assert rc == 1
    assert "error: unknown score scheme 'bogus'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_bench_reports_unreadable_instance(t1_file, tmp_path, capsys, workers):
    (tmp_path / "dir.gub").mkdir()
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--instances", str(tmp_path), "--time-limit", "0.3",
                   "--workers", workers, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert not out.exists()


def test_bench_validates_instances(tmp_path, capsys):
    from gubcover.model import Instance

    inst = Instance.from_columns(
        cost=[1, 2], col_rows=[[0], [0]], demand=[1],
        blocks=[(0, [0]), (1, [1])],
    )
    gio.write_gub(inst, tmp_path / "cap0.gub")
    rc = cli.main(["bench", "--instances", str(tmp_path), "--time-limit", "0.3",
                   "--out", str(tmp_path / "bench.csv")])
    assert rc == 1
    assert "block 0 has cap 0" in capsys.readouterr().err


# -- --out ---------------------------------------------------------------

OUT_COMMANDS = {
    "generate": ["generate", "--rows", "5", "--cols", "10", "--density", "0.3",
                 "--block-size", "2", "--cap", "1"],
    "solve-json": ["solve", "--instance", "{t1}", "--max-iterations", "0"],
    "solve-csv": ["solve", "--instance", "{t1}", "--max-iterations", "0", "--emit", "csv"],
    "bench": ["bench", "--instances", "{dir}", "--time-limit", "0.3"],
}


def out_argv(command, t1_file, out):
    dirname = str(Path(t1_file).parent)
    args = [a.format(t1=t1_file, dir=dirname) for a in OUT_COMMANDS[command]]
    return [*args, "--out", str(out)]


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_out_in_missing_directory_fails_before_any_run(t1_file, tmp_path, capsys,
                                                       no_solve, command):
    out = tmp_path / "missing" / "out.txt"
    rc = cli.main(out_argv(command, t1_file, out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: --out directory {str(out.parent)!r} does not exist\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_unwritable_out_is_an_error(t1_file, tmp_path, capsys, command):
    # --out names a directory: the check passes, the write fails
    out = tmp_path / "taken"
    out.mkdir()
    rc = cli.main(out_argv(command, t1_file, out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
