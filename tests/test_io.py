import dataclasses
import gzip
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gubcover import io as gio
from gubcover import model
from gubcover.driver import SolverConfig, solve
from gubcover.io import FormatError, GeneratorParams
from gubcover.model import Instance

import generator_reference
import reader_reference
from conftest import assert_same_instance, build_t1, random_instance

T1_ORLIB = """\
3 4
4 3 5 1
2 1 3
2 1 2
3 2 3 4
"""

T1_RAIL = """\
3 2
4 2 1 2
1 1 3
"""


def test_native_round_trip(tmp_path, t1):
    path = tmp_path / "t1.gub"
    gio.write_gub(t1, path)
    again = gio.read_instance(path, "gub")
    assert_same_instance(again, t1)
    twice = tmp_path / "t1b.gub"
    gio.write_gub(again, twice)
    assert path.read_bytes() == twice.read_bytes()


def test_native_round_trip_random(tmp_path):
    rng = np.random.default_rng(2)
    for i in range(10):
        inst = random_instance(rng)
        path = tmp_path / f"r{i}.gub"
        gio.write_gub(inst, path)
        assert_same_instance(gio.read_instance(path, "gub"), inst)


def test_gzip_transparent(tmp_path, t1):
    plain = tmp_path / "t1.gub"
    gio.write_gub(t1, plain)
    zipped = tmp_path / "t1.gub.gz"
    with gzip.open(zipped, "wt") as fh:
        fh.write(plain.read_text())
    assert_same_instance(gio.read_instance(zipped, "gub"), t1)


@pytest.mark.parametrize("fmt", gio.FORMATS)
def test_reader_frees_the_tokens_before_building(tmp_path, t1, monkeypatch, fmt):
    # a cursor holds the whole file as int64 tokens; alive while the
    # instance is built, it would add its size to the peak memory
    path = tmp_path / "t1.txt"
    if fmt == "gub":
        gio.write_gub(t1, path)
    else:
        path.write_text(T1_ORLIB if fmt == "orlib" else T1_RAIL)
    cursors, alive, cursor = weakref.WeakSet(), [], gio._Cursor

    def tracked(path):
        cursors.add(cur := cursor(path))
        return cur

    def build(*args):
        alive.append(len(cursors))
        return Instance(*args)

    monkeypatch.setattr(gio, "_Cursor", tracked)
    monkeypatch.setattr(gio, "Instance", build)
    gio.read_instance(path, fmt)
    assert alive == [0]


def test_read_instance_rejects_unknown_format(tmp_path):
    # checked before the file is opened
    with pytest.raises(ValueError, match="unknown format 'mps'"):
        gio.read_instance(tmp_path / "missing.mps", "mps")


def test_orlib_parse(tmp_path):
    path = tmp_path / "t1.txt"
    path.write_text(T1_ORLIB)
    inst = gio.read_instance(path, "orlib")
    assert (inst.m, inst.n) == (3, 4)
    assert list(inst.demand) == [1, 1, 1]
    # singleton blocks with cap 1: the SCP embedding
    assert inst.k == 4
    assert np.all(inst.cap == 1)
    assert [list(r) for r in inst.col_rows] == build_t1_col_rows()


def build_t1_col_rows():
    return [list(r) for r in build_t1().col_rows]


def test_orlib_gub_always_feasible(tmp_path):
    path = tmp_path / "t1.txt"
    path.write_text(T1_ORLIB)
    inst = gio.read_instance(path, "orlib")
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.random(inst.n) < 0.5
        assert model.gub_feasible(inst, x)


def test_rail_parse(tmp_path):
    path = tmp_path / "rail.txt"
    path.write_text(T1_RAIL)
    inst = gio.read_instance(path, "rail")
    assert (inst.m, inst.n) == (3, 2)
    assert list(inst.cost) == [4, 1]
    assert [list(r) for r in inst.col_rows] == [[0, 1], [2]]
    assert [list(r) for r in inst.row_cols] == [[0], [0], [1]]


def test_empty_file_error(tmp_path):
    path = tmp_path / "empty.gub"
    path.write_text("")
    with pytest.raises(FormatError, match="line 0"):
        gio.read_instance(path, "gub")


def test_index_out_of_range_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 1\n1 3\n1 1\n")
    with pytest.raises(FormatError, match="out of range"):
        gio.read_instance(path, "orlib")


def test_rail_empty_column_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n4 0\n1 1 1\n")
    with pytest.raises(FormatError):
        gio.read_instance(path, "rail")


def test_trailing_data_error(tmp_path, t1):
    path = tmp_path / "t1.gub"
    gio.write_gub(t1, path)
    path.write_text(path.read_text() + "\n99\n")
    with pytest.raises(FormatError, match="trailing"):
        gio.read_instance(path, "gub")


def test_parse_solution(tmp_path):
    path = tmp_path / "sol.txt"
    path.write_text("2 3\n")
    assert list(gio.parse_solution(path)) == [1, 2]
    path.write_text("2 x\n")
    with pytest.raises(FormatError):
        gio.parse_solution(path)


def test_generator_deterministic(tmp_path):
    params = GeneratorParams(rows=40, cols=120, density=0.1,
                             block_size=10, cap=3, seed=9)
    a, _ = gio.generate(params)
    b, _ = gio.generate(params)
    pa, pb = tmp_path / "a.gub", tmp_path / "b.gub"
    gio.write_gub(a, pa)
    gio.write_gub(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_generator_output_shape():
    params = GeneratorParams(rows=60, cols=180, density=0.08,
                             block_size=9, cap=2, seed=4)
    inst, stats = gio.generate(params)
    assert (inst.m, inst.n, inst.k) == (60, 180, 20)
    assert model.validate(inst) == []
    assert np.all(inst.cap == 2)
    assert all(len(b) == 9 for b in inst.block_cols)
    # rows are always coverable ignoring the caps
    counts = np.array([len(r) for r in inst.row_cols])
    assert np.all(counts >= np.maximum(inst.demand, 2))
    assert stats["achieved_density"] == pytest.approx(inst.density())


def test_generator_blocks_group_similar_costs():
    # contiguous blocks over cost-sorted columns: tight caps then force
    # solutions up the cost distribution instead of being a free constraint
    params = GeneratorParams(rows=50, cols=200, density=0.1,
                             block_size=10, cap=1, seed=1)
    inst, _ = gio.generate(params)
    assert np.all(np.diff(inst.cost) >= 0)


def test_generator_density_band():
    params = GeneratorParams(rows=500, cols=2000, density=0.02,
                             block_size=10, cap=1, seed=3)
    inst, stats = gio.generate(params)
    assert 0.018 <= stats["achieved_density"] <= 0.022
    assert stats["density_within_10pct"]


def test_generator_vacuous_block():
    params = GeneratorParams(rows=20, cols=50, density=0.2,
                             block_size=50, cap=50, seed=5)
    inst, _ = gio.generate(params)
    assert inst.k == 1
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert model.gub_feasible(inst, rng.random(50) < 0.5)


def test_generator_rejects_bad_params():
    with pytest.raises(ValueError):
        GeneratorParams(rows=10, cols=100, density=0.1,
                        block_size=7, cap=1).check()
    with pytest.raises(ValueError):
        GeneratorParams(rows=10, cols=100, density=0.1,
                        block_size=10, cap=11).check()
    with pytest.raises(ValueError):
        GeneratorParams(rows=10, cols=100, density=1.5,
                        block_size=10, cap=1).check()
    with pytest.raises(ValueError, match="seed must be non-negative"):
        GeneratorParams(rows=10, cols=100, density=0.1,
                        block_size=10, cap=1, seed=-3).check()
    with pytest.raises(ValueError, match="block_size must be positive"):
        GeneratorParams(rows=10, cols=100, density=0.1,
                        block_size=0, cap=1).check()
    # 100 costs of up to 2**62 could sum beyond int64
    with pytest.raises(ValueError, match="must fit in int64"):
        GeneratorParams(rows=10, cols=100, density=0.1,
                        block_size=10, cap=1, cost_hi=2**62).check()
    GeneratorParams(rows=10, cols=100, density=0.1, block_size=10, cap=1,
                    cost_hi=np.iinfo(np.int64).max // 100).check()


def test_generator_rejects_rows_it_cannot_cover():
    # each row gets max(2, demand) distinct covering columns, so fewer
    # columns than that would leave the coverage repair looping forever
    for cols, demand_hi in ((4, 5), (1, 1)):
        with pytest.raises(ValueError, match="cols must be at least"):
            GeneratorParams(rows=3, cols=cols, density=0.5, block_size=1, cap=1,
                            demand_lo=demand_hi, demand_hi=demand_hi).check()
    GeneratorParams(rows=3, cols=5, density=0.5, block_size=1, cap=1,
                    demand_lo=5, demand_hi=5).check()


@pytest.mark.parametrize("field, value", [
    ("cap", 1.5), ("cost_hi", 50.7), ("demand_hi", 2.9), ("rows", 10.0),
    ("seed", np.float64(1)), ("block_size", True), ("cols", "100"),
    ("density", "0.1"), ("density", True), ("density", None),
])
def test_generator_rejects_values_it_would_misread(field, value):
    # check() used to pass most of these: cap 1.5 read as 1, cost_hi 50.7
    # drew costs up to 50 and demand_hi 2.9 demands up to 2
    params = dict(rows=10, cols=100, density=0.1, block_size=10, cap=1)
    params[field] = value
    with pytest.raises(ValueError, match=field):
        GeneratorParams(**params).check()
    with pytest.raises(ValueError, match=field):
        gio.generate(GeneratorParams(**params))


def test_generator_takes_numpy_scalars_as_plain_values():
    p = GeneratorParams(rows=np.int64(10), cols=np.int32(100), density=np.float32(0.125),
                        block_size=np.uint8(10), cap=np.int16(2), seed=np.int64(4)).check()
    assert all(type(getattr(p, f)) is int for f in ("rows", "cols", "block_size", "cap", "seed"))
    assert type(p.density) is float
    plain = GeneratorParams(rows=10, cols=100, density=0.125, block_size=10, cap=2, seed=4)
    (inst, stats), (want, want_stats) = gio.generate(p), gio.generate(plain)
    assert_same_instance(inst, want)
    assert stats == want_stats
    # numpy products wrap: the int64 bound must be checked on Python ints
    with pytest.raises(ValueError, match="must fit in int64"):
        GeneratorParams(rows=10, cols=np.int64(100), density=0.1, block_size=10,
                        cap=1, cost_hi=np.int64(2**62)).check()


def _reference_draws(count):
    """count seeded GeneratorParams over sparse, dense, demand-0, singleton-block
    and uncapped-block draws."""
    rng = np.random.default_rng(20240)
    for seed in range(count):
        block_size = int(rng.choice([1, 2, 3, 5, 10]))
        cols = block_size * int(rng.integers(max(1, 6 // block_size), 80 // block_size + 1))
        demand_hi = int(rng.integers(0, min(cols, 6) + 1))
        yield GeneratorParams(
            rows=int(rng.integers(1, 60)), cols=cols,
            density=float(rng.choice([0.0005, 0.001, 0.01, 0.05, 0.2, 0.5, 0.8])),
            block_size=block_size, cap=int(rng.integers(1, block_size + 1)),
            cost_lo=int(rng.integers(1, 5)), cost_hi=int(rng.integers(5, 60)),
            demand_lo=int(rng.integers(0, demand_hi + 1)), demand_hi=demand_hi, seed=seed)


def test_generator_matches_list_reference():
    draws = list(_reference_draws(240))
    assert any(p.density <= 0.001 for p in draws) and any(p.density >= 0.5 for p in draws)
    assert any(p.demand_lo == 0 for p in draws) and any(p.block_size == 1 for p in draws)
    assert any(p.cap == p.block_size > 1 for p in draws)
    repairs = np.zeros(2, dtype=np.int64)
    for p in draws:
        inst, stats = gio.generate(p)
        ref, ref_stats = generator_reference.generate_by_lists(p)
        assert_same_instance(inst, ref)
        assert stats == ref_stats, p
        repairs += [stats["empty_column_repairs"], stats["row_coverage_repairs"]]
    # both repairs draw from the stream, so both must be exercised
    assert np.all(repairs > 0), repairs


def test_result_serialization(tmp_path):
    result = solve(build_t1(), SolverConfig(max_iterations=1, time_limit=1e6))
    out = tmp_path / "run.json"
    gio.write_result_json(result, out, instance_name="t1.gub")
    payload = json.loads(out.read_text())
    assert payload["objective"] == 8 and payload["feasible"] is True
    assert payload["selected"] == [1, 2]
    assert payload["instance_name"] == "t1.gub"
    assert payload["stats"] == result.stats


def test_result_json_takes_numpy_config_values(tmp_path):
    cfg = SolverConfig(seed=np.int64(3), max_iterations=np.int32(1),
                       path_relinking=np.bool_(True), time_limit=np.float32(1e6))
    result = solve(build_t1(), cfg)
    out = tmp_path / "run.json"
    gio.write_result_json(result, out)
    payload = json.loads(out.read_text())
    assert payload["seed"] == 3
    assert payload["config"]["max_iterations"] == 1
    assert payload["config"]["path_relinking"] is True


def test_result_json_leaves_no_partial_file(tmp_path):
    result = solve(build_t1(), SolverConfig(max_iterations=0, time_limit=1e6))
    out = tmp_path / "run.json"
    with pytest.raises(TypeError):
        gio.write_result_json(dataclasses.replace(result, lower_bound=object()), out)
    assert not out.exists()


# -- array readers: equality with from_columns, and malformed input ----------


@st.composite
def raw_files(draw, fmt):
    """(text, expected Instance) for a random file in fmt.

    Lists are written in random order, and row lists may repeat a column;
    the expected instance is built by from_columns from the same data.
    """
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    cost = draw(st.lists(st.integers(1, 10**12), min_size=n, max_size=n))
    toks = []
    if fmt == "rail":
        # per column 1..m rows, any order, repeats allowed
        col_rows = [draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m))
                    for _ in range(n)]
        toks += [m, n]
        for j in range(n):
            toks += [cost[j], len(col_rows[j])] + [i + 1 for i in col_rows[j]]
        assume(m <= len(toks))  # the reader bounds the row count by the token count
        return toks, Instance.from_columns(cost, col_rows, [1] * m, [(1, [j]) for j in range(n)])
    # per row 0..n columns, any order, repeats allowed
    rows = [draw(st.lists(st.integers(0, n - 1), max_size=n)) for _ in range(m)]
    col_rows = [[i for i in range(m) for c in rows[i] if c == j] for j in range(n)]
    if fmt == "orlib":
        toks += [m, n] + cost
        for r in rows:
            toks += [len(r)] + [j + 1 for j in r]
        return toks, Instance.from_columns(cost, col_rows, [1] * m, [(1, [j]) for j in range(n)])
    demand = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m))
    k = draw(st.integers(1, n))
    owner = draw(st.permutations(list(range(k)) + draw(
        st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))))
    blocks = []
    for h in range(k):
        members = draw(st.permutations([j for j in range(n) if owner[j] == h]))
        if len(members) < n and draw(st.booleans()):
            members = members + [members[0]]
        blocks.append((draw(st.integers(0, 3)), members))
    toks += [m, n, k] + cost + demand
    for r in rows:
        toks += [len(r)] + [j + 1 for j in r]
    for cap, members in blocks:
        toks += [cap, len(members)] + [j + 1 for j in members]
    return toks, Instance.from_columns(cost, col_rows, demand, blocks)


def _write_tokens(path, toks, breaks):
    """Tokens joined by spaces, with a line break after each position in breaks."""
    words = [str(t) for t in toks]
    for at in sorted(breaks, reverse=True):
        if 0 < at < len(words):
            words.insert(at, "\n")
    _write_bytes(path, (" ".join(words) + "\n").encode())


def _write_bytes(path, raw):
    if str(path).endswith(".gz"):
        with gzip.open(path, "wb") as fh:
            fh.write(raw)
    else:
        path.write_bytes(raw)
    return path


SUFFIX = {"gub": ".gub", "orlib": ".txt", "rail": ".txt"}


@pytest.mark.parametrize("zipped", [False, True])
@pytest.mark.parametrize("fmt", gio.FORMATS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reader_matches_from_columns(tmp_path, fmt, zipped, data):
    toks, expected = data.draw(raw_files(fmt))
    breaks = data.draw(st.lists(st.integers(0, len(toks)), max_size=8))
    window = data.draw(st.sampled_from([1, 3, 1 << 20]))
    path = tmp_path / ("f" + SUFFIX[fmt] + (".gz" if zipped else ""))
    _write_tokens(path, toks, breaks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gio, "_WINDOW", window)
        assert_same_instance(gio.read_instance(path, fmt), expected)


def test_gub_reader_sorts_and_dedups(tmp_path):
    # row 1 lists its columns out of order and column 3 twice; block 1 is
    # written backwards and repeats a member
    path = tmp_path / "messy.gub"
    path.write_text("2 4 2\n5 6 7 8\n1 2\n2 2 1\n3 4 3 3\n1 3 2 1 2\n2 2 4 3\n")
    inst = gio.read_instance(path, "gub")
    assert [list(r) for r in inst.row_cols] == [[0, 1], [2, 3]]
    assert [list(r) for r in inst.col_rows] == [[0], [0], [1], [1]]
    assert [list(b) for b in inst.block_cols] == [[0, 1], [2, 3]]
    assert list(inst.block_of) == [0, 0, 1, 1]
    assert_same_instance(inst, Instance.from_columns(
        [5, 6, 7, 8], [[0], [0], [1], [1]], [1, 2], [(1, [0, 1]), (2, [2, 3])]))


def test_orlib_and_rail_readers_sort_and_dedup(tmp_path):
    orlib = tmp_path / "messy.txt"
    orlib.write_text("2 3\n4 5 6\n3 3 1 3\n1 2\n")
    inst = gio.read_instance(orlib, "orlib")
    assert [list(r) for r in inst.row_cols] == [[0, 2], [1]]
    assert [list(r) for r in inst.col_rows] == [[0], [1], [0]]
    rail = tmp_path / "messy.rail"
    rail.write_text("3 2\n4 3 3 1 3\n5 1 2\n")
    inst = gio.read_instance(rail, "rail")
    assert [list(r) for r in inst.col_rows] == [[0, 2], [1]]
    assert [list(r) for r in inst.row_cols] == [[0], [1], [0]]


def test_gub_column_in_two_blocks_error(tmp_path):
    path = tmp_path / "twice.gub"
    path.write_text("1 2 2\n1 1\n1\n2 1 2\n1 2 1 2\n1 1 2\n")
    with pytest.raises(FormatError, match="column 2 appears in 2 blocks"):
        gio.read_instance(path, "gub")


@pytest.mark.parametrize("field,line", [("cost", 2), ("demand", 3), ("cap", 7)])
def test_oversized_integer_error(tmp_path, t1, field, line):
    path = tmp_path / "big.gub"
    gio.write_gub(t1, path)
    lines = path.read_text().splitlines()
    words = lines[line - 1].split()
    words[0] = "99999999999999999999"
    lines[line - 1] = " ".join(words)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=f"line {line}: {field} .* out of range"):
        gio.read_instance(path, "gub")


@pytest.mark.parametrize("line,word,field", [
    (1, 0, "row count"), (1, 2, "block count"), (2, 1, "cost of column 2"),
    (3, 2, "demand of row 3"), (4, 0, "cover count of row 1"),
    (5, 2, "covering column of row 2"), (7, 0, "cap of block 1"),
    (8, 1, "size of block 2"), (8, 3, "member of block 2"),
])
def test_negative_field_error(tmp_path, t1, line, word, field):
    path = tmp_path / "neg.gub"
    gio.write_gub(t1, path)
    lines = [text.split() for text in path.read_text().splitlines()]
    lines[line - 1][word] = "-1"
    path.write_text("\n".join(" ".join(words) for words in lines) + "\n")
    with pytest.raises(FormatError, match=f"^line {line}: {field} -1 out of range$"):
        gio.read_instance(path, "gub")


def test_huge_count_fails_fast(tmp_path):
    path = tmp_path / "huge.gub"
    path.write_text("9223372036854775807 2 1\n1 1\n")
    with pytest.raises(FormatError, match="end of file"):
        gio.read_instance(path, "gub")


MUTATIONS = ("truncate", "word", "decimal", "negative", "digits20", "trailing")


def _mutate(toks, kind, at):
    words = [str(t) for t in toks]
    if kind == "truncate":
        return words[:at % len(words)]
    if kind == "trailing":
        return words + ["1"] * (1 + at % 3)
    if kind == "padded_tail":
        return words + ["+07"]
    bad = {"word": "x", "decimal": "1.5", "negative": "-1",
           "digits20": "99999999999999999999", "zero": "0",
           "oversized": str(np.iinfo(np.int64).max), "padded": "+07",
           "underscore": "1_000", "unicode_digit": "\u0663", "file_separator": "1\x1c1",
           "nbsp": "1\u00a01", "xff": "\udcff"}[kind]
    words[at % len(words)] = bad
    return words


@pytest.mark.parametrize("fmt", gio.FORMATS)
@settings(max_examples=150, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_tokens_raise_format_error(tmp_path, fmt, data):
    toks, _ = data.draw(raw_files(fmt))
    kind = data.draw(st.sampled_from(MUTATIONS))
    words = _mutate(toks, kind, data.draw(st.integers(0, 10**6)))
    path = tmp_path / ("bad" + SUFFIX[fmt])
    path.write_text(" ".join(words) + "\n")
    with pytest.raises(FormatError, match=r"^(line \d+: |column \d+ appears)"):
        gio.read_instance(path, fmt)


# -- the array readers against the token-by-token reference walk -------------

# a valid count as large as int64 allows, a non-canonical integer that only
# reads back as written when the error quotes the file's own text, and tokens
# outside the byte grammar that int() or str.split() would read as integers:
# an underscore, an Arabic-Indic digit, \x1c and a no-break space inside a
# token, and the byte \xff, which is not UTF-8 (written through
# surrogateescape)
DIFF_MUTATIONS = MUTATIONS + ("zero", "oversized", "padded", "padded_tail", "underscore",
                              "unicode_digit", "file_separator", "nbsp", "xff")
TAILS = ("", "\n", "\n\n", "  \n", " \t\n\n", "   ", "\r", "\r\n\r")


# The grammar alone: building the instance is not the walk's business.
PARSERS = {"gub": gio._parse_gub, "orlib": gio._parse_orlib, "rail": gio._parse_rail}


def _outcome(check, *args):
    """The FormatError message check raises, or None if it accepts."""
    try:
        check(*args)
    except FormatError as err:
        return str(err)
    return None


def _parse(path, fmt):
    PARSERS[fmt](gio._Cursor(path))


@pytest.mark.parametrize("fmt", gio.FORMATS)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reader_errors_match_reference_walk(tmp_path, fmt, data):
    toks, _ = data.draw(raw_files(fmt))
    words = [str(t) for t in toks]
    for _ in range(data.draw(st.integers(1, 3))):
        if words:
            words = _mutate(words, data.draw(st.sampled_from(DIFF_MUTATIONS)),
                            data.draw(st.integers(0, 10**6)))
    for at in sorted(data.draw(st.lists(st.integers(1, max(1, len(words) - 1)), max_size=8)),
                     reverse=True):
        words.insert(at, data.draw(st.sampled_from(["\n", "\r\n", "\r"])))
    text = " ".join(words) + "\n" + data.draw(st.sampled_from(TAILS))
    path = _write_bytes(tmp_path / ("f" + SUFFIX[fmt]), text.encode("utf-8", "surrogateescape"))
    want = _outcome(reader_reference.check_file, path, fmt)
    window = data.draw(st.sampled_from([1, 2, 5, 1 << 20]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gio, "_WINDOW", window)
        assert _outcome(_parse, path, fmt) == want


@pytest.mark.parametrize("fmt", gio.FORMATS)
@pytest.mark.parametrize("text", ["", "\n \n", "3", "1 x\n", "2 2\n1 1.5\n"])
def test_reader_short_files_match_reference_walk(tmp_path, fmt, text):
    path = tmp_path / ("short" + SUFFIX[fmt] + ".gz")
    with gzip.open(path, "wt") as fh:
        fh.write(text)
    assert _outcome(_parse, path, fmt) == _outcome(reader_reference.check_file, path, fmt)


def test_rail_row_count_beyond_int64_buffer(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("9223372036854775807 1\n5 1 1\n")
    with pytest.raises(FormatError,
                       match="^line 1: row count 9223372036854775807 out of range$"):
        gio.read_instance(path, "rail")


@pytest.mark.parametrize("window", [1, 1 << 16])
@pytest.mark.parametrize("m", [5, 8, 9])
def test_rail_row_count_bounded_by_file_tokens(tmp_path, window, m):
    # eight tokens; the words after the column still count, also after the
    # first one that is not an integer, where conversion stops
    path = tmp_path / "rows.txt"
    path.write_text(f"{m} 1\n5 1 1\nx\ny z\n")
    want = ("line 1: row count 9 out of range" if m == 9
            else "line 3: trailing data 'x'")
    assert _outcome(reader_reference.check_file, path, "rail") == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gio, "_WINDOW", window)
        assert _outcome(gio.read_instance, path, "rail") == want


def test_parse_solution_index_beyond_int64(tmp_path):
    path = tmp_path / "sol.txt"
    path.write_text("1 99999999999999999999\n")
    with pytest.raises(FormatError,
                       match="^token 2: column index 99999999999999999999 out of range$"):
        gio.parse_solution(path)


@pytest.mark.parametrize("raw,at,word", [
    (b"3 2_0\n", 2, "2_0"), (b"1 \xff\n", 2, "\\xff"),
    ("\u0663 1".encode(), 1, "\u0663"), ("2\u00a03".encode(), 1, "2\u00a03"),
])
def test_parse_solution_reads_the_byte_grammar(tmp_path, raw, at, word):
    path = _write_bytes(tmp_path / "sol.txt", raw)
    message = f"token {at}: expected column index, got {word!r}"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        gio.parse_solution(path)


# Reads an orlib instance with an Arabic-Indic digit for a cost, then checks
# a solution holding the byte \xff against a good instance; prints both
# messages as ASCII, so that the locale's stdout encoding does not enter.
LOCALE_SCRIPT = """
import contextlib, io, sys
from gubcover import cli, io as gio
good, bad, sol = sys.argv[1:]
try:
    gio.read_instance(bad, "orlib")
except gio.FormatError as err:
    print(ascii(str(err)))
with contextlib.redirect_stderr(io.StringIO()) as err:
    rc = cli.main(["check", "--format", "orlib", "--instance", good, "--solution", sol])
print(rc, ascii(err.getvalue()))
"""
LOCALES = [{"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
           {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}]


def test_non_ascii_bytes_read_alike_in_every_locale(tmp_path):
    good = _write_bytes(tmp_path / "good.txt", T1_ORLIB.encode())
    bad = _write_bytes(tmp_path / "bad.txt", T1_ORLIB.replace("4 3 5 1", "\u0667 3 5 1").encode())
    sol = _write_bytes(tmp_path / "sol.txt", b"2 \xff\n")
    src = str(Path(gio.__file__).parents[1])
    xff = "\\xff"  # the text of byte \xff in a message
    want = (ascii("line 2: expected integer (cost of column 1), got '\u0667'") + "\n1 "
            + ascii(f"error: token 2: expected column index, got {xff!r}\n") + "\n")
    for env in LOCALES:
        proc = subprocess.run(
            [sys.executable, "-c", LOCALE_SCRIPT, str(good), str(bad), str(sol)],
            env={**os.environ, **env, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", want), env


# -- the byte tokenizer against a plain Python split ------------------------

# digits and signs, the six ASCII whitespace bytes, bytes that str.split() or
# int() would read apart from the grammar ("_" and "." inside numbers, the
# \x1c separator, a non-ASCII letter, a no-break space), NUL, \xff, a letter,
# int64's ends and the first value beyond them
INT64_MAX, INT64_MIN = np.iinfo(np.int64).max, np.iinfo(np.int64).min
BYTE_ALPHABET = [bytes([b]) for b in b"0123456789+- \t\n\r\v\f"] + [
    b"x", b"_", b".", b"\x1c", "\u00e9".encode(), "\u00a0".encode(), b"\0", b"\xff",
    str(INT64_MAX).encode(), str(INT64_MIN).encode(), str(INT64_MAX + 1).encode()]


def _reference_tokens(raw):
    """(values, count): the ASCII-whitespace tokens of raw, count of them,
    and the values of those before the first that is not [+-]?[0-9]+ in int64."""
    words = raw.split()
    values = []
    for word in words:
        if not (re.fullmatch(rb"[+-]?[0-9]+", word) and INT64_MIN <= int(word) <= INT64_MAX):
            break
        values.append(int(word))
    return values, len(words)


def _check_tokens(path, raw):
    tok, count = gio._tokens(path)
    assert tok.dtype == np.int64 and (tok.tolist(), count) == _reference_tokens(raw)
    return tok.tolist()


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(parts=st.lists(st.sampled_from(BYTE_ALPHABET), max_size=40),
       window=st.sampled_from([1, 2, 3, 1 << 20]))
def test_tokens_match_reference(tmp_path, parts, window):
    raw = b"".join(parts)
    path = _write_bytes(tmp_path / "raw.txt", raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gio, "_WINDOW", window)
        _check_tokens(path, raw)


# want: the values the tokenizer must read; None leaves a case to the
# reference alone
@pytest.mark.parametrize("text,want", [
    ("", []), ("  ", []), ("-", None), ("+", None), ("1-2", None),
    ("+07", [7]), ("-0", [0]), (f"{INT64_MAX}", None), (f"{INT64_MIN}", None),
    (f"{INT64_MAX - 1} {INT64_MIN + 1}", [INT64_MAX - 1, INT64_MIN + 1]),
    ("99999999999999999999", None), ("0000000000000000000000042", [42]),
    ("1\v2\f3\r\n4", [1, 2, 3, 4]), (" 5 -6\n", [5, -6]),
    (f"{INT64_MAX} {INT64_MIN}\n", [INT64_MAX, INT64_MIN]),
    (f"3 {INT64_MAX} {INT64_MAX + 1} 4", None), ("1_000 1", None), ("7 \u0663 8", None),
])
@pytest.mark.parametrize("name", ["raw.txt", "raw.txt.gz"])
def test_fast_tokens_cases(tmp_path, text, want, name):
    values = _check_tokens(_write_bytes(tmp_path / name, text.encode()), text.encode())
    if want is not None:
        assert values == want
