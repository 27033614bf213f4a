import gzip

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gubcover import io as gio
from gubcover import model
from gubcover.io import FormatError, GeneratorParams
from gubcover.model import Instance

import reader_reference
from conftest import build_t1, random_instance

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
    again = gio.read_gub(path)
    assert again == t1
    twice = tmp_path / "t1b.gub"
    gio.write_gub(again, twice)
    assert path.read_bytes() == twice.read_bytes()


def test_native_round_trip_random(tmp_path):
    rng = np.random.default_rng(2)
    for i in range(10):
        inst = random_instance(rng)
        path = tmp_path / f"r{i}.gub"
        gio.write_gub(inst, path)
        assert gio.read_gub(path) == inst


def test_gzip_transparent(tmp_path, t1):
    plain = tmp_path / "t1.gub"
    gio.write_gub(t1, plain)
    zipped = tmp_path / "t1.gub.gz"
    with gzip.open(zipped, "wt") as fh:
        fh.write(plain.read_text())
    assert gio.read_instance(zipped, "gub") == t1


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
        gio.read_gub(path)


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
        gio.read_gub(path)


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


def test_generator_rejects_rows_it_cannot_cover():
    # each row gets max(2, demand) distinct covering columns, so fewer
    # columns than that would leave the coverage repair looping forever
    for cols, demand_hi in ((4, 5), (1, 1)):
        with pytest.raises(ValueError, match="cols must be at least"):
            GeneratorParams(rows=3, cols=cols, density=0.5, block_size=1, cap=1,
                            demand_lo=demand_hi, demand_hi=demand_hi).check()
    GeneratorParams(rows=3, cols=5, density=0.5, block_size=1, cap=1,
                    demand_lo=5, demand_hi=5).check()


def test_result_serialization(tmp_path):
    payload = {
        "objective": 8, "feasible": True, "penalized": 8.0, "lower_bound": 6.0,
        "iterations": 3, "elapsed": 0.1, "seed": 0, "build": "test",
        "instance": "t1", "scheme": "pseudo",
    }
    out = tmp_path / "run.json"
    gio.write_result_json(payload, out, instance_name="t1.gub")
    text = out.read_text()
    assert '"objective": 8' in text
    assert '"feasible": true' in text
    assert '"instance_name": "t1.gub"' in text


# -- array readers: equality with from_columns, and malformed input ----------


def assert_same_instance(a, b):
    """Field by field, adjacency views and coverage matrix included."""
    assert (a.m, a.n, a.k, a.nnz, a.wbar) == (b.m, b.n, b.k, b.nnz, b.wbar)
    for name in ("cost", "demand", "cap", "block_of"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    for name in ("col_rows", "row_cols", "block_cols"):
        xs, ys = getattr(a, name), getattr(b, name)
        assert len(xs) == len(ys), name
        for x, y in zip(xs, ys):
            assert x.dtype == y.dtype and np.array_equal(x, y), name
    ma, mb = a.matrix(), b.matrix()
    assert ma.dtype == mb.dtype and (ma != mb).nnz == 0


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
    text = " ".join(words) + "\n"
    if str(path).endswith(".gz"):
        with gzip.open(path, "wt") as fh:
            fh.write(text)
    else:
        path.write_text(text)


SUFFIX = {"gub": ".gub", "orlib": ".txt", "rail": ".txt"}


@pytest.mark.parametrize("zipped", [False, True])
@pytest.mark.parametrize("fmt", gio.FORMATS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reader_matches_from_columns(tmp_path, fmt, zipped, data):
    toks, expected = data.draw(raw_files(fmt))
    breaks = data.draw(st.lists(st.integers(0, len(toks)), max_size=8))
    batch = data.draw(st.sampled_from([1, 3, 1 << 16]))
    path = tmp_path / ("f" + SUFFIX[fmt] + (".gz" if zipped else ""))
    _write_tokens(path, toks, breaks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gio, "_BATCH", batch)
        assert_same_instance(gio.read_instance(path, fmt), expected)


def test_gub_reader_sorts_and_dedups(tmp_path):
    # row 1 lists its columns out of order and column 3 twice; block 1 is
    # written backwards and repeats a member
    path = tmp_path / "messy.gub"
    path.write_text("2 4 2\n5 6 7 8\n1 2\n2 2 1\n3 4 3 3\n1 3 2 1 2\n2 2 4 3\n")
    inst = gio.read_gub(path)
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
        gio.read_gub(path)


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
        gio.read_gub(path)


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
        gio.read_gub(path)


def test_huge_count_fails_fast(tmp_path):
    path = tmp_path / "huge.gub"
    path.write_text("9223372036854775807 2 1\n1 1\n")
    with pytest.raises(FormatError, match="end of file"):
        gio.read_gub(path)


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
           "oversized": str(np.iinfo(np.int64).max), "padded": "+07"}[kind]
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

# a valid count as large as int64 allows, and a non-canonical integer that
# only reads back as written when the error quotes the file's own text
DIFF_MUTATIONS = MUTATIONS + ("zero", "oversized", "padded", "padded_tail")
TAILS = ("", "\n", "\n\n", "  \n", " \t\n\n", "   ")


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
        words.insert(at, "\n")
    text = " ".join(words) + "\n" + data.draw(st.sampled_from(TAILS))
    path = tmp_path / ("f" + SUFFIX[fmt])
    path.write_text(text)
    want = _outcome(reader_reference.check_file, path, fmt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gio, "_BATCH", data.draw(st.sampled_from([1, 2, 5, 1 << 16])))
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
        gio.read_rail(path)


@pytest.mark.parametrize("batch", [1, 1 << 16])
@pytest.mark.parametrize("m", [5, 8, 9])
def test_rail_row_count_bounded_by_file_tokens(tmp_path, batch, m):
    # eight tokens; the words after the column still count, also on the
    # lines after the one where conversion stops
    path = tmp_path / "rows.txt"
    path.write_text(f"{m} 1\n5 1 1\nx\ny z\n")
    want = ("line 1: row count 9 out of range" if m == 9
            else "line 3: trailing data 'x'")
    assert _outcome(reader_reference.check_file, path, "rail") == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gio, "_BATCH", batch)
        assert _outcome(gio.read_rail, path) == want


def test_parse_solution_index_beyond_int64(tmp_path):
    path = tmp_path / "sol.txt"
    path.write_text("1 99999999999999999999\n")
    with pytest.raises(FormatError,
                       match="^token 2: column index 99999999999999999999 out of range$"):
        gio.parse_solution(path)
