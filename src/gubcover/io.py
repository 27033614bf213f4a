"""Instance file formats, the random instance generator, and run output.

Three input formats are understood, all whitespace-token streams and all
transparently gzip-decompressed for .gz paths:

* native ("gub"): header "m n k", then n costs, m demands, m row lines
  ("count idx..." with 1-based column indices), and k block lines
  ("cap size idx...").  The writer emits exactly this shape, so
  write -> read -> write is byte-identical.
* "orlib": set covering, row-major.  Header "m n", n costs, then per row a
  count and the covering columns.  Demands become 1, every column gets its
  own block with cap 1.
* "rail": set covering, column-major.  Header "m n", then per column its
  cost, a count and the covered rows.  Demands and blocks as for orlib.
"""

from __future__ import annotations

import csv
import gzip
import json
from dataclasses import asdict, dataclass

import numpy as np

from .model import Instance

FORMATS = ("gub", "orlib", "rail")


class FormatError(ValueError):
    """Malformed instance or solution file."""


_INT64 = np.iinfo(np.int64)


class _Tokens:
    """Whitespace token stream that tracks line numbers for error messages."""

    def __init__(self, fh):
        self._lines = enumerate(fh, start=1)
        self._line_no = 0
        self._buf = iter(())

    def next_int(self, what, lo=None, hi=None):
        tok = self._next(what)
        try:
            value = int(tok)
        except ValueError:
            raise FormatError(
                f"line {self._line_no}: expected integer ({what}), got {tok!r}"
            ) from None
        if (value < _INT64.min or value > _INT64.max
                or (lo is not None and value < lo) or (hi is not None and value > hi)):
            raise FormatError(f"line {self._line_no}: {what} {value} out of range")
        return value

    def _next(self, what):
        while True:
            tok = next(self._buf, None)
            if tok is not None:
                return tok
            nxt = next(self._lines, None)
            if nxt is None:
                raise FormatError(
                    f"line {self._line_no}: unexpected end of file while reading {what}"
                )
            self._line_no, text = nxt
            self._buf = iter(text.split())

    def expect_eof(self):
        tok = next(self._buf, None)
        if tok is None:
            for self._line_no, text in self._lines:
                toks = text.split()
                if toks:
                    tok = toks[0]
                    break
        if tok is not None:
            raise FormatError(f"line {self._line_no}: trailing data {tok!r}")


def _open_text(path, mode="rt"):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode.rstrip("t") or "r")


# -- array readers ---------------------------------------------------------
#
# Each reader parses the whole file into one int64 array and slices the
# instance out of it.  Any inconsistency (a token that is not an int64, a
# count or index out of range, a short or overlong file, a column in no or
# several blocks) makes the array parser give up and return None; the
# reader then walks the file token by token only to raise the located
# FormatError.  The two follow the same grammar, so a file one accepts the
# other accepts too.

_BATCH = 1 << 16  # tokens per numpy conversion


def _int_tokens(path):
    """All whitespace tokens of the file as int64, or None if one is not.

    Lines are read in text mode and converted in batches of about _BATCH
    tokens, so every token is parsed as int() parses it and the strings of
    the whole file never exist at once.
    """
    parts, batch = [], []
    try:
        with _open_text(path) as fh:
            for line in fh:
                batch += line.split()
                if len(batch) >= _BATCH:
                    parts.append(np.array(batch, dtype=np.int64))
                    batch = []
        parts.append(np.array(batch, dtype=np.int64))
    except (ValueError, OverflowError):
        return None
    return np.concatenate(parts)


def _lists(tok, pos, count, head, lo, hi, top):
    """Walk count lists starting at tok[pos]; None if they do not fit.

    Each list is `head` header tokens, the last of them its length in
    [lo, hi], then that many entries, each in [1, top].  Returns (starts,
    owner, entries, end): the position of each list's first header token,
    the list of each entry, the entries 0-based as int32, and the position
    after the last list.  Only the headers are visited one by one.
    """
    total, first = tok.size, pos
    if count > (total - pos) // head:
        return None
    starts, lengths = [], []
    for _ in range(count):
        length = tok.item(pos + head - 1) if pos + head <= total else -1
        if length < lo or length > hi:
            return None
        starts.append(pos)
        lengths.append(length)
        pos += head + length
    if pos > total:
        return None
    starts = np.asarray(starts, dtype=np.int64)
    entry = np.ones(pos - first, dtype=bool)
    for w in range(head):
        entry[starts - first + w] = False
    entries = tok[first:pos][entry]
    if entries.size and (entries.min() < 1 or entries.max() > top):
        return None
    entries = entries.astype(np.int32)
    entries -= 1
    owner = np.repeat(np.arange(count, dtype=np.int32), lengths)
    return starts, owner, entries, pos


def _parse_gub(tok):
    if tok.size < 3:
        return None
    m, n, k = tok[:3].tolist()
    if m < 1 or n < 1 or k < 1 or tok.size < 3 + n + m:
        return None
    cost, demand = tok[3:3 + n], tok[3 + n:3 + n + m]
    cover = _lists(tok, 3 + n + m, m, 1, 0, n, n)
    if cover is None or cost.min() < 1 or demand.min() < 0:
        return None
    _, rows, cols, end = cover
    blocks = _lists(tok, end, k, 2, 1, n, n)
    if blocks is None or blocks[3] != tok.size:
        return None
    starts, block_ids, members, _ = blocks
    cap = tok[starts]
    if cap.min() < 0:
        return None
    # each column in exactly one block; a repeat inside one block is allowed
    distinct = np.unique(block_ids.astype(np.int64) * n + members)
    if np.any(np.bincount(distinct % n, minlength=n) != 1):
        return None
    return cost.copy(), demand.copy(), rows, cols, cap, block_ids, members


def _singleton_blocks(n):
    return np.ones(n, dtype=np.int64), np.arange(n), np.arange(n)


def _parse_orlib(tok):
    if tok.size < 2:
        return None
    m, n = tok[:2].tolist()
    if m < 1 or n < 1 or tok.size < 2 + n:
        return None
    cost = tok[2:2 + n]
    cover = _lists(tok, 2 + n, m, 1, 0, n, n)
    if cover is None or cover[3] != tok.size or cost.min() < 1:
        return None
    _, rows, cols, _ = cover
    return (cost.copy(), np.ones(m, dtype=np.int64), rows, cols,
            *_singleton_blocks(n))


def _parse_rail(tok):
    if tok.size < 2:
        return None
    m, n = tok[:2].tolist()
    if m < 1 or n < 1:
        return None
    columns = _lists(tok, 2, n, 2, 1, m, m)
    if columns is None or columns[3] != tok.size:
        return None
    starts, cols, rows, _ = columns
    cost = tok[starts]
    if cost.min() < 1:
        return None
    return cost, np.ones(m, dtype=np.int64), rows, cols, *_singleton_blocks(n)


def _read(path, parse, walk) -> Instance:
    tok = _int_tokens(path)
    parts = None if tok is None else parse(tok)
    del tok  # the parts own their data; free the token array before building
    if parts is None:
        with _open_text(path) as fh:
            walk(_Tokens(fh))
        raise RuntimeError(f"{path}: array reader rejected a file the token walk accepts")
    return Instance.from_entries(*parts)


# -- token walks: the located error messages ---------------------------------


def _walk_gub(t):
    m = t.next_int("row count", lo=1)
    n = t.next_int("column count", lo=1)
    k = t.next_int("block count", lo=1)
    for j in range(n):
        t.next_int(f"cost of column {j + 1}", lo=1)
    for i in range(m):
        t.next_int(f"demand of row {i + 1}", lo=0)
    for i in range(m):
        cnt = t.next_int(f"cover count of row {i + 1}", lo=0, hi=n)
        for _ in range(cnt):
            t.next_int(f"covering column of row {i + 1}", lo=1, hi=n)
    seen = np.zeros(n, dtype=np.int64)
    for h in range(k):
        t.next_int(f"cap of block {h + 1}", lo=0)
        size = t.next_int(f"size of block {h + 1}", lo=1, hi=n)
        members = [
            t.next_int(f"member of block {h + 1}", lo=1, hi=n) - 1
            for _ in range(size)
        ]
        seen[members] += 1
    t.expect_eof()
    if np.any(seen != 1):
        j = int(np.flatnonzero(seen != 1)[0])
        raise FormatError(f"column {j + 1} appears in {seen[j]} blocks")


def _walk_orlib(t):
    m = t.next_int("row count", lo=1)
    n = t.next_int("column count", lo=1)
    for j in range(n):
        t.next_int(f"cost of column {j + 1}", lo=1)
    for i in range(m):
        cnt = t.next_int(f"cover count of row {i + 1}", lo=0, hi=n)
        for _ in range(cnt):
            t.next_int(f"covering column of row {i + 1}", lo=1, hi=n)
    t.expect_eof()


def _walk_rail(t):
    m = t.next_int("row count", lo=1)
    n = t.next_int("column count", lo=1)
    for j in range(n):
        t.next_int(f"cost of column {j + 1}", lo=1)
        cnt = t.next_int(f"row count of column {j + 1}", lo=1, hi=m)
        for _ in range(cnt):
            t.next_int(f"covered row of column {j + 1}", lo=1, hi=m)
    t.expect_eof()


def read_gub(path) -> Instance:
    """Read a native .gub file (see the module docstring); FormatError if malformed."""
    return _read(path, _parse_gub, _walk_gub)


def read_orlib_scp(path) -> Instance:
    """Read an OR-Library set covering file; FormatError if malformed."""
    return _read(path, _parse_orlib, _walk_orlib)


def read_rail(path) -> Instance:
    """Read a column-major RAIL file; FormatError if malformed."""
    return _read(path, _parse_rail, _walk_rail)


_READERS = {"gub": read_gub, "orlib": read_orlib_scp, "rail": read_rail}


def read_instance(path, fmt="gub") -> Instance:
    try:
        reader = _READERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}") from None
    return reader(path)


def write_gub(inst: Instance, path):
    with _open_text(path, "wt") as fh:
        fh.write(f"{inst.m} {inst.n} {inst.k}\n")
        fh.write(" ".join(str(int(c)) for c in inst.cost) + "\n")
        fh.write(" ".join(str(int(b)) for b in inst.demand) + "\n")
        for i in range(inst.m):
            cols = inst.row_cols[i]
            fh.write(" ".join([str(len(cols))] + [str(int(j) + 1) for j in cols]) + "\n")
        for h in range(inst.k):
            members = inst.block_cols[h]
            fh.write(
                " ".join(
                    [str(int(inst.cap[h])), str(len(members))]
                    + [str(int(j) + 1) for j in members]
                )
                + "\n"
            )


def parse_solution(path) -> np.ndarray:
    """Read a solution as whitespace-separated 1-based column indices."""
    with _open_text(path) as fh:
        tokens = fh.read().split()
    out = []
    for pos, tok in enumerate(tokens, start=1):
        try:
            value = int(tok)
        except ValueError:
            raise FormatError(f"token {pos}: expected column index, got {tok!r}") from None
        if value < 1:
            raise FormatError(f"token {pos}: column index {value} out of range")
        out.append(value - 1)
    return np.asarray(sorted(set(out)), dtype=np.int64)


# -- random instances ---------------------------------------------------


@dataclass
class GeneratorParams:
    rows: int
    cols: int
    density: float
    block_size: int
    cap: int
    cost_lo: int = 1
    cost_hi: int = 100
    demand_lo: int = 1
    demand_hi: int = 5
    seed: int = 0

    def check(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        if not (0 < self.density < 1):
            raise ValueError("density must be in (0, 1)")
        if self.cols % self.block_size != 0:
            raise ValueError("block_size must divide cols")
        if not (1 <= self.cap <= self.block_size):
            raise ValueError("cap must be in [1, block_size]")
        if not (1 <= self.cost_lo <= self.cost_hi):
            raise ValueError("bad cost range")
        if not (0 <= self.demand_lo <= self.demand_hi):
            raise ValueError("bad demand range")
        return self


def generate(params: GeneratorParams):
    """Random instance: Bernoulli coverage, uniform costs and demands.

    Post-processing guarantees that every column covers at least one row
    and every row is covered by at least max(demand, 2) columns, so the
    covering side alone is always satisfiable; the block caps may still
    make an instance infeasible, which is left to the solver to detect.

    Columns are emitted in ascending cost order and blocks take contiguous
    index ranges, so each block groups columns of similar cost.  With loose
    caps this is harmless; with tight caps (say 1 of 10) it forces any
    solution to climb the cost distribution, which is what makes the tight
    variants noticeably harder than their uncapped counterparts.
    Deterministic per seed.  Returns (instance, stats).
    """
    p = params.check()
    rng = np.random.default_rng(p.seed)
    cost = rng.integers(p.cost_lo, p.cost_hi + 1, size=p.cols)
    demand = rng.integers(p.demand_lo, p.demand_hi + 1, size=p.rows)
    col_rows = []
    chunk = 512
    for lo in range(0, p.cols, chunk):
        width = min(chunk, p.cols - lo)
        hits = rng.random((width, p.rows)) < p.density
        for c in range(width):
            col_rows.append(list(np.flatnonzero(hits[c])))
    empty_fixes = 0
    for j in range(p.cols):
        if not col_rows[j]:
            col_rows[j] = [int(rng.integers(p.rows))]
            empty_fixes += 1
    counts = np.zeros(p.rows, dtype=np.int64)
    covers = [set(r) for r in col_rows]
    for j in range(p.cols):
        for i in col_rows[j]:
            counts[i] += 1
    row_fixes = 0
    for i in range(p.rows):
        need = max(int(demand[i]), 2)
        while counts[i] < need:
            j = int(rng.integers(p.cols))
            if i in covers[j]:
                continue
            covers[j].add(i)
            col_rows[j].append(i)
            counts[i] += 1
            row_fixes += 1
    order = np.argsort(cost, kind="stable")
    cost = cost[order]
    col_rows = [col_rows[j] for j in order]
    k = p.cols // p.block_size
    blocks = [
        (p.cap, list(range(h * p.block_size, (h + 1) * p.block_size)))
        for h in range(k)
    ]
    inst = Instance.from_columns(cost, col_rows, demand, blocks)
    achieved = inst.density()
    stats = {
        "target_density": p.density,
        "achieved_density": achieved,
        "density_within_10pct": abs(achieved - p.density) <= 0.1 * p.density,
        "empty_column_repairs": empty_fixes,
        "row_coverage_repairs": row_fixes,
    }
    return inst, stats


# -- run output ----------------------------------------------------------

RESULT_CSV_FIELDS = [
    "instance", "scheme", "seed", "objective", "feasible", "penalized",
    "lower_bound", "iterations", "elapsed", "build",
]


def write_result_json(result, path, instance_name=None):
    payload = asdict(result) if not isinstance(result, dict) else dict(result)
    if instance_name is not None:
        payload["instance_name"] = str(instance_name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def result_csv_row(result, instance_name="") -> dict:
    return {
        "instance": str(instance_name),
        "scheme": result.config["score"],
        "seed": result.seed,
        "objective": result.objective,
        "feasible": int(result.feasible),
        "penalized": result.penalized,
        "lower_bound": "" if result.lower_bound is None else result.lower_bound,
        "iterations": result.iterations,
        "elapsed": f"{result.elapsed:.3f}",
        "build": result.build,
    }


def append_result_csv(result, path, instance_name=""):
    import os

    new = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_CSV_FIELDS)
        if new:
            writer.writeheader()
        writer.writerow(result_csv_row(result, instance_name))
