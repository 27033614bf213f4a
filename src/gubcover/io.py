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
import functools
import gzip
import itertools
import json
from dataclasses import asdict, dataclass

import numpy as np

from .model import Instance

FORMATS = ("gub", "orlib", "rail")


class FormatError(ValueError):
    """Malformed instance or solution file."""


_INT64 = np.iinfo(np.int64)


def _open_text(path, mode="rt"):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode.rstrip("t") or "r")


# -- readers ---------------------------------------------------------------
#
# Each reader parses the whole file into one int64 array and walks it with a
# _Cursor in file order.  Runs of fields and the entries of each list are
# range-checked as whole arrays; only list headers are visited one by one.
# Any break raises the FormatError of the first offending token in the file,
# on the line that holds it.  The parsers return arrays that own their data,
# so the token array is freed before the instance is built.
#
# Two tokenizers fill the array.  _fast_tokens converts the raw bytes in C.
# It takes every file whose bytes are ASCII digits, signs and the six ASCII
# whitespace bytes, each sign opening a token of digits, and whose values
# all lie strictly inside int64: every file write_gub and generate make, and
# the OR-Library and RAIL files.  It declines every other file (any other
# byte, "1_000", Unicode digits or separators, a value at or beyond int64's
# ends, a bad token), which goes to _int_tokens, the line walk that reads
# each token as int() does and that the fast path must match.  The walk also
# gives the per-line token counts that word an error, so a file the fast
# path took is walked again only to raise.

_BATCH = 1 << 16  # tokens per numpy conversion in _int_tokens
_WINDOW = 1 << 20  # bytes _fast_tokens classifies at a time
_TOKEN_BYTES = b"0123456789+- \t\n\r\v\f"  # digits, signs, ASCII whitespace


def _is_int64(word):
    try:
        return _INT64.min <= int(word) <= _INT64.max
    except ValueError:
        return False


def _as_int64(words):
    """words as int64, cut before the first one that int() rejects or int64 cannot hold."""
    try:
        return np.array(words, dtype=np.int64)
    except (ValueError, OverflowError):
        return np.array(list(itertools.takewhile(_is_int64, words)), dtype=np.int64)


def _int_tokens(path):
    """(tokens, ends): the file's whitespace tokens as int64, and ends[L] the
    number of tokens on lines 1..L (ends[0] = 0).

    The reference tokenizer, for the files _fast_tokens declines and for
    the line numbers of an error.  Lines are read in text mode and
    converted in batches of about _BATCH tokens, so every token is parsed
    as int() parses it and the strings of the whole file never exist at
    once.  Conversion stops after the batch holding the first token that
    is not an int64: tokens then ends just before it, the lines after that
    batch are only counted, and ends[-1] > tokens.size.
    """
    parts, counts, batch = [], [], []
    with _open_text(path) as fh:
        for line in fh:
            before = len(batch)
            batch += line.split()
            counts.append(len(batch) - before)
            if len(batch) >= _BATCH:
                parts.append(_as_int64(batch))
                if parts[-1].size < len(batch):
                    counts += (len(rest.split()) for rest in fh)
                    break
                batch = []
        else:
            parts.append(_as_int64(batch))
    return np.concatenate(parts), np.cumsum([0] + counts, dtype=np.int64)


def _fast_tokens(path):
    """The file's whitespace tokens as int64, converted from its bytes in C,
    or None for a file whose conversion might differ from _int_tokens'.

    The bytes are classified _WINDOW at a time.  Any byte outside
    _TOKEN_BYTES, or a sign that does not open its token or is not
    followed by a digit, declines the file; what is left has only tokens
    [+-]?[0-9]+, which int() and C's strtoll read alike.  strtoll clamps
    a value beyond int64 to its ends, so a value at either end declines the
    file too, as does a conversion that does not give one value per token.
    """
    with _open_text(path, "rb") as fh:
        raw = fh.read()
    whole = np.frombuffer(raw, dtype=np.uint8)
    count, after_space = 0, True
    for lo in range(0, whole.size, _WINDOW):
        chunk = raw[lo:lo + _WINDOW]
        if chunk.translate(None, _TOKEN_BYTES):
            return None
        window = whole[lo:lo + _WINDOW]
        space = window <= 32  # of the bytes left, only the spaces lie below "+"
        count += np.count_nonzero(space[:-1] > space[1:]) + (after_space and not space[0])
        after_space = bool(space[-1])
        if b"+" in chunk or b"-" in chunk:
            at = lo + np.flatnonzero((window == ord("+")) | (window == ord("-")))
            if at[-1] + 1 == whole.size:
                return None
            opens = (at == 0) | (whole[at - 1] <= 32)
            if not (opens.all() and (whole[at + 1] >= ord("0")).all()):
                return None
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    tok = np.fromstring(raw, dtype=np.int64, sep=" ")
    if tok.size != count or tok.max() == _INT64.max or tok.min() == _INT64.min:
        return None
    return tok


def _first_bad(values, lo, hi):
    """Index of the first value outside [lo, hi] (no upper end if hi is None),
    or values.size if there is none."""
    if values.size == 0 or (values.min() >= lo and (hi is None or values.max() <= hi)):
        return values.size
    bad = values < lo
    if hi is not None:
        bad |= values > hi
    return int(np.argmax(bad))


class _Cursor:
    """The token array of one file, read field by field in file order.

    A field is named by a format string that takes its 1-based index, such
    as "cost of column {}".  count is the number of tokens in the file;
    tok holds them all but when a token is not an int64.
    """

    def __init__(self, path):
        self.path = path
        tok = _fast_tokens(path)
        if tok is None:
            tok, self.ends = _int_tokens(path)
            self.count = int(self.ends[-1])
        else:
            self.count = tok.size
        self.tok, self.size = tok, tok.size
        self.pos = 0

    @functools.cached_property
    def ends(self):
        """ends[L]: the tokens on lines 1..L, from the line walk; only an
        error message needs them."""
        return _int_tokens(self.path)[1]

    def run(self, count, what, lo, hi=None):
        """The next count fields, each in [lo, hi]."""
        values = self.tok[self.pos:self.pos + count]
        at = _first_bad(values, lo, hi)
        if at < count:
            self._fail(self.pos + at, what.format(at + 1))
        self.pos += count
        return values

    def lists(self, count, head, entry, top):
        """The next count lists: the header fields in head, then the entries.

        head holds (what, lo, hi) per header field, the last one the list's
        length; each entry is in [1, top].  Returns (fields, owner, entries):
        one array per header field but the length, the list of each entry,
        and the entries 0-based as int32.
        """
        tok, first, width = self.tok, self.pos, len(head)
        starts, lengths, pos = [], [], first
        while len(starts) < count and pos + width <= self.size:
            length = tok.item(pos + width - 1)
            if not head[-1][1] <= length <= head[-1][2]:
                break
            starts.append(pos)
            lengths.append(length)
            pos += width + length
        if len(starts) == count and pos <= self.size:
            heads = np.asarray(starts, dtype=np.int64)
            is_entry = np.ones(pos - first, dtype=bool)
            for w in range(width):
                is_entry[heads + (w - first)] = False
            entries = tok[first:pos][is_entry]
            fields = [tok[heads + w] for w in range(width - 1)]
            if _first_bad(entries, 1, top) == entries.size and all(
                    _first_bad(f, lo, hi) == f.size for f, (_, lo, hi) in zip(fields, head)):
                entries = entries.astype(np.int32)
                entries -= 1
                self.pos = pos
                return fields, np.repeat(np.arange(count, dtype=np.int32), lengths), entries
        # some field breaks: read again one list at a time, so that run()
        # raises for the first offending token
        for h in range(count):
            for what, lo, hi in head:
                length = self.run(1, what.format(h + 1), lo, hi).item()
            self.run(length, entry.format(h + 1), 1, top)
        raise AssertionError("a list field broke, but no token offends")

    def end(self):
        """Raise if any token follows the fields read."""
        if self.pos < self.count:
            raise FormatError(
                f"line {self._line(self.pos)}: trailing data {self._word(self.pos)!r}")

    def _line(self, at):
        return int(np.searchsorted(self.ends, at, side="right"))

    def _word(self, at):
        """The text of token at, read again from the file."""
        line = self._line(at)
        with _open_text(self.path) as fh:
            text = next(itertools.islice(fh, line - 1, None))
        return text.split()[at - self.ends[line - 1]]

    def _fail(self, at, what):
        """Raise for the field what at token at, which is out of range, not
        an int64, or past the end of the file."""
        if at == self.count:
            raise FormatError(
                f"line {self.ends.size - 1}: unexpected end of file while reading {what}")
        if at < self.size:
            value = self.tok.item(at)
        else:
            word = self._word(at)
            try:
                value = int(word)
            except ValueError:
                raise FormatError(
                    f"line {self._line(at)}: expected integer ({what}), got {word!r}") from None
        raise FormatError(f"line {self._line(at)}: {what} {value} out of range")


def _parse_gub(cur):
    m = cur.run(1, "row count", 1).item()
    n = cur.run(1, "column count", 1).item()
    k = cur.run(1, "block count", 1).item()
    cost = cur.run(n, "cost of column {}", 1)
    demand = cur.run(m, "demand of row {}", 0)
    _, rows, cols = cur.lists(m, [("cover count of row {}", 0, n)],
                              "covering column of row {}", n)
    (cap,), block_ids, members = cur.lists(
        k, [("cap of block {}", 0, None), ("size of block {}", 1, n)], "member of block {}", n)
    cur.end()
    # each column in exactly one block; a repeat inside one block is allowed
    key = block_ids.astype(np.int64)
    key *= n
    key += members
    key.sort()
    distinct = key[np.concatenate(([True], key[1:] != key[:-1]))]
    seen = np.bincount(distinct % n, minlength=n)
    if np.any(seen != 1):
        j = int(np.argmax(seen != 1))
        raise FormatError(f"column {j + 1} appears in {seen[j]} blocks")
    return cost.copy(), demand.copy(), rows, cols, cap, block_ids, members


def _parse_orlib(cur):
    m = cur.run(1, "row count", 1).item()
    n = cur.run(1, "column count", 1).item()
    cost = cur.run(n, "cost of column {}", 1)
    _, rows, cols = cur.lists(m, [("cover count of row {}", 0, n)],
                              "covering column of row {}", n)
    cur.end()
    return cost.copy(), m, rows, cols


def _parse_rail(cur):
    # only m bounds the rows, and it sizes the demand array: cap it at the
    # file's token count, which every coverable file meets (a row needs an entry)
    m = cur.run(1, "row count", 1, cur.count).item()
    n = cur.run(1, "column count", 1).item()
    (cost,), cols, rows = cur.lists(
        n, [("cost of column {}", 1, None), ("row count of column {}", 1, m)],
        "covered row of column {}", m)
    cur.end()
    return cost, m, rows, cols


def _scp_instance(cost, m, rows, cols) -> Instance:
    """Set covering: every demand 1, every column its own block with cap 1."""
    n = cost.size
    return Instance(cost, np.ones(m, dtype=np.int64), rows, cols,
                    np.ones(n, dtype=np.int64), np.arange(n), np.arange(n))


def read_gub(path) -> Instance:
    """Read a native .gub file (see the module docstring); FormatError if malformed."""
    return Instance(*_parse_gub(_Cursor(path)))


def read_orlib_scp(path) -> Instance:
    """Read an OR-Library set covering file; FormatError if malformed."""
    return _scp_instance(*_parse_orlib(_Cursor(path)))


def read_rail(path) -> Instance:
    """Read a column-major RAIL file; FormatError if malformed."""
    return _scp_instance(*_parse_rail(_Cursor(path)))


_READERS = {"gub": read_gub, "orlib": read_orlib_scp, "rail": read_rail}


def read_instance(path, fmt="gub") -> Instance:
    if fmt not in _READERS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    return _READERS[fmt](path)


def write_gub(inst: Instance, path):
    with _open_text(path, "wt") as fh:
        fh.write(f"{inst.m} {inst.n} {inst.k}\n")
        fh.write(" ".join(str(int(c)) for c in inst.cost) + "\n")
        fh.write(" ".join(str(int(b)) for b in inst.demand) + "\n")
        for cols in inst.row_cols:
            fh.write(" ".join([str(len(cols))] + [str(int(j) + 1) for j in cols]) + "\n")
        for h, members in enumerate(inst.block_cols):
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
        if not 1 <= value <= _INT64.max:
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
        if self.block_size < 1 or self.cols % self.block_size != 0:
            raise ValueError("block_size must be positive and divide cols")
        if not (1 <= self.cap <= self.block_size):
            raise ValueError("cap must be in [1, block_size]")
        if not (1 <= self.cost_lo <= self.cost_hi):
            raise ValueError("bad cost range")
        if self.cost_hi * self.cols > np.iinfo(np.int64).max:
            raise ValueError("cost_hi * cols must fit in int64")
        if not (0 <= self.demand_lo <= self.demand_hi):
            raise ValueError("bad demand range")
        if self.cols < max(2, self.demand_hi):
            raise ValueError("cols must be at least max(2, demand_hi): every row "
                             "gets that many distinct covering columns")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
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
    payload = asdict(result)
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
        "lower_bound": result.lower_bound,
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
