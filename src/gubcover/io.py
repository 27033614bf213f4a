"""Instance file formats, the random instance generator, and run output.

read_instance(path, fmt) reads all three input formats.  Each is a
whitespace-token stream, transparently gzip-decompressed for a .gz path:

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
import os
import re
from dataclasses import asdict, dataclass, fields

import numpy as np

from .model import Instance, is_int, is_real, plain

FORMATS = ("gub", "orlib", "rail")


class FormatError(ValueError):
    """Malformed instance or solution file."""


_INT64 = np.iinfo(np.int64)


def _open(path, mode):
    """path opened in mode, through gzip for a .gz path."""
    return (gzip.open if str(path).endswith(".gz") else open)(path, mode)


def _read(path):
    with _open(path, "rb") as fh:
        return fh.read()


# -- readers ---------------------------------------------------------------
#
# Each reader parses the whole file into one int64 array and walks it with a
# _Cursor in file order.  Runs of fields and the entries of each list are
# range-checked as whole arrays; only list headers are visited one by one.
# Any break raises the FormatError of the first offending token in the file,
# on the line that holds it.  The parsers return arrays that own their data,
# so the token array is freed before the instance is built.
#
# One grammar, on bytes, holds for every file and every locale: tokens are
# separated by the six ASCII whitespace bytes, and an integer is [+-]?[0-9]+
# that fits in int64.  Any other token ("1_000", "1.5", a Unicode digit, a
# token holding \x1c, a no-break space or a byte that is not UTF-8) is not an
# integer.  _tokens converts the file in one C pass; an error message reads
# the file again, through _locate, for the line and text of its token.

_WINDOW = 1 << 20  # bytes _tokens checks at a time
_TOKEN_BYTES = b"0123456789+- \t\n\r\v\f"  # digits, signs, ASCII whitespace
_NOT_TOKEN_BYTE = re.compile(rb"[^0-9+\-\s]")  # \s: the six ASCII whitespace bytes
_IS_SPACE = np.zeros(256, dtype=bool)
_IS_SPACE[list(b" \t\n\r\v\f")] = True
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _spans(raw):
    """(starts, ends): the byte offsets of each token of raw."""
    space = _IS_SPACE[np.frombuffer(raw, dtype=np.uint8)]
    edges = np.flatnonzero(np.diff(space, prepend=True, append=True))
    return edges[0::2], edges[1::2]


def _bad_byte(whole, lo, chunk):
    """Offset of the first byte in the window chunk at lo that is not a
    token byte or is a sign that does not open a token of digits, or None."""
    window = whole[lo:lo + len(chunk)]
    bad = []
    if chunk.translate(None, _TOKEN_BYTES):
        bad.append(lo + _NOT_TOKEN_BYTE.search(chunk).start())
    if b"+" in chunk or b"-" in chunk:
        at = lo + np.flatnonzero((window == ord("+")) | (window == ord("-")))
        # a sign in the last byte is followed by itself, not by a digit
        ok = (((at == 0) | (whole[at - 1] <= 32))
              & (whole[np.minimum(at + 1, whole.size - 1)] >= ord("0")))
        if not ok.all():
            bad.append(int(at[np.argmin(ok)]))
    return min(bad, default=None)


def _tokens(path):
    """(tok, count): as int64, the file's tokens before the first one that
    is not an integer in int64, and the number of all its tokens.

    The bytes are checked _WINDOW at a time up to the first bad byte: one
    not in _TOKEN_BYTES, or a sign that does not open a token of digits.
    Only the tokens before that byte's token are converted, and only then
    are all the tokens counted apart (_spans).  The conversion is C's
    strtoll, which clamps a value beyond int64 to its ends, so a value at
    either end is read again from its text.
    """
    raw = _read(path)
    whole = np.frombuffer(raw, dtype=np.uint8)
    bad = None
    for lo in range(0, whole.size, _WINDOW):
        # bound to a name, each window lives until the next one is cut:
        # passed as a temporary, k1-construct's peak RSS rose by 0.3 MB
        chunk = raw[lo:lo + _WINDOW]
        bad = _bad_byte(whole, lo, chunk)
        if bad is not None:
            break
    text = raw
    if bad is not None:
        # the bytes before bad are token bytes: its token opens after the
        # last space before it
        text = raw[:max(raw.rfind(bytes([c]), 0, bad) for c in b" \t\n\r\v\f") + 1]
    tok = np.zeros(0, np.int64) if text.isspace() else np.fromstring(text, dtype=np.int64, sep=" ")
    count = tok.size if bad is None else _spans(raw)[0].size
    if tok.size and (tok.max() == _INT64.max or tok.min() == _INT64.min):
        starts, ends = _spans(text)
        for i in np.flatnonzero((tok == _INT64.max) | (tok == _INT64.min)):
            if not _INT64.min <= int(text[starts[i]:ends[i]]) <= _INT64.max:
                return tok[:i].copy(), count
    return tok, count


def _locate(path, at):
    """(line, word): the 1-based line and the text of token at in the file,
    or the file's line count and None for at past its last token.

    Lines end at \\n, \\r and \\r\\n, as in text mode.  The text is
    decoded as UTF-8, any other byte shown as a \\x escape.
    """
    raw = _read(path)
    starts, ends = _spans(raw)
    p = starts[at] if at < starts.size else len(raw)
    line = 1 + raw.count(b"\n", 0, p) + raw.count(b"\r", 0, p) - raw.count(b"\r\n", 0, p)
    if at < starts.size:
        return line, raw[p:ends[at]].decode("utf-8", "backslashreplace")
    return line - (not raw or raw.endswith((b"\n", b"\r"))), None


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
    tok holds them all but when a token is not an integer in int64.
    """

    def __init__(self, path):
        self.path = path
        self.tok, self.count = _tokens(path)
        self.size = self.tok.size
        self.pos = 0

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
            line, word = _locate(self.path, self.pos)
            raise FormatError(f"line {line}: trailing data {word!r}")

    def _fail(self, at, what):
        """Raise for the field what at token at, which is out of range, not
        an integer in int64, or past the end of the file."""
        line, word = _locate(self.path, at)
        if at == self.count:
            raise FormatError(f"line {line}: unexpected end of file while reading {what}")
        if at < self.size:
            value = self.tok.item(at)
        elif _INTEGER.fullmatch(word):
            value = int(word)
        else:
            raise FormatError(f"line {line}: expected integer ({what}), got {word!r}")
        raise FormatError(f"line {line}: {what} {value} out of range")


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


def read_instance(path, fmt="gub") -> Instance:
    """Read an instance file in format fmt (see the module docstring);
    FormatError if it is malformed, ValueError for an unknown fmt."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    # the cursor stays a temporary: its token array is freed before the
    # instance is built
    if fmt == "gub":
        return Instance(*_parse_gub(_Cursor(path)))
    if fmt == "orlib":
        return _scp_instance(*_parse_orlib(_Cursor(path)))
    return _scp_instance(*_parse_rail(_Cursor(path)))


def write_gub(inst: Instance, path):
    """Write inst as a native .gub file (see the module docstring)."""
    with _open(path, "wt") as fh:
        fh.write(f"{inst.m} {inst.n} {inst.k}\n")
        fh.write(" ".join(map(str, inst.cost.tolist())) + "\n")
        fh.write(" ".join(map(str, inst.demand.tolist())) + "\n")
        for cols in inst.row_cols:
            fh.write(" ".join(map(str, [cols.size, *(cols + 1).tolist()])) + "\n")
        for cap, members in zip(inst.cap.tolist(), inst.block_cols):
            fh.write(" ".join(map(str, [cap, members.size, *(members + 1).tolist()])) + "\n")


def parse_solution(path) -> np.ndarray:
    """Read a solution as whitespace-separated 1-based column indices."""
    tok, count = _tokens(path)
    at = _first_bad(tok, 1, None)
    if at < tok.size:
        raise FormatError(f"token {at + 1}: column index {tok.item(at)} out of range")
    if at < count:
        word = _locate(path, at)[1]
        if not _INTEGER.fullmatch(word):
            raise FormatError(f"token {at + 1}: expected column index, got {word!r}")
        raise FormatError(f"token {at + 1}: column index {int(word)} out of range")
    return np.unique(tok) - 1


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

    def check(self) -> GeneratorParams:
        """A copy with plain Python values; ValueError for a field it would misread."""
        for f in fields(self):
            kind, ok = ("a number", is_real) if f.name == "density" else ("an integer", is_int)
            if not ok(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be {kind}")
        p = plain(self)
        if p.rows < 1 or p.cols < 1:
            raise ValueError("rows and cols must be positive")
        if not (0 < p.density < 1):
            raise ValueError("density must be in (0, 1)")
        if p.block_size < 1 or p.cols % p.block_size != 0:
            raise ValueError("block_size must be positive and divide cols")
        if not (1 <= p.cap <= p.block_size):
            raise ValueError("cap must be in [1, block_size]")
        if not (1 <= p.cost_lo <= p.cost_hi):
            raise ValueError("bad cost range")
        if p.cost_hi * p.cols > np.iinfo(np.int64).max:
            raise ValueError("cost_hi * cols must fit in int64")
        if not (0 <= p.demand_lo <= p.demand_hi):
            raise ValueError("bad demand range")
        if p.cols < max(2, p.demand_hi):
            raise ValueError("cols must be at least max(2, demand_hi): every row "
                             "gets that many distinct covering columns")
        if p.seed < 0:
            raise ValueError("seed must be non-negative")
        return p


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
    m, n = p.rows, p.cols
    rng = np.random.default_rng(p.seed)
    cost = rng.integers(p.cost_lo, p.cost_hi + 1, size=n)
    demand = rng.integers(p.demand_lo, p.demand_hi + 1, size=m)
    # Cover entries are keys column * m + row, drawn in a fixed order: a
    # (columns, rows) matrix per 512 columns, one row per empty column, then
    # for each short row columns until it has max(demand, 2) distinct ones.
    keys = np.concatenate([
        np.flatnonzero(rng.random((min(512, n - lo), m)) < p.density) + lo * m
        for lo in range(0, n, 512)])
    empty = np.flatnonzero(np.diff(np.searchsorted(keys, np.arange(n + 1) * m)) == 0)
    fill = empty * m + np.array([rng.integers(m) for _ in empty], dtype=np.int64)
    keys = np.concatenate((keys, fill))
    need = np.maximum(demand, 2)
    counts = np.bincount(keys % m, minlength=m)
    short = np.flatnonzero(counts < need)
    at = np.flatnonzero((counts < need)[keys % m])  # the short rows' entries, by row
    at = at[np.argsort(keys[at] % m)]
    added = []
    for i, have in zip(short.tolist(), np.split(keys[at] // m, np.cumsum(counts[short])[:-1])):
        have = set(have.tolist())
        while len(have) < need[i]:
            j = int(rng.integers(n))
            if j not in have:
                have.add(j)
                added.append(j * m + i)
    keys = np.concatenate((keys, np.array(added, dtype=np.int64)))
    # columns in ascending cost order, blocks over contiguous ranges of them
    order = np.argsort(cost, kind="stable")
    inst = Instance(cost[order], demand, keys % m, np.argsort(order)[keys // m],
                    np.full(n // p.block_size, p.cap),
                    np.arange(n) // p.block_size, np.arange(n))
    achieved = inst.density()
    stats = {
        "target_density": p.density,
        "achieved_density": achieved,
        "density_within_10pct": abs(achieved - p.density) <= 0.1 * p.density,
        "empty_column_repairs": empty.size,
        "row_coverage_repairs": len(added),
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
    # serialized before the file opens, so a failure leaves no partial file
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def append_result_csv(result, path, instance_name=""):
    new = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_CSV_FIELDS)
        if new:
            writer.writeheader()
        writer.writerow({
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
        })
