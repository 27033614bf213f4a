"""Token-by-token reference readers for the three instance formats.

The array readers in gubcover.io check whole runs of fields at once and
locate an error in the file's bytes.  These walks read one token at
a time and check each field as they go, so the first offending token is the
first they meet; the differential tests in test_io.py require the array
readers to accept exactly the files these accept and to raise the same
FormatError message on every other file.

The grammar is on bytes: lines end at LF, CR and CR LF, tokens are split
at the six ASCII whitespace bytes, and an integer is [+-]?[0-9]+ in int64.
A token is quoted as its UTF-8 text, other bytes as backslash escapes.
"""

from __future__ import annotations

import gzip
import re

import numpy as np

from gubcover.io import FormatError

_INT64 = np.iinfo(np.int64)


class _Tokens:
    """Whitespace token stream that tracks line numbers for error messages."""

    def __init__(self, lines):
        self.size = sum(len(line.split()) for line in lines)  # tokens in the whole file
        self._lines = enumerate(lines, start=1)
        self._line_no = 0
        self._buf = iter(())

    def next_int(self, what, lo=None, hi=None):
        tok = self._next(what)
        if not re.fullmatch(rb"[+-]?[0-9]+", tok):
            raise FormatError(
                f"line {self._line_no}: expected integer ({what}), got {_text(tok)!r}"
            )
        value = int(tok)
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
            raise FormatError(f"line {self._line_no}: trailing data {_text(tok)!r}")


def _text(tok):
    return tok.decode("utf-8", "backslashreplace")


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
    m = t.next_int("row count", lo=1, hi=t.size)
    n = t.next_int("column count", lo=1)
    for j in range(n):
        t.next_int(f"cost of column {j + 1}", lo=1)
        cnt = t.next_int(f"row count of column {j + 1}", lo=1, hi=m)
        for _ in range(cnt):
            t.next_int(f"covered row of column {j + 1}", lo=1, hi=m)
    t.expect_eof()


WALKS = {"gub": _walk_gub, "orlib": _walk_orlib, "rail": _walk_rail}


def check_file(path, fmt):
    """Walk the file in fmt; FormatError if it is malformed, None if not."""
    with (gzip.open if str(path).endswith(".gz") else open)(path, "rb") as fh:
        lines = fh.read().splitlines()
    WALKS[fmt](_Tokens(lines))
