"""Problem data and objective evaluation.

An instance asks for a minimum-cost selection of columns such that every
row i is covered at least demand[i] times, while each block of columns
(the blocks partition the column set) contributes at most cap[h] selected
columns.  Costs are positive integers, coverage is 0/1 per (row, column)
pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass
class Violation:
    """One broken invariant found by validate()."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class Csr:
    """A sequence of index lists packed back to back, read-only.

    List p is ind[ptr[p]:ptr[p + 1]]; ptr starts at 0 and never decreases.
    """

    __slots__ = ("ptr", "ind")

    def __init__(self, ptr, ind):
        self.ptr = _frozen(np.asarray(ptr, dtype=np.int64))
        self.ind = _frozen(np.asarray(ind, dtype=np.int32))

    @classmethod
    def group(cls, owner, member, count, size) -> Csr:
        """count lists from (owner, member) pairs given in any order.

        Each list comes out sorted, without repeats.  The pairs must lie in
        range: 0 <= owner < count and 0 <= member < size.  Sorting the packed
        key owner * size + member orders by owner, then member, and puts
        repeated pairs next to each other.
        """
        key = np.array(owner, dtype=np.int64)
        key *= size
        key += member
        key.sort()
        if key.size > 1:
            fresh = key[1:] != key[:-1]
            if not fresh.all():
                key = key[np.concatenate(([True], fresh))]
        ptr = np.searchsorted(key, np.arange(count + 1, dtype=np.int64) * size)
        if size:
            np.remainder(key, size, out=key)
        return cls(ptr, key.astype(np.int32))

    @property
    def count(self) -> int:
        return len(self.ptr) - 1

    def views(self) -> list:
        """One read-only view into ind per list."""
        ind = self.ind
        bounds = self.ptr.tolist()
        return [ind[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def owners(self) -> np.ndarray:
        """int64[len(ind)]: the list each entry belongs to."""
        return np.repeat(np.arange(self.count, dtype=np.int64), np.diff(self.ptr))

    def __eq__(self, other):
        if not isinstance(other, Csr):
            return NotImplemented
        return np.array_equal(self.ptr, other.ptr) and np.array_equal(self.ind, other.ind)


class Instance:
    """Immutable problem instance, built from coordinate lists.

    Column cols[e] covers row rows[e], and column members[e] belongs to
    block blocks[e] (all 0-based).  Entries may come in any order and may
    repeat: every list is stored sorted and without repeats, and the
    transpose and the block lookup are derived, so no instance holds
    unsorted, repeated, out-of-range or mutually inconsistent lists.  A
    column listed in several blocks gets the last of them as block_of,
    which validate() then reports.  Raises ValueError for coordinate lists
    of different lengths, an index out of range or a column in no block.

    The adjacency lives in three frozen Csr buffers: col_csr (rows of each
    column), row_csr (columns of each row) and block_csr (members of each
    block).  col_rows, row_cols and block_cols are lists of read-only views
    into them, one small array per column, row or block.

    Attributes
    ----------
    m, n, k : int
        Row, column and block counts.
    cost : int64[n]
    demand : int64[m]
    col_rows : list of int32 arrays, rows covered by each column (sorted)
    row_cols : list of int32 arrays, columns covering each row (sorted)
    cap : int64[k]
    block_cols : list of int32 arrays, member columns of each block (sorted)
    block_of : int64[n], block index of each column
    col_csr, row_csr, block_csr : Csr, the buffers behind the three lists
    nnz : int, number of (row, column) cover entries
    cost_sum : int, sum(cost) as a Python int, so it cannot wrap
    wbar : float, penalty weight cost_sum + 1, above the cost of every column
        together; a sub-instance of a reduced problem keeps its parent's.
    """

    def __init__(self, cost, demand, rows, cols, cap, blocks, members, wbar=None):
        # copies: freezing must not make the caller's own arrays read-only
        self.cost = _frozen(np.array(cost, dtype=np.int64))
        self.demand = _frozen(np.array(demand, dtype=np.int64))
        self.cap = _frozen(np.array(cap, dtype=np.int64))
        self.n = n = len(self.cost)
        self.m = m = len(self.demand)
        self.k = k = len(self.cap)
        rows, cols = np.asarray(rows), np.asarray(cols)
        blocks, members = np.asarray(blocks), np.asarray(members)
        if rows.shape != cols.shape or blocks.shape != members.shape:
            raise ValueError("coordinate lists of different lengths")
        for idx, size, what in ((rows, m, "row"), (cols, n, "column"),
                                (blocks, k, "block"), (members, n, "column")):
            _check_range(idx, size, what)
        self.col_csr = Csr.group(cols, rows, n, m)
        self.row_csr = Csr.group(rows, cols, m, n)
        self.block_csr = Csr.group(blocks, members, k, n)
        block_of = np.full(n, -1, dtype=np.int64)
        np.maximum.at(block_of, self.block_csr.ind, self.block_csr.owners())
        if np.any(block_of < 0):
            bad = int(np.flatnonzero(block_of < 0)[0])
            raise ValueError(f"column {bad} belongs to no block")
        self.block_of = _frozen(block_of)
        self.col_rows = self.col_csr.views()
        self.row_cols = self.row_csr.views()
        self.block_cols = self.block_csr.views()
        self.nnz = int(self.col_csr.ind.size)
        self.cost_sum = _exact_sum(self.cost)
        self.wbar = float(self.cost_sum + 1) if wbar is None else float(wbar)
        self._matrix = None

    @classmethod
    def from_columns(cls, cost, col_rows, demand, blocks):
        """Build an instance from column data.

        blocks is a sequence of (cap, member_columns) pairs.  Raises
        ValueError as the constructor does, and for a number of column
        lists other than len(cost).
        """
        n = len(cost)
        if len(col_rows) != n:
            raise ValueError(f"{len(col_rows)} column lists for {n} costs")
        members = [b[1] for b in blocks]
        return cls(
            cost, demand,
            _flat(col_rows), np.repeat(np.arange(n), [len(r) for r in col_rows]),
            [b[0] for b in blocks],
            np.repeat(np.arange(len(members)), [len(b) for b in members]), _flat(members),
        )

    def matrix(self) -> sp.csr_matrix:
        """0/1 coverage matrix (m x n) in CSR form over row_csr, built once and cached."""
        if self._matrix is None:
            r = self.row_csr
            data = np.ones(r.ind.size, dtype=np.int64)
            self._matrix = sp.csr_matrix((data, r.ind, r.ptr), shape=(self.m, self.n))
        return self._matrix

    def density(self) -> float:
        return self.nnz / float(self.m * self.n) if self.m and self.n else 0.0

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.m == other.m
            and self.n == other.n
            and self.k == other.k
            and np.array_equal(self.cost, other.cost)
            and np.array_equal(self.demand, other.demand)
            and np.array_equal(self.cap, other.cap)
            and self.col_csr == other.col_csr
            and self.block_csr == other.block_csr
        )

    def __repr__(self):
        return f"Instance(m={self.m}, n={self.n}, k={self.k}, nnz={self.nnz})"


def _frozen(a: np.ndarray) -> np.ndarray:
    a = a.copy() if not a.flags.owndata else a
    a.flags.writeable = False
    return a


def _flat(lists) -> np.ndarray:
    return np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64)


def _exact_sum(a: np.ndarray) -> int:
    """sum(a) as a Python int; int64 arithmetic only where no partial sum can wrap."""
    if a.size and max(int(a.max()), -int(a.min())) * a.size > _INT64_MAX:
        return sum(a.tolist())
    return int(a.sum())


def _check_range(idx: np.ndarray, size: int, what: str):
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        bad = idx[(idx < 0) | (idx >= size)][0]
        raise ValueError(f"{what} index {bad} out of range for {size} {what}s")


def as_bool(n: int, selected) -> np.ndarray:
    """0/1 solution vector from an iterable of selected column indices."""
    x = np.zeros(n, dtype=bool)
    idx = np.asarray(list(selected), dtype=np.int64)
    if idx.size:
        x[idx] = True
    return x


def solution_key(x) -> bytes:
    """Hashable identity of a solution, used by the reference sets."""
    return np.packbits(np.asarray(x, dtype=bool)).tobytes()


def initial_weights(inst: Instance) -> np.ndarray:
    """Uniform starting penalty weights, inst.wbar per row.

    Any violated row is then more expensive than buying every column, so a
    penalized value above sum(cost) certifies that no feasible solution was
    found.
    """
    return np.full(inst.m, inst.wbar)


def coverage_counts(inst: Instance, x) -> np.ndarray:
    """Per-row counts of selected covering columns."""
    sel = np.flatnonzero(x)
    if sel.size == 0:
        return np.zeros(inst.m, dtype=np.int64)
    rows = np.concatenate([inst.col_rows[j] for j in sel])
    return np.bincount(rows, minlength=inst.m).astype(np.int64)


def objective(inst: Instance, x) -> int:
    x = np.asarray(x, dtype=bool)
    return int(inst.cost[x].sum())


def penalized_objective(inst: Instance, x, w) -> float:
    """cost(x) plus weighted shortfall over the rows."""
    shortfall = np.maximum(inst.demand - coverage_counts(inst, x), 0)
    return float(objective(inst, x) + np.dot(np.asarray(w, dtype=float), shortfall))


def gub_feasible(inst: Instance, x) -> bool:
    """True when every block stays within its cap."""
    x = np.asarray(x, dtype=bool)
    counts = np.bincount(inst.block_of[x], minlength=inst.k)
    return bool(np.all(counts <= inst.cap))


def is_feasible(inst: Instance, x) -> bool:
    """True when both the covering demands and the block caps hold."""
    return bool(np.all(coverage_counts(inst, x) >= inst.demand)) and gub_feasible(inst, x)


def validate(inst: Instance) -> list[Violation]:
    """Check the values an instance takes from outside; [] when sound.

    The constructor already keeps every list sorted, without repeats and
    in range, derives the transpose and puts each column in some block.
    What is left is the values: positive costs whose sum fits in int64,
    non-negative demands, no empty column, caps between 1 and the block
    size, and no column in two blocks.  Violations come out costs and
    demands first, then column by column and block by block in index
    order, the partition last.
    """
    out: list[Violation] = []
    if np.any(inst.cost <= 0):
        bad = np.flatnonzero(inst.cost <= 0)[0]
        out.append(Violation("cost_not_positive", f"column {bad} has cost {inst.cost[bad]}"))
    if inst.cost_sum > _INT64_MAX:
        out.append(Violation("cost_sum_overflow", f"costs sum to {inst.cost_sum}, beyond int64"))
    if np.any(inst.demand < 0):
        bad = np.flatnonzero(inst.demand < 0)[0]
        out.append(Violation("demand_negative", f"row {bad} has demand {inst.demand[bad]}"))
    for j in np.flatnonzero(np.diff(inst.col_csr.ptr) == 0):
        out.append(Violation("empty_column", f"column {j} covers no rows"))

    blocks = inst.block_csr
    owner = blocks.owners()
    mismatch = np.zeros(inst.k, dtype=bool)
    mismatch[owner[inst.block_of[blocks.ind] != owner]] = True
    size = np.diff(blocks.ptr)
    cap_low = inst.cap < 1
    cap_high = inst.cap > size
    for h in np.flatnonzero(cap_low | cap_high | mismatch):
        if cap_low[h]:
            out.append(Violation("cap_not_positive", f"block {h} has cap {inst.cap[h]}"))
        if cap_high[h]:
            out.append(Violation("cap_exceeds_block_size", f"block {h} cap {inst.cap[h]} > size {size[h]}"))
        if mismatch[h]:
            out.append(Violation("block_of_mismatch", f"block {h} members disagree with block_of"))
    seen = np.bincount(blocks.ind, minlength=inst.n)
    if np.any(seen != 1):
        bad = np.flatnonzero(seen != 1)[0]
        out.append(
            Violation(
                "blocks_not_partition",
                f"column {bad} appears in {seen[bad]} blocks",
            )
        )
    return out
