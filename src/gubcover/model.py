"""Problem data and objective evaluation.

An instance asks for a minimum-cost selection of columns such that every
row i is covered at least demand[i] times, while each block of columns
(the blocks partition the column set) contributes at most cap[h] selected
columns.  Costs are positive integers, coverage is 0/1 per (row, column)
pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass
class Violation:
    """One broken invariant found by validate()."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class Instance:
    """Immutable problem instance.

    Construction normally goes through :meth:`from_columns`, which derives
    the row-wise adjacency and the block lookup from the column data.  The
    raw constructor stores whatever it is given (so that validate() can be
    exercised on broken data) and freezes the numpy buffers.

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
    wbar : float, penalty weight sum(cost) + 1, above the cost of every column
        together; a sub-instance of a reduced problem keeps its parent's.
    """

    def __init__(self, cost, demand, col_rows, row_cols, cap, block_cols, block_of,
                 wbar=None):
        self.cost = _frozen(np.asarray(cost, dtype=np.int64))
        self.demand = _frozen(np.asarray(demand, dtype=np.int64))
        self.col_rows = [_frozen(np.asarray(r, dtype=np.int32)) for r in col_rows]
        self.row_cols = [_frozen(np.asarray(c, dtype=np.int32)) for c in row_cols]
        self.cap = _frozen(np.asarray(cap, dtype=np.int64))
        self.block_cols = [_frozen(np.asarray(c, dtype=np.int32)) for c in block_cols]
        self.block_of = _frozen(np.asarray(block_of, dtype=np.int64))
        self.n = len(self.cost)
        self.m = len(self.demand)
        self.k = len(self.cap)
        self.nnz = int(sum(len(r) for r in self.col_rows))
        self.wbar = float(self.cost.sum() + 1) if wbar is None else float(wbar)
        self._matrix = None

    @classmethod
    def from_columns(cls, cost, col_rows, demand, blocks):
        """Build an instance from column data.

        blocks is a sequence of (cap, member_columns) pairs.  Row-wise
        adjacency and the column->block map are derived here; indices are
        sorted and deduplicated.  Raises ValueError when a column belongs to
        no block.
        """
        cost = np.asarray(cost, dtype=np.int64)
        demand = np.asarray(demand, dtype=np.int64)
        n = len(cost)
        m = len(demand)
        cols = [np.unique(np.asarray(r, dtype=np.int32)) for r in col_rows]
        rows = [[] for _ in range(m)]
        for j, rset in enumerate(cols):
            for i in rset:
                rows[int(i)].append(j)
        row_cols = [np.asarray(r, dtype=np.int32) for r in rows]
        cap = np.asarray([b[0] for b in blocks], dtype=np.int64)
        block_cols = [np.unique(np.asarray(b[1], dtype=np.int32)) for b in blocks]
        block_of = np.full(n, -1, dtype=np.int64)
        for h, members in enumerate(block_cols):
            block_of[members] = h
        if np.any(block_of < 0):
            bad = int(np.flatnonzero(block_of < 0)[0])
            raise ValueError(f"column {bad} belongs to no block")
        return cls(cost, demand, cols, row_cols, cap, block_cols, block_of)

    def matrix(self) -> sp.csr_matrix:
        """0/1 coverage matrix (m x n) in CSR form, built once and cached."""
        if self._matrix is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            indptr[1:] = np.cumsum([len(r) for r in self.col_rows])
            indices = (
                np.concatenate(self.col_rows)
                if self.nnz
                else np.zeros(0, dtype=np.int32)
            )
            data = np.ones(self.nnz, dtype=np.int64)
            a = sp.csc_matrix((data, indices, indptr), shape=(self.m, self.n))
            self._matrix = a.tocsr()
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
            and all(np.array_equal(a, b) for a, b in zip(self.col_rows, other.col_rows))
            and all(
                np.array_equal(a, b) for a, b in zip(self.block_cols, other.block_cols)
            )
        )

    def __repr__(self):
        return f"Instance(m={self.m}, n={self.n}, k={self.k}, nnz={self.nnz})"


def _frozen(a: np.ndarray) -> np.ndarray:
    a = a.copy() if not a.flags.owndata else a
    a.flags.writeable = False
    return a


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
    """Check every structural invariant; returns an empty list when sound."""
    out: list[Violation] = []
    if len(inst.col_rows) != inst.n:
        out.append(Violation("column_count_mismatch", f"{len(inst.col_rows)} column lists for n={inst.n}"))
    if len(inst.row_cols) != inst.m:
        out.append(Violation("row_count_mismatch", f"{len(inst.row_cols)} row lists for m={inst.m}"))
    if np.any(inst.cost <= 0):
        bad = np.flatnonzero(inst.cost <= 0)[0]
        out.append(Violation("cost_not_positive", f"column {bad} has cost {inst.cost[bad]}"))
    if np.any(inst.demand < 0):
        bad = np.flatnonzero(inst.demand < 0)[0]
        out.append(Violation("demand_negative", f"row {bad} has demand {inst.demand[bad]}"))

    for j, rset in enumerate(inst.col_rows):
        if len(rset) == 0:
            out.append(Violation("empty_column", f"column {j} covers no rows"))
        if len(rset) and (rset.min() < 0 or rset.max() >= inst.m):
            out.append(Violation("row_index_range", f"column {j} references row {int(rset.max())}"))
            continue
        if np.any(np.diff(rset) < 0):
            out.append(Violation("unsorted_indices", f"column {j} row list is not sorted"))
        elif np.any(np.diff(rset) == 0):
            out.append(Violation("duplicate_entry", f"column {j} lists a row twice"))

    # transpose consistency, both directions
    derived = [[] for _ in range(inst.m)]
    for j, rset in enumerate(inst.col_rows):
        for i in rset:
            if 0 <= i < inst.m:
                derived[int(i)].append(j)
    for i in range(min(inst.m, len(inst.row_cols))):
        if not np.array_equal(np.asarray(derived[i], dtype=np.int32), inst.row_cols[i]):
            out.append(Violation("transpose_mismatch", f"row {i} column list disagrees with column data"))
            break

    seen = np.zeros(inst.n, dtype=np.int64)
    for h, members in enumerate(inst.block_cols):
        if len(members) and (members.min() < 0 or members.max() >= inst.n):
            out.append(Violation("column_index_range", f"block {h} references column {int(members.max())}"))
            continue
        seen[members] += 1
        if inst.cap[h] < 1:
            out.append(Violation("cap_not_positive", f"block {h} has cap {inst.cap[h]}"))
        if inst.cap[h] > len(members):
            out.append(Violation("cap_exceeds_block_size", f"block {h} cap {inst.cap[h]} > size {len(members)}"))
        if np.any(inst.block_of[members] != h):
            out.append(Violation("block_of_mismatch", f"block {h} members disagree with block_of"))
    if np.any(seen != 1):
        bad = np.flatnonzero(seen != 1)[0]
        out.append(
            Violation(
                "blocks_not_partition",
                f"column {bad} appears in {seen[bad]} blocks",
            )
        )
    return out
