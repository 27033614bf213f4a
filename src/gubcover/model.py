"""Problem data and objective evaluation.

An instance asks for a minimum-cost selection of columns such that every
row i is covered at least demand[i] times, while each block of columns
(the blocks partition the column set) contributes at most cap[h] selected
columns.  Costs are positive integers, coverage is 0/1 per (row, column)
pair.
"""

from __future__ import annotations

import itertools
import numbers
import operator
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

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
    csr[p], len(csr) and iteration serve the lists as views into ind, made
    on demand, so a Csr holds no per-list objects.

    ptr and ind share one index dtype, int32 while the entry count fits and
    int64 beyond (or dtype), so scipy's compiled sparse loops take them as
    they are: they would convert a mismatched pair on every call.  Those
    loops check no bounds, so gather() checks its owners first.
    """

    __slots__ = ("ptr", "ind")

    def __init__(self, ptr, ind, dtype=None):
        ind = np.asarray(ind)
        if dtype is None:
            dtype = np.int32 if ind.size < 2**31 else np.int64
        self.ptr = _frozen(np.asarray(ptr, dtype=dtype))
        self.ind = _frozen(ind.astype(dtype, copy=False))

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
        # pairs given in order, as a written file lists its rows and blocks,
        # are already sorted and distinct
        if key.size > 1 and not (key[1:] > key[:-1]).all():
            key.sort()
            fresh = key[1:] != key[:-1]
            if not fresh.all():
                key = key[np.concatenate(([True], fresh))]
        ptr = np.searchsorted(key, np.arange(count + 1, dtype=np.int64) * size)
        if size:
            np.remainder(key, size, out=key)
        return cls(ptr, key)

    def gather(self, owners) -> Csr:
        """The lists named by owners, back to back, as a Csr of owners.size lists.

        One compiled row copy in this Csr's dtype, with no per-list views
        and no position arrays.  IndexError for an owner outside [0, len).
        """
        owners = np.asarray(owners)
        if owners.size and (owners.dtype.kind not in "iu" or owners.min() < 0
                            or owners.max() >= len(self)):
            raise IndexError(f"owners must be integers in [0, {len(self)})")
        owners = owners.astype(self.ptr.dtype, copy=False)
        lo = self.ptr[owners]
        ptr = np.zeros(lo.size + 1, dtype=np.int64)
        np.cumsum(self.ptr[owners + 1] - lo, out=ptr[1:])
        ind = np.empty(ptr[-1], dtype=self.ind.dtype)
        # ind also stands in for the data the kernel copies alongside
        _sparsetools.csr_row_index(owners.size, owners, self.ptr, self.ind, self.ind, ind, ind)
        return Csr(ptr, ind, self.ind.dtype if ptr[-1] < 2**31 else None)

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(self, p) -> np.ndarray:
        """List p, a read-only view into ind; a negative p counts from the end."""
        count = len(self)
        q = operator.index(p)
        if q < 0:
            q += count
        if not 0 <= q < count:
            raise IndexError(f"list {p} out of range for {count} lists")
        return self.ind[self.ptr[q]:self.ptr[q + 1]]

    def __iter__(self):
        ind, bounds = self.ind, self.ptr.tolist()
        return (ind[a:b] for a, b in zip(bounds[:-1], bounds[1:]))

    def owners(self) -> np.ndarray:
        """int64[len(ind)]: the list each entry belongs to."""
        return np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.ptr))

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
    unsorted, repeated, out-of-range or mutually inconsistent lists.  The
    blocks must partition the columns.  Raises ValueError for a coordinate
    list that is neither empty nor of an integer dtype (bool and float
    lists included), lists of different lengths, an index out of range or
    a column in no block or in several.

    The adjacency lives in three frozen Csr buffers: col_rows (rows of each
    column), row_cols (columns of each row) and block_cols (members of each
    block).  col_rows[j] is a read-only int32 view of column j's rows, made
    on demand.  matrix() and col_matrix() wrap row_cols and col_rows as
    scipy matrices over the same ptr and ind buffers.

    Attributes
    ----------
    m, n, k : int
        Row, column and block counts.
    cost : int64[n]
    demand : int64[m]
    col_rows : Csr of n lists, rows covered by each column (sorted)
    row_cols : Csr of m lists, columns covering each row (sorted)
    cap : int64[k]
    block_cols : Csr of k lists, member columns of each block (sorted)
    block_of : int64[n], block index of each column
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
        rows = _indices(rows, m, "rows", "row")
        cols = _indices(cols, n, "cols", "column")
        blocks = _indices(blocks, k, "blocks", "block")
        members = _indices(members, n, "members", "column")
        self.col_rows = Csr.group(cols, rows, n, m)
        self.row_cols = Csr.group(rows, cols, m, n)
        self.block_cols = Csr.group(blocks, members, k, n)
        count = np.bincount(self.block_cols.ind, minlength=n)
        if np.any(count != 1):
            bad = int(np.flatnonzero(count != 1)[0])
            where = f"{count[bad]} blocks" if count[bad] else "no block"
            raise ValueError(f"column {bad} belongs to {where}")
        block_of = np.empty(n, dtype=np.int64)
        block_of[self.block_cols.ind] = self.block_cols.owners()
        self.block_of = _frozen(block_of)
        self.nnz = int(self.col_rows.ind.size)
        self.cost_sum = _exact_sum(self.cost)
        self.wbar = float(self.cost_sum + 1) if wbar is None else float(wbar)
        self._matrix_pair = None

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
        """0/1 coverage matrix (m x n), float64 CSR over row_cols, built once and cached."""
        return self._matrices()[0]

    def col_matrix(self) -> sp.csr_matrix:
        """The transpose of matrix() (n x m), float64 CSR over col_rows.

        It shares matrix()'s read-only data buffer and col_rows' ptr and
        ind, so it holds no arrays of its own.  col_matrix() @ u sums
        each column's u[i] from 0 in ascending row order, as u @ matrix()
        does, so the two give the same floats; the row-major product is
        the faster one, and a row slice of it prices a subset of columns.
        """
        return self._matrices()[1]

    def _matrices(self):
        if self._matrix_pair is None:
            ones = np.ones(self.nnz)
            ones.flags.writeable = False
            r, c = self.row_cols, self.col_rows
            self._matrix_pair = (
                sp.csr_matrix((ones, r.ind, r.ptr), shape=(self.m, self.n)),
                sp.csr_matrix((ones, c.ind, c.ptr), shape=(self.n, self.m)))
        return self._matrix_pair

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
            and self.col_rows == other.col_rows
            and self.block_cols == other.block_cols
        )

    def __repr__(self):
        return f"Instance(m={self.m}, n={self.n}, k={self.k}, nnz={self.nnz})"


def is_int(value) -> bool:
    """An integer of any kind except bool, which is an int to Python."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number of any kind except bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def plain(params):
    """The dataclass params with each numpy scalar field as its Python value."""
    return replace(params, **{f.name: v.item() for f in fields(params)
                              if isinstance(v := getattr(params, f.name), np.generic)})


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


def _indices(idx: np.ndarray, size: int, name: str, what: str) -> np.ndarray:
    """The coordinate list name as indices in [0, size), ValueError otherwise;
    Csr.group widens signed ones, unsigned and empty ones become int64."""
    if idx.size == 0:
        return idx.astype(np.int64)
    if idx.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer indices, not {idx.dtype}")
    if idx.min() < 0 or idx.max() >= size:
        bad = idx[(idx < 0) | (idx >= size)][0]
        raise ValueError(f"{what} index {bad} out of range for {size} {what}s")
    return idx if idx.dtype.kind == "i" else idx.astype(np.int64)


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
    """Per-row counts of selected covering columns.

    One gather of the selected columns' rows, counted in place: bincount
    would first copy the int32 rows to int64.
    """
    counts = np.zeros(inst.m, dtype=np.int64)
    np.add.at(counts, inst.col_rows.gather(np.flatnonzero(x)).ind, 1)
    return counts


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
    in range, derives the transpose and puts each column in exactly one
    block.  What is left is the values: positive costs whose sum fits in
    int64, non-negative demands, no empty column, and caps between 1 and
    the block size.  Violations come out costs and demands first, then
    column by column and block by block in index order.
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
    for j in np.flatnonzero(np.diff(inst.col_rows.ptr) == 0):
        out.append(Violation("empty_column", f"column {j} covers no rows"))

    size = np.diff(inst.block_cols.ptr)
    cap_low = inst.cap < 1
    cap_high = inst.cap > size
    for h in np.flatnonzero(cap_low | cap_high):
        if cap_low[h]:
            out.append(Violation("cap_not_positive", f"block {h} has cap {inst.cap[h]}"))
        if cap_high[h]:
            out.append(Violation("cap_exceeds_block_size", f"block {h} cap {inst.cap[h]} > size {size[h]}"))
    return out
