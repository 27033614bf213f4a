import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gubcover import model
from gubcover.model import Instance

from conftest import assert_same_instance, random_instance


def test_from_columns_derives_transpose_and_blocks(t1):
    assert (t1.m, t1.n, t1.k) == (3, 4, 2)
    assert [list(r) for r in t1.row_cols] == [[0, 2], [0, 1], [1, 2, 3]]
    assert list(t1.block_of) == [0, 0, 1, 1]
    assert [list(b) for b in t1.block_cols] == [[0, 1], [2, 3]]
    assert t1.nnz == 7


def test_from_columns_rejects_column_outside_every_block():
    # column 2 sits in no block; it must not drift into the last one
    with pytest.raises(ValueError, match="column 2"):
        Instance.from_columns(cost=[3, 3, 1], col_rows=[[0], [1], [0, 1]],
                              demand=[1, 1], blocks=[(1, [0]), (1, [1])])


def test_constructor_rejects_column_in_two_blocks():
    # a column in several blocks would have no single block_of; a repeat
    # inside one block counts once
    with pytest.raises(ValueError, match="column 1 belongs to 2 blocks"):
        Instance([3, 4], [1], [0, 0], [0, 1], [1, 1], [0, 0, 1], [0, 1, 1])
    with pytest.raises(ValueError, match="column 0 belongs to 3 blocks"):
        Instance([3], [1], [0], [0], [1, 1, 1], [2, 0, 1, 0], [0, 0, 0, 0])


COORDS = dict(rows=[0, 1, 1], cols=[0, 0, 1], blocks=[0, 0], members=[0, 1])


def coord_instance(**coords):
    c = {**COORDS, **coords}
    return Instance([3, 4], [1, 2], c["rows"], c["cols"], [2], c["blocks"], c["members"])


def test_constructor_takes_empty_and_any_integer_coordinate_lists():
    # no cover entries: an instance, whose empty column validate reports
    inst = Instance([3], [1], [], [], [1], [0], [0])
    assert inst.nnz == 0
    assert [v.code for v in model.validate(inst)] == ["empty_column"]
    with pytest.raises(ValueError, match="column 0 belongs to no block"):
        Instance([3], [1], [0], [0], [1], [], [])
    want = coord_instance()
    for dtype in (np.int8, np.int32, np.uint8, np.uint64):
        assert_same_instance(
            coord_instance(**{k: np.array(v, dtype=dtype) for k, v in COORDS.items()}), want)
    with pytest.raises(ValueError, match="row index 9223372036854775808 out of range"):
        coord_instance(rows=np.array([0, 1, 2**63], dtype=np.uint64))


@pytest.mark.parametrize("name", sorted(COORDS))
@pytest.mark.parametrize("dtype", [float, bool])
def test_constructor_rejects_non_integer_coordinate_lists(name, dtype):
    # bools in range would read as 0/1, floats would fail inside numpy
    values = np.array(COORDS[name]).astype(dtype).tolist()
    with pytest.raises(ValueError, match=f"^{name} must hold integer indices"):
        coord_instance(**{name: values})


def test_instance_arrays_are_frozen(t1):
    with pytest.raises(ValueError):
        t1.cost[0] = 99
    with pytest.raises(ValueError):
        t1.demand[0] = 99


def test_instance_leaves_caller_arrays_writeable():
    cost, demand = np.array([4, 3]), np.array([1])
    inst = Instance.from_columns(cost, [[0], [0]], demand, [(1, [0, 1])])
    assert cost.flags.writeable and demand.flags.writeable
    assert not (inst.cost.flags.writeable or inst.demand.flags.writeable)
    cost[0] = 1
    assert list(inst.cost) == [4, 3]


def test_density(t1):
    assert t1.density() == pytest.approx(7 / 12)


def test_objective_values(t1):
    assert model.objective(t1, model.as_bool(4, [1, 2])) == 8
    assert model.objective(t1, model.as_bool(4, [0, 2, 3])) == 10
    assert model.objective(t1, np.zeros(4, dtype=bool)) == 0


def test_initial_weights(t1):
    w = model.initial_weights(t1)
    assert w.shape == (3,)
    assert np.all(w == 14)  # sum of costs plus one


def test_penalized_objective_frozen(t1):
    w = model.initial_weights(t1)
    zeros = np.zeros(4, dtype=bool)
    assert model.penalized_objective(t1, zeros, w) == 56
    assert model.penalized_objective(t1, model.as_bool(4, [3]), w) == 43


def test_penalized_equals_cost_when_feasible(t1):
    x = model.as_bool(4, [1, 2])
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = rng.uniform(0, 100, size=3)
        assert model.penalized_objective(t1, x, w) == 8


def test_coverage_counts(t1):
    assert list(model.coverage_counts(t1, model.as_bool(4, [1, 2]))) == [1, 1, 2]
    assert list(model.coverage_counts(t1, model.as_bool(4, [0, 2, 3]))) == [2, 1, 2]


def coverage_counts_reference(inst, x):
    """The per-column list concatenation that the single gather replaced."""
    sel = np.flatnonzero(x)
    if sel.size == 0:
        return np.zeros(inst.m, dtype=np.int64)
    rows = np.concatenate([inst.col_rows[j] for j in sel])
    return np.bincount(rows, minlength=inst.m).astype(np.int64)


def test_coverage_counts_matches_list_concat():
    rng = np.random.default_rng(8)
    for case in range(60):
        inst = random_instance(rng)
        if case % 3 == 0:
            # the constructor admits a column that covers no row
            cols = [list(r) for r in inst.col_rows]
            cols[int(rng.integers(inst.n))] = []
            blocks = [(int(c), list(b)) for c, b in zip(inst.cap, inst.block_cols)]
            inst = Instance.from_columns(inst.cost, cols, inst.demand, blocks)
        for x in (np.zeros(inst.n, dtype=bool), np.ones(inst.n, dtype=bool),
                  rng.random(inst.n) < rng.random()):
            got = model.coverage_counts(inst, x)
            assert got.dtype == np.int64
            assert np.array_equal(got, coverage_counts_reference(inst, x))


def test_csr_gather():
    csr = model.Csr.group([0, 0, 2, 2, 2, 3], [5, 1, 4, 0, 2, 3], 4, 6)
    got = csr.gather(np.array([2, 1, 0, 2, 3]))
    assert got.ptr.tolist() == [0, 3, 3, 5, 8, 9]
    assert got.ind.tolist() == [0, 2, 4, 1, 5, 0, 2, 4, 3]
    assert got.ind.dtype == np.int32
    empty = csr.gather(np.zeros(0, dtype=np.int64))
    assert empty.ptr.tolist() == [0] and empty.ind.size == 0


def gather_reference(csr, owners):
    """The repeat/arange position gather that the compiled row copy replaced."""
    owners = np.asarray(owners, dtype=np.int64)
    lo = csr.ptr[owners].astype(np.int64)
    ptr = np.zeros(lo.size + 1, dtype=np.int64)
    np.cumsum(csr.ptr[owners + 1] - lo, out=ptr[1:])
    at = np.repeat(lo - ptr[:-1], np.diff(ptr))
    at += np.arange(at.size)
    return ptr, csr.ind[at]


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(0, 6), max_size=12),
       picks=st.lists(st.integers(0, 1 << 20), max_size=25),
       wide=st.booleans(), seed=st.integers(0, 1 << 30))
def test_csr_gather_matches_reference(sizes, picks, wide, seed):
    rng = np.random.default_rng(seed)
    ptr = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    ind = rng.integers(0, 50, int(ptr[-1]))
    dtype = np.int64 if wide else np.int32
    csr = model.Csr(ptr, ind, dtype)
    # repeated owners come from the draws; empty lists from zero sizes
    owners = np.array([p % len(sizes) for p in picks] if sizes else [], dtype=np.int64)
    got = csr.gather(owners)
    want_ptr, want_ind = gather_reference(csr, owners)
    assert got.ptr.dtype == got.ind.dtype == dtype
    assert np.array_equal(got.ptr, want_ptr) and np.array_equal(got.ind, want_ind)


def test_csr_gather_checks_owners_first():
    csr = model.Csr.group([0, 1, 1, 2], [3, 0, 2, 1], 3, 4)
    for owners in ([-1], [-2], [0, -3], [3], [1, 7], [-4]):
        with pytest.raises(IndexError, match=r"owners must be integers in \[0, 3\)"):
            csr.gather(np.array(owners))
    with pytest.raises(IndexError, match=r"owners must be integers in \[0, 3\)"):
        csr.gather(np.array([1.0]))
    for owners in ([], np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int32)):
        empty = csr.gather(owners)
        assert empty.ptr.tolist() == [0] and empty.ind.size == 0


def test_csr_keeps_one_index_dtype():
    csr = model.Csr.group([0, 1, 1], [2, 0, 1], 2, 3)
    assert csr.ptr.dtype == csr.ind.dtype == np.int32
    wide = model.Csr(csr.ptr, csr.ind, np.int64)
    assert wide.ptr.dtype == wide.ind.dtype == np.int64
    assert np.array_equal(wide.ptr, csr.ptr) and np.array_equal(wide.ind, csr.ind)


def test_matrices_share_the_csr_buffers(t1):
    for csr in (t1.row_cols, t1.col_rows, t1.block_cols):
        assert csr.ptr.dtype == csr.ind.dtype
    for a, csr in ((t1.matrix(), t1.row_cols), (t1.col_matrix(), t1.col_rows)):
        assert np.shares_memory(a.indptr, csr.ptr)
        assert np.shares_memory(a.indices, csr.ind)
    assert np.shares_memory(t1.matrix().data, t1.col_matrix().data)


def test_sparsetools_kernels_in_place():
    """The private scipy kernels the flip and the gather call, on 3 entries,
    so a scipy release that moves or changes them fails here."""
    from scipy.sparse import _sparsetools

    ptr = np.array([0, 1, 3], dtype=np.int32)
    ind = np.array([2, 0, 1], dtype=np.int32)
    y = np.array([1.0, 2.0, 3.0])
    _sparsetools.csc_matvec(3, 1, ptr[1:3], ind, np.ones(3), np.array([-0.5]), y)
    assert y.tolist() == [0.5, 1.5, 3.0]
    out = np.empty(3, dtype=np.int32)
    _sparsetools.csr_row_index(2, np.array([1, 0], dtype=np.int32), ptr, ind, ind, out, out)
    assert out.tolist() == [0, 1, 2]


def csr_views(csr):
    """The per-list view loop that csr[p], len(csr) and iteration replaced."""
    ind, bounds = csr.ind, csr.ptr.tolist()
    return [ind[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def assert_serves_views(csr):
    views = csr_views(csr)
    count = len(views)
    assert len(csr) == count
    listed = list(csr)
    assert len(listed) == count
    for p, view in enumerate(views):
        # negative p counts from the end, as list indexing does
        for got in (csr[p], csr[p - count], csr[np.int32(p)], csr[np.int64(p - count)],
                    listed[p]):
            assert got.dtype == np.int32 and np.array_equal(got, view)
            assert not got.flags.writeable
            assert got.size == 0 or np.shares_memory(got, csr.ind)
    for p in (count, count + 3, -count - 1, -count - 5):
        with pytest.raises(IndexError):
            csr[p]
    with pytest.raises(TypeError):
        csr[1.0]


def test_csr_indexing_matches_views():
    rng = np.random.default_rng(11)
    empties = 0
    for _ in range(60):
        count, size = int(rng.integers(0, 12)), int(rng.integers(1, 9))
        pairs = int(rng.integers(0, 30)) if count else 0
        csr = model.Csr.group(rng.integers(0, max(count, 1), pairs),
                              rng.integers(0, size, pairs), count, size)
        assert_serves_views(csr)
        empties += int(np.sum(np.diff(csr.ptr) == 0))
    assert empties > 0


def test_csr_indexing_on_a_restricted_instance():
    from gubcover.reduction import apply_fixing

    rng = np.random.default_rng(12)
    for _ in range(20):
        inst = random_instance(rng, m=10, n=int(rng.choice([12, 24, 36])))
        core = rng.random(inst.n) < 0.6
        core[inst.block_cols[int(rng.integers(inst.k))]] = False
        sub, _ = apply_fixing(inst, []).restrict(core)
        assert any(len(members) == 0 for members in sub.block_cols)
        for csr in (sub.col_rows, sub.row_cols, sub.block_cols):
            assert isinstance(csr, model.Csr)
            assert_serves_views(csr)


def test_feasibility_checks(t1):
    assert model.is_feasible(t1, model.as_bool(4, [1, 2]))
    assert not model.is_feasible(t1, np.zeros(4, dtype=bool))
    # block {0,1} has cap 1
    assert not model.gub_feasible(t1, model.as_bool(4, [0, 1, 2]))
    assert not model.is_feasible(t1, model.as_bool(4, [0, 1, 2]))


def test_support_round_trip(t1):
    x = model.as_bool(4, [1, 3])
    assert model.solution_key(x) == model.solution_key(model.as_bool(4, [3, 1]))
    assert model.solution_key(x) != model.solution_key(model.as_bool(4, [1, 2]))


def test_validate_clean(t1):
    assert model.validate(t1) == []


def test_validate_cap_exceeds_block():
    inst = Instance.from_columns(
        cost=[4, 3, 5, 1],
        col_rows=[[0, 1], [1, 2], [0, 2], [2]],
        demand=[1, 1, 2],
        blocks=[(3, [0, 1]), (2, [2, 3])],
    )
    codes = [v.code for v in model.validate(inst)]
    assert "cap_exceeds_block_size" in codes


def test_validate_reports_cost_sum_beyond_int64():
    # each cost fits in int64, their sum does not
    inst = Instance.from_columns(cost=[2**63 - 1, 5], col_rows=[[0], [0]], demand=[1],
                                 blocks=[(1, [0, 1])])
    assert inst.cost_sum == 2**63 + 4
    assert inst.wbar == float(2**63 + 5)
    assert [v.code for v in model.validate(inst)] == ["cost_sum_overflow"]


def test_validate_passes_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(20):
        assert model.validate(random_instance(rng)) == []


def test_matrix_matches_col_rows():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, m=12, n=30)
    a = inst.matrix().toarray()
    for j in range(inst.n):
        assert list(np.flatnonzero(a[:, j])) == list(inst.col_rows[j])


def test_col_matrix_is_the_transpose_sharing_data():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, m=12, n=30)
    a, at = inst.matrix(), inst.col_matrix()
    assert a.dtype == at.dtype == np.float64
    assert at.shape == (inst.n, inst.m)
    assert np.shares_memory(a.data, at.data)
    assert np.shares_memory(at.indices, inst.col_rows.ind)
    assert not a.data.flags.writeable
    assert (at != a.T).nnz == 0
    assert np.array_equal(at.toarray(), a.toarray().T)
    assert inst.matrix() is a and inst.col_matrix() is at


# -- validate against the loop it replaced ------------------------------------


def validate_reference(inst):
    """The per-column, per-block loop that model.validate replaced.

    Kept as the reference the vectorized checks must reproduce exactly:
    same codes, same messages, same order.  Its checks on the lists
    themselves (counts, ranges, order, repeats, transpose) cannot fire on
    an instance the constructor built; they stay as a check on it.
    """
    out = []
    if len(inst.col_rows) != inst.n:
        out.append(model.Violation("column_count_mismatch", f"{len(inst.col_rows)} column lists for n={inst.n}"))
    if len(inst.row_cols) != inst.m:
        out.append(model.Violation("row_count_mismatch", f"{len(inst.row_cols)} row lists for m={inst.m}"))
    if np.any(inst.cost <= 0):
        bad = np.flatnonzero(inst.cost <= 0)[0]
        out.append(model.Violation("cost_not_positive", f"column {bad} has cost {inst.cost[bad]}"))
    if np.any(inst.demand < 0):
        bad = np.flatnonzero(inst.demand < 0)[0]
        out.append(model.Violation("demand_negative", f"row {bad} has demand {inst.demand[bad]}"))

    for j, rset in enumerate(inst.col_rows):
        if len(rset) == 0:
            out.append(model.Violation("empty_column", f"column {j} covers no rows"))
        if len(rset) and (rset.min() < 0 or rset.max() >= inst.m):
            out.append(model.Violation("row_index_range", f"column {j} references row {int(rset.max())}"))
            continue
        if np.any(np.diff(rset) < 0):
            out.append(model.Violation("unsorted_indices", f"column {j} row list is not sorted"))
        elif np.any(np.diff(rset) == 0):
            out.append(model.Violation("duplicate_entry", f"column {j} lists a row twice"))

    derived = [[] for _ in range(inst.m)]
    for j, rset in enumerate(inst.col_rows):
        for i in rset:
            if 0 <= i < inst.m:
                derived[int(i)].append(j)
    for i in range(min(inst.m, len(inst.row_cols))):
        if not np.array_equal(np.asarray(derived[i], dtype=np.int32), inst.row_cols[i]):
            out.append(model.Violation("transpose_mismatch", f"row {i} column list disagrees with column data"))
            break

    for h, members in enumerate(inst.block_cols):
        if len(members) and (members.min() < 0 or members.max() >= inst.n):
            out.append(model.Violation("column_index_range", f"block {h} references column {int(members.max())}"))
            continue
        if inst.cap[h] < 1:
            out.append(model.Violation("cap_not_positive", f"block {h} has cap {inst.cap[h]}"))
        if inst.cap[h] > len(members):
            out.append(model.Violation("cap_exceeds_block_size", f"block {h} cap {inst.cap[h]} > size {len(members)}"))
    return out


def _pick(rng, seq):
    return int(rng.integers(len(seq)))


def _fault_cost(p, rng):
    p["cost"][_pick(rng, p["cost"])] = int(rng.choice([0, -4]))


def _fault_demand(p, rng):
    p["demand"][_pick(rng, p["demand"])] = int(rng.choice([-1, -9]))


def _fault_empty_column(p, rng):
    p["col_rows"][_pick(rng, p["col_rows"])] = []


def _fault_unsorted(p, rng):
    rows = p["col_rows"][_pick(rng, p["col_rows"])]
    rows.append(0 if rows and rows[-1] else 1)


def _fault_duplicate(p, rng):
    rows = p["col_rows"][_pick(rng, p["col_rows"])]
    if rows:
        at = _pick(rng, rows)
        rows.insert(at, rows[at])


def _fault_cap_low(p, rng):
    p["blocks"][_pick(rng, p["blocks"])][0] = int(rng.choice([0, -3]))


def _fault_cap_high(p, rng):
    block = p["blocks"][_pick(rng, p["blocks"])]
    block[0] = len(block[1]) + int(rng.integers(1, 3))


def _fault_second_block(p, rng):
    # list a column in one more block: another existing one, or a new one
    j = _pick(rng, p["cost"])
    others = [b for b in p["blocks"] if j not in b[1]]
    if others and rng.random() < 0.5:
        others[_pick(rng, others)][1].append(j)
    else:
        p["blocks"].append([1, [j]])


def _fault_block_repeat(p, rng):
    members = p["blocks"][_pick(rng, p["blocks"])][1]
    members.insert(0, members[-1])


def _fault_row_range(p, rng):
    m = len(p["demand"])
    p["col_rows"][_pick(rng, p["col_rows"])].insert(0, int(rng.choice([-1, m, m + 5])))


def _fault_column_range(p, rng):
    n = len(p["cost"])
    p["blocks"][_pick(rng, p["blocks"])][1].append(int(rng.choice([-2, n, n + 3])))


def _fault_column_count(p, rng):
    if rng.random() < 0.5:
        p["col_rows"].pop()
    else:
        p["col_rows"].append([int(rng.integers(len(p["demand"])))])


# faults the constructor sorts or deduplicates away: no invariant breaks
HARMLESS = {"unsorted_indices", "duplicate_entry", "unsorted_block", "repeated_block_member"}

FAULTS = {
    "cost_not_positive": _fault_cost,
    "demand_negative": _fault_demand,
    "empty_column": _fault_empty_column,
    "unsorted_indices": _fault_unsorted,
    "duplicate_entry": _fault_duplicate,
    "cap_not_positive": _fault_cap_low,
    "cap_exceeds_block_size": _fault_cap_high,
    "unsorted_block": lambda p, rng: p["blocks"][_pick(rng, p["blocks"])][1].reverse(),
    "repeated_block_member": _fault_block_repeat,
}

# faults the constructor rejects, so validate has no partition code left
PARTITION_FAULTS = {
    "block_of_mismatch": _fault_second_block,
    "blocks_not_partition": _fault_second_block,
}

ONE_FAULT = sorted({**FAULTS, **PARTITION_FAULTS})

# faults in the lists themselves, which no instance can hold
RAW_FAULTS = {
    "row_index_range": _fault_row_range,
    "column_index_range": _fault_column_range,
    "column_count_mismatch": _fault_column_count,
}


def _parts(inst):
    """from_columns arguments that rebuild inst, as mutable lists."""
    return {
        "cost": [int(c) for c in inst.cost],
        "col_rows": [[int(i) for i in r] for r in inst.col_rows],
        "demand": [int(b) for b in inst.demand],
        "blocks": [[int(c), [int(j) for j in b]] for c, b in zip(inst.cap, inst.block_cols)],
    }


@pytest.mark.parametrize("fault", ONE_FAULT)
def test_validate_matches_reference_one_fault(fault):
    rng = np.random.default_rng(ONE_FAULT.index(fault))
    if fault in PARTITION_FAULTS:
        for _ in range(40):
            parts = _parts(random_instance(rng))
            PARTITION_FAULTS[fault](parts, rng)
            with pytest.raises(ValueError, match="belongs to 2 blocks"):
                Instance.from_columns(**parts)
        return
    raised = 0
    for _ in range(40):
        parts = _parts(random_instance(rng))
        FAULTS[fault](parts, rng)
        inst = Instance.from_columns(**parts)
        got = model.validate(inst)
        assert got == validate_reference(inst)
        raised += fault in {v.code for v in got}
    if fault in HARMLESS:
        assert raised == 0
    else:
        assert raised >= 30  # the injection really produces its own code


def test_validate_matches_reference_many_faults():
    rng = np.random.default_rng(11)
    names = sorted(FAULTS)
    for _ in range(300):
        parts = _parts(random_instance(rng))
        for name in rng.choice(names, size=int(rng.integers(2, 7))):
            FAULTS[name](parts, rng)
        inst = Instance.from_columns(**parts)
        assert model.validate(inst) == validate_reference(inst)


@pytest.mark.parametrize("fault", sorted(RAW_FAULTS))
def test_from_columns_rejects_raw_fault(fault):
    rng = np.random.default_rng(sorted(RAW_FAULTS).index(fault))
    for _ in range(40):
        parts = _parts(random_instance(rng))
        RAW_FAULTS[fault](parts, rng)
        with pytest.raises(ValueError, match="out of range|column lists for"):
            Instance.from_columns(**parts)
