import numpy as np
import pytest

from gubcover import model
from gubcover.model import Instance

from conftest import random_instance


def pack(lists) -> model.Csr:
    """The given index lists packed as they are, in order."""
    arrays = [np.asarray(a, dtype=np.int32) for a in lists]
    ptr = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([a.size for a in arrays], out=ptr[1:])
    ind = np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int32)
    return model.Csr(ptr, ind)


def raw_instance(cost, demand, col_rows, row_cols, cap, block_cols, block_of):
    """An Instance over the given lists as they are, however broken."""
    return Instance(cost, demand, pack(col_rows), pack(row_cols), cap, pack(block_cols),
                    block_of)


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


def test_instance_arrays_are_frozen(t1):
    with pytest.raises(ValueError):
        t1.cost[0] = 99
    with pytest.raises(ValueError):
        t1.demand[0] = 99


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


def test_validate_transpose_mismatch(t1):
    broken = raw_instance(
        cost=t1.cost,
        demand=t1.demand,
        col_rows=t1.col_rows,
        row_cols=[t1.row_cols[0], np.array([0], dtype=np.int32), t1.row_cols[2]],
        cap=t1.cap,
        block_cols=t1.block_cols,
        block_of=t1.block_of,
    )
    codes = [v.code for v in model.validate(broken)]
    assert "transpose_mismatch" in codes


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


# -- validate against the loop it replaced ------------------------------------


def validate_reference(inst):
    """The per-column, per-block loop that model.validate replaced.

    Kept as the reference the vectorized checks must reproduce exactly:
    same codes, same messages, same order.
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

    seen = np.zeros(inst.n, dtype=np.int64)
    for h, members in enumerate(inst.block_cols):
        if len(members) and (members.min() < 0 or members.max() >= inst.n):
            out.append(model.Violation("column_index_range", f"block {h} references column {int(members.max())}"))
            continue
        seen[members] += 1
        if inst.cap[h] < 1:
            out.append(model.Violation("cap_not_positive", f"block {h} has cap {inst.cap[h]}"))
        if inst.cap[h] > len(members):
            out.append(model.Violation("cap_exceeds_block_size", f"block {h} cap {inst.cap[h]} > size {len(members)}"))
        if np.any(inst.block_of[members] != h):
            out.append(model.Violation("block_of_mismatch", f"block {h} members disagree with block_of"))
    if np.any(seen != 1):
        bad = np.flatnonzero(seen != 1)[0]
        out.append(model.Violation("blocks_not_partition", f"column {bad} appears in {seen[bad]} blocks"))
    return out


def _pick(rng, seq):
    return int(rng.integers(len(seq)))


def _fault_cost(p, rng):
    p["cost"][_pick(rng, p["cost"])] = int(rng.choice([0, -4]))


def _fault_demand(p, rng):
    p["demand"][_pick(rng, p["demand"])] = int(rng.choice([-1, -9]))


def _fault_empty_column(p, rng):
    p["col_rows"][_pick(rng, p["col_rows"])] = []


def _fault_row_range(p, rng):
    m = len(p["demand"])
    p["col_rows"][_pick(rng, p["col_rows"])].insert(0, int(rng.choice([-1, m, m + 5])))


def _fault_unsorted(p, rng):
    rows = p["col_rows"][_pick(rng, p["col_rows"])]
    rows.append(0 if rows[-1] else 1)


def _fault_duplicate(p, rng):
    rows = p["col_rows"][_pick(rng, p["col_rows"])]
    at = _pick(rng, rows)
    rows.insert(at, rows[at])


def _fault_transpose(p, rng):
    cols = p["row_cols"][_pick(rng, p["row_cols"])]
    if cols and rng.random() < 0.5:
        cols.pop(_pick(rng, cols))
    else:
        cols.append(int(rng.integers(len(p["cost"]))))


def _fault_column_count(p, rng):
    if rng.random() < 0.5:
        p["col_rows"].pop()
    else:
        p["col_rows"].append([int(rng.integers(len(p["demand"])))])


def _fault_row_count(p, rng):
    if rng.random() < 0.5:
        p["row_cols"].pop()
    else:
        p["row_cols"].append([])


def _fault_column_range(p, rng):
    n = len(p["cost"])
    p["block_cols"][_pick(rng, p["block_cols"])].append(int(rng.choice([-2, n, n + 3])))


def _fault_cap_low(p, rng):
    p["cap"][_pick(rng, p["cap"])] = int(rng.choice([0, -3]))


def _fault_cap_high(p, rng):
    h = _pick(rng, p["cap"])
    p["cap"][h] = len(p["block_cols"][h]) + int(rng.integers(1, 3))


def _fault_block_of(p, rng):
    p["block_of"][_pick(rng, p["block_of"])] = int(rng.choice([-1, len(p["cap"])]))


def _fault_partition(p, rng):
    members = p["block_cols"][_pick(rng, p["block_cols"])]
    if rng.random() < 0.5:
        members.pop(_pick(rng, members))
    else:
        members.append(int(rng.integers(len(p["cost"]))))


def _fault_block_repeat(p, rng):
    # a member listed twice in its own block: counted once for the partition
    members = p["block_cols"][_pick(rng, p["block_cols"])]
    members.insert(0, members[-1])


# faults that break no invariant on their own
HARMLESS = {"unsorted_block", "repeated_block_member"}

FAULTS = {
    "cost_not_positive": _fault_cost,
    "demand_negative": _fault_demand,
    "empty_column": _fault_empty_column,
    "row_index_range": _fault_row_range,
    "unsorted_indices": _fault_unsorted,
    "duplicate_entry": _fault_duplicate,
    "transpose_mismatch": _fault_transpose,
    "column_count_mismatch": _fault_column_count,
    "row_count_mismatch": _fault_row_count,
    "column_index_range": _fault_column_range,
    "cap_not_positive": _fault_cap_low,
    "cap_exceeds_block_size": _fault_cap_high,
    "block_of_mismatch": _fault_block_of,
    "blocks_not_partition": _fault_partition,
    "unsorted_block": lambda p, rng: p["block_cols"][_pick(rng, p["block_cols"])].reverse(),
    "repeated_block_member": _fault_block_repeat,
}


def _raw_parts(inst):
    return {
        "cost": [int(c) for c in inst.cost],
        "demand": [int(b) for b in inst.demand],
        "col_rows": [[int(i) for i in r] for r in inst.col_rows],
        "row_cols": [[int(j) for j in c] for c in inst.row_cols],
        "cap": [int(c) for c in inst.cap],
        "block_cols": [[int(j) for j in b] for b in inst.block_cols],
        "block_of": [int(h) for h in inst.block_of],
    }


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_validate_matches_reference_one_fault(fault):
    rng = np.random.default_rng(sorted(FAULTS).index(fault))
    raised = 0
    for _ in range(40):
        parts = _raw_parts(random_instance(rng))
        FAULTS[fault](parts, rng)
        inst = raw_instance(**parts)
        got = model.validate(inst)
        assert got == validate_reference(inst)
        raised += fault in {v.code for v in got}
    if fault not in HARMLESS:
        assert raised >= 30  # the injection really produces its own code


def test_validate_matches_reference_many_faults():
    rng = np.random.default_rng(11)
    names = sorted(FAULTS)
    for _ in range(300):
        parts = _raw_parts(random_instance(rng))
        for name in rng.choice(names, size=int(rng.integers(2, 7))):
            FAULTS[name](parts, rng)
        inst = raw_instance(**parts)
        assert model.validate(inst) == validate_reference(inst)


def test_validate_reports_block_count_mismatch(t1):
    # the loop reference indexes cap by block and cannot take extra blocks
    broken = raw_instance(t1.cost, t1.demand, t1.col_rows, t1.row_cols, t1.cap,
                          list(t1.block_cols) + [np.array([0], dtype=np.int32)], t1.block_of)
    codes = [v.code for v in model.validate(broken)]
    assert codes[0] == "block_count_mismatch"
    assert "blocks_not_partition" in codes
