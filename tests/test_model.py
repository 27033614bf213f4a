import numpy as np
import pytest

from gubcover import model
from gubcover.model import Instance

from conftest import random_instance


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
    "block_of_mismatch": _fault_second_block,
    "blocks_not_partition": _fault_second_block,
    "unsorted_block": lambda p, rng: p["blocks"][_pick(rng, p["blocks"])][1].reverse(),
    "repeated_block_member": _fault_block_repeat,
}

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


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_validate_matches_reference_one_fault(fault):
    rng = np.random.default_rng(sorted(FAULTS).index(fault))
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
