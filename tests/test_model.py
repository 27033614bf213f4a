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
    broken = Instance(
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
