"""The enumeration oracles themselves, pinned on hand-checkable cases.

Everything else in the suite trusts these, so they get their own frozen
values plus cross-checks between the two independent arithmetic paths
(oracle.penalized_value vs model.penalized_objective).
"""

import numpy as np
import pytest

from gubcover import model
from gubcover.model import Instance, as_bool

import oracle
from conftest import random_gub_feasible, random_instance, random_weights


def test_brute_force_optimum_t1(t1):
    x, z = oracle.brute_force_optimum(t1)
    assert z == 8
    assert list(np.flatnonzero(x)) == [1, 2]


def test_brute_force_optimum_raised_demand(t1):
    # raising row 2's demand to 3 forces all three of its covering columns
    harder = Instance.from_columns(
        [4, 3, 5, 1], [[0, 1], [1, 2], [0, 2], [2]], [1, 1, 3],
        [(1, [0, 1]), (2, [2, 3])])
    x, z = oracle.brute_force_optimum(harder)
    assert z == 9
    assert list(np.flatnonzero(x)) == [1, 2, 3]


def test_brute_force_optimum_infeasible_cap():
    # both covering columns of the single row sit in a cap-1 block
    inst = Instance.from_columns(
        [2, 3], [[0], [0]], [2], [(1, [0, 1])])
    assert oracle.brute_force_optimum(inst) == (None, None)


def test_brute_force_optimum_single_column():
    inst = Instance.from_columns([7], [[0, 1, 2]], [1, 1, 1], [(1, [0])])
    x, z = oracle.brute_force_optimum(inst)
    assert z == 7 and x[0]


def test_enumeration_cap():
    rng = np.random.default_rng(0)
    inst = random_instance(rng, m=5, n=30)
    with pytest.raises(ValueError):
        oracle.brute_force_optimum(inst)


def test_brute_force_lr_t1(t1):
    x, z = oracle.brute_force_lr(t1, np.array([2.0, 2.0, 2.0]))
    assert z == 6.0
    assert list(np.flatnonzero(x)) == [1, 3]
    x, z = oracle.brute_force_lr(t1, np.ones(3))
    assert z == 4.0 and not x.any()
    x, z = oracle.brute_force_lr(t1, np.zeros(3))
    assert z == 0.0 and not x.any()


def test_penalized_value_cross_check():
    rng = np.random.default_rng(11)
    for _ in range(50):
        inst = random_instance(rng)
        x = random_gub_feasible(rng, inst)
        w = random_weights(rng, inst, integer=bool(rng.integers(2)))
        assert oracle.penalized_value(inst, x, w) == pytest.approx(
            model.penalized_objective(inst, x, w), rel=1e-12)


def test_delta_tables_match_single_flips():
    rng = np.random.default_rng(5)
    for _ in range(20):
        inst = random_instance(rng, m=8, n=16)
        x = random_gub_feasible(rng, inst)
        w = random_weights(rng, inst)
        up, down = oracle.delta_tables(inst, x, w)
        base = oracle.penalized_value(inst, x, w)
        for j in range(inst.n):
            y = x.copy()
            y[j] = not y[j]
            moved = oracle.penalized_value(inst, y, w)
            if x[j]:
                assert moved - base == pytest.approx(-inst.cost[j] + down[j])
            else:
                assert moved - base == pytest.approx(inst.cost[j] - up[j])


def test_two_flip_delta_matches_recompute():
    rng = np.random.default_rng(6)
    for _ in range(20):
        inst = random_instance(rng, m=8, n=16)
        x = random_gub_feasible(rng, inst)
        w = random_weights(rng, inst)
        base = oracle.penalized_value(inst, x, w)
        sel = np.flatnonzero(x)
        unsel = np.flatnonzero(~x)
        if sel.size == 0 or unsel.size == 0:
            continue
        for _ in range(10):
            j1 = int(sel[rng.integers(sel.size)])
            j2 = int(unsel[rng.integers(unsel.size)])
            y = x.copy()
            y[j1], y[j2] = False, True
            expect = oracle.penalized_value(inst, y, w) - base
            assert oracle.two_flip_delta(inst, x, w, j1, j2) == pytest.approx(expect)


def test_exhaustive_scan_t1(t1):
    w = model.initial_weights(t1)
    assert oracle.exhaustive_2flip_scan(t1, as_bool(4, [1, 2]), w) is None
    delta, j1, j2 = oracle.exhaustive_2flip_scan(t1, as_bool(4, [0, 2, 3]), w)
    assert (delta, j1, j2) == (-1.0, 0, 1)


def test_exhaustive_scan_skips_cap_violations(t1):
    w = model.initial_weights(t1)
    # from {2}: the scan may propose adding two columns, but never 0 and 1
    # together (their block caps at 1)
    found = oracle.exhaustive_2flip_scan(t1, as_bool(4, [2]), w)
    assert found is not None
    delta, j1, j2 = found
    assert {j1, j2} != {0, 1}
    assert delta < 0
