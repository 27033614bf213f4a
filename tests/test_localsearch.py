"""SearchState cache exactness and the two-flip local search."""

import itertools
import time

import numpy as np
import pytest

from gubcover import localsearch as ls
from gubcover import model
from gubcover.model import as_bool

import oracle
from conftest import (int64_matrix, nb1_state, random_gub_feasible, random_instance,
                      random_weights, solver_pair_move)


def wbar_state(inst, selected=()):
    w = model.initial_weights(inst)
    return ls.SearchState(inst, w, x0=as_bool(inst.n, list(selected)))


def test_state_build_t1(t1):
    state = wbar_state(t1, [1, 2])
    assert list(state.s) == [1, 1, 2]
    assert list(state.blk) == [1, 1]
    assert state.cost == 8
    assert state.viol == 0
    assert state.zhat == 8
    assert state.zbar() == 8


def test_state_rejects_cap_violation(t1):
    with pytest.raises(ValueError):
        wbar_state(t1, [0, 1])


def test_single_flip_deltas_frozen(t1):
    state = wbar_state(t1, [1, 2])
    # dropping column 1 opens rows 1 and 2, both at weight 14
    assert state.delta_down(1) == 25
    assert state.delta_up(3) == 1


def test_redundant_column_drop_is_negative_cost(t1):
    state = wbar_state(t1, [1, 2, 3])
    # column 3 covers only row 2, already covered beyond demand
    assert state.delta_down(3) == -1


def test_two_flip_delta_frozen(t1):
    state = wbar_state(t1, [0, 2, 3])
    assert state.two_flip_delta(0, 1) == -1
    w = model.initial_weights(t1)
    before = model.penalized_objective(t1, as_bool(4, [0, 2, 3]), w)
    after = model.penalized_objective(t1, as_bool(4, [1, 2, 3]), w)
    assert after - before == -1


def test_two_flip_disjoint_supports_add_up():
    rng = np.random.default_rng(31)
    found = 0
    while found < 10:
        inst = random_instance(rng, m=10, n=24)
        state = ls.SearchState(inst, random_weights(rng, inst),
                               x0=random_gub_feasible(rng, inst))
        sel = np.flatnonzero(state.x)
        unsel = np.flatnonzero(~state.x)
        for j1 in sel:
            for j2 in unsel:
                if set(inst.col_rows[j1]) & set(inst.col_rows[j2]):
                    continue
                if state.blk[inst.block_of[j2]] >= state.d[inst.block_of[j2]] \
                        and inst.block_of[j1] != inst.block_of[j2]:
                    continue
                expect = state.delta_down(j1) + state.delta_up(j2)
                assert state.two_flip_delta(j1, j2) == pytest.approx(expect)
                found += 1


def test_two_flip_matches_oracle():
    rng = np.random.default_rng(32)
    for _ in range(30):
        inst = random_instance(rng, m=10, n=20)
        w = random_weights(rng, inst, integer=bool(rng.integers(2)))
        x = random_gub_feasible(rng, inst)
        state = ls.SearchState(inst, w, x0=x)
        sel = np.flatnonzero(x)
        unsel = np.flatnonzero(~x)
        if sel.size == 0 or unsel.size == 0:
            continue
        for _ in range(15):
            j1 = int(sel[rng.integers(sel.size)])
            j2 = int(unsel[rng.integers(unsel.size)])
            h1, h2 = inst.block_of[j1], inst.block_of[j2]
            if h1 != h2 and state.blk[h2] >= state.d[h2]:
                continue
            assert state.two_flip_delta(j1, j2) == pytest.approx(
                oracle.two_flip_delta(inst, x, w, j1, j2))


def test_flip_involution_bit_exact():
    rng = np.random.default_rng(33)
    for _ in range(20):
        inst = random_instance(rng)
        state = ls.SearchState(inst, random_weights(rng, inst),
                               x0=random_gub_feasible(rng, inst))
        snapshot = (state.s.copy(), state.dp_up.copy(), state.dp_down.copy(),
                    state.blk.copy(), state.cost, state.viol, state.zhat)
        for _ in range(30):
            j = int(rng.integers(inst.n))
            if not state.x[j]:
                h = inst.block_of[j]
                if state.blk[h] >= state.d[h]:
                    continue
            state.flip(j)
            state.flip(j)
            assert np.array_equal(state.s, snapshot[0])
            assert np.array_equal(state.dp_up, snapshot[1])
            assert np.array_equal(state.dp_down, snapshot[2])
            assert np.array_equal(state.blk, snapshot[3])
            assert (state.cost, state.viol, state.zhat) == snapshot[4:]


def test_caches_match_recompute_after_flip_walk():
    rng = np.random.default_rng(34)
    inst = random_instance(rng, m=50, n=120, density=0.08)
    w = random_weights(rng, inst)
    state = ls.SearchState(inst, w)
    x = np.zeros(inst.n, dtype=bool)
    for step in range(1000):
        j = int(rng.integers(inst.n))
        if not x[j]:
            h = inst.block_of[j]
            if state.blk[h] >= state.d[h]:
                continue
        state.flip(j)
        x[j] = not x[j]
        if step % 50 == 0:
            up, down = oracle.delta_tables(inst, x, w)
            assert np.array_equal(state.dp_up, up)
            assert np.array_equal(state.dp_down, down)
            assert state.zhat == oracle.penalized_value(inst, x, w)


def test_dp_tables_bit_identical_to_int64_product():
    rng = np.random.default_rng(39)
    for _ in range(30):
        inst = random_instance(rng, m=int(rng.integers(3, 40)), n=int(rng.integers(6, 120)))
        w = random_weights(rng, inst, integer=False)
        state = ls.SearchState(inst, w, x0=random_gub_feasible(rng, inst))
        a = int64_matrix(inst)
        for _ in range(2):
            assert np.array_equal(state.dp_up, (state.w * (state.s < state.b)) @ a)
            assert np.array_equal(state.dp_down, (state.w * (state.s <= state.b)) @ a)
            state.set_weights(w * rng.uniform(0.1, 3.0, size=inst.m))


def test_trial_flip_restores_bit_exactly():
    rng = np.random.default_rng(35)
    for _ in range(20):
        inst = random_instance(rng)
        w = random_weights(rng, inst, integer=False)
        x = random_gub_feasible(rng, inst)
        if not x.any():
            continue
        state = ls.SearchState(inst, w, x0=x)
        before = (state.x.copy(), state.s.copy(), state.dp_up.copy(),
                  state.dp_down.copy(), state.blk.copy(), state.cost,
                  state.viol, state.zhat)
        sel = np.flatnonzero(x)
        j = int(sel[rng.integers(sel.size)])
        opened, undo = state.trial_flip_down(j)
        assert not state.x[j]
        assert all(state.s[i] < state.b[i] for i in opened)
        state.undo_trial(undo)
        after = (state.x, state.s, state.dp_up, state.dp_down, state.blk,
                 state.cost, state.viol, state.zhat)
        for a, b in zip(before, after):
            assert np.array_equal(a, b)


def test_two_fnls_t1_reaches_optimum(t1):
    state = wbar_state(t1)
    ls.two_fnls(state)
    assert list(np.flatnonzero(state.x)) == [1, 2]
    assert state.zhat == 8


def test_two_fnls_fixed_point_at_optimum(t1):
    state = wbar_state(t1, [1, 2])
    ls.two_fnls(state)
    assert list(np.flatnonzero(state.x)) == [1, 2]


def test_two_fnls_leaves_no_improving_pair():
    rng = np.random.default_rng(36)
    for _ in range(100):
        inst = random_instance(rng)
        w = random_weights(rng, inst)
        state = ls.SearchState(inst, w, x0=random_gub_feasible(rng, inst))
        ls.two_fnls(state)
        assert oracle.exhaustive_2flip_scan(inst, state.x, w) is None


def test_find_improving_two_flip_agrees_with_exhaustive():
    rng = np.random.default_rng(37)
    for _ in range(60):
        inst = random_instance(rng)
        state = nb1_state(rng, inst, w=random_weights(rng, inst))
        pruned = solver_pair_move(state)
        full = oracle.exhaustive_2flip_scan(inst, state.x, state.w)
        assert (pruned is None) == (full is None)
        if pruned is not None:
            delta, j1, j2 = pruned
            assert delta == pytest.approx(
                oracle.two_flip_delta(inst, state.x, state.w, j1, j2))
            assert delta < 0


def test_deadline_stops_between_phases():
    rng = np.random.default_rng(38)
    inst = random_instance(rng, m=20, n=40)
    w = random_weights(rng, inst)
    state = ls.SearchState(inst, w)
    t0 = time.monotonic()
    ls.two_fnls(state, deadline=time.monotonic() - 1.0)
    assert time.monotonic() - t0 < 1.0
    # single-flip phases still ran to completion
    assert not np.any(state.add_gains() < -ls.gain_tol(state))


def test_move_cap_bounds_accepted_moves(t1):
    state = wbar_state(t1)
    ls.two_fnls(state, move_cap=1)
    assert state.x.sum() <= 1


def test_saturated_swap_yields_after_one_swap():
    rng = np.random.default_rng(40)
    for _ in range(400):
        inst = random_instance(rng)
        state = nb1_state(rng, inst, w=random_weights(rng, inst))
        x0 = state.x.copy()
        list(itertools.islice(ls._step_swap_saturated(state), 1))
        assert np.count_nonzero(state.x != x0) <= 2


def test_two_fnls_returns_a_copy_of_its_best(t1):
    state = wbar_state(t1)
    value, x = ls.two_fnls(state)
    assert value == 8
    assert list(np.flatnonzero(x)) == [1, 2]
    assert x is not state.x
    # forcing the state elsewhere must not disturb the returned copy
    state.flip(2)
    assert list(np.flatnonzero(x)) == [1, 2]


def test_greedy_construct_properties():
    rng = np.random.default_rng(39)
    for _ in range(30):
        inst = random_instance(rng)
        w = model.initial_weights(inst)
        state = ls.greedy_construct(ls.SearchState(inst, w), rng,
                                    uniform=bool(rng.integers(2)))
        assert np.all(state.blk <= state.d)
        sel = np.flatnonzero(state.x)
        for j in sel:
            assert state.delta_down(j) >= 0


def test_greedy_construct_deterministic_per_seed(t1):
    w = model.initial_weights(t1)
    a = ls.greedy_construct(ls.SearchState(t1, w), np.random.default_rng(7))
    b = ls.greedy_construct(ls.SearchState(t1, w), np.random.default_rng(7))
    assert np.array_equal(a.x, b.x)


def test_greedy_single_column_instance():
    inst = model.Instance.from_columns([7], [[0, 1, 2]], [1, 1, 1], [(1, [0])])
    state = ls.greedy_construct(ls.SearchState(inst, model.initial_weights(inst)),
                                np.random.default_rng(0))
    assert state.x[0]


def test_greedy_builds_leave_the_empty_state_untouched():
    rng = np.random.default_rng(41)
    for _ in range(10):
        inst = random_instance(rng)
        w = model.initial_weights(inst)
        empty = ls.SearchState(inst, w)
        built = [ls.greedy_construct(empty, rng, uniform=bool(rng.integers(2)))
                 for _ in range(20)]
        assert any(state.x.any() for state in built)
        assert not empty.x.any()
        fresh = ls.SearchState(inst, w)
        for name in ("w", "s", "blk", "dp_up", "dp_down"):
            assert np.array_equal(getattr(empty, name), getattr(fresh, name))
        assert (empty.cost, empty.viol, empty.zhat) == (fresh.cost, fresh.viol, fresh.zhat)


def full_scan_greedy(inst, w, rng, width, uniform):
    """Reference greedy: rescans every column on every add."""
    state = ls.SearchState(inst, w)
    while True:
        addable = ~state.x & (state.blk < state.d)[inst.block_of]
        deltas = np.where(addable, state.costf - state.dp_up, np.inf)
        cand = np.flatnonzero(deltas < 0)
        if cand.size == 0:
            break
        pool = cand if uniform else cand[ls.lowest_k(deltas[cand], width)]
        state.flip(int(pool[rng.integers(pool.size)]))
    for _ in ls._descend(state, state.drop_gains):
        pass
    return state


@pytest.mark.parametrize("shortlist", [2, 4, 8, ls.SHORTLIST])
def test_greedy_shortlist_matches_full_scan(monkeypatch, shortlist):
    # a small list forces rebuilds and the |live| == width boundary
    monkeypatch.setattr(ls, "SHORTLIST", shortlist)
    rng = np.random.default_rng(40 + shortlist)
    for _ in range(80):
        inst = random_instance(rng, n=int(rng.integers(12, 41)),
                               cost_hi=int(rng.integers(2, 21)))
        if rng.integers(2):
            w = model.initial_weights(inst)
        else:
            w = random_weights(rng, inst, integer=bool(rng.integers(2)))
        width = int(rng.integers(1, 9))
        uniform = rng.random() < 0.2
        seed = int(rng.integers(1 << 31))
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        monkeypatch.setattr(ls, "WIDTH", width)
        got = ls.greedy_construct(ls.SearchState(inst, w), got_rng, uniform=uniform)
        ref = full_scan_greedy(inst, w, ref_rng, width, uniform)
        assert np.array_equal(got.x, ref.x)
        assert got_rng.integers(1 << 62) == ref_rng.integers(1 << 62)


def test_lowest_k():
    vals = np.array([5.0, 1.0, 3.0, 1.0, 2.0])
    assert list(ls.lowest_k(vals, 2)) == [1, 3]
    assert list(ls.lowest_k(vals, 3)) == [1, 3, 4]
    assert list(ls.lowest_k(vals, 5)) == [0, 1, 2, 3, 4]
    assert list(ls.lowest_k(vals, 10)) == [0, 1, 2, 3, 4]
    # strict members first, then ties at the k-th value, each by index
    vals = np.array([2.0, 2.0, 0.0, 2.0, 1.0, 2.0])
    assert list(ls.lowest_k(vals, 3)) == [2, 4, 0]
    assert list(ls.lowest_k(vals, 4)) == [2, 4, 0, 1]
    assert list(ls.lowest_k(np.array([3.0, 1.0, 1.0]), 1)) == [1]
    assert list(ls.lowest_k(np.array([3.0, 1.0, 2.0]), 0)) == []
