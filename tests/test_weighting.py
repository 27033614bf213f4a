"""Penalty weight adaptation and the weighted local search loop."""

import time

import numpy as np
import pytest

from gubcover import localsearch as ls
from gubcover import model, weighting
from gubcover.model import Instance, as_bool

from conftest import random_gub_feasible, random_instance


def test_decrease_factor_single_column():
    # one selected column, cost 3, covered weight 28: eta solves
    # -3 + (1 - eta) * 28 < 0
    inst = Instance.from_columns([3, 11], [[0, 1], [0]], [1, 1], [(2, [0, 1])])
    state = ls.SearchState(inst, np.full(2, 14.0), x0=as_bool(2, [0]))
    assert state.dp_down[0] == 28
    eta = weighting.decrease_factor(state)
    assert eta == pytest.approx(1 - 3 / 28, rel=1e-6)
    weighting.decrease_weights(state)
    assert state.delta_down(0) < 0


def test_decrease_noop_when_quota_already_met():
    # the selected column only covers over-covered rows, so its drop gain
    # is already negative and the 15% quota is met without scaling
    inst = Instance.from_columns([2, 1, 1], [[0], [0], [0]], [1],
                                 [(3, [0, 1, 2])])
    state = ls.SearchState(inst, np.full(1, 5.0), x0=as_bool(3, [0, 1, 2]))
    assert state.delta_down(0) == -2
    w_before = state.w.copy()
    assert weighting.decrease_factor(state) is None
    weighting.decrease_weights(state)
    assert np.array_equal(state.w, w_before)


def test_decrease_noop_on_empty_selection(t1):
    state = ls.SearchState(t1, model.initial_weights(t1))
    assert weighting.decrease_factor(state) is None


def test_decrease_quota_third_order_statistic():
    # 20 singleton columns, one per row, weight 100, costs 1..20: the
    # quota ceil(0.15 * 20) = 3 picks the 3rd largest cost-to-weight ratio
    costs = list(range(1, 21))
    cols = [[i] for i in range(20)]
    inst = Instance.from_columns(costs, cols, [1] * 20, [(20, list(range(20)))])
    state = ls.SearchState(inst, np.full(20, 100.0), x0=np.ones(20, dtype=bool))
    eta = weighting.decrease_factor(state)
    assert eta == pytest.approx(1 - 18 / 100, rel=1e-6)
    weighting.decrease_weights(state)
    negatives = sum(state.delta_down(j) < 0 for j in range(20))
    assert negatives == 3


def test_increase_weights_frozen():
    # shortfall (2, 0, 1) at x={1}: the most violated row gains the full
    # 1.2 factor, the other violated row gets 1.1
    inst = Instance.from_columns([4, 3, 5, 1], [[0, 1], [1, 2], [0, 2], [2]],
                                 [2, 1, 2], [(1, [0, 1]), (2, [2, 3])])
    state = ls.SearchState(inst, np.full(3, 10.0), x0=as_bool(4, [1]))
    assert weighting.increase_weights(state)
    assert list(state.w) == [12.0, 10.0, 11.0]


def test_increase_capped_at_initial_weight():
    inst = Instance.from_columns([4, 3, 5, 1], [[0, 1], [1, 2], [0, 2], [2]],
                                 [2, 1, 2], [(1, [0, 1]), (2, [2, 3])])
    state = ls.SearchState(inst, np.full(3, 14.0), x0=as_bool(4, [1]))
    weighting.increase_weights(state)
    assert np.all(state.w == 14.0)


def test_increase_scales_with_shortfall(t1):
    # empty solution violates rows (1, 1, 2); only the max row hits 1.2
    state = ls.SearchState(t1, np.full(3, 5.0))
    weighting.increase_weights(state)
    assert list(state.w) == [5.5, 5.5, 6.0]


def test_increase_uniform_violations_scale_evenly():
    inst = Instance.from_columns([4, 3, 5, 1], [[0, 1], [1, 2], [0, 2], [2]],
                                 [1, 1, 1], [(1, [0, 1]), (2, [2, 3])])
    state = ls.SearchState(inst, np.full(3, 5.0))
    weighting.increase_weights(state)
    assert list(state.w) == [6.0, 6.0, 6.0]


def test_increase_noop_when_feasible(t1):
    state = ls.SearchState(t1, np.full(3, 5.0), x0=as_bool(4, [1, 2]))
    assert not weighting.increase_weights(state)
    assert np.all(state.w == 5.0)


def test_wls_t1_finds_optimum(t1):
    res = weighting.wls(t1, np.zeros(t1.n, dtype=bool))
    assert list(np.flatnonzero(res.x_best)) == [1, 2]
    assert res.zbar_best == 8
    assert res.iterations >= 1


def test_wls_resets_weights_at_entry(t1, monkeypatch):
    search, seen = weighting.two_fnls, []

    def recording(state, **kwargs):
        seen.append(state.w.copy())
        return search(state, **kwargs)

    monkeypatch.setattr(weighting, "two_fnls", recording)
    weighting.wls(t1, np.zeros(t1.n, dtype=bool))
    # entry rule: the first round searches under the initial weights
    assert np.array_equal(seen[0], model.initial_weights(t1))


def test_wls_infeasible_demand_signals(t1):
    # row 2 has three covering columns; demanding four is impossible
    inst = Instance.from_columns([4, 3, 5, 1], [[0, 1], [1, 2], [0, 2], [2]],
                                 [1, 1, 4], [(1, [0, 1]), (2, [2, 3])])
    res = weighting.wls(inst, np.zeros(inst.n, dtype=bool), window=5)
    assert res.zbar_best > inst.cost.sum()


def test_wls_never_beaten_by_plain_search():
    rng = np.random.default_rng(41)
    for _ in range(15):
        inst = random_instance(rng)
        x0 = random_gub_feasible(rng, inst)
        w = model.initial_weights(inst)
        plain = ls.SearchState(inst, w, x0=x0)
        ls.two_fnls(plain)
        res = weighting.wls(inst, x0, window=10)
        assert res.zbar_best <= plain.zbar() + 1e-9


def test_wls_weights_stay_in_bounds():
    rng = np.random.default_rng(42)
    for _ in range(10):
        inst = random_instance(rng)
        res = weighting.wls(inst, np.zeros(inst.n, dtype=bool), window=8)
        wbar = inst.cost.sum() + 1
        assert np.all(res.w > 0)
        assert np.all(res.w <= wbar + 1e-9)


def test_wls_deadline_cuts_off():
    rng = np.random.default_rng(43)
    inst = random_instance(rng, m=20, n=40)
    t0 = time.monotonic()
    res = weighting.wls(inst, np.zeros(inst.n, dtype=bool), deadline=time.monotonic())
    assert time.monotonic() - t0 < 2.0
    assert res.iterations <= 2
    assert res.x_best is not None
