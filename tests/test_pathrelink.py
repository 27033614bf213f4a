"""Reference pools and the relinking walk."""

import numpy as np
import pytest

from gubcover import model, pathrelink
from gubcover.localsearch import SearchState
from gubcover.model import as_bool
from gubcover.pathrelink import ReferenceSet

from conftest import random_gub_feasible, random_instance
from search_reference import walk_reference


def keyed(*selected_lists, n=4):
    return [as_bool(n, sel) for sel in selected_lists]


@pytest.fixture
def pool_of_two(monkeypatch):
    monkeypatch.setattr(pathrelink, "POOL_SIZE", 2)
    return ReferenceSet()


def test_add_initial_dedupes_and_caps(pool_of_two):
    rs = pool_of_two
    a, b, c = keyed([0], [1], [2])
    assert rs.add_initial(a)
    assert not rs.add_initial(a)  # duplicate
    assert rs.add_initial(b)
    assert not rs.add_initial(c)  # full
    assert len(rs.members) == 2


def table(*pairs):
    """An evaluate for update and draw_pair: each solution's value, keyed by
    solution_key."""
    values = {model.solution_key(x): v for x, v in pairs}
    return lambda x: values[model.solution_key(x)]


def test_update_replaces_worst(pool_of_two):
    rs = pool_of_two
    a, b, c = keyed([0], [1], [2])
    rs.add_initial(a)
    rs.add_initial(b)
    # a scores 10, b scores 12; an 11 candidate displaces b
    assert rs.update(c, table((a, 10.0), (b, 12.0), (c, 11.0)))
    keys = {model.solution_key(m) for m in rs.members}
    assert keys == {model.solution_key(a), model.solution_key(c)}


def test_update_rejects_worse_and_duplicates(pool_of_two):
    rs = pool_of_two
    a, b, c = keyed([0], [1], [2])
    rs.add_initial(a)
    rs.add_initial(b)
    assert not rs.update(c, table((a, 10.0), (b, 12.0), (c, 13.0)))  # worse than the worst
    assert not rs.update(a, table((a, 1.0), (b, 12.0)))  # already a member
    assert len(rs.members) == 2


def test_update_ties_replace(pool_of_two):
    rs = pool_of_two
    a, b, c = keyed([0], [1], [2])
    rs.add_initial(a)
    rs.add_initial(b)
    assert rs.update(c, table((a, 10.0), (b, 12.0), (c, 12.0)))  # no worse than the worst


def test_draw_pair_orients_by_value():
    rs1, rs2 = ReferenceSet(), ReferenceSet()
    a, b = keyed([0], [1])
    rs1.add_initial(a)
    rs2.add_initial(b)
    init, guide, fallback = pathrelink.draw_pair(
        rs1, rs2, b"nope", table((a, 5.0), (b, 3.0)), np.random.default_rng(0))
    assert fallback is None
    assert model.solution_key(init) == model.solution_key(b)
    assert model.solution_key(guide) == model.solution_key(a)


def test_draw_pair_fallback_after_exclusion():
    rs1, rs2 = ReferenceSet(), ReferenceSet()
    a, b = keyed([0], [1])
    rs1.add_initial(a)
    rs2.add_initial(b)
    init, guide, fallback = pathrelink.draw_pair(
        rs1, rs2, model.solution_key(b), table((a, 5.0), (b, 3.0)),
        np.random.default_rng(0))
    assert init is None and guide is None
    assert model.solution_key(fallback) == model.solution_key(b)


def test_walk_identical_endpoints(t1):
    w = model.initial_weights(t1)
    x = as_bool(4, [1, 2])
    assert np.array_equal(pathrelink.walk(t1, w, x, x), x)


def test_walk_distance_one_picks_better(t1):
    w = model.initial_weights(t1)
    best = as_bool(4, [1, 2])
    redundant = as_bool(4, [1, 2, 3])
    # dropping column 3 improves: the walk moves to the guide
    assert np.array_equal(pathrelink.walk(t1, w, redundant, best), best)
    # the reverse walk would add a redundant column: stays at init
    assert np.array_equal(pathrelink.walk(t1, w, best, redundant), best)


def test_walk_t1_frozen(t1):
    # from {0,2,3} toward {1,2}: adding 1 is blocked by block {0,1}'s cap
    # while 0 is in, and both feasible first steps make things worse, so
    # the walk stops at its starting point
    w = model.initial_weights(t1)
    init = as_bool(4, [0, 2, 3])
    guide = as_bool(4, [1, 2])
    assert np.array_equal(pathrelink.walk(t1, w, init, guide), init)


def test_walk_moves_toward_guide():
    rng = np.random.default_rng(61)
    for _ in range(30):
        inst = random_instance(rng)
        init = random_gub_feasible(rng, inst)
        guide = random_gub_feasible(rng, inst)
        w = rng.uniform(1, 50, size=inst.m)
        out = pathrelink.walk(inst, w, init, guide)
        assert model.gub_feasible(inst, out)
        # every coordinate the walk changed moved toward the guide
        changed = out != init
        assert np.all(out[changed] == guide[changed])
        # and values never increase along the accepted prefix
        zi = model.penalized_objective(inst, init, w)
        zo = model.penalized_objective(inst, out, w)
        assert zo <= zi + 1e-9


def test_walk_respects_caps_strictly():
    rng = np.random.default_rng(62)
    for _ in range(20):
        inst = random_instance(rng)
        init = random_gub_feasible(rng, inst)
        guide = random_gub_feasible(rng, inst)
        w = rng.uniform(1, 50, size=inst.m)
        out = pathrelink.walk(inst, w, init, guide)
        counts = np.bincount(inst.block_of[out], minlength=inst.k)
        assert np.all(counts <= inst.cap)


def with_caps(inst, cap):
    """inst with every block's cap set to min(cap, block size)."""
    rows, blocks = inst.row_cols, inst.block_cols
    caps = np.minimum(cap, np.diff(blocks.ptr))
    return model.Instance(inst.cost, inst.demand, rows.owners(), rows.ind, caps,
                          blocks.owners(), blocks.ind)


@pytest.mark.parametrize("case", ["integer", "cap1", "same"])
def test_walk_matches_reference(case):
    """Equal to the walk that lists and lexsorts its candidates: with few
    distinct integer costs and weights, so that gains tie, with cap-1
    blocks, and from init == guide."""
    rng = np.random.default_rng(["integer", "cap1", "same"].index(case) + 63)
    moved = tied = 0
    for _ in range(150):
        inst = random_instance(rng, cost_hi=2 if case == "integer" else 20)
        if case == "cap1":
            inst = with_caps(inst, 1)
        if case == "integer":
            w = rng.integers(1, 3, size=inst.m).astype(float)
        else:
            w = rng.uniform(1, 50, size=inst.m)
        init = random_gub_feasible(rng, inst)
        guide = init.copy() if case == "same" else random_gub_feasible(rng, inst)
        out = pathrelink.walk(inst, w, init, guide)
        assert np.array_equal(out, walk_reference(inst, w, init, guide))
        moved += np.any(out != init)
        state = SearchState(inst, w, x0=init)
        gains = np.where(init, state.drop_gains(), state.add_gains())[init != guide]
        tied += gains.size > 1 and gains.min() < 0 and np.count_nonzero(gains == gains.min()) > 1
    if case == "same":
        assert moved == 0
    else:
        assert moved > 50
    if case == "integer":
        assert tied > 20
