"""Closed-form relaxation solves and the subgradient bound loop."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gubcover import model
from gubcover import relaxation as rx

import oracle
from conftest import int64_matrix, random_instance


def test_reduced_costs_t1(t1):
    assert list(rx.reduced_costs(t1, np.zeros(3))) == [4, 3, 5, 1]
    assert list(rx.reduced_costs(t1, np.array([2.0, 2.0, 2.0]))) == [0, -1, 1, -1]
    assert list(rx.reduced_costs(t1, np.ones(3))) == [2, 1, 3, 0]


def test_solve_lr_t1(t1):
    x, z = rx.solve_lr(t1, np.array([2.0, 2.0, 2.0]))
    assert z == 6.0
    assert list(np.flatnonzero(x)) == [1, 3]
    x, z = rx.solve_lr(t1, np.ones(3))
    assert z == 4.0 and not x.any()
    x, z = rx.solve_lr(t1, np.zeros(3))
    assert z == 0.0 and not x.any()


def test_solve_lr_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(100):
        inst = random_instance(rng, m=int(rng.integers(3, 9)),
                               n=int(rng.integers(4, 15)))
        u = rng.uniform(0, 8, size=inst.m)
        _, z = rx.solve_lr(inst, u)
        _, z_ref = oracle.brute_force_lr(inst, u)
        assert z == pytest.approx(z_ref, rel=1e-12, abs=1e-9)


def test_solve_lr_respects_caps():
    rng = np.random.default_rng(22)
    for _ in range(30):
        inst = random_instance(rng, m=6, n=18)
        u = rng.uniform(0, 10, size=inst.m)
        x, _ = rx.solve_lr(inst, u)
        assert model.gub_feasible(inst, x)


def test_reduced_costs_bit_identical_to_int64_product():
    rng = np.random.default_rng(29)
    for _ in range(40):
        inst = random_instance(rng, m=int(rng.integers(3, 40)), n=int(rng.integers(6, 200)))
        u = rng.uniform(0, 50, size=inst.m) * rng.random(inst.m) ** 3
        u[rng.random(inst.m) < 0.2] = 0.0
        old = inst.cost.astype(float) - u @ int64_matrix(inst)
        assert np.array_equal(rx.reduced_costs(inst, u), old)
        # the pricing core: a row slice of col_matrix against a column slice
        core = np.flatnonzero(rng.random(inst.n) < 0.5)
        priced = inst.cost[core] - inst.col_matrix()[core] @ u
        assert np.array_equal(priced, inst.cost[core] - u @ int64_matrix(inst)[:, core])


def solve_lr_reference(inst, u, rc):
    """Per-block loop: the cap cheapest of a block with too many negatives."""
    neg = rc < 0
    easy = np.bincount(inst.block_of[neg], minlength=inst.k) <= inst.cap
    x = neg & easy[inst.block_of]
    for h in np.flatnonzero(~easy):
        members = inst.block_cols[h]
        order = np.lexsort((members, rc[members]))
        x[members[order[: inst.cap[h]]]] = True
    return x, float(rc[x].sum() + np.dot(inst.demand, u))


def build_core_reference(inst, rc, factor):
    """Per-block loop: the factor * m globally cheapest plus each block's cap cheapest."""
    size = min(inst.n, factor * inst.m)
    if size >= inst.n:
        return np.ones(inst.n, dtype=bool)
    allowed = np.zeros(inst.n, dtype=bool)
    allowed[np.argpartition(rc, size - 1)[:size]] = True
    for h, members in enumerate(inst.block_cols):
        order = np.lexsort((members, rc[members]))
        allowed[members[order[: inst.cap[h]]]] = True
    return allowed


def scattered_blocks(rng, inst):
    """The same columns regrouped into blocks that are not index ranges."""
    perm = rng.permutation(inst.n)
    blocks = [(int(inst.cap[h]), sorted(perm[inst.block_cols[h]]))
              for h in range(inst.k)]
    return model.Instance.from_columns(inst.cost, inst.col_rows, inst.demand, blocks)


def rank_within_reference(groups, keys):
    """The stable-lexsort rank rule that rank_within's packed sorts replaced."""
    order = np.lexsort((keys, groups))
    sorted_groups = groups[order]
    starts = np.flatnonzero(np.diff(sorted_groups, prepend=-1))
    sizes = np.diff(starts, append=order.size)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size) - np.repeat(starts, sizes)
    return rank


def test_rank_within():
    groups = np.array([2, 0, 2, 0, 2, 1])
    keys = np.array([5.0, 1.0, 5.0, 1.0, -1.0, 0.0])
    assert list(rx.rank_within(groups, keys)) == [1, 0, 2, 1, 0, 0]
    empty = rx.rank_within(np.zeros(0, dtype=np.int64), np.zeros(0))
    assert empty.size == 0 and empty.dtype == np.int64


def test_rank_within_ties_signed_zeros_and_infinities():
    groups = np.array([0, 0, 0, 0, 0, 1, 1, 1])
    keys = np.array([0.0, -0.0, np.inf, -np.inf, np.inf, -0.0, 0.0, -0.0])
    # -0.0 == 0.0 and inf == inf, so those tie and keep input order
    assert list(rx.rank_within(groups, keys)) == [1, 2, 3, 0, 4, 0, 1, 2]


# a small pool of keys makes ties the rule, and holds both zeros and infinities
TIE_KEYS = [-np.inf, -2.5, -1.0, -0.0, 0.0, 1e-300, 1.0, 3.0, np.inf]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rank_within_matches_lexsort(data):
    size = data.draw(st.integers(0, 60))
    groups = np.array(data.draw(st.lists(st.integers(0, 6), min_size=size, max_size=size)),
                      dtype=np.int64)
    key = st.sampled_from(TIE_KEYS) | st.floats(-1e6, 1e6)
    keys = np.array(data.draw(st.lists(key, min_size=size, max_size=size)), dtype=float)
    rank = rx.rank_within(groups, keys)
    assert rank.dtype == np.int64
    assert np.array_equal(rank, rank_within_reference(groups, keys))


def test_rank_within_matches_lexsort_on_large_random_groups():
    rng = np.random.default_rng(27)
    for case in range(40):
        size = int(rng.integers(1, 5000))
        groups = rng.integers(0, int(rng.integers(1, 200)), size=size)
        if case % 2:
            groups.sort()                   # blocks of ascending columns
        keys = rng.integers(-20, 20, size=size).astype(float)
        if case % 4 < 2:
            keys += rng.random(size)        # mostly distinct keys
        keys[rng.random(size) < 0.05] = np.inf
        assert np.array_equal(rx.rank_within(groups, keys),
                              rank_within_reference(groups, keys))


def any_caps(rng, inst):
    """The same instance with caps from 0 to one past the block size.

    The constructor keeps any cap; validate would report these.
    """
    blocks = [(int(rng.integers(0, len(b) + 2)), list(b)) for b in inst.block_cols]
    return model.Instance.from_columns(inst.cost, inst.col_rows, inst.demand, blocks)


def test_rank_rule_matches_block_loops():
    rng = np.random.default_rng(26)
    for case in range(200):
        inst = random_instance(rng)
        if case % 2:
            inst = scattered_blocks(rng, inst)
        if case % 4 < 2:
            inst = any_caps(rng, inst)
        # integer multipliers and costs make reduced-cost ties at the cap
        u = rng.integers(0, 8, size=inst.m).astype(float)
        rc = rx.reduced_costs(inst, u)
        if case % 3 == 0:
            rc[rng.random(inst.n) < 0.5] = np.inf  # priced out
        x, z = rx.solve_lr(inst, u, rc=rc.copy())
        x_ref, z_ref = solve_lr_reference(inst, u, rc)
        assert np.array_equal(x, x_ref) and z == z_ref
        factor = int(rng.integers(1, 3))
        assert np.array_equal(rx._build_core(inst, rc, factor),
                              build_core_reference(inst, rc, factor))


def test_solve_lr_over_core_matches_inf_padded():
    """Pricing a core only gives the bits of pricing every other column at inf."""
    rng = np.random.default_rng(31)
    ranked = 0
    for case in range(300):
        inst = random_instance(rng)
        if case % 2:
            inst = scattered_blocks(rng, inst)
        if case % 4 < 2:
            inst = any_caps(rng, inst)
        # integer multipliers and costs make reduced-cost ties at the cap
        u = rng.integers(0, 8, size=inst.m).astype(float)
        core = np.flatnonzero(rng.random(inst.n) < rng.random())
        rc = inst.cost[core] - inst.col_matrix()[core] @ u
        padded = np.full(inst.n, np.inf)
        padded[core] = rc
        x_ref, z_ref = rx.solve_lr(inst, u, rc=padded)
        x, z = rx.solve_lr(inst, u, rc=rc, cols=core)
        assert x.dtype == bool and x.shape == (inst.n,)
        assert np.array_equal(x, x_ref)
        assert np.float64(z).tobytes() == np.float64(z_ref).tobytes()
        neg = core[rc < 0]
        ranked += bool(np.any(np.bincount(inst.block_of[neg], minlength=inst.k) > inst.cap))
    assert ranked >= 50   # blocks with more negatives than their cap


def test_weak_duality():
    rng = np.random.default_rng(23)
    for _ in range(30):
        inst = random_instance(rng, m=5, n=10)
        x_opt, z_opt = oracle.brute_force_optimum(inst)
        if x_opt is None:
            continue
        for _ in range(5):
            u = rng.uniform(0, 6, size=inst.m)
            _, z_lr = rx.solve_lr(inst, u)
            assert z_lr <= z_opt + 1e-9


def test_subgradient_vector_t1(t1):
    cov = model.coverage_counts(t1, model.as_bool(4, [1, 3]))
    assert list(t1.demand - cov) == [1, 0, 0]
    assert list(t1.demand - model.coverage_counts(t1, np.zeros(4, dtype=bool))) == [1, 1, 2]
    cov = model.coverage_counts(t1, model.as_bool(4, [0, 2, 3]))
    assert list(t1.demand - cov) == [-1, 0, 0]


def cap_iterations(monkeypatch, inst, count):
    """Cap subgradient_method at count iterations on inst."""
    monkeypatch.setattr(rx, "ITERS_PER_ROW", Fraction(count, inst.m))


def test_subgradient_first_step_t1(t1, monkeypatch):
    # from u=0 with unit step: g = b, |g|^2 = 6, scale = 1 * (8 - 0) / 6
    monkeypatch.setattr(rx, "STEP_INIT", 1.0)
    cap_iterations(monkeypatch, t1, 1)
    res = rx.subgradient_method(t1, 8.0)
    assert res.u == pytest.approx([4 / 3, 4 / 3, 8 / 3])
    assert res.bound == pytest.approx(16 / 3)
    assert res.iterations == 1


def test_subgradient_bound_t1(t1, monkeypatch):
    cap_iterations(monkeypatch, t1, 200)
    res = rx.subgradient_method(t1, 8.0)
    # witness u=(2,2,2) proves 6 is reachable; weak duality caps at 8
    assert 6.0 <= res.bound <= 8.0
    assert res.bound == pytest.approx(7.0)


def test_subgradient_zero_gap_is_stationary(t1, monkeypatch):
    # ub equal to z_LR(u0) = 0 makes every step zero
    cap_iterations(monkeypatch, t1, 5)
    res = rx.subgradient_method(t1, 0.0)
    assert res.bound == 0.0
    assert np.all(res.u == 0)


def test_multipliers_stay_nonnegative(monkeypatch):
    rng = np.random.default_rng(24)
    for _ in range(10):
        inst = random_instance(rng, m=8, n=20)
        cap_iterations(monkeypatch, inst, 60)
        res = rx.subgradient_method(inst, float(inst.cost.sum()))
        assert np.all(res.u >= 0)


def test_bound_is_valid_lower_bound():
    rng = np.random.default_rng(25)
    checked = 0
    while checked < 15:
        inst = random_instance(rng, m=5, n=12)
        x_opt, z_opt = oracle.brute_force_optimum(inst)
        if x_opt is None:
            continue
        res = rx.subgradient_method(inst, float(z_opt))
        assert res.bound <= z_opt + 1e-9
        checked += 1


def test_pricing_consistency(monkeypatch):
    from gubcover.io import GeneratorParams, generate
    # n = 2400 is above 4 * the 500-column core, so only the size floor
    # keeps this instance unpriced
    inst, _ = generate(GeneratorParams(rows=100, cols=2400, density=0.05,
                                       block_size=12, cap=3, seed=2))
    ub = float(inst.cost.sum()) * 0.1
    off = rx.subgradient_method(inst, ub)
    monkeypatch.setattr(rx, "PRICED_ABOVE", 0)
    on = rx.subgradient_method(inst, ub)
    assert off.evaluations == off.iterations + 1  # every iteration evaluated in full
    assert on.bound == pytest.approx(off.bound, rel=0.01)
    assert on.evaluations < on.iterations  # pricing skipped full evaluations


def skinny_instance(m, n, block_size, cap):
    """m x n instance in which column j covers row j % m alone, blocks of
    block_size consecutive columns with cap cap, unit demands."""
    cols = np.arange(n)
    cost = np.random.default_rng(0).integers(1, 101, n)
    return model.Instance(cost, np.ones(m, dtype=np.int64), cols % m, cols,
                          np.full(n // block_size, cap), cols // block_size, cols)


@pytest.mark.parametrize("m,n,block_size,priced", [
    (1000, 10000, 10, False),    # g1-tight: cap 1 of 10
    (1000, 10000, 1, False),     # scp-nrg: singleton blocks
    (2000, 100000, 50, True),    # k1-construct
])
def test_benchmark_shapes_priced_by_size(m, n, block_size, priced):
    # one column per row, at the top cost 100, bounds the optimum
    res = rx.subgradient_method(skinny_instance(m, n, block_size, 1), 100.0 * m)
    if priced:
        assert res.evaluations < res.iterations
    else:
        assert res.evaluations == res.iterations + 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the priced subgradient stops "
                   "before re-pricing lifts the bound above 0 at this target")
def test_priced_bound_on_skinny_k1_shape():
    res = rx.subgradient_method(skinny_instance(2000, 100000, 50, 1), 20000.0)
    assert res.bound > 0
