"""Variable fixing, the three column scores, and core construction."""

import numpy as np

from gubcover import model, reduction
from gubcover.model import as_bool
from gubcover.relaxation import reduced_costs

import oracle
from conftest import random_gub_feasible, random_instance, random_weights


def fixed_of(red):
    return np.flatnonzero(~red.free)


def test_fix_columns_t1_frozen(t1):
    x = as_bool(4, [1, 2])
    u = np.array([2.0, 2.0, 2.0])
    red, exhausted = reduction.fix_columns(t1, x, x, u, np.random.default_rng(0))
    # reduced costs on the pool {1, 2} are (-1, 1): column 1 draws all the
    # probability mass, and fixing it satisfies row 1, enough for the
    # ceil(0.2 * 3) = 1 row target
    assert list(fixed_of(red)) == [1]
    assert list(red.open_rows(u)) == [2.0, 0.0, 2.0]
    assert not exhausted


def test_fix_columns_empty_pool(t1):
    a = as_bool(4, [1, 2])
    b = as_bool(4, [0, 3])
    u = np.ones(3)
    red, _ = reduction.fix_columns(t1, a, b, u, np.random.default_rng(0))
    assert fixed_of(red).size == 0
    assert list(red.open_rows(u)) == [1.0, 1.0, 1.0]


def test_fix_columns_exhausted_pool(t1):
    # pool {3} covers row 2 once against demand 2: no row ever satisfied
    x = as_bool(4, [3])
    red, exhausted = reduction.fix_columns(t1, x, x, np.ones(3), np.random.default_rng(0))
    assert list(fixed_of(red)) == [3]
    assert exhausted


def test_fix_columns_sampling_properties():
    rng = np.random.default_rng(51)
    for _ in range(20):
        inst = random_instance(rng)
        a = random_gub_feasible(rng, inst)
        b = random_gub_feasible(rng, inst)
        pool = set(np.flatnonzero(a & b))
        u = rng.uniform(0, 5, size=inst.m)
        red, _ = reduction.fix_columns(inst, a, b, u, rng)
        fixed = fixed_of(red)
        assert set(fixed) <= pool
        # without replacement: each fixed column takes one unit of its cap
        assert np.array_equal(
            red.cap, inst.cap - np.bincount(inst.block_of[fixed], minlength=inst.k))
        # multipliers are zeroed exactly on the rows F satisfies
        cov = model.coverage_counts(inst, as_bool(inst.n, fixed))
        satisfied = cov >= inst.demand
        assert np.all(red.open_rows(u)[satisfied] == 0)
        assert np.all(red.open_rows(u)[~satisfied] == u[~satisfied])


def fix_columns_by_row_loop(inst, x_star, x_hat, u, rng):
    """(fixed, exhausted) of fix_columns, with a list pool and a per-row
    satisfied counter."""
    pool = list(np.flatnonzero(x_star & x_hat))
    rc = reduced_costs(inst, u)
    target = int(np.ceil(reduction.FIX_FRACTION * inst.m))
    covered = np.zeros(inst.m, dtype=np.int64)
    satisfied = int((inst.demand <= 0).sum())
    fixed = []
    while satisfied < target:
        if not pool:
            return fixed, True
        vals = rc[np.asarray(pool)]
        gaps = vals.max() - vals
        if gaps.sum() > 0:
            pick = int(rng.choice(len(pool), p=gaps / gaps.sum()))
        else:
            pick = int(rng.integers(len(pool)))
        j = pool.pop(pick)
        fixed.append(j)
        for i in inst.col_rows[j]:
            covered[i] += 1
            satisfied += covered[i] == inst.demand[i]
    return fixed, False


def test_fix_columns_matches_row_loop():
    rng = np.random.default_rng(52)
    exhausted_runs = 0
    for _ in range(100):
        inst = random_instance(rng)
        a = random_gub_feasible(rng, inst)
        b = a if rng.integers(2) else random_gub_feasible(rng, inst)
        u = rng.uniform(0, 5, size=inst.m) * (rng.random(inst.m) < 0.8)
        seed = int(rng.integers(1 << 30))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        red, exhausted = reduction.fix_columns(inst, a, b, u, got_rng)
        fixed, want_exhausted = fix_columns_by_row_loop(inst, a, b, u, want_rng)
        assert np.array_equal(fixed_of(red), np.sort(fixed))
        assert exhausted == want_exhausted
        # the same draws, so the caller's stream is left in the same place
        assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)
        exhausted_runs += exhausted
    assert 10 < exhausted_runs < 90


def test_fix_columns_deterministic_per_seed(t1):
    x = as_bool(4, [1, 2])
    u = np.zeros(3)  # equal reduced costs: uniform draw
    picks = {tuple(fixed_of(reduction.fix_columns(t1, x, x, u,
                                                  np.random.default_rng(s))[0]))
             for s in range(20)}
    assert picks <= {(1,), (2,), (1, 2)}
    one, _ = reduction.fix_columns(t1, x, x, u, np.random.default_rng(3))
    two, _ = reduction.fix_columns(t1, x, x, u, np.random.default_rng(3))
    assert np.array_equal(fixed_of(one), fixed_of(two))


def test_apply_fixing_frozen(t1):
    red = reduction.apply_fixing(t1, np.array([1]))
    assert list(red.demand) == [1, 0, 1]
    assert list(red.cap) == [0, 2]
    assert list(red.free) == [True, False, True, True]


def test_apply_fixing_leaves_instance_alone(t1):
    before = (t1.demand.copy(), t1.cap.copy())
    reduction.apply_fixing(t1, np.array([0, 3]))
    assert np.array_equal(t1.demand, before[0])
    assert np.array_equal(t1.cap, before[1])


def test_apply_fixing_empty_is_identity(t1):
    red = reduction.apply_fixing(t1, np.array([], dtype=np.int64))
    assert np.array_equal(red.demand, t1.demand)
    assert np.array_equal(red.cap, t1.cap)
    assert red.free.all()


def test_lagrangian_scores(t1):
    # the lagrangian scheme scores with pseudo_scores under the multipliers
    u = np.array([2.0, 2.0, 2.0])
    assert list(reduction.pseudo_scores(reduction.apply_fixing(t1, []), u)) == [0, -1, 1, -1]
    # fixing column 1 satisfies row 1, whose multiplier then counts for nothing
    assert list(reduction.pseudo_scores(reduction.apply_fixing(t1, [1]), u)) == [2, 1, 1, -1]


def test_normalized_scores_frozen(t1):
    # block {0,1} caps at 1 of 2: theta is the 2nd lowest reduced cost
    scores = reduction.normalized_scores(reduction.apply_fixing(t1, []),
                                         np.array([3.0, 3.0, 3.0]))
    assert list(scores) == [0.0, -1.0, -1.0, -2.0]


def test_normalized_scores_positive_theta_is_identity(t1):
    scores = reduction.normalized_scores(reduction.apply_fixing(t1, []), np.zeros(3))
    assert list(scores) == [4, 3, 5, 1]


def test_normalized_never_below_lagrangian():
    rng = np.random.default_rng(52)
    for _ in range(20):
        inst = random_instance(rng)
        u = rng.uniform(0, 10, size=inst.m)
        rho = reduction.normalized_scores(reduction.apply_fixing(inst, []), u)
        ctil = reduced_costs(inst, u)
        assert np.all(rho >= ctil - 1e-9)
        # the shift is constant per block, so block argmins agree
        for h in range(inst.k):
            members = inst.block_cols[h]
            assert np.argmin(rho[members]) == np.argmin(ctil[members])


def normalized_reference(red, u, fixed):
    """Per-block loop: theta is the residual-cap-th smallest free reduced
    cost, under u zeroed on the rows the fixed columns satisfy."""
    inst = red.inst
    s, _ = oracle.recount(inst, as_bool(inst.n, fixed))
    rc = reduced_costs(inst, np.where(s >= inst.demand, 0.0, u))
    theta = np.zeros(inst.k)
    for h in range(inst.k):
        members = inst.block_cols[h]
        members = members[red.free[members]]
        dh = int(red.cap[h])
        if 0 <= dh < members.size:
            theta[h] = np.partition(rc[members], dh)[dh]
    shift = theta[inst.block_of]
    return rc - np.where(shift < 0, shift, 0.0)


def test_normalized_matches_block_loop():
    rng = np.random.default_rng(54)
    residual = set()
    for _ in range(200):
        inst = random_instance(rng)
        # fixing a random cap-feasible set leaves residual caps from 0 up to
        # at least the number of free members
        fixed = np.flatnonzero(random_gub_feasible(rng, inst))
        red = reduction.apply_fixing(inst, fixed)
        u = rng.integers(0, 8, size=inst.m).astype(float)
        assert np.array_equal(reduction.normalized_scores(red, u),
                              normalized_reference(red, u, fixed))
        free_count = np.bincount(inst.block_of[red.free], minlength=inst.k)
        residual |= {"zero" if c == 0 else "all" if c >= f else "some"
                     for c, f in zip(red.cap, free_count)}
    assert residual == {"zero", "all", "some"}


def test_scores_ignore_satisfied_rows():
    """u on a row the fixed columns satisfy moves neither score; u on any
    other row moves the pseudo score, and sometimes the normalized one."""
    rng = np.random.default_rng(56)
    nudged_satisfied = moved_normalized = 0
    for _ in range(50):
        inst = random_instance(rng)
        red = reduction.apply_fixing(inst, np.flatnonzero(random_gub_feasible(rng, inst)))
        u = rng.uniform(0, 5, size=inst.m)
        nudge = rng.uniform(1, 5, size=inst.m)
        satisfied = red.demand == 0
        nudged_satisfied += satisfied.sum()
        for score in (reduction.pseudo_scores, reduction.normalized_scores):
            assert np.array_equal(score(red, np.where(satisfied, u + nudge, u)),
                                  score(red, u))
        for i in np.flatnonzero(~satisfied):
            v = u.copy()
            v[i] += nudge[i]
            assert not np.array_equal(reduction.pseudo_scores(red, v),
                                      reduction.pseudo_scores(red, u))
            moved_normalized += not np.array_equal(reduction.normalized_scores(red, v),
                                                   reduction.normalized_scores(red, u))
    assert nudged_satisfied > 0 and moved_normalized > 0


def test_normalized_equals_lagrangian_on_singleton_blocks():
    # the plain covering embedding: one block per column, cap 1
    rng = np.random.default_rng(53)
    cols = [[0, 1], [1, 2], [0, 2], [2], [0]]
    inst = model.Instance.from_columns(
        [4, 3, 5, 1, 2], cols, [1, 1, 1],
        [(1, [j]) for j in range(5)])
    for _ in range(10):
        u = rng.uniform(0, 10, size=3)
        assert np.array_equal(reduction.normalized_scores(reduction.apply_fixing(inst, []), u),
                              reduced_costs(inst, u))


def test_pseudo_scores(t1):
    red = reduction.apply_fixing(t1, [])
    assert list(reduction.pseudo_scores(red, np.zeros(3))) == [4, 3, 5, 1]
    assert list(reduction.pseudo_scores(red, np.full(3, 14.0))) == [
        -24, -25, -23, -13]
    u = np.array([1.5, 0.5, 2.0])
    assert np.array_equal(reduction.pseudo_scores(red, u),
                          reduced_costs(t1, u))
    # column 1 fixed: row 1 is satisfied and drops out of the reduced costs
    assert np.array_equal(reduction.pseudo_scores(reduction.apply_fixing(t1, [1]), u),
                          reduced_costs(t1, np.array([1.5, 0.0, 2.0])))


def test_build_core_t1_keeps_everything(t1):
    x = as_bool(4, [1, 2])
    core = reduction.build_core(reduction.apply_fixing(t1, []), t1.cost.astype(float), x, x)
    assert core.all()


def test_build_core_empty_solutions_is_row_cover_only(t1):
    # with nothing selected the 10 n' term vanishes; per row the b_i
    # cheapest covering columns remain: {0}, {1}, {3, 1}
    empty = np.zeros(4, dtype=bool)
    core = reduction.build_core(reduction.apply_fixing(t1, []), t1.cost.astype(float),
                                empty, empty)
    assert list(core) == [True, True, False, True]


def test_build_core_invariants(monkeypatch):
    rng = np.random.default_rng(54)
    for _ in range(20):
        inst = random_instance(rng)
        a = random_gub_feasible(rng, inst)
        b = random_gub_feasible(rng, inst)
        scores = rng.uniform(-5, 5, size=inst.n)
        red = reduction.apply_fixing(inst, [])
        monkeypatch.setattr(reduction, "CORE_MULTIPLIER", 1)
        core = reduction.build_core(red, scores, a, b)
        assert np.all(core[a]) and np.all(core[b])
        for i in range(inst.m):
            covering = inst.row_cols[i]
            need = min(inst.demand[i], len(covering))
            assert core[covering].sum() >= need
        monkeypatch.setattr(reduction, "CORE_MULTIPLIER", 4)
        bigger = reduction.build_core(red, scores, a, b)
        assert np.all(bigger[core])


def core_by_brute_force(red, scores, x_star, x_hat, multiplier):
    """build_core's docstring, one column at a time, ties by column index."""
    inst, free = red.inst, red.free
    ranked = sorted((scores[j], j) for j in range(inst.n) if free[j])
    picked = []
    for i in range(inst.m):
        covering = [j for _, j in ranked if i in inst.col_rows[j]]
        picked += covering[:red.demand[i]]
    picked += [j for _, j in ranked[:multiplier * int(np.count_nonzero(x_hat & free))]]
    core = np.zeros(inst.n, dtype=bool)
    core[np.array(picked, dtype=np.int64)] = True
    return core | ((x_star | x_hat) & free)


def test_build_core_matches_brute_force(monkeypatch):
    rng = np.random.default_rng(61)
    satisfied_rows = hat_without_free = 0
    for trial in range(200):
        inst = random_instance(rng, bmax=int(rng.integers(1, 4)))
        fixed = np.flatnonzero(random_gub_feasible(rng, inst) & (rng.random(inst.n) < 0.6))
        red = reduction.apply_fixing(inst, fixed)
        scores = rng.integers(-3, 4, size=inst.n).astype(float)  # many ties
        x_star = rng.random(inst.n) < 0.3
        x_hat = rng.random(inst.n) < 0.3
        if trial % 3 == 0:
            x_hat &= ~red.free  # no free selected column: the overall pick is empty
        satisfied_rows += np.count_nonzero(red.demand == 0)
        hat_without_free += not (x_hat & red.free).any()
        for multiplier in (0, 10):
            monkeypatch.setattr(reduction, "CORE_MULTIPLIER", multiplier)
            core = reduction.build_core(red, scores, x_star, x_hat)
            assert np.array_equal(core, core_by_brute_force(red, scores, x_star, x_hat,
                                                            multiplier))
    assert satisfied_rows > 0 and hat_without_free > 0


def test_restrict_t1(t1):
    red = reduction.apply_fixing(t1, [1])
    sub, cols = red.restrict(np.array([True, False, False, True]))
    assert list(cols) == [0, 3]
    assert list(sub.cost) == [4, 1]
    assert list(sub.demand) == [1, 0, 1]
    assert list(sub.cap) == [0, 2]
    assert [list(r) for r in sub.col_rows] == [[0, 1], [2]]
    assert [list(c) for c in sub.row_cols] == [[0], [0], [1]]
    assert [list(b) for b in sub.block_cols] == [[0], [1]]
    assert sub.wbar == t1.wbar == 14


def test_restrict_preserves_values_and_caps():
    """On the sub-instance, y scores as y plus the fixed columns on the full one."""
    rng = np.random.default_rng(55)
    for _ in range(30):
        inst = random_instance(rng)
        x = random_gub_feasible(rng, inst)
        fixed = np.flatnonzero(x & (rng.random(inst.n) < 0.5))
        red = reduction.apply_fixing(inst, fixed)
        core = red.free & (rng.random(inst.n) < rng.uniform(0.2, 1.0))
        sub, cols = red.restrict(core)
        assert np.array_equal(cols, np.flatnonzero(core))
        assert sub.wbar == inst.wbar
        # residual caps may be 0 and blocks may empty out; nothing else breaks
        codes = {v.code for v in model.validate(sub)}
        assert codes <= {"cap_not_positive", "cap_exceeds_block_size"}
        w = random_weights(rng, inst)
        fixed_cost = int(inst.cost[fixed].sum())
        for _ in range(10):
            y = rng.random(cols.size) < rng.uniform(0.0, 0.6)
            full = as_bool(inst.n, fixed)
            full[cols[y]] = True
            assert (model.penalized_objective(sub, y, w) + fixed_cost
                    == model.penalized_objective(inst, full, w))
            assert model.gub_feasible(sub, y) == model.gub_feasible(inst, full)
