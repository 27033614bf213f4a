"""Shared fixtures and small-instance helpers for the test suite.

The canonical instance here (`build_t1`) is tiny enough that every frozen
expected value in the tests was computed by exhaustive enumeration before
being written down.  The random-instance helpers always repair coverage so
the multicover side is satisfiable on its own; the block caps may still
make an instance infeasible, which several tests rely on.
"""

import glob
import itertools
import os
import signal
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from gubcover import driver, localsearch, model
from gubcover.reduction import apply_fixing
from gubcover.model import Instance

import oracle


def build_t1() -> Instance:
    """3 rows, 4 columns, blocks {0,1} cap 1 and {2,3} cap 2.

    Unique optimum is columns {1, 2} at cost 8.
    """
    return Instance.from_columns(
        cost=[4, 3, 5, 1],
        col_rows=[[0, 1], [1, 2], [0, 2], [2]],
        demand=[1, 1, 2],
        blocks=[(1, [0, 1]), (2, [2, 3])],
    )


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps the processes it forks (the solver's bound child
    included) before it ends.

    A child left over fails the test that left it: it is killed and reaped
    here, so later tests start with none.  Where /proc does not list a
    process's children, the check only finds that some child is left.
    """
    yield
    lists = glob.glob("/proc/self/task/*/children")
    if not lists:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return
    pids = sorted({int(pid) for path in lists for pid in Path(path).read_text().split()})
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if pids:
        pytest.fail(f"child processes left running: {pids}")


@pytest.fixture
def t1() -> Instance:
    return build_t1()


def assert_same_instance(a, b):
    """Field by field, adjacency views and coverage matrix included.

    Instances have no value equality; this is how tests compare two.
    """
    assert (a.m, a.n, a.k, a.nnz, a.wbar) == (b.m, b.n, b.k, b.nnz, b.wbar)
    for name in ("cost", "demand", "cap", "block_of"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    for name in ("col_rows", "row_cols", "block_cols"):
        xs, ys = getattr(a, name), getattr(b, name)
        assert len(xs) == len(ys), name
        for x, y in zip(xs, ys):
            assert x.dtype == y.dtype and np.array_equal(x, y), name
    ma, mb = a.matrix(), b.matrix()
    assert ma.dtype == mb.dtype and (ma != mb).nnz == 0


def solve_checked(inst, cfg):
    """driver.solve, with its result recounted by tests/oracle.py.

    The caps hold, objective is the cost sum of the selection, feasible
    matches the coverage recount, penalized is the oracle's value under the
    initial weights, and the timeline ends at penalized.
    """
    res = driver.solve(inst, cfg)
    x = model.as_bool(inst.n, res.selected)
    s, blk = oracle.recount(inst, x)
    assert np.all(blk <= inst.cap)
    assert res.objective == int(inst.cost[x].sum())
    assert res.feasible == bool(np.all(s >= inst.demand))
    want = oracle.penalized_value(inst, x, model.initial_weights(inst))
    assert res.penalized == pytest.approx(want, rel=1e-9)
    assert res.timeline[-1][1] == res.penalized
    return res


def random_instance(rng, m=None, n=None, density=0.3, bmax=3, cost_hi=20):
    """Random instance with equal-size blocks and coverable demands."""
    m = int(rng.integers(3, 21)) if m is None else m
    n = int(rng.integers(6, 41)) if n is None else n
    cost = rng.integers(1, cost_hi + 1, size=n)
    demand = rng.integers(1, bmax + 1, size=m)
    covers = [set(np.flatnonzero(rng.random(m) < density)) for _ in range(n)]
    for j in range(n):
        if not covers[j]:
            covers[j].add(int(rng.integers(m)))
    counts = np.zeros(m, dtype=np.int64)
    for j in range(n):
        for i in covers[j]:
            counts[i] += 1
    for i in range(m):
        while counts[i] < demand[i]:
            j = int(rng.integers(n))
            if i not in covers[j]:
                covers[j].add(i)
                counts[i] += 1
    divisors = [g for g in range(1, n + 1) if n % g == 0]
    g = int(divisors[rng.integers(len(divisors))])
    blocks = []
    for h in range(n // g):
        members = list(range(h * g, (h + 1) * g))
        blocks.append((int(rng.integers(1, g + 1)), members))
    return Instance.from_columns(cost, [sorted(c) for c in covers], demand, blocks)


def int64_matrix(inst):
    """The int64 coverage matrix (m x n) the float64 matrix() replaced."""
    r = inst.row_cols
    data = np.ones(r.ind.size, dtype=np.int64)
    return sp.csr_matrix((data, r.ind, r.ptr), shape=(inst.m, inst.n))


def random_gub_feasible(rng, inst):
    """Random selection that respects every block cap."""
    x = np.zeros(inst.n, dtype=bool)
    for h in range(inst.k):
        members = inst.block_cols[h]
        take = int(rng.integers(0, inst.cap[h] + 1))
        if take:
            pick = rng.choice(members, size=min(take, len(members)), replace=False)
            x[pick] = True
    return x


def random_weights(rng, inst, integer=True):
    wbar = int(inst.cost.sum()) + 1
    if integer:
        return rng.integers(1, wbar + 1, size=inst.m).astype(float)
    return rng.uniform(0.5, wbar, size=inst.m)


def random_state(rng, inst=None, integer=False):
    """A state at a random cap-feasible point, its weights rescaled half the time."""
    inst = random_instance(rng) if inst is None else inst
    state = localsearch.SearchState(inst, random_weights(rng, inst, integer=integer),
                                    x0=random_gub_feasible(rng, inst))
    if rng.integers(2):
        state.scale_weights(float(rng.uniform(0.3, 0.99)))
    return state


def restricted_state(rng, integer=False, cost_hi=20):
    """A state on a restrict() sub-instance that has empty blocks."""
    inst = random_instance(rng, n=int(rng.choice([12, 24, 36])), cost_hi=cost_hi)
    fixed = np.flatnonzero(random_gub_feasible(rng, inst) & (rng.random(inst.n) < 0.5))
    reduced = apply_fixing(inst, fixed)
    core = reduced.free & (rng.random(inst.n) < 0.7)
    core[inst.block_cols[int(rng.integers(inst.k))]] = False
    sub, _ = reduced.restrict(core)
    assert any(len(m) == 0 for m in sub.block_cols)
    return random_state(rng, sub, integer)


def state_key(state):
    """Everything a flip changes, as bytes, for bit-exact comparisons."""
    return (state.x.tobytes(), state.s.tobytes(), state.dp_up.tobytes(),
            state.dp_down.tobytes(), state.blk.tobytes(), state.cost,
            state.viol, state.zhat)


def nb1_state(rng, inst, w=None):
    """A single-flip local optimum reached from a random feasible start."""
    if w is None:
        w = np.full(inst.m, float(inst.cost.sum() + 1))
    state = localsearch.SearchState(inst, w, x0=random_gub_feasible(rng, inst))
    localsearch.two_fnls(state, one_flip_only=True)
    return state


def solver_pair_move(state):
    """One improving pair move as the solver's own pair phases find it.

    Takes the first move of the saturated-block swap and then the swap
    scan on a copy of state, which is left untouched.  Returns (delta, j1,
    j2), the zhat change of dropping j1 and adding j2, or None when neither
    phase moves.
    """
    st = state.copy()
    moves = itertools.chain(localsearch._step_swap_saturated(st),
                            localsearch._step_swap_scan(st))
    if next(moves, False) is False:
        return None
    changed = np.flatnonzero(st.x != state.x)
    j1, j2 = changed[state.x[changed]], changed[~state.x[changed]]
    assert j1.size == 1 and j2.size == 1
    return st.zhat - state.zhat, int(j1[0]), int(j2[0])


def dense_arrays(inst):
    """(m x n) 0/1 coverage matrix and (k x n) block membership matrix."""
    a = np.zeros((inst.m, inst.n), dtype=np.int64)
    for j in range(inst.n):
        a[inst.col_rows[j], j] = 1
    g = np.zeros((inst.k, inst.n), dtype=np.int64)
    g[inst.block_of, np.arange(inst.n)] = 1
    return a, g


def penalized_dense(inst, a, xs, w):
    """Penalized objective of many solutions at once; xs is (r, n) 0/1."""
    s = xs @ a.T
    short = np.maximum(inst.demand[None, :] - s, 0)
    return xs @ inst.cost + short @ w


def all_pair_deltas(inst, x, w):
    """Exact penalized delta of every pair flip, plus GUB feasibility masks.

    Returns (deltas, ok) as (n, n) arrays over unordered pairs j1 < j2;
    entries with j1 >= j2 are undefined.  Small instances only: the pair
    solutions are materialized densely.
    """
    a, g = dense_arrays(inst)
    x = np.asarray(x, dtype=np.int64)
    n = inst.n
    j1s, j2s = np.triu_indices(n, k=1)
    xs = np.repeat(x[None, :], j1s.size, axis=0)
    xs[np.arange(j1s.size), j1s] ^= 1
    xs[np.arange(j2s.size), j2s] ^= 1
    vals = penalized_dense(inst, a, xs, np.asarray(w, dtype=float))
    base = penalized_dense(inst, a, x[None, :], np.asarray(w, dtype=float))[0]
    ok_flat = (xs @ g.T <= inst.cap[None, :]).all(axis=1)
    deltas = np.full((n, n), np.nan)
    ok = np.zeros((n, n), dtype=bool)
    deltas[j1s, j2s] = vals - base
    ok[j1s, j2s] = ok_flat
    return deltas, ok
