"""Lagrangian relaxation of the covering constraints and its subgradient solver.

Relaxing the covering rows with multipliers u >= 0 leaves a problem that
separates over the blocks: inside each block, pick columns with negative
reduced cost, at most cap of them.  The subgradient loop pushes the
resulting lower bound up and returns the best multiplier vector, which the
reduction heuristics reuse for scoring columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import coverage_counts

STEP_INIT = 2.0         # first step factor
STEP_MIN = 0.005        # the loop stops once the step factor falls below this
HALVE_AFTER = 30        # stalled iterations before halving the step factor
ITERS_PER_ROW = 10      # at most ITERS_PER_ROW * m iterations
# pricing, for instances with more than max(4 * core, PRICED_ABOVE) columns
CORE_FACTOR = 5         # the core keeps the CORE_FACTOR * m cheapest columns
PRICED_ABOVE = 20000
REFRESH = 100           # iterations between full evaluations


@dataclass
class SubgradientResult:
    u: np.ndarray          # multipliers attaining the best full bound
    bound: float
    iterations: int
    evaluations: int       # full evaluations performed
    step_final: float


def reduced_costs(inst, u) -> np.ndarray:
    """c_j minus the multiplier mass of the rows column j covers."""
    return inst.cost - inst.col_matrix() @ np.asarray(u, dtype=float)


def rank_within(groups, keys):
    """Rank of each entry inside its group, by ascending key.

    Ties keep input order, so callers that pass ascending column indices
    break them toward the lowest index.  Equal keys are those that compare
    equal (so -0.0 ties with 0.0); keys must not be NaN.

    Two exact int64 sorts stand in for a stable float sort.  An unstable
    argsort gives each key its dense rank d (equal keys, equal rank), and
    sorting d * size + index orders the entries by (key, index); sorting
    group * size + place in that order then orders them by (group, key,
    index).
    """
    size = keys.size
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    dense = np.zeros(size, dtype=np.int64)
    np.cumsum(sorted_keys[1:] != sorted_keys[:-1], out=dense[1:])
    dense *= size
    order = dense + by_key
    order.sort()
    order -= dense                      # the entries by (key, index)
    place = np.asarray(groups, dtype=np.int64)[order] * size
    place += np.arange(size)
    place.sort()
    group = place // size if size else place
    place -= group * size               # order[place]: by (group, key, index)
    step = np.ones(size, dtype=bool)
    np.not_equal(group[1:], group[:-1], out=step[1:])
    first = np.where(step, np.arange(size), 0)
    np.maximum.accumulate(first, out=first)
    rank = np.empty(size, dtype=np.int64)
    rank[order[place]] = np.arange(size) - first
    return rank


def solve_lr(inst, u, rc=None, cols=None):
    """Closed-form minimizer of the relaxed objective.

    Per block, take the columns with negative reduced cost whose rank among
    the block's negative columns (rank_within, ties to the lowest column
    index) is below the cap.  Only blocks with more than cap negatives are
    ranked at all.  With cols, ascending column indices, rc holds the
    reduced costs of those columns only, and every other column is priced
    out, never taken.  The picks are ranked and summed in ascending column
    order either way, so the answer is the same float as with rc = inf
    outside cols.  Returns (x, value), x over all n columns.
    """
    if rc is None:
        rc = reduced_costs(inst, u)
    take = rc < 0
    neg = np.flatnonzero(take)
    block = inst.block_of[neg if cols is None else cols[neg]]
    over = np.bincount(block, minlength=inst.k) > inst.cap
    if over.any():
        hard = over[block]
        h = block[hard]
        take[neg[hard]] = rank_within(h, rc[neg[hard]]) < inst.cap[h]
    value = float(rc[take].sum() + np.dot(inst.demand, np.asarray(u, dtype=float)))
    if cols is None:
        return take, value
    x = np.zeros(inst.n, dtype=bool)
    x[cols[take]] = True
    return x, value


def _build_core(inst, rc, factor):
    """Column mask keeping the factor * m globally cheapest columns and
    each block's cap cheapest (rank_within, ties to the lowest index)."""
    n = inst.n
    size = min(n, factor * inst.m)
    allowed = np.zeros(n, dtype=bool)
    if size >= n:
        allowed[:] = True
        return allowed
    allowed[np.argpartition(rc, size - 1)[:size]] = True
    allowed |= rank_within(inst.block_of, rc) < inst.cap[inst.block_of]
    return allowed


def subgradient_method(inst, ub) -> SubgradientResult:
    """Projected subgradient ascent on the Lagrangian dual.

    ub is the penalized value of the incumbent under the initial weights;
    the step is step * (ub - value) / ||g||^2 in the direction of the
    uncovered demand g.  The step halves after HALVE_AFTER iterations
    without improvement and the loop stops once it falls below STEP_MIN,
    the iteration cap is hit, or g vanishes.

    A large instance is priced: iterations work on a reduced column core
    and only the full evaluations every REFRESH iterations update the
    returned bound (a core-restricted value is not a valid bound for the
    whole instance).
    """
    m = inst.m
    pricing = inst.n > max(4 * min(inst.n, CORE_FACTOR * m), PRICED_ABOVE)
    u = np.zeros(m)
    best_u = u.copy()
    best_lb = -np.inf
    best_seen = -np.inf
    lam = STEP_INIT
    stall = 0
    evals = 0
    core_idx = core_cost = core_mat = None
    it = 0
    while it < ITERS_PER_ROW * m and lam >= STEP_MIN:
        full = (not pricing) or (it % REFRESH == 0)
        if full:
            rc = reduced_costs(inst, u)
            x, value = solve_lr(inst, u, rc=rc)
            evals += 1
            if value > best_lb:
                best_lb = value
                best_u = u.copy()
            if pricing:
                core_idx = np.flatnonzero(_build_core(inst, rc, CORE_FACTOR))
                core_cost = inst.cost[core_idx]
                core_mat = inst.col_matrix()[core_idx]
            if value >= ub:
                it += 1
                break
        else:
            x, value = solve_lr(inst, u, rc=core_cost - core_mat @ u, cols=core_idx)
        if value > best_seen:
            best_seen = value
            stall = 0
        else:
            stall += 1
            if stall >= HALVE_AFTER:
                lam *= 0.5
                stall = 0
        g = inst.demand - coverage_counts(inst, x)
        gnorm2 = float(np.dot(g, g))
        it += 1
        if gnorm2 == 0.0:
            break
        step = lam * max(ub - value, 0.0) / gnorm2
        u = np.maximum(u + step * g, 0.0)
    # the last iterate never got a full look when pricing; give it one
    x, value = solve_lr(inst, u)
    evals += 1
    if value > best_lb:
        best_lb = value
        best_u = u.copy()
    return SubgradientResult(u=best_u, bound=best_lb, iterations=it, evaluations=evals, step_final=lam)
