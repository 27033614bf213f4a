"""Heuristic problem-size reduction: variable fixing and core extraction.

Both lean on column scores derived from a dual-ish vector: the multipliers
from the subgradient phase, or the penalty weights under the pseudo
scheme.  Fixing locks in columns that both guiding solutions agree on until a
fifth of the rows are covered by the fixed set alone, which leaves a
ReducedProblem: the residual demands and caps over the non-fixed columns.
The core then keeps only the attractively scored free columns around the
guiding solutions, and ReducedProblem.restrict compacts it into a plain
sub-Instance for the search to run on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .localsearch import lowest_k
from .model import Instance, coverage_counts
from .relaxation import rank_within, reduced_costs

FIX_FRACTION = 0.2  # fixing stops once this share of the rows is covered


@dataclass
class FixResult:
    fixed: np.ndarray     # sorted fixed column indices
    scores_u: np.ndarray  # input vector with the satisfied rows zeroed
    exhausted: bool       # candidate pool ran dry before the coverage target


def fix_columns(inst, x_star, x_hat, u, rng):
    """Sample columns selected by both solutions into the fixed set.

    Draws without replacement, favoring low reduced cost under u, until
    the rows fully covered by the fixed set alone reach
    ceil(FIX_FRACTION * m).  Those rows' entries are zeroed in the
    returned copy of u so they stop attracting further columns in the
    scores.
    """
    u = np.asarray(u, dtype=float)
    pool = list(np.flatnonzero(np.asarray(x_star, bool) & np.asarray(x_hat, bool)))
    rc = reduced_costs(inst, u)
    target = math.ceil(FIX_FRACTION * inst.m)
    covered = np.zeros(inst.m, dtype=np.int64)
    satisfied = int((inst.demand <= 0).sum())
    fixed = []
    exhausted = False
    while satisfied < target:
        if not pool:
            exhausted = True
            break
        live = np.asarray(pool)
        vals = rc[live]
        gaps = vals.max() - vals
        total = gaps.sum()
        if total > 0:
            pick = int(rng.choice(live.size, p=gaps / total))
        else:
            pick = int(rng.integers(live.size))
        j = pool.pop(pick)
        fixed.append(j)
        for i in inst.col_rows[j]:
            covered[i] += 1
            if covered[i] == inst.demand[i]:
                satisfied += 1
    scores_u = u.copy()
    scores_u[covered >= inst.demand] = 0.0
    return FixResult(np.asarray(sorted(fixed), dtype=np.int64), scores_u, exhausted)


@dataclass
class ReducedProblem:
    inst: Instance        # the full instance the columns were fixed in
    demand: np.ndarray    # residual demands after the fixed coverage
    cap: np.ndarray       # residual block caps
    free: np.ndarray      # bool mask of the non-fixed columns

    def restrict(self, core):
        """(sub, cols): the core columns (inside `free`) as a plain Instance.

        Sub column j is original column cols[j], in ascending order so index
        ties break alike.  All m rows keep their residual demands and all k
        blocks their residual caps (blocks may be empty), so row vectors such
        as the weights carry over; wbar stays the full instance's.
        """
        inst = self.inst
        cols = np.flatnonzero(core)
        pos = np.empty(inst.n, dtype=np.int64)
        pos[cols] = np.arange(cols.size)
        rows, blocks = inst.row_csr, inst.block_csr
        cover = core[rows.ind]
        member = core[blocks.ind]
        sub = Instance(
            inst.cost[cols], self.demand, rows.owners()[cover], pos[rows.ind[cover]],
            self.cap, blocks.owners()[member], pos[blocks.ind[member]], wbar=inst.wbar)
        return sub, cols


def apply_fixing(inst, fixed) -> ReducedProblem:
    """Fold the fixed columns into demands and caps; inst itself is untouched."""
    fixed = np.asarray(fixed, dtype=np.int64)
    free = np.ones(inst.n, dtype=bool)
    free[fixed] = False
    demand = np.maximum(inst.demand - coverage_counts(inst, ~free), 0)
    cap = inst.cap - np.bincount(inst.block_of[fixed], minlength=inst.k)
    return ReducedProblem(inst, demand, cap, free)


def normalized_scores(red: ReducedProblem, u):
    """Reduced costs shifted per block by the first over-cap member.

    Within each block the residual-cap cheapest free columns are the ones
    the relaxation could actually take; subtracting theta, the reduced
    cost of the free member ranked exactly at the residual cap
    (rank_within), when negative, stops crowded blocks from flooding the
    core.  Blocks whose cap covers every free member have no such member
    and keep their raw values.
    """
    inst = red.inst
    rc = reduced_costs(inst, u)
    free = np.flatnonzero(red.free)
    h = inst.block_of[free]
    first_out = rank_within(h, rc[free]) == red.cap[h]
    theta = np.zeros(inst.k)
    theta[h[first_out]] = rc[free[first_out]]
    rho = rc.copy()
    shift = theta[inst.block_of]
    neg = shift < 0
    rho[neg] -= shift[neg]
    return rho


def pseudo_scores(inst, u):
    """Reduced costs under u, the scores of both the pseudo and the
    lagrangian scheme.

    The two schemes differ only in u (the penalty weights or the
    subgradient multipliers, satisfied rows zeroed by fix_columns).  It is
    reduced_costs under its own name so that scoring stays a layer of its
    own in profiles: perfbench/spans.py times it by this name.
    """
    return reduced_costs(inst, u)


def build_core(red: ReducedProblem, scores, x_star, x_hat, multiplier=10):
    """Column mask the reduced search is allowed to touch.

    Union of, all restricted to the free columns: per row, its residual
    demand's worth of best-scored covering columns; the multiplier * n'
    best-scored columns overall (n' = free columns of x_hat); and both
    guiding solutions.
    """
    inst, free = red.inst, red.free
    x_star = np.asarray(x_star, dtype=bool) & free
    x_hat = np.asarray(x_hat, dtype=bool) & free
    core = np.zeros(inst.n, dtype=bool)
    for i in range(inst.m):
        bi = int(red.demand[i])
        if bi <= 0:
            continue
        cols = inst.row_cols[i]
        cols = cols[free[cols]]
        if cols.size <= bi:
            core[cols] = True
        else:
            order = np.lexsort((cols, scores[cols]))
            core[cols[order[:bi]]] = True
    pool = np.flatnonzero(free)
    width = multiplier * int(x_hat.sum())
    if width >= pool.size:
        core[pool] = True
    elif width > 0:
        core[pool[lowest_k(scores[pool], width)]] = True
    core |= x_star
    core |= x_hat
    return core
