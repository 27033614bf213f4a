"""Slow reference implementations used by the test suite.

Everything here recomputes from first principles (dense enumeration,
direct recounting) and deliberately shares no code with the solver
modules, so the two sides can disagree only if one of them is wrong.
Not for production use; the enumerators are capped at 24 columns.
"""

from __future__ import annotations

import numpy as np

_ENUM_CAP = 24
_CHUNK = 1 << 16


def _dense(inst):
    """0/1 coverage matrix and block membership matrix, built by loops."""
    a = np.zeros((inst.m, inst.n), dtype=np.int64)
    for j in range(inst.n):
        for i in inst.col_rows[j]:
            a[int(i), j] = 1
    g = np.zeros((inst.k, inst.n), dtype=np.int64)
    for h in range(inst.k):
        for j in inst.block_cols[h]:
            g[h, int(j)] = 1
    return a, g


def _mask_chunks(n):
    total = 1 << n
    shifts = np.arange(n, dtype=np.int64)
    for lo in range(0, total, _CHUNK):
        masks = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        yield masks, (masks[:, None] >> shifts) & 1


def brute_force_optimum(inst):
    """Exact optimum by enumerating every 0/1 assignment.

    Returns (x, objective) or (None, None) when no assignment satisfies
    both constraint families.  Ties resolve to the smallest bitmask, i.e.
    preferring low column indices off.
    """
    if inst.n > _ENUM_CAP:
        raise ValueError(f"enumeration capped at {_ENUM_CAP} columns, got {inst.n}")
    a, g = _dense(inst)
    best_val = None
    best_mask = None
    for masks, bits in _mask_chunks(inst.n):
        cover_ok = (bits @ a.T >= inst.demand).all(axis=1)
        gub_ok = (bits @ g.T <= inst.cap).all(axis=1)
        ok = cover_ok & gub_ok
        if not ok.any():
            continue
        vals = bits @ inst.cost
        sub = np.flatnonzero(ok)
        pos = sub[np.argmin(vals[sub])]
        if best_val is None or vals[pos] < best_val:
            best_val = int(vals[pos])
            best_mask = int(masks[pos])
    if best_val is None:
        return None, None
    x = np.array([(best_mask >> j) & 1 for j in range(inst.n)], dtype=bool)
    return x, best_val


def brute_force_lr(inst, u):
    """Minimize the relaxed objective over all cap-respecting assignments.

    Returns (x, value) with value = sum_j (c_j - sum_{i in S_j} u_i) x_j
    + sum_i b_i u_i.  Ties resolve to the smallest bitmask.
    """
    if inst.n > _ENUM_CAP:
        raise ValueError(f"enumeration capped at {_ENUM_CAP} columns, got {inst.n}")
    u = np.asarray(u, dtype=float)
    _, g = _dense(inst)
    rc = np.empty(inst.n)
    for j in range(inst.n):
        rc[j] = inst.cost[j] - sum(u[int(i)] for i in inst.col_rows[j])
    offset = float(np.dot(inst.demand, u))
    best_val = None
    best_mask = None
    for masks, bits in _mask_chunks(inst.n):
        ok = (bits @ g.T <= inst.cap).all(axis=1)
        if not ok.any():
            continue
        vals = bits @ rc
        sub = np.flatnonzero(ok)
        pos = sub[np.argmin(vals[sub])]
        if best_val is None or vals[pos] < best_val:
            best_val = float(vals[pos])
            best_mask = int(masks[pos])
    x = np.array([(best_mask >> j) & 1 for j in range(inst.n)], dtype=bool)
    return x, best_val + offset


def recount(inst, x):
    """(s, blk): selected columns per row and per block, counted one by one."""
    s = np.zeros(inst.m, dtype=np.int64)
    blk = np.zeros(inst.k, dtype=np.int64)
    for j in np.flatnonzero(x):
        s[inst.col_rows[j]] += 1
        blk[inst.block_of[j]] += 1
    return s, blk


def penalized_value(inst, x, w):
    """Direct evaluation of cost plus weighted shortfall."""
    x = np.asarray(x, dtype=bool)
    b = inst.demand
    s, _ = recount(inst, x)
    w = np.asarray(w, dtype=float)
    val = float(inst.cost[x].sum())
    for i in range(inst.m):
        if s[i] < b[i]:
            val += w[i] * (b[i] - s[i])
    return val


def one_flip_delta(inst, x, w, j):
    """Penalized-value change of flipping column j, by local recount."""
    x = np.asarray(x, dtype=bool)
    b = inst.demand
    s, _ = recount(inst, x)
    w = np.asarray(w, dtype=float)
    sign = -1 if x[j] else 1
    delta = float(sign * inst.cost[j])
    for i in inst.col_rows[j]:
        i = int(i)
        old = max(b[i] - s[i], 0)
        new = max(b[i] - (s[i] + sign), 0)
        delta += w[i] * (new - old)
    return delta


def delta_tables(inst, x, w):
    """Per-column shortfall-weight sums, straight from the definitions.

    Returns (up, down): up[j] sums w_i over covered rows still short of
    demand, down[j] over covered rows at or below demand.
    """
    x = np.asarray(x, dtype=bool)
    b = inst.demand
    s, _ = recount(inst, x)
    w = np.asarray(w, dtype=float)
    up = np.zeros(inst.n)
    down = np.zeros(inst.n)
    for j in range(inst.n):
        for i in inst.col_rows[j]:
            i = int(i)
            if s[i] < b[i]:
                up[j] += w[i]
            if s[i] <= b[i]:
                down[j] += w[i]
    return up, down


def two_flip_delta(inst, x, w, j1, j2):
    """Penalized-value change of flipping both j1 and j2 (any statuses)."""
    x = np.asarray(x, dtype=bool)
    b = inst.demand
    s, _ = recount(inst, x)
    w = np.asarray(w, dtype=float)
    signs = {j1: -1 if x[j1] else 1, j2: -1 if x[j2] else 1}
    delta = float(signs[j1] * inst.cost[j1] + signs[j2] * inst.cost[j2])
    touched = set(int(i) for i in inst.col_rows[j1]) | set(int(i) for i in inst.col_rows[j2])
    for i in touched:
        change = 0
        if i in (int(r) for r in inst.col_rows[j1]):
            change += signs[j1]
        if i in (int(r) for r in inst.col_rows[j2]):
            change += signs[j2]
        old = max(b[i] - s[i], 0)
        new = max(b[i] - (s[i] + change), 0)
        delta += w[i] * (new - old)
    return delta


def exhaustive_2flip_scan(inst, x, w):
    """Best improving two-column flip by unpruned pair enumeration.

    Considers every unordered pair regardless of selection status, keeps
    only moves whose result respects the block caps, and returns
    (delta, j1, j2) for the smallest delta < 0, or None.  Ties resolve
    lexicographically on (delta, j1, j2).
    """
    x = np.asarray(x, dtype=bool)
    b, d = inst.demand, inst.cap
    s, blk = recount(inst, x)
    w = np.asarray(w, dtype=float)
    rows = [set(int(i) for i in inst.col_rows[j]) for j in range(inst.n)]
    best = None
    for j1 in range(inst.n):
        for j2 in range(j1 + 1, inst.n):
            s1 = -1 if x[j1] else 1
            s2 = -1 if x[j2] else 1
            h1, h2 = int(inst.block_of[j1]), int(inst.block_of[j2])
            new1 = blk[h1] + s1 + (s2 if h2 == h1 else 0)
            new2 = blk[h2] + s2 + (s1 if h1 == h2 else 0)
            if new1 > d[h1] or new2 > d[h2]:
                continue
            delta = float(s1 * inst.cost[j1] + s2 * inst.cost[j2])
            for i in rows[j1] | rows[j2]:
                change = (s1 if i in rows[j1] else 0) + (s2 if i in rows[j2] else 0)
                old = max(b[i] - s[i], 0)
                new = max(b[i] - (s[i] + change), 0)
                delta += w[i] * (new - old)
            if delta < 0 and (best is None or (delta, j1, j2) < best):
                best = (delta, j1, j2)
    return best
