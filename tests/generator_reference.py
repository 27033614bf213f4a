"""List-based reference for gubcover.io.generate.

This is the generator as it was written first: a Python list and set of
rows per column, coverage counted entry by entry, and the instance built
through Instance.from_columns.  gubcover.io.generate builds the same
instances from packed index arrays; test_io.py requires the two to agree,
array for array and in their repair counts, on many seeded parameter sets.
"""

from __future__ import annotations

import numpy as np

from gubcover.model import Instance


def generate_by_lists(p):
    """(instance, stats) of gubcover.io.generate(p), with per-column lists."""
    p = p.check()
    rng = np.random.default_rng(p.seed)
    cost = rng.integers(p.cost_lo, p.cost_hi + 1, size=p.cols)
    demand = rng.integers(p.demand_lo, p.demand_hi + 1, size=p.rows)
    col_rows = []
    chunk = 512
    for lo in range(0, p.cols, chunk):
        width = min(chunk, p.cols - lo)
        hits = rng.random((width, p.rows)) < p.density
        for c in range(width):
            col_rows.append(list(np.flatnonzero(hits[c])))
    empty_fixes = 0
    for j in range(p.cols):
        if not col_rows[j]:
            col_rows[j] = [int(rng.integers(p.rows))]
            empty_fixes += 1
    counts = np.zeros(p.rows, dtype=np.int64)
    covers = [set(r) for r in col_rows]
    for j in range(p.cols):
        for i in col_rows[j]:
            counts[i] += 1
    row_fixes = 0
    for i in range(p.rows):
        need = max(int(demand[i]), 2)
        while counts[i] < need:
            j = int(rng.integers(p.cols))
            if i in covers[j]:
                continue
            covers[j].add(i)
            col_rows[j].append(i)
            counts[i] += 1
            row_fixes += 1
    order = np.argsort(cost, kind="stable")
    cost = cost[order]
    col_rows = [col_rows[j] for j in order]
    k = p.cols // p.block_size
    blocks = [
        (p.cap, list(range(h * p.block_size, (h + 1) * p.block_size)))
        for h in range(k)
    ]
    inst = Instance.from_columns(cost, col_rows, demand, blocks)
    achieved = inst.density()
    stats = {
        "target_density": p.density,
        "achieved_density": achieved,
        "density_within_10pct": abs(achieved - p.density) <= 0.1 * p.density,
        "empty_column_repairs": empty_fixes,
        "row_coverage_repairs": row_fixes,
    }
    return inst, stats
