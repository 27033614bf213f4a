"""Reference sets of elite solutions and path walks between them.

Two pools are kept: one scored under the adaptive weights, one under the
initial weights.  A relinking step draws a solution from each, walks from
the better one toward the other by single flips that shrink the Hamming
distance, and hands the first local best along that path to the next
search round as its starting point.
"""

from __future__ import annotations

import numpy as np

from .localsearch import SearchState
from .model import solution_key

DRAW_TRIES = 10  # pair draws before draw_pair gives up on a walk


class ReferenceSet:
    """Bounded pool of distinct solutions."""

    def __init__(self, capacity=10):
        self.capacity = capacity
        self.members: list[np.ndarray] = []
        self._keys: set[bytes] = set()

    def __len__(self):
        return len(self.members)

    def add_initial(self, x) -> bool:
        """Fill phase: append while below capacity, skipping duplicates."""
        key = solution_key(x)
        if key in self._keys or len(self.members) >= self.capacity:
            return False
        self.members.append(np.array(x, dtype=bool))
        self._keys.add(key)
        return True

    def update(self, x, value, values) -> bool:
        """Swap out the worst member for x when x is no worse and new.

        `values` are the members' evaluations under the caller's current
        objective; they are supplied fresh on every call because the
        weight vector they depend on keeps moving.
        """
        key = solution_key(x)
        if key in self._keys or not self.members:
            return False
        worst = int(np.argmax(values))
        if value > values[worst]:
            return False
        self._keys.discard(solution_key(self.members[worst]))
        self.members[worst] = np.array(x, dtype=bool)
        self._keys.add(key)
        return True


def draw_pair(r1, r2, exclude_key, evaluate, rng):
    """Pick one member from each pool and orient the pair for a walk.

    The lower-valued draw (under `evaluate`) starts the walk.  Pairs whose
    starter is the excluded solution are redrawn; after DRAW_TRIES failures
    returns (None, None, better-of-the-last-pair) and the caller skips the
    walk.
    """
    a = b = None
    va = vb = 0.0
    for _ in range(DRAW_TRIES):
        a = r1.members[int(rng.integers(len(r1)))]
        b = r2.members[int(rng.integers(len(r2)))]
        va = evaluate(a)
        vb = evaluate(b)
        init, guide = (a, b) if va <= vb else (b, a)
        if solution_key(init) != exclude_key:
            return init, guide, None
    return None, None, (a if va <= vb else b)


def walk(inst, w, init, guide) -> np.ndarray:
    """March from init toward guide and return the first local best.

    Each step flips one coordinate where the current point still differs
    from the guide (so the Hamming distance drops by one), choosing the
    flip with the best penalized value, ties to the lowest index.  Adds
    that would breach a block cap are skipped; the walk ends at the first
    point no candidate strictly improves on, or when every remaining
    coordinate is blocked, or at the guide itself.
    """
    state = SearchState(inst, w, x0=init)
    guide = np.asarray(guide, dtype=bool)
    while True:
        diff = np.flatnonzero(state.x != guide)
        if diff.size == 0:
            return state.copy_solution()
        drops = diff[state.x[diff]]
        adds = diff[~state.x[diff]]
        hb = inst.block_of[adds]
        adds = adds[state.blk[hb] < state.d[hb]]
        if drops.size == 0 and adds.size == 0:
            return state.copy_solution()
        cand = np.concatenate([drops, adds])
        deltas = np.concatenate([
            -state.costf[drops] + state.dp_down[drops],
            state.costf[adds] - state.dp_up[adds],
        ])
        pos = np.lexsort((cand, deltas))[0]
        if not deltas[pos] < 0:
            return state.copy_solution()
        state.flip(int(cand[pos]))
