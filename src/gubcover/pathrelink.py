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
POOL_SIZE = 10   # members a ReferenceSet holds


class ReferenceSet:
    """Pool of at most POOL_SIZE distinct solutions."""

    def __init__(self):
        self.members: list[np.ndarray] = []
        self._keys: set[bytes] = set()

    def add_initial(self, x) -> bool:
        """Fill phase: append while below POOL_SIZE, skipping duplicates."""
        key = solution_key(x)
        if key in self._keys or len(self.members) >= POOL_SIZE:
            return False
        self.members.append(np.array(x, dtype=bool))
        self._keys.add(key)
        return True

    def update(self, x, evaluate) -> bool:
        """Swap out the worst member for x when x is no worse and new.

        `evaluate` scores x and the members under the caller's current
        objective; it is passed on every call because the weights it reads
        keep moving.
        """
        key = solution_key(x)
        if key in self._keys or not self.members:
            return False
        values = [evaluate(m) for m in self.members]
        worst = int(np.argmax(values))
        if evaluate(x) > values[worst]:
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
        a = r1.members[int(rng.integers(len(r1.members)))]
        b = r2.members[int(rng.integers(len(r2.members)))]
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
    diff = np.flatnonzero(state.x != np.asarray(guide, dtype=bool))  # ascending
    while diff.size:
        gains = np.where(state.x[diff], state.delta_down(diff),
                         np.where(state.addable(diff), state.delta_up(diff), np.inf))
        pos = int(np.argmin(gains))
        if not gains[pos] < 0:
            break
        state.flip(int(diff[pos]))
        diff = np.delete(diff, pos)
    return state.x.copy()
